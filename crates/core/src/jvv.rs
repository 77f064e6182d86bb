//! The distributed JVV sampler — exact sampling via local rejection
//! sampling (paper, Theorem 4.2, Proposition 4.3, Section 4.2).
//!
//! `local-JVV` is a three-pass SLOCAL algorithm over a multiplicative
//! inference oracle `A` with error `ε` (the paper instantiates
//! `ε = 1/n³`; [`LocalJvv::paper_epsilon`]):
//!
//! 1. **Ground state.** Scan the ordering and extend `τ` to a feasible
//!    configuration `σ₀`, at each node picking an arbitrary value with
//!    positive estimated marginal (positive estimate ⟹ positive truth,
//!    thanks to the *multiplicative* guarantee).
//! 2. **Random configuration.** Scan again and sample
//!    `Y(v_i) ~ μ̂^{Y_{<i}}_{v_i}` with each node's private randomness —
//!    the chain-rule sampler whose density `μ̂^τ` satisfies
//!    `e^{−nε} ≤ μ̂^τ(σ)/μ^τ(σ) ≤ e^{nε}` (Claim 4.5).
//! 3. **Local rejection.** Walk a configuration path
//!    `σ₀ → σ₁ → ... → σ_n = Y` where `σ_i` agrees with `Y` on the first
//!    `i` scanned nodes, stays feasible, and differs from `σ_{i−1}` only
//!    inside `B_t(v_i)` (Claim 4.6 — realized here by greedy repair,
//!    valid for locally admissible models). Node `v_i` accepts with
//!    probability
//!    `q_{v_i} = (μ̂^τ(σ_{i−1})·w(σ_i)) / (μ̂^τ(σ_i)·w(σ_{i−1})) · s`
//!    where `s = e^{−3nε}` is the slack absorbing the oracle error
//!    (Claim 4.7: `e^{−5nε} ≤ q_{v_i} ≤ 1`); both ratios telescope to
//!    quantities computable within radius `O(t)` of `v_i` because distant
//!    marginal calls see indistinguishable instances.
//!
//! Conditioned on **no** rejection the output `Y` follows `μ^τ`
//! **exactly** (Lemma 4.8): the acceptance product
//! `∏ q_{v_i} = (μ̂^τ(σ₀)/w(σ₀))·s^n·w(Y)/μ̂^τ(Y)` times the sampling
//! density `μ̂^τ(Y)` is proportional to `w(Y)` — rejection sampling with
//! locally computable acceptance. Success probability `≥ e^{−5n²ε}`,
//! which is `1 − O(1/n)` at the paper's `ε = 1/n³`.

use std::time::Instant;

use lds_gibbs::admissible::first_feasible_value;
use lds_gibbs::{distribution, Config, GibbsModel, PartialConfig, Value};
use lds_graph::{traversal, Graph, NodeId};
use lds_localnet::scheduler::ChromaticSchedule;
use lds_localnet::slocal::{
    multipass_locality, run_scan_sequential, ScanKernel, SlocalKernel, SlocalRun,
};
use lds_localnet::Network;
use lds_oracle::{Oracle, Target};
use lds_runtime::{CancelToken, Cancelled, Phase};
use rand::Rng;

use crate::sampler::SampleRun;

/// Randomness stream for pass 2 (sampling `Y`).
const STREAM_JVV_SAMPLE: u64 = 2;
/// Randomness stream for pass 3 (rejection coins).
const STREAM_JVV_REJECT: u64 = 3;

/// Execution statistics of one `local-JVV` run.
#[derive(Clone, Debug, Default)]
pub struct JvvStats {
    /// Product of the acceptance probabilities `∏ q_{v_i}` (the success
    /// probability of this execution's rejection phase given `Y`).
    pub acceptance_product: f64,
    /// Number of acceptance probabilities that had to be clamped to 1 —
    /// always 0 when the oracle honors its error bound.
    pub clamped: usize,
    /// Number of nodes where the feasibility repair of Claim 4.6 failed —
    /// always 0 for locally admissible models.
    pub repair_failures: usize,
    /// The single-pass locality (Lemma 4.4 folding of the three passes).
    pub locality: usize,
}

/// Output of a detailed `local-JVV` execution.
#[derive(Clone, Debug)]
pub struct JvvOutcome {
    /// The sampled configuration `Y` and per-node failure bits `F′`.
    pub run: SlocalRun<Value>,
    /// Statistics.
    pub stats: JvvStats,
}

/// The `local-JVV` exact sampler.
#[derive(Clone, Debug)]
pub struct LocalJvv<'a, O: ?Sized> {
    oracle: &'a O,
    eps: f64,
}

impl<'a, O: Oracle + ?Sized> LocalJvv<'a, O> {
    /// Creates the sampler over a multiplicative-error oracle with
    /// per-marginal error `ε`.
    ///
    /// # Panics
    ///
    /// Panics if `ε ≤ 0`.
    pub fn new(oracle: &'a O, eps: f64) -> Self {
        assert!(eps > 0.0, "oracle error must be positive");
        LocalJvv { oracle, eps }
    }

    /// The paper's instantiation `ε = 1/n³` (Proposition 4.3), giving
    /// success probability `1 − O(1/n)`. Experiments E4 and E6 run
    /// local-JVV at it to check that claim.
    pub fn paper_epsilon(n: usize) -> f64 {
        1.0 / (n.max(2) as f64).powi(3)
    }

    /// The slack factor `s = e^{−3nε}` of the rejection probabilities.
    fn slack(&self, n: usize) -> f64 {
        (-3.0 * n as f64 * self.eps).exp()
    }

    /// The rejection-phase success lower bound `e^{−5n²ε}` (Lemma 4.8
    /// generalized to arbitrary `ε`); experiment E4 checks the measured
    /// success rate against it.
    pub fn success_lower_bound(&self, n: usize) -> f64 {
        (-5.0 * (n * n) as f64 * self.eps).exp()
    }

    /// The single-pass SLOCAL locality of the three passes on `model`
    /// (Lemma 4.4 folding of localities `t`, `t` and `3t + ℓ`, where `t`
    /// is the oracle radius and `ℓ` the model's factor diameter) — the
    /// locality [`sample_exact_local`]'s schedule is drawn for.
    pub fn locality(&self, model: &GibbsModel) -> usize {
        let ell = model.locality().max(1);
        let t = self.oracle.radius(model, Target::Mul(self.eps));
        multipass_locality(&[t, t, 3 * t + ell])
    }

    /// The pass-1 kernel (ground state σ₀).
    fn ground_kernel(&self) -> GroundKernel<'a, O> {
        GroundKernel {
            oracle: self.oracle,
            eps: self.eps,
        }
    }

    /// The pass-2 kernel (random configuration `Y`).
    fn chain_kernel(&self) -> ChainKernel<'a, O> {
        ChainKernel {
            oracle: self.oracle,
            eps: self.eps,
        }
    }

    /// The pass-3 kernel (local rejection), given the outputs of passes
    /// 1 and 2 over `order`.
    fn reject_kernel(
        &self,
        net: &Network,
        order: &[NodeId],
        ground: SlocalRun<Value>,
        sampled: SlocalRun<Value>,
    ) -> RejectKernel<'a, O> {
        let model = net.instance().model();
        let n = model.node_count();
        let ell = model.locality().max(1);
        let t = self.oracle.radius(model, Target::Mul(self.eps));
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        RejectKernel {
            oracle: self.oracle,
            eps: self.eps,
            pos,
            sigma0: Config::from_values(ground.outputs),
            y: Config::from_values(sampled.outputs),
            ground_failures: ground.failures,
            t,
            ell,
            slack: self.slack(n),
            locality: self.locality(model),
        }
    }

    /// Runs the three passes as sequential scans over `order`. Over a
    /// chromatic schedule's ordering this is the LOCAL execution of
    /// Lemma 3.1 ([`sample_exact_local`]).
    ///
    /// Returns the outcome (failure bits are the scan's own `F′`, not
    /// merged with a schedule's `F″`) and the `ground`, `sample` and
    /// `reject` phases. `cancel` is checked every 256 nodes of each pass
    /// and when each pass ends; checks consume no randomness, and a
    /// cancelled run returns `Err(`[`Cancelled`]`)` with no partial
    /// outcome.
    pub fn run(
        &self,
        net: &Network,
        order: &[NodeId],
        cancel: &CancelToken,
    ) -> Result<(JvvOutcome, Vec<Phase>), Cancelled> {
        let start = Instant::now();
        let ground = run_scan_sequential(net, &self.ground_kernel(), order, cancel)?;
        let ground_phase = Phase::new("ground", start.elapsed(), 0);
        let start = Instant::now();
        let sampled = run_scan_sequential(net, &self.chain_kernel(), order, cancel)?;
        let sample_phase = Phase::new("sample", start.elapsed(), 0);
        let start = Instant::now();
        let reject = self.reject_kernel(net, order, ground, sampled);
        let outcome = run_scan_sequential(net, &reject, order, cancel)?;
        let reject_phase = Phase::new("reject", start.elapsed(), 0);
        Ok((outcome, vec![ground_phase, sample_phase, reject_phase]))
    }

    /// The full **pre-refactor** three-pass sequential execution:
    /// passes 1–2 as sequential kernel scans (unchanged by the pass-3
    /// refactor) composed with [`LocalJvv::rejection_pass_reference`].
    /// The pass-3 equivalence proptest (`tests/pass3_reference.rs`)
    /// compares [`LocalJvv::run`] against this, bit for bit. Not part of
    /// the serving path.
    #[doc(hidden)]
    pub fn run_detailed_reference(&self, net: &Network, order: &[NodeId]) -> JvvOutcome {
        let ground = scan(net, &self.ground_kernel(), order);
        let sampled = scan(net, &self.chain_kernel(), order);
        self.rejection_pass_reference(net, order, ground, sampled)
    }

    /// The refactored pass-3 kernel run sequentially over `order` from
    /// the given pass-1/2 outputs — test hook for comparing the kernel
    /// scan against [`LocalJvv::rejection_pass_reference`] on
    /// hand-crafted inputs (e.g. synthetic ground-failure bits, which
    /// the full pipeline only produces on infeasible-fallback paths).
    #[doc(hidden)]
    pub fn rejection_pass_scan(
        &self,
        net: &Network,
        order: &[NodeId],
        ground: SlocalRun<Value>,
        sampled: SlocalRun<Value>,
    ) -> JvvOutcome {
        let reject = self.reject_kernel(net, order, ground, sampled);
        scan(net, &reject, order)
    }

    /// Pass 3 (local rejection) given the ground state and the sampled
    /// configuration from passes 1 and 2 — the **frozen pre-refactor
    /// sequential scan**, kept verbatim as the reference implementation
    /// that the pass-3 equivalence proptest (`tests/pass3_reference.rs`)
    /// compares the [`RejectKernel`] execution against, bit for bit. Not
    /// part of the serving path.
    #[doc(hidden)]
    pub fn rejection_pass_reference(
        &self,
        net: &Network,
        order: &[NodeId],
        ground: SlocalRun<Value>,
        sampled: SlocalRun<Value>,
    ) -> JvvOutcome {
        let model = net.instance().model();
        let tau = net.instance().pinning();
        let g = model.graph();
        let n = model.node_count();
        let ell = model.locality().max(1);
        let mul = Target::Mul(self.eps);
        let t = self.oracle.radius(model, mul);
        let slack = self.slack(n);
        let mut stats = JvvStats {
            acceptance_product: 1.0,
            locality: self.locality(model),
            ..JvvStats::default()
        };
        // pass-1 fallback failures carry over; pass 2 never fails
        let mut failures = ground.failures;
        let sigma0 = Config::from_values(ground.outputs);
        let y = Config::from_values(sampled.outputs);

        // position of each node in the scan order
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }

        // ---- Pass 3: local rejection ----
        let mut sigma_prev = sigma0.clone();
        for (i, &vi) in order.iter().enumerate() {
            // σ_i: agree with Y on order[..=i], differ from σ_{i-1} only
            // inside B_t(vi), stay feasible (Claim 4.6 via greedy repair).
            let ball: Vec<NodeId> = traversal::ball(g, vi, t.max(ell));
            let sigma_i = match repair(model, &sigma_prev, &y, &ball, &pos, i) {
                Some(c) => c,
                None => {
                    stats.repair_failures += 1;
                    failures[vi.index()] = true;
                    continue;
                }
            };

            // acceptance probability q_{v_i}
            let cutoff = 2 * t.max(ell) + ell;
            let dist = traversal::bfs_distances(g, vi);
            let mut ratio = 1.0f64;
            // density ratio μ̂^τ(σ_{i-1}) / μ̂^τ(σ_i): only scan positions
            // within the cutoff ball differ.
            for &vj in order {
                let d = dist[vj.index()];
                if d == traversal::UNREACHABLE || d as usize > cutoff {
                    continue;
                }
                if tau.is_pinned(vj) {
                    continue;
                }
                let j = pos[vj.index()];
                let prev_val = sigma_prev.get(vj);
                let new_val = sigma_i.get(vj);
                let prefix_prev = prefix_pinning(tau, order, &sigma_prev, j);
                let prefix_new = prefix_pinning(tau, order, &sigma_i, j);
                if prev_val == new_val && prefix_prev == prefix_new {
                    continue;
                }
                let mu_prev = self.oracle.query(model, &prefix_prev, vj, mul);
                let mu_new = self.oracle.query(model, &prefix_new, vj, mul);
                let num = mu_prev[prev_val.index()];
                let den = mu_new[new_val.index()];
                if den > 0.0 {
                    ratio *= num / den;
                }
            }
            // weight ratio w(σ_i) / w(σ_{i-1}): factors touching the ball
            for &u in &ball {
                for &fi in model.factors_touching(u) {
                    let f = &model.factors()[fi];
                    // count each factor once: at its minimum ball member
                    let first = f
                        .scope()
                        .iter()
                        .filter(|s| {
                            dist[s.index()] != traversal::UNREACHABLE
                                && (dist[s.index()] as usize) <= t.max(ell)
                        })
                        .min()
                        .copied();
                    if first != Some(u) {
                        continue;
                    }
                    let w_new = f
                        .eval_partial(|s| Some(sigma_i.get(s)))
                        .expect("full config");
                    let w_prev = f
                        .eval_partial(|s| Some(sigma_prev.get(s)))
                        .expect("full config");
                    if w_prev > 0.0 {
                        ratio *= w_new / w_prev;
                    }
                }
            }

            let mut q_vi = ratio * slack;
            if q_vi > 1.0 {
                stats.clamped += 1;
                q_vi = 1.0;
            }
            stats.acceptance_product *= q_vi;
            let mut rng = net.node_rng(vi, STREAM_JVV_REJECT);
            if !rng.gen_bool(q_vi.max(0.0)) {
                failures[vi.index()] = true;
            }
            sigma_prev = sigma_i;
        }

        let outputs: Vec<Value> = (0..n).map(|i| y.get(NodeId::from_index(i))).collect();
        JvvOutcome {
            run: SlocalRun { outputs, failures },
            stats,
        }
    }
}

/// A sequential scan that is never cancelled.
fn scan<K: ScanKernel + ?Sized>(net: &Network, kernel: &K, order: &[NodeId]) -> K::Run {
    run_scan_sequential(net, kernel, order, &CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// Pass-1 kernel: extend `τ` feasibly by picking the first value with
/// positive estimated marginal (positive estimate ⟹ positive truth by
/// the multiplicative guarantee). Reads pins within the oracle radius
/// `t`; failure only on the defensive fallback path.
struct GroundKernel<'a, O: ?Sized> {
    oracle: &'a O,
    eps: f64,
}

impl<O: Oracle + ?Sized> SlocalKernel for GroundKernel<'_, O> {
    fn process(&self, net: &Network, sigma: &PartialConfig, v: NodeId) -> (Value, bool) {
        let model = net.instance().model();
        let q = model.alphabet_size();
        // only *positivity* matters here (positive estimate ⟹ positive
        // truth); the `Support` target lets the oracle certify it without
        // computing the magnitude — for the SAW oracle a one-or-two
        // level tree instead of the full planned radius
        let support = self
            .oracle
            .query(model, sigma, v, Target::Support(self.eps));
        if let Some(c) = (0..q).find(|&c| support[c] > 0.0) {
            return (Value::from_index(c), false);
        }
        // defensive fallback: the greedy local feasibility of Remark 2.3
        match first_feasible_value(model, sigma, v) {
            Some(c) => (c, false),
            None => (Value(0), true),
        }
    }
}

/// Pass-2 kernel: sample `Y_v ~ μ̂^{Y_{<v}}_v` with `v`'s private
/// randomness (stream [`STREAM_JVV_SAMPLE`]). Never fails.
struct ChainKernel<'a, O: ?Sized> {
    oracle: &'a O,
    eps: f64,
}

impl<O: Oracle + ?Sized> SlocalKernel for ChainKernel<'_, O> {
    fn process(&self, net: &Network, sigma: &PartialConfig, v: NodeId) -> (Value, bool) {
        let model = net.instance().model();
        let mu = self.oracle.query(model, sigma, v, Target::Mul(self.eps));
        let mut rng = net.node_rng(v, STREAM_JVV_SAMPLE);
        (distribution::sample_from_marginal(&mu, &mut rng), false)
    }
}

/// Pass-3 kernel: the local rejection scan of Theorem 4.2 as a
/// [`ScanKernel`] whose state is the configuration path `σ_{i−1}`, the
/// failure bits `F′` and the [`JvvStats`] so far, plus the
/// density-factor table and the step's buffers ([`RejectState`]).
/// Checked bit for bit against the frozen
/// [`LocalJvv::rejection_pass_reference`] in `tests/pass3_reference.rs`.
///
/// **Locality.** Everything rests on the oracle's radius contract: a
/// `Mul(ε)` query at `v_j` reads pins only within
/// `t = radius(model, Mul(ε))` of `v_j`. An oracle that reads farther can
/// make the kernel differ from the reference; `EnumerationOracle`, which
/// serves colorings, is one: its boosted `Mul` view gathers `B_{t'+ℓ}`
/// around each frontier node at inner radius `t'`, which puts it `ℓ` past
/// the radius it declares.
/// Processing `v_i` (a) *writes* the configuration path only inside
/// `B_W(v_i)` with `W = max(t, ℓ)` — Claim 4.6's repair changes
/// `σ_{i−1} → σ_i` only inside the repair ball, and the greedy
/// feasibility extension's choice at a free ball node depends only on
/// factors touching it (range `ℓ`); and (b) *reads* the path only inside
/// `B_R(v_i)` with `R = 2·max(t, ℓ) + ℓ + t = 3t + ℓ` for `t ≥ ℓ`: the
/// density ratio visits scan positions `v_j` within the cutoff
/// `2·max(t, ℓ) + ℓ` and queries the oracle there, which reads pins
/// within a further `t` of `v_j` (the telescoping of Claim 4.7 — distant
/// marginal calls see indistinguishable instances). The global
/// feasibility checks inside the repair are factor-local, and away from
/// `B_R(v_i)` the path state is a feasible configuration (the path
/// invariant), so checking only the factors near the ball decides as the
/// reference's global check does. Each step multiplies its `q_{v_i}`
/// into the acceptance product as it runs, in scan order as the
/// reference does, so even the product's floating-point rounding
/// sequence matches the reference.
///
/// **Density factors.** The density `μ̂^τ(σ)` is a product of one factor
/// per scan position `j`: the oracle's marginal at `v_j` under the
/// prefix `τ ∧ (order[..j] ↦ σ)`, at `σ(v_j)`. By the radius contract
/// that factor is a function of `σ(v_j)` and of the prefix pins within
/// `t` of `v_j`. The scan state keeps the factor of every position under
/// the current path state, filled on first use, so a step queries only
/// the `σ_i` side of the factors it changes: their `σ_{i−1}` side is the
/// `σ` side an earlier step stored. A factor changes only where a write
/// reaches it, and every write lies within `W` of `v_i`, hence within
/// the cutoff ball; a step leaves the factors outside it alone.
struct RejectKernel<'a, O: ?Sized> {
    oracle: &'a O,
    eps: f64,
    /// `pos[v] = i` ⟺ `order[i] = v`.
    pos: Vec<usize>,
    /// Pass-1 output `σ₀` — the initial configuration path state.
    sigma0: Config,
    /// Pass-2 output `Y` — the candidate sample.
    y: Config,
    /// Pass-1 failure bits, the scan's initial `F′` (pass 2 never
    /// fails).
    ground_failures: Vec<bool>,
    /// Oracle radius `t`.
    t: usize,
    /// Model locality `ℓ`.
    ell: usize,
    /// The slack factor `s = e^{−3nε}`.
    slack: f64,
    /// Single-pass folded locality (Lemma 4.4 on `[t, t, 3t + ℓ]`).
    locality: usize,
}

/// The rejection scan's state: the configuration path, the failure
/// bits and statistics so far, the density factors, and every buffer a
/// step works in. The per-node arrays are sized once per scan, the
/// buffers grow to the largest ball a step has needed, and a step resets
/// what it uses in `O(ball)`, so past the first steps the oracle's
/// answers are a step's only heap allocations.
struct RejectState {
    /// The path state `σ_{i−1}`.
    sigma: Config,
    /// `F′` so far: the pass-1 bits, with each rejection or failed
    /// repair OR-ed in. A bit, once set, is never cleared, so a pass-1
    /// fallback failure survives a node's passing coin, as in the
    /// reference scan.
    failures: Vec<bool>,
    /// The acceptance product, clamp count and repair failures so far.
    stats: JvvStats,
    /// `factor[j]`: the density factor of scan position `j` under
    /// `sigma`; `None` until a step first needs it.
    factor: Vec<Option<f64>>,
    /// The chain-rule prefix of the current query.
    prefix: Prefix,
    /// The step's BFS around `v_i`: the repair ball, then the read ball.
    ball: Ball,
    /// The BFS to radius `t` around one write.
    around: Ball,
    /// `σ_i` on the repair ball, aligned with `ball.nodes`; `None` while
    /// the repair has not placed a node yet.
    vals: Vec<Option<Value>>,
    /// The repair's free nodes, in increasing id order.
    free: Vec<NodeId>,
    /// The step's writes `(u, σ_i(u))`, in ball order.
    writes: Vec<(NodeId, Value)>,
    /// `reach[k]`: the least scan position of a write within `t` of
    /// `ball.nodes[k]`, `usize::MAX` if none.
    reach: Vec<usize>,
    /// The read ball as `(scan position, ball index)`, in scan order.
    by_pos: Vec<(usize, usize)>,
    /// Factors the current walk has visited, by factor index.
    seen: Marks,
    /// The weight factors of a write step as `(ball index of the member
    /// the reference's walk meets it at, its index in that member's
    /// factors_touching list, factor index)`.
    weights: Vec<(usize, usize, usize)>,
}

/// Marks over `0..len` that clear in `O(1)`: a mark is current when its
/// stamp equals the epoch, and clearing moves the epoch on.
struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn new(len: usize) -> Self {
        Marks {
            stamp: vec![0; len],
            epoch: 1,
        }
    }

    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // a stamp from 2³² clears ago would read as current
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `i`; `true` if it was not marked.
    fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

/// A BFS from one center that grows radius by radius. `nodes` lists the
/// members with their distances in `traversal::ball`'s FIFO order and
/// doubles as the queue, so growing from radius `r` to `r′` expands each
/// new layer once and leaves `nodes` exactly as one BFS to `r′` would.
struct Ball {
    nodes: Vec<(NodeId, u32)>,
    /// The next member of `nodes` to expand.
    head: usize,
    member: Marks,
    /// `slot[u]`: `u`'s index in `nodes`, meaningful for members.
    slot: Vec<u32>,
}

impl Ball {
    fn new(n: usize) -> Self {
        Ball {
            nodes: Vec::new(),
            head: 0,
            member: Marks::new(n),
            slot: vec![0; n],
        }
    }

    /// Restarts the ball as `{center}`, radius 0.
    fn reset(&mut self, center: NodeId) {
        self.nodes.clear();
        self.head = 0;
        self.member.clear();
        self.insert(center, 0);
    }

    fn insert(&mut self, u: NodeId, d: u32) {
        if self.member.insert(u.index()) {
            self.slot[u.index()] = self.nodes.len() as u32;
            self.nodes.push((u, d));
        }
    }

    /// Grows the ball to radius `r` (a no-op if it is already that big).
    fn grow(&mut self, g: &Graph, r: usize) {
        while let Some(&(v, d)) = self.nodes.get(self.head) {
            if d as usize >= r {
                break;
            }
            self.head += 1;
            for &x in g.neighbors(v) {
                self.insert(x, d + 1);
            }
        }
    }

    /// `u`'s index in `nodes`, if `u` is a member.
    fn index(&self, u: NodeId) -> Option<usize> {
        let i = u.index();
        self.member.contains(i).then(|| self.slot[i] as usize)
    }
}

impl<O: Oracle + ?Sized> RejectKernel<'_, O> {
    /// One rejection step: build `σ_i` from `σ_{i−1}` (Claim 4.6),
    /// compute the acceptance probability `q_{v_i}` (Claim 4.7), flip
    /// `v_i`'s private coin, and advance the path to `σ_i`. Pure function
    /// of the path state within `B_R(v_i)`, the kernel's inputs, and
    /// `v_i`'s randomness; its work is sized by that ball, not by `n`,
    /// and its buffers live in the scan state ([`RejectState`]).
    ///
    /// **One resumable BFS.** The step grows a BFS from `v_i` to `W` for
    /// the repair, and on to the read radius `R` only when the repair
    /// writes. At every radius the BFS list is `traversal::ball`'s FIFO
    /// order, so its first part is the reference's repair ball in the
    /// reference's order.
    ///
    /// **No-write exit.** A step whose repair leaves `σ` unchanged takes
    /// `q_{v_i} = 1.0 · s` and flips its coin. That is the reference's
    /// number to the bit: with `σ_i = σ_{i−1}` both of its prefixes agree
    /// at every density position, so it visits none, and each weight
    /// factor it multiplies in is `w/w` for a finite positive `w`, which
    /// is exactly 1. The factor table is left alone. "No write" is
    /// decided from the repair's output, never from `Y(v_i) = σ(v_i)`:
    /// on colorings the repair rewrites unscanned ball nodes, and after a
    /// failed repair the path no longer agrees with `Y` on scanned nodes.
    ///
    /// **Write steps.** `reach` comes from one BFS to radius `t` around
    /// each write: the skip rule below needs each node's least-positioned
    /// write within `t`, which a multi-source BFS (nearest write) does not
    /// give. The density ratio walks the cutoff ball in scan order.
    /// Position `j` contributes `factor[j] / μ̂_{σ_i}` unless no write of
    /// this step reaches its factor: no write at `v_j` and none at a
    /// position below `j` within `t` of `v_j`. There the reference's two
    /// prefixes differ only outside the oracle's view, so it multiplies
    /// by `x/x = 1` exactly, and skipping is bit-identical. The oracle
    /// sees a prefix restricted to the read ball, which by the same
    /// contract answers as the reference's full prefix does. The weight
    /// ratio evaluates only the factors whose scope holds a write, in the
    /// order the reference's walk meets them; every other factor of that
    /// walk is `w/w = 1`, and leaving out a factor of exactly 1 does not
    /// change the product.
    fn step(&self, net: &Network, state: &mut RejectState, vi: NodeId) {
        let model = net.instance().model();
        // σ_i: agree with Y on order[..=i], differ from σ_{i-1} only
        // inside B_w(vi), stay feasible (Claim 4.6 via greedy repair)
        state.ball.reset(vi);
        state.ball.grow(model.graph(), self.t.max(self.ell));
        if !self.repair_ball(model, state, self.pos[vi.index()]) {
            state.stats.repair_failures += 1;
            state.failures[vi.index()] = true;
            return;
        }
        // where σ_i differs from σ_{i−1}: confined to the repair ball
        let RejectState {
            sigma,
            ball,
            vals,
            writes,
            ..
        } = state;
        writes.clear();
        for (&(u, _), &val) in ball.nodes.iter().zip(vals.iter()) {
            let val = val.expect("ball fully repaired");
            if val != sigma.get(u) {
                writes.push((u, val));
            }
        }
        // no write: each factor of the reference's ratio is exactly 1
        let ratio = if writes.is_empty() {
            1.0
        } else {
            self.write_ratio(net, state)
        };
        let mut q_vi = ratio * self.slack;
        if q_vi > 1.0 {
            state.stats.clamped += 1;
            q_vi = 1.0;
        }
        state.stats.acceptance_product *= q_vi;
        let mut rng = net.node_rng(vi, STREAM_JVV_REJECT);
        if !rng.gen_bool(q_vi.max(0.0)) {
            state.failures[vi.index()] = true;
        }
        for &(u, val) in &state.writes {
            state.sigma.set(u, val);
        }
    }

    /// Claim 4.6 constructively and **ball-locally**: fills `state.vals`
    /// with the values `σ_i` takes on the repair ball (the members of
    /// `state.ball`) — agreeing with `Y` on scanned positions `≤ i`,
    /// equal to `σ_{i−1}` outside the ball, feasible — or returns `false`
    /// if the greedy repair fails. It repairs the unscanned ball nodes in
    /// increasing id order (sound for locally admissible models),
    /// mirroring the reference's [`repair`] exactly while reading `σ_{i−1}`
    /// only on `ball + ℓ` and visiting only factors touching the ball.
    /// Factors farther out, and fully determined ones that keep
    /// `σ_{i−1}`'s values, evaluate as on the path state, which is
    /// feasible, so the reference's global feasibility scan decides
    /// identically. That is the path invariant: `σ₀` is feasible unless
    /// pass 1 fell back, and each repair keeps the path feasible.
    fn repair_ball(&self, model: &GibbsModel, state: &mut RejectState, i: usize) -> bool {
        let RejectState {
            sigma,
            ball,
            vals,
            free,
            seen,
            ..
        } = state;
        // scanned positions (vi included) take Y's values; the rest are
        // repaired below
        vals.clear();
        vals.extend(
            ball.nodes
                .iter()
                .map(|&(u, _)| (self.pos[u.index()] <= i).then(|| self.y.get(u))),
        );
        // the candidate's value at any node; `None` = still free
        let at = |vals: &[Option<Value>], u: NodeId| match ball.index(u) {
            Some(k) => vals[k],
            None => Some(sigma.get(u)),
        };
        // upfront feasibility: every fully determined factor is positive.
        // The reference checks them all, globally; one whose values all
        // equal σ_{i−1}'s passes by the path invariant, so only a factor
        // at a scanned node where Y differs from σ_{i−1} can fail
        seen.clear();
        for (&(u, _), &val) in ball.nodes.iter().zip(vals.iter()) {
            if val.is_none_or(|c| c == sigma.get(u)) {
                continue;
            }
            for &fi in model.factors_touching(u) {
                let f = &model.factors()[fi];
                if seen.insert(fi) && f.eval_partial(|s| at(vals, s)).is_some_and(|w| w <= 0.0) {
                    return false;
                }
            }
        }
        // greedy extension of the unscanned ball nodes in increasing id
        // order — the reference's free_nodes() scan order. A candidate is
        // accepted iff every factor it completes is positive; factors not
        // touching the node are unchanged and were verified positive when
        // they completed, so this equals the reference's global check.
        free.clear();
        free.extend(
            ball.nodes
                .iter()
                .map(|&(u, _)| u)
                .filter(|u| self.pos[u.index()] > i),
        );
        free.sort_unstable();
        for &u in free.iter() {
            let k = ball.index(u).expect("ball member");
            let placed = (0..model.alphabet_size()).any(|c| {
                vals[k] = Some(Value::from_index(c));
                model.factors_touching(u).iter().all(|&fi| {
                    model.factors()[fi]
                        .eval_partial(|s| at(vals, s))
                        .is_none_or(|w| w > 0.0)
                })
            });
            if !placed {
                return false;
            }
        }
        true
    }

    /// The acceptance ratio `μ̂^τ(σ_{i−1})·w(σ_i) / (μ̂^τ(σ_i)·w(σ_{i−1}))`
    /// of a step whose repair wrote `state.writes`: grows the ball to the
    /// read radius, then multiplies the density and weight factors the
    /// writes reach, in the reference's order.
    fn write_ratio(&self, net: &Network, state: &mut RejectState) -> f64 {
        let model = net.instance().model();
        let tau = net.instance().pinning();
        let g = model.graph();
        let cutoff = 2 * self.t.max(self.ell) + self.ell;
        let mul = Target::Mul(self.eps);
        let RejectState {
            sigma,
            factor,
            prefix,
            ball,
            around,
            vals,
            writes,
            reach,
            by_pos,
            seen,
            weights,
            ..
        } = state;
        ball.grow(g, cutoff + self.t);
        let nw = vals.len();
        let val_i = |u: NodeId| match ball.index(u).and_then(|k| vals.get(k)) {
            Some(val) => val.expect("ball fully repaired"),
            None => sigma.get(u),
        };
        // reach[k]: the least scan position of a write within t of
        // ball.nodes[k] (every such node lies in the read ball)
        reach.clear();
        reach.resize(ball.nodes.len(), usize::MAX);
        for &(u, _) in writes.iter() {
            let p = self.pos[u.index()];
            around.reset(u);
            around.grow(g, self.t);
            for &(x, _) in &around.nodes {
                let k = ball.index(x).expect("within the read ball");
                reach[k] = reach[k].min(p);
            }
        }

        // density ratio μ̂^τ(σ_{i-1}) / μ̂^τ(σ_i) over the cutoff ball, in
        // scan order; the prefix holds σ_i on the read nodes scanned
        // before the current position
        by_pos.clear();
        by_pos.extend(
            ball.nodes
                .iter()
                .enumerate()
                .map(|(k, &(u, _))| (self.pos[u.index()], k)),
        );
        by_pos.sort_unstable();
        let mut pinned = 0;
        let mut ratio = 1.0f64;
        for &(j, k) in by_pos.iter() {
            let (vj, d) = ball.nodes[k];
            // skip unless a write reaches v_j's factor: one at v_j itself
            // (position j) or one below j within t of v_j
            if d as usize > cutoff || tau.is_pinned(vj) || reach[k] > j {
                continue;
            }
            while let Some(&(_, kp)) = by_pos.get(pinned).filter(|&&(p, _)| p < j) {
                let u = ball.nodes[kp].0;
                prefix.push(u, val_i(u));
                pinned += 1;
            }
            let num = match factor[j] {
                Some(x) => x,
                None => {
                    // first use: the σ_{i−1} side, on σ_{i−1}'s prefix
                    let below = writes.iter().filter(|(u, _)| self.pos[u.index()] < j);
                    for &(u, _) in below.clone() {
                        prefix.push(u, sigma.get(u));
                    }
                    let mu = self.oracle.query(model, prefix.pinning(), vj, mul);
                    for &(u, val) in below {
                        prefix.push(u, val);
                    }
                    mu[sigma.get(vj).index()]
                }
            };
            let mu = self.oracle.query(model, prefix.pinning(), vj, mul);
            let den = mu[val_i(vj).index()];
            factor[j] = Some(den);
            if den > 0.0 {
                ratio *= num / den;
            }
        }
        prefix.rollback();

        // weight ratio w(σ_i) / w(σ_{i-1}): the reference walks the repair
        // ball and counts each factor touching it once, at its least
        // member in the ball; of those, only a factor whose scope holds a
        // write differs from 1
        let in_repair_ball = |s: &&NodeId| ball.index(**s).is_some_and(|k| k < nw);
        seen.clear();
        weights.clear();
        for &(u, _) in writes.iter() {
            for &fi in model.factors_touching(u) {
                if !seen.insert(fi) {
                    continue;
                }
                let scope = model.factors()[fi].scope();
                let first = *scope.iter().filter(in_repair_ball).min().expect("u is one");
                let at = model.factors_touching(first).iter().position(|&x| x == fi);
                let k = ball.index(first).expect("ball member");
                weights.push((k, at.expect("first touches its factor"), fi));
            }
        }
        weights.sort_unstable();
        for &(_, _, fi) in weights.iter() {
            let f = &model.factors()[fi];
            let w_new = f.eval_partial(|s| Some(val_i(s))).expect("full config");
            let w_prev = f.eval_partial(|s| Some(sigma.get(s))).expect("full config");
            if w_prev > 0.0 {
                ratio *= w_new / w_prev;
            }
        }
        ratio
    }
}

/// A chain-rule prefix `τ ∧ (order[..j] ↦ σ)` restricted to one step's
/// read ball: `τ` is cloned once per scan, pinned on top of during a
/// step, and rolled back when the step ends.
struct Prefix {
    pc: PartialConfig,
    /// Every pin made on top of `τ`, with the slot it overwrote.
    touched: Vec<(NodeId, Option<Value>)>,
}

impl Prefix {
    fn new(tau: &PartialConfig) -> Self {
        Prefix {
            pc: tau.clone(),
            touched: Vec::new(),
        }
    }

    fn push(&mut self, u: NodeId, val: Value) {
        self.touched.push((u, self.pc.get(u)));
        self.pc.pin(u, val);
    }

    /// Undoes every pin since the last rollback, newest first, back to `τ`.
    fn rollback(&mut self) {
        while let Some((u, old)) = self.touched.pop() {
            match old {
                Some(v) => self.pc.pin(u, v),
                None => self.pc.unpin(u),
            }
        }
    }

    fn pinning(&self) -> &PartialConfig {
        &self.pc
    }
}

impl<O: Oracle + ?Sized> ScanKernel for RejectKernel<'_, O> {
    type State = RejectState;
    type Run = JvvOutcome;

    fn init(&self, net: &Network) -> RejectState {
        let n = self.y.len();
        RejectState {
            sigma: self.sigma0.clone(),
            failures: self.ground_failures.clone(),
            stats: JvvStats {
                acceptance_product: 1.0,
                locality: self.locality,
                ..JvvStats::default()
            },
            factor: vec![None; n],
            prefix: Prefix::new(net.instance().pinning()),
            ball: Ball::new(n),
            around: Ball::new(n),
            vals: Vec::new(),
            free: Vec::new(),
            writes: Vec::new(),
            reach: Vec::new(),
            by_pos: Vec::new(),
            seen: Marks::new(net.instance().model().factors().len()),
            weights: Vec::new(),
        }
    }

    fn process(&self, net: &Network, state: &mut RejectState, v: NodeId) {
        // every node runs its rejection step, pinned ones included —
        // exactly like the reference scan
        self.step(net, state, v);
    }

    fn finish(&self, state: RejectState) -> JvvOutcome {
        JvvOutcome {
            run: SlocalRun {
                outputs: self.y.values().to_vec(),
                failures: state.failures,
            },
            stats: state.stats,
        }
    }
}

/// The pinning `τ ∧ (order[..upto] ↦ config)` — the prefix state the
/// chain-rule density `μ̂^τ` conditions on at scan position `upto`.
fn prefix_pinning(
    base: &PartialConfig,
    order: &[NodeId],
    config: &Config,
    upto: usize,
) -> PartialConfig {
    let mut p = base.clone();
    for &u in &order[..upto] {
        p.pin(u, config.get(u));
    }
    p
}

/// Claim 4.6 constructively: find `σ_i` agreeing with `Y` on scanned
/// positions `≤ i`, equal to `σ_prev` outside `ball`, feasible. Greedy
/// repair inside the ball (sound for locally admissible models).
fn repair(
    model: &lds_gibbs::GibbsModel,
    sigma_prev: &Config,
    y: &Config,
    ball: &[NodeId],
    pos: &[usize],
    i: usize,
) -> Option<Config> {
    let n = model.node_count();
    let in_ball = {
        let mut b = vec![false; n];
        for &u in ball {
            b[u.index()] = true;
        }
        b
    };
    let mut pinning = PartialConfig::empty(n);
    for u in (0..n).map(NodeId::from_index) {
        if !in_ball[u.index()] {
            // unchanged outside the ball
            pinning.pin(u, sigma_prev.get(u));
        } else if pos[u.index()] <= i {
            // scanned nodes (including v_i itself) take Y's values
            pinning.pin(u, y.get(u));
        }
    }
    if !model.is_locally_feasible(&pinning) {
        return None;
    }
    let full = lds_gibbs::admissible::greedy_feasible_extension(model, &pinning)?;
    Some(full.to_config())
}

/// Runs `local-JVV` in the LOCAL model via the Lemma 3.1 transformation:
/// [`LocalJvv::run`] over the ordering of `schedule`, a chromatic
/// schedule drawn for [`LocalJvv::locality`] (Theorem 4.2's
/// `O(t(n)·log² n)` rounds). The output is exact for any ordering, so
/// one schedule serves every execution. The run's failures combine the
/// rejection bits `F′` with the decomposition bits `F″`;
/// [`SampleRun::jvv`] carries the statistics.
///
/// `cancel` is checked every 256 nodes of every pass and when each pass
/// ends. Checks consume no randomness, so a completed run is
/// bit-identical to one under
/// [`CancelToken::never`]; a cancelled run returns
/// `Err(`[`Cancelled`]`)` with no partial result.
///
/// Rounds: the schedule's. Phases: `ground`, `sample`, `reject`.
pub fn sample_exact_local<O: Oracle + ?Sized>(
    net: &Network,
    oracle: &O,
    eps: f64,
    schedule: &ChromaticSchedule,
    cancel: &CancelToken,
) -> Result<SampleRun, Cancelled> {
    let (outcome, phases) = LocalJvv::new(oracle, eps).run(net, &schedule.order, cancel)?;
    Ok(SampleRun {
        jvv: Some(outcome.stats),
        ..SampleRun::lift(outcome.run, schedule, schedule.rounds, phases)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::metrics;
    use lds_gibbs::models::two_spin::{self, TwoSpinParams};
    use lds_gibbs::models::{coloring, hardcore};
    use lds_graph::{generators, ordering};
    use lds_localnet::{scheduler, Instance};
    use lds_oracle::{BoostedOracle, DecayRate, EnumerationOracle, TwoSpinSawOracle};

    /// One uncancellable [`LocalJvv::run`], outcome only.
    fn run<O: Oracle>(jvv: &LocalJvv<'_, O>, net: &Network, order: &[NodeId]) -> JvvOutcome {
        jvv.run(net, order, &CancelToken::never()).unwrap().0
    }

    fn boosted_saw(lambda: f64) -> BoostedOracle<TwoSpinSawOracle> {
        BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda),
            DecayRate::new(0.5, 2.0),
        ))
    }

    #[test]
    fn ground_state_and_output_are_feasible() {
        let g = generators::cycle(7);
        let model = hardcore::model(&g, 1.0);
        let oracle = boosted_saw(1.0);
        let jvv = LocalJvv::new(&oracle, 0.05);
        for seed in 0..10 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let out = run(&jvv, &net, &ordering::identity(&g));
            let y = Config::from_values(out.run.outputs.clone());
            assert!(model.weight(&y) > 0.0, "seed {seed}: infeasible Y");
            assert_eq!(out.stats.repair_failures, 0);
        }
    }

    #[test]
    fn acceptance_probabilities_within_bounds() {
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.3);
        let oracle = boosted_saw(1.3);
        let eps = 0.01;
        let jvv = LocalJvv::new(&oracle, eps);
        let net = Network::new(Instance::unconditioned(model), 3);
        let out = run(&jvv, &net, &ordering::identity(&g));
        assert_eq!(out.stats.clamped, 0, "oracle violated its error bound");
        assert!(out.stats.acceptance_product <= 1.0 + 1e-12);
        assert!(
            out.stats.acceptance_product >= jvv.success_lower_bound(6) - 1e-9,
            "acceptance {} below bound {}",
            out.stats.acceptance_product,
            jvv.success_lower_bound(6)
        );
    }

    #[test]
    fn exactness_on_small_cycle() {
        // conditioned on success, outputs must follow μ^τ exactly
        let n = 5usize;
        let g = generators::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let oracle = boosted_saw(1.0);
        let jvv = LocalJvv::new(&oracle, 0.02);
        let order = ordering::identity(&g);
        let trials = 30_000usize;
        let mut accepted = Vec::new();
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let out = run(&jvv, &net, &order);
            if out.run.succeeded() {
                accepted.push(Config::from_values(out.run.outputs));
            }
        }
        let success_rate = accepted.len() as f64 / trials as f64;
        assert!(
            success_rate >= jvv.success_lower_bound(n) - 0.02,
            "success rate {success_rate}"
        );
        let emp = metrics::empirical_distribution(&accepted);
        let exact = distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
        let tv = metrics::tv_distance_joint(&emp, &exact);
        assert!(tv < 0.05, "conditioned-on-success TV {tv}");
    }

    #[test]
    fn exactness_with_exact_oracle_via_enumeration() {
        // with an exact oracle (radius covers the graph) the acceptance
        // is the constant slack and the output is exactly the chain rule
        let n = 4usize;
        let g = generators::path(n);
        let model = hardcore::model(&g, 2.0);
        let base = EnumerationOracle::new(DecayRate::new(0.1, 4.0));
        let oracle = BoostedOracle::new(base);
        let eps = 1e-6;
        let jvv = LocalJvv::new(&oracle, eps);
        let net = Network::new(Instance::unconditioned(model.clone()), 0);
        let out = run(&jvv, &net, &ordering::identity(&g));
        // q_{v_i} = slack for every node when the oracle is exact
        let expect = jvv.slack(n).powi(n as i32);
        assert!(
            (out.stats.acceptance_product - expect).abs() < 1e-9,
            "acceptance {} expected {}",
            out.stats.acceptance_product,
            expect
        );
    }

    #[test]
    fn respects_pinning() {
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(6);
        tau.pin(NodeId(2), Value(1));
        let inst = Instance::new(model, tau).unwrap();
        let oracle = boosted_saw(1.0);
        let jvv = LocalJvv::new(&oracle, 0.05);
        for seed in 0..10 {
            let net = Network::new(inst.clone(), seed);
            let out = run(
                &jvv,
                &net,
                &ordering::identity(net.instance().model().graph()),
            );
            assert_eq!(out.run.outputs[2], Value(1));
            assert_eq!(out.run.outputs[1], Value(0));
            assert_eq!(out.run.outputs[3], Value(0));
        }
    }

    #[test]
    fn local_version_reports_rounds_and_success() {
        let g = generators::cycle(10);
        let model = hardcore::model(&g, 1.0);
        let net = Network::new(Instance::unconditioned(model), 1);
        let oracle = boosted_saw(1.0);
        let locality = LocalJvv::new(&oracle, 0.05).locality(net.instance().model());
        let schedule = scheduler::complete_schedule(&net, locality);
        let out =
            sample_exact_local(&net, &oracle, 0.05, &schedule, &CancelToken::never()).unwrap();
        assert!(out.rounds > 0);
        assert!(out.jvv.expect("jvv stats").locality > 0);
    }

    #[test]
    fn kernel_matches_reference_bitwise_on_a_soft_model() {
        // soft two-spin factors make each weight factor a write reaches
        // differ from 1, so the acceptance product's bits depend on the
        // order the kernel multiplies them in
        let params = TwoSpinParams::new(0.7, 1.3, 0.8);
        let oracle = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
        let jvv = LocalJvv::new(&oracle, 0.05);
        for g in [generators::cycle(12), generators::torus(4, 4)] {
            for seed in 0..6 {
                let net = Network::new(Instance::unconditioned(two_spin::model(&g, params)), seed);
                let order = ordering::random(&g, &mut net.node_rng(NodeId(0), 99));
                let reference = jvv.run_detailed_reference(&net, &order);
                let kernel = run(&jvv, &net, &order);
                assert_eq!(kernel.run.failures, reference.run.failures, "seed {seed}");
                assert_eq!(
                    kernel.stats.acceptance_product.to_bits(),
                    reference.stats.acceptance_product.to_bits(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn colorings_jvv_produces_proper_colorings() {
        let g = generators::cycle(6);
        let model = coloring::model(&g, 3);
        let base = EnumerationOracle::new(DecayRate::new(0.4, 2.0));
        let oracle = BoostedOracle::new(base);
        let jvv = LocalJvv::new(&oracle, 0.05);
        for seed in 0..5 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let out = run(&jvv, &net, &ordering::identity(&g));
            let y = Config::from_values(out.run.outputs);
            assert!(coloring::is_proper(&g, &y), "seed {seed}");
        }
    }

    use lds_gibbs::PartialConfig;
}
