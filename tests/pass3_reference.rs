//! Pass-3 equivalence: the rejection pass kernel is **bit-identical** to
//! the frozen pre-refactor sequential scan.
//!
//! `local-JVV`'s rejection pass was refactored from a hard-coded
//! sequential loop into a ball-local `ScanKernel`. The original loop is
//! kept frozen as `LocalJvv::run_detailed_reference`; this suite checks
//! the refactored execution (`LocalJvv::run` over a chromatic schedule's
//! ordering) against it:
//!
//! * a proptest over random graphs and **explicit oracle radii
//!   t ∈ {1, 2, 3}** (a deterministic radius-`t` pseudo-oracle makes the
//!   radius a direct test parameter instead of a function of `ε`) —
//!   outputs, failure bits, and the floating-point acceptance statistics
//!   must match bit for bit;
//! * the same comparison on `q = Δ + 2` colorings, through a variant of
//!   that oracle with zero mass on values a pinned neighbor forbids: the
//!   greedy repair then rewrites unscanned ball nodes away from `v_i`;
//! * the same comparison through the real SAW-tree oracle on the
//!   engine's serving path workloads;
//! * the kernel's oracle query count against the reference's.

use std::cell::Cell;

use lds::core::jvv::{JvvOutcome, LocalJvv};
use lds::core::regime;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::models::{coloring, hardcore};
use lds::gibbs::{GibbsModel, PartialConfig, Value};
use lds::graph::{generators, traversal, Graph, NodeId};
use lds::localnet::slocal::multipass_locality;
use lds::localnet::{scheduler, Instance, Network};
use lds::oracle::{BoostedOracle, DecayRate, Oracle, Target, TwoSpinSawOracle};
use lds::runtime::{splitmix64, CancelToken};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic multiplicative "oracle" with an **explicit** radius
/// `t`: its marginal at `v` is a positive pseudo-random function of the
/// pins within distance `t` of `v` (and nothing else). It makes no
/// accuracy promise — pass-3 equivalence is about locality and
/// determinism, not oracle quality — and its arbitrary marginals drive
/// the rejection ratios (and the clamp counter) much harder than a
/// well-behaved oracle would.
#[derive(Clone)]
struct BallHashOracle {
    t: usize,
}

impl Oracle for BallHashOracle {
    fn name(&self) -> &str {
        "ball-hash"
    }

    fn radius(&self, _model: &GibbsModel, _target: Target) -> usize {
        self.t
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        _target: Target,
    ) -> Vec<f64> {
        let q = model.alphabet_size();
        if let Some(val) = pinning.get(v) {
            let mut point = vec![0.0; q];
            point[val.index()] = 1.0;
            return point;
        }
        let g = model.graph();
        let dist = traversal::bfs_distances(g, v);
        let mut acc = 0xabcd_ef01_2345_6789u64 ^ ((v.index() as u64) << 32);
        for u in g.nodes() {
            let d = dist[u.index()];
            if d == traversal::UNREACHABLE || d as usize > self.t {
                continue;
            }
            if let Some(val) = pinning.get(u) {
                acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(
                    ((u.index() as u64) << 17) | ((val.index() as u64) << 3) | d as u64,
                );
            }
        }
        let weights: Vec<f64> = (0..q)
            .map(|c| {
                1.0 + (splitmix64(acc ^ (c as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)) % 1024)
                    as f64
                    / 1024.0
            })
            .collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }
}

/// [`BallHashOracle`] with zero mass on every value that a factor
/// touching `v`, fully pinned with `v` set to it, forbids — still a
/// function of the pins within `t ≥ ℓ` of `v`. Over colorings it makes
/// passes 1 and 2 produce proper colorings, so the rejection pass's
/// repairs succeed and move unscanned ball nodes.
#[derive(Clone)]
struct ProperBallHashOracle(BallHashOracle);

impl Oracle for ProperBallHashOracle {
    fn name(&self) -> &str {
        "proper-ball-hash"
    }

    fn radius(&self, model: &GibbsModel, target: Target) -> usize {
        self.0.radius(model, target)
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64> {
        let mut weights = self.0.query(model, pinning, v, target);
        for (c, w) in weights.iter_mut().enumerate() {
            let at = |s: NodeId| {
                if s == v {
                    Some(Value::from_index(c))
                } else {
                    pinning.get(s)
                }
            };
            let forbidden = model.factors_touching(v).iter().any(|&fi| {
                model.factors()[fi]
                    .eval_partial(at)
                    .is_some_and(|x| x <= 0.0)
            });
            if forbidden {
                *w = 0.0;
            }
        }
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }
}

/// Counts `Mul` queries to the wrapped oracle; `Support` queries pass
/// through uncounted.
struct CountingOracle<O> {
    inner: O,
    queries: Cell<usize>,
}

impl<O: Oracle> Oracle for CountingOracle<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn radius(&self, model: &GibbsModel, target: Target) -> usize {
        self.inner.radius(model, target)
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64> {
        if let Target::Mul(_) = target {
            self.queries.set(self.queries.get() + 1);
        }
        self.inner.query(model, pinning, v, target)
    }
}

fn workload(idx: usize, seed: u64) -> Graph {
    match idx % 5 {
        0 => generators::cycle(14),
        1 => generators::torus(4, 4),
        2 => generators::random_regular(14, 3, &mut StdRng::seed_from_u64(seed)),
        3 => generators::erdos_renyi(16, 0.15, &mut StdRng::seed_from_u64(seed ^ 0xe5)),
        _ => generators::balanced_tree(2, 3),
    }
}

fn network(g: &Graph, seed: u64) -> Network {
    Network::new(Instance::unconditioned(hardcore::model(g, 1.0)), seed)
}

/// One uncancellable `LocalJvv::run` over `order`, outcome only.
fn run<O: Oracle>(jvv: &LocalJvv<'_, O>, net: &Network, order: &[NodeId]) -> JvvOutcome {
    jvv.run(net, order, &CancelToken::never())
        .expect("never cancelled")
        .0
}

/// Asserts two JVV outcomes identical to the bit: outputs, failure
/// bits, and the floating-point acceptance statistics.
#[track_caller]
fn assert_outcomes_identical(a: &JvvOutcome, b: &JvvOutcome, context: &str) {
    assert_eq!(a.run.outputs, b.run.outputs, "{context}: outputs");
    assert_eq!(a.run.failures, b.run.failures, "{context}: failures");
    assert_eq!(
        a.stats.acceptance_product.to_bits(),
        b.stats.acceptance_product.to_bits(),
        "{context}: acceptance product bits"
    );
    assert_eq!(a.stats.clamped, b.stats.clamped, "{context}: clamped");
    assert_eq!(
        a.stats.repair_failures, b.stats.repair_failures,
        "{context}: repair failures"
    );
    assert_eq!(a.stats.locality, b.stats.locality, "{context}: locality");
}

proptest! {
    /// Pass-3 kernel == frozen sequential scan, for explicit oracle
    /// radii t ∈ {1, 2, 3} on random graphs.
    #[test]
    fn pass3_kernel_equals_prerefactor_scan(
        gidx in 0usize..5,
        seed in 0u64..200,
        t in 1usize..4,
    ) {
        let g = workload(gidx, seed);
        let net = network(&g, seed);
        let oracle = BallHashOracle { t };
        let jvv = LocalJvv::new(&oracle, 0.01);
        let ell = net.instance().model().locality().max(1);
        let locality = multipass_locality(&[t, t, 3 * t + ell]);
        let schedule = scheduler::chromatic_schedule(&net, locality, 0);
        let reference = jvv.run_detailed_reference(&net, &schedule.order);
        assert_outcomes_identical(
            &run(&jvv, &net, &schedule.order),
            &reference,
            &format!("graph {gidx} seed {seed} t {t}"),
        );
    }
}

proptest! {
    /// Pass-3 kernel == frozen sequential scan on `q = Δ + 2` colorings,
    /// where repair writes land on unscanned ball nodes away from `v_i`:
    /// a skip rule that looked for writes only near `v_i` fails here.
    #[test]
    fn pass3_kernel_equals_prerefactor_scan_on_colorings(
        gidx in 0usize..5,
        seed in 0u64..200,
        t in 1usize..4,
    ) {
        let g = workload(gidx, seed);
        let model = coloring::model(&g, g.max_degree() + 2);
        let net = Network::new(Instance::unconditioned(model), seed);
        let oracle = ProperBallHashOracle(BallHashOracle { t });
        let jvv = LocalJvv::new(&oracle, 0.01);
        let ell = net.instance().model().locality().max(1);
        let locality = multipass_locality(&[t, t, 3 * t + ell]);
        let schedule = scheduler::chromatic_schedule(&net, locality, 0);
        let reference = jvv.run_detailed_reference(&net, &schedule.order);
        assert_outcomes_identical(
            &run(&jvv, &net, &schedule.order),
            &reference,
            &format!("coloring graph {gidx} seed {seed} t {t}"),
        );
    }
}

/// Claim 4.7's telescoping, counted: the kernel reuses each position's
/// `σ_{i−1}` density factor and queries only where a repair write
/// reaches, so on cycle(128) at ε = 0.01 it makes at most half the
/// reference's pass-3 oracle queries, with the engine's SAW oracle.
#[test]
fn pass3_kernel_makes_at_most_half_the_reference_queries() {
    let g = generators::cycle(128);
    let eps = 0.01;
    let rate = regime::hardcore(&g, 1.0).expect("in regime").rate;
    let oracle = CountingOracle {
        inner: TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(1.0),
            DecayRate::new(rate.clamp(1e-6, 0.95), 2.0),
        ),
        queries: Cell::new(0),
    };
    let jvv = LocalJvv::new(&oracle, eps);
    // pass 1 asks only support queries and pass 2 one marginal query per
    // node, so a run's pass-3 queries are its marginal queries minus n
    let n = g.node_count();
    let (mut kernel, mut reference) = (0, 0);
    for seed in 0..4u64 {
        let net = network(&g, seed);
        let locality = jvv.locality(net.instance().model());
        let order = scheduler::chromatic_schedule(&net, locality, 0).order;
        let start = oracle.queries.get();
        run(&jvv, &net, &order);
        let mid = oracle.queries.get();
        jvv.run_detailed_reference(&net, &order);
        kernel += mid - start - n;
        reference += oracle.queries.get() - mid - n;
    }
    assert!(
        2 * kernel <= reference,
        "kernel made {kernel} pass-3 queries, reference {reference}"
    );
}

/// The same equivalence through the real boosted SAW-tree oracle — the
/// oracle the engine serves hardcore/Ising/two-spin requests with.
#[test]
fn pass3_kernel_matches_reference_with_saw_oracle() {
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(0.5, 2.0),
    ));
    for (g, eps) in [
        (generators::cycle(10), 0.05),
        (generators::torus(4, 4), 0.1),
        (generators::cycle(12), 0.01),
    ] {
        for seed in 0..4u64 {
            let net = network(&g, seed);
            let jvv = LocalJvv::new(&oracle, eps);
            let model = net.instance().model();
            let ell = model.locality().max(1);
            let t = oracle.radius(model, Target::Mul(eps));
            let locality = multipass_locality(&[t, t, 3 * t + ell]);
            let schedule = scheduler::chromatic_schedule(&net, locality, 0);
            let reference = jvv.run_detailed_reference(&net, &schedule.order);
            assert_outcomes_identical(
                &run(&jvv, &net, &schedule.order),
                &reference,
                &format!("saw eps {eps} seed {seed}"),
            );
        }
    }
}

/// Pinned instances run pass 3 over every node (pinned ones included);
/// the equivalence must survive pinning too.
#[test]
fn pass3_kernel_respects_pinning_bitwise() {
    let g = generators::cycle(12);
    let model = hardcore::model(&g, 1.0);
    let mut tau = PartialConfig::empty(12);
    tau.pin(NodeId(3), Value(1));
    tau.pin(NodeId(7), Value(0));
    let inst = Instance::new(model, tau).unwrap();
    let oracle = BallHashOracle { t: 2 };
    for seed in 0..6u64 {
        let net = Network::new(inst.clone(), seed);
        let jvv = LocalJvv::new(&oracle, 0.02);
        let ell = net.instance().model().locality().max(1);
        let locality = multipass_locality(&[2, 2, 6 + ell]);
        let schedule = scheduler::chromatic_schedule(&net, locality, 0);
        let reference = jvv.run_detailed_reference(&net, &schedule.order);
        assert_eq!(reference.run.outputs[3], Value(1), "pin must survive");
        assert_outcomes_identical(
            &run(&jvv, &net, &schedule.order),
            &reference,
            &format!("pinned seed {seed}"),
        );
    }
}

/// Pass-1 ground failures must *carry over* through pass 3 even when
/// the node's rejection coin passes — the sequential scan only ever
/// sets failure bits, it never clears them. The full pipeline only
/// produces ground failures on infeasible-fallback paths, so this
/// drives the kernel and the frozen reference directly with synthetic
/// pass-1/2 outputs (regression for a fold that assigned instead of
/// OR-ing).
#[test]
fn ground_failures_survive_a_passing_rejection_coin() {
    use lds::localnet::slocal::SlocalRun;
    let g = generators::cycle(10);
    let n = 10;
    let oracle = BallHashOracle { t: 1 };
    for seed in 0..8u64 {
        let net = network(&g, seed);
        let jvv = LocalJvv::new(&oracle, 0.02);
        let order: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        // feasible all-unoccupied σ0 and Y, with synthetic pass-1
        // failures at two nodes
        let mut ground_failures = vec![false; n];
        ground_failures[2] = true;
        ground_failures[7] = true;
        let ground = SlocalRun {
            outputs: vec![Value(0); n],
            failures: ground_failures,
        };
        let sampled = SlocalRun {
            outputs: vec![Value(0); n],
            failures: vec![false; n],
        };
        let reference = jvv.rejection_pass_reference(&net, &order, ground.clone(), sampled.clone());
        let scan = jvv.rejection_pass_scan(&net, &order, ground, sampled);
        assert!(reference.run.failures[2], "reference must keep the bit");
        assert!(reference.run.failures[7], "reference must keep the bit");
        assert_outcomes_identical(&scan, &reference, &format!("ground carry-over seed {seed}"));
    }
}
