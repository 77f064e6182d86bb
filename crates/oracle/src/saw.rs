//! Weitz's self-avoiding-walk (SAW) tree for two-spin systems.
//!
//! Weitz (STOC'06) showed that the marginal ratio of a two-spin system at
//! `v` equals the root ratio of the tree of self-avoiding walks from `v`,
//! where a walk closing a cycle at a vertex `u` terminates in a leaf
//! pinned to *occupied* if the returning edge exceeds the edge through
//! which the walk left `u` (in `u`'s fixed edge ordering) and *vacant*
//! otherwise, and pinned vertices of the instance become pinned leaves.
//!
//! Truncating the tree at depth `t` and propagating **interval bounds**
//! (the two extreme boundary conditions at the frontier) yields certified
//! upper/lower bounds on the true marginal whose gap shrinks at the
//! strong-spatial-mixing rate — in the uniqueness regime the gap is
//! `poly(n)·αᵗ`, which is exactly the resource the paper's reductions
//! consume. This oracle is the polynomial-time stand-in for the paper's
//! "unbounded local computation", and running it on a line graph computes
//! monomer–dimer (matching) marginals via the Corollary 5.3 duality.
//!
//! Where `γ = 0` (hardcore, and so matchings on the line graph), an
//! occupied leaf forces its parent's ratio to exactly 0, whatever the
//! parent's other subtrees hold, so the walk leaves those subtrees
//! unwalked. A completed walk's bounds keep their bits; only the work
//! falls. At v0 of torus(4,4) the whole SAW tree has 90 677 nodes, and
//! the walk expands 5 017 of them.

use std::cell::Cell;

use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_gibbs::{GibbsModel, PartialConfig, Value};
use lds_graph::{EdgeId, Graph, NodeId};

use crate::{DecayRate, Oracle, Target};

/// A walk's per-node scratch: which nodes the current path visits, and
/// the edge through which the path left each of them.
#[derive(Default)]
struct PathScratch {
    on_path: Vec<bool>,
    exit_edge: Vec<EdgeId>,
}

thread_local! {
    /// One [`PathScratch`] per thread, reused across queries. A completed
    /// walk leaves `on_path` all false; `exit_edge` is written before it
    /// is read, so it needs no reset.
    static PATH_SCRATCH: Cell<PathScratch> = Cell::default();
}

/// Runs `walk` on this thread's path scratch, sized for `n` nodes. The
/// scratch is taken out of the thread-local for the walk and put back
/// only when the walk returns: a walk that panics drops it with `on_path`
/// entries still set, and the next query starts from a fresh one. A
/// nested query finds the slot empty and works on scratch of its own.
fn with_path_scratch<R>(n: usize, walk: impl FnOnce(&mut PathScratch) -> R) -> R {
    let mut scratch = PATH_SCRATCH.take();
    scratch.on_path.resize(n, false);
    scratch.exit_edge.resize(n, EdgeId(0));
    let result = walk(&mut scratch);
    PATH_SCRATCH.set(scratch);
    result
}

/// Certified marginal bounds from a truncated SAW tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MarginalBounds {
    /// Lower bound on `Pr[Y_v = 1]`.
    pub lo: f64,
    /// Upper bound on `Pr[Y_v = 1]`.
    pub hi: f64,
}

impl MarginalBounds {
    /// The bounds that certify nothing.
    const UNKNOWN: MarginalBounds = MarginalBounds { lo: 0.0, hi: 1.0 };

    /// Midpoint estimate of the occupation probability.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// The certified gap `hi − lo` (an upper bound on twice the TV error
    /// of the midpoint estimate).
    pub fn gap(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether these bounds meet the stop rule of a query at `target`:
    /// - `Tv(δ)`: a gap of at most `2δ`, so the midpoint is within `δ`;
    /// - `Mul(ε)`: a certified 0 or 1, or a certified relative error of
    ///   the midpoint of at most `ε/3` on both entries;
    /// - `Support(ε)`: a decided support. Occupied is decided by a
    ///   certified zero (`hi = 0`) or a certified positive (`lo > 0`),
    ///   vacant symmetrically at 1.
    ///
    /// Each rule holds on any bounds nested inside bounds that meet it.
    pub fn meets(&self, target: Target) -> bool {
        let (lo, hi, gap) = (self.lo, self.hi, self.gap());
        match target {
            Target::Tv(delta) => gap <= 2.0 * delta,
            Target::Mul(eps) => {
                let rel = 2.0 * eps / 3.0;
                hi == 0.0 || lo == 1.0 || (gap <= rel * lo && gap <= rel * (1.0 - hi))
            }
            Target::Support(_) => (hi == 0.0 || lo > 0.0) && (lo == 1.0 || hi < 1.0),
        }
    }

    /// The intersection of two certified bounds on the same marginal.
    fn intersect(self, other: MarginalBounds) -> MarginalBounds {
        MarginalBounds {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// What a walk has spent so far: the nodes it may still expand, and one
/// past the depth of the deepest node it expanded.
struct Tally {
    left: usize,
    reach: usize,
}

/// One walk of the truncated tree: its bounds, the tree nodes it
/// expanded, whether it used up its node budget, and the shallowest depth
/// whose walk is this one bit for bit. That depth is below the walk's own
/// only when the walk cut nothing, so it holds its whole SAW tree.
struct Walk {
    bounds: MarginalBounds,
    nodes: usize,
    exhausted: bool,
    first: usize,
}

/// The node budget of a `Tv` query's probe, its one walk at the planned
/// depth. A planned tree that fits answers the query from that walk
/// alone. A cycle's tree at depth `t` has `2t − 1` nodes, so every
/// cycle query up to depth 128 stays on this one walk. A probe that runs
/// out wastes at most these 256 nodes, a few µs, ahead of a deepening
/// whose own walks are larger.
const PROBE_NODES: usize = 256;

/// The SAW-tree inference oracle for two-spin systems.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::two_spin::TwoSpinParams;
/// use lds_gibbs::PartialConfig;
/// use lds_graph::{generators, NodeId};
/// use lds_oracle::{DecayRate, TwoSpinSawOracle};
///
/// let g = generators::cycle(10);
/// let oracle = TwoSpinSawOracle::new(
///     TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
/// let b = oracle.marginal_bounds(&g, &PartialConfig::empty(10), NodeId(0), 6);
/// assert!(b.lo <= b.hi && b.gap() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct TwoSpinSawOracle {
    params: TwoSpinParams,
    rate: DecayRate,
    node_budget: usize,
}

/// Ratio interval `[lo, hi]` for `R = Pr[1]/Pr[0]`; `hi` may be `+∞`.
#[derive(Clone, Copy, Debug)]
struct RatioInterval {
    lo: f64,
    hi: f64,
}

impl RatioInterval {
    const UNKNOWN: RatioInterval = RatioInterval {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    fn point(r: f64) -> Self {
        RatioInterval { lo: r, hi: r }
    }
}

/// Whether the tree child `x`, reached over edge `e`, is a leaf, and if
/// so whether it is occupied: a pinned node is a leaf at its pinned
/// value, and a node already on the path closes a cycle in a leaf that
/// Weitz's rule pins occupied exactly when `e` exceeds the edge through
/// which the path left `x`. `None` for a free node off the path.
fn leaf(
    pinning: &PartialConfig,
    on_path: &[bool],
    exit_edge: &[EdgeId],
    x: NodeId,
    e: EdgeId,
) -> Option<bool> {
    match pinning.get(x) {
        Some(val) => Some(val == Value(1)),
        None => on_path[x.index()].then(|| e > exit_edge[x.index()]),
    }
}

/// `x·y` with the convention `0·∞ = 0` (safe for bound products).
fn safe_mul(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

impl TwoSpinSawOracle {
    /// Creates the oracle for the given two-spin parameters and decay
    /// rate (used only for radius planning; the bounds themselves are
    /// certified regardless). The default work budget is 200 000
    /// SAW-tree nodes per walk; see [`TwoSpinSawOracle::with_node_budget`].
    pub fn new(params: TwoSpinParams, rate: DecayRate) -> Self {
        TwoSpinSawOracle {
            params,
            rate,
            node_budget: 200_000,
        }
    }

    /// Sets the per-walk work budget: the number of SAW-tree nodes a walk
    /// may expand. The subtrees under an occupied leaf's parent are never
    /// expanded (see the module docs), so they cost nothing, and the
    /// budget reaches that much deeper into the rest of the tree. When the
    /// budget is exhausted, unexplored subtrees contribute the
    /// unknown interval `[0, 1]` — the returned bounds stay **certified**
    /// (they only widen), making the oracle an anytime algorithm on dense
    /// graphs where the SAW tree is exponential in the radius. No served
    /// path sets a budget; this stays for the tests of those claims: an
    /// exhausted walk's bounds contain the unbudgeted walk's, and a
    /// budget of 5 017 holds torus(4,4)'s whole tree.
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        assert!(budget > 0, "budget must be positive");
        self.node_budget = budget;
        self
    }

    /// The edge factor `f(R) = (γR + 1)/(R + β)`: the multiplicative
    /// contribution of a child with ratio `R` to its parent's ratio.
    fn factor(&self, r: f64) -> f64 {
        let TwoSpinParams { beta, gamma, .. } = self.params;
        if r.is_infinite() {
            return gamma;
        }
        let num = gamma * r + 1.0;
        let den = r + beta;
        if den == 0.0 {
            if num == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            num / den
        }
    }

    fn factor_interval(&self, child: RatioInterval) -> (f64, f64) {
        let a = self.factor(child.lo);
        let b = self.factor(child.hi);
        (a.min(b), a.max(b))
    }

    /// Recursive SAW-tree ratio bounds at `u`, entered from `from`. A
    /// free node below the depth cap counts against the budget. Where
    /// `γ = 0`, one that has an occupied leaf child (see [`leaf`]) then
    /// answers `[0, 0]` without walking any child: the leaf's factor is
    /// `γ = 0`, so [`safe_mul`] would make the node's product exactly
    /// `[0, 0]` too. A node at the cap still answers unknown, and the
    /// depth of the deepest node expanded still tells where the walk
    /// first holds its whole (pruned) tree.
    #[allow(clippy::too_many_arguments)]
    fn ratio(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        u: NodeId,
        from: Option<NodeId>,
        depth: usize,
        cap: usize,
        on_path: &mut [bool],
        exit_edge: &mut [EdgeId],
        tally: &mut Tally,
    ) -> RatioInterval {
        if let Some(val) = pinning.get(u) {
            return if val == Value(1) {
                RatioInterval::point(f64::INFINITY)
            } else {
                RatioInterval::point(0.0)
            };
        }
        if depth >= cap {
            return RatioInterval::UNKNOWN;
        }
        if tally.left == 0 {
            return RatioInterval::UNKNOWN;
        }
        tally.left -= 1;
        if depth >= tally.reach {
            tally.reach = depth + 1;
        }
        // With γ = 0 an occupied leaf child's factor is 0, so this node's
        // ratio is exactly 0 whatever its other subtrees hold: skip them.
        // A node of degree 2 has at most one child to skip, so it skips
        // the scan instead, and tests its degree first: cycles pay one
        // comparison per node.
        if g.degree(u) > 2
            && self.params.gamma == 0.0
            && g.incident(u).any(|(x, e)| {
                Some(x) != from && leaf(pinning, on_path, exit_edge, x, e) == Some(true)
            })
        {
            return RatioInterval::point(0.0);
        }
        let mut lo = self.params.lambda;
        let mut hi = self.params.lambda;
        on_path[u.index()] = true;
        for (x, e) in g.incident(u) {
            if Some(x) == from {
                continue;
            }
            let child = if let Some(occupied) = leaf(pinning, on_path, exit_edge, x, e) {
                RatioInterval::point(if occupied { f64::INFINITY } else { 0.0 })
            } else {
                exit_edge[u.index()] = e;
                self.ratio(
                    g,
                    pinning,
                    x,
                    Some(u),
                    depth + 1,
                    cap,
                    on_path,
                    exit_edge,
                    tally,
                )
            };
            let (flo, fhi) = self.factor_interval(child);
            lo = safe_mul(lo, flo);
            hi = safe_mul(hi, fhi);
        }
        on_path[u.index()] = false;
        RatioInterval { lo, hi }
    }

    /// Certified bounds on `Pr[Y_v = 1]` under `μ^τ`, using information
    /// within radius `t` of `v` (walks of length `≤ t`).
    pub fn marginal_bounds(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> MarginalBounds {
        if let Some(val) = pinning.get(v) {
            let p = if val == Value(1) { 1.0 } else { 0.0 };
            return MarginalBounds { lo: p, hi: p };
        }
        with_path_scratch(g.node_count(), |scratch| {
            self.walk(g, pinning, v, t, self.node_budget, scratch)
                .bounds
        })
    }

    /// One walk of the tree truncated at depth `t`, under `budget` nodes,
    /// on caller-provided scratch. A walk that uses its whole budget
    /// counts as exhausted.
    fn walk(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
        budget: usize,
        scratch: &mut PathScratch,
    ) -> Walk {
        let mut tally = Tally {
            left: budget,
            reach: 0,
        };
        let PathScratch { on_path, exit_edge } = scratch;
        let r = self.ratio(g, pinning, v, None, 0, t, on_path, exit_edge, &mut tally);
        let to_p = |r: f64| {
            if r.is_infinite() {
                1.0
            } else {
                r / (1.0 + r)
            }
        };
        Walk {
            bounds: MarginalBounds {
                lo: to_p(r.lo),
                hi: to_p(r.hi),
            },
            nodes: budget - tally.left,
            exhausted: tally.left == 0,
            first: if tally.left == 0 { t } else { tally.reach },
        }
    }

    /// `Tv`'s probe: the walk at the planned depth `t` under
    /// [`PROBE_NODES`], or `None` if that tree outgrows it.
    fn probe(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> Option<MarginalBounds> {
        let budget = PROBE_NODES.min(self.node_budget);
        let probe = with_path_scratch(g.node_count(), |scratch| {
            self.walk(g, pinning, v, t, budget, scratch)
        });
        (!probe.exhausted).then_some(probe.bounds)
    }

    /// The depth search behind every query on a free `v`. It walks
    /// deepening trees up to depth `t_max` and stops at the first walk
    /// that meets `target` or exhausts the node budget, or at `t_max`.
    /// Exhaustion is monotone in depth, since a deeper tree holds the
    /// shallower one. The answer is the intersection of the walks at
    /// depths up to the one the search stops at. Every one of them is
    /// certified, so a walk cut short by the budget cannot widen it.
    ///
    /// Each walk starts again from the root, so the search picks each
    /// next depth from the node counts of its walks, for the tree to
    /// about double per walk. While each level adds more nodes than the
    /// one before, as on a torus, it takes one level per walk. Otherwise
    /// it extrapolates the growth linearly to where the tree doubles: on
    /// a cycle, whose SAW tree is a path, that doubles the depth. A jump
    /// stops short at `t_max − 1` before going on to `t_max`: where the
    /// decay rate is tight, as on a cycle, a query that runs to its gap
    /// stops at `t_max − 1` or `t_max`, and a jump onto `t_max` would
    /// cost a walk back. A walk that cut nothing holds its whole tree,
    /// and every deeper walk repeats it, so the search stops there too.
    /// The arithmetic is integer, and a walk allocates nothing.
    ///
    /// A jump can overshoot. From a walk that stops after a jump, `Mul`
    /// and `Support` search back down (`t − 1`, `t − 2`, `t − 4`, …, then
    /// bisecting) to the first depth that stops. That is where a
    /// one-level-at-a-time loop stops too: each stop rule carries over to
    /// nested bounds, and until a walk exhausts the budget the bounds
    /// nest bit for bit across depths, so the answer is that depth's
    /// bounds. Walks deeper than it are left out of the intersection, or
    /// they would move those bits. `Tv` keeps the overshoot.
    ///
    /// Over the prefixes of one chain-rule scan, a `Mul` query costs
    /// about 3× one walk at its stopping depth on cycle(128): 3.0×, 2.9×
    /// and 3.0× at ε = 0.01, 10⁻³ and 1/n³, where a one-level loop cost
    /// 3.8×, 4.8× and 7.5×. On torus(4,4), where hardcore walks prune
    /// (see the module docs), over the prefixes of eight samples pinned in
    /// node order, it costs 3.4× at ε = 0.01 and 6.6× and 7.3× at 10⁻³
    /// and 1/n³, against that loop's 3.1×, 4.4× and 5.2×, so there the
    /// search costs more than the loop it replaced (in one process, in
    /// interleaved rounds, on a 2-vCPU host).
    fn search(
        &self,
        g: &Graph,
        pinning: &PartialConfig,
        v: NodeId,
        t_max: usize,
        target: Target,
    ) -> MarginalBounds {
        with_path_scratch(g.node_count(), |scratch| {
            let mut walk = |t| self.walk(g, pinning, v, t, self.node_budget, scratch);
            let stops = |w: &Walk| w.exhausted || w.bounds.meets(target);
            // the intersection of every walk below the depth being decided
            let mut below = MarginalBounds::UNKNOWN;
            let (mut last, mut last_nodes) = (0, 0);
            // the nodes the tree gained into the last walk, and over how
            // many levels
            let mut last_growth: (usize, usize) = (0, 1);
            let mut t = t_max.min(1);
            let (top, stopped) = loop {
                let w = walk(t);
                let stopped = stops(&w);
                // a walk that holds its whole tree ends the search too: every
                // deeper walk repeats it bit for bit
                if stopped || t == t_max || w.first < t {
                    break (w, stopped);
                }
                below = below.intersect(w.bounds);
                let growth = (w.nodes - last_nodes, t - last);
                let branching =
                    growth.0.saturating_mul(last_growth.1) > last_growth.0.saturating_mul(growth.1);
                let step = if branching {
                    1
                } else {
                    w.nodes.saturating_mul(growth.1) / growth.0.max(1)
                };
                (last, last_nodes, last_growth) = (t, w.nodes, growth);
                let ceiling = if t + 1 < t_max { t_max - 1 } else { t_max };
                t = t.saturating_add(step.max(1)).min(ceiling);
            };
            if !stopped || matches!(target, Target::Tv(_)) {
                return below.intersect(top.bounds);
            }
            // every depth up to `fail` runs on, the walk at `hold` stops with
            // bounds `held`, and the first depth that stops lies in (fail, hold]
            let (mut fail, mut hold, mut held) = (last, top.first.max(last + 1), top.bounds);
            let (from, mut stride) = (hold, Some(1));
            while hold > fail + 1 {
                let d = match stride {
                    Some(s) if from > fail + s => (from - s).min(hold - 1),
                    _ => fail + (hold - fail) / 2,
                };
                let w = walk(d);
                if stops(&w) {
                    (hold, held) = (w.first.max(fail + 1), w.bounds);
                    stride = stride.map(|s| 2 * s);
                } else {
                    fail = d;
                    below = below.intersect(w.bounds);
                    stride = None;
                }
            }
            below.intersect(held)
        })
    }
}

/// Every target runs one depth search up to its planned depth (see
/// `search`), which answers from the intersection of the walks up to
/// where it stops. `Tv(δ)`, planned at `t = min{t : c·αᵗ ≤ δ}`, first
/// walks depth `t` under a probe budget of 256 nodes and answers that
/// walk's midpoint when it completes, as on every cycle; only a planned
/// tree that outgrows the probe deepens, stopping at the first certified
/// gap of at most `2δ`. `Mul(ε)` and `Support(ε)`, planned for a
/// certified gap of `ε/4`, stop at the first depth whose bounds decide
/// the target.
impl Oracle for TwoSpinSawOracle {
    fn name(&self) -> &str {
        "saw-tree"
    }

    /// The multiplicative radius is heuristic: two-spin marginals in the
    /// uniqueness regime are bounded away from 0 and 1 (hard zeros are
    /// certified exactly by the interval), so a certified gap of `ε/4`
    /// implies multiplicative error `≈ ε`. The distributed JVV sampler
    /// remains *exact* for any consistent estimator as long as no
    /// acceptance probability exceeds 1 (tracked by `JvvStats::clamped`);
    /// this radius choice controls the success probability, not
    /// correctness.
    fn radius(&self, _model: &GibbsModel, target: Target) -> usize {
        match target {
            Target::Tv(delta) => self.rate.radius_for(delta),
            Target::Mul(eps) | Target::Support(eps) => self.rate.radius_for(0.25 * eps),
        }
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64> {
        let (g, t) = (model.graph(), self.radius(model, target));
        let b = match (pinning.get(v), target) {
            (Some(val), _) => {
                let p = if val == Value(1) { 1.0 } else { 0.0 };
                MarginalBounds { lo: p, hi: p }
            }
            (None, Target::Tv(_)) => self
                .probe(g, pinning, v, t)
                .unwrap_or_else(|| self.search(g, pinning, v, t, target)),
            (None, _) => self.search(g, pinning, v, t, target),
        };
        let p = match target {
            Target::Tv(_) => b.midpoint(),
            // The *certified* per-entry relative error of the midpoint
            // is ≤ ε/3 — a rigorous form of the guarantee the worst-case
            // radius plan only assumes — unless the search ran out of
            // depth or budget first. Certified zeros and ones stay exact
            // (support correctness).
            Target::Mul(_) => {
                if b.hi == 0.0 {
                    0.0
                } else if b.lo == 1.0 {
                    1.0
                } else {
                    b.midpoint()
                }
            }
            // Positivity needs only a *decided* interval, not a tight
            // one: a pinned-occupied neighbor certifies a hard zero after
            // one level, and one resolved level bounds the ratio away from
            // the forcing boundary — so the ground-state pass pays
            // `O(Δ²)` per node instead of a deep tree walk.
            Target::Support(eps) => {
                if !b.meets(target) {
                    // undecided at the cap: the full estimate's support
                    return self.query(model, pinning, v, Target::Mul(eps));
                }
                return vec![f64::from(b.lo < 1.0), f64::from(b.hi > 0.0)];
            }
        };
        vec![1.0 - p, p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::{hardcore, ising, two_spin};
    use lds_gibbs::{distribution, metrics};
    use lds_graph::generators;

    fn hc_oracle(lambda: f64) -> TwoSpinSawOracle {
        TwoSpinSawOracle::new(TwoSpinParams::hardcore(lambda), DecayRate::new(0.5, 2.0))
    }

    #[test]
    fn all_nodes_receive_marginals_within_delta() {
        // the `Tv` answer `Task::Infer` serves, at every node of cycle(10)
        let g = generators::cycle(10);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(10);
        let oracle = hc_oracle(1.0);
        for v in g.nodes() {
            let exact = distribution::marginal(&m, &tau, v).unwrap();
            let err = metrics::tv_distance(&exact, &oracle.query(&m, &tau, v, Target::Tv(0.05)));
            assert!(err <= 0.05, "node {v}: err {err}");
        }
    }

    #[test]
    fn exact_on_trees_with_full_depth() {
        // on a tree the SAW tree *is* the tree: full depth = exact marginal
        let g = generators::balanced_tree(2, 3);
        let m = hardcore::model(&g, 1.4);
        let tau = PartialConfig::empty(g.node_count());
        let oracle = hc_oracle(1.4);
        for v in [NodeId(0), NodeId(1), NodeId(7)] {
            let exact = distribution::marginal(&m, &tau, v).unwrap();
            let b = oracle.marginal_bounds(&g, &tau, v, 10);
            assert!(b.gap() < 1e-12, "tree bounds should be tight");
            assert!(
                (b.midpoint() - exact[1]).abs() < 1e-10,
                "v={v}: saw={} exact={}",
                b.midpoint(),
                exact[1]
            );
        }
    }

    #[test]
    fn exact_on_cycles_with_full_depth() {
        // Weitz's theorem: with walks long enough to exhaust all SAWs,
        // the root ratio is exactly the true marginal ratio.
        let g = generators::cycle(7);
        let m = hardcore::model(&g, 2.0);
        let tau = PartialConfig::empty(7);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        let b = hc_oracle(2.0).marginal_bounds(&g, &tau, NodeId(0), 8);
        assert!(b.gap() < 1e-12);
        assert!((b.midpoint() - exact[1]).abs() < 1e-10);
    }

    #[test]
    fn exact_on_grid_with_full_depth() {
        let g = generators::grid(3, 3);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(9);
        for v in g.nodes() {
            let exact = distribution::marginal(&m, &tau, v).unwrap();
            let b = hc_oracle(1.0).marginal_bounds(&g, &tau, v, 12);
            assert!(b.gap() < 1e-10, "gap {} at {v}", b.gap());
            assert!(
                (b.midpoint() - exact[1]).abs() < 1e-8,
                "v={v}: saw={} exact={}",
                b.midpoint(),
                exact[1]
            );
        }
    }

    #[test]
    fn respects_pinning() {
        let g = generators::path(5);
        let m = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(5);
        tau.pin(NodeId(1), Value(1));
        let exact = distribution::marginal(&m, &tau, NodeId(2)).unwrap();
        let b = hc_oracle(1.0).marginal_bounds(&g, &tau, NodeId(2), 6);
        assert!(b.hi < 1e-12, "neighbor of occupied must be empty");
        assert!((b.midpoint() - exact[1]).abs() < 1e-10);
    }

    #[test]
    fn bounds_bracket_truth_when_truncated() {
        let g = generators::torus(4, 4);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(16);
        let exact = distribution::marginal(&m, &tau, NodeId(5)).unwrap()[1];
        for t in 1..6 {
            let b = hc_oracle(1.0).marginal_bounds(&g, &tau, NodeId(5), t);
            assert!(
                b.lo <= exact + 1e-12 && exact <= b.hi + 1e-12,
                "t={t}: [{}, {}] vs {exact}",
                b.lo,
                b.hi
            );
        }
    }

    #[test]
    fn gap_decays_with_radius_in_uniqueness() {
        // λ = 0.5, well inside uniqueness for Δ = 4 (λ_c(4) ≈ 1.6875)
        let g = generators::torus(5, 5);
        let tau = PartialConfig::empty(25);
        let oracle = hc_oracle(0.5);
        let mut last = f64::INFINITY;
        for t in [2usize, 4, 6, 8] {
            let gap = oracle.marginal_bounds(&g, &tau, NodeId(12), t).gap();
            assert!(gap <= last + 1e-12, "gap grew at t={t}");
            last = gap;
        }
        assert!(last < 0.02, "uniqueness-regime gap too large: {last}");
    }

    #[test]
    fn ising_saw_matches_enumeration() {
        let g = generators::cycle(6);
        let params = ising::IsingParams::new(0.3, 0.1).to_two_spin();
        let m = two_spin::model(&g, params);
        let tau = PartialConfig::empty(6);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        let oracle = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
        let p = oracle.marginal_bounds(&g, &tau, NodeId(0), 7).midpoint();
        let est = [1.0 - p, p];
        assert!(
            metrics::tv_distance(&exact, &est) < 1e-9,
            "est={est:?} exact={exact:?}"
        );
    }

    #[test]
    fn budget_exhaustion_keeps_bounds_certified() {
        let g = generators::torus(5, 5);
        let tau = PartialConfig::empty(25);
        // exact marginal for reference (enumeration is too big at n=25;
        // use the unbudgeted deep SAW bounds as the reference interval)
        let full = hc_oracle(1.0).marginal_bounds(&g, &tau, NodeId(12), 8);
        let tiny = hc_oracle(1.0)
            .with_node_budget(50)
            .marginal_bounds(&g, &tau, NodeId(12), 8);
        // budgeted bounds must contain the unbudgeted ones
        assert!(tiny.lo <= full.lo + 1e-12);
        assert!(tiny.hi >= full.hi - 1e-12);
        // and must be wider (the budget really bit)
        assert!(tiny.gap() > full.gap());
    }

    /// Hardcore's occupied leaves cut torus(4,4)'s whole SAW tree at v0
    /// from 90 677 nodes to 5 017: a walk of that budget holds it all.
    #[test]
    fn occupied_leaves_prune_the_torus44_tree_to_5017_nodes() {
        let g = generators::torus(4, 4);
        let tau = PartialConfig::empty(16);
        let whole = hc_oracle(1.0).marginal_bounds(&g, &tau, NodeId(0), 34);
        let fits = hc_oracle(1.0)
            .with_node_budget(5_017)
            .marginal_bounds(&g, &tau, NodeId(0), 34);
        assert!(whole.gap() < 1e-12, "the whole tree certifies exactly");
        assert_eq!(bits(fits), bits(whole));
    }

    fn bits(b: MarginalBounds) -> (u64, u64) {
        (b.lo.to_bits(), b.hi.to_bits())
    }

    /// Runs `f` on a thread of its own, so it starts from a fresh path
    /// scratch.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("query thread"))
    }

    #[test]
    fn a_walk_that_panics_does_not_poison_the_next_query_on_its_thread() {
        let g = generators::cycle(10);
        let oracle = hc_oracle(1.0);
        let query = || oracle.marginal_bounds(&g, &PartialConfig::empty(10), NodeId(3), 6);
        let fresh = on_fresh_thread(query);
        let after = on_fresh_thread(|| {
            // a 5-node pinning on a 10-node graph: the walk indexes past
            // it and panics with nodes still marked on its path
            let short = PartialConfig::empty(5);
            let walk = || oracle.marginal_bounds(&g, &short, NodeId(0), 6);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(walk));
            assert!(panicked.is_err(), "the short pinning must panic");
            query()
        });
        assert_eq!(bits(after), bits(fresh));
    }

    #[test]
    fn queries_interleaved_across_graph_sizes_match_a_fresh_thread_bitwise() {
        let oracle = hc_oracle(1.0);
        let model = |g: &Graph| two_spin::model(g, TwoSpinParams::hardcore(1.0));
        let mut pinned = PartialConfig::empty(16);
        pinned.pin(NodeId(6), Value(1));
        let queries = [
            (generators::cycle(10), PartialConfig::empty(10), NodeId(3)),
            (generators::torus(4, 4), pinned, NodeId(5)),
            (generators::path(3), PartialConfig::empty(3), NodeId(1)),
            (
                generators::torus(5, 5),
                PartialConfig::empty(25),
                NodeId(12),
            ),
            (generators::cycle(7), PartialConfig::empty(7), NodeId(0)),
        ];
        let answer = |(g, tau, v): &(Graph, PartialConfig, NodeId)| {
            let b = oracle.marginal_bounds(g, tau, *v, 6);
            let searched = oracle.query(&model(g), tau, *v, Target::Mul(1e-3));
            let searched: Vec<u64> = searched.iter().map(|p| p.to_bits()).collect();
            (bits(b), searched)
        };
        let fresh: Vec<_> = queries
            .iter()
            .map(|q| on_fresh_thread(|| answer(q)))
            .collect();
        let reused = on_fresh_thread(|| {
            let rounds = (0..2).flat_map(|_| queries.iter().map(answer));
            rounds.collect::<Vec<_>>()
        });
        assert_eq!(reused, [fresh.clone(), fresh].concat());
    }

    #[test]
    fn matching_marginals_via_line_graph() {
        use lds_gibbs::models::matching::MatchingInstance;
        let g = generators::cycle(5);
        let inst = MatchingInstance::new(&g, 1.0);
        let lm = inst.model();
        let tau = PartialConfig::empty(lm.node_count());
        let exact = distribution::marginal(lm, &tau, NodeId(0)).unwrap();
        let oracle = hc_oracle(1.0);
        let b = oracle.marginal_bounds(lm.graph(), &tau, NodeId(0), 6);
        assert!(
            (b.midpoint() - exact[1]).abs() < 1e-9,
            "matching marginal {} vs {}",
            b.midpoint(),
            exact[1]
        );
    }
}
