//! Property-based tests for the inference oracles.

use lds_gibbs::models::two_spin;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_gibbs::models::{coloring, hardcore, ising};
use lds_gibbs::{distribution, metrics, GibbsModel, PartialConfig, Value};
use lds_graph::{generators, line::LineGraph, EdgeId, Graph, NodeId};
use lds_oracle::saw::MarginalBounds;
use lds_oracle::{BoostedOracle, DecayRate, EnumerationOracle, Oracle, Target, TwoSpinSawOracle};
use proptest::collection;
use proptest::prelude::*;

fn workload(idx: usize) -> Graph {
    match idx % 4 {
        0 => generators::cycle(8),
        1 => generators::path(7),
        2 => generators::grid(2, 4),
        _ => generators::grid(3, 3),
    }
}

proptest! {
    /// SAW interval bounds always bracket the exact marginal, at every
    /// radius, on every workload, with or without pinnings.
    #[test]
    fn saw_bounds_bracket_truth(
        gidx in 0usize..4,
        lambda in 0.2f64..3.0,
        t in 1usize..7,
        pin_node in 0usize..7,
        pin_occupied in any::<bool>(),
    ) {
        let g = workload(gidx);
        let n = g.node_count();
        let m = hardcore::model(&g, lambda);
        let mut tau = PartialConfig::empty(n);
        let pv = NodeId::from_index(pin_node % n);
        tau.pin(pv, if pin_occupied { Value(1) } else { Value(0) });
        prop_assume!(distribution::is_feasible(&m, &tau));
        let oracle = TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda), DecayRate::new(0.5, 2.0));
        for v in g.nodes() {
            if v == pv { continue; }
            let exact = distribution::marginal(&m, &tau, v).unwrap()[1];
            let b = oracle.marginal_bounds(&g, &tau, v, t);
            prop_assert!(
                b.lo <= exact + 1e-9 && exact <= b.hi + 1e-9,
                "v={v} t={t}: [{}, {}] vs {exact}", b.lo, b.hi
            );
        }
    }

    /// SAW bounds nest across depths with no tolerance: from one depth to
    /// the next, `lo` never falls and `hi` never rises, so the certified
    /// gap never grows. Hardcore, soft and Ising-type models, with random
    /// pinnings, at every vertex. The depth search relies on this: it
    /// answers `Mul` and `Support` from the first depth that stops, found
    /// by searching back from a deeper one.
    #[test]
    fn saw_gap_monotone_in_radius(
        gidx in 0usize..6,
        kind in 0usize..3,
        lambda in 0.2f64..2.0,
        codes in collection::vec(0usize..5, 12),
    ) {
        let g = nesting_workload(gidx);
        let params = two_spin_params(kind, lambda);
        let m = two_spin::model(&g, params);
        let tau = pinning_from_codes(&m, &codes);
        let oracle = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
        for v in g.nodes() {
            let mut last = oracle.marginal_bounds(&g, &tau, v, 0);
            for t in 1..=g.node_count() {
                let b = oracle.marginal_bounds(&g, &tau, v, t);
                prop_assert!(
                    b.lo >= last.lo && b.hi <= last.hi && b.gap() <= last.gap(),
                    "v={v}: [{}, {}] at t={t} leaves [{}, {}]", b.lo, b.hi, last.lo, last.hi
                );
                last = b;
            }
        }
    }

    /// The enumeration oracle returns probability vectors that respect
    /// certified zeros (blocked values get exactly zero mass).
    #[test]
    fn enumeration_respects_hard_constraints(
        gidx in 0usize..4,
        t in 1usize..4,
        pin_node in 0usize..7,
    ) {
        let g = workload(gidx);
        let n = g.node_count();
        let m = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(n);
        let pv = NodeId::from_index(pin_node % n);
        tau.pin(pv, Value(1));
        let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        for &nb in g.neighbors(pv) {
            let mu = oracle.marginal_with_frontier(&m, &tau, nb, t).0;
            prop_assert_eq!(mu[1], 0.0, "neighbor {} of occupied {} got mass", nb, pv);
            prop_assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    /// Boosted oracles keep the multiplicative guarantee on cycles
    /// whenever the planned decay dominates the true decay.
    #[test]
    fn boosting_guarantee_on_cycles(
        n in 6usize..12,
        lambda in 0.3f64..2.0,
        eps in 0.1f64..0.8,
    ) {
        let g = generators::cycle(n);
        let m = hardcore::model(&g, lambda);
        let tau = PartialConfig::empty(n);
        let boosted = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda), DecayRate::new(0.55, 2.0)));
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        let est = boosted.query(&m, &tau, NodeId(0), Target::Mul(eps));
        let err = metrics::multiplicative_err(&exact, &est);
        prop_assert!(err <= eps, "n={n} λ={lambda} ε={eps}: err {err}");
    }

    /// Radius planning is monotone: smaller error targets need larger
    /// radii, and the planned error at the planned radius meets the target.
    #[test]
    fn radius_planning_is_sound(alpha in 0.1f64..0.9, c in 0.5f64..8.0, delta in 1e-6f64..0.5) {
        let rate = DecayRate::new(alpha, c);
        let t = rate.radius_for(delta);
        prop_assert!(rate.error_at(t) <= delta * (1.0 + 1e-9));
        if t > 0 {
            prop_assert!(rate.error_at(t - 1) > delta);
        }
    }

    /// Locality: oracles are insensitive to pins beyond their radius,
    /// and so is every SAW query, whatever its depth search walks.
    #[test]
    fn oracles_are_local(
        lambda in 0.3f64..2.0,
        t in 1usize..5,
        delta in 1e-4f64..0.5,
        eps in 1e-4f64..0.8,
    ) {
        let g = generators::cycle(16);
        let m = hardcore::model(&g, lambda);
        let far = NodeId(8);
        let mut sigma = PartialConfig::empty(16);
        sigma.pin(far, Value(0));
        let mut tau = PartialConfig::empty(16);
        tau.pin(far, Value(1));
        prop_assume!(t + 2 < 8);
        let saw = TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda), DecayRate::new(0.5, 2.0));
        prop_assert_eq!(
            saw.marginal_bounds(&g, &sigma, NodeId(0), t),
            saw.marginal_bounds(&g, &tau, NodeId(0), t)
        );
        let enumo = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        prop_assert_eq!(
            enumo.marginal_with_frontier(&m, &sigma, NodeId(0), t).0,
            enumo.marginal_with_frontier(&m, &tau, NodeId(0), t).0
        );
        // a cycle long enough that node r + 1 lies at distance r + 1
        let g = generators::cycle(40);
        let m = hardcore::model(&g, lambda);
        for target in [Target::Tv(delta), Target::Mul(eps), Target::Support(eps)] {
            let far = NodeId::from_index(saw.radius(&m, target) + 1);
            prop_assert!(2 * far.index() <= g.node_count(), "{target:?} plans past the cycle");
            let sigma = PartialConfig::empty(40).with_pin(far, Value(0));
            let tau = PartialConfig::empty(40).with_pin(far, Value(1));
            prop_assert_eq!(
                saw.query(&m, &sigma, NodeId(0), target),
                saw.query(&m, &tau, NodeId(0), target),
                "{:?} reads the pin at {}", target, far
            );
        }
    }

    /// Enumeration oracle on colorings returns proper conditional
    /// marginals that sum to one.
    #[test]
    fn coloring_marginals_normalize(n in 5usize..10, q in 3usize..5, t in 1usize..4) {
        let g = generators::cycle(n);
        let m = coloring::model(&g, q);
        let tau = PartialConfig::empty(n);
        let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        let mu = oracle.marginal_with_frontier(&m, &tau, NodeId(0), t).0;
        prop_assert_eq!(mu.len(), q);
        prop_assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// `Support(ε)` is positive exactly where `Mul(ε)` is: the SAW
    /// oracle, hardcore, a soft two-spin model or an Ising-type model,
    /// over random pinnings, torus(4,4) included.
    #[test]
    fn saw_support_is_positive_exactly_where_mul_is(
        gidx in 0usize..5,
        kind in 0usize..3,
        lambda in 0.3f64..2.5,
        eps in 0.05f64..0.8,
        codes in collection::vec(0usize..4, 16),
    ) {
        let g = support_workload(gidx);
        let params = two_spin_params(kind, lambda);
        let m = two_spin::model(&g, params);
        let tau = pinning_from_codes(&m, &codes);
        let saw = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
        support_matches_mul(&saw, &m, &tau, eps)?;
    }

    /// The same contract for the boosted SAW oracle, whose support is its
    /// multiplicative answer's.
    #[test]
    fn boosted_support_is_positive_exactly_where_mul_is(
        gidx in 0usize..4,
        kind in 0usize..3,
        lambda in 0.3f64..2.5,
        eps in 0.05f64..0.8,
        codes in collection::vec(0usize..4, 16),
    ) {
        let g = support_workload(gidx);
        let params = two_spin_params(kind, lambda);
        let m = two_spin::model(&g, params);
        let tau = pinning_from_codes(&m, &codes);
        let boosted = BoostedOracle::new(TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0)));
        support_matches_mul(&boosted, &m, &tau, eps)?;
    }

    /// The same contract for the enumeration oracle on cycle colorings.
    #[test]
    fn enumeration_support_is_positive_exactly_where_mul_is(
        n in 5usize..9,
        q in 3usize..5,
        eps in 0.05f64..0.8,
        codes in collection::vec(0usize..8, 8),
    ) {
        let m = coloring::model(&generators::cycle(n), q);
        let tau = pinning_from_codes(&m, &codes);
        let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        support_matches_mul(&oracle, &m, &tau, eps)?;
    }
}

proptest! {
    /// `Mul` and `Support` answers of the SAW oracle's depth search equal,
    /// bit for bit, those of [`one_level_loop`]: hardcore, soft and
    /// Ising-type models under random locally feasible pinnings, at
    /// ε = 0.01, 10⁻³ and 1/n³. The default node budget holds every
    /// tree here whole (torus(4,4)'s whole SAW tree has 90 677 nodes), so
    /// no walk exhausts it.
    #[test]
    fn saw_search_matches_the_one_level_loop(
        gidx in 0usize..4,
        kind in 0usize..3,
        lambda in 0.3f64..2.5,
        eidx in 0usize..3,
        spread in 2usize..40,
        codes in collection::vec(0usize..40, 128),
        vertex in 0usize..128,
    ) {
        let g = search_workload(gidx);
        let n = g.node_count();
        let params = two_spin_params(kind, lambda);
        let m = two_spin::model(&g, params);
        // pins about 2 in `spread` nodes
        let codes: Vec<usize> = codes.iter().map(|c| c % spread).collect();
        let tau = pinning_from_codes(&m, &codes);
        let eps = [0.01, 1e-3, 1.0 / (n as f64).powi(3)][eidx];
        let saw = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
        let v = NodeId::from_index(vertex % n);
        for target in [Target::Mul(eps), Target::Support(eps)] {
            let searched = saw.query(&m, &tau, v, target);
            let looped = one_level_loop(&saw, &m, &tau, v, target);
            prop_assert_eq!(
                bits(&searched), bits(&looped),
                "{:?} at {} on n = {}: {:?} vs {:?}", target, v, n, searched, looped
            );
        }
    }

    /// On cycles the planned tree fits the `Tv` probe, so `Tv(δ)` is one
    /// walk at the planned depth: the midpoint of `marginal_bounds` at
    /// `radius(Tv(δ))`, bit for bit.
    #[test]
    fn saw_tv_on_cycles_is_one_walk_at_the_planned_depth(
        n in 3usize..=128,
        kind in 0usize..3,
        lambda in 0.3f64..2.5,
        alpha in 0.3f64..0.95,
        delta in 1e-6f64..0.5,
        codes in collection::vec(0usize..6, 128),
        vertex in 0usize..128,
    ) {
        let g = generators::cycle(n);
        let params = two_spin_params(kind, lambda);
        let m = two_spin::model(&g, params);
        let tau = pinning_from_codes(&m, &codes);
        let saw = TwoSpinSawOracle::new(params, DecayRate::new(alpha, 2.0));
        let v = NodeId::from_index(vertex % n);
        let target = Target::Tv(delta);
        let p = saw.marginal_bounds(&g, &tau, v, saw.radius(&m, target)).midpoint();
        prop_assert_eq!(bits(&saw.query(&m, &tau, v, target)), bits(&[1.0 - p, p]));
    }
}

proptest! {
    /// Skipping the subtrees under an occupied leaf keeps every completed
    /// walk's bits: at depths 1–16, wherever [`unpruned_walk`] completes
    /// under the oracle's default budget, `marginal_bounds` returns its
    /// bounds bit for bit. Hardcore at λ = 0.5, 1 and 2, where walks
    /// prune, and a soft two-spin model (γ > 0), where none may, under
    /// random locally feasible pinnings.
    #[test]
    fn pruned_walks_match_the_unpruned_reference(
        gidx in 0usize..4,
        kind in 0usize..4,
        spread in 2usize..40,
        codes in collection::vec(0usize..40, 18),
        vertex in 0usize..18,
    ) {
        let (g, params, tau, v) = pruning_case(gidx, kind, spread, &codes, vertex);
        let saw = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
        for t in 1..=16 {
            let (reference, nodes, exhausted) = unpruned_walk(params, &g, &tau, v, t, DEFAULT_BUDGET);
            // a deeper tree holds this one, so every deeper walk exhausts too
            if exhausted {
                break;
            }
            let pruned = saw.marginal_bounds(&g, &tau, v, t);
            prop_assert_eq!(
                bounds_bits(pruned), bounds_bits(reference),
                "{} at depth {} ({} reference nodes): [{}, {}] vs [{}, {}]",
                v, t, nodes, pruned.lo, pruned.hi, reference.lo, reference.hi
            );
        }
    }

    /// Under a node budget of 50–500 the pruned walk's bounds lie inside
    /// the reference's: a skipped subtree is one the reference would have
    /// spent budget on, so every node the reference expands the pruned
    /// walk expands too. Where γ > 0 nothing is skipped, and the bits
    /// agree.
    #[test]
    fn budgeted_pruned_walks_lie_inside_the_reference(
        gidx in 0usize..4,
        kind in 0usize..4,
        spread in 2usize..40,
        codes in collection::vec(0usize..40, 18),
        vertex in 0usize..18,
        t in 1usize..=16,
        budget in 50usize..=500,
    ) {
        let (g, params, tau, v) = pruning_case(gidx, kind, spread, &codes, vertex);
        let saw = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0)).with_node_budget(budget);
        let (reference, _, _) = unpruned_walk(params, &g, &tau, v, t, budget);
        let pruned = saw.marginal_bounds(&g, &tau, v, t);
        prop_assert!(
            reference.lo <= pruned.lo && pruned.hi <= reference.hi,
            "{v} at depth {t}, budget {budget}: [{}, {}] leaves [{}, {}]",
            pruned.lo, pruned.hi, reference.lo, reference.hi
        );
        if params.gamma > 0.0 {
            prop_assert_eq!(bounds_bits(pruned), bounds_bits(reference));
        }
    }
}

/// The reference walk expands every node of torus(4,4)'s whole SAW tree
/// at v0, 90 677 of them; the oracle's unit tests hold the pruned walk to
/// 5 017.
#[test]
fn the_unpruned_reference_walks_torus44s_whole_tree() {
    let g = generators::torus(4, 4);
    let tau = PartialConfig::empty(16);
    let params = TwoSpinParams::hardcore(1.0);
    let (whole, nodes, exhausted) = unpruned_walk(params, &g, &tau, NodeId(0), 34, DEFAULT_BUDGET);
    assert_eq!((nodes, exhausted), (90_677, false));
    let saw = TwoSpinSawOracle::new(params, DecayRate::new(0.5, 2.0));
    let pruned = saw.marginal_bounds(&g, &tau, NodeId(0), 34);
    assert_eq!(bounds_bits(pruned), bounds_bits(whole));
}

/// The SAW oracle's default per-walk node budget.
const DEFAULT_BUDGET: usize = 200_000;

/// One case of the pruning properties: torus(4,4), grid(3,4), torus(3,6)
/// or the line graph of grid(3,3) (matchings), by `gidx`; hardcore at
/// λ = 0.5, 1 or 2, or the soft two-spin model at λ = 1, by `kind`; a
/// pinning of about 2 in `spread` nodes from `codes`; and the vertex.
fn pruning_case(
    gidx: usize,
    kind: usize,
    spread: usize,
    codes: &[usize],
    vertex: usize,
) -> (Graph, TwoSpinParams, PartialConfig, NodeId) {
    let g = match gidx {
        0 => generators::torus(4, 4),
        1 => generators::grid(3, 4),
        2 => generators::torus(3, 6),
        _ => LineGraph::of(&generators::grid(3, 3)).graph().clone(),
    };
    let params = match kind {
        0..=2 => TwoSpinParams::hardcore([0.5, 1.0, 2.0][kind]),
        _ => two_spin_params(1, 1.0),
    };
    let codes: Vec<usize> = codes.iter().map(|c| c % spread).collect();
    let tau = pinning_from_codes(&two_spin::model(&g, params), &codes);
    let v = NodeId::from_index(vertex % g.node_count());
    (g, params, tau, v)
}

/// The SAW walk before occupied leaves pruned it, frozen as the reference
/// for the pruned one: it walks every subtree, and each free node it
/// expands counts against `budget`, as in the oracle. Returns its bounds
/// on `Pr[Y_v = 1]` at depth `t`, the nodes it expanded, and whether it
/// used up its budget.
fn unpruned_walk(
    params: TwoSpinParams,
    g: &Graph,
    tau: &PartialConfig,
    v: NodeId,
    t: usize,
    budget: usize,
) -> (MarginalBounds, usize, bool) {
    let n = g.node_count();
    let mut walk = UnprunedWalk {
        params,
        g,
        tau,
        cap: t,
        left: budget,
        on_path: vec![false; n],
        exit_edge: vec![EdgeId(0); n],
    };
    let (lo, hi) = walk.ratio(v, None, 0);
    let to_p = |r: f64| if r.is_infinite() { 1.0 } else { r / (1.0 + r) };
    let bounds = MarginalBounds {
        lo: to_p(lo),
        hi: to_p(hi),
    };
    (bounds, budget - walk.left, walk.left == 0)
}

/// [`unpruned_walk`]'s state: the tree's depth cap, the nodes it may still
/// expand, and the path's nodes and the edges it left them by.
struct UnprunedWalk<'a> {
    params: TwoSpinParams,
    g: &'a Graph,
    tau: &'a PartialConfig,
    cap: usize,
    left: usize,
    on_path: Vec<bool>,
    exit_edge: Vec<EdgeId>,
}

impl UnprunedWalk<'_> {
    /// Bounds `[lo, hi]` on the ratio `Pr[1]/Pr[0]` at `u`, entered from
    /// `from`.
    fn ratio(&mut self, u: NodeId, from: Option<NodeId>, depth: usize) -> (f64, f64) {
        if let Some(val) = self.tau.get(u) {
            let r = if val == Value(1) { f64::INFINITY } else { 0.0 };
            return (r, r);
        }
        if depth >= self.cap || self.left == 0 {
            return (0.0, f64::INFINITY);
        }
        self.left -= 1;
        let (mut lo, mut hi) = (self.params.lambda, self.params.lambda);
        self.on_path[u.index()] = true;
        let g = self.g;
        for (x, e) in g.incident(u) {
            if Some(x) == from {
                continue;
            }
            let child = if let Some(val) = self.tau.get(x) {
                let r = if val == Value(1) { f64::INFINITY } else { 0.0 };
                (r, r)
            } else if self.on_path[x.index()] {
                // closing a cycle: Weitz's rule at x
                let r = if e > self.exit_edge[x.index()] {
                    f64::INFINITY
                } else {
                    0.0
                };
                (r, r)
            } else {
                self.exit_edge[u.index()] = e;
                self.ratio(x, Some(u), depth + 1)
            };
            let (a, b) = (self.factor(child.0), self.factor(child.1));
            lo = safe_mul(lo, a.min(b));
            hi = safe_mul(hi, a.max(b));
        }
        self.on_path[u.index()] = false;
        (lo, hi)
    }

    /// The edge factor `(γR + 1)/(R + β)` of a child with ratio `R`.
    fn factor(&self, r: f64) -> f64 {
        let TwoSpinParams { beta, gamma, .. } = self.params;
        if r.is_infinite() {
            return gamma;
        }
        let (num, den) = (gamma * r + 1.0, r + beta);
        match (num == 0.0, den == 0.0) {
            (true, true) => 1.0,
            (false, true) => f64::INFINITY,
            _ => num / den,
        }
    }
}

/// `x·y` with `0·∞ = 0`.
fn safe_mul(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

/// The bit patterns of bounds, for exact comparison.
fn bounds_bits(b: MarginalBounds) -> (u64, u64) {
    (b.lo.to_bits(), b.hi.to_bits())
}

/// The depth-search workloads: cycle(12), cycle(128), torus(4,4) and
/// grid(3,4).
fn search_workload(idx: usize) -> Graph {
    match idx {
        0 => generators::cycle(12),
        1 => generators::cycle(128),
        2 => generators::torus(4, 4),
        _ => generators::grid(3, 4),
    }
}

/// The answer the SAW oracle's depth search must give at `Mul(ε)` or
/// `Support(ε)`, by the loop it replaces: walk depths `t = 1, 2, …` and
/// stop at the first whose bounds meet the target's rule; if none below
/// the planned depth does, answer the planned depth. A support still
/// undecided there answers as `Mul(ε)`.
fn one_level_loop(
    saw: &TwoSpinSawOracle,
    model: &GibbsModel,
    tau: &PartialConfig,
    v: NodeId,
    target: Target,
) -> Vec<f64> {
    let (g, planned) = (model.graph(), saw.radius(model, target));
    let b = (1..planned)
        .map(|t| saw.marginal_bounds(g, tau, v, t))
        .find(|b| b.meets(target))
        .unwrap_or_else(|| saw.marginal_bounds(g, tau, v, planned));
    match target {
        Target::Support(_) if b.meets(target) => {
            vec![f64::from(b.lo < 1.0), f64::from(b.hi > 0.0)]
        }
        Target::Support(eps) => one_level_loop(saw, model, tau, v, Target::Mul(eps)),
        _ => {
            let p = if b.hi == 0.0 {
                0.0
            } else if b.lo == 1.0 {
                1.0
            } else {
                b.midpoint()
            };
            vec![1.0 - p, p]
        }
    }
}

/// The bit patterns of an answer, for exact comparison.
fn bits(answer: &[f64]) -> Vec<u64> {
    answer.iter().map(|p| p.to_bits()).collect()
}

/// The support-contract workloads: [`workload`]'s four graphs, then
/// torus(4,4).
fn support_workload(idx: usize) -> Graph {
    if idx < 4 {
        workload(idx)
    } else {
        generators::torus(4, 4)
    }
}

/// The models of the SAW properties, by `kind`: hardcore at fugacity
/// `λ`; a soft antiferromagnetic two-spin model (no hard zeros beyond the
/// pins) at the same `λ`; or an antiferromagnetic Ising model whose field
/// favors value 1 by `λ`.
fn two_spin_params(kind: usize, lambda: f64) -> two_spin::TwoSpinParams {
    match kind {
        0 => two_spin::TwoSpinParams::hardcore(lambda),
        1 => two_spin::TwoSpinParams::new(0.6, 0.4, lambda),
        _ => ising::IsingParams::new(-0.25, 0.5 * lambda.ln()).to_two_spin(),
    }
}

/// The nesting workloads: [`workload`]'s four graphs, then cycle(12) and
/// grid(3,4).
fn nesting_workload(idx: usize) -> Graph {
    match idx {
        0..=3 => workload(idx),
        4 => generators::cycle(12),
        _ => generators::grid(3, 4),
    }
}

/// A locally feasible pinning from one code per node: a code `c < q`
/// pins the node to the first of the values `c, c+1, …` (mod `q`) that
/// keeps the pinning locally feasible, and any other code leaves it
/// free. Local feasibility is feasibility for these models.
fn pinning_from_codes(model: &GibbsModel, codes: &[usize]) -> PartialConfig {
    let q = model.alphabet_size();
    let mut tau = PartialConfig::empty(model.node_count());
    for (v, &c) in model.graph().nodes().zip(codes).filter(|(_, &c)| c < q) {
        let feasible = (0..q)
            .map(|k| tau.with_pin(v, Value::from_index((c + k) % q)))
            .find(|candidate| model.is_locally_feasible(candidate));
        if let Some(pinned) = feasible {
            tau = pinned;
        }
    }
    tau
}

/// Checks at every vertex that `Support(ε)` is positive exactly where
/// `Mul(ε)` is.
fn support_matches_mul(
    oracle: &dyn Oracle,
    model: &GibbsModel,
    tau: &PartialConfig,
    eps: f64,
) -> Result<(), String> {
    let positive = |mu: &[f64]| mu.iter().map(|&p| p > 0.0).collect::<Vec<_>>();
    for v in model.graph().nodes() {
        let mul = oracle.query(model, tau, v, Target::Mul(eps));
        let support = oracle.query(model, tau, v, Target::Support(eps));
        if positive(&support) != positive(&mul) {
            return Err(format!(
                "{} at {v}, ε = {eps}: support {support:?} vs mul {mul:?}",
                oracle.name()
            ));
        }
    }
    Ok(())
}
