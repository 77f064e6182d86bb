//! The boosting lemma (paper, Lemma 4.1).
//!
//! For local Gibbs distributions, approximate inference with **additive**
//! (total-variation) error `δ` can be boosted to approximate inference
//! with **multiplicative** error `ε` at the cost of a constant-factor
//! radius increase. The algorithm `A^×_ε` at node `v`:
//!
//! 1. sets `δ = ε/(5qn)` and `t`, the base oracle's radius at
//!    [`Target::Tv`]`(δ)`;
//! 2. enumerates the frontier ring `Γ = B_{t+ℓ}(v) \ (B_t(v) ∪ Λ)` in
//!    increasing id order, pinning each `v_i` to the value maximizing the
//!    base oracle's marginal `μ̂^{τ_{i-1}}_{v_i}` — the argmax has true
//!    probability `≥ 1/q − δ`, so every step multiplies the feasible mass
//!    by at most `e^{ε/n}` of slack (the chain-rule telescoping of the
//!    paper's proof);
//! 3. returns the **exact** marginal `μ^{τ_m}_v` computed under the ball
//!    weight `w_B`, which conditional independence (Proposition 2.1)
//!    makes a function of `B_{t+ℓ}(v)` only.
//!
//! The result satisfies `e^{−ε} ≤ μ̂_v(c)/μ^τ_v(c) ≤ e^{ε}` for every
//! color `c` — the multiplicative guarantee the distributed JVV sampler
//! (Theorem 4.2) consumes. [`BoostedOracle`] wraps any base oracle this
//! way; [`crate::EnumerationOracle`] boosts itself.

use lds_gibbs::{distribution, GibbsModel, PartialConfig};
use lds_graph::{traversal, NodeId};
use lds_runtime::ThreadPool;

use crate::{Oracle, Target};

/// The boosted oracle `A^×_ε` built from an additive-error base oracle
/// `A^+_δ` (Lemma 4.1). It answers [`Target::Mul`] and
/// [`Target::Support`] by boosting the base's [`Target::Tv`] answers,
/// and passes [`Target::Tv`] queries to the base unchanged.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::hardcore;
/// use lds_gibbs::models::two_spin::TwoSpinParams;
/// use lds_gibbs::PartialConfig;
/// use lds_graph::{generators, NodeId};
/// use lds_oracle::{BoostedOracle, DecayRate, Oracle, Target, TwoSpinSawOracle};
///
/// let g = generators::cycle(8);
/// let m = hardcore::model(&g, 1.0);
/// let base = TwoSpinSawOracle::new(
///     TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
/// let boosted = BoostedOracle::new(base);
/// let mu = boosted.query(&m, &PartialConfig::empty(8), NodeId(0), Target::Mul(0.5));
/// assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct BoostedOracle<O> {
    base: O,
}

impl<O: Oracle> BoostedOracle<O> {
    /// Wraps an additive-error oracle.
    pub fn new(base: O) -> Self {
        BoostedOracle { base }
    }

    /// The base-oracle radius `t` at `Tv(ε/(5qn))` used inside the
    /// boosting construction; experiment E3 reports it beside the boosted
    /// error that Lemma 4.1 bounds by `ε`.
    pub fn inner_radius(&self, model: &GibbsModel, eps: f64) -> usize {
        inner_radius(&self.base, model, eps)
    }
}

impl<O: Oracle> Oracle for BoostedOracle<O> {
    fn name(&self) -> &str {
        "boosted"
    }

    fn radius(&self, model: &GibbsModel, target: Target) -> usize {
        match target {
            Target::Tv(_) => self.base.radius(model, target),
            Target::Mul(eps) | Target::Support(eps) => boosted_radius(&self.base, model, eps),
        }
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64> {
        match target {
            Target::Tv(_) => self.base.query(model, pinning, v, target),
            Target::Mul(eps) | Target::Support(eps) => boost(&self.base, model, pinning, v, eps).0,
        }
    }
}

/// The base oracle's target inside the boosting construction:
/// `Tv(ε/(5qn))`.
fn base_target(model: &GibbsModel, eps: f64) -> Target {
    let n = model.node_count().max(1);
    let q = model.alphabet_size();
    Target::Tv(eps / (5.0 * q as f64 * n as f64))
}

/// The base-oracle radius `t` of the boosting construction.
fn inner_radius<O: Oracle + ?Sized>(base: &O, model: &GibbsModel, eps: f64) -> usize {
    base.radius(model, base_target(model, eps))
}

/// The boosted radius at multiplicative error `ε`: node `v` simulates the
/// base algorithm at nodes within `t + ℓ`, each needing radius `t`, so
/// `2t + ℓ` in total.
pub(crate) fn boosted_radius<O: Oracle + ?Sized>(base: &O, model: &GibbsModel, eps: f64) -> usize {
    2 * inner_radius(base, model, eps) + model.locality().max(1)
}

/// Lemma 4.1 over `base` at `v`: the boosted marginal and the fully
/// pinned frontier configuration `τ_m`.
pub(crate) fn boost<O: Oracle + ?Sized>(
    base: &O,
    model: &GibbsModel,
    pinning: &PartialConfig,
    v: NodeId,
    eps: f64,
) -> (Vec<f64>, PartialConfig) {
    let q = model.alphabet_size();
    if let Some(val) = pinning.get(v) {
        let mut point = vec![0.0; q];
        point[val.index()] = 1.0;
        return (point, pinning.clone());
    }
    let g = model.graph();
    let ell = model.locality().max(1);
    let target = base_target(model, eps);
    let t = base.radius(model, target);

    // Γ in increasing id order
    let dist = traversal::bfs_distances(g, v);
    let members = traversal::ball(g, v, t + ell);
    let mut frontier: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&u| (dist[u.index()] as usize) > t && !pinning.is_pinned(u))
        .collect();
    frontier.sort_unstable();

    // sequential argmax pinning with the base oracle
    let mut tau_i = pinning.clone();
    for vi in frontier {
        let mu = base.query(model, &tau_i, vi, target);
        let argmax = mu
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite marginals"))
            .map(|(i, _)| i)
            .expect("nonempty alphabet");
        tau_i.pin(vi, lds_gibbs::Value::from_index(argmax));
    }

    // exact marginal under w_B given τ_m
    let (ball_model, sub) = model.restrict_to(&members);
    let local_pin = GibbsModel::localize_pinning(&sub, &tau_i);
    let lv = sub.to_local(v).expect("center in ball");
    let marginal = distribution::marginal(&ball_model, &local_pin, lv)
        .unwrap_or_else(|| vec![1.0 / q as f64; q]);
    (marginal, tau_i)
}

/// The `n` chain-rule marginal distributions `μ^{τ∧σ_{<i}}_{v_i}` of a
/// frozen pinning chain at [`Target::Mul`]`(ε)`, fanned out across the
/// pool.
///
/// `levels` is the chain in order: level `i` pins `levels[..i]` on top
/// of `base` and evaluates the marginal at `levels[i].0`. Because the
/// chain is frozen, level `i`'s prefix is known without running levels
/// `< i` — each level is a self-contained trial, so the chain-rule
/// product (the counting reduction's inner loop) parallelizes
/// embarrassingly even though it *looks* sequential. This is the batch
/// entry point the counting estimator in `lds-core` dispatches to.
///
/// Results are in level order and bit-identical to evaluating the chain
/// in a sequential loop, at any pool width: a prefix rebuilt by pinning
/// `levels[..i]` onto a clone of `base` in order is bit-equal to the
/// incrementally grown pinning of a sequential walk, and
/// [`Oracle::query`] is a deterministic function of its arguments.
pub fn chain_marginals_mul<O: Oracle + Sync + ?Sized>(
    oracle: &O,
    model: &GibbsModel,
    base: &PartialConfig,
    levels: &[(NodeId, lds_gibbs::Value)],
    eps: f64,
    pool: &ThreadPool,
) -> Vec<Vec<f64>> {
    let target = Target::Mul(eps);
    if pool.is_sequential() || levels.len() <= 1 {
        let mut prefix = base.clone();
        let mut out = Vec::with_capacity(levels.len());
        for &(v, val) in levels {
            out.push(oracle.query(model, &prefix, v, target));
            prefix.pin(v, val);
        }
        return out;
    }
    let indices: Vec<usize> = (0..levels.len()).collect();
    pool.par_map(&indices, |&i| {
        let mut prefix = base.clone();
        for &(u, val) in &levels[..i] {
            prefix.pin(u, val);
        }
        oracle.query(model, &prefix, levels[i].0, target)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecayRate, TwoSpinSawOracle};
    use lds_gibbs::models::two_spin::TwoSpinParams;
    use lds_gibbs::models::{coloring, hardcore};
    use lds_gibbs::{metrics, Value};
    use lds_graph::generators;

    fn boosted_hc(lambda: f64) -> BoostedOracle<TwoSpinSawOracle> {
        BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda),
            DecayRate::new(0.4, 2.0),
        ))
    }

    #[test]
    fn multiplicative_error_is_bounded() {
        let g = generators::cycle(10);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(10);
        let boosted = boosted_hc(1.0);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        for eps in [0.5, 0.1] {
            let est = boosted.query(&m, &tau, NodeId(0), Target::Mul(eps));
            let err = metrics::multiplicative_err(&exact, &est);
            assert!(err <= eps, "eps={eps}: err={err}");
        }
    }

    #[test]
    fn boosted_respects_pins_and_zeroes() {
        let g = generators::path(6);
        let m = hardcore::model(&g, 2.0);
        let mut tau = PartialConfig::empty(6);
        tau.pin(NodeId(2), Value(1));
        let boosted = boosted_hc(2.0);
        // neighbor of occupied is deterministically empty: the boosted
        // oracle must put *zero* mass there (multiplicative error!)
        let est = boosted.query(&m, &tau, NodeId(1), Target::Mul(0.3));
        assert_eq!(est[1], 0.0);
        // pinned node is a point mass
        let p = boosted.query(&m, &tau, NodeId(2), Target::Mul(0.3));
        assert_eq!(p, vec![0.0, 1.0]);
    }

    #[test]
    fn frontier_is_fully_pinned() {
        let g = generators::cycle(12);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(12);
        let boosted = boosted_hc(1.0);
        let (_, tau_m) = boost(&boosted.base, &m, &tau, NodeId(0), 0.5);
        let t = boosted.inner_radius(&m, 0.5);
        let ell = m.locality().max(1);
        let dist = lds_graph::traversal::bfs_distances(&g, NodeId(0));
        for u in g.nodes() {
            let d = dist[u.index()] as usize;
            if d > t && d <= t + ell {
                assert!(tau_m.is_pinned(u), "frontier node {u} not pinned");
            }
        }
    }

    #[test]
    fn radius_accounting() {
        let g = generators::cycle(10);
        let m = hardcore::model(&g, 1.0);
        let boosted = boosted_hc(1.0);
        let r = boosted.radius(&m, Target::Mul(0.5));
        assert_eq!(r, 2 * boosted.inner_radius(&m, 0.5) + 1);
    }

    #[test]
    fn chain_marginals_match_incremental_walk_bitwise() {
        let g = generators::cycle(10);
        let m = hardcore::model(&g, 1.2);
        let mut base = PartialConfig::empty(10);
        base.pin(NodeId(3), Value(0));
        let boosted = boosted_hc(1.2);
        // a frozen greedy chain over the free vertices
        let mut levels = Vec::new();
        let mut prefix = base.clone();
        for v in g.nodes().filter(|&v| !base.is_pinned(v)) {
            let mu = boosted.query(&m, &prefix, v, Target::Mul(0.3));
            let argmax = mu
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let val = Value::from_index(argmax);
            levels.push((v, val));
            prefix.pin(v, val);
        }
        // the sequential walk's marginals are the ground truth
        let expected: Vec<Vec<f64>> = {
            let mut prefix = base.clone();
            levels
                .iter()
                .map(|&(v, val)| {
                    let mu = boosted.query(&m, &prefix, v, Target::Mul(0.3));
                    prefix.pin(v, val);
                    mu
                })
                .collect()
        };
        for threads in [1, 4, 8] {
            let pool = ThreadPool::new(threads);
            let chain = chain_marginals_mul(&boosted, &m, &base, &levels, 0.3, &pool);
            assert_eq!(chain, expected, "width {threads}");
        }
    }

    #[test]
    fn works_with_enumeration_base_on_colorings() {
        use crate::EnumerationOracle;
        let g = generators::cycle(8);
        let m = coloring::model(&g, 3);
        let tau = PartialConfig::empty(8);
        let base = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        let boosted = BoostedOracle::new(base.clone());
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        let est = boosted.query(&m, &tau, NodeId(0), Target::Mul(0.6));
        let err = metrics::multiplicative_err(&exact, &est);
        assert!(err <= 0.6, "coloring boosted err {err}");
        // the enumeration oracle boosts itself: the same answer, radius
        // and support
        for target in [Target::Mul(0.6), Target::Support(0.6)] {
            assert_eq!(base.query(&m, &tau, NodeId(0), target), est);
            assert_eq!(base.radius(&m, target), boosted.radius(&m, target));
        }
    }

    use lds_gibbs::distribution;
}
