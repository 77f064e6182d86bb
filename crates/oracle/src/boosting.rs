//! The boosting lemma (paper, Lemma 4.1).
//!
//! For local Gibbs distributions, approximate inference with **additive**
//! (total-variation) error `δ` can be boosted to approximate inference
//! with **multiplicative** error `ε` at the cost of a constant-factor
//! radius increase. The algorithm `A^×_ε` at node `v`:
//!
//! 1. sets `δ = ε/(5qn)` and `t = t(n, δ)`, the base oracle's radius;
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
//! (Theorem 4.2) consumes.

use std::sync::Arc;

use lds_gibbs::{distribution, GibbsModel, PartialConfig};
use lds_graph::{traversal, NodeId};
use lds_runtime::ThreadPool;

use crate::InferenceOracle;

/// Inference with a multiplicative-error guarantee
/// `err(μ̂_v, μ^τ_v) ≤ ε` (paper, eq. (2)).
pub trait MultiplicativeInference {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Radius needed for multiplicative error `ε` on a given model.
    fn radius_mul(&self, model: &GibbsModel, eps: f64) -> usize;

    /// Estimates `μ_v^τ` with multiplicative error `ε`.
    fn marginal_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<f64>;

    /// The *support* of the estimate: `support_mul(..)[c]` is `true`
    /// iff `marginal_mul(..)[c] > 0`. By the multiplicative guarantee a
    /// positive estimate implies positive truth, so this is all the
    /// ground-state pass of `local-JVV` needs — and deciding positivity
    /// is often far cheaper than computing the magnitude (a truncated
    /// SAW tree certifies zeros at pinned neighbors after one level).
    /// The default computes the full marginal; oracles with certified
    /// bounds override it with an early-out.
    fn support_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<bool> {
        self.marginal_mul(model, pinning, v, eps)
            .into_iter()
            .map(|p| p > 0.0)
            .collect()
    }
}

/// A shared oracle is an oracle. Every method forwards — `support_mul`
/// included, so an oracle's positivity early-out survives behind an
/// `Arc<dyn …>` instead of falling back to the full-marginal default.
impl<T: MultiplicativeInference + ?Sized> MultiplicativeInference for Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn radius_mul(&self, model: &GibbsModel, eps: f64) -> usize {
        (**self).radius_mul(model, eps)
    }

    fn marginal_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<f64> {
        (**self).marginal_mul(model, pinning, v, eps)
    }

    fn support_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<bool> {
        (**self).support_mul(model, pinning, v, eps)
    }
}

/// The boosted oracle `A^×_ε` built from an additive-error base oracle
/// `A^+_δ` (Lemma 4.1).
///
/// # Example
///
/// ```
/// use lds_gibbs::models::hardcore;
/// use lds_gibbs::PartialConfig;
/// use lds_graph::{generators, NodeId};
/// use lds_oracle::{BoostedOracle, DecayRate, EnumerationOracle};
/// use lds_oracle::saw::TwoSpinSawOracle;
/// use lds_gibbs::models::two_spin::TwoSpinParams;
/// use lds_oracle::boosting::MultiplicativeInference;
///
/// let g = generators::cycle(8);
/// let m = hardcore::model(&g, 1.0);
/// let base = TwoSpinSawOracle::new(
///     TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
/// let boosted = BoostedOracle::new(base);
/// let mu = boosted.marginal_mul(&m, &PartialConfig::empty(8), NodeId(0), 0.5);
/// assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct BoostedOracle<O> {
    base: O,
}

impl<O: InferenceOracle> BoostedOracle<O> {
    /// Wraps an additive-error oracle.
    pub fn new(base: O) -> Self {
        BoostedOracle { base }
    }

    /// The base oracle.
    pub fn base(&self) -> &O {
        &self.base
    }

    /// The base-oracle radius `t = t(n, ε/(5qn))` used inside the
    /// boosting construction.
    pub fn inner_radius(&self, model: &GibbsModel, eps: f64) -> usize {
        let n = model.node_count().max(1);
        let q = model.alphabet_size();
        let delta = eps / (5.0 * q as f64 * n as f64);
        self.base.radius(n, delta)
    }

    /// The boosted marginal together with the fully pinned frontier
    /// configuration `τ_m` (exposed for tests).
    pub fn marginal_with_frontier(
        &self,
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
        let t = self.inner_radius(model, eps);

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
            let mu = self.base.marginal(model, &tau_i, vi, t);
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
}

/// The `n` chain-rule marginal distributions `μ^{τ∧σ_{<i}}_{v_i}` of a
/// frozen pinning chain, fanned out across the pool.
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
/// [`MultiplicativeInference::marginal_mul`] is a deterministic function
/// of `(model, pinning, v, eps)`.
pub fn chain_marginals_mul<O>(
    oracle: &O,
    model: &GibbsModel,
    base: &PartialConfig,
    levels: &[(NodeId, lds_gibbs::Value)],
    eps: f64,
    pool: &ThreadPool,
) -> Vec<Vec<f64>>
where
    O: MultiplicativeInference + Sync,
{
    if pool.is_sequential() || levels.len() <= 1 {
        let mut prefix = base.clone();
        let mut out = Vec::with_capacity(levels.len());
        for &(v, val) in levels {
            out.push(oracle.marginal_mul(model, &prefix, v, eps));
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
        oracle.marginal_mul(model, &prefix, levels[i].0, eps)
    })
}

impl<O: InferenceOracle> MultiplicativeInference for BoostedOracle<O> {
    fn name(&self) -> &str {
        "boosted"
    }

    fn radius_mul(&self, model: &GibbsModel, eps: f64) -> usize {
        // node v simulates the base algorithm at nodes within t + ℓ,
        // each needing radius t: total 2t + ℓ.
        let ell = model.locality().max(1);
        2 * self.inner_radius(model, eps) + ell
    }

    fn marginal_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<f64> {
        self.marginal_with_frontier(model, pinning, v, eps).0
    }
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

    /// An oracle whose `support_mul` disagrees with the default derived
    /// from `marginal_mul`, so a wrapper that drops the override shows.
    struct SupportProbe;

    impl MultiplicativeInference for SupportProbe {
        fn name(&self) -> &str {
            "probe"
        }

        fn radius_mul(&self, _: &GibbsModel, _: f64) -> usize {
            7
        }

        fn marginal_mul(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: f64) -> Vec<f64> {
            vec![0.5, 0.5]
        }

        fn support_mul(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: f64) -> Vec<bool> {
            vec![true, false]
        }
    }

    #[test]
    fn shared_oracle_forwards_every_method() {
        let g = generators::cycle(4);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(4);
        let shared: Arc<dyn MultiplicativeInference> = Arc::new(SupportProbe);
        assert_eq!(shared.name(), "probe");
        assert_eq!(shared.radius_mul(&m, 0.1), 7);
        assert_eq!(shared.marginal_mul(&m, &tau, NodeId(0), 0.1), [0.5, 0.5]);
        // the override, not the full-marginal default ([true, true])
        assert_eq!(shared.support_mul(&m, &tau, NodeId(0), 0.1), [true, false]);
    }

    #[test]
    fn multiplicative_error_is_bounded() {
        let g = generators::cycle(10);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(10);
        let boosted = boosted_hc(1.0);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        for eps in [0.5, 0.1] {
            let est = boosted.marginal_mul(&m, &tau, NodeId(0), eps);
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
        let est = boosted.marginal_mul(&m, &tau, NodeId(1), 0.3);
        assert_eq!(est[1], 0.0);
        // pinned node is a point mass
        let p = boosted.marginal_mul(&m, &tau, NodeId(2), 0.3);
        assert_eq!(p, vec![0.0, 1.0]);
    }

    #[test]
    fn frontier_is_fully_pinned() {
        let g = generators::cycle(12);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(12);
        let boosted = boosted_hc(1.0);
        let (_, tau_m) = boosted.marginal_with_frontier(&m, &tau, NodeId(0), 0.5);
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
        let r = boosted.radius_mul(&m, 0.5);
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
            let mu = boosted.marginal_mul(&m, &prefix, v, 0.3);
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
                    let mu = boosted.marginal_mul(&m, &prefix, v, 0.3);
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
        let boosted = BoostedOracle::new(base);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        let est = boosted.marginal_mul(&m, &tau, NodeId(0), 0.6);
        let err = metrics::multiplicative_err(&exact, &est);
        assert!(err <= 0.6, "coloring boosted err {err}");
    }

    use lds_gibbs::distribution;
}
