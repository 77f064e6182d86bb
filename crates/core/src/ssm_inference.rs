//! Strong spatial mixing ⟺ approximate inference (paper, Theorem 5.1).
//!
//! **Direction 1 (inference ⟹ SSM).** If a deterministic LOCAL inference
//! algorithm has complexity `t(n, δ)`, then for any two feasible pinnings
//! `σ, τ` differing only at distance `≥ t+1` from `v`, the algorithm
//! cannot distinguish the instances at `v`, so
//! `d_TV(μ^σ_v, μ^τ_v) ≤ 2·min{δ : t(n, δ) ≤ t − 1}` — the class
//! exhibits SSM with rate `δ_n(t) = 2·min{δ : t(n,δ) ≤ t−1}`.
//! [`implied_ssm_rate`] computes this for decay-planned oracles;
//! `tests/local_model_discipline.rs` checks the mechanism itself, equal
//! answers from both oracles under pins that differ only beyond their
//! radius.
//!
//! **Direction 2 (SSM ⟹ inference).** Given SSM with rate `δ_n(·)` and a
//! locally admissible local Gibbs distribution, the enumeration oracle
//! ([`lds_oracle::EnumerationOracle`]) *is* the paper's algorithm:
//! radius `t(n, δ) = min{t : δ_n(t) ≤ δ} + O(1)`.
//! [`inference_from_ssm`] packages it.

use lds_oracle::{DecayRate, EnumerationOracle};

/// Direction 1 quantitatively: an oracle with radius planning
/// `t(n, δ) = ⌈log_{1/α}(c/δ)⌉` implies SSM with rate
/// `δ_n(t) = 2·c·α^{t−1}` (the smallest `δ` the radius-`t−1` algorithm
/// can promise, doubled by the triangle inequality).
pub fn implied_ssm_rate(oracle_rate: DecayRate) -> DecayRate {
    DecayRate::new(
        oracle_rate.alpha(),
        2.0 * oracle_rate.constant() / oracle_rate.alpha(),
    )
}

/// Direction 2: the SSM-based inference algorithm (Theorem 5.1's
/// construction) for a class with mixing rate `rate`.
pub fn inference_from_ssm(rate: DecayRate) -> EnumerationOracle {
    EnumerationOracle::new(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::{distribution, metrics, PartialConfig, Value};
    use lds_graph::{generators, NodeId};
    use lds_oracle::{Oracle, Target};

    #[test]
    fn implied_rate_is_weaker_by_the_triangle_inequality() {
        let oracle_rate = DecayRate::new(0.5, 2.0);
        let ssm = implied_ssm_rate(oracle_rate);
        assert_eq!(ssm.alpha(), 0.5);
        // δ_n(t) = 2·c·α^{t-1} = (2c/α)·α^t
        assert!((ssm.constant() - 8.0).abs() < 1e-12);
        assert!(ssm.error_at(3) > oracle_rate.error_at(3));
    }

    #[test]
    fn ssm_implies_inference_with_planned_radius() {
        // direction 2 end-to-end: enumeration oracle with the model's
        // measured rate achieves the requested error
        let g = generators::cycle(14);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(14);
        // hardcore on a cycle mixes at rate ≤ λ/(1+λ)² ≈ 0.25; use 0.5
        let oracle = inference_from_ssm(DecayRate::new(0.5, 2.0));
        for delta in [0.2, 0.05, 0.01] {
            let t = oracle.radius(&m, Target::Tv(delta));
            let est = oracle.query(&m, &tau, NodeId(3), Target::Tv(delta));
            let exact = distribution::marginal(&m, &tau, NodeId(3)).unwrap();
            let err = metrics::tv_distance(&exact, &est);
            assert!(err <= delta, "δ={delta}: err {err} at radius {t}");
        }
    }

    #[test]
    fn ssm_bound_is_respected_empirically() {
        // the SSM inequality itself: dTV(μ^σ_v, μ^τ_v) ≤ δ_n(dist)
        let g = generators::cycle(12);
        let m = hardcore::model(&g, 1.0);
        let rate = DecayRate::new(0.5, 2.0);
        for d in 2..6usize {
            let mut sigma = PartialConfig::empty(12);
            sigma.pin(NodeId::from_index(d), Value(0));
            let mut tau = PartialConfig::empty(12);
            tau.pin(NodeId::from_index(d), Value(1));
            let mu_s = distribution::marginal(&m, &sigma, NodeId(0)).unwrap();
            let mu_t = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
            let tv = metrics::tv_distance(&mu_s, &mu_t);
            assert!(
                tv <= rate.error_at(d),
                "distance {d}: tv {tv} > bound {}",
                rate.error_at(d)
            );
        }
    }
}
