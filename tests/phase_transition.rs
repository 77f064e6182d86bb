//! Integration: the computational phase transition (experiments E7/E8)
//! and the SSM ⟺ inference equivalence (Theorem 5.1) across crates.

use lds::core::complexity;
use lds::gibbs::models::hardcore;
use lds::gibbs::{distribution, metrics, PartialConfig, Value};
use lds::graph::{generators, NodeId};
use lds::oracle::{DecayRate, EnumerationOracle, Oracle, Target};
use lds::ssm::{correlation, estimator, phase, rate};

#[test]
fn transition_is_at_the_uniqueness_threshold() {
    for delta in [3usize, 4, 5] {
        let lc = complexity::hardcore_uniqueness_threshold(delta);
        // below: gap vanishes; above: gap persists
        let below = correlation::limiting_tree_gap(delta, 0.7 * lc, 400);
        let above = correlation::limiting_tree_gap(delta, 1.5 * lc, 400);
        assert!(below < 1e-4, "Δ={delta}: below-threshold gap {below}");
        assert!(above > 0.02, "Δ={delta}: above-threshold gap {above}");
    }
}

#[test]
fn fitted_rates_match_tree_theory_below_threshold() {
    for (delta, ratio) in [(4usize, 0.5f64), (4, 0.8), (5, 0.6)] {
        let points = phase::hardcore_tree_sweep(delta, &[ratio], 200);
        let p = &points[0];
        let fitted = p.fitted.as_ref().expect("fit exists below threshold");
        assert!(
            (fitted.alpha - p.theory_rate).abs() < 0.05,
            "Δ={delta} ratio={ratio}: fitted {} vs theory {}",
            fitted.alpha,
            p.theory_rate
        );
    }
}

#[test]
fn measured_ssm_rate_supports_planned_inference() {
    // measure the rate on a cycle, then plan radii with it (Thm 5.1 dir 2)
    let g = generators::cycle(14);
    let model = hardcore::model(&g, 1.2);
    let series = estimator::boundary_gap_series(&model, NodeId(0), Value(0), Value(1), 6);
    let fitted = rate::fit_rate(&series).unwrap();
    assert!(fitted.alpha < 1.0, "cycles always mix");
    // plan with a safety margin on the fitted rate
    let planned = DecayRate::new((fitted.alpha * 1.2).min(0.95), (fitted.c * 2.0).max(1.0));
    let oracle = EnumerationOracle::new(planned);
    let tau = PartialConfig::empty(14);
    let exact = distribution::marginal(&model, &tau, NodeId(0)).unwrap();
    for delta in [0.1f64, 0.02] {
        let t = oracle.radius(&model, Target::Tv(delta));
        let est = oracle.query(&model, &tau, NodeId(0), Target::Tv(delta));
        let err = metrics::tv_distance(&exact, &est);
        assert!(err <= delta, "δ={delta}: err {err} at planned radius {t}");
    }
}

#[test]
fn ssm_implies_inference_with_planned_radius() {
    // Thm 5.1 direction 2 end to end: the enumeration oracle planned at
    // the model's mixing rate achieves the requested error
    let g = generators::cycle(14);
    let m = hardcore::model(&g, 1.0);
    let tau = PartialConfig::empty(14);
    // hardcore on a cycle mixes at rate ≤ λ/(1+λ)² ≈ 0.25; use 0.5
    let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
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

#[test]
fn inference_implies_ssm_quantitatively() {
    // Thm 5.1 direction 1: an oracle planned at t(n, δ) = ⌈log_{1/α}(c/δ)⌉
    // implies SSM at rate δ_n(t) = 2·c·α^{t−1} = (2c/α)·α^t, the smallest
    // δ the radius-(t−1) algorithm promises, doubled by the triangle
    // inequality; that rate bounds the measured gaps
    let g = generators::cycle(14);
    let model = hardcore::model(&g, 1.0);
    let (alpha, c) = (0.5, 2.0);
    let implied = DecayRate::new(alpha, 2.0 * c / alpha);
    let series = estimator::boundary_gap_series(&model, NodeId(0), Value(0), Value(1), 6);
    for p in &series {
        assert!(
            p.gap <= implied.error_at(p.distance),
            "distance {}: measured {} > implied bound {}",
            p.distance,
            p.gap,
            implied.error_at(p.distance)
        );
    }
}

#[test]
fn lower_bound_witness_blocks_local_inference() {
    // E8 mechanism: above λ_c, no finite radius achieves error 0.005
    let lc = complexity::hardcore_uniqueness_threshold(4);
    let gaps: Vec<f64> = estimator::tree_gap_series(3, 1.4 * lc, 250)
        .iter()
        .map(|p| p.gap)
        .collect();
    assert_eq!(correlation::min_radius_for_error(&gaps, 0.005), None);
    // and the error floor is macroscopic
    let gap = correlation::limiting_tree_gap(4, 1.4 * lc, 250);
    assert!(correlation::error_floor(gap) > 0.05);
}

#[test]
fn required_radius_is_monotone_in_lambda_below_threshold() {
    let points = phase::hardcore_tree_sweep(4, &[0.3, 0.5, 0.7, 0.9], 300);
    let radii: Vec<f64> = points.iter().map(|p| p.required_radius).collect();
    for w in radii.windows(2) {
        assert!(w[0] <= w[1], "radii not monotone: {radii:?}");
    }
    assert!(radii.iter().all(|r| r.is_finite()));
}
