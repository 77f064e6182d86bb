//! Property-based tests for Gibbs distribution invariants.

use lds_gibbs::models::{coloring, hardcore, ising, matching::MatchingInstance, two_spin};
use lds_gibbs::{distribution, metrics, PartialConfig, Value};
use lds_graph::{generators, NodeId};
use proptest::prelude::*;

fn small_graph(idx: usize) -> lds_graph::Graph {
    match idx % 5 {
        0 => generators::path(5),
        1 => generators::cycle(5),
        2 => generators::star(5),
        3 => generators::complete(4),
        _ => generators::grid(2, 3),
    }
}

proptest! {
    /// Chain rule: Z^{τ ∧ (v←c)} summed over c equals Z^τ.
    #[test]
    fn partition_function_chain_rule(
        gidx in 0usize..5,
        lambda in 0.1f64..3.0,
        v in 0usize..4,
    ) {
        let g = small_graph(gidx);
        let m = hardcore::model(&g, lambda);
        let tau = PartialConfig::empty(g.node_count());
        let v = NodeId::from_index(v % g.node_count());
        let z: f64 = distribution::partition_function(&m, &tau);
        let z_split: f64 = (0..2)
            .map(|c| {
                distribution::partition_function(&m, &tau.with_pin(v, Value(c)))
            })
            .sum();
        prop_assert!((z - z_split).abs() < 1e-9 * z.max(1.0));
    }

    /// Marginals from the chain rule match direct enumeration.
    #[test]
    fn marginal_is_conditional_z_ratio(
        gidx in 0usize..5,
        lambda in 0.1f64..3.0,
        v in 0usize..4,
    ) {
        let g = small_graph(gidx);
        let m = hardcore::model(&g, lambda);
        let tau = PartialConfig::empty(g.node_count());
        let v = NodeId::from_index(v % g.node_count());
        let mu = distribution::marginal(&m, &tau, v).unwrap();
        let z = distribution::partition_function(&m, &tau);
        for c in 0..2 {
            let zc = distribution::partition_function(&m, &tau.with_pin(v, Value(c)));
            prop_assert!((mu[c as usize] - zc / z).abs() < 1e-10);
        }
    }

    /// Marginals are probability vectors.
    #[test]
    fn marginals_normalize(
        gidx in 0usize..5,
        q in 3usize..5,
        v in 0usize..4,
    ) {
        let g = small_graph(gidx);
        let m = coloring::model(&g, q);
        let tau = PartialConfig::empty(g.node_count());
        let v = NodeId::from_index(v % g.node_count());
        if let Some(mu) = distribution::marginal(&m, &tau, v) {
            let total: f64 = mu.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-10);
            prop_assert!(mu.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }

    /// TV distance is a metric bounded by 1 and symmetric.
    #[test]
    fn tv_distance_is_a_metric(
        a in proptest::collection::vec(0.0f64..1.0, 4),
        b in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let mut a = a; let mut b = b;
        prop_assume!(a.iter().sum::<f64>() > 0.0 && b.iter().sum::<f64>() > 0.0);
        metrics::normalize(&mut a);
        metrics::normalize(&mut b);
        let d = metrics::tv_distance(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d));
        prop_assert!((d - metrics::tv_distance(&b, &a)).abs() < 1e-12);
        prop_assert_eq!(metrics::tv_distance(&a, &a), 0.0);
    }

    /// Multiplicative error dominates TV distance scaled appropriately:
    /// err ≤ ε implies dTV ≤ (e^ε − 1)/2... we check the weaker sanity
    /// property: err = 0 iff identical support and values.
    #[test]
    fn multiplicative_err_zero_iff_equal(
        a in proptest::collection::vec(0.01f64..1.0, 3),
    ) {
        let mut a = a;
        metrics::normalize(&mut a);
        prop_assert_eq!(metrics::multiplicative_err(&a, &a), 0.0);
        let mut b = a.clone();
        b[0] *= 1.5;
        metrics::normalize(&mut b);
        prop_assert!(metrics::multiplicative_err(&a, &b) > 0.0);
    }

    /// Hardcore marginals are monotone in fugacity at a fixed vertex of a
    /// vertex-transitive graph (sanity: occupation probability grows with λ).
    #[test]
    fn hardcore_occupation_monotone_in_lambda(l1 in 0.1f64..2.0, dl in 0.1f64..2.0) {
        let g = generators::cycle(6);
        let m1 = hardcore::model(&g, l1);
        let m2 = hardcore::model(&g, l1 + dl);
        let tau = PartialConfig::empty(6);
        let p1 = distribution::marginal(&m1, &tau, NodeId(0)).unwrap()[1];
        let p2 = distribution::marginal(&m2, &tau, NodeId(0)).unwrap()[1];
        prop_assert!(p2 > p1);
    }

    /// Ising symmetry: with no field, the marginal is 1/2 everywhere.
    #[test]
    fn ising_zero_field_symmetry(beta in -1.0f64..1.0, gidx in 0usize..5) {
        let g = small_graph(gidx);
        let m = ising::model(&g, ising::IsingParams::new(beta, 0.0));
        let tau = PartialConfig::empty(g.node_count());
        let mu = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        prop_assert!((mu[0] - 0.5).abs() < 1e-9);
    }

    /// Two-spin with β=γ=1 is a product measure: marginal = λ/(1+λ).
    #[test]
    fn independent_two_spin_is_product(lambda in 0.1f64..4.0, gidx in 0usize..5) {
        let g = small_graph(gidx);
        let m = two_spin::model(&g, two_spin::TwoSpinParams::new(1.0, 1.0, lambda));
        let tau = PartialConfig::empty(g.node_count());
        let mu = distribution::marginal(&m, &tau, NodeId(1)).unwrap();
        prop_assert!((mu[1] - lambda / (1.0 + lambda)).abs() < 1e-9);
    }

    /// Matching instances: every feasible configuration decodes to a
    /// valid matching, and Z matches the matching polynomial degree bound.
    #[test]
    fn matching_feasible_configs_decode(gidx in 0usize..5, lambda in 0.2f64..2.0) {
        let g = small_graph(gidx);
        let inst = MatchingInstance::new(&g, lambda);
        let n = inst.model().node_count();
        if n <= 10 {
            let joint = distribution::joint_distribution(
                inst.model(), &PartialConfig::empty(n)).unwrap();
            for (c, _) in &joint {
                prop_assert!(inst.is_matching(&MatchingInstance::edges_of(c)));
            }
        }
    }

    /// Exact sampling conditional consistency: pinning then sampling
    /// honors the pin.
    #[test]
    fn exact_sampler_honors_pins(seed in any::<u64>(), lambda in 0.3f64..2.0) {
        use rand::SeedableRng;
        let g = generators::cycle(5);
        let m = hardcore::model(&g, lambda);
        let mut tau = PartialConfig::empty(5);
        tau.pin(NodeId(2), Value(1));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sample = distribution::sample_exact(&m, &tau, &mut rng);
        prop_assert_eq!(sample.get(NodeId(2)), Value(1));
        prop_assert!(m.weight(&sample) > 0.0);
    }
}
