//! Property-based tests for the paper's reductions and samplers.

use lds_core::counting;
use lds_core::jvv::LocalJvv;
use lds_core::sampler::SequentialSampler;
use lds_gibbs::models::hardcore;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_gibbs::{distribution, Config, PartialConfig, Value};
use lds_graph::{generators, ordering, Graph, NodeId};
use lds_localnet::slocal::run_scan_sequential;
use lds_localnet::{Instance, Network};
use lds_oracle::{BoostedOracle, DecayRate, TwoSpinSawOracle};
use lds_runtime::{CancelToken, ThreadPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(idx: usize, seed: u64) -> Graph {
    match idx % 4 {
        0 => generators::cycle(8),
        1 => generators::path(8),
        2 => generators::grid(2, 4),
        _ => generators::random_regular(8, 3, &mut StdRng::seed_from_u64(seed)),
    }
}

fn saw(lambda: f64) -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(TwoSpinParams::hardcore(lambda), DecayRate::new(0.55, 2.0))
}

proptest! {
    /// The sequential sampler always outputs feasible configurations,
    /// for every graph family, ordering, fugacity and seed.
    #[test]
    fn sampler_outputs_are_always_feasible(
        gidx in 0usize..4,
        lambda in 0.2f64..2.5,
        seed in any::<u64>(),
        order_kind in 0usize..3,
    ) {
        let g = workload(gidx, seed);
        let model = hardcore::model(&g, lambda);
        let oracle = saw(lambda);
        let net = Network::new(Instance::unconditioned(model.clone()), seed);
        let order = match order_kind {
            0 => ordering::identity(&g),
            1 => ordering::reverse(&g),
            _ => ordering::bfs_from(&g, NodeId(0)),
        };
        let sampler = SequentialSampler::new(&oracle, 0.1);
        let run = run_scan_sequential(&net, &sampler, &order, &CancelToken::never()).unwrap();
        let config = Config::from_values(run.outputs);
        prop_assert!(model.weight(&config) > 0.0);
    }

    /// JVV invariants hold on every workload: feasible output, acceptance
    /// in (0, 1], no repair failures, and pins always honored.
    #[test]
    fn jvv_invariants(
        gidx in 0usize..4,
        lambda in 0.3f64..2.0,
        seed in any::<u64>(),
        pin in 0usize..8,
    ) {
        let g = workload(gidx, seed);
        let n = g.node_count();
        let model = hardcore::model(&g, lambda);
        let mut tau = PartialConfig::empty(n);
        let pv = NodeId::from_index(pin % n);
        tau.pin(pv, Value(1));
        let inst = Instance::new(model.clone(), tau).unwrap();
        let oracle = BoostedOracle::new(saw(lambda));
        let jvv = LocalJvv::new(&oracle, 0.05);
        let net = Network::new(inst, seed);
        let (out, _) = jvv.run(&net, &ordering::identity(&g), &CancelToken::never()).unwrap();
        let y = Config::from_values(out.run.outputs.clone());
        prop_assert!(model.weight(&y) > 0.0);
        prop_assert_eq!(y.get(pv), Value(1));
        prop_assert!(out.stats.acceptance_product > 0.0);
        prop_assert!(out.stats.acceptance_product <= 1.0 + 1e-12);
        prop_assert_eq!(out.stats.repair_failures, 0);
    }

    /// Chain-rule counting matches exact enumeration within its declared
    /// error bound, across workloads and fugacities.
    #[test]
    fn counting_is_within_declared_error(
        gidx in 0usize..4,
        lambda in 0.3f64..2.0,
        seed in 0u64..50,
    ) {
        let g = workload(gidx, seed);
        let n = g.node_count();
        let model = hardcore::model(&g, lambda);
        let exact = distribution::partition_function(&model, &PartialConfig::empty(n));
        let rate = lds_core::complexity::hardcore_decay_rate(lambda, g.max_degree().max(2));
        let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda),
            DecayRate::new(rate.clamp(0.05, 0.95), 2.0),
        ));
        let tau = PartialConfig::empty(n);
        let est = counting::log_partition_function(&model, &tau, &oracle, 1e-4, &ThreadPool::sequential())
            .unwrap()
            .estimate;
        prop_assert!(
            (est.log_z - exact.ln()).abs() <= est.log_error_bound + 1e-6,
            "ln Ẑ {} vs ln Z {} (bound {})",
            est.log_z, exact.ln(), est.log_error_bound
        );
    }

    /// Thresholds and rates are consistent: rate < 1 iff λ < λ_c.
    #[test]
    fn rate_threshold_consistency(delta in 3usize..8, ratio in 0.1f64..3.0) {
        let lc = lds_core::complexity::hardcore_uniqueness_threshold(delta);
        let rate = lds_core::complexity::hardcore_decay_rate(ratio * lc, delta);
        if ratio < 0.98 {
            prop_assert!(rate < 1.0, "Δ={delta} ratio={ratio}: rate {rate}");
        }
        if ratio > 1.02 {
            prop_assert!(rate > 1.0, "Δ={delta} ratio={ratio}: rate {rate}");
        }
    }

}
