//! Integration: exactness of the distributed JVV sampler (Theorem 4.2)
//! across model families, validated against exact enumeration.

use lds::core::jvv::LocalJvv;
use lds::gibbs::models::matching::MatchingInstance;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::models::{coloring, hardcore};
use lds::gibbs::{distribution, metrics, Config, GibbsModel, PartialConfig};
use lds::graph::{generators, ordering};
use lds::localnet::{Instance, Network};
use lds::oracle::{BoostedOracle, DecayRate, EnumerationOracle, Oracle, TwoSpinSawOracle};
use lds::runtime::CancelToken;

/// Runs JVV `trials` times and returns (success rate, TV of accepted
/// empirical distribution vs exact, total clamped).
fn jvv_statistics<O: Oracle>(
    model: &GibbsModel,
    oracle: &O,
    eps: f64,
    trials: usize,
) -> (f64, f64, usize) {
    let g = model.graph().clone();
    let jvv = LocalJvv::new(oracle, eps);
    let mut accepted = Vec::new();
    let mut clamped = 0usize;
    for seed in 0..trials as u64 {
        let net = Network::new(Instance::unconditioned(model.clone()), seed);
        let (out, _) = jvv
            .run(&net, &ordering::identity(&g), &CancelToken::never())
            .unwrap();
        clamped += out.stats.clamped;
        if out.run.succeeded() {
            accepted.push(Config::from_values(out.run.outputs));
        }
    }
    let success = accepted.len() as f64 / trials as f64;
    let emp = metrics::empirical_distribution(&accepted);
    let exact =
        distribution::joint_distribution(model, &PartialConfig::empty(model.node_count())).unwrap();
    (success, metrics::tv_distance_joint(&emp, &exact), clamped)
}

#[test]
fn hardcore_jvv_is_exact() {
    let g = generators::cycle(5);
    let model = hardcore::model(&g, 1.5);
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.5),
        DecayRate::new(0.5, 2.0),
    ));
    let (success, tv, clamped) = jvv_statistics(&model, &oracle, 0.01, 12_000);
    assert_eq!(clamped, 0);
    assert!(success > 0.4, "success {success}");
    assert!(tv < 0.04, "accepted TV {tv}");
}

#[test]
fn matching_jvv_is_exact() {
    // monomer-dimer on C4: line graph is C4 again; 7 matchings
    let g = generators::cycle(4);
    let inst = MatchingInstance::new(&g, 1.0);
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(0.5, 2.0),
    ));
    let (success, tv, clamped) = jvv_statistics(inst.model(), &oracle, 0.01, 12_000);
    assert_eq!(clamped, 0);
    assert!(success > 0.4, "success {success}");
    assert!(tv < 0.04, "accepted TV {tv}");
}

#[test]
fn coloring_jvv_is_exact() {
    let g = generators::path(4);
    let model = coloring::model(&g, 3);
    let oracle = BoostedOracle::new(EnumerationOracle::new(DecayRate::new(0.4, 2.0)));
    let (success, tv, clamped) = jvv_statistics(&model, &oracle, 0.01, 6_000);
    assert_eq!(clamped, 0);
    assert!(success > 0.4, "success {success}");
    assert!(tv < 0.05, "accepted TV {tv}");
}

#[test]
fn jvv_success_rate_improves_with_smaller_eps() {
    let g = generators::cycle(5);
    let model = hardcore::model(&g, 1.0);
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(0.5, 2.0),
    ));
    let trials = 2000usize;
    let mut rates = Vec::new();
    for eps in [0.05f64, 0.01, 0.002] {
        let (success, _, _) = jvv_statistics(&model, &oracle, eps, trials);
        rates.push(success);
    }
    assert!(
        rates[0] < rates[1] && rates[1] < rates[2],
        "success rates not improving: {rates:?}"
    );
}

#[test]
fn jvv_respects_conditioning_exactly() {
    // condition on node 1 occupied; accepted outputs must follow μ^τ
    let g = generators::cycle(5);
    let model = hardcore::model(&g, 1.0);
    let mut tau = PartialConfig::empty(5);
    tau.pin(lds::graph::NodeId(1), lds::gibbs::Value(1));
    let inst = Instance::new(model.clone(), tau.clone()).unwrap();
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(0.5, 2.0),
    ));
    let jvv = LocalJvv::new(&oracle, 0.01);
    let mut accepted = Vec::new();
    for seed in 0..8000u64 {
        let net = Network::new(inst.clone(), seed);
        let (out, _) = jvv
            .run(&net, &ordering::identity(&g), &CancelToken::never())
            .unwrap();
        if out.run.succeeded() {
            accepted.push(Config::from_values(out.run.outputs));
        }
    }
    let emp = metrics::empirical_distribution(&accepted);
    let exact = distribution::joint_distribution(&model, &tau).unwrap();
    let tv = metrics::tv_distance_joint(&emp, &exact);
    assert!(tv < 0.05, "conditioned TV {tv}");
}
