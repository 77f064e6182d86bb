//! Integration: the full reduction chain of the paper, across crates.
//!
//! inference oracle → sequential sampler (Thm 3.2) → LOCAL transformation
//! (Lemma 3.1) → marginal reconstruction (Thm 3.4) → boosting (Lemma 4.1),
//! on instances small enough to compare against exact enumeration.

use lds::core::sampler::{sample_local, SequentialSampler};
use lds::core::sampling_to_inference;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::models::{coloring, hardcore};
use lds::gibbs::{distribution, metrics, Config, PartialConfig, Value};
use lds::graph::{generators, ordering, NodeId};
use lds::localnet::scheduler::chromatic_schedule;
use lds::localnet::slocal::run_scan_sequential;
use lds::localnet::{Instance, Network};
use lds::oracle::{BoostedOracle, DecayRate, EnumerationOracle, Oracle, Target, TwoSpinSawOracle};
use lds::runtime::{CancelToken, ThreadPool};

fn saw(lambda: f64) -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(TwoSpinParams::hardcore(lambda), DecayRate::new(0.5, 2.0))
}

#[test]
fn theorem_3_2_sampler_distribution_matches_target() {
    let n = 6usize;
    let g = generators::cycle(n);
    let model = hardcore::model(&g, 1.3);
    let oracle = saw(1.3);
    let sampler = SequentialSampler::new(&oracle, 0.02);
    let trials = 20_000usize;
    let mut samples = Vec::with_capacity(trials);
    for seed in 0..trials as u64 {
        let net = Network::new(Instance::unconditioned(model.clone()), seed);
        let run = run_scan_sequential(
            &net,
            &sampler,
            &ordering::identity(&g),
            &CancelToken::never(),
        )
        .unwrap();
        samples.push(Config::from_values(run.outputs));
    }
    let emp = metrics::empirical_distribution(&samples);
    let exact = distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
    let tv = metrics::tv_distance_joint(&emp, &exact);
    assert!(tv < 0.05, "chain TV {tv}");
}

#[test]
fn theorem_3_2_local_version_with_lemma_3_1() {
    let g = generators::torus(4, 4);
    let model = hardcore::model(&g, 0.8);
    let oracle = saw(0.8);
    let net = Network::new(Instance::unconditioned(model.clone()), 11);
    let locality = SequentialSampler::new(&oracle, 0.1).locality(&model);
    let schedule = chromatic_schedule(&net, locality, 0);
    let run = sample_local(&net, &oracle, 0.1, &schedule, &CancelToken::never()).unwrap();
    assert!(run.succeeded());
    assert!(run.rounds > 0);
    let config = Config::from_values(run.outputs);
    assert!(model.weight(&config) > 0.0);
    assert_eq!(schedule.order.len(), 16);
    assert_eq!(schedule.rounds, run.rounds);
    // decomposition color separation must hold on the power graph
    let h = lds::graph::power::power(&g, locality.min(4 /* diameter cap */) + 1);
    assert!(schedule.decomposition.verify_color_separation(&h));
}

#[test]
fn theorem_3_4_closes_the_loop() {
    // sampler built from inference; inference recovered from sampler
    let n = 6usize;
    let g = generators::cycle(n);
    let model = hardcore::model(&g, 1.0);
    let net = Network::new(Instance::unconditioned(model.clone()), 2);
    let oracle = saw(1.0);
    let rec = sampling_to_inference::marginals_by_sampling(
        &net,
        &oracle,
        0.03,
        3000,
        9,
        &ThreadPool::sequential(),
    );
    let tau = PartialConfig::empty(n);
    for v in g.nodes() {
        let exact = distribution::marginal(&model, &tau, v).unwrap();
        let err = metrics::tv_distance(&exact, &rec.marginals[v.index()]);
        assert!(
            err < 0.03 + rec.failure_rate + 0.04,
            "node {v}: recovered err {err}"
        );
    }
}

#[test]
fn lemma_4_1_boosting_chain_on_colorings() {
    // enumeration base (additive) → boosted (multiplicative) on colorings
    let g = generators::cycle(9);
    let model = coloring::model(&g, 3);
    let tau = PartialConfig::empty(9);
    let boosted = BoostedOracle::new(EnumerationOracle::new(DecayRate::new(0.5, 2.0)));
    let exact = distribution::marginal(&model, &tau, NodeId(4)).unwrap();
    let est = boosted.query(&model, &tau, NodeId(4), Target::Mul(0.4));
    let err = metrics::multiplicative_err(&exact, &est);
    assert!(err <= 0.4, "boosted coloring err {err}");
}

#[test]
fn pinned_instances_flow_through_every_reduction() {
    // self-reduction: a pinning must be honored by sampler and inference
    let n = 8usize;
    let g = generators::cycle(n);
    let model = hardcore::model(&g, 1.0);
    let mut tau = PartialConfig::empty(n);
    tau.pin(NodeId(0), Value(1));
    tau.pin(NodeId(4), Value(1));
    let inst = Instance::new(model.clone(), tau.clone()).unwrap();
    let oracle = saw(1.0);

    // sampler honors pins
    for seed in 0..20 {
        let net = Network::new(inst.clone(), seed);
        let sampler = SequentialSampler::new(&oracle, 0.05);
        let run = run_scan_sequential(
            &net,
            &sampler,
            &ordering::identity(&g),
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(run.outputs[0], Value(1));
        assert_eq!(run.outputs[4], Value(1));
        assert_eq!(run.outputs[1], Value(0));
    }

    // inference honors pins: conditional marginals match enumeration
    let exact = distribution::marginal(&model, &tau, NodeId(2)).unwrap();
    let p = oracle.marginal_bounds(&g, &tau, NodeId(2), 6).midpoint();
    let est = [1.0 - p, p];
    assert!(metrics::tv_distance(&exact, &est) < 0.01);
}
