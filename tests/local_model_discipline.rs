//! Integration: the LOCAL-model discipline holds across the stack —
//! views really contain everything an algorithm uses, distant
//! disagreements are invisible, and the SLOCAL→LOCAL schedule keeps
//! same-color clusters out of each other's reach.

use lds::gibbs::models::hardcore;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::{metrics, PartialConfig, Value};
use lds::graph::{generators, traversal, NodeId};
use lds::localnet::decomposition::UNCLUSTERED;
use lds::localnet::{scheduler, Instance, Network};
use lds::oracle::{DecayRate, EnumerationOracle, Oracle, Target, TwoSpinSawOracle};

#[test]
fn view_computation_equals_global_computation() {
    // running an oracle inside a view must equal running it globally;
    // the view's radius is the oracle's `Tv` radius plus the one ring
    // it peeks past it
    let g = generators::torus(4, 4);
    let model = hardcore::model(&g, 1.1);
    let net = Network::new(Instance::unconditioned(model.clone()), 5);
    let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
    let t = oracle.radius(&model, Target::Tv(0.3));
    let tau = PartialConfig::empty(16);
    for v in g.nodes() {
        let view = net.view(v, t + 1);
        let local = oracle.query(
            view.model(),
            view.pinning(),
            view.center_local(),
            Target::Tv(0.3),
        );
        let global = oracle.query(&model, &tau, v, Target::Tv(0.3));
        assert!(
            metrics::tv_distance(&global, &local) < 1e-12,
            "node {v} diverged between view and global execution"
        );
    }
}

#[test]
fn far_disagreements_are_invisible_to_all_oracles() {
    let g = generators::cycle(20);
    let model = hardcore::model(&g, 1.0);
    let mut sigma = PartialConfig::empty(20);
    sigma.pin(NodeId(10), Value(0));
    let mut tau = PartialConfig::empty(20);
    tau.pin(NodeId(10), Value(1));
    let saw = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
    let enumo = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
    // disagreement at distance 10; probe with radius < 10 (enumeration
    // peeks one locality step further, so stay at 8)
    for t in [2usize, 5, 8] {
        let a = saw.marginal_bounds(&g, &sigma, NodeId(0), t);
        let b = saw.marginal_bounds(&g, &tau, NodeId(0), t);
        assert_eq!(a, b, "SAW oracle saw a distance-10 disagreement at t={t}");
        let c = enumo.marginal_with_frontier(&model, &sigma, NodeId(0), t).0;
        let e = enumo.marginal_with_frontier(&model, &tau, NodeId(0), t).0;
        assert_eq!(c, e, "enumeration oracle saw the disagreement at t={t}");
    }
}

#[test]
fn schedule_separation_matches_declared_locality() {
    let g = generators::torus(5, 5);
    let model = hardcore::model(&g, 1.0);
    let net = Network::new(Instance::unconditioned(model), 13);
    let r = 2usize;
    let schedule = scheduler::chromatic_schedule(&net, r, 0);
    let d = &schedule.decomposition;
    for u in g.nodes() {
        if d.color[u.index()] == UNCLUSTERED {
            continue;
        }
        let dist = traversal::bfs_distances(&g, u);
        for v in g.nodes() {
            if v <= u || d.color[v.index()] == UNCLUSTERED {
                continue;
            }
            if d.color[u.index()] == d.color[v.index()]
                && d.cluster[u.index()] != d.cluster[v.index()]
            {
                assert!(
                    dist[v.index()] as usize > r + 1,
                    "{u},{v}: same color at distance {}",
                    dist[v.index()]
                );
            }
        }
    }
}

#[test]
fn randomness_is_private_and_reproducible() {
    // same seed ⟹ identical run; per-node streams are independent
    let g = generators::cycle(10);
    let model = hardcore::model(&g, 1.0);
    let i = Instance::unconditioned(model);
    let n1 = Network::new(i.clone(), 7);
    let n2 = Network::new(i.clone(), 7);
    for v in g.nodes() {
        assert_eq!(n1.node_seed(v, 0), n2.node_seed(v, 0));
        assert_ne!(n1.node_seed(v, 1), n1.node_seed(v, 2));
    }
    // view exposes exactly the members' seeds
    let view = n1.view(NodeId(3), 2);
    for l in 0..view.subgraph().len() {
        let local = NodeId::from_index(l);
        let global = view.subgraph().to_parent(local);
        assert_eq!(view.member_seed(local), n1.node_seed(global, 0));
        assert!(traversal::bfs_distances(&g, NodeId(3))[global.index()] <= 2);
    }
}

#[test]
fn failure_bits_are_locally_certified_and_rare() {
    // over many seeds, Lemma 3.1's decomposition failures never appear at
    // the default parameters on these sizes
    let g = generators::torus(4, 4);
    let model = hardcore::model(&g, 1.0);
    let mut failures = 0usize;
    for seed in 0..50u64 {
        let net = Network::new(Instance::unconditioned(model.clone()), seed);
        let schedule = scheduler::chromatic_schedule(&net, 3, 1);
        failures += schedule.failed.iter().filter(|&&f| f).count();
    }
    assert_eq!(failures, 0, "unexpected decomposition failures");
}
