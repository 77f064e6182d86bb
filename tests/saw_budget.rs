//! Answers from SAW walks that run out of their node budget. A walk cut
//! short certifies little: its unexplored subtrees count as unknown. The
//! SAW oracle answers from the intersection of every walk up to where its
//! depth search stops, so a walk that exhausts the budget cannot pull the
//! answer outside the bounds that shallower walks certified.

use lds::core::regime;
use lds::engine::{Engine, ModelSpec, Task};
use lds::gibbs::models::hardcore;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::{PartialConfig, Value};
use lds::graph::{generators, NodeId};
use lds::oracle::{DecayRate, Oracle, Target, TwoSpinSawOracle};

/// Infer at v0 on torus(6,6), hardcore λ = 1 at the engine defaults
/// (ε = 0.01). Depth 12 certifies [0.2237, 0.2369] and depth 13
/// [0.2237, 0.2317]; the depth-14 walk exhausts the budget at
/// [0, 0.3162]. The answer is 0.2277, a certified multiplicative error of
/// 0.018 against ε's 0.01. An answer from the exhausted walk alone would
/// be its midpoint, 0.1581.
#[test]
fn torus66_infer_answers_inside_the_depth12_bounds() {
    let engine = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::torus(6, 6))
        .threads(1)
        .build()
        .expect("in regime");
    let task = Task::Infer {
        vertex: NodeId(0),
        value: Value(1),
    };
    let report = engine.run_with_seed(task, 1).expect("infer");
    let p = report.marginal().expect("a marginal")[1];
    assert!((0.2237..=0.2369).contains(&p), "Infer at v0 answered {p}");
}

/// The chain-rule sampler's first query on torus(5,5): `Tv(δ/n)` at v0
/// with the empty pinning, δ = 0.05, on the engine's oracle. The planned
/// depth is 37, and a walk that deep exhausts the budget at
/// [0.2212, 0.2276]. The query certifies `δ/n` at depth 13, at
/// [0.2210, 0.2232]. An answer from the exhausted walk alone would be its
/// midpoint, 0.2244, outside those bounds.
#[test]
fn torus55_tv_answers_inside_the_depth13_bounds() {
    let g = generators::torus(5, 5);
    let rate = regime::hardcore(&g, 1.0).expect("in regime").rate;
    let saw = TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(rate.clamp(1e-6, 0.95), 2.0),
    );
    let (model, tau) = (hardcore::model(&g, 1.0), PartialConfig::empty(25));
    let target = Target::Tv(0.05 / 25.0);
    assert_eq!(saw.radius(&model, target), 37);
    let depth13 = saw.marginal_bounds(&g, &tau, NodeId(0), 13);
    assert!(
        (0.2209..0.2211).contains(&depth13.lo) && (0.2231..0.2233).contains(&depth13.hi),
        "depth-13 bounds [{}, {}]",
        depth13.lo,
        depth13.hi
    );
    let p = saw.query(&model, &tau, NodeId(0), target)[1];
    assert!(
        depth13.lo <= p && p <= depth13.hi,
        "Tv at v0 answered {p}, outside [{}, {}]",
        depth13.lo,
        depth13.hi
    );
}
