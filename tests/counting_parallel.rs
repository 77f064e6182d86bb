//! Counting equivalence: the two-pass parallel chain-rule counter is
//! **bit-identical** to the frozen sequential reference.
//!
//! `lds_core::counting::log_partition_function` was refactored from a
//! single sequential walk into a cheap coarse-precision anchor pass
//! followed by a parallel marginal pass over the frozen pinning chain
//! (fanned through `lds_runtime::ThreadPool`). The straight-line form
//! of the new algorithm is kept frozen as
//! `log_partition_function_reference`; this suite checks the pooled
//! execution against it:
//!
//! * a proptest over random graphs (pinned and unpinned, coarse and
//!   sharp `ε`) through the real boosted SAW oracle, at pool widths
//!   1/4/8 — `ln Ẑ`, the error bound, and the anchor configuration must
//!   match bit for bit;
//! * the same comparison for every oracle-backed model family: hardcore
//!   (boosted SAW), proper colorings (boosted enumeration), and
//!   matchings (line-graph duality);
//! * typed [`CountError`]s must be width-independent too, and the
//!   engine must split `Task::Count` into `anchor`/`marginals` phases
//!   without changing its answer across widths.
//!
//! The CI determinism matrix runs this suite under
//! `LDS_THREADS ∈ {1, 4, 8}`; the widths exercised here are explicit,
//! so every leg checks the full 1/4/8 sweep.

use lds::core::counting::{log_partition_function, log_partition_function_reference, CountError};
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::models::{coloring, hardcore, matching::MatchingInstance};
use lds::gibbs::{GibbsModel, PartialConfig, Value};
use lds::graph::{generators, Graph, NodeId};
use lds::oracle::{BoostedOracle, DecayRate, EnumerationOracle, Oracle, Target, TwoSpinSawOracle};
use lds::runtime::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(idx: usize, seed: u64) -> Graph {
    match idx % 5 {
        0 => generators::cycle(14),
        1 => generators::torus(4, 4),
        2 => generators::random_regular(14, 3, &mut StdRng::seed_from_u64(seed)),
        3 => generators::erdos_renyi(16, 0.15, &mut StdRng::seed_from_u64(seed ^ 0xe5)),
        _ => generators::balanced_tree(2, 3),
    }
}

fn saw_oracle(lambda: f64) -> BoostedOracle<TwoSpinSawOracle> {
    BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(lambda),
        DecayRate::new(0.5, 2.0),
    ))
}

/// Runs the pooled estimator at widths 1/4/8 and asserts each outcome
/// identical to the frozen reference: bit-equal estimate and anchor on
/// success, the same typed error on failure.
#[track_caller]
fn assert_matches_reference<O>(
    model: &GibbsModel,
    tau: &PartialConfig,
    oracle: &O,
    eps: f64,
    context: &str,
) where
    O: Oracle + Clone + Send + Sync + 'static,
{
    let reference = log_partition_function_reference(model, tau, oracle, eps);
    for threads in [1usize, 4, 8] {
        let pool = ThreadPool::new(threads);
        let run = log_partition_function(model, tau, oracle, eps, &pool).map(|r| r.estimate);
        match (&run, &reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.log_z.to_bits(),
                    b.log_z.to_bits(),
                    "{context} threads {threads}: log_z {} vs {}",
                    a.log_z,
                    b.log_z
                );
                assert_eq!(
                    a.log_error_bound.to_bits(),
                    b.log_error_bound.to_bits(),
                    "{context} threads {threads}: error bound"
                );
                assert_eq!(
                    a.anchor.values(),
                    b.anchor.values(),
                    "{context} threads {threads}: anchor"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{context} threads {threads}: typed error");
            }
            _ => panic!(
                "{context} threads {threads}: pooled and reference disagree on success: \
                 {run:?} vs {reference:?}"
            ),
        }
    }
}

proptest! {
    /// Pooled two-pass counter == frozen reference on random hardcore
    /// instances, pinned and unpinned, coarse and sharp ε, widths 1/4/8.
    #[test]
    fn parallel_counter_equals_reference_on_random_graphs(
        gidx in 0usize..5,
        seed in 0u64..100,
        pinned in any::<bool>(),
        sharp in any::<bool>(),
    ) {
        let g = workload(gidx, seed);
        let model = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(g.node_count());
        if pinned {
            // pinning vacant is feasible on every hardcore instance
            tau.pin(NodeId(seed as u32 % g.node_count() as u32), Value(0));
        }
        let eps = if sharp { 0.05 } else { 0.3 };
        let oracle = saw_oracle(1.0);
        assert_matches_reference(
            &model,
            &tau,
            &oracle,
            eps,
            &format!("hardcore graph {gidx} seed {seed} pinned {pinned} eps {eps}"),
        );
    }
}

/// The equivalence for proper colorings through the enumeration oracle,
/// which boosts its own `Mul` answers — the oracle the engine serves
/// coloring requests with.
#[test]
fn parallel_counter_equals_reference_on_colorings() {
    let oracle = EnumerationOracle::new(DecayRate::new(0.4, 2.0));
    for g in [generators::cycle(8), generators::path(7)] {
        let model = coloring::model(&g, 3);
        let n = g.node_count();
        assert_matches_reference(
            &model,
            &PartialConfig::empty(n),
            &oracle,
            0.1,
            "coloring unpinned",
        );
        let mut tau = PartialConfig::empty(n);
        tau.pin(NodeId(2), Value(1));
        assert_matches_reference(&model, &tau, &oracle, 0.1, "coloring pinned");
    }
}

/// The equivalence for matchings via the line-graph duality (the third
/// oracle-backed model family of the counting wrappers).
#[test]
fn parallel_counter_equals_reference_on_matchings() {
    let oracle = saw_oracle(1.0);
    for g in [generators::cycle(8), generators::grid(2, 4)] {
        let inst = MatchingInstance::new(&g, 1.0);
        let n = inst.model().node_count();
        assert_matches_reference(
            inst.model(),
            &PartialConfig::empty(n),
            &oracle,
            0.2,
            "matching unpinned",
        );
        let mut tau = PartialConfig::empty(n);
        tau.pin(NodeId(0), Value(0));
        assert_matches_reference(inst.model(), &tau, &oracle, 0.2, "matching pinned");
    }
}

/// A misbehaving oracle that steers the anchor into a zero-weight
/// configuration (claims every node occupied with probability 1).
#[derive(Clone)]
struct AlwaysOccupied;

impl Oracle for AlwaysOccupied {
    fn name(&self) -> &str {
        "always-occupied"
    }
    fn radius(&self, _: &GibbsModel, _: Target) -> usize {
        0
    }
    fn query(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: Target) -> Vec<f64> {
        vec![0.0, 1.0]
    }
}

/// Typed failures must be width-independent: every pool width reports
/// the same [`CountError`] the reference does.
#[test]
fn typed_errors_are_width_independent() {
    let g = generators::path(4);
    let model = hardcore::model(&g, 1.0);
    let tau = PartialConfig::empty(4);
    assert_eq!(
        log_partition_function_reference(&model, &tau, &AlwaysOccupied, 0.1).unwrap_err(),
        CountError::InfeasibleAnchor
    );
    assert_matches_reference(&model, &tau, &AlwaysOccupied, 0.1, "infeasible anchor");
}

/// `Task::Count` through the engine: the report carries the
/// anchor/marginals phase split, keeps the rounds invariant, and the
/// answer is bit-identical across engine pool widths.
#[test]
fn engine_count_phases_and_cross_width_answer() {
    use lds::engine::{Engine, ModelSpec, Task};
    let build = |threads: usize| {
        Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(12))
            .epsilon(0.05)
            .threads(threads)
            .build()
            .expect("in regime")
    };
    let reference = build(1).run_with_seed(Task::Count, 3).unwrap();
    assert_eq!(
        reference.phases.iter().map(|p| p.name).collect::<Vec<_>>(),
        ["anchor", "marginals"]
    );
    assert_eq!(
        reference.phases.iter().map(|p| p.rounds).sum::<usize>(),
        reference.rounds
    );
    for threads in [4usize, 8] {
        let report = build(threads).run_with_seed(Task::Count, 3).unwrap();
        assert_eq!(
            report.log_z().unwrap().to_bits(),
            reference.log_z().unwrap().to_bits(),
            "width {threads}"
        );
    }
}
