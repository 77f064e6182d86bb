//! Determinism suite: every engine result is **bit-identical regardless
//! of thread count**.
//!
//! The runtime's contract (lds-runtime) is that parallelism never
//! changes a result: randomness is derived per task from the master
//! seed, and `par_map` gathers in input order. This suite locks the
//! contract down across all five `ModelSpec` applications (plus the
//! general two-spin variant), all four task kinds, and pools of width 1,
//! 2 and 8 — byte-comparing samples, counts, marginals, round costs, and
//! JVV statistics.
//!
//! The CI matrix additionally runs this suite under `LDS_THREADS=1` and
//! `LDS_THREADS=4`, which drives the *default* pool width of engines
//! built without an explicit `threads(n)`.

use lds::engine::{
    Backend, Engine, MarginalsMethod, ModelSpec, RunReport, SweepBudget, Task, TaskOutput,
};
use lds::gibbs::Value;
use lds::graph::{generators, Hypergraph, NodeId};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 8] = [0, 1, 2, 3, 11, 57, 1_000_003, u64::MAX - 5];

fn triangle_hypergraph() -> Hypergraph {
    Hypergraph::new(
        6,
        vec![
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(2), NodeId(3), NodeId(4)],
            vec![NodeId(4), NodeId(5), NodeId(0)],
        ],
    )
}

/// All Corollary 5.3 applications (Ising and the general two-spin
/// system both instantiate the fourth bullet).
fn specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Hardcore { lambda: 1.0 },
        ModelSpec::Matching { lambda: 1.5 },
        ModelSpec::Ising {
            beta: -0.2,
            field: 0.1,
        },
        ModelSpec::TwoSpin {
            beta: 0.8,
            gamma: 0.9,
            lambda: 1.0,
            rate: 0.5,
        },
        ModelSpec::Coloring { q: 4 },
        ModelSpec::HypergraphMatching { lambda: 0.1 },
    ]
}

fn engine_for(spec: &ModelSpec, threads: usize) -> Engine {
    let builder = Engine::builder()
        .model(spec.clone())
        .epsilon(0.01)
        .delta(0.05)
        .threads(threads);
    match spec {
        ModelSpec::HypergraphMatching { .. } => builder.hypergraph(triangle_hypergraph()),
        _ => builder.graph(generators::cycle(8)),
    }
    .build()
    .unwrap_or_else(|e| panic!("{}: {e:?}", spec.name()))
}

/// Bitwise equality of two reports, ignoring only the
/// execution-strategy fields. The per-field asserts give readable
/// failure diagnostics; the closing [`RunReport::semantic_eq`] check is
/// the canonical definition (shared with the serving and net suites)
/// and catches any report field the list here does not yet name.
fn assert_reports_identical(a: &RunReport, b: &RunReport, context: &str) {
    assert_eq!(a.task, b.task, "{context}: task");
    assert_eq!(a.seed, b.seed, "{context}: seed");
    assert_eq!(a.succeeded, b.succeeded, "{context}: succeeded");
    assert_eq!(a.rounds, b.rounds, "{context}: rounds");
    assert_eq!(
        a.bound_rounds.to_bits(),
        b.bound_rounds.to_bits(),
        "{context}: bound_rounds"
    );
    assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "{context}: rate");
    match (&a.output, &b.output) {
        (
            TaskOutput::Sample {
                config: ca,
                decoded: da,
            },
            TaskOutput::Sample {
                config: cb,
                decoded: db,
            },
        ) => {
            assert_eq!(ca, cb, "{context}: sampled configuration");
            assert_eq!(da, db, "{context}: decoded sample");
        }
        (
            TaskOutput::Marginal {
                distribution: ma,
                probability: pa,
            },
            TaskOutput::Marginal {
                distribution: mb,
                probability: pb,
            },
        ) => {
            let ba: Vec<u64> = ma.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u64> = mb.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ba, bb, "{context}: marginal bits");
            assert_eq!(pa.to_bits(), pb.to_bits(), "{context}: probability bits");
        }
        (
            TaskOutput::Count {
                log_z: za,
                log_error_bound: ea,
            },
            TaskOutput::Count {
                log_z: zb,
                log_error_bound: eb,
            },
        ) => {
            assert_eq!(za.to_bits(), zb.to_bits(), "{context}: log_z bits");
            assert_eq!(ea.to_bits(), eb.to_bits(), "{context}: error bound bits");
        }
        (x, y) => panic!("{context}: output kind mismatch: {x:?} vs {y:?}"),
    }
    match (&a.stats, &b.stats) {
        (None, None) => {}
        (Some(sa), Some(sb)) => {
            assert_eq!(
                sa.acceptance_product.to_bits(),
                sb.acceptance_product.to_bits(),
                "{context}: acceptance bits"
            );
            assert_eq!(sa.clamped, sb.clamped, "{context}: clamped");
            assert_eq!(
                sa.repair_failures, sb.repair_failures,
                "{context}: repair failures"
            );
            assert_eq!(sa.locality, sb.locality, "{context}: locality");
        }
        (x, y) => panic!("{context}: stats presence mismatch: {x:?} vs {y:?}"),
    }
    assert_eq!(a.backend, b.backend, "{context}: served backend");
    assert_eq!(a.glauber, b.glauber, "{context}: glauber stats");
    // phase structure (names + round charges) is part of the report
    let pa: Vec<(&str, usize)> = a.phases.iter().map(|p| (p.name, p.rounds)).collect();
    let pb: Vec<(&str, usize)> = b.phases.iter().map(|p| (p.name, p.rounds)).collect();
    assert_eq!(pa, pb, "{context}: phases");
    assert!(a.semantic_eq(b), "{context}: semantic_eq disagrees");
}

#[test]
fn run_batch_is_bit_identical_across_thread_counts() {
    for spec in specs() {
        for task in [Task::SampleExact, Task::SampleApprox] {
            let reference = engine_for(&spec, 1).run_batch(task, &SEEDS).unwrap();
            assert_eq!(reference.len(), SEEDS.len());
            for &threads in &THREAD_COUNTS[1..] {
                let reports = engine_for(&spec, threads).run_batch(task, &SEEDS).unwrap();
                for (a, b) in reference.iter().zip(&reports) {
                    let context = format!(
                        "{} {:?} seed {} threads {}",
                        spec.name(),
                        task,
                        a.seed,
                        threads
                    );
                    assert_reports_identical(a, b, &context);
                }
            }
        }
    }
}

#[test]
fn inference_and_counting_are_bit_identical_across_thread_counts() {
    for spec in specs() {
        let reference = engine_for(&spec, 1);
        let infer = Task::Infer {
            vertex: NodeId(0),
            value: Value(1),
        };
        let ref_infer = reference.run(infer).unwrap();
        let ref_count = reference.run(Task::Count).unwrap();
        for &threads in &THREAD_COUNTS[1..] {
            let engine = engine_for(&spec, threads);
            let context = format!("{} threads {}", spec.name(), threads);
            assert_reports_identical(&ref_infer, &engine.run(infer).unwrap(), &context);
            assert_reports_identical(&ref_count, &engine.run(Task::Count).unwrap(), &context);
        }
    }
}

#[test]
fn full_marginal_table_is_bit_identical_across_thread_counts() {
    for spec in specs() {
        let bits = |table: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            table
                .into_iter()
                .map(|mu| mu.into_iter().map(f64::to_bits).collect())
                .collect()
        };
        let reference = bits(engine_for(&spec, 1).marginals().marginals);
        for &threads in &THREAD_COUNTS[1..] {
            let report = engine_for(&spec, threads).marginals();
            assert!(
                matches!(report.method, MarginalsMethod::Exact { .. }),
                "{}: method",
                spec.name()
            );
            assert_eq!(
                bits(report.marginals),
                reference,
                "{} threads {}",
                spec.name(),
                threads
            );
        }
    }
}

#[test]
fn sampled_marginal_reconstruction_is_bit_identical_across_thread_counts() {
    let method_key = |m: MarginalsMethod| match m {
        MarginalsMethod::Sampled {
            repetitions,
            failure_rate,
            delta,
        } => (repetitions, failure_rate.to_bits(), delta.to_bits()),
        other => panic!("sampled reconstruction reported {other:?}"),
    };
    let spec = ModelSpec::Hardcore { lambda: 1.0 };
    let reference = engine_for(&spec, 1).marginals_sampled(200, 7).unwrap();
    for &threads in &THREAD_COUNTS[1..] {
        let rec = engine_for(&spec, threads)
            .marginals_sampled(200, 7)
            .unwrap();
        assert_eq!(
            method_key(rec.method),
            method_key(reference.method),
            "threads {threads}: method"
        );
        for (a, b) in reference.marginals.iter().zip(&rec.marginals) {
            let ba: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ba, bb, "threads {threads}: marginal bits");
        }
    }
}

/// The Glauber path rides the same chromatic runtime as every other
/// kernel, so its samples — and its mixing diagnostics — must be
/// bit-identical at any pool width, across every model the backend can
/// certify.
#[test]
fn glauber_batches_are_bit_identical_across_thread_counts() {
    for spec in specs() {
        let glauber_engine = |threads: usize| {
            let builder = Engine::builder()
                .model(spec.clone())
                .epsilon(0.01)
                .delta(0.05)
                .threads(threads)
                .backend(Backend::Glauber {
                    sweeps: SweepBudget::Fixed(12),
                });
            match &spec {
                ModelSpec::HypergraphMatching { .. } => builder.hypergraph(triangle_hypergraph()),
                _ => builder.graph(generators::cycle(8)),
            }
            .build()
            .unwrap_or_else(|e| panic!("{}: {e:?}", spec.name()))
        };
        let reference = glauber_engine(1)
            .run_batch(Task::SampleApprox, &SEEDS)
            .unwrap();
        for report in &reference {
            assert_eq!(
                report.glauber_sweeps(),
                Some(12),
                "{}: Glauber must serve",
                spec.name()
            );
            assert!(report.glauber.is_some(), "{}: diagnostics", spec.name());
        }
        for &threads in &THREAD_COUNTS[1..] {
            let reports = glauber_engine(threads)
                .run_batch(Task::SampleApprox, &SEEDS)
                .unwrap();
            for (a, b) in reference.iter().zip(&reports) {
                let context = format!(
                    "{} glauber seed {} threads {}",
                    spec.name(),
                    a.seed,
                    threads
                );
                assert_reports_identical(a, b, &context);
            }
        }
    }
}

#[test]
fn phase_rounds_sum_to_report_rounds() {
    let engine = engine_for(&ModelSpec::Hardcore { lambda: 1.0 }, 2);
    let infer = Task::Infer {
        vertex: NodeId(0),
        value: Value(1),
    };
    // Infer and Count run twice: the second report is a cache lookup
    for task in [
        Task::SampleExact,
        Task::SampleApprox,
        infer,
        infer,
        Task::Count,
        Task::Count,
    ] {
        let report = engine.run(task).unwrap();
        let total: usize = report.phases.iter().map(|p| p.rounds).sum();
        assert_eq!(total, report.rounds, "{task:?}");
        assert!(!report.phases.is_empty(), "{task:?} reported no phases");
        let timed: std::time::Duration = report.phases.iter().map(|p| p.wall_time).sum();
        assert!(
            timed <= report.wall_time,
            "{task:?} phase time exceeds total"
        );
    }
    // so do both whole-table marginals reports
    let sampled = engine.marginals_sampled(16, 1).unwrap();
    for (method, report) in [("exact", engine.marginals()), ("sampled", sampled)] {
        let total: usize = report.phases.iter().map(|p| p.rounds).sum();
        assert_eq!(total, report.rounds, "{method} marginals");
        assert!(!report.phases.is_empty(), "{method} marginals: no phases");
        let timed: std::time::Duration = report.phases.iter().map(|p| p.wall_time).sum();
        assert!(
            timed <= report.wall_time,
            "{method} marginals: phase time exceeds total"
        );
    }
    // the Glauber path's phase accounting obeys the same invariant
    let glauber = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(8))
        .epsilon(0.01)
        .threads(2)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(9),
        })
        .build()
        .unwrap();
    let report = glauber.run(Task::SampleApprox).unwrap();
    let total: usize = report.phases.iter().map(|p| p.rounds).sum();
    assert_eq!(total, report.rounds, "glauber phase rounds");
    assert!(
        report.phases.iter().any(|p| p.name == "glauber"),
        "glauber phase missing: {:?}",
        report.phases
    );
}

/// The default pool width comes from `LDS_THREADS` (the CI matrix leg)
/// or the machine; whatever it is, results must match the sequential
/// engine bit for bit.
#[test]
fn default_pool_width_matches_sequential_results() {
    let spec = ModelSpec::Coloring { q: 4 };
    let default_engine = Engine::builder()
        .model(spec.clone())
        .graph(generators::cycle(8))
        .epsilon(0.01)
        .build()
        .unwrap();
    assert!(default_engine.threads() >= 1);
    let reference = engine_for(&spec, 1);
    let a = reference.run_batch(Task::SampleExact, &SEEDS).unwrap();
    let b = default_engine.run_batch(Task::SampleExact, &SEEDS).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_reports_identical(x, y, &format!("default pool, seed {}", x.seed));
    }
}
