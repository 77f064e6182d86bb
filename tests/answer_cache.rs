//! Answer cache: an engine answers `Task::Infer` from a marginal table
//! and `Task::Count` from one count cell, both filled on first use and
//! kept for the engine's lifetime.
//!
//! Neither task reads randomness, so these checks pin what the cache
//! must preserve: an Infer entry is the `marginals()` entry whichever of
//! the two fills it first, a repeat request with another seed answers
//! alike and matches a fresh engine, a burst of concurrent first uses
//! (Count's scoped fan-out lanes and the batch lanes that wait on the
//! count cell included) matches a sequential run without deadlock, and
//! a first request that fails admission or validation leaves the cache
//! usable.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use lds::engine::{Engine, EngineError, ModelSpec, RunReport, Task, TaskOutput};
use lds::gibbs::{distribution, metrics, PartialConfig, Value};
use lds::graph::{generators, NodeId};

const SEEDS: [u64; 4] = [0, 7, 1_000_003, u64::MAX - 5];

/// The engine kinds: a SAW-tree engine, a boosted-enumeration engine
/// and a pinned engine.
const KINDS: [&str; 3] = ["saw", "boosted-enumeration", "pinned"];

/// A free vertex of every kind's carrier graph, away from the pins.
const SHARED: Task = Task::Infer {
    vertex: NodeId(5),
    value: Value(1),
};

fn engine(kind: usize, threads: usize) -> Engine {
    let builder = Engine::builder().epsilon(0.01).threads(threads);
    let builder = match kind {
        0 => builder
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(32)),
        1 => builder
            .model(ModelSpec::Coloring { q: 4 })
            .graph(generators::cycle(8)),
        _ => {
            let mut tau = PartialConfig::empty(12);
            tau.pin(NodeId(2), Value(1));
            tau.pin(NodeId(8), Value(0));
            builder
                .model(ModelSpec::Hardcore { lambda: 1.0 })
                .graph(generators::cycle(12))
                .pinning(tau)
        }
    };
    builder
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", KINDS[kind]))
}

fn infer(vertex: usize) -> Task {
    Task::Infer {
        vertex: NodeId::from_index(vertex),
        value: Value(1),
    }
}

fn bits(table: &[Vec<f64>]) -> Vec<Vec<u64>> {
    let row = |mu: &Vec<f64>| mu.iter().map(|p| p.to_bits()).collect();
    table.iter().map(row).collect()
}

/// The output's floats, bit for bit.
fn output_bits(report: &RunReport) -> Vec<u64> {
    match &report.output {
        TaskOutput::Marginal {
            distribution,
            probability,
        } => distribution
            .iter()
            .chain([probability])
            .map(|p| p.to_bits())
            .collect(),
        TaskOutput::Count {
            log_z,
            log_error_bound,
        } => vec![log_z.to_bits(), log_error_bound.to_bits()],
        other => panic!("not an oracle answer: {other:?}"),
    }
}

/// Checks every table entry against the exact marginal, enumerated on
/// instances of at most 16 carrier nodes. Every read of a table that
/// files an entry under the wrong vertex agrees with every other read;
/// only an outside reference shows it.
fn assert_exact_within_epsilon(engine: &Engine, table: &[Vec<f64>], label: &str) {
    let (model, pinning) = (engine.instance().model(), engine.instance().pinning());
    if model.node_count() > 16 {
        return;
    }
    for (v, estimate) in table.iter().enumerate() {
        let exact = distribution::marginal(model, pinning, NodeId::from_index(v)).unwrap();
        let err = metrics::multiplicative_err(&exact, estimate);
        assert!(
            err <= engine.epsilon(),
            "{label}: vertex {v} is off by {err}"
        );
    }
}

fn entry(engine: &Engine, vertex: usize) -> Vec<f64> {
    let report = engine.run(infer(vertex)).unwrap();
    report.marginal().expect("an Infer report").to_vec()
}

#[test]
fn infer_entries_are_the_marginals_table_whichever_runs_first() {
    for (kind, label) in KINDS.iter().enumerate() {
        let infer_first = engine(kind, 1);
        let n = infer_first.carrier_node_count();
        let entries: Vec<Vec<f64>> = (0..n).map(|v| entry(&infer_first, v)).collect();
        let table = infer_first.marginals().marginals;
        assert_eq!(
            bits(&table),
            bits(&entries),
            "{label}: Infer, then marginals()"
        );
        assert_exact_within_epsilon(&infer_first, &table, label);

        let table_first = engine(kind, 1);
        let table = table_first.marginals().marginals;
        let entries: Vec<Vec<f64>> = (0..n).map(|v| entry(&table_first, v)).collect();
        assert_eq!(
            bits(&entries),
            bits(&table),
            "{label}: marginals(), then Infer"
        );
        assert_eq!(
            bits(&table),
            bits(&infer_first.marginals().marginals),
            "{label}: the two engines disagree"
        );

        // half the entries filled by Infer, the rest by the table
        let mixed = engine(kind, 4);
        for v in (0..n).step_by(2) {
            entry(&mixed, v);
        }
        assert_eq!(
            bits(&mixed.marginals().marginals),
            bits(&table),
            "{label}: a partly filled table"
        );
    }
}

#[test]
fn repeat_requests_answer_alike_and_match_a_fresh_engine() {
    for (kind, label) in KINDS.iter().enumerate() {
        let engine = engine(kind, 2);
        for task in [infer(0), SHARED, Task::Count] {
            let first = engine.run_with_seed(task, SEEDS[0]).unwrap();
            for seed in SEEDS {
                let repeat = engine.run_with_seed(task, seed).unwrap();
                assert_eq!(repeat.seed, seed, "{label} {task:?}: the seed is echoed");
                assert_eq!(
                    output_bits(&repeat),
                    output_bits(&first),
                    "{label} {task:?}: seed {seed} answers differently"
                );
                let fresh = self::engine(kind, 1).run_with_seed(task, seed).unwrap();
                assert!(
                    repeat.semantic_eq(&fresh),
                    "{label} {task:?} seed {seed}: differs from a fresh engine"
                );
            }
        }
    }
}

/// The ways a request reaches the cache, by index: Infer at a shared
/// vertex, Count through `run_with_seed` (a first use fans out on
/// scoped lanes), Count through `run_batch` (its lanes may wait on the
/// count cell) and `marginals()`.
const OPS: [&str; 4] = ["infer", "count", "batch count", "marginals"];

enum Answer {
    Reports(Vec<RunReport>),
    Table(Vec<Vec<f64>>),
}

fn op(engine: &Engine, i: usize, seed: u64) -> Answer {
    match i {
        0 => Answer::Reports(vec![engine.run_with_seed(SHARED, seed).unwrap()]),
        1 => Answer::Reports(vec![engine.run_with_seed(Task::Count, seed).unwrap()]),
        2 => Answer::Reports(engine.run_batch(Task::Count, &[seed, seed ^ 1]).unwrap()),
        _ => Answer::Table(engine.marginals().marginals),
    }
}

fn assert_same(a: &Answer, b: &Answer, context: &str) {
    match (a, b) {
        (Answer::Reports(a), Answer::Reports(b)) => {
            assert_eq!(a.len(), b.len(), "{context}: report count");
            for (x, y) in a.iter().zip(b) {
                assert!(x.semantic_eq(y), "{context}: seed {} differs", x.seed);
            }
        }
        (Answer::Table(a), Answer::Table(b)) => assert_eq!(bits(a), bits(b), "{context}"),
        _ => panic!("{context}: answer kinds differ"),
    }
}

#[test]
fn concurrent_first_uses_match_a_sequential_run() {
    const THREADS: usize = 8;
    for (kind, label) in KINDS.iter().enumerate() {
        let concurrent = Arc::new(engine(kind, 4));
        let start = Arc::new(Barrier::new(THREADS));
        let (done, finished) = mpsc::channel();
        // all threads leave the barrier together and each starts on a
        // different op, so every cell's first fill races several callers
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, start) = (Arc::clone(&concurrent), Arc::clone(&start));
                let done = done.clone();
                thread::spawn(move || {
                    start.wait();
                    let answers: Vec<Answer> = (0..OPS.len())
                        .map(|i| op(&engine, (t + i) % OPS.len(), SEEDS[t % SEEDS.len()]))
                        .collect();
                    done.send((t, answers)).unwrap();
                })
            })
            .collect();
        drop(done);
        // a deadlock fails the test here instead of hanging it in a join
        let mut answers: Vec<_> = (0..THREADS)
            .map(|_| {
                finished
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or_else(|e| panic!("{label}: a thread never finished ({e})"))
            })
            .collect();
        for handle in handles {
            handle.join().expect("every thread finished");
        }
        answers.sort_by_key(|&(t, _)| t);
        let sequential = engine(kind, 1);
        for (t, thread_answers) in &answers {
            for (i, answer) in thread_answers.iter().enumerate() {
                let o = (t + i) % OPS.len();
                let expected = op(&sequential, o, SEEDS[t % SEEDS.len()]);
                assert_same(
                    answer,
                    &expected,
                    &format!("{label}, thread {t}, {}", OPS[o]),
                );
            }
        }
    }
}

#[test]
fn a_failed_first_use_leaves_the_cache_usable() {
    for (kind, label) in KINDS.iter().enumerate() {
        let engine = engine(kind, 2);
        let reference = self::engine(kind, 1);
        for task in [SHARED, Task::Count] {
            let expired = Some(Instant::now());
            assert_eq!(
                engine.run_with_deadline(task, 5, expired).unwrap_err(),
                EngineError::DeadlineExceeded,
                "{label} {task:?}: an expired first request must fail typed"
            );
        }
        let outside = infer(engine.carrier_node_count());
        assert!(
            matches!(
                engine.run_with_seed(outside, 5).unwrap_err(),
                EngineError::InvalidTask { .. }
            ),
            "{label}: an out-of-range vertex must fail typed"
        );
        for task in [SHARED, Task::Count] {
            let next = engine.run_with_seed(task, 5).unwrap();
            assert!(
                next.semantic_eq(&reference.run_with_seed(task, 5).unwrap()),
                "{label} {task:?}: the request after a failed first use differs"
            );
        }
        assert_eq!(
            bits(&engine.marginals().marginals),
            bits(&reference.marginals().marginals),
            "{label}: the table after a failed first use differs"
        );
    }
}

/// The per-vertex queries `marginals()` fans across the pool gather in
/// vertex order, bit-equal to one Infer at a time on a sequential
/// engine, at pool widths 1 and 4.
#[test]
fn marginals_fan_out_matches_a_sequential_infer_loop() {
    for (kind, label) in KINDS.iter().enumerate() {
        let looped = engine(kind, 1);
        let n = looped.carrier_node_count();
        let expected: Vec<Vec<f64>> = (0..n).map(|v| entry(&looped, v)).collect();
        for threads in [1, 4] {
            let table = engine(kind, threads).marginals().marginals;
            assert_eq!(bits(&table), bits(&expected), "{label}, width {threads}");
        }
    }
}
