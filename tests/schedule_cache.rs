//! Schedule cache: every sampling path of an engine scans one chromatic
//! schedule, drawn on first use and kept for the engine's lifetime.
//!
//! The schedule depends only on the graph and the path's locality, so
//! these checks pin what the cache must preserve: every report of a path
//! charges the same rounds, two engines over one spec answer alike, a
//! burst of concurrent first uses draws the schedule a sequential run
//! draws, and a request cancelled before the first draw leaves the
//! cache usable.

use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use lds::engine::{Backend, Engine, EngineError, ModelSpec, RunReport, SweepBudget, Task};
use lds::graph::generators;

const SEEDS: [u64; 8] = [0, 1, 2, 3, 11, 57, 1_000_003, u64::MAX - 5];

fn engine(backend: Backend) -> Engine {
    Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(32))
        .epsilon(0.01)
        .delta(0.05)
        .backend(backend)
        .build()
        .expect("hardcore λ = 1 on a cycle is in regime")
}

/// Fresh engines serving the three sampling paths: SampleExact and the
/// chain-rule SampleApprox on the exact-backend engine, Glauber
/// SampleApprox on the second.
fn fresh_engines() -> [Engine; 2] {
    [
        engine(Backend::Exact),
        engine(Backend::Glauber {
            sweeps: SweepBudget::Fixed(12),
        }),
    ]
}

/// The three sampling paths as (engine index, task, label).
const PATHS: [(usize, Task, &str); 3] = [
    (0, Task::SampleExact, "exact"),
    (0, Task::SampleApprox, "chain"),
    (1, Task::SampleApprox, "glauber"),
];

fn run(engines: &[Engine; 2], path: usize, seed: u64) -> RunReport {
    let (e, task, label) = PATHS[path];
    engines[e]
        .run_with_seed(task, seed)
        .unwrap_or_else(|err| panic!("{label} seed {seed}: {err}"))
}

#[test]
fn every_report_of_a_path_charges_the_same_rounds() {
    let engines = fresh_engines();
    for (path, &(_, _, label)) in PATHS.iter().enumerate() {
        let rounds: Vec<usize> = SEEDS
            .iter()
            .map(|&s| run(&engines, path, s).rounds)
            .collect();
        assert!(rounds[0] > 0, "{label}: no rounds charged");
        assert!(
            rounds.iter().all(|&r| r == rounds[0]),
            "{label}: rounds differ across seeds: {rounds:?}"
        );
    }
}

#[test]
fn engines_built_from_one_spec_answer_alike() {
    let first = fresh_engines();
    let second = fresh_engines();
    for (path, &(_, _, label)) in PATHS.iter().enumerate() {
        for seed in SEEDS {
            let a = run(&first, path, seed);
            let b = run(&second, path, seed);
            assert!(a.semantic_eq(&b), "{label} seed {seed}: engines disagree");
        }
    }
}

#[test]
fn concurrent_first_uses_match_a_sequential_run() {
    const THREADS: usize = 8;
    let concurrent = fresh_engines();
    let start = Barrier::new(THREADS);
    let reports: Vec<Vec<RunReport>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engines, start) = (&concurrent, &start);
                // all threads leave the barrier together and each starts
                // on a different path, so every path's first draw races
                // several callers
                scope.spawn(move || {
                    start.wait();
                    (0..PATHS.len())
                        .map(|i| run(engines, (t + i) % PATHS.len(), SEEDS[t]))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let sequential = fresh_engines();
    for (t, thread_reports) in reports.iter().enumerate() {
        for (i, report) in thread_reports.iter().enumerate() {
            let path = (t + i) % PATHS.len();
            let expected = run(&sequential, path, SEEDS[t]);
            assert!(
                report.semantic_eq(&expected),
                "thread {t}, {}: concurrent first use differs",
                PATHS[path].2
            );
        }
    }
}

#[test]
fn a_cancelled_first_use_does_not_poison_the_cache() {
    let engines = fresh_engines();
    let reference = fresh_engines();
    for (path, &(e, task, label)) in PATHS.iter().enumerate() {
        let expired = engines[e].run_with_deadline(task, 5, Some(Instant::now()));
        assert_eq!(
            expired.unwrap_err(),
            EngineError::DeadlineExceeded,
            "{label}: an expired first request must fail typed"
        );
        let next = run(&engines, path, 5);
        assert!(
            next.semantic_eq(&run(&reference, path, 5)),
            "{label}: the request after a cancelled first use differs"
        );
    }
}
