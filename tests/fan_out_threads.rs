//! An engine owns no threads between calls: its fan-outs (a first
//! `Task::Count`, `marginals()`, `run_batch`) run on scoped threads that
//! are joined before each call returns.
//!
//! This is the binary's only test, so nothing else spawns threads while
//! it reads the process's thread count.

#![cfg(target_os = "linux")]

use std::thread;
use std::time::{Duration, Instant};

use lds::engine::{Engine, ModelSpec, Task};
use lds::graph::generators;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

/// The thread count, read until it equals `expected` or 1 s has passed:
/// a joined thread can stay counted for a moment after `join` returns.
fn settled(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads();
        if now == expected || Instant::now() >= deadline {
            return now;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn an_engine_holds_no_threads_between_calls() {
    let start = threads();
    let engine = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(16))
        .threads(4)
        .build()
        .expect("λ = 1 is in regime on a cycle");
    assert_eq!(settled(start), start, "after the build");

    engine.run(Task::Count).expect("count");
    assert_eq!(settled(start), start, "after a first Count");

    engine.marginals();
    engine
        .run_batch(Task::SampleExact, &[1, 2, 3, 4])
        .expect("batch");
    assert_eq!(settled(start), start, "after marginals() and run_batch");
}
