//! Serving-layer contracts: concurrent idempotency (bit-identical
//! answers, at most one engine execution per key), determinism across
//! pool widths, and admission-control backpressure.
//!
//! These run in the CI `LDS_THREADS` determinism matrix. A server runs
//! one session per thread of its engine's pool, and how many sessions
//! drain the queue is part of what these tests check, so every engine
//! here has an explicit width and every assertion holds at matrix
//! widths 1, 4, and 8 alike.

use std::sync::{Arc, Barrier};
use std::thread;

use lds::engine::{Engine, ModelSpec, RunReport, Task};
use lds::graph::generators;
use lds::serve::{Server, ServerConfig, SubmitError};

/// A hardcore engine on `cycle(n)` whose pool width, and so the number
/// of sessions a server over it runs, is `threads` at every matrix
/// width.
fn hardcore_engine(n: usize, threads: usize) -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(n))
            .epsilon(0.001)
            .threads(threads)
            .build()
            .expect("in regime"),
    )
}

// Report agreement is asserted through `RunReport::semantic_eq` — the
// one definition of "same answer" shared by the determinism, serving,
// and net round-trip suites. It covers every output field bit-for-bit
// and excludes only the wall clocks, which legitimately vary between
// runs.

#[test]
fn concurrent_identical_requests_are_bit_identical_and_execute_once() {
    // two sessions so the in-flight ledger (not session
    // single-threading) has to provide the at-most-one guarantee
    let engine = hardcore_engine(10, 2);
    let direct = engine.run_with_seed(Task::SampleExact, 42).unwrap();
    let server = Arc::new(Server::with_defaults(Arc::clone(&engine)));
    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait(); // release all clients at once
                server
                    .submit(Task::SampleExact, 42)
                    .expect("queue has room")
                    .wait()
                    .expect("request served")
            })
        })
        .collect();
    let reports: Vec<RunReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for report in &reports {
        assert!(
            report.semantic_eq(&direct),
            "served answer diverged from direct execution:\n{report:?}\nvs\n{direct:?}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(
        stats.engine_executions, 1,
        "identical concurrent requests must dedup to one execution: {stats}"
    );
    assert_eq!(
        stats.cache_hits + stats.deduped(),
        CLIENTS as u64 - 1,
        "every duplicate is answered by cache or in-flight dedup: {stats}"
    );
}

#[test]
fn served_outputs_are_identical_across_pool_widths() {
    // same request stream through servers over width-1 and width-4
    // engines: every answer must be bit-identical (the runtime's
    // stream-derivation contract, surfaced end to end through the
    // serving layer)
    let mut by_width: Vec<Vec<RunReport>> = Vec::new();
    for width in [1usize, 4] {
        let engine = Arc::new(
            Engine::builder()
                .model(ModelSpec::Hardcore { lambda: 1.0 })
                .graph(generators::cycle(10))
                .epsilon(0.001)
                .threads(width)
                .build()
                .unwrap(),
        );
        let server = Server::with_defaults(engine);
        let tickets: Vec<_> = (0..12u64)
            .map(|seed| server.try_submit(Task::SampleExact, seed).unwrap())
            .collect();
        by_width.push(tickets.into_iter().map(|t| t.wait().unwrap()).collect());
    }
    let (w1, w4) = (&by_width[0], &by_width[1]);
    assert_eq!(w1.len(), w4.len());
    for (a, b) in w1.iter().zip(w4) {
        assert!(
            a.semantic_eq(b),
            "serving results changed with pool width at seed {}:\n{a:?}\nvs\n{b:?}",
            a.seed
        );
    }
}

#[test]
fn backpressure_rejects_above_watermark_without_deadlock() {
    // a deliberately tiny, slow server: one session, a 2-deep queue,
    // and a model large enough that each execution takes ~milliseconds
    // while submissions take microseconds
    let server = Server::new(
        hardcore_engine(18, 1),
        ServerConfig {
            queue_capacity: 2,
            cache_capacity: 0, // every request must actually execute
        },
    );
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for seed in 0..64u64 {
        match server.try_submit(Task::SampleExact, seed) {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::Overloaded {
                queue_depth,
                watermark,
            }) => {
                assert!(queue_depth >= watermark.min(2));
                rejected += 1;
            }
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
    }
    assert!(
        rejected > 0,
        "a 64-request flood against a 2-deep queue must shed load"
    );
    // every accepted request still completes: shedding never deadlocks
    // or starves admitted work
    let accepted_count = accepted.len() as u64;
    for ticket in accepted {
        ticket.wait().expect("accepted request must be served");
    }
    let stats = server.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, accepted_count);
    assert!(stats.peak_queue_depth >= 1);
    // once drained, admission recovers
    server
        .try_submit(Task::SampleExact, 1000)
        .expect("admission must recover after the queue drains")
        .wait()
        .expect("post-recovery request served");
}

#[test]
fn concurrent_producers_cannot_overshoot_the_watermark() {
    // the depth check and the enqueue are atomic in try_submit: even
    // with many producers racing, the queue never exceeds its capacity
    // (this is what a post-hoc `len()` check cannot give)
    let server = Arc::new(Server::new(
        hardcore_engine(16, 1),
        ServerConfig {
            queue_capacity: 2,
            cache_capacity: 0,
        },
    ));
    const PRODUCERS: usize = 8;
    let barrier = Arc::new(Barrier::new(PRODUCERS));
    let handles: Vec<_> = (0..PRODUCERS as u64)
        .map(|p| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut tickets = Vec::new();
                for i in 0..8u64 {
                    if let Ok(t) = server.try_submit(Task::SampleExact, p * 100 + i) {
                        tickets.push(t);
                    }
                }
                tickets
            })
        })
        .collect();
    for h in handles {
        for t in h.join().unwrap() {
            t.wait().expect("accepted request served");
        }
    }
    let stats = server.stats();
    assert!(
        stats.peak_queue_depth <= 2,
        "racing producers overshot the watermark: {stats}"
    );
    assert!(stats.rejected > 0, "64 racing submissions must shed load");
}

#[test]
fn mixed_task_stream_serves_every_request() {
    let server = Arc::new(Server::with_defaults(hardcore_engine(8, 2)));
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let mut answers = Vec::new();
                for i in 0..8u64 {
                    let (task, seed) = if i % 2 == 0 {
                        (Task::SampleExact, i / 2) // seeds shared across clients
                    } else {
                        (Task::Count, 0)
                    };
                    answers.push((task, server.submit(task, seed).unwrap().wait().unwrap()));
                }
                (c, answers)
            })
        })
        .collect();
    let mut count_estimates = Vec::new();
    for client in clients {
        let (_, answers) = client.join().unwrap();
        for (task, report) in answers {
            match task {
                Task::Count => count_estimates.push(report.log_z().unwrap().to_bits()),
                _ => assert!(report.config().is_some()),
            }
        }
    }
    // every Count answer (same key from all clients) is bit-identical
    count_estimates.dedup();
    assert_eq!(count_estimates.len(), 1);
    let stats = server.stats();
    assert_eq!(stats.completed, 32);
    // 4 clients × 4 SampleExact share 4 unique seeds; Count shares one
    // key: at most 5 executions despite 32 requests
    assert!(
        stats.engine_executions <= 5,
        "idempotency failed to collapse the shared keys: {stats}"
    );
}
