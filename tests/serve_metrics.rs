//! The registry's `serve_*` series are per-server scopes: the process
//! snapshot (what `Op::Metrics` scrapes) reports each name as the total
//! over every live `Server`, and a server that goes away leaves its
//! counts in those totals and takes its gauges with it.
//!
//! This binary holds one test on purpose: it reads the process-global
//! registry, so no other server may run beside it.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lds::chaos::{self, Fault, Plan, Trigger};
use lds::engine::{Engine, ModelSpec, Task};
use lds::graph::generators;
use lds::obs::MetricsSnapshot;
use lds::serve::{Server, ServerConfig, ServerStats, Ticket};

/// How long the stalled server's session sleeps holding its first request.
/// Everything checked while it sleeps takes milliseconds.
const STALL: Duration = Duration::from_secs(3);

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

fn snapshot() -> MetricsSnapshot {
    lds::obs::global().snapshot()
}

/// Every `serve_*` counter, and the latency histogram's count, stay
/// exactly as they were across `drop_server`.
fn assert_totals_survive(drop_server: impl FnOnce(), context: &str) {
    let before = snapshot();
    drop_server();
    let after = snapshot();
    let serve_counters = before
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve_"));
    for (name, value) in serve_counters {
        assert_eq!(
            after.counter(name),
            Some(*value),
            "{name} changed when {context} dropped"
        );
    }
    let latencies = |s: &MetricsSnapshot| s.histogram("serve_request_latency_ns").map(|h| h.count);
    assert_eq!(latencies(&after), latencies(&before), "{context}");
}

#[test]
fn serve_series_total_over_live_servers_and_outlive_them() {
    // two servers over one engine: the same fingerprint, separate scopes
    let engine = Arc::new(
        Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(8))
            .epsilon(0.01)
            .threads(1)
            .build()
            .expect("in regime"),
    );
    let stalled = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    );
    let idle = Server::with_defaults(Arc::clone(&engine));

    // the stalled server's worker takes one request and sleeps holding
    // it; three more then wait in its queue
    let guard =
        chaos::arm(Plan::new(0).with("serve.queue_stall", Trigger::Nth(0), Fault::Delay(STALL)));
    let mut tickets: Vec<Ticket> = vec![stalled.try_submit(Task::SampleExact, 0).unwrap()];
    wait_until("the stall", || chaos::firings("serve.queue_stall") == 1);
    drop(guard);
    tickets.extend((1..=3).map(|seed| stalled.try_submit(Task::SampleExact, seed).unwrap()));
    // the idle server answers one request; it was the last to move a
    // queue, so a single process-wide gauge would now read its depth
    idle.run(Task::SampleExact, 1).unwrap();

    let stats: [ServerStats; 2] = [stalled.stats(), idle.stats()];
    assert_eq!(
        stats[0].queue_depth, 3,
        "three requests wait behind the stall"
    );
    let snap = snapshot();
    let total = |field: fn(&ServerStats) -> u64| stats.iter().map(field).sum::<u64>();
    assert_eq!(
        snap.gauge("serve_queue_depth"),
        Some(total(|s| s.queue_depth as u64) as i64),
        "the queue-depth gauge is the sum over live servers"
    );
    assert_eq!(
        snap.gauge("serve_admission_watermark"),
        Some(8 + 256),
        "the watermark gauge is the sum over live servers"
    );
    for (name, sum) in [
        ("serve_submitted", total(|s| s.submitted)),
        ("serve_completed", total(|s| s.completed)),
        ("serve_engine_executions", total(|s| s.engine_executions)),
    ] {
        assert_eq!(
            snap.counter(name),
            Some(sum),
            "{name} is the sum of the servers' stats"
        );
    }
    assert_eq!(
        snap.histogram("serve_request_latency_ns").map(|h| h.count),
        Some(total(|s| s.completed + s.failed)),
        "one latency sample per answer"
    );
    assert_eq!(
        stalled.stats().queue_depth,
        3,
        "the stall outlasted the checks"
    );

    assert_totals_survive(|| drop(idle), "the idle server");
    let snap = snapshot();
    assert_eq!(snap.gauge("serve_queue_depth"), Some(3));
    assert_eq!(snap.gauge("serve_admission_watermark"), Some(8));

    for ticket in tickets {
        ticket.wait().expect("the stalled requests are served");
    }
    assert_totals_survive(|| drop(stalled), "the stalled server");
    let snap = snapshot();
    assert_eq!(snap.counter("serve_completed"), Some(5));
    assert_eq!(snap.gauge("serve_queue_depth"), Some(0));
    assert_eq!(snap.gauge("serve_admission_watermark"), Some(0));
}
