//! `Op::Metrics` end-to-end: scraping a live server over loopback TCP
//! returns the *same* snapshot the process would read locally from
//! `lds::obs::global()`.
//!
//! This equality is exact by design: the net layer deliberately
//! excludes the metrics op from its own instrumentation (no byte
//! counters, no latency record), so serving the scrape does not
//! perturb the registry being scraped. Every reply the
//! client has read was recorded before it was written, and the engine's
//! fan-outs join their threads before they return, so nothing records
//! in the background: one local snapshot and one wire snapshot, taken
//! in that order, must agree.

use lds::engine::{ModelSpec, Task, Topology};
use lds::graph::generators;
use lds::net::{Client, EngineSpec, NetServer};

fn hardcore_spec(n: usize) -> EngineSpec {
    EngineSpec::new(
        ModelSpec::Hardcore { lambda: 1.0 },
        Topology::Graph(generators::cycle(n)),
    )
}

#[test]
fn wire_metrics_snapshot_matches_the_local_registry() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // drive real traffic through every layer so the registry is not
    // trivially empty: register, run a few tasks, ping
    let fp = client.register(&hardcore_spec(10)).unwrap();
    for seed in 0..4u64 {
        client.run(fp, Task::SampleExact, seed).unwrap();
    }
    client.run(fp, Task::Count, 0).unwrap();
    client.ping().unwrap();

    let local = lds::obs::global().snapshot();
    let wire = client.metrics().expect("metrics scrape");
    assert_eq!(
        local, wire,
        "wire scrape must decode to the same snapshot the process reads locally"
    );
    assert_eq!(
        local.render_text(),
        wire.render_text(),
        "text exposition must agree too"
    );

    // the snapshot actually covers the instrumented layers
    for counter in ["serve_submitted", "net_bytes_in", "net_bytes_out"] {
        assert!(
            wire.counter(counter).is_some_and(|v| v > 0),
            "expected live counter {counter} in {wire:?}"
        );
    }
    for histogram in ["serve_request_latency_ns", "net_op_run_ns"] {
        let h = wire
            .histogram(histogram)
            .unwrap_or_else(|| panic!("expected histogram {histogram}"));
        assert!(h.count > 0, "{histogram} never recorded");
        assert!(h.max >= 1, "{histogram} recorded zero-duration ops only");
    }
    // five runs went through the run op; ping is its own histogram
    assert!(wire.histogram("net_op_run_ns").unwrap().count >= 5);
    assert!(wire.histogram("net_op_ping_ns").unwrap().count >= 1);

    drop(client);
    server.shutdown();
}
