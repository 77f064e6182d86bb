//! Serving: a bursty multi-client workload against the `lds-serve`
//! front-end.
//!
//! Simulates several client threads firing bursts of mixed
//! `SampleExact`/`Count` requests at one shared engine. Clients reuse a
//! small set of "hot" seeds (as retrying or fan-in clients do), so the
//! run exercises all three serving mechanisms at once: two sessions,
//! one per thread of the engine's pool, each answer one request at a
//! time; the idempotency cache answers repeated `(task, seed)` keys
//! without re-executing, and identical requests in flight share one
//! execution; and admission control sheds load when a burst outruns the
//! queue. Prints the final `ServerStats`.
//!
//! Run with: `cargo run --example serving --release`

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lds::engine::{Engine, ModelSpec, Task};
use lds::graph::generators;
use lds::serve::{Server, ServerConfig, SubmitError};

const CLIENTS: u64 = 4;
const BURSTS: u64 = 3;
const REQUESTS_PER_BURST: u64 = 24;
const HOT_SEEDS: u64 = 6;

fn main() {
    let engine = Arc::new(
        Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(14))
            .epsilon(0.001)
            .threads(2)
            .build()
            .expect("λ = 1 in regime on a cycle"),
    );
    println!(
        "engine: hardcore λ = 1 on C14, fingerprint {:#018x}, pool width {} \
         (one server session per pool thread)",
        engine.fingerprint(),
        engine.threads()
    );

    let server = Arc::new(Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    ));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let (mut served, mut shed) = (0u64, 0u64);
                for burst in 0..BURSTS {
                    let mut tickets = Vec::new();
                    for i in 0..REQUESTS_PER_BURST {
                        // zipf-ish mix: most requests hit the shared hot
                        // seeds, a few bring fresh ones
                        let n = burst * REQUESTS_PER_BURST + i;
                        let (task, seed) = if n % 4 == 3 {
                            (Task::Count, n % HOT_SEEDS)
                        } else if n % 7 == 6 {
                            (Task::SampleExact, 1_000 + c * 100 + n) // cold
                        } else {
                            (Task::SampleExact, n % HOT_SEEDS) // hot
                        };
                        match server.try_submit(task, seed) {
                            Ok(t) => tickets.push(t),
                            Err(SubmitError::Overloaded { .. }) => shed += 1,
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                    for t in tickets {
                        t.wait().expect("accepted request served");
                        served += 1;
                    }
                    // the lull between bursts
                    thread::sleep(Duration::from_millis(2));
                }
                (c, served, shed)
            })
        })
        .collect();

    for client in clients {
        let (c, served, shed) = client.join().expect("client thread");
        println!("client {c}: {served} served, {shed} shed by admission control");
    }

    let stats = server.stats();
    println!("\n--- ServerStats ---\n{stats}");
    println!(
        "\n{} requests took {} engine executions \
         ({:.1}% answered from the cache or an identical in-flight run)",
        stats.completed,
        stats.engine_executions,
        100.0 * (1.0 - stats.engine_executions as f64 / stats.completed.max(1) as f64)
    );
}
