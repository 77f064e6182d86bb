//! Network serving: multi-tenant engines over real TCP.
//!
//! Starts a [`NetServer`] on a loopback port, then drives it from
//! client threads the way separate processes would: each client
//! registers a model by serialized spec, gets back the engine's stable
//! fingerprint, and routes tasks with it. The walkthrough covers the
//! whole wire surface — two tenants interleaved on one connection,
//! bit-identical agreement with in-process execution, typed errors for
//! unknown fingerprints and out-of-regime registrations, pipelined
//! flooding into a bounded queue (typed `Overloaded` replies, no
//! hangs), and per-tenant stats over the wire.
//!
//! Run with: `cargo run --example net_serving --release`

use std::thread;

use lds::engine::{ModelSpec, Task, Topology};
use lds::graph::generators;
use lds::net::{Client, EngineSpec, NetConfig, NetServer, Op, Reply, WireError};
use lds::serve::{RegistryConfig, ServerConfig};

fn main() {
    // A deliberately tight server: 2-slot request queues so the flood
    // section below actually sheds load.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            registry: RegistryConfig {
                server: ServerConfig {
                    queue_capacity: 2,
                    ..ServerConfig::default()
                },
                ..RegistryConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("NetServer listening on {addr}\n");

    // --- two tenants, one connection ------------------------------------
    let hardcore = EngineSpec::new(
        ModelSpec::Hardcore { lambda: 1.0 },
        Topology::Graph(generators::cycle(12)),
    );
    let ising = EngineSpec::new(
        ModelSpec::Ising {
            beta: -0.1,
            field: 0.0,
        },
        Topology::Graph(generators::cycle(12)),
    );

    let client = thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.ping().expect("pong");

        let fp_h = c.register(&hardcore).expect("register hardcore");
        let fp_i = c.register(&ising).expect("register ising");
        println!("registered hardcore as {fp_h:#018x}");
        println!("registered ising    as {fp_i:#018x}");

        // Interleave the tenants; compare each served report against
        // in-process execution of the same (fingerprint, task, seed).
        for seed in 0..3u64 {
            for (name, fp, spec) in [("hardcore", fp_h, &hardcore), ("ising", fp_i, &ising)] {
                let served = c.run(fp, Task::SampleExact, seed).expect("served report");
                let direct = spec
                    .build()
                    .expect("in regime")
                    .run_with_seed(Task::SampleExact, seed)
                    .expect("direct report");
                assert_eq!(
                    served.config().unwrap().values(),
                    direct.config().unwrap().values(),
                    "wire must not change output bits"
                );
                println!(
                    "{name} seed {seed}: served == direct ({} spins)",
                    served.config().unwrap().len()
                );
            }
        }

        // --- typed errors ------------------------------------------------
        match c.run(0xDEAD_BEEF, Task::Count, 0) {
            Err(lds::net::ClientError::Server(WireError::UnknownFingerprint(fp))) => {
                println!("\nunknown fingerprint {fp:#x}: typed error, no hang")
            }
            other => panic!("expected UnknownFingerprint, got {other:?}"),
        }
        let out_of_regime = EngineSpec::new(
            ModelSpec::Hardcore { lambda: 50.0 },
            Topology::Graph(generators::grid(4, 4)),
        );
        match c.register(&out_of_regime) {
            Err(lds::net::ClientError::Server(WireError::Rejected(why))) => {
                println!("λ = 50 on a grid rejected at registration: {why}")
            }
            other => panic!("expected Rejected, got {other:?}"),
        }

        // --- pipelined flood into the 2-slot queue -----------------------
        const FLOOD: u64 = 48;
        let mut ids = Vec::new();
        for seed in 0..FLOOD {
            ids.push(c.send(Op::Run {
                fingerprint: fp_h,
                task: Task::SampleExact,
                seed: 10_000 + seed,
                deadline: None,
            }));
        }
        let (mut reports, mut shed) = (0u64, 0u64);
        for _ in 0..FLOOD {
            match c.recv().expect("pipelined response").reply {
                Reply::Report(_) => reports += 1,
                Reply::Error(WireError::Overloaded { .. }) => shed += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        println!(
            "\nflood of {FLOOD} pipelined runs: {reports} served, \
             {shed} shed as typed Overloaded replies"
        );

        // --- stats over the wire -----------------------------------------
        let stats = c.stats(fp_h).expect("stats");
        println!("\n--- hardcore tenant ServerStats (over the wire) ---\n{stats}");
        (fp_h, fp_i)
    });

    let (fp_h, fp_i) = client.join().expect("client thread");

    let reg = server.registry().stats();
    println!(
        "\nregistry: {} live tenants ({:#x} hot, {:#x} next), \
         {} registrations, {} hits, {} evictions",
        reg.live, fp_h, fp_i, reg.registrations, reg.hits, reg.evictions
    );

    server.shutdown();
    println!("server drained and shut down");
}
