//! Out-of-process serving contracts, over real loopback TCP: wire
//! round trips are bit-identical to in-process execution, malformed
//! input is typed (never a panic or a hang), the registry evicts and
//! re-registers, backpressure is an explicit wire reply, and shutdown
//! drains accepted work.
//!
//! These run in the CI `LDS_THREADS` determinism matrix: server-side
//! engines are built without an explicit width, so every assertion
//! holds at widths 1, 4, and 8.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use lds::engine::{Engine, ModelSpec, RunReport, Task, Topology};
use lds::graph::generators;
use lds::net::codec::Wire;
use lds::net::{
    frame, Client, ClientError, EngineSpec, NetConfig, NetServer, Op, Reply, WireError,
};
use lds::serve::{RegistryConfig, ServerConfig};

fn hardcore_spec(n: usize) -> EngineSpec {
    EngineSpec::new(
        ModelSpec::Hardcore { lambda: 1.0 },
        Topology::Graph(generators::cycle(n)),
    )
}

fn ising_spec(n: usize) -> EngineSpec {
    EngineSpec::new(
        ModelSpec::Ising {
            beta: -0.1,
            field: 0.0,
        },
        Topology::Graph(generators::cycle(n)),
    )
}

/// Two reports of the same `(fingerprint, task, seed)` must agree on
/// every semantic field — in process or over TCP, at any thread width.
/// [`RunReport::semantic_eq`] is the shared definition of that
/// agreement: it excludes only the wall clocks, which legitimately
/// differ between a direct `run_with_seed` and the same run served
/// over TCP.
fn assert_same_answer(a: &RunReport, b: &RunReport, context: &str) {
    assert!(a.semantic_eq(b), "{context}:\n{a:?}\nvs\n{b:?}");
}

#[test]
fn served_reports_are_bit_identical_across_two_interleaved_tenants() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // a second "process" (thread with its own connection) registers
    // two distinct models and interleaves tasks by fingerprint
    let handle = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let fp_hc = client.register(&hardcore_spec(10)).unwrap();
        let fp_is = client.register(&ising_spec(8)).unwrap();
        assert_ne!(fp_hc, fp_is, "distinct models, distinct identities");
        let mut served = Vec::new();
        for seed in 0..6u64 {
            let fp = if seed % 2 == 0 { fp_hc } else { fp_is };
            served.push((fp, seed, client.run(fp, Task::SampleExact, seed).unwrap()));
        }
        (fp_hc, fp_is, served)
    });
    let (fp_hc, fp_is, served) = handle.join().unwrap();

    // in-process ground truth from independently built engines
    let hc = hardcore_spec(10).build().unwrap();
    let is = ising_spec(8).build().unwrap();
    assert_eq!(
        hc.fingerprint(),
        fp_hc,
        "fingerprints agree across processes"
    );
    assert_eq!(is.fingerprint(), fp_is);
    for (fp, seed, report) in &served {
        let engine = if *fp == fp_hc { &hc } else { &is };
        let direct = engine.run_with_seed(Task::SampleExact, *seed).unwrap();
        assert_same_answer(
            report,
            &direct,
            &format!("wire report for seed {seed} diverged from in-process execution"),
        );
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let fp = server
        .registry()
        .register(hardcore_spec(12).build().unwrap());

    let mut handles = Vec::new();
    for c in 0..4u64 {
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            (0..4u64)
                .map(|i| {
                    let seed = (c * 4 + i) % 5; // deliberate overlap across clients
                    (seed, client.run(fp, Task::SampleExact, seed).unwrap())
                })
                .collect::<Vec<_>>()
        }));
    }
    let direct = hardcore_spec(12).build().unwrap();
    for handle in handles {
        for (seed, report) in handle.join().unwrap() {
            let expect = direct.run_with_seed(Task::SampleExact, seed).unwrap();
            assert_same_answer(&report, &expect, &format!("seed {seed}"));
        }
    }
    server.shutdown();
}

#[test]
fn unknown_fingerprint_is_a_typed_error_not_a_hang() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.run(0xDEAD_BEEF, Task::Count, 1) {
        Err(ClientError::Server(WireError::UnknownFingerprint(fp))) => {
            assert_eq!(fp, 0xDEAD_BEEF)
        }
        other => panic!("expected UnknownFingerprint, got {other:?}"),
    }
    // the connection survives the error
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn out_of_regime_registration_is_rejected_with_the_builder_error() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let spec = EngineSpec::new(
        ModelSpec::Hardcore { lambda: 50.0 },
        Topology::Graph(generators::grid(4, 4)),
    );
    match client.register(&spec) {
        Err(ClientError::Server(WireError::Rejected(msg))) => {
            assert!(!msg.is_empty(), "rejection carries the builder diagnosis")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn malformed_truncated_and_oversized_frames_are_typed_never_panics() {
    let config = NetConfig {
        max_frame_len: 4096,
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // 1. garbage payload inside a well-formed frame: typed Malformed
    //    reply, connection stays usable
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut payload = 77u64.to_le_bytes().to_vec(); // id
        payload.push(250); // unknown op tag
        frame::write_frame(&mut stream, &payload, 4096).unwrap();
        let resp = frame::read_frame(&mut stream, 4096).unwrap();
        let resp = lds::net::Response::from_bytes(&resp).unwrap();
        assert_eq!(resp.id, 77, "the salvaged id is echoed");
        assert!(
            matches!(resp.reply, Reply::Error(WireError::Malformed(_))),
            "got {:?}",
            resp.reply
        );
        // same connection still serves
        let ping = lds::net::Request {
            id: 78,
            op: Op::Ping,
        };
        frame::write_frame(&mut stream, &ping.to_bytes(), 4096).unwrap();
        let pong = frame::read_frame(&mut stream, 4096).unwrap();
        let pong = lds::net::Response::from_bytes(&pong).unwrap();
        assert!(matches!(pong.reply, Reply::Pong));
    }

    // 2. bad magic: one typed reply, then the server closes (framing
    //    can no longer be trusted)
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        // exactly one header's worth of garbage, so the server's close
        // arrives as a clean FIN (leftover unread bytes would RST)
        stream.write_all(b"XXXXXXXXXXXX").unwrap();
        let resp = frame::read_frame(&mut stream, 4096).unwrap();
        let resp = lds::net::Response::from_bytes(&resp).unwrap();
        assert!(matches!(resp.reply, Reply::Error(WireError::Malformed(_))));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after the reply");
    }

    // 3. oversized declared length: rejected from the header alone
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let header = frame::encode_header(1 << 20); // 1 MiB > 4 KiB cap
        stream.write_all(&header).unwrap();
        let resp = frame::read_frame(&mut stream, 4096).unwrap();
        let resp = lds::net::Response::from_bytes(&resp).unwrap();
        match resp.reply {
            Reply::Error(WireError::Malformed(msg)) => {
                assert!(msg.contains("cap"), "names the cap: {msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    // 4. truncated frame then disconnect: the server must not wedge —
    //    prove it by serving a fresh connection afterwards
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let header = frame::encode_header(100);
        stream.write_all(&header).unwrap();
        stream.write_all(&[0u8; 10]).unwrap(); // 90 bytes short
        drop(stream);
    }
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn a_reply_over_the_frame_cap_ends_the_connection_instead_of_hanging() {
    let config = NetConfig {
        max_frame_len: 4096,
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    // registered server-side: a cycle(2000) spec does not fit in a 4 KiB
    // request frame, and neither does a report of its 2000-node sample
    let fp = server
        .registry()
        .register(hardcore_spec(2000).build().unwrap());
    let addr = server.local_addr();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let _ = tx.send(client.run(fp, Task::SampleApprox, 1));
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Err(ClientError::Io(e))) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        Ok(other) => panic!("expected the connection to end, got {other:?}"),
        Err(_) => panic!("the client still waits for a reply the server will never write"),
    }
    server.shutdown();
}

#[test]
fn registry_evicts_lru_and_reregistration_recovers() {
    let config = NetConfig {
        registry: RegistryConfig {
            capacity: 1,
            ..RegistryConfig::default()
        },
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let fp_a = client.register(&hardcore_spec(8)).unwrap();
    client.run(fp_a, Task::SampleExact, 1).unwrap();
    // registering B evicts A (capacity 1)
    let fp_b = client.register(&ising_spec(8)).unwrap();
    client.run(fp_b, Task::SampleExact, 1).unwrap();
    match client.run(fp_a, Task::SampleExact, 2) {
        Err(ClientError::Server(WireError::UnknownFingerprint(fp))) => assert_eq!(fp, fp_a),
        other => panic!("expected eviction, got {other:?}"),
    }
    // re-registration yields the same fingerprint and a working tenant
    assert_eq!(client.register(&hardcore_spec(8)).unwrap(), fp_a);
    client.run(fp_a, Task::SampleExact, 2).unwrap();
    assert_eq!(server.registry().stats().evictions, 2);
    server.shutdown();
}

#[test]
fn stats_travel_the_wire() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(8)).unwrap();
    client.run(fp, Task::SampleExact, 1).unwrap();
    client.run(fp, Task::SampleExact, 2).unwrap();
    client.run(fp, Task::SampleExact, 1).unwrap(); // cache hit

    let lifetime = client.stats(fp).unwrap();
    assert_eq!(lifetime.completed, 3);
    assert_eq!(lifetime.cache_hits, 1);
    server.shutdown();
}

#[test]
fn flooding_one_tenant_gets_typed_overload_while_others_complete() {
    let mut config = NetConfig::default();
    // a tiny tenant queue and one session: the flood must hit the
    // admission watermark
    config.registry.server = ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut flooder = Client::connect(addr).unwrap();
    // a tenant runs one session per pool thread, and a spec leaves the
    // width to the server, so the one-session tenant registers in process
    let spec = hardcore_spec(48);
    let flood_engine = Engine::builder()
        .model(spec.model)
        .topology(spec.topology)
        .epsilon(spec.epsilon)
        .delta(spec.delta)
        .threads(1)
        .build()
        .unwrap();
    let fp_flood = server.registry().register(flood_engine);
    let fp_calm = server.registry().register(ising_spec(8).build().unwrap());

    // pipeline a burst far past the queue capacity, all distinct seeds
    // (identical seeds would dedup instead of queueing)
    let total = 96u64;
    for seed in 0..total {
        flooder
            .send(Op::Run {
                fingerprint: fp_flood,
                task: Task::SampleExact,
                seed,
                deadline: None,
            })
            .unwrap();
    }

    // a different connection to a different tenant completes meanwhile
    let calm = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for seed in 0..4 {
            client.run(fp_calm, Task::SampleExact, seed).unwrap();
        }
    });

    let (mut reports, mut overloaded) = (0u64, 0u64);
    for _ in 0..total {
        match flooder.recv().unwrap().reply {
            Reply::Report(_) => reports += 1,
            Reply::Error(WireError::Overloaded { watermark, .. }) => {
                assert!(watermark > 0);
                overloaded += 1;
            }
            other => panic!("unexpected reply under flood: {other:?}"),
        }
    }
    calm.join().unwrap();
    assert_eq!(reports + overloaded, total, "every request answered");
    assert!(reports > 0, "accepted work still completes");
    assert!(
        overloaded > 0,
        "a {total}-deep burst into a 2-slot queue must shed typed overloads"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(32)).unwrap();
    let id = client
        .send(Op::Run {
            fingerprint: fp,
            task: Task::SampleExact,
            seed: 9,
            deadline: None,
        })
        .unwrap();
    // wait until the server has *accepted* the request (a frame still
    // in the socket buffer at shutdown is legitimately dropped), then
    // shut down while it is in flight: the accepted ticket must be
    // answered before the server lets go
    while server.registry().stats_of(fp).unwrap().submitted < 1 {
        thread::sleep(Duration::from_millis(1));
    }
    let shutdown = thread::spawn(move || server.shutdown());
    let resp = client.recv().unwrap();
    assert_eq!(resp.id, id);
    assert!(
        matches!(resp.reply, Reply::Report(_)),
        "accepted request drained to a report, got {:?}",
        resp.reply
    );
    shutdown.join().unwrap();
}

#[test]
fn client_reconnect_restores_service_and_registrations_survive() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(8)).unwrap();
    client.run(fp, Task::SampleExact, 3).unwrap();
    // a new connection to the same server: the tenant is still live
    // (registrations are per-server, not per-connection)
    client.reconnect().unwrap();
    client.ping().unwrap();
    client.run(fp, Task::SampleExact, 4).unwrap();
    server.shutdown();
}
