//! Wire-codec properties: every protocol type round-trips through its
//! canonical encoding bit-exactly, and **no** byte sequence — random
//! soup, truncations, hostile lengths — makes a decoder panic.
//!
//! Equality is asserted on re-encoded bytes: the encoding is canonical
//! (equal values ⇒ equal bytes), which also covers types without
//! `PartialEq` (`RunReport`) and float payloads where `NaN != NaN`
//! would defeat a value comparison even though the bits round-trip.

use std::time::Duration;

use lds::core::glauber::GlauberStats;
use lds::core::jvv::JvvStats;
use lds::engine::{
    Backend, ModelSpec, RunReport, SampleDecode, ServedBackend, SweepBudget, Task, TaskOutput,
    Topology,
};
use lds::gibbs::{Config, PartialConfig, Value};
use lds::graph::{EdgeId, GraphBuilder, HyperEdgeId, Hypergraph, NodeId};
use lds::net::codec::{Wire, Writer, PHASE_NAMES};
use lds::net::{EngineSpec, Op, Reply, Request, Response, WireError};
use lds::obs::{HistogramSnapshot, MetricsSnapshot};
use lds::runtime::Phase;
use lds::serve::ServerStats;
use proptest::prelude::*;

fn f64_from(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn arb_task() -> impl Strategy<Value = Task> {
    (0u8..4, any::<u32>(), any::<u32>()).prop_map(|(tag, a, b)| match tag {
        0 => Task::SampleExact,
        1 => Task::SampleApprox,
        2 => Task::Infer {
            vertex: NodeId(a),
            value: Value(b),
        },
        _ => Task::Count,
    })
}

fn arb_model() -> impl Strategy<Value = ModelSpec> {
    (
        0u8..6,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(tag, a, b, c, d)| match tag {
            0 => ModelSpec::Hardcore {
                lambda: f64_from(a),
            },
            1 => ModelSpec::Matching {
                lambda: f64_from(a),
            },
            2 => ModelSpec::Ising {
                beta: f64_from(a),
                field: f64_from(b),
            },
            3 => ModelSpec::TwoSpin {
                beta: f64_from(a),
                gamma: f64_from(b),
                lambda: f64_from(c),
                rate: f64_from(d),
            },
            4 => ModelSpec::Coloring {
                q: (a % 1024) as usize,
            },
            _ => ModelSpec::HypergraphMatching {
                lambda: f64_from(a),
            },
        })
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    (1usize..14, any::<bool>()).prop_flat_map(|(n, hyper)| {
        let max_edges = n * n.saturating_sub(1) / 2;
        proptest::collection::vec((0usize..n.max(1), 0usize..n.max(1)), 0..=max_edges.min(24))
            .prop_map(move |pairs| {
                if hyper {
                    let edges = pairs
                        .iter()
                        .map(|(a, b)| {
                            let mut e = vec![NodeId(*a as u32)];
                            if b != a {
                                e.push(NodeId(*b as u32));
                            }
                            e
                        })
                        .collect();
                    Topology::Hypergraph(Hypergraph::new(n, edges))
                } else {
                    let mut b = GraphBuilder::new(n);
                    for (u, v) in pairs {
                        if u != v {
                            b.try_add_edge(NodeId(u as u32), NodeId(v as u32));
                        }
                    }
                    Topology::Graph(b.build())
                }
            })
    })
}

fn arb_pinning() -> impl Strategy<Value = Option<PartialConfig>> {
    (
        1usize..16,
        proptest::collection::vec((0usize..16, any::<u32>()), 0..8),
        any::<bool>(),
    )
        .prop_map(|(n, pins, some)| {
            if !some {
                return None;
            }
            let mut tau = PartialConfig::empty(n);
            for (v, val) in pins {
                if v < n {
                    tau.pin(NodeId(v as u32), Value(val));
                }
            }
            Some(tau)
        })
}

fn arb_backend() -> impl Strategy<Value = Backend> {
    (0u8..4, any::<u32>()).prop_map(|(tag, k)| match tag {
        0 => Backend::Exact,
        1 => Backend::Glauber {
            sweeps: SweepBudget::Auto,
        },
        2 => Backend::Glauber {
            sweeps: SweepBudget::Fixed(k),
        },
        _ => Backend::Auto,
    })
}

fn arb_served_backend() -> impl Strategy<Value = ServedBackend> {
    (any::<bool>(), any::<u32>()).prop_map(|(glauber, sweeps)| {
        if glauber {
            ServedBackend::Glauber { sweeps }
        } else {
            ServedBackend::Exact
        }
    })
}

fn arb_spec() -> impl Strategy<Value = EngineSpec> {
    (
        arb_model(),
        arb_topology(),
        arb_pinning(),
        any::<u64>(),
        any::<u64>(),
        arb_backend(),
    )
        .prop_map(
            |(model, topology, pinning, eps, delta, backend)| EngineSpec {
                model,
                topology,
                pinning,
                epsilon: f64_from(eps),
                delta: f64_from(delta),
                backend,
            },
        )
}

fn arb_duration() -> impl Strategy<Value = Duration> {
    (any::<u64>(), 0u32..1_000_000_000).prop_map(|(s, n)| Duration::new(s, n))
}

fn arb_output() -> impl Strategy<Value = TaskOutput> {
    (
        0u8..3,
        proptest::collection::vec(any::<u32>(), 0..20),
        proptest::collection::vec(any::<u64>(), 0..6),
        any::<u64>(),
        0u8..3,
    )
        .prop_map(|(tag, vals, floats, x, decode_tag)| match tag {
            0 => TaskOutput::Sample {
                config: Config::from_values(vals.iter().map(|v| Value(*v)).collect()),
                decoded: match decode_tag {
                    0 => SampleDecode::Spins,
                    1 => SampleDecode::Matching(vals.iter().map(|v| EdgeId(*v)).collect()),
                    _ => SampleDecode::HypergraphMatching(
                        vals.iter().map(|v| HyperEdgeId(*v)).collect(),
                    ),
                },
            },
            1 => TaskOutput::Marginal {
                distribution: floats.iter().map(|b| f64_from(*b)).collect(),
                probability: f64_from(x),
            },
            _ => TaskOutput::Count {
                log_z: f64_from(x),
                log_error_bound: f64_from(x.rotate_left(17)),
            },
        })
}

fn arb_report() -> impl Strategy<Value = RunReport> {
    (
        (arb_task(), any::<u64>(), arb_output(), any::<bool>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0u8..2, any::<u64>(), 0usize..4),
        (arb_duration(), arb_duration()),
        (arb_served_backend(), 0u8..2),
    )
        .prop_map(
            |(
                (task, seed, output, succeeded),
                (rounds, bound_bits, rate_bits),
                (has_stats, stat_bits, n_phases),
                (wall, phase_wall),
                (backend, has_glauber),
            )| {
                RunReport {
                    task,
                    seed,
                    output,
                    succeeded,
                    rounds: (rounds % (1 << 40)) as usize,
                    bound_rounds: f64_from(bound_bits),
                    rate: f64_from(rate_bits),
                    backend,
                    stats: (has_stats == 1).then(|| JvvStats {
                        acceptance_product: f64_from(stat_bits),
                        clamped: (stat_bits % 7) as usize,
                        repair_failures: (stat_bits % 3) as usize,
                        locality: (stat_bits % 100) as usize,
                    }),
                    glauber: (has_glauber == 1).then(|| GlauberStats {
                        sweeps: (stat_bits % 4096) as usize,
                        site_updates: stat_bits.rotate_right(9),
                        last_sweep_changes: (stat_bits % 257) as usize,
                        locality: (stat_bits % 5) as usize,
                    }),
                    wall_time: wall,
                    phases: (0..n_phases)
                        .map(|i| {
                            Phase::new(
                                PHASE_NAMES[(i + stat_bits as usize) % PHASE_NAMES.len()],
                                phase_wall,
                                i * 3,
                            )
                        })
                        .collect(),
                }
            },
        )
}

fn arb_server_stats() -> impl Strategy<Value = ServerStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0usize..10_000, 0usize..10_000),
        (arb_duration(), arb_duration(), arb_duration()),
    )
        .prop_map(
            |(
                (submitted, rejected, completed, failed),
                (cache_hits, cache_misses, engine_executions),
                (queue_depth, peak_queue_depth),
                (p50, p99, uptime),
            )| ServerStats {
                submitted,
                rejected,
                completed,
                failed,
                cache_hits,
                cache_misses,
                engine_executions,
                queue_depth,
                peak_queue_depth,
                p50_latency: p50,
                p99_latency: p99,
                uptime,
            },
        )
}

fn arb_histogram_snapshot() -> impl Strategy<Value = HistogramSnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
    )
        .prop_map(|(count, sum, max, buckets)| HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        })
}

fn arb_metric_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..24)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn arb_metrics_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((arb_metric_name(), any::<u64>()), 0..6),
        proptest::collection::vec((arb_metric_name(), any::<i64>()), 0..6),
        proptest::collection::vec((arb_metric_name(), arb_histogram_snapshot()), 0..4),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    (
        0u8..8,
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(tag, x, msg)| {
            let msg = String::from_utf8_lossy(&msg).into_owned();
            match tag {
                0 => WireError::Overloaded {
                    queue_depth: (x % 100_000) as usize,
                    watermark: (x % 4096) as usize,
                },
                1 => WireError::ShuttingDown,
                2 => WireError::UnknownFingerprint(x),
                3 => WireError::Rejected(msg),
                4 => WireError::Engine(msg),
                5 => WireError::Cancelled,
                6 => WireError::Expired,
                _ => WireError::Malformed(msg),
            }
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        0u8..5,
        arb_spec(),
        any::<u64>(),
        arb_task(),
        (any::<bool>(), arb_duration()),
    )
        .prop_map(|(id, tag, spec, x, task, (bounded, budget))| Request {
            id,
            op: match tag {
                0 => Op::Ping,
                1 => Op::Register(Box::new(spec)),
                2 => Op::Run {
                    fingerprint: x,
                    task,
                    seed: x.rotate_left(13),
                    deadline: bounded.then_some(budget),
                },
                3 => Op::Stats { fingerprint: x },
                _ => Op::Metrics,
            },
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        (any::<u64>(), 0u8..6),
        arb_report(),
        arb_server_stats(),
        arb_wire_error(),
        arb_metrics_snapshot(),
        any::<u64>(),
    )
        .prop_map(|((id, tag), report, stats, error, metrics, fp)| Response {
            id,
            reply: match tag {
                0 => Reply::Pong,
                1 => Reply::Registered { fingerprint: fp },
                2 => Reply::Report(Box::new(report)),
                3 => Reply::Stats(Box::new(stats)),
                4 => Reply::Error(error),
                _ => Reply::Metrics(Box::new(metrics)),
            },
        })
}

/// Round trip + canonical re-encode for any `Wire` type. Returns the
/// same `Err(String)` shape `prop_assert!` produces, so callers `?` it.
fn assert_round_trip<T: Wire>(value: &T) -> Result<(), String> {
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes).map_err(|e| format!("decode of own encoding failed: {e}"))?;
    prop_assert_eq!(&back.to_bytes(), &bytes, "re-encode is not canonical");
    Ok(())
}

proptest! {
    #[test]
    fn tasks_round_trip(task in arb_task()) {
        assert_round_trip(&task)?;
        // Task has Eq: value-level agreement too
        prop_assert_eq!(Task::from_bytes(&task.to_bytes()).unwrap(), task);
    }

    #[test]
    fn model_specs_round_trip_bit_exactly(model in arb_model()) {
        assert_round_trip(&model)?;
        // the fingerprint — the cross-process identity — survives the wire
        let back = ModelSpec::from_bytes(&model.to_bytes()).unwrap();
        prop_assert_eq!(back.fingerprint(), model.fingerprint());
    }

    #[test]
    fn topologies_round_trip_with_identical_fingerprints(topo in arb_topology()) {
        assert_round_trip(&topo)?;
        let back = Topology::from_bytes(&topo.to_bytes()).unwrap();
        prop_assert_eq!(back.fingerprint(), topo.fingerprint());
        prop_assert_eq!(back.node_count(), topo.node_count());
    }

    #[test]
    fn engine_specs_round_trip(spec in arb_spec()) {
        assert_round_trip(&spec)?;
    }

    #[test]
    fn run_reports_round_trip(report in arb_report()) {
        assert_round_trip(&report)?;
    }

    #[test]
    fn server_stats_round_trip(stats in arb_server_stats()) {
        assert_round_trip(&stats)?;
    }

    #[test]
    fn metrics_snapshots_round_trip(snapshot in arb_metrics_snapshot()) {
        assert_round_trip(&snapshot)?;
        // MetricsSnapshot has PartialEq: value-level agreement too
        prop_assert_eq!(
            MetricsSnapshot::from_bytes(&snapshot.to_bytes()).unwrap(),
            snapshot
        );
    }

    #[test]
    fn histogram_snapshots_round_trip(h in arb_histogram_snapshot()) {
        assert_round_trip(&h)?;
        prop_assert_eq!(HistogramSnapshot::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn requests_and_responses_round_trip(req in arb_request(), resp in arb_response()) {
        assert_round_trip(&req)?;
        assert_round_trip(&resp)?;
    }

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // decoding arbitrary bytes as any protocol type returns a typed
        // result — Ok or Err — and never panics or over-allocates
        let _ = Task::from_bytes(&bytes);
        let _ = ModelSpec::from_bytes(&bytes);
        let _ = Topology::from_bytes(&bytes);
        let _ = EngineSpec::from_bytes(&bytes);
        let _ = RunReport::from_bytes(&bytes);
        let _ = ServerStats::from_bytes(&bytes);
        let _ = WireError::from_bytes(&bytes);
        let _ = MetricsSnapshot::from_bytes(&bytes);
        let _ = HistogramSnapshot::from_bytes(&bytes);
        let _ = Request::from_bytes(&bytes);
        let _ = Response::from_bytes(&bytes);
    }

    #[test]
    fn every_strict_prefix_of_a_valid_encoding_fails_cleanly(resp in arb_response()) {
        let bytes = resp.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                Response::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte response decoded", bytes.len()
            );
        }
    }

    #[test]
    fn flipping_the_tag_byte_is_typed(task in arb_task()) {
        // corrupt the tag: decode must yield Malformed, not panic
        let mut bytes = task.to_bytes();
        bytes[0] = 0xEE;
        prop_assert!(Task::from_bytes(&bytes).is_err());
    }
}

/// Encodes a `RunReport` in the **protocol-v1** layout (no backend, no
/// Glauber stats, a trailing sharding byte) and feeds it to the current
/// decoder: an old-version peer's bytes must produce a typed
/// error, never a panic and never a silent misdecode. (The frame-level
/// version gate rejects such peers first; this covers the codec layer
/// on its own.)
#[test]
fn v1_report_bytes_fail_typed_on_the_v2_decoder() {
    let mut w = Writer::new();
    Task::SampleApprox.encode(&mut w);
    w.put_u64(7); // seed
    TaskOutput::Sample {
        config: Config::from_values(vec![Value(0), Value(1)]),
        decoded: SampleDecode::Spins,
    }
    .encode(&mut w);
    w.put_bool(true); // succeeded
    w.put_usize(12); // rounds
    w.put_f64(34.5); // bound_rounds
    w.put_f64(0.25); // rate

    // v1 continued directly with Option<JvvStats>: no backend byte
    w.put_u8(0); // stats: None
    Duration::from_millis(3).encode(&mut w); // wall_time
    w.put_usize(0); // phases: empty
    w.put_u8(0); // sharding: None
    let v1 = w.into_bytes();
    let err = RunReport::from_bytes(&v1).expect_err("v1 bytes must not decode as v2");
    // any CodecError variant is fine — the point is a typed failure
    let _ = err.to_string();
}

/// Same for the v1 `EngineSpec` layout, which ended at `delta`: the v2
/// decoder wants a backend tag and must fail typed on its absence.
#[test]
fn v1_spec_bytes_fail_typed_on_the_v2_decoder() {
    let mut spec = EngineSpec::new(
        ModelSpec::Hardcore { lambda: 0.5 },
        Topology::Graph(lds::graph::generators::cycle(4)),
    );
    spec.backend = Backend::Exact;
    let mut v2 = spec.to_bytes();
    v2.pop(); // drop the trailing backend byte => the v1 layout
    let err = EngineSpec::from_bytes(&v2).expect_err("v1 spec bytes must not decode as v2");
    let _ = err.to_string();
}

/// One live server shared by every `soup` case below: the property is
/// precisely that no hostile byte stream can damage it for the next
/// connection, so reusing it across cases *is* the assertion.
fn soup_server() -> std::net::SocketAddr {
    use std::sync::OnceLock;
    static SERVER: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *SERVER.get_or_init(|| {
        let server = lds::net::NetServer::with_defaults("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        std::mem::forget(server); // lives for the whole test binary
        addr
    })
}

proptest! {
    /// Mid-stream corruption: a well-formed request frame followed by
    /// random byte soup on the same connection. The server must answer
    /// the valid frame, then either reply typed (`Malformed`) or close
    /// the connection cleanly — never panic, never desync into treating
    /// soup bytes as a frame of the *next* connection.
    #[test]
    fn byte_soup_after_a_valid_frame_fails_typed_and_never_wedges(
        soup in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        use std::io::{Read, Write};
        let addr = soup_server();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // a valid Ping frame, answered before the soup arrives
        let ping = Request { id: 1, op: Op::Ping };
        lds::net::frame::write_frame(&mut stream, &ping.to_bytes(), 1 << 20).unwrap();
        let pong = lds::net::frame::read_frame(&mut stream, 1 << 20).unwrap();
        let pong = Response::from_bytes(&pong).unwrap();
        prop_assert!(matches!(pong.reply, Reply::Pong));

        // now the soup — the reader sees it where a header belongs
        stream.write_all(&soup).unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);

        // the server answers typed and/or closes; reading must
        // terminate (never hang) and every complete frame must decode.
        // A reset is a legitimate close here — the server tearing down
        // a connection that still has unread soup buffered RSTs, which
        // may also truncate its own final frame in transit.
        let mut rest = Vec::new();
        let reset = match stream.read_to_end(&mut rest) {
            Ok(_) => false,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => true,
            Err(e) => return Err(format!("reading the server's last words failed: {e}")),
        };
        let mut at = 0usize;
        while rest.len() - at >= lds::net::frame::HEADER_LEN {
            let header: [u8; lds::net::frame::HEADER_LEN] =
                rest[at..at + lds::net::frame::HEADER_LEN].try_into().unwrap();
            let len = lds::net::frame::parse_header(&header, 1 << 20).unwrap() as usize;
            at += lds::net::frame::HEADER_LEN;
            if rest.len() - at < len {
                prop_assert!(reset, "truncated frame without a reset");
                break;
            }
            let resp = Response::from_bytes(&rest[at..at + len]).unwrap();
            at += len;
            prop_assert!(
                matches!(resp.reply, Reply::Error(WireError::Malformed(_))),
                "soup must only ever elicit Malformed, got {:?}", resp.reply
            );
        }
        prop_assert!(
            at == rest.len() || reset,
            "trailing partial garbage from the server without a reset"
        );

        // a fresh connection is served: the soup damaged nothing
        let mut client = lds::net::Client::connect(addr).unwrap();
        client.ping().unwrap();
    }
}
