//! CI perf telemetry: run the tracked `runtime` / `jvv` / `serving`
//! workloads in quick mode, emit a `BENCH_runtime.json` summary
//! (lower-quartile ns per op for identical-work loops, median over the
//! fixed seed set for the per-seed JVV passes; pool width; git sha),
//! and fail if any tracked metric regressed more than 25% against the
//! committed `bench/baseline.json`.
//!
//! ```sh
//! cargo run -p lds-bench --release --bin perf_telemetry -- \
//!     --out BENCH_runtime.json --baseline bench/baseline.json
//! ```
//!
//! Flags: `--out PATH` (default `BENCH_runtime.json`), `--baseline PATH`
//! (skip the gate when absent), `--quick` (fewer samples — what CI
//! runs), `--write-baseline` (also rewrite the baseline file with the
//! fresh numbers, for refreshing the committed reference on purpose).
//!
//! The **regression gate**: each metric present in both the run and the
//! baseline must be `≤ 1.25×` its baseline median.
//!
//! The emitted JSON carries a second `serving` section: coalesced
//! dispatch through `lds-serve` vs. one-at-a-time dispatch of the same
//! burst through a zero-window server (serial submit/wait round
//! trips), at engine pool widths 1 and 4 — the speedup isolates what
//! the coalescer buys over per-request dispatch. Only the width-1
//! coalesced cost is gated (it is dispatch overhead on an inline
//! engine, stable on any hardware); width 4 additionally has an
//! in-binary canary — on runners with real cores batch fan-out makes
//! the speedup larger, never smaller. A `net` section prices the out-of-process path the
//! same way: loopback TCP round-trips against a cache-hot tenant
//! (strict vs. pipelined ×4) plus `RunReport` codec encode/decode; only
//! the strict round-trip (`net_roundtrip_w1_ns`) is gated. A `count`
//! section prices the two-pass chain-rule counter (anchor / marginals
//! phase split at widths 1 and 4, `count_chain_w1_ns` gated) and the
//! annealed sampling-backed variant (certified error and samples per
//! level). A `backends` section prices `Task::SampleApprox` per
//! sampling backend — chain-rule vs. Glauber dynamics at widths 1 and
//! 4, with the exact-JVV width-1 cost as reference; only
//! `glauber_sample_w1_ns` is gated against the baseline, and an
//! in-binary gate requires Glauber to stay strictly below exact JVV at
//! width 1. A `resilience` section prices the fault-free cost of the
//! chaos/retry machinery on the cache-hot loopback round-trip:
//! armed-but-idle fail points vs. disarmed, and the retry-wrapped
//! client vs. the plain call — both held to ≤5% by in-binary gates,
//! with `resil_retry_roundtrip_w1_ns` gated against the baseline.
//!
//! The JSON is hand-rolled (the container vendors no serde); the
//! baseline reader scans for `"key": number` pairs regardless of
//! nesting, so section structure is cosmetic and keys stay globally
//! unique.

use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lds_engine::{Backend, Engine, ModelSpec, RunReport, SweepBudget, Task, Topology};
use lds_graph::generators;
use lds_net::{Client, EngineSpec, NetConfig, NetServer, Op, Wire};
use lds_runtime::ThreadPool;
use lds_serve::{RegistryConfig, Server, ServerConfig};

/// Median of a sample vector (ns). The right summary for series whose
/// reps do *different* work (e.g. per-seed JVV passes, where rejection
/// restarts vary by seed): it reflects the workload mix the baseline
/// was calibrated on.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// 25th percentile of a sample vector (ns). The gate statistic for
/// identical-work loops: every rep does the same work, so the lower
/// quartile estimates the intrinsic cost while shrugging off host-load
/// bursts that can own the median on a busy shared runner. A real
/// regression shifts the whole distribution — this quantile included —
/// so the gate still catches it.
fn lower_quartile(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 4]
}

/// Times `body` `samples` times (after one warmup) and returns the
/// lower-quartile ns per call, where `body` performs `per_sample_ops`
/// identical ops per rep.
fn measure<F: FnMut()>(samples: usize, per_sample_ops: usize, mut body: F) -> f64 {
    body(); // warmup
    let mut xs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        body();
        xs.push(start.elapsed().as_nanos() as f64 / per_sample_ops as f64);
    }
    lower_quartile(xs)
}

fn small_item(x: &u64) -> u64 {
    (0..32u64).fold(*x, |a, b| a.wrapping_mul(0x9e37_79b9).wrapping_add(b))
}

fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extracts every `"key": <number>` pair from a flat JSON text. Tolerant
/// by construction: non-numeric values are skipped, nesting is ignored.
fn parse_metrics(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let Some(end) = text[i + 1..].find('"').map(|e| i + 1 + e) else {
            break;
        };
        let key = &text[i + 1..end];
        let mut j = end + 1;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b':' {
            j += 1;
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            let num_end = text[j..]
                .find(|c: char| {
                    !(c.is_ascii_digit()
                        || c == '.'
                        || c == '-'
                        || c == 'e'
                        || c == 'E'
                        || c == '+')
                })
                .map(|e| j + e)
                .unwrap_or(text.len());
            if let Ok(v) = text[j..num_end].parse::<f64>() {
                out.push((key.to_string(), v));
            }
            i = num_end;
        } else {
            i = end + 1;
        }
    }
    out
}

fn render_json(sha: &str, quick: bool, sections: &[(&str, &[(String, f64)])]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"git_sha\": \"{sha}\",\n"));
    s.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        ThreadPool::available().threads()
    ));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    for (si, (name, metrics)) in sections.iter().enumerate() {
        let section_comma = if si + 1 == sections.len() { "" } else { "," };
        s.push_str(&format!("  \"{name}\": {{\n"));
        for (i, (k, v)) in metrics.iter().enumerate() {
            let comma = if i + 1 == metrics.len() { "" } else { "," };
            s.push_str(&format!("    \"{k}\": {v:.1}{comma}\n"));
        }
        s.push_str(&format!("  }}{section_comma}\n"));
    }
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_runtime.json".to_string());
    let baseline_path = flag("--baseline");
    let quick = args.iter().any(|a| a == "--quick");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let samples = if quick { 9 } else { 25 };

    let mut metrics: Vec<(String, f64)> = Vec::new();

    // --- pool metrics: many small par_map calls per sample ---
    const CALLS: usize = 64;
    let items: Vec<u64> = (0..8).collect();
    for width in [1usize, 4] {
        let pool = ThreadPool::new(width);
        let persistent = measure(samples, CALLS, || {
            for _ in 0..CALLS {
                std::hint::black_box(pool.par_map(&items, small_item));
            }
        });
        metrics.push((format!("pool_par_map_w{width}_ns"), persistent));
    }

    // --- engine batch throughput, width 1 (the sequential reference the
    // runtime bench compares widths against) ---
    let engine = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(10))
        .epsilon(0.01)
        .threads(1)
        .build()
        .expect("in regime");
    let seeds: Vec<u64> = (0..8).collect();
    // a batch costs ~0.5 ms, so extra reps are free — and this metric
    // is gated, so its median must not wander with host-load spikes
    let batch_ns = measure(samples.max(21), seeds.len(), || {
        std::hint::black_box(engine.run_batch(Task::SampleExact, &seeds).unwrap());
    });
    metrics.push(("run_batch_per_sample_ns".to_string(), batch_ns));

    // --- local-JVV per-pass wall clock (the jvv bench's serving-path
    // phases), width 1 on a torus ---
    let engine = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::torus(4, 4))
        .epsilon(0.01)
        .threads(1)
        .build()
        .expect("in regime");
    let mut ground = Vec::new();
    let mut sample = Vec::new();
    let mut reject = Vec::new();
    // per-seed work differs (rejection restarts are Las Vegas), so the
    // seed set is part of each metric's identity — keep it fixed and
    // summarize with the median over seeds
    for rep in 0..samples.min(11) as u64 {
        let report = engine.run_with_seed(Task::SampleExact, rep).unwrap();
        for phase in &report.phases {
            let ns = phase.wall_time.as_nanos() as f64;
            match phase.name {
                "ground" => ground.push(ns),
                "sample" => sample.push(ns),
                "reject" => reject.push(ns),
                _ => {}
            }
        }
    }
    metrics.push(("jvv_pass1_ground_ns".to_string(), median(ground)));
    metrics.push(("jvv_pass2_sample_ns".to_string(), median(sample)));
    metrics.push(("jvv_pass3_reject_ns".to_string(), median(reject)));

    // --- serving section: coalesced dispatch vs one-at-a-time
    // dispatch, per engine pool width (cache disabled — this measures
    // dispatch shape, not replay). Both shapes go through the server:
    // one-at-a-time is a serial client (submit, wait, repeat) against
    // an opportunistic zero-window server — it pays the front-end's
    // per-request dispatch cost on every request — while the coalesced
    // client bursts the same seeds into a windowed server that folds
    // them into one `run_batch`. The ratio is therefore what the
    // coalescer itself buys, independent of the raw library-vs-server
    // tax (which `serve_coalesced_w1_ns` tracks against the baseline
    // in absolute terms). ---
    let mut serving: Vec<(String, f64)> = Vec::new();
    const SERVE_BURST: u64 = 8;
    for width in [1usize, 4] {
        let eng = Arc::new(
            Engine::builder()
                .model(ModelSpec::Hardcore { lambda: 1.0 })
                .graph(generators::cycle(10))
                .epsilon(0.01)
                .threads(width)
                .build()
                .expect("in regime"),
        );
        let serial_server = Server::new(
            Arc::clone(&eng),
            ServerConfig {
                workers: 1,
                coalesce_window: Duration::ZERO,
                max_batch: SERVE_BURST as usize,
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        );
        let server = Server::new(
            Arc::clone(&eng),
            ServerConfig {
                workers: 1,
                coalesce_window: Duration::from_millis(2),
                max_batch: SERVE_BURST as usize,
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        );
        // Paired, interleaved measurement: each iteration times both
        // dispatch shapes back-to-back, so a scheduler interference
        // burst on a shared host lands on both series instead of
        // skewing the ratio of two medians taken seconds apart. The
        // windows are tiny (~µs per burst), so extra reps are free and
        // buy most of the stability.
        let reps = samples.max(21);
        let mut one_ns = Vec::with_capacity(reps);
        let mut co_ns = Vec::with_capacity(reps);
        let mut ratios = Vec::with_capacity(reps);
        let mut seed = 0u64;
        let mut co_seed = 1_000_000u64;
        for rep in 0..=reps {
            let start = Instant::now();
            for _ in 0..SERVE_BURST {
                seed += 1;
                let ticket = serial_server.submit(Task::SampleExact, seed).unwrap();
                std::hint::black_box(ticket.wait().unwrap());
            }
            let one = start.elapsed().as_nanos() as f64 / SERVE_BURST as f64;
            let start = Instant::now();
            let tickets: Vec<_> = (0..SERVE_BURST)
                .map(|_| {
                    co_seed += 1;
                    server.submit(Task::SampleExact, co_seed).unwrap()
                })
                .collect();
            for t in tickets {
                std::hint::black_box(t.wait().unwrap());
            }
            let co = start.elapsed().as_nanos() as f64 / SERVE_BURST as f64;
            if rep > 0 {
                // rep 0 is the warmup for both shapes
                one_ns.push(one);
                co_ns.push(co);
                ratios.push(one / co);
            }
        }
        // identical work per rep → lower-quartile cost estimates
        let one_at_a_time = lower_quartile(one_ns);
        let coalesced = lower_quartile(co_ns);
        // The speedup is the median of per-rep ratios, not the ratio of
        // the two medians: a stall that lands on one series in one rep
        // shifts that rep's ratio, but the median of 21+ paired ratios
        // shrugs it off, where a ratio of independently-noisy medians
        // would not.
        let speedup = median(ratios);
        serving.push((format!("serve_one_at_a_time_w{width}_ns"), one_at_a_time));
        serving.push((format!("serve_coalesced_w{width}_ns"), coalesced));
        serving.push((format!("serve_coalesce_speedup_w{width}"), speedup));
    }

    // --- net section: the out-of-process serving overhead over real
    // loopback TCP. The repeated seed hits the tenant's idempotency
    // cache, so the round-trip numbers measure the wire (frame + codec +
    // session threads + dispatch), not the engine. Depth 1 is strict
    // request/response; depth 4 keeps four requests pipelined on the
    // connection and amortizes the syscall round-trips. The codec
    // numbers price serializing a real RunReport. ---
    let mut net: Vec<(String, f64)> = Vec::new();
    {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                registry: RegistryConfig {
                    server: ServerConfig {
                        workers: 1,
                        coalesce_window: Duration::ZERO,
                        ..ServerConfig::default()
                    },
                    ..RegistryConfig::default()
                },
                ..NetConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect loopback");
        let spec = EngineSpec::new(
            ModelSpec::Hardcore { lambda: 1.0 },
            Topology::Graph(generators::cycle(10)),
        );
        let fp = client.register(&spec).expect("register tenant");

        const NET_OPS: usize = 16;
        const PIPELINE: usize = 4;
        // the strict round-trip is gated and syscall-bound (~25 µs/op),
        // so extra reps are cheap stability
        let one_at_a_time = measure(samples.max(21), NET_OPS, || {
            for _ in 0..NET_OPS {
                std::hint::black_box(client.run(fp, Task::SampleExact, 7).unwrap());
            }
        });
        let pipelined = measure(samples.max(21), NET_OPS, || {
            for _ in 0..NET_OPS / PIPELINE {
                for _ in 0..PIPELINE {
                    client
                        .send(Op::Run {
                            fingerprint: fp,
                            task: Task::SampleExact,
                            seed: 7,
                            deadline: None,
                        })
                        .unwrap();
                }
                for _ in 0..PIPELINE {
                    std::hint::black_box(client.recv().unwrap());
                }
            }
        });
        net.push(("net_roundtrip_w1_ns".to_string(), one_at_a_time));
        net.push((format!("net_roundtrip_w{PIPELINE}_ns"), pipelined));
        net.push((
            format!("net_pipeline_speedup_w{PIPELINE}"),
            one_at_a_time / pipelined,
        ));

        let report = spec
            .build()
            .expect("in regime")
            .run_with_seed(Task::SampleExact, 7)
            .expect("sample");
        let bytes = report.to_bytes();
        const CODEC_OPS: usize = 64;
        let encode = measure(samples, CODEC_OPS, || {
            for _ in 0..CODEC_OPS {
                std::hint::black_box(report.to_bytes());
            }
        });
        let decode = measure(samples, CODEC_OPS, || {
            for _ in 0..CODEC_OPS {
                std::hint::black_box(RunReport::from_bytes(&bytes).unwrap());
            }
        });
        net.push(("net_codec_encode_report_ns".to_string(), encode));
        net.push(("net_codec_decode_report_ns".to_string(), decode));
        net.push(("net_report_payload_bytes".to_string(), bytes.len() as f64));
        server.shutdown();
    }

    // --- count section: the two-pass chain-rule counter through the
    // engine (Task::Count) on cycle(48), per pool width. The anchor
    // pass is a cheap coarse-precision sequential walk; the marginal
    // pass fans the frozen chain across the pool — the per-phase split
    // comes straight from RunReport::phases. Only the width-1 chain
    // cost is gated (compute on an inline pool, stable on any
    // hardware); width 4 is trend telemetry like serving. The annealed
    // rows price the sampling-backed anytime variant: certified error
    // achieved per level and the samples the stopping rule spent. ---
    let mut count: Vec<(String, f64)> = Vec::new();
    for width in [1usize, 4] {
        let engine = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(48))
            .epsilon(0.05)
            .threads(width)
            .build()
            .expect("in regime");
        let mut total = Vec::new();
        let mut anchor = Vec::new();
        let mut marginals = Vec::new();
        // one chain costs ~50 µs; the width-1 total is gated, so buy
        // estimator stability with extra reps
        for rep in 0..samples.max(21) as u64 {
            let report = engine.run_with_seed(Task::Count, rep).unwrap();
            let mut chain = 0.0;
            for phase in &report.phases {
                let ns = phase.wall_time.as_nanos() as f64;
                chain += ns;
                match phase.name {
                    "anchor" => anchor.push(ns),
                    "marginals" => marginals.push(ns),
                    _ => {}
                }
            }
            total.push(chain);
        }
        // the two-pass estimator is deterministic — every rep is
        // identical work, so the lower quartile is the cost estimate
        count.push((format!("count_chain_w{width}_ns"), lower_quartile(total)));
        count.push((format!("count_anchor_w{width}_ns"), lower_quartile(anchor)));
        count.push((
            format!("count_marginals_w{width}_ns"),
            lower_quartile(marginals),
        ));
    }
    {
        use lds_core::counting::{self, AnnealedConfig};
        use lds_gibbs::models::{hardcore, two_spin::TwoSpinParams};
        use lds_gibbs::PartialConfig;
        use lds_oracle::{DecayRate, TwoSpinSawOracle};
        let g = generators::cycle(12);
        let model = hardcore::model(&g, 1.0);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let cfg = AnnealedConfig {
            eps: 0.35,
            max_samples_per_level: 2048,
            ..AnnealedConfig::default()
        };
        let run = counting::log_partition_function_annealed(
            &model,
            &PartialConfig::empty(12),
            &oracle,
            &cfg,
            7,
            &ThreadPool::new(1),
        )
        .expect("annealed count");
        count.push((
            "count_annealed_level_err".to_string(),
            run.estimate.log_error_bound / run.levels.max(1) as f64,
        ));
        count.push((
            "count_annealed_samples_per_level".to_string(),
            run.samples as f64 / run.levels.max(1) as f64,
        ));
        count.push((
            "count_annealed_certified_levels".to_string(),
            run.certified_levels as f64,
        ));
    }

    // --- backends section: what serving `Task::SampleApprox` costs per
    // sampling backend on the reference workload (hardcore λ = 1 on
    // cycle(10) — the same instance the engine batch metric uses), at
    // widths 1 and 4. The chain-rule sampler pays one radius-t ball
    // enumeration per node; Glauber pays `sweeps` passes of factor-table
    // lookups per site and no oracle queries at all — that gap is the
    // point of the backend, and `glauber_sample_w1_ns` is gated so it
    // cannot quietly erode. The width-1 exact-JVV cost rides along as
    // the in-binary reference: Glauber must undercut it (see the
    // backends gate below). ---
    let mut backends: Vec<(String, f64)> = Vec::new();
    let mut glauber_w1 = f64::INFINITY;
    let mut jvv_w1 = f64::INFINITY;
    for width in [1usize, 4] {
        let build = |backend: Backend| {
            Engine::builder()
                .model(ModelSpec::Hardcore { lambda: 1.0 })
                .graph(generators::cycle(10))
                .epsilon(0.01)
                .threads(width)
                .backend(backend)
                .build()
                .expect("in regime")
        };
        let exact = build(Backend::Exact);
        let glauber = build(Backend::Glauber {
            sweeps: SweepBudget::Auto,
        });
        let seeds: Vec<u64> = (0..8).collect();
        // both paths are deterministic identical work per rep; the
        // width-1 Glauber cost is gated, so buy stability with reps
        let chain_ns = measure(samples.max(21), seeds.len(), || {
            std::hint::black_box(exact.run_batch(Task::SampleApprox, &seeds).unwrap());
        });
        let glauber_ns = measure(samples.max(21), seeds.len(), || {
            std::hint::black_box(glauber.run_batch(Task::SampleApprox, &seeds).unwrap());
        });
        backends.push((format!("approx_chain_w{width}_ns"), chain_ns));
        backends.push((format!("glauber_sample_w{width}_ns"), glauber_ns));
        if width == 1 {
            glauber_w1 = glauber_ns;
            let jvv_ns = measure(samples.max(21), seeds.len(), || {
                std::hint::black_box(exact.run_batch(Task::SampleExact, &seeds).unwrap());
            });
            jvv_w1 = jvv_ns;
            backends.push(("jvv_exact_sample_w1_ns".to_string(), jvv_ns));
            let sweeps = glauber
                .run(Task::SampleApprox)
                .expect("in regime")
                .glauber_sweeps()
                .expect("Glauber served") as f64;
            backends.push(("glauber_sweeps_resolved".to_string(), sweeps));
        }
    }

    // --- obs section: what the observability layer costs when it is
    // actually on. The registry counters are lock-free atomics that are
    // always live; the knob is span *tracing* (`trace::set_sampling`),
    // off by default. Paired, interleaved measurement of the reference
    // width-1 batch (same instance as `run_batch_per_sample_ns`) with
    // sampling off and on: the lower quartile of the per-rep ratios is
    // the overhead estimate,
    // and the in-binary gate below holds it to ≤5% — the contract that
    // lets the instrumentation stay compiled into the hot path. The
    // ledger rows surface the round-complexity observables every
    // sampling run in this binary recorded against the paper's bounds;
    // violations are a hard gate, not telemetry. ---
    let mut obs: Vec<(String, f64)> = Vec::new();
    let obs_overhead;
    let ledger_summary;
    {
        use lds_obs::trace;
        let engine = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(10))
            .epsilon(0.01)
            .threads(1)
            .build()
            .expect("in regime");
        let seeds: Vec<u64> = (0..8).collect();
        // the ≤5% gate leaves little noise headroom, so this section
        // widens each timed window (4 batches ≈ 2 ms) and takes more
        // paired reps than the others: per-window scheduler noise
        // shrinks with window length, and the quantile below does the
        // rest
        const OBS_BATCHES: usize = 4;
        let reps = samples.max(41);
        let mut off_ns = Vec::with_capacity(reps);
        let mut on_ns = Vec::with_capacity(reps);
        let mut ratios = Vec::with_capacity(reps);
        let per_window = (seeds.len() * OBS_BATCHES) as f64;
        let window = |sampling: u32| {
            trace::set_sampling(sampling);
            let start = Instant::now();
            for _ in 0..OBS_BATCHES {
                std::hint::black_box(engine.run_batch(Task::SampleExact, &seeds).unwrap());
            }
            let ns = start.elapsed().as_nanos() as f64 / per_window;
            // scraping the ring is the consumer's cost, not the
            // producer's — drain outside the timed window
            std::hint::black_box(trace::drain());
            ns
        };
        for rep in 0..=reps {
            // alternate which window runs first so the second-runs-
            // warmer ordering effect cancels across reps instead of
            // biasing the ratio one way
            let (off, on) = if rep % 2 == 0 {
                let off = window(0);
                (off, window(1))
            } else {
                let on = window(1);
                (window(0), on)
            };
            if rep > 0 {
                off_ns.push(off);
                on_ns.push(on);
                ratios.push(on / off);
            }
        }
        trace::set_sampling(0);
        // lower quartile, same reasoning as the other identical-work
        // loops: a real instrumentation cost shifts every rep's ratio,
        // this quantile included, while a host-load burst that lands on
        // one series in a few reps does not drag the estimate with it
        obs_overhead = lower_quartile(ratios);
        obs.push((
            "obs_disabled_run_batch_per_sample_ns".to_string(),
            lower_quartile(off_ns),
        ));
        obs.push((
            "obs_instrumented_run_batch_per_sample_ns".to_string(),
            lower_quartile(on_ns),
        ));
        obs.push((
            "obs_trace_overhead_pct".to_string(),
            (obs_overhead - 1.0) * 100.0,
        ));
        ledger_summary = lds_obs::ledger().summary();
        obs.push((
            "obs_ledger_observations".to_string(),
            ledger_summary.observations as f64,
        ));
        obs.push((
            "obs_ledger_violations".to_string(),
            ledger_summary.violations as f64,
        ));
        obs.push(("obs_ledger_max_ratio".to_string(), ledger_summary.max_ratio));
        let snap = lds_obs::global().snapshot();
        obs.push((
            "obs_registry_counters".to_string(),
            snap.counters.len() as f64,
        ));
        obs.push(("obs_registry_gauges".to_string(), snap.gauges.len() as f64));
        obs.push((
            "obs_registry_histograms".to_string(),
            snap.histograms.len() as f64,
        ));
    }

    // --- resilience section: what the chaos/retry machinery costs when
    // nothing is failing — the contract that lets fail points stay
    // compiled into the serving path and lets callers default to the
    // retry-wrapped client. Two paired, interleaved measurements of the
    // cache-hot strict round-trip (same workload as
    // `net_roundtrip_w1_ns`): (1) fail points armed on a site no hot
    // path ever hits vs. fully disarmed — armed-but-idle means every
    // `chaos::point` consults the registry instead of one relaxed load;
    // (2) `run_retrying` (fault-free: classify + attempt bookkeeping,
    // no retries fire) vs. plain `run`. Both in-binary gates hold the
    // overhead to ≤5%. ---
    let mut resilience: Vec<(String, f64)> = Vec::new();
    let armed_idle_overhead;
    let retry_overhead;
    {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                registry: RegistryConfig {
                    server: ServerConfig {
                        workers: 1,
                        coalesce_window: Duration::ZERO,
                        ..ServerConfig::default()
                    },
                    ..RegistryConfig::default()
                },
                ..NetConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect loopback");
        let spec = EngineSpec::new(
            ModelSpec::Hardcore { lambda: 1.0 },
            Topology::Graph(generators::cycle(10)),
        );
        let fp = client.register(&spec).expect("register tenant");
        client
            .run(fp, Task::SampleExact, 7)
            .expect("warm the cache");

        const RESIL_OPS: usize = 16;
        let policy = lds_net::RetryPolicy::default();
        let reps = samples.max(41);
        let window_plain = |client: &mut Client| {
            let start = Instant::now();
            for _ in 0..RESIL_OPS {
                std::hint::black_box(client.run(fp, Task::SampleExact, 7).unwrap());
            }
            start.elapsed().as_nanos() as f64 / RESIL_OPS as f64
        };
        let window_armed = |client: &mut Client| {
            // a rule on a site nothing hits: the registry is armed, every
            // fail point takes the consult path, no fault ever fires
            let _guard = lds_chaos::arm(lds_chaos::Plan::new(7).with(
                "resil.never_hit",
                lds_chaos::Trigger::Always,
                lds_chaos::Fault::Reset,
            ));
            window_plain(client)
        };
        let window_retry = |client: &mut Client| {
            let start = Instant::now();
            for _ in 0..RESIL_OPS {
                std::hint::black_box(
                    client
                        .run_retrying(fp, Task::SampleExact, 7, &policy)
                        .unwrap(),
                );
            }
            start.elapsed().as_nanos() as f64 / RESIL_OPS as f64
        };
        // paired, order-alternating reps, same reasoning as the obs
        // section: the ≤5% gate leaves no headroom for second-runs-
        // warmer bias or one-sided host-load bursts
        let mut plain_ns = Vec::with_capacity(reps);
        let mut armed_ns = Vec::with_capacity(reps);
        let mut armed_ratios = Vec::with_capacity(reps);
        let mut retry_ns = Vec::with_capacity(reps);
        let mut retry_ratios = Vec::with_capacity(reps);
        for rep in 0..=reps {
            let (plain, armed, retry) = if rep % 2 == 0 {
                let plain = window_plain(&mut client);
                let armed = window_armed(&mut client);
                (plain, armed, window_retry(&mut client))
            } else {
                let retry = window_retry(&mut client);
                let armed = window_armed(&mut client);
                (window_plain(&mut client), armed, retry)
            };
            if rep > 0 {
                plain_ns.push(plain);
                armed_ns.push(armed);
                armed_ratios.push(armed / plain);
                retry_ns.push(retry);
                retry_ratios.push(retry / plain);
            }
        }
        armed_idle_overhead = lower_quartile(armed_ratios);
        retry_overhead = lower_quartile(retry_ratios);
        resilience.push((
            "resil_disarmed_roundtrip_ns".to_string(),
            lower_quartile(plain_ns),
        ));
        resilience.push((
            "resil_armed_idle_roundtrip_ns".to_string(),
            lower_quartile(armed_ns),
        ));
        resilience.push((
            "resil_armed_idle_overhead_pct".to_string(),
            (armed_idle_overhead - 1.0) * 100.0,
        ));
        resilience.push((
            "resil_retry_roundtrip_w1_ns".to_string(),
            lower_quartile(retry_ns),
        ));
        resilience.push((
            "resil_retry_overhead_pct".to_string(),
            (retry_overhead - 1.0) * 100.0,
        ));
        server.shutdown();
    }

    let sha = git_sha();
    // all sections flattened, for the gates below
    let all_metrics: Vec<(String, f64)> = metrics
        .iter()
        .chain(serving.iter())
        .chain(net.iter())
        .chain(count.iter())
        .chain(backends.iter())
        .chain(obs.iter())
        .chain(resilience.iter())
        .cloned()
        .collect();
    let json = render_json(
        &sha,
        quick,
        &[
            ("metrics", &metrics[..]),
            ("serving", &serving[..]),
            ("net", &net[..]),
            ("count", &count[..]),
            ("backends", &backends[..]),
            ("obs", &obs[..]),
            ("resilience", &resilience[..]),
        ],
    );
    std::fs::write(&out_path, &json).expect("write summary");
    println!("wrote {out_path}:\n{json}");

    let mut failed = false;

    let get = |name: &str| -> f64 {
        all_metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .expect("tracked metric")
    };

    // Width-4 coalescing canary: coalesced dispatch must beat serial
    // one-at-a-time dispatch of the same burst even on a single-core
    // runner (real cores make the win bigger). The batch fan-out caps
    // its lanes at the host parallelism, so pool width beyond the
    // cores no longer costs dispatch overhead — a recurrence of that
    // regression trips this. The margin is an absolute timer-noise
    // allowance on tiny bursts, not headroom for oversubscription.
    let (one4, co4) = (
        get("serve_one_at_a_time_w4_ns"),
        get("serve_coalesced_w4_ns"),
    );
    if co4 > one4 * 1.25 + 10_000.0 {
        eprintln!(
            "FAIL serve-w4 gate: coalesced dispatch {co4:.0} ns per request vs one-at-a-time {one4:.0} ns"
        );
        failed = true;
    } else {
        println!("serve-w4 gate: coalesced {co4:.0} ns vs one-at-a-time {one4:.0} ns — ok");
    }

    // Backends gate: on the reference SampleApprox workload at width 1,
    // Glauber must undercut the exact-JVV sampler. The whole point of
    // the backend is skipping oracle queries — if a sweep of factor
    // lookups stops beating a radius-t ball enumeration per node plus
    // rejection restarts, the backend regressed (or the auto sweep plan
    // exploded). This is a strict inequality, no noise allowance: on
    // this workload the gap is multiples, not percent.
    if glauber_w1 >= jvv_w1 {
        eprintln!(
            "FAIL backends gate: glauber {glauber_w1:.0} ns per sample is not below exact JVV {jvv_w1:.0} ns at width 1"
        );
        failed = true;
    } else {
        println!(
            "backends gate: glauber {glauber_w1:.0} ns vs exact JVV {jvv_w1:.0} ns per sample ({:.1}x) — ok",
            jvv_w1 / glauber_w1
        );
    }

    // Obs gate: enabling span tracing must cost ≤5% on the reference
    // width-1 batch (lower quartile of paired per-rep ratios, so
    // host-load bursts land on both series). This is the contract that
    // keeps the
    // instrumentation compiled into the hot path: the disabled path is
    // a single relaxed atomic load per emission site, and the enabled
    // path only writes to a per-thread ring.
    if obs_overhead > 1.05 {
        eprintln!(
            "FAIL obs gate: span tracing costs {:.1}% on the width-1 batch (limit 5%)",
            (obs_overhead - 1.0) * 100.0
        );
        failed = true;
    } else {
        println!(
            "obs gate: span tracing overhead {:+.1}% on the width-1 batch — ok",
            (obs_overhead - 1.0) * 100.0
        );
    }

    // Resilience gates: the chaos/retry machinery must be free when
    // nothing fails. Armed-but-idle fail points (registry consult per
    // site instead of one relaxed load) and the retry-wrapped client
    // (classification + attempt bookkeeping, zero retries) each stay
    // within 5% of the plain cache-hot round-trip — the contract that
    // keeps fail points compiled in and makes `run_retrying` the
    // default-safe call.
    if armed_idle_overhead > 1.05 {
        eprintln!(
            "FAIL resilience gate: armed-but-idle fail points cost {:.1}% on the round-trip (limit 5%)",
            (armed_idle_overhead - 1.0) * 100.0
        );
        failed = true;
    } else {
        println!(
            "resilience gate: armed-but-idle fail points {:+.1}% on the round-trip — ok",
            (armed_idle_overhead - 1.0) * 100.0
        );
    }
    if retry_overhead > 1.05 {
        eprintln!(
            "FAIL resilience gate: the fault-free retry-wrapped call costs {:.1}% over plain (limit 5%)",
            (retry_overhead - 1.0) * 100.0
        );
        failed = true;
    } else {
        println!(
            "resilience gate: fault-free retry wrapper {:+.1}% over plain — ok",
            (retry_overhead - 1.0) * 100.0
        );
    }

    // Ledger gate: every sampling run this binary performed recorded a
    // round observable against the paper's bound; a violation means the
    // reproduction's theorem broke, which no perf number excuses.
    if ledger_summary.violations > 0 {
        eprintln!(
            "FAIL ledger gate: {} of {} round observables exceeded the paper bound (max ratio {:.2})",
            ledger_summary.violations, ledger_summary.observations, ledger_summary.max_ratio
        );
        failed = true;
    } else {
        println!(
            "ledger gate: {} round observables within the paper bounds (max ratio {:.2}) — ok",
            ledger_summary.observations, ledger_summary.max_ratio
        );
    }

    // Regression gate against the committed baseline. Only the
    // allowlisted lower-is-better metrics are ever gated: the emitted
    // JSON also carries width-4 ns numbers (synchronization-bound,
    // hardware-dependent) and higher-is-better speedup *ratios*, and a
    // `--write-baseline` refresh copies the full JSON — without the
    // allowlist those keys would silently join the gate, which for a
    // ratio means failing CI on a >25% *improvement*.
    const GATED_METRICS: &[&str] = &[
        "pool_par_map_w1_ns",
        "run_batch_per_sample_ns",
        "jvv_pass1_ground_ns",
        "jvv_pass2_sample_ns",
        "jvv_pass3_reject_ns",
        "serve_coalesced_w1_ns",
        "net_roundtrip_w1_ns",
        "count_chain_w1_ns",
        "glauber_sample_w1_ns",
        "resil_retry_roundtrip_w1_ns",
    ];
    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let baseline = parse_metrics(&text);
                // Key-drift gate: every gated key must exist on *both*
                // sides. A gated key present in the baseline but absent
                // from this run means the workload silently stopped
                // emitting it (the regression gate would skip it
                // forever); present in the run but absent from the
                // baseline means a new gated metric was added without
                // refreshing the committed reference. Either way the
                // gate has quietly gone vacuous — fail loudly instead.
                // (`--write-baseline` is the sanctioned refresh path,
                // so a baseline-side gap only warns there.)
                for key in GATED_METRICS {
                    let in_baseline = baseline.iter().any(|(k, _)| k == key);
                    let in_run = all_metrics.iter().any(|(k, _)| k == key);
                    match (in_baseline, in_run) {
                        (true, false) => {
                            eprintln!(
                                "FAIL key-drift gate: gated metric {key} is in the baseline but this run no longer emits it"
                            );
                            failed = true;
                        }
                        (false, true) if !write_baseline => {
                            eprintln!(
                                "FAIL key-drift gate: gated metric {key} has no baseline entry — refresh with --write-baseline"
                            );
                            failed = true;
                        }
                        (false, true) => {
                            println!("key-drift gate: {key} joins the baseline on this refresh");
                        }
                        _ => {}
                    }
                }
                for (key, base) in &baseline {
                    if !GATED_METRICS.contains(&key.as_str()) {
                        continue;
                    }
                    let Some((_, current)) = all_metrics.iter().find(|(k, _)| k == key) else {
                        continue;
                    };
                    if *current > base * 1.25 {
                        eprintln!(
                            "FAIL regression gate: {key} = {current:.0} ns vs baseline {base:.0} ns (>{:.0}%)",
                            (current / base - 1.0) * 100.0
                        );
                        failed = true;
                    } else {
                        println!(
                            "regression gate: {key} = {current:.0} ns vs baseline {base:.0} ns ({:+.0}%) — ok",
                            (current / base - 1.0) * 100.0
                        );
                    }
                }
                if write_baseline {
                    std::fs::write(&path, &json).expect("write baseline");
                    println!("rewrote baseline {path}");
                }
            }
            Err(e) => {
                if write_baseline {
                    std::fs::write(&path, &json).expect("write baseline");
                    println!("created baseline {path}");
                } else {
                    eprintln!("no baseline at {path} ({e}); skipping regression gate");
                }
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
