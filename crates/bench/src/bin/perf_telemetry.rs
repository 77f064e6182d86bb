//! The workspace's timing harness: a table of scenario rows. Each row
//! builds one workload, times it, and returns an `{outcome, metrics}`
//! record; a row's outcome is `failure` exactly when one of its own
//! checks failed. The records go to a `BENCH_runtime.json` summary with
//! the host's available parallelism and the git sha.
//!
//! ```sh
//! cargo run -p lds-bench --release --bin perf_telemetry -- \
//!     --out BENCH_runtime.json --baseline bench/baseline.json
//! ```
//!
//! Flags: `--out PATH` (default `BENCH_runtime.json`), `--baseline PATH`
//! (skip the baseline gates when absent), `--quick` (fewer samples — what
//! CI runs), `--write-baseline` (also rewrite the baseline file with the
//! fresh numbers, for refreshing the committed reference on purpose).
//!
//! The run fails if any of these fails:
//! - the row checks: at pool width 4, a burst through four server
//!   sessions stays within 1.25× (+10 µs) of serial dispatch
//!   (`serving`); at width 1, a repeat Count on one engine costs under
//!   a tenth of its first (`count`), local-JVV's reject pass costs at
//!   most 1.25× per node on cycle(1024) what it costs on cycle(128)
//!   (`jvv`, which also tracks the reject kernel's own share of the pass
//!   as a trend), and Glauber sampling costs strictly less than exact JVV
//!   (`backends`); span tracing (`obs`),
//!   armed-but-idle fail points and the fault-free retry wrapper
//!   (`resilience`) each cost at most 5%; the SAW oracle's `Tv(δ/n)`
//!   query on torus(4,4) costs at most 4× one walk at the depth where its
//!   answer certifies, and its `Mul(1/n³)` queries over a cycle(128) scan
//!   at most 4× one walk each at their stopping depths (`saw`);
//! - after the last row, once: the ledger gate (no round observable of
//!   any sampling run this binary performed exceeded the paper's bound),
//!   the key-drift gate (every gated key is in both the run and the
//!   baseline) and the regression gate (every gated key is at most 1.25×
//!   its baseline).
//!
//! Statistics: the lower quartile of ns per op for identical-work loops,
//! the median over a fixed seed set for work that differs by seed, and
//! per-rep ratios for paired comparisons.
//!
//! In key names `_wN` is the engine or pool width N, and `_depth4` is
//! four requests pipelined on one loopback connection. The gated
//! `net_roundtrip_w1_ns` and `resil_retry_roundtrip_w1_ns` keep their
//! names for the baseline: their `w1` is the strict round trip, one
//! request in flight. The gated `serve_coalesced_w1_ns` keeps its name,
//! workload and baseline the same way: it times a burst of eight
//! requests through a width-1 server, which no longer coalesces but
//! answers one request per dispatch. The trend rows time one workload
//! of each paper experiment group (keys `e1_*`, `e3_*`, `s2_*`, `e6a_*`
//! to `e6c_*`, `e7_*`, `e8_*`, `s1_*`) and are never gated.
//!
//! The JSON is hand-rolled (the workspace vendors no serde); the baseline
//! reader scans for `"key": number` pairs regardless of nesting, so the
//! record structure is cosmetic and keys stay globally unique.

use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use lds_bench::workloads;
use lds_core::jvv::{JvvOutcome, LocalJvv};
use lds_core::regime;
use lds_core::sampler::SequentialSampler;
use lds_engine::{Backend, Engine, ModelSpec, RunReport, SweepBudget, Task, Topology};
use lds_gibbs::models::{hardcore, two_spin::TwoSpinParams};
use lds_gibbs::{GibbsModel, PartialConfig, Value};
use lds_graph::{generators, ordering, power, Graph, NodeId};
use lds_localnet::decomposition::{linial_saks, DecompositionParams};
use lds_localnet::slocal::{run_scan_sequential, SlocalRun};
use lds_localnet::{scheduler, Instance, Network};
use lds_net::{Client, EngineSpec, NetConfig, NetServer, Op, Wire};
use lds_oracle::{BoostedOracle, DecayRate, EnumerationOracle, TwoSpinSawOracle};
use lds_oracle::{Oracle, Target};
use lds_runtime::{CancelToken, ThreadPool};
use lds_serve::{Server, ServerConfig};
use lds_ssm::{correlation, estimator, phase};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Row = fn(usize) -> Record;

/// The scenario table, in run order. The rows with checks and gated keys
/// run first, so the process state they are timed in does not depend on
/// the trend rows that follow them.
const ROWS: &[(&str, Row)] = &[
    ("pool", pool),
    ("run_batch", run_batch),
    ("jvv", jvv),
    ("serving", serving),
    ("net", net),
    ("count", count),
    ("backends", backends),
    ("obs", obs),
    ("resilience", resilience),
    ("saw", saw),
    ("e1_reductions", e1_reductions),
    ("e3_s2_oracles", e3_s2_oracles),
    ("e6_apps", e6_apps),
    ("e7_e8_phase", e7_e8_phase),
    ("s1_decomposition", s1_decomposition),
];

/// The metrics the baseline gates: lower-is-better ns only. The JSON also
/// carries width-4 ns numbers (synchronization-bound, hardware-dependent),
/// higher-is-better ratios and the trend rows, and a `--write-baseline`
/// refresh copies all of it. Without this allowlist those keys would
/// silently join the gate, which for a ratio means failing on a >25%
/// *improvement*.
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

const HARDCORE: ModelSpec = ModelSpec::Hardcore { lambda: 1.0 };

/// The seeds of the reference batch.
const BATCH: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7];

/// The seed every loopback request carries. After the first request the
/// tenant's idempotency cache answers it, so a round trip times the wire
/// (frame, codec, session threads, dispatch), not the engine.
const HOT_SEED: u64 = 7;

/// One row's result: what it measured and the checks it made.
#[derive(Default)]
struct Record {
    metrics: Vec<(String, f64)>,
    checks: Vec<Check>,
}

/// A pass/fail condition, printed as one gate line.
struct Check {
    gate: &'static str,
    ok: bool,
    detail: String,
}

impl Record {
    fn of<const N: usize>(metrics: [(&str, f64); N]) -> Record {
        let metrics = metrics.map(|(k, v)| (k.to_string(), v)).into();
        Record {
            metrics,
            checks: Vec::new(),
        }
    }

    fn metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.push((key.into(), value));
    }

    fn check(&mut self, gate: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { gate, ok, detail });
    }

    /// Records a paired overhead `ratio` as the percentage metric `key`,
    /// and checks it is at most 5%.
    fn overhead(&mut self, key: &'static str, what: &str, ratio: f64) {
        let pct = (ratio - 1.0) * 100.0;
        self.metric(key, pct);
        self.check(key, ratio <= 1.05, format!("{what} {pct:+.1}% (limit 5%)"));
    }

    fn outcome(&self) -> &'static str {
        if self.checks.iter().all(|c| c.ok) {
            "success"
        } else {
            "failure"
        }
    }
}

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
/// lower-quartile ns per op, where `body` performs `per_sample_ops`
/// identical ops per rep.
fn measure<T>(samples: usize, per_sample_ops: usize, mut body: impl FnMut() -> T) -> f64 {
    black_box(body()); // warmup
    let mut xs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(body());
        xs.push(start.elapsed().as_nanos() as f64 / per_sample_ops as f64);
    }
    lower_quartile(xs)
}

/// Paired, interleaved measurement: each rep times all `K` windows back
/// to back (`window(i)` returns the i-th window's ns), so a scheduler
/// interference burst on a shared host lands on every series instead of
/// skewing the ratio of two estimates taken seconds apart. Rep 0 is a
/// warmup. With `alternate`, odd reps run the windows in reverse, so the
/// second-runs-warmer effect cancels across reps instead of biasing a
/// ratio one way. Returns each window's series.
fn paired<const K: usize>(
    reps: usize,
    alternate: bool,
    mut window: impl FnMut(usize) -> f64,
) -> [Vec<f64>; K] {
    let mut series: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for rep in 0..=reps {
        let mut ns = [0.0; K];
        for j in 0..K {
            let i = if alternate && rep % 2 == 1 {
                K - 1 - j
            } else {
                j
            };
            ns[i] = window(i);
        }
        if rep > 0 {
            for (s, x) in series.iter_mut().zip(ns) {
                s.push(x);
            }
        }
    }
    series
}

/// The per-rep ratios `a[i] / b[i]` of two paired series.
fn per_rep_ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a / b).collect()
}

fn engine(model: ModelSpec, graph: Graph, epsilon: f64, width: usize, backend: Backend) -> Engine {
    Engine::builder()
        .model(model)
        .graph(graph)
        .epsilon(epsilon)
        .threads(width)
        .backend(backend)
        .build()
        .expect("in regime")
}

/// The reference instance: hardcore λ = 1 on cycle(10) at ε = 0.01.
fn reference(width: usize, backend: Backend) -> Engine {
    engine(HARDCORE, generators::cycle(10), 0.01, width, backend)
}

fn saw_oracle() -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0))
}

/// The engine's SAW oracle for hardcore λ = 1 on `g`.
fn engine_saw(g: &Graph) -> TwoSpinSawOracle {
    let rate = regime::hardcore(g, 1.0).expect("in regime").rate;
    TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(rate.clamp(1e-6, 0.95), 2.0),
    )
}

/// A loopback `NetServer` with shipped defaults and one client, with a
/// hardcore tenant on cycle(10) whose `HOT_SEED` answer is already
/// cached. Returns the server, the client and the tenant's fingerprint.
fn loopback() -> (NetServer, Client, u64) {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect loopback");
    let spec = EngineSpec::new(HARDCORE, Topology::Graph(generators::cycle(10)));
    let fp = client.register(&spec).expect("register tenant");
    client
        .run(fp, Task::SampleExact, HOT_SEED)
        .expect("warm the cache");
    (server, client, fp)
}

fn phase_ns(report: &RunReport, name: &str) -> f64 {
    let phase = report.phases.iter().find(|p| p.name == name);
    phase.expect("phase recorded").wall_time.as_nanos() as f64
}

fn small_item(x: &u64) -> u64 {
    (0..32u64).fold(*x, |a, b| a.wrapping_mul(0x9e37_79b9).wrapping_add(b))
}

/// Many small `par_map` calls: 64 calls of 8 cheap items per rep, the
/// per-call overhead of a scoped fan-out (inline at width 1, three
/// helper-thread spawns per call at width 4).
fn pool(samples: usize) -> Record {
    const CALLS: usize = 64;
    let items: Vec<u64> = (0..8).collect();
    let mut r = Record::default();
    for width in [1usize, 4] {
        let pool = ThreadPool::new(width);
        let ns = measure(samples, CALLS, || {
            for _ in 0..CALLS {
                black_box(pool.par_map(&items, small_item));
            }
        });
        r.metric(format!("pool_par_map_w{width}_ns"), ns);
    }
    r
}

/// The reference batch, per sample: `run_batch` of eight exact samples
/// on a width-1 engine.
fn run_batch(samples: usize) -> Record {
    let engine = reference(1, Backend::Exact);
    // a batch costs ~0.5 ms, so extra reps are free — and this metric
    // is gated, so its estimate must not wander with host-load spikes
    let ns = measure(samples.max(21), BATCH.len(), || {
        engine.run_batch(Task::SampleExact, BATCH).unwrap()
    });
    Record::of([("run_batch_per_sample_ns", ns)])
}

/// An oracle that answers every query with the same marginal, at the SAW
/// oracle's radius. σ₀ and `Y` fix a reject pass's steps, writes and
/// queries, whatever the answers, so a pass through this oracle does the
/// kernel's whole work and next to no oracle work.
struct ConstantOracle(TwoSpinSawOracle);

impl Oracle for ConstantOracle {
    fn name(&self) -> &str {
        "constant"
    }

    fn radius(&self, model: &GibbsModel, target: Target) -> usize {
        self.0.radius(model, target)
    }

    fn query(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: Target) -> Vec<f64> {
        vec![0.5, 0.5]
    }
}

/// Local-JVV's three passes (Thm 4.2) on torus(4,4) at width 1, from each
/// report's phase wall times; then the reject pass's cost per node on
/// cycle(1024) over cycle(128), which the row checks is at most 1.25: a
/// step costs what its ball costs, whatever `n`. The ratio compares two
/// series from one run, so it holds on any host. Last, the kernel's own
/// share of the reject pass on cycle(128) (a trend): the pass through
/// the engine's SAW oracle against the same pass through
/// [`ConstantOracle`], on the pass-1/2 inputs of real runs (σ₀ all
/// vacant, `Y` as pass 2 drew it), in interleaved rounds.
fn jvv(samples: usize) -> Record {
    const ROUNDS: usize = 9;
    let torus = engine(HARDCORE, generators::torus(4, 4), 0.01, 1, Backend::Exact);
    // per-seed work differs (rejection restarts are Las Vegas), so the
    // seed set is part of each metric's identity — keep it fixed and
    // summarize with the median over seeds
    let reports: Vec<RunReport> = (0..samples.min(11) as u64)
        .map(|seed| torus.run_with_seed(Task::SampleExact, seed).unwrap())
        .collect();
    let pass = |name| median(reports.iter().map(|r| phase_ns(r, name)).collect());
    let mut r = Record::of([
        ("jvv_pass1_ground_ns", pass("ground")),
        ("jvv_pass2_sample_ns", pass("sample")),
        ("jvv_pass3_reject_ns", pass("reject")),
    ]);
    let sizes = [128usize, 1024];
    let engines = sizes.map(|n| engine(HARDCORE, generators::cycle(n), 0.01, 1, Backend::Exact));
    // identical work per round, rounds interleaved across the sizes; the
    // minimum is each size's cost with the least host interference
    let [small, large] = paired(ROUNDS, true, |i| {
        let report = engines[i].run_with_seed(Task::SampleExact, 1).unwrap();
        phase_ns(&report, "reject") / sizes[i] as f64
    });
    let min = |xs: Vec<f64>| xs.into_iter().fold(f64::INFINITY, f64::min);
    let (small, large) = (min(small), min(large));
    let ratio = large / small;
    r.metric("jvv_reject_per_node_n128_ns", small);
    r.metric("jvv_reject_per_node_n1024_ns", large);
    r.metric("jvv_reject_scaling_n1024_over_n128", ratio);
    let detail = format!(
        "reject {large:.0} ns per node at n = 1024 vs {small:.0} at n = 128 ({ratio:.2}x, limit 1.25x)"
    );
    r.check("jvv-scaling", ratio <= 1.25, detail);

    let (n, eps) = (128, 0.01);
    let g = generators::cycle(n);
    let saw = engine_saw(&g);
    let constant = ConstantOracle(saw.clone());
    let (with_saw, kernel_only) = (LocalJvv::new(&saw, eps), LocalJvv::new(&constant, eps));
    let inputs: Vec<_> = (1..=4u64)
        .map(|seed| {
            let net = Network::new(Instance::unconditioned(hardcore::model(&g, 1.0)), seed);
            let locality = with_saw.locality(net.instance().model());
            let order = scheduler::chromatic_schedule(&net, locality, 0).order;
            let (run, _) = with_saw.run(&net, &order, &CancelToken::never()).unwrap();
            (net, order, run.run.outputs)
        })
        .collect();
    let [through_saw, through_constant] = paired(ROUNDS, true, |i| {
        let start = Instant::now();
        for (net, order, y) in &inputs {
            black_box(match i {
                0 => reject_pass(&with_saw, net, order, y),
                _ => reject_pass(&kernel_only, net, order, y),
            });
        }
        start.elapsed().as_nanos() as f64 / (inputs.len() * n) as f64
    });
    let share = median(per_rep_ratios(&through_constant, &through_saw));
    r.metric("jvv_reject_kernel_per_node_n128_ns", min(through_constant));
    r.metric("jvv_reject_kernel_share_n128", share);
    r
}

/// One reject pass over `order` from σ₀ all vacant and the given `Y`.
fn reject_pass<O: Oracle>(
    jvv: &LocalJvv<'_, O>,
    net: &Network,
    order: &[NodeId],
    y: &[Value],
) -> JvvOutcome {
    let n = y.len();
    let ground = SlocalRun {
        outputs: vec![Value(0); n],
        failures: vec![false; n],
    };
    let sampled = SlocalRun {
        outputs: y.to_vec(),
        failures: vec![false; n],
    };
    jvv.rejection_pass_scan(net, order, ground, sampled)
}

/// Serial vs burst dispatch of eight requests through one server per
/// engine pool width, with the cache off: this measures dispatch, not
/// replay. The server runs one session per pool thread. Serial submits
/// a request and waits for it before the next; burst submits all eight,
/// then waits, so up to `width` sessions answer them side by side. The
/// speedup is what the sessions buy over strict one-at-a-time
/// dispatch, apart from the library-vs-server tax `serve_coalesced_w1_ns`
/// tracks (the burst series, under the key it had when a coalescer
/// folded the burst into one `run_batch`).
fn serving(samples: usize) -> Record {
    const BURST: u64 = 8;
    let mut r = Record::default();
    for width in [1usize, 4] {
        let config = ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        };
        let server = Server::new(Arc::new(reference(width, Backend::Exact)), config);
        let (mut seed, mut burst_seed) = (0u64, 1_000_000u64);
        // a burst takes ~µs per request, so extra reps are free and buy
        // most of the stability
        let [serial, burst] = paired(samples.max(21), false, |i| {
            let start = Instant::now();
            if i == 0 {
                for _ in 0..BURST {
                    seed += 1;
                    let ticket = server.submit(Task::SampleExact, seed).unwrap();
                    black_box(ticket.wait().unwrap());
                }
            } else {
                let tickets: Vec<_> = (0..BURST)
                    .map(|_| {
                        burst_seed += 1;
                        server.submit(Task::SampleExact, burst_seed).unwrap()
                    })
                    .collect();
                for t in tickets {
                    black_box(t.wait().unwrap());
                }
            }
            start.elapsed().as_nanos() as f64 / BURST as f64
        });
        // the median of per-rep ratios, not the ratio of two estimates:
        // a stall on one series in one rep shifts only that rep's ratio
        let speedup = median(per_rep_ratios(&serial, &burst));
        let (serial, burst) = (lower_quartile(serial), lower_quartile(burst));
        r.metric(format!("serve_one_at_a_time_w{width}_ns"), serial);
        r.metric(format!("serve_coalesced_w{width}_ns"), burst);
        r.metric(format!("serve_burst_speedup_w{width}"), speedup);
        // Width-4 canary: four sessions on a small host must not lose
        // to serial dispatch. The margin is a timer-noise allowance on
        // tiny bursts, not headroom for oversubscription.
        if width == 4 {
            let detail = format!("burst {burst:.0} ns vs serial {serial:.0} ns per request");
            r.check("serve-w4", burst <= serial * 1.25 + 10_000.0, detail);
        }
    }
    r
}

/// The out-of-process serving overhead over loopback TCP against a
/// cache-hot tenant: the strict round trip, four requests pipelined on
/// the connection (amortizing the syscall round trips), and the codec
/// cost of a real `RunReport`.
fn net(samples: usize) -> Record {
    const OPS: usize = 16;
    const DEPTH: usize = 4;
    const CODEC_OPS: usize = 64;
    let (_server, mut client, fp) = loopback();
    // the strict round trip is gated and syscall-bound (~25 µs/op), so
    // extra reps are cheap stability
    let strict = measure(samples.max(21), OPS, || {
        for _ in 0..OPS {
            black_box(client.run(fp, Task::SampleExact, HOT_SEED).unwrap());
        }
    });
    let pipelined = measure(samples.max(21), OPS, || {
        for _ in 0..OPS / DEPTH {
            for _ in 0..DEPTH {
                let op = Op::Run {
                    fingerprint: fp,
                    task: Task::SampleExact,
                    seed: HOT_SEED,
                    deadline: None,
                };
                client.send(op).unwrap();
            }
            for _ in 0..DEPTH {
                black_box(client.recv().unwrap());
            }
        }
    });
    let report = client.run(fp, Task::SampleExact, HOT_SEED).unwrap();
    let bytes = report.to_bytes();
    let encode = measure(samples, CODEC_OPS, || {
        for _ in 0..CODEC_OPS {
            black_box(report.to_bytes());
        }
    });
    let decode = measure(samples, CODEC_OPS, || {
        for _ in 0..CODEC_OPS {
            black_box(RunReport::from_bytes(&bytes).unwrap());
        }
    });
    Record::of([
        ("net_roundtrip_w1_ns", strict),
        ("net_roundtrip_depth4_ns", pipelined),
        ("net_pipeline_speedup_depth4", strict / pipelined),
        ("net_codec_encode_report_ns", encode),
        ("net_codec_decode_report_ns", decode),
        ("net_report_payload_bytes", bytes.len() as f64),
    ])
}

/// The two-pass chain-rule counter (`Task::Count`) on cycle(48) per pool
/// width, with its sequential anchor pass and marginal pass split out
/// from `RunReport::phases`.
///
/// An engine runs the estimator on its first Count only and looks the
/// answer up after, so every rep builds a fresh engine and times its
/// first Count. At width 1 a second Count on the same engine times the
/// lookup (`count_repeat_w1_ns`, trend only), and the row checks that a
/// repeat costs under a tenth of the first, per rep.
fn count(samples: usize) -> Record {
    let mut r = Record::default();
    for width in [1usize, 4] {
        // one chain costs ~50 µs; the width-1 total is gated, so buy
        // estimator stability with extra reps
        let (mut firsts, mut repeats) = (Vec::new(), Vec::new());
        for seed in 0..samples.max(21) as u64 {
            let engine = engine(HARDCORE, generators::cycle(48), 0.05, width, Backend::Exact);
            firsts.push(engine.run_with_seed(Task::Count, seed).unwrap());
            if width == 1 {
                repeats.push(engine.run_with_seed(Task::Count, seed + 1).unwrap());
            }
        }
        // the two-pass estimator is deterministic — every rep is
        // identical work, so the lower quartile is the cost estimate
        let lq = |ns: fn(&RunReport) -> f64| lower_quartile(firsts.iter().map(ns).collect());
        let chain = lq(|r| phase_ns(r, "anchor") + phase_ns(r, "marginals"));
        let anchor = lq(|r| phase_ns(r, "anchor"));
        let marginals = lq(|r| phase_ns(r, "marginals"));
        r.metric(format!("count_chain_w{width}_ns"), chain);
        r.metric(format!("count_anchor_w{width}_ns"), anchor);
        r.metric(format!("count_marginals_w{width}_ns"), marginals);
        if width == 1 {
            let wall = |r: &RunReport| r.wall_time.as_nanos() as f64;
            let repeat = lower_quartile(repeats.iter().map(wall).collect());
            r.metric("count_repeat_w1_ns", repeat);
            let walls = |reports: &[RunReport]| reports.iter().map(wall).collect::<Vec<_>>();
            let ratio = median(per_rep_ratios(&walls(&repeats), &walls(&firsts)));
            let detail = format!(
                "repeat Count {repeat:.0} ns vs first {:.0} ns ({ratio:.4}x per rep, limit 0.1x)",
                lq(wall)
            );
            r.check("count", ratio < 0.1, detail);
        }
    }
    r
}

/// `Task::SampleApprox` per sampling backend on the reference instance,
/// at widths 1 and 4. The chain-rule sampler pays one radius-t ball
/// enumeration per node; Glauber pays `sweeps` passes of factor-table
/// lookups per site and no oracle queries at all. That gap is the point
/// of the backend, so `glauber_sample_w1_ns` is gated, and the width-1
/// exact-JVV cost rides along as the reference Glauber must undercut.
fn backends(samples: usize) -> Record {
    let mut r = Record::default();
    for width in [1usize, 4] {
        let exact = reference(width, Backend::Exact);
        let sweeps = SweepBudget::Auto;
        let glauber = reference(width, Backend::Glauber { sweeps });
        // both paths are deterministic identical work per rep; the
        // width-1 Glauber cost is gated, so buy stability with reps
        let per_sample = |engine: &Engine, task| {
            measure(samples.max(21), BATCH.len(), || {
                engine.run_batch(task, BATCH).unwrap()
            })
        };
        let chain_ns = per_sample(&exact, Task::SampleApprox);
        let glauber_ns = per_sample(&glauber, Task::SampleApprox);
        r.metric(format!("approx_chain_w{width}_ns"), chain_ns);
        r.metric(format!("glauber_sample_w{width}_ns"), glauber_ns);
        if width == 1 {
            let jvv_ns = per_sample(&exact, Task::SampleExact);
            r.metric("jvv_exact_sample_w1_ns", jvv_ns);
            let served = glauber.run(Task::SampleApprox).expect("in regime");
            let sweeps = served.glauber_sweeps().expect("Glauber served");
            r.metric("glauber_sweeps_resolved", sweeps as f64);
            // strict, no noise allowance: on this workload the gap is
            // multiples, not percent, so losing it means the backend
            // regressed (or the auto sweep plan exploded)
            let ratio = jvv_ns / glauber_ns;
            let detail = format!(
                "glauber {glauber_ns:.0} ns vs exact JVV {jvv_ns:.0} ns per sample ({ratio:.1}x)"
            );
            r.check("backends", glauber_ns < jvv_ns, detail);
        }
    }
    r
}

/// What span tracing costs when it is on: the reference width-1 batch
/// with sampling off and on, paired. The registry counters are lock-free
/// atomics that are always live; the knob is `trace::set_sampling`, off
/// by default. Holding the overhead to 5% is the contract that keeps the
/// instrumentation compiled into the hot path: the disabled path is one
/// relaxed atomic load per emission site, and the enabled path only
/// writes to a per-thread ring.
fn obs(samples: usize) -> Record {
    use lds_obs::trace;
    // the 5% gate leaves little noise headroom, so this row widens each
    // timed window (4 batches ≈ 2 ms) and takes more paired reps than
    // the others: per-window scheduler noise shrinks with window length,
    // and the quantile below does the rest
    const BATCHES: usize = 4;
    let engine = reference(1, Backend::Exact);
    let per_window = (BATCH.len() * BATCHES) as f64;
    let [off, on] = paired(samples.max(41), true, |sampling| {
        trace::set_sampling(sampling as u32);
        let start = Instant::now();
        for _ in 0..BATCHES {
            black_box(engine.run_batch(Task::SampleExact, BATCH).unwrap());
        }
        let ns = start.elapsed().as_nanos() as f64 / per_window;
        // scraping the ring is the consumer's cost, not the producer's —
        // drain outside the timed window
        black_box(trace::drain());
        ns
    });
    trace::set_sampling(0);
    // lower quartile, as for the identical-work loops: a real
    // instrumentation cost shifts every rep's ratio, this quantile
    // included, while a host-load burst that lands on one series in a
    // few reps does not drag the estimate with it
    let overhead = lower_quartile(per_rep_ratios(&on, &off));
    let mut r = Record::of([
        ("obs_disabled_run_batch_per_sample_ns", lower_quartile(off)),
        (
            "obs_instrumented_run_batch_per_sample_ns",
            lower_quartile(on),
        ),
    ]);
    r.overhead(
        "obs_trace_overhead_pct",
        "span tracing on the width-1 batch",
        overhead,
    );
    r
}

/// What the chaos and retry machinery costs when nothing fails, on the
/// `net` row's cache-hot strict round trip: fail points armed on a site
/// no hot path hits vs disarmed (armed-but-idle means every
/// `chaos::point` consults the registry instead of one relaxed load),
/// and `run_retrying` (classification and attempt bookkeeping, no
/// retries fire) vs plain `run`. Holding both to 5% is the contract that
/// keeps fail points compiled into the serving path and makes
/// `run_retrying` the default-safe call.
fn resilience(samples: usize) -> Record {
    use lds_chaos::{Fault, Plan, Trigger};
    const OPS: usize = 16;
    let (_server, mut client, fp) = loopback();
    let policy = lds_net::RetryPolicy::default();
    let [plain, armed, retry] = paired(samples.max(41), true, |i| {
        let plan = || Plan::new(7).with("resil.never_hit", Trigger::Always, Fault::Reset);
        let _armed = (i == 1).then(|| lds_chaos::arm(plan()));
        let start = Instant::now();
        for _ in 0..OPS {
            let report = if i == 2 {
                client.run_retrying(fp, Task::SampleExact, HOT_SEED, &policy)
            } else {
                client.run(fp, Task::SampleExact, HOT_SEED)
            };
            black_box(report.unwrap());
        }
        start.elapsed().as_nanos() as f64 / OPS as f64
    });
    let armed_overhead = lower_quartile(per_rep_ratios(&armed, &plain));
    let retry_overhead = lower_quartile(per_rep_ratios(&retry, &plain));
    let mut r = Record::default();
    r.metric("resil_disarmed_roundtrip_ns", lower_quartile(plain));
    r.metric("resil_armed_idle_roundtrip_ns", lower_quartile(armed));
    r.overhead(
        "resil_armed_idle_overhead_pct",
        "armed-but-idle fail points",
        armed_overhead,
    );
    r.metric("resil_retry_roundtrip_w1_ns", lower_quartile(retry));
    r.overhead(
        "resil_retry_overhead_pct",
        "fault-free retry wrapper",
        retry_overhead,
    );
    r
}

/// What the SAW oracle's depth search costs over single walks, on the
/// engine's oracle, as two ratios of the same run. Each ratio is one
/// series' minimum over interleaved rounds against the other's, as in
/// `jvv-scaling`:
/// - `Tv(δ/n)` at v0 of torus(4,4) with the empty pinning (δ = 0.05)
///   against one walk at the depth where its gap first certifies `δ/n`,
///   the depth its search must reach. Limit 4×. The planned depth's walk
///   is the whole SAW tree, which sets no useful ceiling: its pruned walk
///   expands 5 017 nodes, and the depth-10 walk already 3 353.
/// - `Mul(1/n³)` at every step of one cycle(128) chain-rule scan, each on
///   its prefix of the scan, against one walk each at the depth where
///   the query stops. Limit 4×.
fn saw(samples: usize) -> Record {
    const ROUNDS: usize = 9;
    const SCANS: usize = 16;
    let mut r = Record::default();
    let min = |xs: Vec<f64>| xs.into_iter().fold(f64::INFINITY, f64::min);

    let torus = generators::torus(4, 4);
    let (model, oracle) = (hardcore::model(&torus, 1.0), engine_saw(&torus));
    let (empty, tv) = (PartialConfig::empty(16), Target::Tv(0.05 / 16.0));
    let planned = oracle.radius(&model, tv);
    let certified = (1..planned)
        .find(|&t| {
            oracle
                .marginal_bounds(&torus, &empty, NodeId(0), t)
                .meets(tv)
        })
        .unwrap_or(planned);
    let [query, walk] = paired(ROUNDS.max(samples), true, |i| {
        let start = Instant::now();
        match i {
            0 => drop(black_box(oracle.query(&model, &empty, NodeId(0), tv))),
            _ => drop(black_box(oracle.marginal_bounds(
                &torus,
                &empty,
                NodeId(0),
                certified,
            ))),
        }
        start.elapsed().as_nanos() as f64
    });
    let (query, walk) = (min(query), min(walk));
    let ratio = query / walk;
    r.metric("saw_tv_query_torus44_ns", query);
    r.metric("saw_tv_over_certify_walk_torus44", ratio);
    let detail = format!(
        "Tv(δ/n) at v0 of torus(4,4) {query:.0} ns vs one walk at depth {certified}, where it \
         certifies, {walk:.0} ns ({ratio:.2}x, limit 4x; planned depth {planned})"
    );
    r.check("saw-tv-deepening", ratio <= 4.0, detail);

    let (n, eps) = (128, 1.0 / 128f64.powi(3));
    let cycle = generators::cycle(n);
    let (model, oracle) = (hardcore::model(&cycle, 1.0), engine_saw(&cycle));
    let net = Network::new(Instance::unconditioned(model.clone()), 1);
    let sampler = SequentialSampler::new(&oracle, 0.05);
    let order = scheduler::chromatic_schedule(&net, sampler.locality(&model), 0).order;
    let y = run_scan_sequential(&net, &sampler, &order, &CancelToken::never())
        .expect("never cancelled")
        .outputs;
    let mul = Target::Mul(eps);
    let planned = oracle.radius(&model, mul);
    // each step's prefix of the scan, and the depth a one-level loop
    // stops at there
    let steps: Vec<(PartialConfig, NodeId, usize)> = order
        .iter()
        .scan(PartialConfig::empty(n), |prefix, &v| {
            let stop = (1..planned)
                .find(|&t| oracle.marginal_bounds(&cycle, prefix, v, t).meets(mul))
                .unwrap_or(planned);
            let step = (prefix.clone(), v, stop);
            prefix.pin(v, y[v.index()]);
            Some(step)
        })
        .collect();
    let [queries, walks] = paired(ROUNDS.max(samples), true, |i| {
        let start = Instant::now();
        for _ in 0..SCANS {
            for (prefix, v, stop) in &steps {
                match i {
                    0 => drop(black_box(oracle.query(&model, prefix, *v, mul))),
                    _ => drop(black_box(oracle.marginal_bounds(&cycle, prefix, *v, *stop))),
                }
            }
        }
        start.elapsed().as_nanos() as f64 / (SCANS * n) as f64
    });
    let (queries, walks) = (min(queries), min(walks));
    let ratio = queries / walks;
    let at_depth_1 = steps.iter().filter(|s| s.2 == 1).count();
    r.metric("saw_mul_query_cycle128_ns", queries);
    r.metric("saw_mul_over_stop_walk_cycle128", ratio);
    let detail = format!(
        "Mul(1/n^3) over a cycle(128) scan {queries:.0} ns per query vs one walk at its \
         stopping depth {walks:.0} ns ({ratio:.2}x, limit 4x; {at_depth_1} of {n} stop at depth 1)"
    );
    r.check("saw-mul-deepening", ratio <= 4.0, detail);
    r
}

/// E1: Thm 3.2's sequential chain-rule scan on cycle(64), and Lemma 3.1's
/// chromatic schedule draw on torus(8,8).
fn e1_reductions(samples: usize) -> Record {
    let cycle = generators::cycle(64);
    let scan_net = Network::new(Instance::unconditioned(hardcore::model(&cycle, 1.0)), 1);
    let oracle = saw_oracle();
    let sampler = SequentialSampler::new(&oracle, 0.05);
    let (order, never) = (ordering::identity(&cycle), CancelToken::never());
    let scan = measure(samples, 1, || {
        run_scan_sequential(&scan_net, &sampler, &order, &never)
    });
    let torus = hardcore::model(&generators::torus(8, 8), 0.8);
    let schedule_net = Network::new(Instance::unconditioned(torus), 1);
    let schedule = measure(samples, 1, || {
        scheduler::chromatic_schedule(&schedule_net, 3, 0)
    });
    Record::of([
        ("e1_scan_cycle64_ns", scan),
        ("e1_schedule_torus8_ns", schedule),
    ])
}

/// E3 and S2: one boosted multiplicative query on cycle(12) at ε = 0.1,
/// one SAW-tree query at depth 8 on torus(6,6), and one ball-enumeration
/// query at radius 2 on torus(4,4).
fn e3_s2_oracles(samples: usize) -> Record {
    let cycle = hardcore::model(&generators::cycle(12), 1.0);
    let torus6 = hardcore::model(&generators::torus(6, 6), 1.0);
    let torus4 = hardcore::model(&generators::torus(4, 4), 1.0);
    let free = PartialConfig::empty;
    let (free12, free36, free16) = (free(12), free(36), free(16));
    let (boosted, saw) = (BoostedOracle::new(saw_oracle()), saw_oracle());
    let enumeration = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
    let boosted_ns = measure(samples, 1, || {
        boosted.query(&cycle, &free12, NodeId(0), Target::Mul(0.1))
    });
    let saw_ns = measure(samples, 1, || {
        saw.marginal_bounds(torus6.graph(), &free36, NodeId(14), 8)
    });
    let enum_ns = measure(samples, 1, || {
        enumeration.marginal_with_frontier(&torus4, &free16, NodeId(5), 2)
    });
    Record::of([
        ("e3_boosted_marginal_ns", boosted_ns),
        ("s2_saw_marginal_t8_ns", saw_ns),
        ("s2_enum_marginal_t2_ns", enum_ns),
    ])
}

/// E6a–c: exact samples from the Corollary 5.3 application engines —
/// matchings on a random 4-regular graph of 8 nodes, hardcore on
/// cycle(16), 4-colorings of cycle(8) — as the median engine wall time
/// over a fixed seed set.
fn e6_apps(samples: usize) -> Record {
    let apps = [
        (
            "e6a_matching",
            ModelSpec::Matching { lambda: 1.0 },
            workloads::regular(8, 4, 1),
            0.02,
        ),
        ("e6b_hardcore", HARDCORE, generators::cycle(16), 0.01),
        (
            "e6c_coloring",
            ModelSpec::Coloring { q: 4 },
            generators::cycle(8),
            0.02,
        ),
    ];
    let mut r = Record::default();
    for (id, model, graph, epsilon) in apps {
        let engine = engine(model, graph, epsilon, 1, Backend::Exact);
        // request 0 draws the schedule; time the requests after it
        let wall: Vec<f64> = (0..=samples as u64)
            .map(|seed| engine.run_with_seed(Task::SampleExact, seed).unwrap())
            .map(|report| report.wall_time.as_nanos() as f64)
            .collect();
        r.metric(format!("{id}_sample_ns"), median(wall[1..].to_vec()));
    }
    r
}

/// E7 and E8: the hardcore phase sweep on the Δ = 4 tree to depth 400,
/// the boundary-to-root gap series at λ = 2 on the complete ternary tree
/// to depth 1000, and the limiting gap at λ = 2.5 on the Δ = 4 tree to
/// depth 300.
fn e7_e8_phase(samples: usize) -> Record {
    let ratios = [0.3, 0.6, 0.9, 1.2, 2.0];
    let sweep = measure(samples, 1, || phase::hardcore_tree_sweep(4, &ratios, 400));
    let series = measure(samples, 1, || estimator::tree_gap_series(3, 2.0, 1000));
    let limit = measure(samples, 1, || correlation::limiting_tree_gap(4, 2.5, 300));
    Record::of([
        ("e7_phase_sweep_depth400_ns", sweep),
        ("e8_gap_series_depth1000_ns", series),
        ("e8_limiting_gap_depth300_ns", limit),
    ])
}

/// S1, the substrate of Lemma 3.1: a Linial–Saks network decomposition
/// of torus(14,14), and the power graph G⁶ of torus(10,10).
fn s1_decomposition(samples: usize) -> Record {
    let torus14 = generators::torus(14, 14);
    let params = DecompositionParams::for_size(torus14.node_count());
    let torus10 = generators::torus(10, 10);
    let decomposition_ns = measure(samples, 1, || {
        linial_saks(&torus14, params, &mut StdRng::seed_from_u64(3))
    });
    let power_ns = measure(samples, 1, || power::power(&torus10, 6));
    Record::of([
        ("s1_linial_saks_torus14_ns", decomposition_ns),
        ("s1_power_graph_k6_ns", power_ns),
    ])
}

/// The round ledger and the registry's series counts, read once after the
/// last row so the ledger gate covers every sampling run this binary
/// performed. A violation means the reproduction's theorem broke, which
/// no perf number excuses.
fn ledger() -> Record {
    let summary = lds_obs::ledger().summary();
    let snap = lds_obs::global().snapshot();
    let mut r = Record::of([
        ("obs_ledger_observations", summary.observations as f64),
        ("obs_ledger_violations", summary.violations as f64),
        ("obs_ledger_max_ratio", summary.max_ratio),
        ("obs_registry_counters", snap.counters.len() as f64),
        ("obs_registry_gauges", snap.gauges.len() as f64),
        ("obs_registry_histograms", snap.histograms.len() as f64),
    ]);
    let detail = format!(
        "{} of {} round observables over the paper bound (max ratio {:.2})",
        summary.violations, summary.observations, summary.max_ratio
    );
    r.check("ledger", summary.violations == 0, detail);
    r
}

/// The key-drift and regression gates. Every gated key must be in both
/// the run and the baseline: a key only in the baseline means the
/// workload silently stopped emitting it (the regression gate would skip
/// it forever); a key only in the run means a gated metric was added
/// without refreshing the baseline, which only a `--write-baseline`
/// refresh may do. Every gated key in both must be at most 1.25× its
/// baseline.
fn baseline_gates(run: &[(String, f64)], base: &[(String, f64)], refreshing: bool) -> Vec<Check> {
    let find = |metrics: &[(String, f64)], key: &str| {
        metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    };
    let gate = |key: &&str| {
        let (gate, ok, detail) = match (find(base, key), find(run, key)) {
            (Some(base), Some(now)) => {
                let pct = (now / base - 1.0) * 100.0;
                let detail = format!("{key} = {now:.0} ns vs baseline {base:.0} ns ({pct:+.0}%)");
                ("regression", now <= base * 1.25, detail)
            }
            (Some(_), None) => {
                let detail = format!("gated metric {key} is in the baseline, not in this run");
                ("key-drift", false, detail)
            }
            (None, Some(_)) if refreshing => {
                let detail = format!("gated metric {key} joins the baseline on this refresh");
                ("key-drift", true, detail)
            }
            (None, Some(_)) => {
                let detail = format!(
                    "gated metric {key} has no baseline entry — refresh with --write-baseline"
                );
                ("key-drift", false, detail)
            }
            (None, None) => return None,
        };
        Some(Check { gate, ok, detail })
    };
    GATED_METRICS.iter().filter_map(gate).collect()
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

/// Extracts every `"key": <number>` pair from a JSON text. Tolerant by
/// construction: non-numeric values are skipped, nesting is ignored.
fn parse_metrics(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some((_, tail)) = rest.split_once('"') {
        let Some((key, tail)) = tail.split_once('"') else {
            break;
        };
        rest = tail;
        if let Some(value) = tail.trim_start().strip_prefix(':') {
            let value = value.trim_start();
            let end = value
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(value.len());
            if let Ok(v) = value[..end].parse() {
                out.push((key.to_string(), v));
            }
            // a string value is read next as a key with no ':' after it
            rest = &value[end..];
        }
    }
    out
}

fn render_json(sha: &str, quick: bool, records: &[(&str, Record)]) -> String {
    let parallelism = ThreadPool::available().threads();
    let mut s = format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"available_parallelism\": {parallelism},\n  \"quick\": {quick}"
    );
    for (name, record) in records {
        let metrics: Vec<String> = record
            .metrics
            .iter()
            .map(|(k, v)| {
                // one decimal is enough for ns, not for a ratio or a share
                let digits = if v.abs() < 10.0 { 4 } else { 1 };
                format!("      \"{k}\": {v:.digits$}")
            })
            .collect();
        s.push_str(&format!(
            ",\n  \"{name}\": {{\n    \"outcome\": \"{}\",\n    \"metrics\": {{\n{}\n    }}\n  }}",
            record.outcome(),
            metrics.join(",\n")
        ));
    }
    s.push_str("\n}\n");
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

    let mut records: Vec<(&str, Record)> = ROWS
        .iter()
        .map(|&(name, row)| (name, row(samples)))
        .collect();
    // after the last row, so the ledger gate sees every sampling run
    records.push(("ledger", ledger()));
    let json = render_json(&git_sha(), quick, &records);
    std::fs::write(&out_path, &json).expect("write summary");
    println!("wrote {out_path}:\n{json}");

    let run: Vec<(String, f64)> = records
        .iter()
        .flat_map(|(_, r)| r.metrics.iter().cloned())
        .collect();
    let mut checks: Vec<Check> = records.into_iter().flat_map(|(_, r)| r.checks).collect();
    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                checks.extend(baseline_gates(&run, &parse_metrics(&text), write_baseline));
                if write_baseline {
                    std::fs::write(&path, &json).expect("write baseline");
                    println!("rewrote baseline {path}");
                }
            }
            Err(_) if write_baseline => {
                std::fs::write(&path, &json).expect("write baseline");
                println!("created baseline {path}");
            }
            Err(e) => eprintln!("no baseline at {path} ({e}); skipping the baseline gates"),
        }
    }
    let mut failed = false;
    for check in &checks {
        if check.ok {
            println!("{} gate: {} — ok", check.gate, check.detail);
        } else {
            eprintln!("FAIL {} gate: {}", check.gate, check.detail);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../../bench/baseline.json");

    fn failures(checks: Vec<Check>) -> Vec<(&'static str, String)> {
        let failed = checks.into_iter().filter(|c| !c.ok);
        failed.map(|c| (c.gate, c.detail)).collect()
    }

    /// The committed baseline's gated entries, in `GATED_METRICS` order.
    fn gated_baseline() -> Vec<(String, f64)> {
        let baseline = parse_metrics(BASELINE);
        let entry = |key: &&str| baseline.iter().find(|(k, _)| k == key).cloned();
        let gated = GATED_METRICS.iter().map(entry);
        gated
            .map(|e| e.expect("gated key in the baseline"))
            .collect()
    }

    #[test]
    fn parse_metrics_reads_the_committed_baseline() {
        for (key, value) in gated_baseline() {
            assert!(value.is_finite() && value > 0.0, "{key} = {value}");
        }
    }

    #[test]
    fn parse_metrics_reads_the_record_json() {
        let mut serving = Record::of([
            ("serve_coalesced_w4_ns", 53140.0),
            ("serve_burst_speedup_w4", 2.1),
        ]);
        serving.check("serve-w4", false, String::new());
        let records = [
            ("serving", serving),
            ("ledger", Record::of([("obs_ledger_max_ratio", -0.5)])),
        ];
        // a sha that starts with digits is a string, not a metric
        let json = render_json("4460e1", true, &records);
        let parsed: Vec<(String, f64)> = parse_metrics(&json)
            .into_iter()
            .filter(|(k, _)| k != "available_parallelism")
            .collect();
        let expected: Vec<(String, f64)> = records
            .iter()
            .flat_map(|(_, r)| r.metrics.iter().cloned())
            .collect();
        assert_eq!(parsed, expected);
        assert!(json.contains("\"outcome\": \"failure\""));
        assert!(json.contains("\"outcome\": \"success\""));
    }

    #[test]
    fn a_gated_key_passes_at_exactly_its_bound_and_fails_just_above() {
        let baseline = gated_baseline();
        let mut run: Vec<(String, f64)> = baseline
            .iter()
            .map(|(k, v)| (k.clone(), v * 1.25))
            .collect();
        assert_eq!(failures(baseline_gates(&run, &baseline, false)), []);
        run[3].1 += 1e-6;
        let failed = failures(baseline_gates(&run, &baseline, false));
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "regression");
        assert!(failed[0].1.starts_with("jvv_pass2_sample_ns "));
    }

    #[test]
    fn key_drift_fails_in_both_directions() {
        let baseline = gated_baseline();
        let without_first = &baseline[1..];
        // the run no longer emits a gated key
        let failed = failures(baseline_gates(without_first, &baseline, false));
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "key-drift");
        assert!(failed[0].1.contains("pool_par_map_w1_ns"));
        // the baseline lacks a gated key the run emits ...
        let failed = failures(baseline_gates(&baseline, without_first, false));
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, "key-drift");
        assert!(failed[0].1.contains("pool_par_map_w1_ns"));
        // ... which only a refresh may add
        assert_eq!(failures(baseline_gates(&baseline, without_first, true)), []);
    }

    #[test]
    fn a_row_fails_exactly_when_one_of_its_own_checks_fails() {
        let mut row = Record::of([("obs_disabled_run_batch_per_sample_ns", 60000.0)]);
        assert_eq!(row.outcome(), "success");
        row.overhead("obs_trace_overhead_pct", "at the limit", 1.05);
        assert_eq!(row.outcome(), "success");
        let mut other = Record::default();
        other.overhead("resil_retry_overhead_pct", "over the limit", 1.06);
        assert_eq!(other.outcome(), "failure");
        assert_eq!(row.outcome(), "success");
        row.check("serve-w4", false, String::new());
        assert_eq!(row.outcome(), "failure");
    }
}
