//! The traced run: one request stream replayed at three entry points,
//! each on fresh state, and each request's time attributed to the layers.
//!
//! The passes take turns in one-second segments, so a drift in the
//! host's speed lands on all of them alike. In each segment:
//!
//! 1. `Client::run` over loopback TCP (the whole stack) sends for one
//!    second, every request recorded;
//! 2. a second stack over TCP gets the same stretch of the stream for
//!    one second with nothing recorded per request, for the tracing
//!    overhead;
//! 3. `Server::run` in process answers them;
//! 4. `Engine::run_with_seed` on engines built from the same specs
//!    answers them.
//!
//! Per request, `net.self = client − server` and `serve.self = server −
//! the served report's own engine wall time` (the whole server latency
//! for a cache hit). The engine stages come from the phases the direct
//! engine runs return.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::time::{Duration, Instant};

use lds_engine::RunReport;
use lds_net::Wire;

use lds_netbench::stats::{counter_delta, mean, median_std_error, quantile, ratio};
use lds_netbench::workload::{Class, Expect, Workload, CLIENTS};

use crate::drive::{self, ClientLog, Entry, Limit, Rec, Record, Stack};
use crate::{metric, Metric, Outcome};

/// Share of `--seconds` the first pass sends for; the three replays of
/// its requests take about as long each.
const FIRST_PASS_SHARE: f64 = 0.3;

/// How long the first pass sends before the others replay its requests.
const SEGMENT: Duration = Duration::from_secs(1);

/// How far `net.self + serve.self + engine` (means) may sit from the
/// mean client latency before the accounting check fails, as a share of
/// the latter. The engine term is a separate replay whose runs fan out
/// across the pool while served runs execute one seed sequentially; on
/// cycle(128) that alone has put the two 5–12% apart.
const ACCOUNTING_TOLERANCE: f64 = 0.2;

/// Registry counters that repeat exactly on a fixed request stream, and
/// the ones that depend on timing (coalescing windows, worker wake-ups).
const EXACT_COUNTERS: &[&str] = &[
    "net_bytes_in",
    "net_bytes_out",
    "serve_submitted",
    "serve_cache_hits",
    "serve_cache_misses",
    "chromatic_color_rounds",
    "chromatic_clusters_inline",
    "chromatic_clusters_projected",
];
const TIMING_COUNTERS: &[&str] = &[
    "serve_batches",
    "serve_batched_requests",
    "serve_rejected",
    "pool_jobs",
    "pool_steals",
    "pool_parks",
    "pool_unparks",
    "chromatic_bytes_projected",
];

/// What one pass brings back, accumulated over the segments.
#[derive(Default)]
struct Pass {
    logs: Vec<ClientLog>,
    wall: Duration,
    /// Registry counter deltas while this pass ran.
    deltas: BTreeMap<String, u64>,
}

impl Pass {
    fn requests(&self) -> u64 {
        self.logs.iter().map(ClientLog::issued).sum()
    }

    fn throughput(&self) -> f64 {
        self.requests() as f64 / self.wall.as_secs_f64()
    }

    fn delta(&self, name: &str) -> u64 {
        self.deltas.get(name).copied().unwrap_or(0)
    }

    fn per_request(&self, name: &str) -> f64 {
        ratio(self.delta(name) as f64, self.requests() as f64)
    }

    fn recs(&self) -> impl Iterator<Item = &Rec> {
        self.logs.iter().flat_map(|l| &l.recs)
    }

    /// Drives one segment through `entries` and adds it to the pass;
    /// returns where each client's stream stopped.
    fn segment(
        &mut self,
        w: &Workload,
        seed: u64,
        entries: Vec<Entry<'_>>,
        limits: &[Limit],
        record: Record,
    ) -> Vec<u64> {
        let before = lds_obs::global().snapshot();
        let started = Instant::now();
        let logs = drive::drive(w, seed, entries, limits, record);
        self.wall += started.elapsed();
        let after = lds_obs::global().snapshot();
        for (name, _) in &after.counters {
            *self.deltas.entry(name.clone()).or_default() += counter_delta(&before, &after, name);
        }
        self.logs.resize_with(logs.len(), ClientLog::default);
        limits
            .iter()
            .zip(&mut self.logs)
            .zip(logs)
            .map(|((limit, mine), log)| {
                let from = match *limit {
                    Limit::Until { from, .. } | Limit::Range { from, .. } => from,
                };
                let to = from + log.issued();
                mine.append(log);
                to
            })
            .collect()
    }
}

fn net_entries<'a>(stack: &'a mut Stack) -> Vec<Entry<'a>> {
    let fingerprints = &stack.fingerprints;
    stack
        .clients
        .iter_mut()
        .map(|client| Entry::Net {
            client,
            fingerprints,
        })
        .collect()
}

/// `(engine executions, cache misses)` summed over the tenants' own
/// `ServerStats`.
fn tenant_stats(stack: &Stack) -> (u64, u64) {
    stack
        .fingerprints
        .iter()
        .fold((0, 0), |(executions, misses), &fp| {
            let s = stack
                .server
                .registry()
                .stats_of(fp)
                .expect("registered tenants stay live");
            (executions + s.engine_executions, misses + s.cache_misses)
        })
}

pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut violations = Vec::new();
    let mut traced_stack = Stack::stand_up(w, seed)?;
    let mut plain_stack = Stack::stand_up(w, seed)?;
    let servers = drive::serve_stack(w, seed)?;
    let engines = drive::engines(w)?;
    let tenants_before = tenant_stats(&traced_stack);

    let (mut net, mut untraced, mut serve, mut engine) = Default::default();
    let segments = (seconds as f64 * FIRST_PASS_SHARE / SEGMENT.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let mut next = vec![0u64; CLIENTS];
    for _ in 0..segments {
        let until = Instant::now() + SEGMENT;
        let sent: Vec<Limit> = next
            .iter()
            .map(|&from| Limit::Until { from, until })
            .collect();
        let to = Pass::segment(
            &mut net,
            w,
            seed,
            net_entries(&mut traced_stack),
            &sent,
            Record::Requests,
        );
        let replay: Vec<Limit> = next
            .iter()
            .zip(&to)
            .map(|(&from, &to)| Limit::Range { from, to })
            .collect();
        // the untraced side sends for as long, so both sides of the
        // overhead comparison end the same way
        let until = Instant::now() + SEGMENT;
        let plain: Vec<Limit> = next
            .iter()
            .map(|&from| Limit::Until { from, until })
            .collect();
        let entries = net_entries(&mut plain_stack);
        Pass::segment(&mut untraced, w, seed, entries, &plain, Record::Counts);
        let entries = (0..CLIENTS).map(|_| Entry::Serve(&servers)).collect();
        Pass::segment(&mut serve, w, seed, entries, &replay, Record::Requests);
        let entries = (0..CLIENTS).map(|_| Entry::Engine(&engines)).collect();
        Pass::segment(&mut engine, w, seed, entries, &replay, Record::Requests);
        next = to;
    }
    let tenants = tenant_stats(&traced_stack);
    let (executions, misses) = (tenants.0 - tenants_before.0, tenants.1 - tenants_before.1);
    violations.extend(scrape_mismatches(&mut traced_stack)?);
    traced_stack.tear_down();
    plain_stack.tear_down();
    drop(servers);

    for pass in [&net, &untraced, &serve, &engine] {
        if let Some(e) = pass.logs.iter().find_map(|l| l.first_error.as_ref()) {
            eprintln!("netbench: first failed request: {e}");
        }
    }
    violations.extend(drive::correctness(w, &net.logs)?);
    violations.extend(cross_entry_mismatches(&net, &serve, &engine));
    let (encode_us, decode_us, codec_violations) = codec_times(&net.logs);
    violations.extend(codec_violations);

    let layers = Layers::attribute(&net, &serve, &engine);
    let mut metrics = layers.metrics();
    metrics.extend([
        metric("net.encode_us", encode_us, "us"),
        metric("net.decode_us", decode_us, "us"),
        metric(
            "net.bytes_per_req",
            ratio(
                (net.delta("net_bytes_in") + net.delta("net_bytes_out")) as f64,
                net.requests() as f64,
            ),
            "bytes",
        ),
        metric(
            "serve.cache_hit_frac",
            ratio(
                net.delta("serve_cache_hits") as f64,
                (net.delta("serve_cache_hits") + net.delta("serve_cache_misses")) as f64,
            ),
            "frac",
        ),
        metric(
            "serve.batch_mean",
            ratio(
                net.delta("serve_batched_requests") as f64,
                net.delta("serve_batches") as f64,
            ),
            "req",
        ),
        metric(
            "serve.rejected_frac",
            ratio(
                net.delta("serve_rejected") as f64,
                net.delta("serve_submitted") as f64,
            ),
            "frac",
        ),
        metric(
            "serve.executions_per_miss",
            ratio(executions as f64, misses as f64),
            "ratio",
        ),
        metric(
            "localnet.color_rounds_per_req",
            engine.per_request("chromatic_color_rounds"),
            "rounds",
        ),
        metric(
            "runtime.pool_jobs_per_req",
            net.per_request("pool_jobs"),
            "jobs",
        ),
        metric(
            "runtime.pool_parks_per_req",
            net.per_request("pool_parks"),
            "parks",
        ),
        metric(
            "obs.ledger_violations",
            lds_obs::ledger().summary().violations as f64,
            "count",
        ),
        metric(
            "trace.overhead_frac",
            ratio(
                untraced.throughput() - net.throughput(),
                untraced.throughput(),
            ),
            "frac",
        ),
    ]);
    let failed_checks = design_checks(w, &metrics, &layers);
    metrics.push(metric(
        "trace.design_checks_failed",
        failed_checks as f64,
        "count",
    ));

    print_report(w, seed, &net, &untraced, &engine, &layers, &metrics);
    write_spans(w, epoch, [&net, &serve, &engine])?;
    Ok(Outcome {
        attempted: net.requests(),
        failed: net.logs.iter().map(|l| l.failed).sum(),
        violations,
        metrics,
    })
}

/// Per-request attribution across the three recorded passes.
struct Layers {
    client_us: Vec<f64>,
    net_self_us: Vec<f64>,
    serve_self_us: Vec<f64>,
    /// Direct engine time of the requests that missed the cache.
    engine_us: Vec<f64>,
    /// Direct engine latency per task class.
    run_us: BTreeMap<Class, Vec<f64>>,
    /// Direct engine phase times, keyed by `(class, phase)`.
    phase_us: BTreeMap<(Class, &'static str), Vec<f64>>,
    /// Total direct engine wall time, for stage shares.
    engine_wall_us: f64,
    rounds_ratio_max: f64,
    succeeded: (u64, u64),
    jvv_clamped: usize,
    jvv_acceptance: Vec<f64>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Layers {
    fn attribute(net: &Pass, serve: &Pass, engine: &Pass) -> Layers {
        let mut l = Layers {
            client_us: Vec::new(),
            net_self_us: Vec::new(),
            serve_self_us: Vec::new(),
            engine_us: Vec::new(),
            run_us: BTreeMap::new(),
            phase_us: BTreeMap::new(),
            engine_wall_us: 0.0,
            rounds_ratio_max: 0.0,
            succeeded: (0, 0),
            jvv_clamped: 0,
            jvv_acceptance: Vec::new(),
        };
        for ((n, s), e) in net.recs().zip(serve.recs()).zip(engine.recs()) {
            debug_assert!(n.index == s.index && s.index == e.index);
            let (Ok(ns), Ok(ss), Ok(es)) = (&n.outcome, &s.outcome, &e.outcome) else {
                continue;
            };
            let (client, server, direct) = (us(n.latency), us(s.latency), us(e.latency));
            l.client_us.push(client);
            l.net_self_us.push(client - server);
            let in_serve = if n.req.hot { 0.0 } else { us(ss.wall) };
            l.serve_self_us.push(server - in_serve);
            l.engine_us.push(if n.req.hot { 0.0 } else { direct });
            l.run_us.entry(e.req.class).or_default().push(direct);
            l.engine_wall_us += direct;
            for phase in &es.phases {
                l.phase_us
                    .entry((e.req.class, phase.name))
                    .or_default()
                    .push(us(phase.wall_time));
            }
            // the guarantees, as the served replies carry them
            l.succeeded.0 += u64::from(ns.succeeded);
            l.succeeded.1 += 1;
            if matches!(n.req.class, Class::SampleExact | Class::SampleApprox) {
                l.rounds_ratio_max = l
                    .rounds_ratio_max
                    .max(ratio(ns.rounds as f64, ns.bound_rounds));
            }
            if let Some((clamped, acceptance)) = ns.jvv {
                l.jvv_clamped += clamped;
                l.jvv_acceptance.push(acceptance);
            }
        }
        l
    }

    fn phase_mean(&self, class: Class, phase: &str) -> f64 {
        self.phase_us.get(&(class, phase)).map_or(0.0, |v| mean(v))
    }

    /// Total direct engine time per stage name, across classes.
    fn stage_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for ((_, phase), v) in &self.phase_us {
            *totals.entry(*phase).or_insert(0.0) += v.iter().sum::<f64>();
        }
        totals
    }

    fn schedule_is_largest_stage(&self) -> bool {
        self.stage_totals()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .is_some_and(|(name, _)| name == "schedule")
    }

    fn metrics(&self) -> Vec<Metric> {
        let p50 = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.5)
        };
        let client_p50 = p50(&self.client_us);
        let net_p50 = p50(&self.net_self_us);
        let serve_p50 = p50(&self.serve_self_us);
        let accounted = mean(&self.net_self_us) + mean(&self.serve_self_us) + mean(&self.engine_us);
        let client_mean = mean(&self.client_us);
        let schedule: Vec<f64> = [Class::SampleExact, Class::SampleApprox, Class::Glauber]
            .iter()
            .filter_map(|&c| self.phase_us.get(&(c, "schedule")))
            .flatten()
            .copied()
            .collect();
        let stages = self.stage_totals();
        let mut m = vec![
            metric("trace.client_p50_us", client_p50, "us"),
            metric("net.self_us", net_p50, "us"),
            metric("serve.self_us", serve_p50, "us"),
            metric(
                "trace.net_serve_share",
                ratio(net_p50 + serve_p50, client_p50),
                "frac",
            ),
            metric(
                "trace.accounting_gap_frac",
                ratio((accounted - client_mean).abs(), client_mean),
                "frac",
            ),
        ];
        for class in Class::ALL {
            let runs = self.run_us.get(&class).map_or(0.0, |v| p50(v));
            m.push(metric(
                format!("engine.run_us.{}", class.name()),
                runs,
                "us",
            ));
        }
        m.extend([
            metric(
                "engine.succeeded_frac",
                ratio(self.succeeded.0 as f64, self.succeeded.1 as f64),
                "frac",
            ),
            metric("localnet.schedule_us", mean(&schedule), "us"),
            metric(
                "localnet.schedule_share",
                ratio(
                    stages.get("schedule").copied().unwrap_or(0.0),
                    self.engine_wall_us,
                ),
                "frac",
            ),
            metric("localnet.rounds_ratio_max", self.rounds_ratio_max, "ratio"),
            metric(
                "core.jvv_ground_us",
                self.phase_mean(Class::SampleExact, "ground"),
                "us",
            ),
            metric(
                "core.jvv_sample_us",
                self.phase_mean(Class::SampleExact, "sample"),
                "us",
            ),
            metric(
                "core.jvv_reject_us",
                self.phase_mean(Class::SampleExact, "reject"),
                "us",
            ),
            metric(
                "core.chain_scan_us",
                self.phase_mean(Class::SampleApprox, "scan"),
                "us",
            ),
            metric(
                "core.glauber_us",
                self.phase_mean(Class::Glauber, "glauber"),
                "us",
            ),
            metric(
                "core.count_anchor_us",
                self.phase_mean(Class::Count, "anchor"),
                "us",
            ),
            metric(
                "core.count_marginals_us",
                self.phase_mean(Class::Count, "marginals"),
                "us",
            ),
            metric("core.jvv_clamped", self.jvv_clamped as f64, "count"),
            metric(
                "core.jvv_acceptance_mean",
                mean(&self.jvv_acceptance),
                "ratio",
            ),
            metric(
                "oracle.query_us",
                self.phase_mean(Class::Infer, "oracle"),
                "us",
            ),
        ]);
        m
    }
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// The split of the layers each workload was designed for. A failed
/// design check is reported, not treated as a wrong answer: a change
/// that removes a layer's cost is allowed to break its own premise.
fn design_checks(w: &Workload, metrics: &[Metric], layers: &Layers) -> usize {
    let v = |name| value(metrics, name);
    let mut checks: Vec<(String, bool)> = vec![(
        format!(
            "net.self + serve.self + engine (means) within {ACCOUNTING_TOLERANCE} of the mean client latency"
        ),
        v("trace.accounting_gap_frac") <= ACCOUNTING_TOLERANCE,
    )];
    for expect in w.expect {
        checks.push(match expect {
            Expect::CacheHits => (
                "serve.cache_hit_frac >= 0.9".into(),
                v("serve.cache_hit_frac") >= 0.9,
            ),
            Expect::CacheBypassed => (
                "serve.cache_hit_frac < 0.01".into(),
                v("serve.cache_hit_frac") < 0.01,
            ),
            Expect::NetServeDominate => (
                "net.self_us + serve.self_us > half the client p50".into(),
                v("trace.net_serve_share") > 0.5,
            ),
            Expect::ScheduleLargest => (
                "the schedule is the largest engine stage".into(),
                layers.schedule_is_largest_stage(),
            ),
            Expect::ScheduleMinor => (
                "the schedule is under 5% of engine time".into(),
                v("localnet.schedule_share") < 0.05,
            ),
        });
    }
    for (what, ok) in &checks {
        println!(
            "  design check {}: {what}",
            if *ok { "pass" } else { "FAIL" }
        );
    }
    checks.iter().filter(|(_, ok)| !ok).count()
}

/// The in-process registry snapshot must equal a `Client::metrics()`
/// scrape on every counter that repeats exactly (the stack is idle).
fn scrape_mismatches(stack: &mut Stack) -> Result<Vec<String>, String> {
    let scraped = stack.clients[0]
        .metrics()
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let local = lds_obs::global().snapshot();
    Ok(EXACT_COUNTERS
        .iter()
        .filter(|&&name| scraped.counter(name) != local.counter(name))
        .map(|name| {
            format!(
                "counter {name}: scrape {:?} != in-process {:?}",
                scraped.counter(name),
                local.counter(name)
            )
        })
        .collect())
}

/// Every entry point must answer each checked request identically.
fn cross_entry_mismatches(net: &Pass, serve: &Pass, engine: &Pass) -> Vec<String> {
    let kept = |p: &Pass| -> Vec<(usize, u64, RunReport)> {
        p.logs
            .iter()
            .enumerate()
            .flat_map(|(c, l)| l.subset.iter().map(move |(i, _, r)| (c, *i, r.clone())))
            .collect()
    };
    let reference = kept(net);
    let mut out = Vec::new();
    for (entry, pass) in [("Server::run", serve), ("Engine::run_with_seed", engine)] {
        for ((c, i, a), (_, _, b)) in reference.iter().zip(kept(pass)) {
            if !a.semantic_eq(&b) {
                out.push(format!(
                    "client {c} request {i}: {entry} differs from Client::run"
                ));
            }
        }
    }
    out
}

/// Mean `Wire::to_bytes` and `RunReport::from_bytes` time over the kept
/// replies, repeated until the total is long enough to time, and a
/// round-trip check of each.
fn codec_times(logs: &[ClientLog]) -> (f64, f64, Vec<String>) {
    let replies: Vec<&RunReport> = logs
        .iter()
        .flat_map(|l| l.subset.iter().map(|(_, _, r)| r))
        .collect();
    let mut violations = Vec::new();
    for r in &replies {
        match RunReport::from_bytes(&r.to_bytes()) {
            Ok(back) if back.semantic_eq(r) => {}
            _ => violations.push(format!(
                "reply {:?}/{} does not survive a codec round trip",
                r.task, r.seed
            )),
        }
    }
    if replies.is_empty() {
        return (0.0, 0.0, violations);
    }
    let bytes: Vec<Vec<u8>> = replies.iter().map(|r| r.to_bytes()).collect();
    let (mut encode, mut decode, mut rounds) = (Duration::ZERO, Duration::ZERO, 0u32);
    while encode + decode < Duration::from_millis(50) {
        let t = Instant::now();
        for r in &replies {
            std::hint::black_box(std::hint::black_box(r).to_bytes());
        }
        encode += t.elapsed();
        let t = Instant::now();
        for b in &bytes {
            let _ = std::hint::black_box(RunReport::from_bytes(std::hint::black_box(b)));
        }
        decode += t.elapsed();
        rounds += 1;
    }
    let per = |d: Duration| us(d) / (f64::from(rounds) * replies.len() as f64);
    (per(encode), per(decode), violations)
}

fn print_report(
    w: &Workload,
    seed: u64,
    net: &Pass,
    untraced: &Pass,
    engine: &Pass,
    layers: &Layers,
    metrics: &[Metric],
) {
    println!(
        "{} seed={seed} traced: {} requests per entry point; throughput traced {:.1} / untraced {:.1} 1/s",
        w.name,
        net.requests(),
        net.throughput(),
        untraced.throughput()
    );
    for m in metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  net.self_us and serve.self_us are medians of per-request differences between \
         replays; their standard errors are {:.1} and {:.1} us",
        median_std_error(&layers.net_self_us),
        median_std_error(&layers.serve_self_us)
    );
    println!("  engine stages (Engine::run_with_seed pass, mean us per request of the task):");
    for class in Class::ALL {
        let Some(runs) = layers.run_us.get(&class) else {
            continue;
        };
        let stages: Vec<String> = layers
            .phase_us
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|((_, phase), v)| format!("{phase} {:.1}", mean(v)))
            .collect();
        println!(
            "    {:<13} wall {:>9.1} | {}",
            class.name(),
            mean(runs),
            stages.join(" · ")
        );
    }
    println!("  registry deltas per request (Client::run pass; Engine::run_with_seed pass):");
    for (kind, names) in [("exact", EXACT_COUNTERS), ("timing", TIMING_COUNTERS)] {
        for name in names {
            println!(
                "    {name:<30} {:>12.4} {:>12.4}  [{kind}]",
                net.per_request(name),
                engine.per_request(name)
            );
        }
    }
}

/// Writes one span per call, one JSON object a line, to
/// `.bench_out/<workload>.spans.jsonl`. A span's parent is the same
/// request's span at the enclosing entry point; the replays run one
/// after another, so a child's interval is not inside its parent's.
fn write_spans(w: &Workload, epoch: Instant, passes: [&Pass; 3]) -> Result<(), String> {
    let names = ["net.client_run", "serve.server_run", "engine.run_with_seed"];
    let dir = std::path::Path::new(".bench_out");
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.spans.jsonl", w.name));
    let file = fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let span_id = |level: usize, request: u64| ((level as u64 + 1) << 48) | request;
    for (level, pass) in passes.iter().enumerate() {
        for (client, log) in pass.logs.iter().enumerate() {
            for rec in &log.recs {
                let request = ((client as u64) << 32) | rec.index;
                let parent = if level == 0 {
                    0
                } else {
                    span_id(level - 1, request)
                };
                let start = rec.start.duration_since(epoch).as_nanos();
                writeln!(
                    out,
                    "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"request\":{request},\"start_ns\":{start},\"end_ns\":{},\"task\":\"{}\",\"hot\":{},\"ok\":{}}}",
                    names[level],
                    span_id(level, request),
                    start + rec.latency.as_nanos(),
                    rec.req.class.name(),
                    rec.req.hot,
                    rec.outcome.is_ok(),
                )
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }
    }
    out.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}
