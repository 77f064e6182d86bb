//! End-to-end loopback benchmark of the lds serving stack.
//!
//! ```text
//! cargo run --release --manifest-path netbench/Cargo.toml -- \
//!     --workload net-cold-cycle --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: two closed-loop clients
//! drive `Client::run` over loopback TCP into a `NetServer` with shipped
//! defaults. `--trace 1` replays the same request stream at three entry
//! points (`Client::run`, `Server::run`, `Engine::run_with_seed`) and
//! attributes each request's time to the layers. Either way the replies
//! are checked, a summary is printed, and the last line of standard
//! output is one JSON object. The exit code is 0 only when every check
//! passed.

mod drive;
mod traced;

use std::time::{Duration, Instant};

use lds_netbench::stats::{self, quantile};
use lds_netbench::workload::{self, Workload, CLIENTS};

use drive::{Entry, Limit, Rec, Record, Stack};

const USAGE: &str = "usage: netbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Untimed traffic before the measured window, so lazy set-up inside
/// the stack has finished.
const WARMUP: Duration = Duration::from_secs(2);

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Length of one slice of the measured window.
const SLICE_SECONDS: u64 = 1;

/// Replies per chunk for `latency_p99_ms`: ten samples lie beyond a p99.
const TAIL_CHUNK: usize = 1000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One named number of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A finished run: what the result line reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() {
    // every tenant the benchmark builds, server-side or in process, gets
    // a pool of width 2: the engine builder reads this when no width is
    // given, and nothing has read it yet
    std::env::set_var("LDS_THREADS", "2");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("netbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("netbench: {}: {e}", args.workload.name);
            std::process::exit(1);
        }
    };
    for v in &outcome.violations {
        eprintln!("netbench: check failed: {v}");
    }
    let correct = outcome.violations.is_empty();
    println!("{}", result_line(correct, &outcome));
    if !correct {
        std::process::exit(1);
    }
}

fn result_line(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that is not a number
            // is a broken measurement, reported as such
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Times `SETUP_REPS` set-ups, keeping the last stack standing.
fn timed_setups(w: &Workload, seed: u64) -> Result<(Stack, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let stack = Stack::stand_up(w, seed)?;
        secs.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((stack, stats::median(secs)));
        }
        stack.tear_down();
    }
    unreachable!("SETUP_REPS is positive")
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

fn run_untraced(w: &'static Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (mut stack, setup_s) = timed_setups(w, seed)?;
    // the measured window, cut into slices whose quantiles are reported
    // so that a burst of noise from outside the process moves one slice,
    // not the result
    let slices = (seconds / SLICE_SECONDS).max(1) as u32;
    let slice = Duration::from_secs(seconds) / slices;
    let warm_end = Instant::now() + WARMUP;
    let bounds: Vec<Instant> = (0..=slices).map(|k| warm_end + slice * k).collect();
    let end = bounds[slices as usize];
    let limits = [Limit::Until {
        from: 0,
        until: end,
    }; CLIENTS];
    let fingerprints = stack.fingerprints.clone();
    let (logs, cpu) = std::thread::scope(|s| {
        // process CPU at every slice boundary
        let cpu = s.spawn(|| -> Result<Vec<Duration>, String> {
            bounds
                .iter()
                .map(|&b| {
                    sleep_until(b);
                    stats::process_cpu_time()
                })
                .collect()
        });
        let entries = stack
            .clients
            .iter_mut()
            .map(|client| Entry::Net {
                client,
                fingerprints: &fingerprints,
            })
            .collect();
        let logs = drive::drive(w, seed, entries, &limits, Record::Requests);
        (logs, cpu.join().expect("cpu sampler panicked"))
    });
    let cpu = cpu?;
    stack.tear_down();

    let recs: Vec<&Rec> = logs
        .iter()
        .flat_map(|log| &log.recs)
        .filter(|r| r.start >= warm_end)
        .collect();
    let attempted = recs.len() as u64;
    let mut ok: Vec<&Rec> = recs.iter().copied().filter(|r| r.outcome.is_ok()).collect();
    ok.sort_by_key(|r| r.start);
    let completed = ok.len() as u64;
    let failed = attempted - completed;
    if let Some(e) = logs.iter().find_map(|l| l.first_error.as_ref()) {
        eprintln!("netbench: first failed request: {e}");
    }
    let sorted_ms = |rs: &[&Rec]| {
        let mut ms: Vec<f64> = rs.iter().map(|r| r.latency.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        ms
    };
    let (mut throughput, mut p50, mut cpu_ms_per_req) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..slices as usize {
        let in_slice: Vec<&Rec> = ok
            .iter()
            .copied()
            .filter(|r| (bounds[k]..bounds[k + 1]).contains(&r.start))
            .collect();
        let n = in_slice.len() as f64;
        throughput.push(n / slice.as_secs_f64());
        p50.push(quantile(&sorted_ms(&in_slice), 0.5));
        cpu_ms_per_req.push(stats::ratio((cpu[k + 1] - cpu[k]).as_secs_f64() * 1e3, n));
    }
    let fail_frac = stats::ratio(failed as f64, attempted as f64);
    // the tail in slices too: the p99s of consecutive chunks of
    // TAIL_CHUNK replies, each leaving at least ten samples beyond its p99
    let chunks = (ok.len() / TAIL_CHUNK).max(1);
    let p99: Vec<f64> = (0..chunks)
        .map(|c| {
            let chunk = &ok[c * ok.len() / chunks..(c + 1) * ok.len() / chunks];
            quantile(&sorted_ms(chunk), 0.99)
        })
        .collect();
    // Interference from outside the process only ever slows a slice
    // down, and how many slow slices a run catches varies from run to
    // run: each timing is read at the fast quartile of its slices, which
    // moves far less than their median. The medians are printed beside.
    let medians = [&throughput, &p50, &cpu_ms_per_req, &p99].map(|v| stats::median(v.clone()));
    let throughput = stats::quantile_of(throughput, 0.75);
    let p50 = stats::quantile_of(p50, 0.25);
    let cpu_ms_per_req = stats::quantile_of(cpu_ms_per_req, 0.25);
    let p99 = stats::quantile_of(p99, 0.25);
    let violations = drive::correctness(w, &logs)?;
    // per-task latency modes, so the reader can see which one holds p50
    for (class, _) in w.mix {
        let of_class: Vec<&Rec> = ok
            .iter()
            .copied()
            .filter(|r| r.req.class == *class)
            .collect();
        let modes = sorted_ms(&of_class);
        println!(
            "  {:<13} share={:.3} p10={:.4} p50={:.4} p90={:.4} ms",
            class.name(),
            stats::ratio(modes.len() as f64, completed as f64),
            quantile(&modes, 0.1),
            quantile(&modes, 0.5),
            quantile(&modes, 0.9),
        );
    }
    println!(
        "{} seed={seed} clients={CLIENTS} cores={}: setup_s={setup_s:.4} s (median of {SETUP_REPS}); \
         fast quartile [median] of {slices} slices of {SLICE_SECONDS} s, n={completed}: \
         throughput_rps={throughput:.1} [{:.1}] 1/s, latency_p50_ms={p50:.4} [{:.4}] ms, \
         cpu_ms_per_req={cpu_ms_per_req:.4} [{:.4}] ms; of {chunks} chunks of {TAIL_CHUNK} replies: \
         latency_p99_ms={p99:.4} [{:.4}] ms; fail_frac={fail_frac} ({failed}/{attempted}), checked {} replies",
        w.name,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        medians[0],
        medians[1],
        medians[2],
        medians[3],
        logs.iter().map(|l| l.subset.len()).sum::<usize>(),
    );
    Ok(Outcome {
        attempted,
        failed,
        violations,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("throughput_rps", throughput, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p99_ms", p99, "ms"),
            metric("cpu_ms_per_req", cpu_ms_per_req, "ms"),
            metric("ok_frac", 1.0 - fail_frac, "frac"),
        ],
    })
}
