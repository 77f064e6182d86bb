//! Standing up the stack, driving closed-loop clients through one entry
//! point, and checking the replies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lds_engine::{Engine, RunReport, Task, TaskOutput};
use lds_net::{Client, NetConfig, NetServer};
use lds_obs::{ObservableKind, RoundObservation};
use lds_runtime::Phase;
use lds_serve::Server;

use lds_netbench::workload::{Request, Workload, CLIENTS};

/// Every `SUBSET_STRIDE`-th request of each client, up to
/// `SUBSET_PER_CLIENT` of them, is kept whole and checked against a
/// direct engine run.
const SUBSET_STRIDE: u64 = 8;
const SUBSET_PER_CLIENT: u64 = 32;

/// Pause between binding and connecting; see [`Stack::stand_up`].
const ACCEPT_SETTLE: Duration = Duration::from_millis(2);

/// The out-of-process stack as a user meets it: a loopback `NetServer`
/// with shipped defaults, one connection per client, every tenant
/// registered (which builds its engine server-side).
pub struct Stack {
    pub server: NetServer,
    pub clients: Vec<Client>,
    pub fingerprints: Vec<u64>,
}

impl Stack {
    /// Binds, connects, registers every tenant and warms the hot set —
    /// exactly the steps `setup_s` times.
    pub fn stand_up(w: &Workload, seed: u64) -> Result<Stack, String> {
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        // connect after the accept loop's first nonblocking poll, as a
        // client arriving later would: a connect racing that first poll
        // skips the poll interval and makes the set-up time bimodal
        std::thread::sleep(ACCEPT_SETTLE);
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let fingerprints = w
            .specs()
            .iter()
            .map(|spec| clients[0].register(spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("register: {e}"))?;
        for k in 0..w.hot_keys {
            clients[0]
                .run(fingerprints[0], Task::SampleExact, w.hot_seed(seed, k))
                .map_err(|e| format!("warm hot key {k}: {e}"))?;
        }
        Ok(Stack {
            server,
            clients,
            fingerprints,
        })
    }

    pub fn tear_down(self) {
        // closing the connections first ends each session at once
        drop(self.clients);
        self.server.shutdown();
    }
}

/// In-process servers over fresh engines, one per tenant, with the hot
/// set warmed — the second entry point of the traced run.
pub fn serve_stack(w: &Workload, seed: u64) -> Result<Vec<Arc<Server>>, String> {
    let servers: Vec<Arc<Server>> = engines(w)?
        .into_iter()
        .map(|engine| Arc::new(Server::with_defaults(engine)))
        .collect();
    for k in 0..w.hot_keys {
        servers[0]
            .run(Task::SampleExact, w.hot_seed(seed, k))
            .map_err(|e| format!("warm hot key {k}: {e}"))?;
    }
    Ok(servers)
}

/// Fresh engines built from the workload's specs, in tenant order.
pub fn engines(w: &Workload) -> Result<Vec<Arc<Engine>>, String> {
    w.specs()
        .iter()
        .map(|spec| spec.build().map(Arc::new))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("build engine: {e}"))
}

/// One way into the stack for one client thread.
pub enum Entry<'a> {
    /// `Client::run` over loopback TCP.
    Net {
        client: &'a mut Client,
        fingerprints: &'a [u64],
    },
    /// `Server::run` in process.
    Serve(&'a [Arc<Server>]),
    /// `Engine::run_with_seed`.
    Engine(&'a [Arc<Engine>]),
}

impl Entry<'_> {
    fn call(&mut self, r: &Request) -> Result<RunReport, String> {
        match self {
            Entry::Net {
                client,
                fingerprints,
            } => client
                .run(fingerprints[r.tenant], r.task, r.seed)
                .map_err(|e| e.to_string()),
            Entry::Serve(servers) => servers[r.tenant]
                .run(r.task, r.seed)
                .map_err(|e| e.to_string()),
            Entry::Engine(engines) => engines[r.tenant]
                .run_with_seed(r.task, r.seed)
                .map_err(|e| e.to_string()),
        }
    }
}

/// Which stretch of its stream a client sends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// From request `from`, issuing until `until` (the last request may
    /// finish after it).
    Until { from: u64, until: Instant },
    /// Requests `from..to`: a replay of a stretch another pass sent.
    Range { from: u64, to: u64 },
}

/// How much each client keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record {
    /// Counts only (the untraced side of the tracing-overhead pair).
    Counts,
    /// Every request, with its timing, outcome and report summary.
    Requests,
}

/// What the benchmark keeps of a report.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The engine's own wall time for this execution (for a cache hit,
    /// the original execution's).
    pub wall: Duration,
    pub phases: Vec<Phase>,
    pub succeeded: bool,
    pub rounds: usize,
    pub bound_rounds: f64,
    /// `(clamped, acceptance product)` of a local-JVV run.
    pub jvv: Option<(usize, f64)>,
}

/// One call through an entry point: the span the traced run writes out.
#[derive(Clone, Debug)]
pub struct Rec {
    pub index: u64,
    pub req: Request,
    pub start: Instant,
    pub latency: Duration,
    pub outcome: Result<Summary, String>,
}

/// What one client thread brings back.
#[derive(Default)]
pub struct ClientLog {
    pub recs: Vec<Rec>,
    /// Whole replies of the checked subset: `(index, request, reply)`.
    pub subset: Vec<(u64, Request, RunReport)>,
    pub completed: u64,
    pub failed: u64,
    /// Replies whose output broke a range check, with the reason.
    pub invalid: Vec<String>,
    pub first_error: Option<String>,
}

impl ClientLog {
    /// Requests issued, answered or not.
    pub fn issued(&self) -> u64 {
        self.completed + self.failed
    }

    /// Appends a later stretch of the same client's log.
    pub fn append(&mut self, later: ClientLog) {
        self.recs.extend(later.recs);
        self.subset.extend(later.subset);
        self.completed += later.completed;
        self.failed += later.failed;
        self.invalid.extend(later.invalid);
        if self.first_error.is_none() {
            self.first_error = later.first_error;
        }
    }

    fn note(
        &mut self,
        index: u64,
        req: Request,
        start: Instant,
        latency: Duration,
        result: Result<RunReport, String>,
        record: Record,
    ) {
        let outcome = match result {
            Ok(report) => {
                self.completed += 1;
                if let Some(why) = invalid_reply(&req, &report) {
                    self.invalid.push(format!("request {index}: {why}"));
                }
                if record != Record::Counts
                    && index.is_multiple_of(SUBSET_STRIDE)
                    && index < SUBSET_STRIDE * SUBSET_PER_CLIENT
                {
                    self.subset.push((index, req, report.clone()));
                }
                Ok(Summary {
                    wall: report.wall_time,
                    phases: report.phases,
                    succeeded: report.succeeded,
                    rounds: report.rounds,
                    bound_rounds: report.bound_rounds,
                    jvv: report.stats.map(|s| (s.clamped, s.acceptance_product)),
                })
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.clone());
                Err(e)
            }
        };
        if record != Record::Counts {
            self.recs.push(Rec {
                index,
                req,
                start,
                latency,
                outcome,
            });
        }
    }
}

/// Why a reply cannot be right whatever its seed, if it cannot.
fn invalid_reply(req: &Request, report: &RunReport) -> Option<String> {
    if report.task != req.task || report.seed != req.seed {
        return Some(format!(
            "reply for {:?}/{} answers {:?}/{}",
            req.task, req.seed, report.task, report.seed
        ));
    }
    match &report.output {
        TaskOutput::Marginal {
            distribution,
            probability,
        } => {
            let in_unit = |p: f64| (0.0..=1.0).contains(&p);
            (!in_unit(*probability) || !distribution.iter().all(|&p| in_unit(p)))
                .then(|| format!("Infer probability outside [0,1]: {distribution:?}"))
        }
        TaskOutput::Count {
            log_z,
            log_error_bound,
        } => (!log_z.is_finite() || !log_error_bound.is_finite())
            .then(|| format!("Count not finite: log_z {log_z}, bound {log_error_bound}")),
        TaskOutput::Sample { .. } => None,
    }
}

/// Runs one closed-loop client thread per entry: each sends its next
/// request only after the previous reply arrived.
pub fn drive(
    w: &Workload,
    seed: u64,
    entries: Vec<Entry<'_>>,
    limits: &[Limit],
    record: Record,
) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = entries
            .into_iter()
            .zip(limits)
            .enumerate()
            .map(|(client, (mut entry, &limit))| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let from = match limit {
                        Limit::Until { from, .. } | Limit::Range { from, .. } => from,
                    };
                    for index in from.. {
                        let start = Instant::now();
                        let done = match limit {
                            Limit::Until { until, .. } => start >= until,
                            Limit::Range { to, .. } => index >= to,
                        };
                        if done {
                            break;
                        }
                        let req = w.request(seed, client, index);
                        let result = entry.call(&req);
                        log.note(index, req, start, start.elapsed(), result, record);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The output checks every run makes: every kept reply against a direct
/// run of the same `(spec, task, seed)` with `RunReport::semantic_eq`,
/// and the range checks. Returns the violations.
///
/// The round ledger is reported, not checked here: it bounds how many
/// rounds a sample took, not what the sample is, and a rare seed crosses
/// it (cycle(128) SampleExact with seed 15349369231826218759 takes 2208
/// rounds against a bound of 1665), which a run of tens of thousands of
/// fresh seeds meets now and then.
pub fn correctness(w: &Workload, logs: &[ClientLog]) -> Result<Vec<String>, String> {
    let reference = engines(w)?;
    let mut violations = Vec::new();
    for (client, log) in logs.iter().enumerate() {
        for (index, req, reply) in &log.subset {
            match reference[req.tenant].run_with_seed(req.task, req.seed) {
                Ok(direct) if direct.semantic_eq(reply) => {}
                Ok(_) => violations.push(format!(
                    "client {client} request {index} ({:?}, seed {}): reply differs from a direct engine run",
                    req.task, req.seed
                )),
                Err(e) => violations.push(format!(
                    "client {client} request {index}: direct engine run failed: {e}"
                )),
            }
        }
        violations.extend(log.invalid.iter().cloned());
    }
    let ledger = lds_obs::ledger();
    let summary = ledger.summary();
    // Glauber sweep observations always read 1 (they must equal their plan)
    let rounds: Vec<f64> = ledger
        .observations()
        .iter()
        .filter(|o| o.kind == ObservableKind::ChromaticRounds)
        .map(RoundObservation::ratio)
        .collect();
    println!(
        "  round ledger: {} observations, {} over their bound; the last {} \
         chromatic-round ones reach {:.3} of theirs",
        summary.observations,
        summary.violations,
        rounds.len(),
        rounds.iter().copied().fold(0.0, f64::max),
    );
    Ok(violations)
}
