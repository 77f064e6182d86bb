//! The serving front-end: bounded admission, one session per engine pool
//! thread, one request per dispatch, idempotent completion.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use lds_engine::{Engine, EngineError, RunReport, Task};
use lds_obs::{Counter, Gauge, Histogram, MetricsScope};
use lds_runtime::channel::{self, TrySendError};

use crate::cache::{IdempotencyKey, LruCache};
use crate::stats::{latency_percentiles, ServerStats};

/// One server's series, resolved once from its own scope of the process
/// metrics registry. Every serve event is one bump on one of these
/// handles: [`Server::stats`] reads them back (each counter is the
/// [`ServerStats`] field of the same name), and the registry's snapshot
/// (`Op::Metrics`) reports each name totalled over every live server —
/// dropping the server folds its counters and latencies into those
/// totals and removes its gauges.
struct ServeMetrics {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    engine_executions: Arc<Counter>,
    /// Requests answered [`ServeError::Expired`] (or shed at admission
    /// with [`SubmitError::Expired`]) because their deadline passed.
    deadline_misses: Arc<Counter>,
    /// Worker sessions respawned by the supervisor after a panic.
    worker_restarts: Arc<Counter>,
    /// Requests in the queue: +1 per enqueue, −1 per dequeue, so it
    /// equals the queue length whenever no hand-off is in flight.
    queue_depth: Arc<Gauge>,
    /// Request latency, submit → respond, over the server's lifetime.
    latency: Arc<Histogram>,
    /// Owns the series above (and the admission-watermark gauge).
    _scope: MetricsScope<'static>,
}

impl ServeMetrics {
    fn new(watermark: usize) -> ServeMetrics {
        let scope = lds_obs::global().scope();
        scope
            .gauge("serve_admission_watermark")
            .set(watermark as i64);
        ServeMetrics {
            submitted: scope.counter("serve_submitted"),
            rejected: scope.counter("serve_rejected"),
            completed: scope.counter("serve_completed"),
            failed: scope.counter("serve_failed"),
            cache_hits: scope.counter("serve_cache_hits"),
            cache_misses: scope.counter("serve_cache_misses"),
            engine_executions: scope.counter("serve_engine_executions"),
            deadline_misses: scope.counter("serve_deadline_misses"),
            worker_restarts: scope.counter("serve_worker_restarts"),
            queue_depth: scope.gauge("serve_queue_depth"),
            latency: scope.histogram("serve_request_latency_ns"),
            _scope: scope,
        }
    }
}

/// Tuning knobs of a [`Server`]. Start from `ServerConfig::default()`
/// and override fields; every knob has a safe clamp. How many requests
/// a server runs at once is not a knob here: it runs one session per
/// thread of its engine's pool ([`lds_engine::EngineBuilder::threads`]).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bounded request-queue capacity — the admission watermark
    /// (default 256, clamped to ≥ 1). A full queue makes
    /// [`Server::try_submit`] return [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Idempotency-cache entries (default 1024; `0` disables caching —
    /// identical requests then still dedup while in flight, but not
    /// across time).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            cache_capacity: 1024,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control shed the request: the queue is full. Callers
    /// should back off and retry; the depth and limit are attached for
    /// their telemetry.
    Overloaded {
        /// Queue depth observed at rejection time.
        queue_depth: usize,
        /// The watermark that was hit: the queue capacity.
        watermark: usize,
    },
    /// The server has been shut down.
    ShuttingDown,
    /// The request arrived with an already-expired deadline; it was
    /// never queued and nothing executed.
    Expired,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                queue_depth,
                watermark,
            } => write!(
                f,
                "server overloaded: queue depth {queue_depth} at watermark {watermark}"
            ),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::Expired => write!(f, "deadline already expired at admission"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request did not produce a report.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The engine failed this request's task (the underlying error is
    /// attached).
    Engine(EngineError),
    /// The server dropped the request without an answer (shutdown or a
    /// worker failure mid-dispatch).
    Cancelled,
    /// The request's deadline passed while it waited in the queue; it
    /// was answered without executing. (A deadline missed *during*
    /// execution surfaces as
    /// `ServeError::Engine(EngineError::DeadlineExceeded)` — the
    /// engine's cooperative cancellation.) Deadline outcomes are never
    /// cached: a later retry with a larger budget re-executes.
    Expired,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Cancelled => write!(f, "request cancelled by the server"),
            ServeError::Expired => write!(f, "deadline expired while queued"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::Cancelled | ServeError::Expired => None,
        }
    }
}

/// A claim on one accepted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<RunReport, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers this request.
    pub fn wait(self) -> Result<RunReport, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            // the responder was dropped without an answer
            Err(_) => Err(ServeError::Cancelled),
        }
    }
}

/// One queued request: its identity plus the responder to answer it on.
struct Pending {
    task: Task,
    seed: u64,
    submitted_at: Instant,
    /// Absolute deadline, if the caller set one. Checked when the
    /// request is dispatched (queue-expired requests are answered
    /// [`ServeError::Expired`] without executing) and propagated into
    /// the engine's cooperative cancellation for the run itself.
    deadline: Option<Instant>,
    tx: mpsc::Sender<Result<RunReport, ServeError>>,
}

/// Cache and in-flight bookkeeping under **one** lock.
///
/// Keeping both structures behind a single mutex makes the
/// at-most-one-execution argument a one-liner: every session's
/// resolve-or-claim step and every owner's publish step is atomic with
/// respect to both maps, so there is no window in which a key is
/// neither cached nor claimed while an execution for it is running.
/// (Two locks would force a lock order and still leave a
/// check-then-act gap unless nested — one lock is simpler and the
/// critical sections are tiny.)
struct Ledger {
    cache: LruCache<IdempotencyKey, RunReport>,
    /// Keys currently executing, each with the waiters that piggybacked
    /// after the owning session claimed the key.
    inflight: HashMap<IdempotencyKey, Vec<Pending>>,
}

/// State shared by the handle and every worker session.
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    ledger: Mutex<Ledger>,
    metrics: ServeMetrics,
    /// The admission watermark: [`ServerConfig::queue_capacity`]
    /// clamped to ≥ 1.
    watermark: usize,
    /// Probe end of the request queue, used only for depth/peak stats
    /// (holding a receiver does not keep the queue alive — shutdown is
    /// signalled by dropping the *sender*).
    probe: channel::Receiver<Pending>,
    started_at: Instant,
}

impl Shared {
    /// Answers one request, counting the answer and recording its
    /// latency.
    fn respond(&self, pending: Pending, result: Result<RunReport, ServeError>) {
        let outcome = if result.is_ok() {
            &self.metrics.completed
        } else {
            &self.metrics.failed
        };
        outcome.inc();
        self.metrics
            .latency
            .record_duration(pending.submitted_at.elapsed());
        // a dropped Ticket is a fire-and-forget request; ignore it
        let _ = pending.tx.send(result);
    }

    /// Answers one dequeued request on its own: expire it, or take one
    /// ledger step (cache hit, ride-along on an identical in-flight
    /// execution, or claim), run a claim on the engine, publish the
    /// result and answer the request and its riders.
    fn dispatch(&self, pending: Pending) {
        let metrics = &self.metrics;
        if pending.deadline.is_some_and(|d| Instant::now() >= d) {
            metrics.deadline_misses.inc();
            self.respond(pending, Err(ServeError::Expired));
            return;
        }
        let (task, seed) = (pending.task, pending.seed);
        let key = IdempotencyKey {
            fingerprint: self.engine.fingerprint(),
            task,
            seed,
        };
        {
            let mut ledger = self.ledger.lock().expect("ledger poisoned");
            if let Some(report) = ledger.cache.get(&key).cloned() {
                drop(ledger);
                metrics.cache_hits.inc();
                self.respond(pending, Ok(report));
                return;
            }
            metrics.cache_misses.inc();
            // another session owns this key: ride along, answered by
            // that owner
            if let Some(riders) = ledger.inflight.get_mut(&key) {
                riders.push(pending);
                return;
            }
            ledger.inflight.insert(key, Vec::new());
        }
        // Panics are contained here: letting one unwind past the claim
        // would strand the inflight entry forever (riders never
        // answered, the key never executable again). A panicking
        // execution instead cancels its waiters and the session keeps
        // serving.
        metrics.engine_executions.inc();
        let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.engine.run_with_deadline(task, seed, pending.deadline)
        })) {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(err)) => Err(ServeError::Engine(err)),
            Err(_panic) => Err(ServeError::Cancelled),
        };
        if matches!(
            outcome,
            Err(ServeError::Engine(EngineError::DeadlineExceeded))
        ) {
            metrics.deadline_misses.inc();
        }
        // publish, then answer outside the lock. Failures are never
        // cached: deadline outcomes in particular must not shadow a
        // later retry with a larger budget.
        let riders = {
            let mut ledger = self.ledger.lock().expect("ledger poisoned");
            if let Ok(report) = &outcome {
                ledger.cache.insert(key, report.clone());
            }
            ledger.inflight.remove(&key).unwrap_or_default()
        };
        for rider in riders {
            self.respond(rider, outcome.clone());
        }
        self.respond(pending, outcome);
    }
}

/// One worker session: take one request off the queue, answer it,
/// repeat. Exits when the queue disconnects *and* drains — accepted
/// requests are always served, even during shutdown.
fn worker_loop(shared: Arc<Shared>, rx: channel::Receiver<Pending>) {
    while let Ok(pending) = rx.recv() {
        shared.metrics.queue_depth.add(-1);
        // fail points OUTSIDE dispatch's own panic containment: a
        // `Panic` here unwinds the session holding the request — its
        // responder drops (the ticket answers typed Cancelled) and the
        // supervisor respawns the session
        if let Some(lds_chaos::Fault::Delay(d)) = lds_chaos::point("serve.queue_stall") {
            thread::sleep(d);
        }
        if let Some(fault) = lds_chaos::point("serve.worker_panic") {
            if matches!(fault, lds_chaos::Fault::Panic) {
                panic!("injected fault: serve.worker_panic");
            }
        }
        shared.dispatch(pending);
    }
}

/// Runs one worker session under a supervisor: a clean exit (queue
/// disconnected and drained) ends the session; a panic is contained,
/// counted (`serve_worker_restarts`), and the session respawns on the
/// same thread and keeps draining. The unwound request's responder
/// drops during the unwind, so its ticket is answered with a typed
/// [`ServeError::Cancelled`] — never left hanging.
fn supervise(shared: Arc<Shared>, rx: channel::Receiver<Pending>) {
    loop {
        let session = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(Arc::clone(&shared), rx.clone())
        }));
        match session {
            Ok(()) => return,
            Err(_panic) => shared.metrics.worker_restarts.inc(),
        }
    }
}

/// A concurrent serving front-end over one shared [`Engine`].
///
/// ```text
///  clients ──try_submit──▶ [bounded queue] ──▶ sessions, one per
///     ▲   Overloaded ◀──┘ (admission ctl)       │  engine pool thread
///     │                                         ▼
///  Ticket::wait ◀── respond ◀── ledger ◀── Engine::run_with_deadline
///                         (idempotency cache + in-flight dedup)
/// ```
///
/// * **Admission control** — the request queue is bounded;
///   [`Server::try_submit`] sheds load with [`SubmitError::Overloaded`]
///   at its capacity instead of queuing unboundedly.
/// * **One request per dispatch, one session per pool thread** — each
///   `(task, seed)` is its own execution, driven by that seed's
///   randomness alone, so two requests share no work a batch could
///   amortize. A session takes one request off the queue and answers
///   it with one [`Engine::run_with_deadline`] call under the request's
///   own deadline. The server runs [`Engine::threads`] sessions, so
///   requests of any mix of tasks run side by side, and an engine error
///   or missed deadline fails only its own request.
/// * **Idempotency** — answers are cached under
///   `(engine fingerprint, task, seed)`. Per-request seeds are the
///   idempotency key of the whole workspace: task randomness derives
///   from the seed alone, so a cached answer is bit-identical to a
///   recomputed one. Identical requests in flight dedup to a single
///   execution regardless of which session carries them.
/// * **Determinism** — sessions and caching change *when and where* a
///   task runs, never its output bits: a report served through the
///   server equals the report of a direct `engine.run_with_seed` call
///   (up to wall-clock fields).
///
/// Dropping the server stops admission, drains every accepted request,
/// and joins the sessions.
pub struct Server {
    shared: Arc<Shared>,
    /// `None` after shutdown; dropping the sender is the shutdown
    /// signal (sessions exit once the queue disconnects and drains).
    queue: Option<channel::Sender<Pending>>,
    sessions: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server with the given configuration; its sessions, one
    /// per thread of the engine's pool, spawn immediately.
    pub fn new(engine: Arc<Engine>, config: ServerConfig) -> Server {
        let watermark = config.queue_capacity.max(1);
        let (tx, rx) = channel::bounded::<Pending>(watermark);
        let shared = Arc::new(Shared {
            engine,
            ledger: Mutex::new(Ledger {
                cache: LruCache::new(config.cache_capacity),
                inflight: HashMap::new(),
            }),
            metrics: ServeMetrics::new(watermark),
            watermark,
            probe: rx.clone(),
            started_at: Instant::now(),
            config,
        });
        let sessions = (0..shared.engine.threads())
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                thread::Builder::new()
                    .name(format!("lds-serve-{i}"))
                    .spawn(move || supervise(shared, rx))
                    .expect("spawn serve session")
            })
            .collect();
        Server {
            shared,
            queue: Some(tx),
            sessions,
        }
    }

    /// Starts a server with [`ServerConfig::default`].
    pub fn with_defaults(engine: Arc<Engine>) -> Server {
        Server::new(engine, ServerConfig::default())
    }

    /// Submits without blocking. Sheds load with
    /// [`SubmitError::Overloaded`] once the queue is full — the
    /// backpressure contract: the caller, not the server, decides
    /// whether to retry, degrade, or fail upstream.
    pub fn try_submit(&self, task: Task, seed: u64) -> Result<Ticket, SubmitError> {
        self.try_submit_with_deadline(task, seed, None)
    }

    /// [`Server::try_submit`] with an optional absolute deadline.
    ///
    /// An already-expired deadline is shed right here with
    /// [`SubmitError::Expired`] — the request never queues and nothing
    /// executes. An accepted deadline rides with the request: if it
    /// passes while queued the answer is [`ServeError::Expired`]; if it
    /// passes mid-run the engine cancels cooperatively and the answer
    /// is `ServeError::Engine(EngineError::DeadlineExceeded)`. Either
    /// way the caller always gets a typed answer, and deadline outcomes
    /// are never cached.
    pub fn try_submit_with_deadline(
        &self,
        task: Task,
        seed: u64,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        let metrics = &self.shared.metrics;
        metrics.submitted.inc();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            metrics.rejected.inc();
            metrics.deadline_misses.inc();
            return Err(SubmitError::Expired);
        }
        let Some(queue) = &self.queue else {
            return Err(SubmitError::ShuttingDown);
        };
        let watermark = self.shared.watermark;
        let (pending, ticket) = Self::make_request(task, seed, deadline);
        // the depth check and the enqueue are one atomic operation:
        // checking `len()` first would let concurrent producers all
        // observe a below-watermark depth and overshoot it together
        match queue.try_send_below(pending, watermark) {
            Ok(()) => {
                self.shared.metrics.queue_depth.add(1);
                Ok(ticket)
            }
            Err(TrySendError::Full(_, depth)) => {
                metrics.rejected.inc();
                Err(SubmitError::Overloaded {
                    queue_depth: depth,
                    watermark,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Submits, blocking while the queue is full (cooperative
    /// backpressure for in-process clients that prefer waiting over
    /// shedding).
    pub fn submit(&self, task: Task, seed: u64) -> Result<Ticket, SubmitError> {
        self.shared.metrics.submitted.inc();
        let Some(queue) = &self.queue else {
            return Err(SubmitError::ShuttingDown);
        };
        let (pending, ticket) = Self::make_request(task, seed, None);
        queue
            .send(pending)
            .map(|()| {
                self.shared.metrics.queue_depth.add(1);
                ticket
            })
            .map_err(|_| SubmitError::ShuttingDown)
    }

    /// Convenience: blocking submit + wait. Use
    /// [`Server::try_submit`] when the caller needs to observe
    /// admission-control rejections instead of waiting out the queue.
    pub fn run(&self, task: Task, seed: u64) -> Result<RunReport, ServeError> {
        match self.submit(task, seed) {
            Ok(ticket) => ticket.wait(),
            Err(_) => Err(ServeError::Cancelled),
        }
    }

    fn make_request(task: Task, seed: u64, deadline: Option<Instant>) -> (Pending, Ticket) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                task,
                seed,
                submitted_at: Instant::now(),
                deadline,
                tx,
            },
            Ticket { rx },
        )
    }

    /// A point-in-time stats snapshot, read from this server's registry
    /// series (relaxed atomics: consistent enough for telemetry, not a
    /// barrier).
    pub fn stats(&self) -> ServerStats {
        let m = &self.shared.metrics;
        let (p50, p99) = latency_percentiles(&m.latency);
        ServerStats {
            submitted: m.submitted.get(),
            rejected: m.rejected.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            engine_executions: m.engine_executions.get(),
            queue_depth: self.shared.probe.len(),
            peak_queue_depth: self.shared.probe.peak_depth(),
            p50_latency: p50,
            p99_latency: p99,
            uptime: self.shared.started_at.elapsed(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // dropping the only sender disconnects the queue; sessions
        // finish the drain and exit
        self.queue.take();
        for session in self.sessions.drain(..) {
            let _ = session.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("engine", &self.shared.engine.spec())
            .field("config", &self.shared.config)
            .field("queue_depth", &self.shared.probe.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use lds_engine::ModelSpec;
    use lds_graph::generators;

    fn test_engine() -> Arc<Engine> {
        Arc::new(
            Engine::builder()
                .model(ModelSpec::Hardcore { lambda: 1.0 })
                .graph(generators::cycle(8))
                .epsilon(0.01)
                .threads(1)
                .build()
                .expect("in regime"),
        )
    }

    #[test]
    fn serves_and_matches_direct_execution() {
        let engine = test_engine();
        let server = Server::with_defaults(Arc::clone(&engine));
        let served = server
            .try_submit(Task::SampleExact, 13)
            .unwrap()
            .wait()
            .unwrap();
        let direct = engine.run_with_seed(Task::SampleExact, 13).unwrap();
        assert_eq!(
            served.config().unwrap().values(),
            direct.config().unwrap().values()
        );
        assert_eq!(served.rounds, direct.rounds);
        assert_eq!(served.seed, 13);
    }

    #[test]
    fn cache_serves_repeats_without_reexecution() {
        let server = Server::with_defaults(test_engine());
        let a = server.run(Task::SampleExact, 5).unwrap();
        // run sequentially so the second request cannot ride along on
        // the first's execution: it must be a pure cache hit
        let b = server.run(Task::SampleExact, 5).unwrap();
        assert_eq!(a.config().unwrap().values(), b.config().unwrap().values());
        let stats = server.stats();
        assert_eq!(stats.engine_executions, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn cache_capacity_zero_disables_replay() {
        let server = Server::new(
            test_engine(),
            ServerConfig {
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        );
        server.run(Task::SampleExact, 5).unwrap();
        server.run(Task::SampleExact, 5).unwrap();
        let stats = server.stats();
        assert_eq!(stats.engine_executions, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn distinct_tasks_and_seeds_all_complete() {
        let server = Server::with_defaults(test_engine());
        let tickets: Vec<Ticket> = (0..6u64)
            .map(|s| server.try_submit(Task::SampleExact, s).unwrap())
            .chain((0..2u64).map(|s| server.try_submit(Task::Count, s).unwrap()))
            .collect();
        for t in tickets {
            let report = t.wait().unwrap();
            assert!(report.rounds > 0);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 8);
        // Count is seed-independent in output but still keyed by seed:
        // the two Count requests execute separately (different keys)
        assert_eq!(stats.engine_executions, 8);
    }

    #[test]
    fn failed_execution_releases_claims_and_server_keeps_serving() {
        use lds_gibbs::Value;
        use lds_graph::NodeId;
        let server = Server::with_defaults(test_engine());
        // an out-of-range vertex makes the engine run fail inside dispatch:
        // the claim must be released and the error surfaced, not cached
        let bad = Task::Infer {
            vertex: NodeId(999),
            value: Value(0),
        };
        for _ in 0..2 {
            let err = server.run(bad, 1).unwrap_err();
            assert!(matches!(
                err,
                ServeError::Engine(EngineError::InvalidTask { .. })
            ));
        }
        let stats = server.stats();
        assert_eq!(stats.failed, 2);
        // both attempts executed: failures are not cached, and the
        // first failure's inflight claim did not wedge the key
        assert_eq!(stats.engine_executions, 2);
        // the worker survives and serves healthy requests
        let ok = server.run(Task::SampleExact, 3).unwrap();
        assert!(ok.config().is_some());
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let server = Server::with_defaults(test_engine());
        let tickets: Vec<Ticket> = (0..8u64)
            .map(|s| server.try_submit(Task::SampleExact, s).unwrap())
            .collect();
        drop(server); // joins sessions; accepted work must finish
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted request dropped on shutdown");
        }
    }

    #[test]
    fn stats_snapshot_counts_batches() {
        let server = Server::with_defaults(test_engine());
        for s in 0..4u64 {
            server.run(Task::SampleExact, s).unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 4);
        assert!(stats.p50_latency > Duration::ZERO);
        assert!(stats.p99_latency >= stats.p50_latency);
        assert_eq!(stats.queue_depth, 0);
    }
}
