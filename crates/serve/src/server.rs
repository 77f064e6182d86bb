//! The serving front-end: bounded admission, worker sessions, coalesced
//! dispatch, idempotent completion.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use lds_engine::{Engine, EngineError, RunReport, Task};
use lds_obs::trace::{self, TraceEvent};
use lds_obs::{Counter, Gauge, Histogram, MetricsScope};
use lds_runtime::channel::{self, RecvTimeoutError, TryRecvError, TrySendError};

use crate::cache::{IdempotencyKey, LruCache};
use crate::coalesce::coalesce;
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
    batches: Arc<Counter>,
    batched_requests: Arc<Counter>,
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
            batches: scope.counter("serve_batches"),
            batched_requests: scope.counter("serve_batched_requests"),
            deadline_misses: scope.counter("serve_deadline_misses"),
            worker_restarts: scope.counter("serve_worker_restarts"),
            queue_depth: scope.gauge("serve_queue_depth"),
            latency: scope.histogram("serve_request_latency_ns"),
            _scope: scope,
        }
    }
}

/// Tuning knobs of a [`Server`]. Start from `ServerConfig::default()`
/// and override fields; every knob has a safe clamp.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bounded request-queue capacity — the hard admission limit
    /// (default 256, clamped to ≥ 1). A full queue makes
    /// [`Server::try_submit`] return [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Soft admission watermark: [`Server::try_submit`] rejects once
    /// the queue depth reaches this, even below capacity (clamped to
    /// `1..=queue_capacity` — `Some(0)` would otherwise reject every
    /// submission forever). `None` (default) means the watermark *is*
    /// the capacity. Lets a deployer shed load before latency degrades
    /// rather than when the queue is hard-full.
    pub admission_watermark: Option<usize>,
    /// Worker sessions draining the queue (default 1, clamped to ≥ 1).
    /// Each session coalesces its own batches; the engine's persistent
    /// pool is shared by all of them.
    pub workers: usize,
    /// How long a worker holding one request waits for more compatible
    /// ones before dispatching the batch (default 200 µs). Zero means
    /// "opportunistic": take whatever is already queued, never wait.
    pub coalesce_window: Duration,
    /// Most requests one dispatch round may carry (default 64, clamped
    /// to ≥ 1).
    pub max_batch: usize,
    /// Idempotency-cache entries (default 1024; `0` disables caching —
    /// identical requests then still dedup while in flight, but not
    /// across time).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            admission_watermark: None,
            workers: 1,
            coalesce_window: Duration::from_micros(200),
            max_batch: 64,
            cache_capacity: 1024,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control shed the request: the queue is at its
    /// watermark. Callers should back off and retry; the depth and
    /// limit are attached for their telemetry.
    Overloaded {
        /// Queue depth observed at rejection time.
        queue_depth: usize,
        /// The watermark that was hit.
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
    /// The engine failed the task (the underlying error is attached; a
    /// coalesced batch fails as a unit, so this may originate from a
    /// sibling seed in the same `run_batch` call).
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
    task: Task,
    seed: u64,
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

    /// The task this ticket is for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The seed this ticket is for.
    pub fn seed(&self) -> u64 {
        self.seed
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
    /// Trace-correlation id: inherited from the caller's in-scope
    /// request id (a net session propagates its wire request id this
    /// way) or freshly allocated, so queue/cache/dispatch events for
    /// one request line up across layers.
    trace_id: u64,
    tx: mpsc::Sender<Result<RunReport, ServeError>>,
}

/// Cache and in-flight bookkeeping under **one** lock.
///
/// Keeping both structures behind a single mutex makes the
/// at-most-one-execution argument a one-liner: every worker's
/// resolve-or-claim step and every owner's publish step is atomic with
/// respect to both maps, so there is no window in which a key is
/// neither cached nor claimed while an execution for it is running.
/// (Two locks would force a lock order and still leave a
/// check-then-act gap unless nested — one lock is simpler and the
/// critical sections are tiny.)
struct Ledger {
    cache: LruCache<IdempotencyKey, RunReport>,
    /// Keys currently executing, each with the waiters that piggybacked
    /// after the owning worker claimed the key.
    inflight: HashMap<IdempotencyKey, Vec<Pending>>,
}

/// State shared by the handle and every worker session.
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    ledger: Mutex<Ledger>,
    metrics: ServeMetrics,
    /// The admission watermark: [`ServerConfig::admission_watermark`]
    /// clamped to `1..=queue capacity`.
    watermark: usize,
    /// Probe end of the request queue, used only for depth/peak stats
    /// (holding a receiver does not keep the queue alive — shutdown is
    /// signalled by dropping the *sender*).
    probe: channel::Receiver<Pending>,
    started_at: Instant,
}

impl Shared {
    /// Answers a group of requests, counting each answer and recording
    /// its latency.
    fn respond_many<I>(&self, responses: I)
    where
        I: IntoIterator<Item = (Pending, Result<RunReport, ServeError>)>,
    {
        for (pending, result) in responses {
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
    }

    /// Dispatches one drained batch: coalesce, resolve against the
    /// ledger, run what remains, publish and answer. Drains the
    /// caller's buffer in place so worker sessions reuse one batch
    /// allocation across coalescing windows.
    fn dispatch(self: &Arc<Self>, batch: &mut Vec<Pending>) {
        let metrics = &self.metrics;
        // requests whose deadline passed while queued are answered
        // Expired before any claiming; the common all-unbounded batch
        // skips this with one scan and no clock read
        if batch.iter().any(|p| p.deadline.is_some()) {
            let now = Instant::now();
            let (expired, live): (Vec<Pending>, Vec<Pending>) = batch
                .drain(..)
                .partition(|p| p.deadline.is_some_and(|d| now >= d));
            batch.extend(live);
            if !expired.is_empty() {
                metrics.deadline_misses.add(expired.len() as u64);
                self.respond_many(expired.into_iter().map(|p| (p, Err(ServeError::Expired))));
            }
            if batch.is_empty() {
                return;
            }
        }
        metrics.batches.inc();
        metrics.batched_requests.add(batch.len() as u64);
        let fingerprint = self.engine.fingerprint();
        for group in coalesce(batch.drain(..), |p| (p.task, p.seed)) {
            let task = group.task;
            // phase 1 — resolve each unique seed against the ledger:
            // answer from cache, piggyback on an identical in-flight
            // execution, or claim it for execution here. One ledger
            // lock covers the whole group (one pass per group, not per
            // request); replies go out after the lock drops.
            let mut to_run: Vec<(u64, Vec<Pending>)> = Vec::new();
            let mut cached: Vec<(Pending, RunReport)> = Vec::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            {
                let mut ledger = self.ledger.lock().expect("ledger poisoned");
                for (seed, waiters) in group.entries {
                    let key = IdempotencyKey {
                        fingerprint,
                        task,
                        seed,
                    };
                    if let Some(report) = ledger.cache.get(&key).cloned() {
                        hits += waiters.len() as u64;
                        for w in waiters {
                            trace::with_request_id(w.trace_id, || {
                                trace::emit(TraceEvent::CacheHit)
                            });
                            cached.push((w, report.clone()));
                        }
                        continue;
                    }
                    misses += waiters.len() as u64;
                    for w in &waiters {
                        trace::with_request_id(w.trace_id, || trace::emit(TraceEvent::CacheMiss));
                    }
                    match ledger.inflight.get_mut(&key) {
                        // another worker owns this key: every waiter
                        // rides along and is answered by that owner
                        Some(riders) => riders.extend(waiters),
                        None => {
                            ledger.inflight.insert(key, Vec::new());
                            to_run.push((seed, waiters));
                        }
                    }
                }
            }
            metrics.cache_hits.add(hits);
            metrics.cache_misses.add(misses);
            self.respond_many(cached.into_iter().map(|(w, report)| (w, Ok(report))));
            if to_run.is_empty() {
                continue;
            }
            // phase 2 — one engine call for the whole group. Panics are
            // contained here: `par_map` re-raises a job panic on its
            // caller — this worker thread — and letting it unwind past
            // the claims made in phase 1 would strand the inflight
            // entries forever (riders never answered, the key never
            // executable again, and with one worker the whole queue
            // dead). A panicking execution instead cancels its waiters
            // and the worker keeps serving.
            let seeds: Vec<u64> = to_run.iter().map(|(s, _)| *s).collect();
            metrics.engine_executions.add(seeds.len() as u64);
            // correlate engine-side trace events with the request that
            // opened the group (a batch executes as one unit)
            let group_trace_id = to_run
                .iter()
                .find_map(|(_, ws)| ws.first().map(|w| w.trace_id))
                .unwrap_or(0);
            // a batch executes as one unit, so it can only carry a
            // deadline every member agreed to: the laxest (max) one,
            // and only when every claimed waiter is bounded — one
            // unbounded waiter must not have its run cancelled by a
            // sibling's budget
            let group_deadline: Option<Instant> = if to_run
                .iter()
                .flat_map(|(_, ws)| ws)
                .all(|w| w.deadline.is_some())
            {
                to_run
                    .iter()
                    .flat_map(|(_, ws)| ws)
                    .filter_map(|w| w.deadline)
                    .max()
            } else {
                None
            };
            let outcome: Result<Vec<RunReport>, ServeError> =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    trace::with_request_id(group_trace_id, || {
                        self.engine
                            .run_batch_with_deadline(task, &seeds, group_deadline)
                    })
                })) {
                    Ok(Ok(reports)) => Ok(reports),
                    Ok(Err(err)) => Err(ServeError::Engine(err)),
                    Err(_panic) => Err(ServeError::Cancelled),
                };
            // phase 3 — publish to the cache and answer every waiter,
            // including riders that attached while we were running.
            // One ledger lock publishes (or releases) the whole group;
            // responses again happen outside the lock.
            match outcome {
                Ok(reports) => {
                    let mut answered: Vec<(Vec<Pending>, Vec<Pending>, RunReport)> =
                        Vec::with_capacity(reports.len());
                    {
                        let mut ledger = self.ledger.lock().expect("ledger poisoned");
                        for ((seed, waiters), report) in to_run.into_iter().zip(reports) {
                            let key = IdempotencyKey {
                                fingerprint,
                                task,
                                seed,
                            };
                            ledger.cache.insert(key, report.clone());
                            let riders = ledger.inflight.remove(&key).unwrap_or_default();
                            answered.push((waiters, riders, report));
                        }
                    }
                    self.respond_many(answered.into_iter().flat_map(
                        |(waiters, riders, report)| {
                            waiters
                                .into_iter()
                                .chain(riders)
                                .map(move |w| (w, Ok(report.clone())))
                        },
                    ));
                }
                Err(err) => {
                    // the execution fails (or panics) as a unit: every
                    // claimed seed of this group gets the error and its
                    // inflight claim is released; nothing is cached —
                    // deadline outcomes in particular must not shadow a
                    // later retry with a larger budget
                    if matches!(err, ServeError::Engine(EngineError::DeadlineExceeded)) {
                        metrics.deadline_misses.inc();
                    }
                    let mut answered: Vec<(Vec<Pending>, Vec<Pending>)> =
                        Vec::with_capacity(to_run.len());
                    {
                        let mut ledger = self.ledger.lock().expect("ledger poisoned");
                        for (seed, waiters) in to_run {
                            let key = IdempotencyKey {
                                fingerprint,
                                task,
                                seed,
                            };
                            let riders = ledger.inflight.remove(&key).unwrap_or_default();
                            answered.push((waiters, riders));
                        }
                    }
                    self.respond_many(answered.into_iter().flat_map(|(waiters, riders)| {
                        waiters
                            .into_iter()
                            .chain(riders)
                            .map(|w| (w, Err(err.clone())))
                    }));
                }
            }
        }
    }
}

/// One worker session: drain the queue, coalesce within the window,
/// dispatch. Exits when the queue disconnects *and* drains — accepted
/// requests are always served, even during shutdown.
fn worker_loop(shared: Arc<Shared>, rx: channel::Receiver<Pending>) {
    let window = shared.config.coalesce_window;
    let max_batch = shared.config.max_batch.max(1);
    // one batch buffer per session, reused across windows — dispatch
    // drains it in place instead of taking a fresh allocation each time
    let mut batch: Vec<Pending> = Vec::with_capacity(max_batch);
    // queue-depth gauge + QueueDequeue trace event, correlated to the
    // request just taken off the queue
    let note_dequeue = |p: &Pending| {
        shared.metrics.queue_depth.add(-1);
        let depth = rx.len();
        trace::with_request_id(p.trace_id, || {
            trace::emit(TraceEvent::QueueDequeue {
                depth: depth.min(u32::MAX as usize) as u32,
            });
        });
    };
    while let Ok(first) = rx.recv() {
        note_dequeue(&first);
        batch.push(first);
        // The deadline is computed lazily, only once the queue actually
        // runs dry: while requests are already queued (the loaded-server
        // steady state) the session takes them with plain `try_recv` —
        // no clock reads, no condvar park — and a burst that fills
        // `max_batch` dispatches without ever starting the window.
        let mut deadline: Option<Instant> = None;
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(p) => {
                    note_dequeue(&p);
                    batch.push(p);
                    continue;
                }
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {}
            }
            if window.is_zero() {
                // opportunistic mode: never wait for more
                break;
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + window);
            let Some(remaining) = d.checked_duration_since(Instant::now()) else {
                break;
            };
            match rx.recv_timeout(remaining) {
                Ok(p) => {
                    note_dequeue(&p);
                    batch.push(p);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // fail points OUTSIDE dispatch's own panic containment: a
        // `Panic` here unwinds the session mid-batch — the held
        // pendings' responders drop (tickets answer typed Cancelled)
        // and the supervisor respawns the session
        if let Some(lds_chaos::Fault::Delay(d)) = lds_chaos::point("serve.queue_stall") {
            thread::sleep(d);
        }
        if let Some(fault) = lds_chaos::point("serve.worker_panic") {
            if matches!(fault, lds_chaos::Fault::Panic) {
                panic!("injected fault: serve.worker_panic");
            }
        }
        shared.dispatch(&mut batch);
    }
}

/// Runs one worker session under a supervisor: a clean exit (queue
/// disconnected and drained) ends the session; a panic is contained,
/// counted (`serve_worker_restarts`, read via [`Server::worker_restarts`]),
/// and the session respawns on the same thread and keeps draining. The
/// unwound batch's responders drop during the unwind, so every
/// in-flight ticket of the dead session is answered with a typed
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
///  clients ──try_submit──▶ [bounded queue] ──▶ worker sessions
///     ▲   Overloaded ◀──┘ (admission ctl)       │  coalesce window
///     │                                         ▼
///  Ticket::wait ◀── respond ◀── ledger ◀── Engine::run_batch
///                         (idempotency cache + in-flight dedup)
/// ```
///
/// * **Admission control** — the request queue is bounded;
///   [`Server::try_submit`] sheds load with [`SubmitError::Overloaded`]
///   at the configured watermark instead of queuing unboundedly.
/// * **Coalescing** — a worker holding one request waits up to
///   [`ServerConfig::coalesce_window`] for more, then groups compatible
///   requests (same engine, same [`Task`]) into one
///   [`Engine::run_batch`] call. Batching across seeds is the engine's
///   parallel hot path, so a coalesced group costs one dispatch
///   overhead instead of one per request.
/// * **Idempotency** — answers are cached under
///   `(engine fingerprint, task, seed)`. Per-request seeds are the
///   idempotency key of the whole workspace: task randomness derives
///   from the seed alone, so a cached answer is bit-identical to a
///   recomputed one. Identical requests in flight dedup to a single
///   execution regardless of which worker carries them.
/// * **Determinism** — coalescing and caching change *when and where*
///   a task runs, never its output bits: `run_batch` keeps each seed's
///   execution on a sequential lane, so a report served through the
///   server equals the report of a direct `engine.run_with_seed` call
///   (up to wall-clock fields).
///
/// Dropping the server (or calling [`Server::shutdown`]) stops
/// admission, drains every accepted request, and joins the workers.
pub struct Server {
    shared: Arc<Shared>,
    /// `None` after shutdown; dropping the sender is the shutdown
    /// signal (workers exit once the queue disconnects and drains).
    queue: Option<channel::Sender<Pending>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server with the given configuration; worker sessions
    /// spawn immediately.
    pub fn new(engine: Arc<Engine>, config: ServerConfig) -> Server {
        let capacity = config.queue_capacity.max(1);
        let watermark = config
            .admission_watermark
            .unwrap_or(capacity)
            .clamp(1, capacity);
        let (tx, rx) = channel::bounded::<Pending>(capacity);
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
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                thread::Builder::new()
                    .name(format!("lds-serve-{i}"))
                    .spawn(move || supervise(shared, rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            queue: Some(tx),
            workers,
        }
    }

    /// Starts a server with [`ServerConfig::default`].
    pub fn with_defaults(engine: Arc<Engine>) -> Server {
        Server::new(engine, ServerConfig::default())
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Submits without blocking. Sheds load with
    /// [`SubmitError::Overloaded`] once the queue depth reaches the
    /// admission watermark (or the queue is hard-full) — the
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
        let trace_id = pending.trace_id;
        // the depth check and the enqueue are one atomic operation:
        // checking `len()` first would let concurrent producers all
        // observe a below-watermark depth and overshoot it together
        match queue.try_send_below(pending, watermark) {
            Ok(()) => {
                self.note_enqueue(trace_id);
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
        let trace_id = pending.trace_id;
        queue
            .send(pending)
            .map(|()| {
                self.note_enqueue(trace_id);
                ticket
            })
            .map_err(|_| SubmitError::ShuttingDown)
    }

    /// Records an accepted enqueue: the queue-depth gauge and a
    /// [`TraceEvent::QueueEnqueue`] correlated to the request.
    fn note_enqueue(&self, trace_id: u64) {
        self.shared.metrics.queue_depth.add(1);
        let depth = self.shared.probe.len();
        trace::with_request_id(trace_id, || {
            trace::emit(TraceEvent::QueueEnqueue {
                depth: depth.min(u32::MAX as usize) as u32,
            });
        });
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
        let trace_id = match trace::current_request_id() {
            0 => trace::next_request_id(),
            id => id,
        };
        (
            Pending {
                task,
                seed,
                submitted_at: Instant::now(),
                deadline,
                trace_id,
                tx,
            },
            Ticket { rx, task, seed },
        )
    }

    /// Worker sessions the supervisor has respawned after a panic.
    /// Zero in fault-free operation; kept off [`ServerStats`] so the
    /// wire shape is unchanged.
    pub fn worker_restarts(&self) -> u64 {
        self.shared.metrics.worker_restarts.get()
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
            batches: m.batches.get(),
            batched_requests: m.batched_requests.get(),
            queue_depth: self.shared.probe.len(),
            peak_queue_depth: self.shared.probe.peak_depth(),
            p50_latency: p50,
            p99_latency: p99,
            uptime: self.shared.started_at.elapsed(),
        }
    }

    /// Stops admission, drains every accepted request, joins the
    /// workers. Called automatically on drop; explicit shutdown lets
    /// callers sequence it (e.g. before reading final stats from a
    /// clone of the handle's data).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // dropping the only sender disconnects the queue; workers
        // finish the drain and exit
        self.queue.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
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
        // run sequentially so the second request cannot coalesce with
        // the first: it must be a pure cache hit
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
        // an out-of-range vertex makes run_batch fail inside dispatch:
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
        let server = Server::new(
            test_engine(),
            ServerConfig {
                coalesce_window: Duration::from_millis(2),
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..8u64)
            .map(|s| server.try_submit(Task::SampleExact, s).unwrap())
            .collect();
        server.shutdown(); // joins workers; accepted work must finish
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
        assert!(stats.batches >= 1);
        assert_eq!(stats.batched_requests, 4);
        assert_eq!(stats.submitted, 4);
        assert!(stats.p50_latency > Duration::ZERO);
        assert!(stats.p99_latency >= stats.p50_latency);
        assert_eq!(stats.queue_depth, 0);
    }
}
