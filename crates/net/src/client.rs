//! A blocking protocol client.
//!
//! [`Client`] wraps one TCP connection. The high-level calls
//! ([`Client::register`], [`Client::run`], …) are strict
//! request/response; the pipelined pair ([`Client::send`] /
//! [`Client::recv`]) lets a caller keep many requests in flight on one
//! connection — responses arrive in request order, each echoing its
//! request id — which is both the throughput mode and the way to
//! observe the server's typed backpressure under flood.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lds_engine::{RunReport, Task};
use lds_obs::{Counter, MetricsSnapshot};
use lds_runtime::{streams, StreamRng};
use lds_serve::ServerStats;

use crate::codec::{CodecError, Wire};
use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_LEN};
use crate::proto::{EngineSpec, Op, Reply, Request, Response, WireError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (includes mid-frame disconnects).
    Io(io::Error),
    /// A received frame violated the envelope (magic/version/length).
    Frame(FrameError),
    /// A received payload did not decode.
    Codec(CodecError),
    /// The server answered with a typed error.
    Server(WireError),
    /// The server answered with the wrong reply kind for the call.
    UnexpectedReply(String),
    /// The response id did not match the request id (a strict
    /// request/response call saw a pipelining mix-up).
    IdMismatch {
        /// The id the call sent.
        expected: u64,
        /// The id the response carried.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::UnexpectedReply(kind) => write!(f, "unexpected reply: {kind}"),
            ClientError::IdMismatch { expected, got } => {
                write!(f, "response id {got} does not answer request {expected}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Codec(e) => Some(e),
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// Client-side resilience counters, registered once per process.
struct ClientMetrics {
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    exhausted: Arc<Counter>,
}

fn client_metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lds_obs::global();
        ClientMetrics {
            retries: reg.counter("client_retries"),
            reconnects: reg.counter("client_reconnects"),
            exhausted: reg.counter("client_retry_exhausted"),
        }
    })
}

/// When a retry-wrapped call should give up on an attempt's error.
///
/// Transport failures (I/O, framing, an id mismatch after a desync)
/// are retryable *after a reconnect* — the connection's state is
/// unknown, so the only safe move is a fresh dial. Typed server
/// pushback ([`WireError::Overloaded`], [`WireError::ShuttingDown`],
/// [`WireError::Cancelled`]) is retryable on the same or a fresh
/// connection. Everything else — a task that was rejected, malformed,
/// unknown, past its deadline, or failed inside the engine — is
/// terminal: retrying cannot change the answer.
fn classify(err: &ClientError) -> Attempt {
    match err {
        ClientError::Io(_) | ClientError::Frame(_) | ClientError::IdMismatch { .. } => {
            Attempt::RetryAfterReconnect
        }
        ClientError::Server(
            WireError::Overloaded { .. } | WireError::ShuttingDown | WireError::Cancelled,
        ) => Attempt::Retry,
        _ => Attempt::Terminal,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Attempt {
    Retry,
    RetryAfterReconnect,
    Terminal,
}

/// A deterministic retry/backoff/timeout policy for
/// [`Client::run_retrying`].
///
/// Retrying `Op::Run` is safe because the server's idempotency cache
/// keys on `(fingerprint, task, seed)` with at-most-one execution: a
/// retry of a request whose reply was lost re-joins the cached result
/// rather than re-running the engine, so the caller sees exactly-once
/// semantics with a bit-identical report.
///
/// Backoff jitter is derived from [`StreamRng`] keyed by
/// `(seed, call index, attempt)`, so a given policy replays the same
/// backoff sequence on every run — chaos schedules stay reproducible
/// end to end.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per call, counting the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `min(max, base * 2^(n-1))`, jittered
    /// to 50–100% of that value.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Total time budget across all attempts of one call; when spent,
    /// the last error surfaces even if attempts remain.
    pub retry_budget: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            retry_budget: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry attempt `attempt` (1-based)
    /// of call number `call_index`.
    fn backoff(&self, call_index: u64, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff);
        let key = StreamRng::root(self.seed)
            .substream(streams::CHAOS)
            .substream(call_index)
            .substream(u64::from(attempt))
            .state();
        // uniform in [0.5, 1.0): never sleeps the full cap twice in a
        // row, never collapses to zero
        let unit = (key >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(0.5 + 0.5 * unit)
    }
}

/// A blocking connection to a [`NetServer`](crate::NetServer).
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    next_id: u64,
    calls_started: u64,
}

impl Client {
    /// Connects to a server. The resolved address is retained so
    /// [`Client::reconnect`] can re-dial after a disconnect.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let stream = Client::dial(addr)?;
        Ok(Client {
            addr,
            stream,
            next_id: 1,
            calls_started: 0,
        })
    }

    fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Drops the current connection and dials the same address again.
    /// In-flight pipelined requests are lost (the server side drains
    /// them; their replies go nowhere).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Client::dial(self.addr)?;
        Ok(())
    }

    /// Pipelined send: writes one request frame and returns its id
    /// without waiting. Pair with [`Client::recv`].
    pub fn send(&mut self, op: Op) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request { id, op };
        frame::write_frame(&mut self.stream, &req.to_bytes(), DEFAULT_MAX_FRAME_LEN)?;
        Ok(id)
    }

    /// Pipelined receive: blocks for the next response frame.
    /// Responses arrive in request order.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = frame::read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?;
        Ok(Response::from_bytes(&payload)?)
    }

    /// Strict request/response: send one op, wait for its answer,
    /// verify the id, and surface server-side errors as
    /// [`ClientError::Server`].
    fn call(&mut self, op: Op) -> Result<Reply, ClientError> {
        let id = self.send(op)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(ClientError::IdMismatch {
                expected: id,
                got: resp.id,
            });
        }
        match resp.reply {
            Reply::Error(e) => Err(ClientError::Server(e)),
            reply => Ok(reply),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(Op::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Registers an engine spec and returns its fingerprint — the
    /// routing key for [`Client::run`]. Idempotent per fingerprint.
    pub fn register(&mut self, spec: &EngineSpec) -> Result<u64, ClientError> {
        match self.call(Op::Register(Box::new(spec.clone())))? {
            Reply::Registered { fingerprint } => Ok(fingerprint),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Strict request/response with retries: like [`Client::call`],
    /// but transient failures (transport errors, typed server
    /// pushback) are retried under `policy` — reconnecting first when
    /// the connection's state is unknown — with deterministic jittered
    /// backoff. Terminal errors surface immediately.
    fn call_retrying(&mut self, op: Op, policy: &RetryPolicy) -> Result<Reply, ClientError> {
        let call_index = self.calls_started;
        self.calls_started += 1;
        let started = Instant::now();
        let mut attempt = 1u32;
        loop {
            let err = match self.call(op.clone()) {
                Ok(reply) => return Ok(reply),
                Err(err) => err,
            };
            let class = classify(&err);
            if class == Attempt::Terminal
                || attempt >= policy.max_attempts.max(1)
                || started.elapsed() >= policy.retry_budget
            {
                if class != Attempt::Terminal {
                    client_metrics().exhausted.inc();
                }
                return Err(err);
            }
            if class == Attempt::RetryAfterReconnect {
                // the old connection's state is unknown — re-dial until
                // it works or the attempt/budget limits run out
                while let Err(dial_err) = self.reconnect() {
                    attempt += 1;
                    if attempt > policy.max_attempts.max(1)
                        || started.elapsed() >= policy.retry_budget
                    {
                        client_metrics().exhausted.inc();
                        return Err(ClientError::Io(dial_err));
                    }
                    std::thread::sleep(policy.backoff(call_index, attempt));
                }
                client_metrics().reconnects.inc();
            }
            client_metrics().retries.inc();
            std::thread::sleep(policy.backoff(call_index, attempt));
            attempt += 1;
        }
    }

    /// Runs one task on a registered engine and waits for the report.
    pub fn run(
        &mut self,
        fingerprint: u64,
        task: Task,
        seed: u64,
    ) -> Result<RunReport, ClientError> {
        match self.call(Op::Run {
            fingerprint,
            task,
            seed,
            deadline: None,
        })? {
            Reply::Report(report) => Ok(*report),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// [`Client::run`] with retries under `policy`. Safe to retry: the
    /// server's idempotency cache guarantees at-most-one execution per
    /// `(fingerprint, task, seed)`, so a retry that re-submits an
    /// already-executed request receives the cached, bit-identical
    /// report.
    pub fn run_retrying(
        &mut self,
        fingerprint: u64,
        task: Task,
        seed: u64,
        policy: &RetryPolicy,
    ) -> Result<RunReport, ClientError> {
        match self.call_retrying(
            Op::Run {
                fingerprint,
                task,
                seed,
                deadline: None,
            },
            policy,
        )? {
            Reply::Report(report) => Ok(*report),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// [`Client::run`] with a completion budget. The budget travels on
    /// the wire as a duration relative to arrival (clock-skew safe);
    /// the server rejects already-expired requests at admission and
    /// cancels runs that outlive the budget at the engine's cooperative
    /// checks — both
    /// surface as [`WireError::Expired`]. A run that completes within
    /// the budget is bit-identical to an unbounded run.
    pub fn run_with_deadline(
        &mut self,
        fingerprint: u64,
        task: Task,
        seed: u64,
        budget: Duration,
    ) -> Result<RunReport, ClientError> {
        match self.call(Op::Run {
            fingerprint,
            task,
            seed,
            deadline: Some(budget),
        })? {
            Reply::Report(report) => Ok(*report),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Fetches a tenant's process-lifetime serving statistics.
    pub fn stats(&mut self, fingerprint: u64) -> Result<ServerStats, ClientError> {
        match self.call(Op::Stats { fingerprint })? {
            Reply::Stats(stats) => Ok(*stats),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Fetches the server process's `lds-obs` metrics-registry snapshot
    /// — every counter, gauge, and latency histogram, across all
    /// tenants. The scrape itself is not recorded server-side, so the
    /// snapshot reflects the registry exactly as of the request.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(Op::Metrics)? {
            Reply::Metrics(snapshot) => Ok(*snapshot),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }
}
