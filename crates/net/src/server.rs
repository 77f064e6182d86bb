//! The TCP serving front-end: sessions, backpressure, graceful drain.
//!
//! One `NetServer` owns a listener, an [`EngineRegistry`], and a
//! shutdown signal. Each accepted connection becomes a **session**: a
//! reader thread (this side of the paired threads is the session thread
//! itself) that decodes request frames and routes them, plus a writer
//! thread that emits responses in request order.
//!
//! Backpressure is layered and typed, never silent:
//!
//! * The **tenant queue** ([`lds_serve::Server`]'s bounded channel) is
//!   the load-shedding point: `try_submit` on a full queue produces an
//!   immediate [`WireError::Overloaded`] *reply* — a pipelined client
//!   flooding one engine keeps getting answers (each one an explicit
//!   rejection) while other connections' requests proceed.
//! * The **session reply queue** (also bounded) caps per-connection
//!   in-flight responses; when a client stops reading its socket, the
//!   reader thread eventually blocks here and TCP backpressure reaches
//!   the peer.
//!
//! Shutdown drains: the accept loop stops, readers exit at their next
//! poll tick, writers finish every ticket already accepted (each
//! `Ticket::wait` resolves — the serve layer answers or cancels every
//! accepted request), and `shutdown()`/`Drop` joins it all before
//! returning.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lds_engine::EngineError;
use lds_obs::{Counter, Histogram};
use lds_runtime::channel::{self, Receiver, Sender};
use lds_runtime::ShutdownSignal;
use lds_serve::{EngineRegistry, RegistryConfig, ServeError, SubmitError, Ticket};

use crate::codec::{Reader, Wire};
use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_LEN, HEADER_LEN};
use crate::proto::{Op, Reply, Request, Response, WireError};

/// How often blocked reads and the accept loop re-check the shutdown
/// signal — the shutdown latency bound.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Socket write timeout; a peer that stops reading for this long loses
/// its connection instead of wedging a writer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on queued-but-unwritten responses per connection.
const SESSION_QUEUE_CAPACITY: usize = 64;

/// Tuning knobs of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Cap on frame payload length, both directions
    /// (default [`DEFAULT_MAX_FRAME_LEN`]).
    pub max_frame_len: u32,
    /// The engine registry configuration (tenant capacity, per-tenant
    /// server template).
    pub registry: RegistryConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            registry: RegistryConfig::default(),
        }
    }
}

/// Net-layer observability handles against the process metrics
/// registry, resolved once.
///
/// [`Op::Metrics`] itself is deliberately **not** instrumented — no
/// byte counts, no latency sample. Recording the
/// scrape would make every snapshot differ from the registry state it
/// reports (self-observation) and pollute the op-latency histograms
/// with scrape traffic.
struct NetMetrics {
    /// Request payload bytes decoded (`net_bytes_in`).
    bytes_in: Arc<Counter>,
    /// Response payload bytes encoded (`net_bytes_out`).
    bytes_out: Arc<Counter>,
    /// Typed backpressure surfaced to peers: overloaded rejections plus
    /// sessions that lost a wedged peer (`net_backpressure`).
    backpressure: Arc<Counter>,
    /// Per-op service latency, dispatch to reply-ready. For `Run` this
    /// spans the ticket wait, i.e. queueing + engine execution.
    op_ping: Arc<Histogram>,
    op_register: Arc<Histogram>,
    op_run: Arc<Histogram>,
    op_stats: Arc<Histogram>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: std::sync::OnceLock<NetMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lds_obs::global();
        NetMetrics {
            bytes_in: reg.counter("net_bytes_in"),
            bytes_out: reg.counter("net_bytes_out"),
            backpressure: reg.counter("net_backpressure"),
            op_ping: reg.histogram("net_op_ping_ns"),
            op_register: reg.histogram("net_op_register_ns"),
            op_run: reg.histogram("net_op_run_ns"),
            op_stats: reg.histogram("net_op_stats_ns"),
        }
    })
}

/// One unit of the per-session response pipeline, in request order.
enum Outgoing {
    /// Answered at decode/submit time (acks, stats, typed rejections).
    Ready(Response),
    /// An accepted run: the writer waits the ticket, then replies. The
    /// instant is the dispatch time, closing the `net_op_run_ns` sample
    /// when the ticket resolves.
    Ticket(u64, Ticket, Instant),
}

/// A TCP server speaking the `lds-net` protocol over a multi-tenant
/// [`EngineRegistry`].
///
/// Binding spawns the accept loop; [`NetServer::shutdown`] (or drop)
/// stops accepting, drains in-flight work, and joins every thread.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: ShutdownSignal,
    accept: Option<JoinHandle<()>>,
    registry: Arc<EngineRegistry>,
}

impl NetServer {
    /// Binds a listener and starts serving. Pass port 0 to let the OS
    /// pick; read the result back with [`NetServer::local_addr`].
    pub fn bind<A: ToSocketAddrs>(addr: A, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(EngineRegistry::new(config.registry.clone()));
        let shutdown = ShutdownSignal::new();
        let cfg = Arc::new(config);
        let accept = {
            let registry = Arc::clone(&registry);
            let shutdown = shutdown.clone();
            thread::spawn(move || accept_loop(listener, registry, cfg, shutdown))
        };
        Ok(NetServer {
            addr,
            shutdown,
            accept: Some(accept),
            registry,
        })
    }

    /// Binds with [`NetConfig::default`].
    pub fn with_defaults<A: ToSocketAddrs>(addr: A) -> io::Result<NetServer> {
        NetServer::bind(addr, NetConfig::default())
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine registry — for server-side pre-registration and
    /// registry-level telemetry.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.registry
    }

    /// Stops accepting, drains every accepted request, joins every
    /// session, and returns. Equivalent to dropping the server, as an
    /// explicit verb.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.trigger();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<EngineRegistry>,
    cfg: Arc<NetConfig>,
    shutdown: ShutdownSignal,
) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.is_triggered() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                sessions.retain(|h| !h.is_finished());
                let registry = Arc::clone(&registry);
                let cfg = Arc::clone(&cfg);
                let shutdown = shutdown.clone();
                sessions.push(thread::spawn(move || {
                    session(stream, registry, cfg, shutdown)
                }));
            }
            // nonblocking accept: park on the shutdown signal, which
            // doubles as the poll tick
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shutdown.wait_timeout(POLL_INTERVAL) {
                    break;
                }
            }
            // transient accept errors (per-connection resets): back off
            // one tick and keep serving
            Err(_) => {
                if shutdown.wait_timeout(POLL_INTERVAL) {
                    break;
                }
            }
        }
    }
    for handle in sessions {
        let _ = handle.join();
    }
}

fn session(
    stream: TcpStream,
    registry: Arc<EngineRegistry>,
    cfg: Arc<NetConfig>,
    shutdown: ShutdownSignal,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = channel::bounded::<Outgoing>(SESSION_QUEUE_CAPACITY);
    let writer = {
        let cfg = Arc::clone(&cfg);
        thread::spawn(move || writer_loop(stream, rx, cfg))
    };
    reader_loop(&mut read_half, &tx, &registry, &cfg, &shutdown);
    // dropping the sender lets the writer drain what is queued (the
    // channel delivers queued items after disconnect) and exit
    drop(tx);
    let _ = writer.join();
}

fn reader_loop(
    stream: &mut TcpStream,
    tx: &Sender<Outgoing>,
    registry: &EngineRegistry,
    cfg: &NetConfig,
    shutdown: &ShutdownSignal,
) {
    loop {
        // fail point: a stalled read models a session wedged on a slow
        // peer — shutdown must still answer its buffered requests
        if let Some(lds_chaos::Fault::Delay(d)) = lds_chaos::point("net.read_stall") {
            thread::sleep(d);
        }
        let payload = match read_frame(stream, cfg.max_frame_len, || shutdown.is_triggered()) {
            Ok(ReadOutcome::Frame(payload)) => payload,
            // clean EOF at a frame boundary: stop reading, writer drains
            Ok(ReadOutcome::CleanEof) => return,
            // server shutdown: requests the peer already pipelined into
            // the socket must not vanish — answer each buffered frame
            // with a typed ShuttingDown before the session ends
            Ok(ReadOutcome::Stopped) => {
                drain_buffered_requests(stream, tx, cfg);
                return;
            }
            // transport failure: nothing sensible left to say
            Err(FrameError::Io(_)) => return,
            // protocol violation in the header (bad magic, alien
            // version, oversized length): the stream offset can no
            // longer be trusted, so answer once and close
            Err(e) => {
                let resp = Response {
                    id: 0,
                    reply: Reply::Error(WireError::Malformed(e.to_string())),
                };
                let _ = tx.send(Outgoing::Ready(resp));
                return;
            }
        };
        let request = match Request::from_bytes(&payload) {
            Ok(request) => request,
            // an undecodable payload inside a well-formed frame leaves
            // the framing intact: answer (echoing the id if the prefix
            // held one) and keep the connection
            Err(e) => {
                let id = Reader::new(&payload).get_u64().unwrap_or(0);
                let resp = Response {
                    id,
                    reply: Reply::Error(WireError::Malformed(e.to_string())),
                };
                if tx.send(Outgoing::Ready(resp)).is_err() {
                    return;
                }
                continue;
            }
        };
        if !matches!(request.op, Op::Metrics) {
            net_metrics().bytes_in.add(payload.len() as u64);
        }
        if tx.send(dispatch(request, registry)).is_err() {
            // writer gone (peer stopped reading and timed out)
            return;
        }
    }
}

/// Routes one decoded request. Everything here is nonblocking except
/// `Register`, whose engine build (regime check included) runs on the
/// session's reader thread — one tenant's expensive registration never
/// stalls other connections.
fn dispatch(request: Request, registry: &EngineRegistry) -> Outgoing {
    let metrics = net_metrics();
    let id = request.id;
    let started = Instant::now();
    let reply = match request.op {
        Op::Ping => {
            metrics.op_ping.record_duration(started.elapsed());
            Reply::Pong
        }
        Op::Register(spec) => {
            let reply = match spec.build() {
                Ok(engine) => Reply::Registered {
                    fingerprint: registry.register(engine),
                },
                Err(e) => Reply::Error(WireError::Rejected(e.to_string())),
            };
            metrics.op_register.record_duration(started.elapsed());
            reply
        }
        Op::Stats { fingerprint } => {
            let reply = match registry.stats_of(fingerprint) {
                Some(s) => Reply::Stats(Box::new(s)),
                None => Reply::Error(WireError::UnknownFingerprint(fingerprint)),
            };
            metrics.op_stats.record_duration(started.elapsed());
            reply
        }
        // deliberately un-instrumented (see `NetMetrics`): the snapshot
        // returned is exactly the registry state at this instant
        Op::Metrics => Reply::Metrics(Box::new(lds_obs::global().snapshot())),
        Op::Run {
            fingerprint,
            task,
            seed,
            deadline,
        } => match registry.get(fingerprint) {
            None => Reply::Error(WireError::UnknownFingerprint(fingerprint)),
            Some(server) => {
                // the wire carries a budget relative to arrival (clock
                // skew cannot expire it in transit); anchor it to an
                // absolute instant here. A budget too large to
                // represent degrades to "no deadline".
                let deadline = deadline.and_then(|budget| started.checked_add(budget));
                match server.try_submit_with_deadline(task, seed, deadline) {
                    Ok(ticket) => return Outgoing::Ticket(id, ticket, started),
                    Err(SubmitError::Overloaded {
                        queue_depth,
                        watermark,
                    }) => {
                        metrics.backpressure.inc();
                        Reply::Error(WireError::Overloaded {
                            queue_depth,
                            watermark,
                        })
                    }
                    Err(SubmitError::ShuttingDown) => Reply::Error(WireError::ShuttingDown),
                    Err(SubmitError::Expired) => Reply::Error(WireError::Expired),
                }
            }
        },
    };
    Outgoing::Ready(Response { id, reply })
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Outgoing>, cfg: Arc<NetConfig>) {
    let metrics = net_metrics();
    let mut peer_writable = true;
    while let Ok(out) = rx.recv() {
        let resp = match out {
            Outgoing::Ready(resp) => resp,
            Outgoing::Ticket(id, ticket, started) => {
                // every accepted ticket resolves (report, error, or
                // cancellation on serve-layer shutdown) — waiting here
                // is what makes drain-on-shutdown complete
                let reply = match ticket.wait() {
                    Ok(report) => {
                        // fail point: the execution completed but the
                        // connection dies before the reply ships — the
                        // reset the client's retry path must survive
                        // via the idempotency cache (at-most-one
                        // execution per (fingerprint, task, seed))
                        if matches!(
                            lds_chaos::point("net.conn_reset"),
                            Some(lds_chaos::Fault::Reset)
                        ) {
                            let _ = stream.shutdown(Shutdown::Both);
                            peer_writable = false;
                        }
                        Reply::Report(Box::new(report))
                    }
                    // deadline misses map to one wire error whether the
                    // budget ran out in the queue or mid-run
                    Err(ServeError::Expired)
                    | Err(ServeError::Engine(EngineError::DeadlineExceeded)) => {
                        Reply::Error(WireError::Expired)
                    }
                    Err(ServeError::Engine(e)) => Reply::Error(WireError::Engine(e.to_string())),
                    Err(ServeError::Cancelled) => Reply::Error(WireError::Cancelled),
                };
                metrics.op_run.record_duration(started.elapsed());
                Response { id, reply }
            }
        };
        let bytes = resp.to_bytes();
        if !matches!(resp.reply, Reply::Metrics(_)) {
            metrics.bytes_out.add(bytes.len() as u64);
        }
        if peer_writable {
            // fail points on the write path: a delayed write (slow NIC,
            // overfull socket buffer) and a torn frame (header plus a
            // payload prefix, then the connection dies) — the torn case
            // is what the client's frame decoder must fail typed on
            if let Some(lds_chaos::Fault::Delay(d)) = lds_chaos::point("net.write_delay") {
                thread::sleep(d);
            }
            if let Some(lds_chaos::Fault::TornWrite { keep }) = lds_chaos::point("net.write_torn") {
                let keep = keep.min(bytes.len());
                let mut torn = frame::encode_header(bytes.len() as u32).to_vec();
                torn.extend_from_slice(&bytes[..keep]);
                let _ = stream.write_all(&torn);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                metrics.backpressure.inc();
                peer_writable = false;
                continue;
            }
        }
        if peer_writable && frame::write_frame(&mut stream, &bytes, cfg.max_frame_len).is_err() {
            // the peer is gone or wedged past the write timeout: stop
            // writing, but keep draining tickets so accepted work is
            // still awaited before the session ends
            metrics.backpressure.inc();
            peer_writable = false;
        }
    }
}

/// How a frame read ended without an error. The session reader must
/// tell its stop test (shutdown) apart from a peer's orderly close,
/// because only shutdown owes the peer `ShuttingDown` answers for frames
/// it already pipelined into the socket.
enum ReadOutcome {
    /// One complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    CleanEof,
    /// The caller's stop test fired first; a partial frame is abandoned.
    Stopped,
}

/// Reads one frame, retrying through read timeouts and checking `stop`
/// before every read: the session reader stops on shutdown, the
/// shutdown drain at its deadline.
fn read_frame(
    stream: &mut TcpStream,
    max_len: u32,
    stop: impl Fn() -> bool,
) -> Result<ReadOutcome, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if let Some(outcome) = read_full(stream, &mut header, &stop)? {
        return Ok(outcome);
    }
    let len = frame::parse_header(&header, max_len)?;
    let mut payload = vec![0u8; len as usize];
    match read_full(stream, &mut payload, &stop)? {
        None => Ok(ReadOutcome::Frame(payload)),
        Some(ReadOutcome::CleanEof) => Err(mid_frame_eof()),
        Some(outcome) => Ok(outcome),
    }
}

fn mid_frame_eof() -> FrameError {
    FrameError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "connection closed mid-frame",
    ))
}

/// Fills `buf`, retrying through read timeouts. `Ok(None)` means the
/// buffer was filled; otherwise `stop` fired or (before any byte
/// arrived) the peer closed. EOF after a partial read is an
/// [`io::ErrorKind::UnexpectedEof`] error.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &impl Fn() -> bool,
) -> Result<Option<ReadOutcome>, FrameError> {
    let mut pos = 0;
    while pos < buf.len() {
        if stop() {
            return Ok(Some(ReadOutcome::Stopped));
        }
        match stream.read(&mut buf[pos..]) {
            Ok(0) if pos == 0 => return Ok(Some(ReadOutcome::CleanEof)),
            Ok(0) => return Err(mid_frame_eof()),
            Ok(n) => pos += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(None)
}

/// The shutdown drain: requests the peer pipelined before the server
/// began shutting down are already buffered in the socket — each whole
/// frame still readable within one poll interval is answered with a
/// typed [`WireError::ShuttingDown`] (echoing its request id) instead
/// of vanishing into a closed connection. Bounded by a deadline so a
/// peer that keeps streaming cannot hold the session open.
fn drain_buffered_requests(stream: &mut TcpStream, tx: &Sender<Outgoing>, cfg: &NetConfig) {
    let deadline = Instant::now() + POLL_INTERVAL;
    let past_deadline = || Instant::now() >= deadline;
    while let Ok(ReadOutcome::Frame(payload)) = read_frame(stream, cfg.max_frame_len, past_deadline)
    {
        let id = Reader::new(&payload).get_u64().unwrap_or(0);
        let resp = Response {
            id,
            reply: Reply::Error(WireError::ShuttingDown),
        };
        if tx.send(Outgoing::Ready(resp)).is_err() {
            return;
        }
    }
}
