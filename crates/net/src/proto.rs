//! Protocol messages: what travels inside a frame payload.
//!
//! A connection carries a stream of [`Request`] frames client→server
//! and [`Response`] frames server→client. Responses preserve request
//! order per connection (FIFO), and each echoes its request's `id` so
//! pipelined clients can match replies without counting.
//!
//! Engines are addressed by **fingerprint** — the engine's own stable
//! 64-bit identity over (spec, topology, pinning, error targets). A
//! client registers a model once ([`Op::Register`]), learns the
//! fingerprint from the [`Reply::Registered`] ack (or computes it
//! locally by building the same engine — the values agree by
//! construction), then routes [`Op::Run`] requests with it. Running
//! against a fingerprint the server does not hold is a typed
//! [`WireError::UnknownFingerprint`], never a hang or a panic.

use std::fmt;
use std::time::Duration;

use lds_engine::{Backend, Engine, EngineError, ModelSpec, RunReport, Task, Topology};
use lds_gibbs::PartialConfig;
use lds_obs::MetricsSnapshot;
use lds_serve::ServerStats;

use crate::codec::{CodecError, Reader, Wire, Writer};

/// Everything needed to rebuild an engine in another process: the full
/// argument list of `Engine::builder()`, minus process-local choices
/// (thread width, default seed) that do not affect task outputs.
#[derive(Clone, Debug)]
pub struct EngineSpec {
    /// The model and its parameters.
    pub model: ModelSpec,
    /// The substrate the model runs on.
    pub topology: Topology,
    /// The pinning `τ`, if any (`None` = free boundary).
    pub pinning: Option<PartialConfig>,
    /// Multiplicative inference error target `ε`.
    pub epsilon: f64,
    /// Sampling total-variation target `δ`.
    pub delta: f64,
    /// Which sampling backend serves `SampleApprox` on the rebuilt
    /// engine. Part of the fingerprint, so two registrations differing
    /// only in backend are distinct engines in the registry.
    pub backend: Backend,
}

impl EngineSpec {
    /// A spec with the default error targets and backend the engine
    /// builder uses.
    pub fn new(model: ModelSpec, topology: Topology) -> Self {
        EngineSpec {
            model,
            topology,
            pinning: None,
            epsilon: 0.01,
            delta: 0.05,
            backend: Backend::Exact,
        }
    }

    /// Builds a live engine from the decoded spec. The regime check
    /// runs here, exactly as it would in-process; its failure becomes
    /// [`WireError::Rejected`] on the wire.
    pub fn build(&self) -> Result<Engine, EngineError> {
        let mut b = Engine::builder()
            .model(self.model.clone())
            .topology(self.topology.clone())
            .epsilon(self.epsilon)
            .delta(self.delta)
            .backend(self.backend);
        if let Some(tau) = &self.pinning {
            b = b.pinning(tau.clone());
        }
        b.build()
    }
}

impl Wire for EngineSpec {
    fn encode(&self, w: &mut Writer) {
        self.model.encode(w);
        self.topology.encode(w);
        self.pinning.encode(w);
        w.put_f64(self.epsilon);
        w.put_f64(self.delta);
        self.backend.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EngineSpec {
            model: ModelSpec::decode(r)?,
            topology: Topology::decode(r)?,
            pinning: Option::<PartialConfig>::decode(r)?,
            epsilon: r.get_f64()?,
            delta: r.get_f64()?,
            backend: Backend::decode(r)?,
        })
    }
}

/// One operation a client can request.
#[derive(Clone, Debug)]
pub enum Op {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Build the described engine and register it under its
    /// fingerprint. Idempotent per fingerprint.
    Register(Box<EngineSpec>),
    /// Execute one task on a registered engine.
    Run {
        /// Which engine (from [`Reply::Registered`]).
        fingerprint: u64,
        /// The task to run.
        task: Task,
        /// The seed — with the fingerprint, the complete determinism key.
        seed: u64,
        /// Optional time budget, **relative to arrival at the server**
        /// (a relative budget survives clock skew; the server converts
        /// it to an absolute deadline on receipt). An expired request is
        /// answered [`WireError::Expired`]; a run cancelled mid-flight
        /// returns a typed error, never a partial report.
        deadline: Option<Duration>,
    },
    /// Fetch a registered engine's process-lifetime serving statistics.
    Stats {
        /// Which engine.
        fingerprint: u64,
    },
    /// Fetch the server process's metrics-registry snapshot (`lds-obs`):
    /// every counter, gauge, and latency histogram across all tenants
    /// and layers. Process-scoped, so no fingerprint. Serving this op
    /// records nothing into the registry itself (no self-observation):
    /// the snapshot a quiesced process returns over the wire is the
    /// same one it would render locally.
    Metrics,
}

/// One client→server frame: an operation plus a client-chosen id the
/// response will echo.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id (echoed verbatim).
    pub id: u64,
    /// The operation.
    pub op: Op,
}

impl Wire for Request {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        match &self.op {
            Op::Ping => w.put_u8(0),
            Op::Register(spec) => {
                w.put_u8(1);
                spec.encode(w);
            }
            Op::Run {
                fingerprint,
                task,
                seed,
                deadline,
            } => {
                w.put_u8(2);
                w.put_u64(*fingerprint);
                task.encode(w);
                w.put_u64(*seed);
                deadline.encode(w);
            }
            Op::Stats { fingerprint } => {
                w.put_u8(3);
                w.put_u64(*fingerprint);
            }
            Op::Metrics => w.put_u8(4),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = r.get_u64()?;
        let op = match r.get_u8()? {
            0 => Op::Ping,
            1 => Op::Register(Box::new(EngineSpec::decode(r)?)),
            2 => Op::Run {
                fingerprint: r.get_u64()?,
                task: Task::decode(r)?,
                seed: r.get_u64()?,
                deadline: Option::<Duration>::decode(r)?,
            },
            3 => Op::Stats {
                fingerprint: r.get_u64()?,
            },
            4 => Op::Metrics,
            t => return Err(CodecError::Malformed(format!("unknown op tag {t}"))),
        };
        Ok(Request { id, op })
    }
}

/// A typed serving failure, as it travels on the wire. String payloads
/// carry the origin error's rendering — diagnosis crosses the wire,
/// the error *type* stays matchable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The engine's bounded queue was full; the request was shed, not
    /// silently dropped. Retry with backoff.
    Overloaded {
        /// Queue depth at rejection.
        queue_depth: usize,
        /// The admission watermark that was hit.
        watermark: usize,
    },
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// No live engine under this fingerprint (never registered, or
    /// evicted by the registry's LRU cap — re-register to continue).
    UnknownFingerprint(u64),
    /// `Register` failed: the spec did not build (out of regime,
    /// infeasible pinning, …).
    Rejected(String),
    /// The task executed and failed with an engine error.
    Engine(String),
    /// The request was accepted but the server shut down before it ran.
    Cancelled,
    /// The server could not decode the request payload.
    Malformed(String),
    /// The request's deadline expired — at admission (it arrived
    /// already out of budget) or cooperatively mid-run — before a
    /// report was produced. Terminal for this deadline: retrying with
    /// the same budget will expire again; re-issue with a larger one.
    Expired,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Overloaded {
                queue_depth,
                watermark,
            } => write!(
                f,
                "overloaded: queue depth {queue_depth} at watermark {watermark}"
            ),
            WireError::ShuttingDown => write!(f, "server shutting down"),
            WireError::UnknownFingerprint(fp) => {
                write!(f, "no engine registered under fingerprint {fp:#018x}")
            }
            WireError::Rejected(msg) => write!(f, "registration rejected: {msg}"),
            WireError::Engine(msg) => write!(f, "engine error: {msg}"),
            WireError::Cancelled => write!(f, "cancelled by server shutdown"),
            WireError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            WireError::Expired => write!(f, "deadline expired before completion"),
        }
    }
}

impl std::error::Error for WireError {}

impl Wire for WireError {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireError::Overloaded {
                queue_depth,
                watermark,
            } => {
                w.put_u8(0);
                w.put_usize(*queue_depth);
                w.put_usize(*watermark);
            }
            WireError::ShuttingDown => w.put_u8(1),
            WireError::UnknownFingerprint(fp) => {
                w.put_u8(2);
                w.put_u64(*fp);
            }
            WireError::Rejected(msg) => {
                w.put_u8(3);
                w.put_str(msg);
            }
            WireError::Engine(msg) => {
                w.put_u8(4);
                w.put_str(msg);
            }
            WireError::Cancelled => w.put_u8(5),
            WireError::Malformed(msg) => {
                w.put_u8(6);
                w.put_str(msg);
            }
            WireError::Expired => w.put_u8(7),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => WireError::Overloaded {
                queue_depth: r.get_usize()?,
                watermark: r.get_usize()?,
            },
            1 => WireError::ShuttingDown,
            2 => WireError::UnknownFingerprint(r.get_u64()?),
            3 => WireError::Rejected(r.get_str()?.to_owned()),
            4 => WireError::Engine(r.get_str()?.to_owned()),
            5 => WireError::Cancelled,
            6 => WireError::Malformed(r.get_str()?.to_owned()),
            7 => WireError::Expired,
            t => return Err(CodecError::Malformed(format!("unknown error tag {t}"))),
        })
    }
}

/// The payload of one server→client frame.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Answer to [`Op::Ping`].
    Pong,
    /// The engine is live; route [`Op::Run`] with this fingerprint.
    Registered {
        /// The engine's stable identity.
        fingerprint: u64,
    },
    /// A completed task.
    Report(Box<RunReport>),
    /// A statistics snapshot.
    Stats(Box<ServerStats>),
    /// A typed failure.
    Error(WireError),
    /// The process metrics-registry snapshot ([`Op::Metrics`]).
    Metrics(Box<MetricsSnapshot>),
}

/// One server→client frame: a reply plus the request id it answers.
#[derive(Clone, Debug)]
pub struct Response {
    /// The `id` of the request this answers.
    pub id: u64,
    /// The payload.
    pub reply: Reply,
}

impl Wire for Response {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        match &self.reply {
            Reply::Pong => w.put_u8(0),
            Reply::Registered { fingerprint } => {
                w.put_u8(1);
                w.put_u64(*fingerprint);
            }
            Reply::Report(report) => {
                w.put_u8(2);
                report.encode(w);
            }
            Reply::Stats(stats) => {
                w.put_u8(3);
                stats.encode(w);
            }
            Reply::Error(err) => {
                w.put_u8(4);
                err.encode(w);
            }
            Reply::Metrics(snapshot) => {
                w.put_u8(5);
                snapshot.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = r.get_u64()?;
        let reply = match r.get_u8()? {
            0 => Reply::Pong,
            1 => Reply::Registered {
                fingerprint: r.get_u64()?,
            },
            2 => Reply::Report(Box::new(RunReport::decode(r)?)),
            3 => Reply::Stats(Box::new(ServerStats::decode(r)?)),
            4 => Reply::Error(WireError::decode(r)?),
            5 => Reply::Metrics(Box::new(MetricsSnapshot::decode(r)?)),
            t => return Err(CodecError::Malformed(format!("unknown reply tag {t}"))),
        };
        Ok(Response { id, reply })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_graph::generators;

    #[test]
    fn request_and_response_round_trip() {
        let spec = EngineSpec::new(
            ModelSpec::Hardcore { lambda: 0.5 },
            Topology::Graph(generators::cycle(6)),
        );
        let req = Request {
            id: 42,
            op: Op::Register(Box::new(spec)),
        };
        let back = Request::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back.id, 42);
        assert_eq!(back.to_bytes(), req.to_bytes(), "canonical encoding");

        let resp = Response {
            id: 42,
            reply: Reply::Error(WireError::UnknownFingerprint(7)),
        };
        let back = Response::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(back.id, 42);
        match back.reply {
            Reply::Error(e) => assert_eq!(e, WireError::UnknownFingerprint(7)),
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn spec_build_runs_the_regime_check() {
        // λ far above λ_c on a degree-4 substrate: the builder refuses,
        // and over the wire that refusal is WireError::Rejected
        let spec = EngineSpec::new(
            ModelSpec::Hardcore { lambda: 50.0 },
            Topology::Graph(generators::grid(4, 4)),
        );
        assert!(spec.build().is_err());
    }

    #[test]
    fn wire_errors_round_trip() {
        let errors = [
            WireError::Overloaded {
                queue_depth: 256,
                watermark: 192,
            },
            WireError::ShuttingDown,
            WireError::UnknownFingerprint(u64::MAX),
            WireError::Rejected("out of regime".into()),
            WireError::Engine("count failed".into()),
            WireError::Cancelled,
            WireError::Malformed("unknown op tag 9".into()),
            WireError::Expired,
        ];
        for e in errors {
            assert_eq!(WireError::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }

    #[test]
    fn run_without_trailing_deadline_decodes_as_none() {
        // the trailing deadline round-trips, absent or present
        for budget in [None, Some(Duration::from_millis(250))] {
            let req = Request {
                id: 3,
                op: Op::Run {
                    fingerprint: 1,
                    task: Task::Count,
                    seed: 2,
                    deadline: budget,
                },
            };
            let back = Request::from_bytes(&req.to_bytes()).unwrap();
            match back.op {
                Op::Run { deadline, .. } => assert_eq!(deadline, budget),
                other => panic!("wrong op: {other:?}"),
            }
        }
    }
}
