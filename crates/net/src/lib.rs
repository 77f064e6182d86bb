//! `lds-net`: out-of-process serving for the lds engine.
//!
//! `lds-serve` made the engine a concurrent in-process service; this
//! crate takes the remaining step the ROADMAP's serving north star
//! needs: callers in **other processes**. It is three layers, each
//! usable alone, all dependency-free `std`:
//!
//! * [`codec`] + [`frame`] — a canonical, versioned, length-prefixed
//!   little-endian binary encoding of every type that crosses the wire
//!   (tasks, model specs, topologies, reports, stats, typed errors).
//!   Floats travel as IEEE-754 bit patterns, so the engine's
//!   bit-identical determinism contract survives serialization;
//!   decoding validates everything and never panics.
//! * [`proto`] + [`NetServer`] — a TCP request/response server over a
//!   multi-tenant [`lds_serve::EngineRegistry`]: clients register
//!   models by serialized spec ([`Op::Register`]), get back the
//!   engine's stable fingerprint, and route tasks with it. Bounded
//!   queues shed load as typed [`WireError::Overloaded`] replies;
//!   shutdown drains accepted work.
//! * [`Client`] — a blocking connect/reconnect client with strict
//!   calls and a pipelined mode.
//!
//! The determinism contract extends across the wire: a `RunReport`
//! served over TCP is **bit-identical** to the report the same
//! `(engine fingerprint, task, seed)` produces in process, at any
//! thread width on either side.
//!
//! # Example
//!
//! ```
//! use lds_engine::{ModelSpec, Task, Topology};
//! use lds_graph::generators;
//! use lds_net::{Client, EngineSpec, NetServer};
//!
//! // server process (here: same process, real TCP on a loopback port)
//! let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
//!
//! // client process
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let spec = EngineSpec::new(
//!     ModelSpec::Hardcore { lambda: 1.0 },
//!     Topology::Graph(generators::cycle(8)),
//! );
//! let fingerprint = client.register(&spec).unwrap();
//! let report = client.run(fingerprint, Task::SampleExact, 7).unwrap();
//!
//! // the served report is bit-identical to in-process execution
//! let direct = spec.build().unwrap().run_with_seed(Task::SampleExact, 7).unwrap();
//! assert_eq!(
//!     report.config().unwrap().values(),
//!     direct.config().unwrap().values(),
//! );
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod proto;

mod client;
mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use codec::{CodecError, Wire};
pub use frame::FrameError;
pub use proto::{EngineSpec, Op, Reply, Request, Response, WireError};
pub use server::{NetConfig, NetServer};
