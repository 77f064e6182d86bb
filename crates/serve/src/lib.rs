//! `lds-serve`: a concurrent serving front-end for the lds engine.
//!
//! The source paper's reductions make every task kind — exact and
//! approximate sampling, inference, counting — a *local* computation
//! whose randomness derives from a per-request seed, and the congested-
//! clique line of follow-up work reframes the same reductions as
//! throughput problems. This crate is that reframing in systems form:
//! it turns the `lds-engine` library into a **service** that absorbs
//! concurrent request streams from many clients and serves them off one
//! shared engine, exploiting the structure the paper guarantees:
//!
//! * Each `(task, seed)` is **its own local execution**, driven by that
//!   seed's randomness alone, so two requests share no work a batch
//!   could amortize — a worker session takes one request off the queue
//!   and answers it with one [`lds_engine::Engine::run_with_deadline`]
//!   call, and a server runs one session per thread of its engine's
//!   pool ([`lds_engine::Engine::threads`]), so requests of any mix of
//!   tasks run side by side.
//! * Outputs are a **pure function of `(engine, task, seed)`** — so
//!   repeated requests are *idempotent* by construction, and the server
//!   answers them from an LRU [cache](ServerStats::cache_hits) keyed by
//!   [`IdempotencyKey`] (engine fingerprint, task, seed), while
//!   identical requests in flight dedup to a single execution.
//! * Load has to stop somewhere — the request queue is **bounded**
//!   ([`lds_runtime::channel::bounded`]), and [`Server::try_submit`]
//!   sheds excess with [`SubmitError::Overloaded`] at a configurable
//!   watermark instead of letting latency grow without limit.
//!
//! Everything is dependency-free `std`: worker sessions are plain
//! threads, the queue is a condvar channel, and the session that serves
//! a first `Count` fans its chain marginals out on scoped threads that
//! are joined before it answers.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use lds_engine::{Engine, ModelSpec, Task};
//! use lds_graph::generators;
//! use lds_serve::{Server, ServerConfig};
//!
//! let engine = Arc::new(
//!     Engine::builder()
//!         .model(ModelSpec::Hardcore { lambda: 1.0 })
//!         .graph(generators::cycle(8))
//!         .build()
//!         .unwrap(),
//! );
//! let server = Server::new(engine, ServerConfig::default());
//!
//! // concurrent clients submit (task, seed) requests …
//! let t1 = server.try_submit(Task::SampleExact, 7).unwrap();
//! let t2 = server.try_submit(Task::SampleExact, 7).unwrap(); // duplicate
//! let a = t1.wait().unwrap();
//! let b = t2.wait().unwrap();
//! // … duplicates are answered identically from ONE execution
//! assert_eq!(a.config().unwrap().values(), b.config().unwrap().values());
//! assert_eq!(server.stats().engine_executions, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod registry;
mod server;
mod stats;

pub use cache::{IdempotencyKey, LruCache};
pub use registry::{EngineRegistry, RegistryConfig, RegistryStats};
pub use server::{ServeError, Server, ServerConfig, SubmitError, Ticket};
pub use stats::ServerStats;
