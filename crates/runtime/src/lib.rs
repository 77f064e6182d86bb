//! Deterministic parallel runtime for the lds workspace.
//!
//! Every multi-seed workload (batched sampling, Monte Carlo marginal
//! reconstruction, boosted-inference trials, counting's chain levels)
//! consists of independent executions. This crate supplies the two
//! ingredients that let the workspace exploit that parallelism without
//! giving up reproducibility:
//!
//! * [`ThreadPool`] — a `std::thread` work-stealing pool (instrumented
//!   through `lds-obs`, the only dependency).
//!   Workers self-schedule by stealing the next unclaimed item index from
//!   a shared atomic counter; results are gathered **in input order**, so
//!   [`ThreadPool::par_map`] is a drop-in replacement for a sequential
//!   `map` regardless of how the OS schedules the workers.
//! * [`channel::bounded`] — a blocking bounded MPMC channel. The pool
//!   parks workers on an unbounded `std::sync::mpsc` job channel; a
//!   serving front-end needs the inverse: a bounded request queue whose
//!   "full" state is an admission-control signal (`try_send` →
//!   overload rejection) and that its sessions drain with a blocking
//!   `recv`, one request at a time. `lds-serve` builds on this.
//! * [`CancelToken`] — cooperative cancellation checked *between*
//!   units of work (scan chunks, sweeps). A check consumes no
//!   randomness, so deadline-bounded runs that complete are
//!   bit-identical to unbounded ones; `lds-engine` maps a cancelled
//!   run into its typed `DeadlineExceeded`.
//! * [`ShutdownSignal`] — a cloneable level-triggered stop flag with
//!   parked waiting, the broadcast bit a network front door
//!   (`lds-net`) uses to stop accepting, drain in-flight sessions, and
//!   exit without busy-waiting.
//! * [`StreamRng`] — counter-based derivation of independent RNG streams
//!   from `(seed, label, label, ...)` paths. Because every parallel task
//!   derives its own stream instead of sharing mutable RNG state, the
//!   bits a task consumes are a pure function of the master seed and the
//!   task's identity — never of thread interleaving. This is what makes
//!   every result of the workspace **bit-identical across thread
//!   counts** (locked down by `tests/determinism.rs`).
//!
//! The pool width is configured explicitly (e.g.
//! `EngineBuilder::threads(n)` in `lds-engine`); [`ThreadPool::from_env`]
//! honors the `LDS_THREADS` environment variable used by the CI matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
pub mod channel;
mod phase;
mod pool;
mod shutdown;
mod stream;

pub use cancel::{CancelToken, Cancelled};
pub use phase::Phase;
pub use pool::ThreadPool;
pub use shutdown::ShutdownSignal;
pub use stream::{splitmix64, streams, StreamRng};
