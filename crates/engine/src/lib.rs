//! Unified `Engine` facade: one typed request/response API for
//! sampling, inference, and counting.
//!
//! Feng & Yin (PODC 2018) prove that approximate inference, approximate
//! sampling, exact sampling, and counting form **one equivalence class**
//! of local computations. This crate mirrors that unification at the API
//! level: a single [`Engine`], built once per instance, serves all four
//! problems as typed [`Task`]s and answers with a uniform [`RunReport`].
//!
//! * [`ModelSpec`] — the five Corollary 5.3 applications (hardcore,
//!   matchings, Ising / general antiferromagnetic two-spin, triangle-free
//!   colorings, hypergraph matchings) as a typed request.
//! * [`EngineBuilder`] — `Engine::builder().model(…).graph(…).build()`:
//!   validates the uniqueness regime **once** at build time, constructs
//!   the Gibbs model on its carrier graph (line/intersection graph for
//!   the edge models), verifies the pinning, and selects the oracle.
//! * [`TaskOracle`] — object-safe union of the additive and
//!   multiplicative oracle contracts; the engine owns one
//!   `Arc<dyn TaskOracle>` (Weitz SAW tree for two-spin-shaped models,
//!   boosted enumeration for colorings) shared by every task.
//! * [`Task`] — `SampleExact` (local-JVV, Theorem 4.2), `SampleApprox`
//!   (Theorem 3.2 under the LOCAL scheduler), `Infer` (multiplicative
//!   marginals), `Count` (chain rule).
//! * [`Backend`] — which algorithm serves `SampleApprox`: the oracle
//!   chain-rule sampler (`Exact`), local Glauber dynamics (`Glauber`,
//!   Fischer–Ghaffari), or a per-instance build-time choice (`Auto`).
//! * [`RunReport`] — output configuration (with matching decode), round
//!   count, the paper's round bound, decay rate, the backend that
//!   served it, JVV statistics, Glauber mixing diagnostics, wall time.
//! * [`Engine::run_batch`] — one task over many seeds, fanned across the
//!   engine's lanes and gathered in seed order, for experiments and
//!   batch clients (a `lds-serve` server answers one seed per dispatch).
//! * [`EngineError`] — one structured error enum absorbing
//!   `OutOfRegime` (with computed vs. critical threshold values),
//!   `InfeasiblePinning`, and builder/task misuse.
//!
//! # Example: every task kind through one engine
//!
//! ```
//! use lds_engine::{Engine, ModelSpec, Task};
//! use lds_gibbs::Value;
//! use lds_graph::{generators, NodeId};
//!
//! let engine = Engine::builder()
//!     .model(ModelSpec::Hardcore { lambda: 1.0 })
//!     .graph(generators::cycle(8))
//!     .epsilon(0.01)
//!     .build()
//!     .unwrap();
//!
//! let exact = engine.run(Task::SampleExact).unwrap();
//! assert_eq!(exact.config().unwrap().len(), 8);
//!
//! let marginal = engine
//!     .run(Task::Infer { vertex: NodeId(0), value: Value(1) })
//!     .unwrap();
//! let mu = marginal.marginal().unwrap();
//! assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//!
//! let count = engine.run(Task::Count).unwrap();
//! assert!(count.log_z().unwrap() > 0.0); // ln(#weighted ind. sets)
//!
//! // one task over many seeds, in seed order
//! let reports = engine.run_batch(Task::SampleExact, &[1, 2, 3]).unwrap();
//! assert_eq!(reports.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod engine;
mod error;
mod oracle;
mod report;
mod spec;

pub use backend::{Backend, ServedBackend, SweepBudget};
pub use engine::{Engine, EngineBuilder};
pub use error::EngineError;
pub use lds_core::glauber::GlauberStats;
pub use oracle::{BoostedEnumeration, TaskOracle};
pub use report::{MarginalsMethod, MarginalsReport, RunReport, SampleDecode, Task, TaskOutput};
pub use spec::{ModelSpec, Topology};
