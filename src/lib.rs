//! # lds — Local Distributed Sampling and Counting
//!
//! A Rust workspace reproducing **Feng & Yin, "On Local Distributed
//! Sampling and Counting" (PODC 2018, arXiv:1802.06686)**: reductions
//! between approximate inference, approximate sampling and exact sampling
//! in the LOCAL model of distributed computing, the distributed
//! Jerrum–Valiant–Vazirani sampler, the equivalence with strong spatial
//! mixing, and the computational phase transition for distributed
//! sampling at the hardcore uniqueness threshold.
//!
//! This crate is an umbrella re-exporting the workspace members:
//!
//! * [`engine`] — **the front door**: the unified [`engine::Engine`]
//!   facade serving exact/approximate sampling, inference, and counting
//!   for all five Corollary 5.3 models through one typed API.
//! * [`graph`] — graph substrate (CSR graphs, generators, balls, power
//!   graphs, line graphs, hypergraphs).
//! * [`gibbs`] — Gibbs distributions defined by local constraints, their
//!   exact enumeration, and the paper's application models.
//! * [`localnet`] — LOCAL/SLOCAL simulators, network decomposition and
//!   the SLOCAL→LOCAL transformation (Lemma 3.1).
//! * [`oracle`] — marginal oracles: ball enumeration (Theorem 5.1),
//!   Weitz SAW trees, and the boosting lemma (Lemma 4.1).
//! * [`core`] — the paper's reductions, the `local-JVV` exact sampler
//!   (Theorem 4.2), SSM ⟺ inference (Theorem 5.1), and the Corollary 5.3
//!   applications.
//! * [`ssm`] — strong spatial mixing estimation, rate fitting, the phase
//!   transition and the `Ω(diam)` lower-bound witness.
//! * [`runtime`] — the deterministic parallel runtime: scoped
//!   `std::thread` fan-out, a bounded blocking MPMC channel, and
//!   counter-based RNG stream derivation, so every result is
//!   bit-identical regardless of thread count.
//! * [`serve`] — the concurrent serving front-end: a bounded request
//!   queue with admission control, one request per dispatch on one
//!   session per engine pool thread, an idempotency cache keyed by
//!   `(engine fingerprint, task, seed)`, and the multi-tenant
//!   [`serve::EngineRegistry`] with LRU eviction.
//! * [`net`] — out-of-process serving: a versioned binary wire codec,
//!   a TCP [`net::NetServer`] over the engine registry, and a blocking
//!   [`net::Client`] — served reports are bit-identical to in-process
//!   execution.
//! * [`chaos`] — deterministic fault injection: a process-wide
//!   fail-point registry (one relaxed load when disarmed) whose fault
//!   schedules derive from a seed via [`runtime::StreamRng`], driving
//!   the resilience tests for retry, deadlines, and supervision.
//! * [`obs`] — the unified observability layer: a process-wide
//!   [`obs::MetricsRegistry`] of lock-free counters/gauges/histograms
//!   and the [`obs::RoundLedger`] checking measured round complexity against
//!   the paper's bounds. Scrape in-process via [`obs::global`], or over
//!   the wire via `net::Client::metrics` / `Op::Metrics`.
//!
//! # Quickstart
//!
//! Build an [`engine::Engine`] once — the uniqueness-regime check runs at
//! build time — then serve typed tasks through it:
//!
//! ```
//! use lds::engine::{Engine, ModelSpec, Task};
//! use lds::gibbs::Value;
//! use lds::graph::{generators, NodeId};
//!
//! // exact LOCAL sampling from the hardcore model below uniqueness
//! let engine = Engine::builder()
//!     .model(ModelSpec::Hardcore { lambda: 1.0 })
//!     .graph(generators::cycle(10))
//!     .epsilon(0.001)
//!     .seed(42)
//!     .build()
//!     .expect("in regime");
//! let run = engine.run(Task::SampleExact).expect("task is valid");
//! assert_eq!(run.config().expect("sampling task").len(), 10);
//!
//! // the same engine answers inference and counting queries
//! let mu = engine
//!     .run(Task::Infer { vertex: NodeId(0), value: Value(1) })
//!     .unwrap();
//! assert!((mu.marginal().unwrap().iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! let z = engine.run(Task::Count).unwrap();
//! assert!(z.log_z().unwrap() > 0.0);
//! ```
//!
//! See `examples/` for runnable walkthroughs of every model and task
//! kind, README.md for the system inventory, and the paper rows (`e1` to
//! `s2`) of `lds-bench`'s `perf_telemetry` harness for the per-claim
//! reproduction, each checked.

#![forbid(unsafe_code)]

pub use lds_chaos as chaos;
pub use lds_core as core;
pub use lds_engine as engine;
pub use lds_gibbs as gibbs;
pub use lds_graph as graph;
pub use lds_localnet as localnet;
pub use lds_net as net;
pub use lds_obs as obs;
pub use lds_oracle as oracle;
pub use lds_runtime as runtime;
pub use lds_serve as serve;
pub use lds_ssm as ssm;
