//! The paper's primary contribution: local distributed sampling and
//! counting algorithms and the reductions between them.
//!
//! Feng & Yin, *On Local Distributed Sampling and Counting* (PODC 2018)
//! prove, for self-reducible classes of instances in the LOCAL model:
//!
//! | Paper result | Module |
//! |---|---|
//! | Approximate inference (Prop. 3.3: deterministic and failure-free) | the `lds-engine` facade's `Task::Infer`, which queries the oracle directly; `tests/local_model_discipline.rs` checks that a query inside a node's view equals the global one |
//! | Theorem 3.2: inference ⟹ approximate sampling (SLOCAL sequential sampler + Lemma 3.1) | [`sampler`] |
//! | Theorem 3.4: sampling ⟹ inference | [`sampling_to_inference`] |
//! | Theorem 4.2 / Prop. 4.3: the distributed JVV exact sampler (local rejection sampling) | [`jvv`] |
//! | Theorem 5.1: inference ⟺ strong spatial mixing | [`lds_oracle::EnumerationOracle`] (SSM ⟹ inference); `tests/phase_transition.rs` checks both directions |
//! | Corollary 5.3: per-model exact samplers (matchings, hardcore, colorings, 2-spin, hypergraph matchings) | the `lds-engine` facade ([`regime`] holds the shared checks) |
//! | Chain-rule counting from inference (the "counting" of the title) | [`counting`] |
//! | Round-complexity formulas for the applications | [`complexity`] |
//! | Local Glauber dynamics (Fischer–Ghaffari, arXiv:1802.06676) as a chromatic-scan backend | [`glauber`] |
//!
//! # Quickstart
//!
//! The reductions and samplers in this crate are generic plumbing; the
//! recommended entry point is the `lds-engine` facade, which wires a
//! model, its regime check, and the right oracle together at build time:
//!
//! ```
//! use lds_engine::{Engine, ModelSpec, Task};
//! use lds_graph::generators;
//!
//! let engine = Engine::builder()
//!     .model(ModelSpec::Hardcore { lambda: 1.0 })
//!     .graph(generators::cycle(12))
//!     .seed(7)
//!     .build()
//!     .expect("λ = 1 is below λ_c(2) = ∞");
//! let run = engine.run(Task::SampleApprox).expect("valid task");
//! assert_eq!(run.config().expect("sampling task").len(), 12);
//! ```
//!
//! Direct use of the machinery (e.g. [`sampler::SequentialSampler`] over
//! a hand-picked oracle) remains available for experiments that need to
//! instrument individual passes; see the module docs below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complexity;
pub mod counting;
pub mod glauber;
pub mod jvv;
pub mod regime;
pub mod sampler;
pub mod sampling_to_inference;
pub mod stats;
