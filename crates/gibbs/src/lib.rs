//! Gibbs distributions defined by local constraints.
//!
//! This crate implements the probabilistic objects of Feng & Yin,
//! *On Local Distributed Sampling and Counting* (PODC 2018):
//!
//! * [`Value`] — a member of the alphabet `Σ`, stored as an index `0..q`
//!   with `q = |Σ|`.
//! * [`Config`] and [`PartialConfig`] — configurations `σ ∈ Σ^V` and
//!   partially specified configurations `τ ∈ Σ^Λ` (the pinnings that make
//!   instances *self-reducible*, Definition 2.2 and Remark 2.2).
//! * [`Factor`] — a constraint `(f, S)` with scope `S ⊆ V` and a
//!   nonnegative weight table; hard constraints take the value 0 somewhere
//!   (Definition 2.3).
//! * [`GibbsModel`] — a Gibbs distribution `μ(σ) ∝ ∏_{(f,S)} f(σ_S)`
//!   (Definition 2.3), with its *locality* `ℓ = max scope diameter`
//!   (Definition 2.4) and restriction to balls.
//! * [`distribution`] — exact computation by enumeration with pruning:
//!   partition functions, (conditional) marginals, total joint
//!   distributions, and exact chain-rule sampling. These are the ground
//!   truth every approximate algorithm in the workspace is validated
//!   against.
//! * [`admissible`] — the *locally admissible* property (Definition 2.5):
//!   locally feasible pinnings are globally feasible.
//! * [`metrics`] — total variation distance and the multiplicative error
//!   function `err(μ, μ̂) = max_x |ln μ(x) − ln μ̂(x)|` (paper, eq. (2)).
//! * [`models`] — the paper's application models: hardcore (weighted
//!   independent sets), Ising, general 2-spin systems, proper
//!   `q`-colorings, monomer–dimer matchings (via line-graph duality) and
//!   weighted hypergraph matchings (via intersection-graph duality).
//!
//! # Example: hardcore model on a 4-cycle
//!
//! ```
//! use lds_gibbs::models::hardcore;
//! use lds_gibbs::{distribution, PartialConfig};
//! use lds_graph::{generators, NodeId};
//!
//! let g = generators::cycle(4);
//! let model = hardcore::model(&g, 1.0);
//! // Z = 1 (empty) + 4 (singletons) + 2 (diagonal pairs) = 7
//! let z = distribution::partition_function(&model, &PartialConfig::empty(4));
//! assert!((z - 7.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admissible;
mod config;
pub mod distribution;
mod factor;
pub mod metrics;
mod model;
pub mod models;
mod value;

pub use config::{Config, PartialConfig};
pub use factor::Factor;
pub use model::GibbsModel;
pub use value::Value;
