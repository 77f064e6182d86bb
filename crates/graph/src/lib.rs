//! Graph substrate for the `lds` workspace.
//!
//! This crate provides everything the LOCAL-model simulator and the Gibbs
//! distribution machinery need from graphs:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of a
//!   simple undirected graph, the network topology of the LOCAL model.
//! * [`GraphBuilder`] — incremental construction with duplicate/loop
//!   rejection.
//! * [`generators`] — deterministic families (paths, cycles, grids, tori,
//!   complete graphs, balanced trees) and random families (Erdős–Rényi,
//!   random Δ-regular) used as experiment workloads.
//! * [`traversal`] — BFS distances, balls `B_r(v)`, spheres, eccentricity
//!   and diameter; these implement the paper's radius-`t` information
//!   gathering.
//! * [`Subgraph`] — induced subgraphs with node mappings back to the parent
//!   (the "view" extraction primitive).
//! * [`power`] — power graphs `G^k` (needed by the SLOCAL→LOCAL
//!   transformation, Lemma 3.1 of the paper).
//! * [`mod@line`] — line graphs with edge mappings (matchings are a hardcore
//!   model on the line graph; the duality preserves distances up to a
//!   constant factor).
//! * [`Hypergraph`] — hypergraphs and their intersection graphs (weighted
//!   hypergraph matchings, Corollary 5.3).
//! * [`ordering`] — vertex orderings (identity, random, degeneracy,
//!   BFS-adversarial) used as the adversarial SLOCAL scan orders.
//!
//! # Example
//!
//! ```
//! use lds_graph::{generators, traversal};
//!
//! let g = generators::cycle(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.edge_count(), 8);
//! let ball = traversal::ball(&g, lds_graph::NodeId(0), 2);
//! assert_eq!(ball.len(), 5); // 0, 1, 2, 7, 6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod generators;
mod graph;
mod hypergraph;
pub mod line;
mod node;
pub mod ordering;
pub mod power;
mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use graph::{Edge, EdgeId, Graph, Neighbors};
pub use hypergraph::{HyperEdgeId, Hypergraph};
pub use node::NodeId;
pub use subgraph::Subgraph;
