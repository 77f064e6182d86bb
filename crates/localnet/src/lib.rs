//! Networks, views and the SLOCAL scan, lifted to the LOCAL model by
//! Lemma 3.1.
//!
//! This crate realizes the computational models of Feng & Yin (PODC 2018):
//!
//! * [`Instance`] — a sampling/counting instance `(G, x, τ)`
//!   (Definition 2.2): a Gibbs model plus a feasible pinning.
//! * [`Network`] — the distributed network: the instance plus per-node
//!   randomness (each node holds "an arbitrarily long random bit string",
//!   realized as a per-node RNG seed derived from a network seed).
//! * [`View`] — the radius-`t` view a LOCAL node gathers: the ball
//!   `B_t(v)` as a local-id subgraph, the restricted model `w_B` (factors
//!   fully inside the ball), the restricted pinning, member seeds and
//!   distances. An oracle queried inside a view answers exactly as it
//!   does on the whole instance, which is how the test suites check that
//!   an answer reads nothing beyond its declared locality.
//! * [`slocal`] — the [`ScanKernel`](slocal::ScanKernel) trait and
//!   [`run_scan_sequential`](slocal::run_scan_sequential): sequential
//!   local algorithms scanning an adversarial ordering
//!   (Ghaffari–Kuhn–Maus SLOCAL model), each node's step folding its
//!   result into the scan state.
//! * [`decomposition`] — randomized Linial–Saks style
//!   `(O(log n), O(log n))` network decompositions with locally
//!   certifiable failures.
//! * [`scheduler`] — the SLOCAL→LOCAL transformation (paper, Lemma 3.1):
//!   decompose the power graph `G^{r+1}` and derive the chromatic
//!   schedule ordering and the simulated round count `O(r log² n)`. A
//!   pass runs as the sequential scan over that ordering, which is the
//!   execution the lemma's parallel cluster simulation produces.
//!
//! # Example
//!
//! ```
//! use lds_gibbs::models::hardcore;
//! use lds_gibbs::PartialConfig;
//! use lds_graph::{generators, NodeId};
//! use lds_localnet::{Instance, Network};
//!
//! let g = generators::cycle(8);
//! let inst = Instance::new(hardcore::model(&g, 1.0), PartialConfig::empty(8)).unwrap();
//! let net = Network::new(inst, 42);
//! let view = net.view(NodeId(0), 2);
//! assert_eq!(view.subgraph().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomposition;
mod instance;
mod network;
pub mod scheduler;
pub mod slocal;
mod view;

pub use instance::{InfeasiblePinning, Instance};
pub use network::Network;
pub use view::View;
