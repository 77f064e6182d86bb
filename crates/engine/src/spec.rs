//! Typed model specifications: the request half of the facade.

use lds_graph::{Graph, Hypergraph};
use lds_runtime::splitmix64;

/// Folds one word into a running 64-bit fingerprint state
/// (order-sensitive splitmix64 mixing — deliberately *not*
/// `std::hash::Hasher`, whose output is allowed to vary between std
/// releases; idempotency keys must be stable).
pub(crate) fn mix(state: u64, word: u64) -> u64 {
    splitmix64(state ^ splitmix64(word))
}

/// One of the paper's Corollary 5.3 applications, as a typed request.
///
/// The engine turns a `ModelSpec` plus a [`Topology`] into a validated
/// instance at build time: the uniqueness-regime check runs **once**,
/// in [`crate::Engine::builder`]'s `build()`, not per task.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelSpec {
    /// Weighted independent sets at fugacity `λ`; requires
    /// `λ < λ_c(Δ)` (second bullet).
    Hardcore {
        /// Vertex fugacity.
        lambda: f64,
    },
    /// Weighted matchings (monomer–dimer) at edge weight `λ`; in regime
    /// for every `λ` and `Δ` (first bullet). Runs on the line graph.
    Matching {
        /// Edge activity.
        lambda: f64,
    },
    /// Antiferromagnetic Ising with coupling `β ≤ 0` and external field
    /// `h`; requires tree uniqueness `e^{2|β|} < Δ/(Δ−2)` (fourth
    /// bullet, specialized).
    Ising {
        /// Inverse-temperature coupling (negative = antiferromagnetic).
        beta: f64,
        /// External field.
        field: f64,
    },
    /// General antiferromagnetic two-spin system `(β, γ, λ)` with a
    /// caller-supplied SSM decay rate; requires `βγ < 1` and
    /// `rate < 1` (fourth bullet).
    TwoSpin {
        /// Weight of a `0–0` edge.
        beta: f64,
        /// Weight of a `1–1` edge.
        gamma: f64,
        /// Vertex activity of value `1`.
        lambda: f64,
        /// SSM decay rate for radius planning (exact rates for
        /// hardcore/Ising are in `lds_core::complexity`).
        rate: f64,
    },
    /// Proper `q`-colorings of triangle-free graphs; requires
    /// `q > α*·Δ`, `α* ≈ 1.763` (third bullet).
    Coloring {
        /// Number of colors.
        q: usize,
    },
    /// Weighted hypergraph matchings at activity `λ`; requires
    /// `λ < λ_c(r, Δ)` (fifth bullet). Runs on the intersection graph
    /// and needs a [`Topology::Hypergraph`].
    HypergraphMatching {
        /// Hyperedge activity.
        lambda: f64,
    },
}

impl ModelSpec {
    /// Short model name for reports and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::Hardcore { .. } => "hardcore",
            ModelSpec::Matching { .. } => "matching",
            ModelSpec::Ising { .. } => "ising",
            ModelSpec::TwoSpin { .. } => "two-spin",
            ModelSpec::Coloring { .. } => "coloring",
            ModelSpec::HypergraphMatching { .. } => "hypergraph-matching",
        }
    }

    /// The topology kind this model runs on.
    pub(crate) fn expected_topology(&self) -> &'static str {
        match self {
            ModelSpec::HypergraphMatching { .. } => "hypergraph",
            _ => "graph",
        }
    }

    /// A stable 64-bit fingerprint of the specification: the model kind
    /// plus the exact bit patterns of its parameters.
    ///
    /// Two specs fingerprint equal iff they request the same model with
    /// bit-identical parameters, which (together with the topology,
    /// pinning, and error targets — see `Engine::fingerprint`) is
    /// exactly the condition under which a `(Task, seed)` pair
    /// reproduces the same `RunReport`. Serving layers use this as the
    /// spec component of an idempotency key. The value is independent of
    /// `std::hash` internals, so it is stable across processes and
    /// toolchains.
    pub fn fingerprint(&self) -> u64 {
        match *self {
            ModelSpec::Hardcore { lambda } => mix(1, lambda.to_bits()),
            ModelSpec::Matching { lambda } => mix(2, lambda.to_bits()),
            ModelSpec::Ising { beta, field } => mix(mix(3, beta.to_bits()), field.to_bits()),
            ModelSpec::TwoSpin {
                beta,
                gamma,
                lambda,
                rate,
            } => {
                let mut h = mix(4, beta.to_bits());
                h = mix(h, gamma.to_bits());
                h = mix(h, lambda.to_bits());
                mix(h, rate.to_bits())
            }
            ModelSpec::Coloring { q } => mix(5, q as u64),
            ModelSpec::HypergraphMatching { lambda } => mix(6, lambda.to_bits()),
        }
    }
}

/// The network substrate a model runs on.
#[derive(Clone, Debug)]
pub enum Topology {
    /// A simple undirected graph (all vertex and edge models).
    Graph(Graph),
    /// A hypergraph (hypergraph matchings).
    Hypergraph(Hypergraph),
}

impl Topology {
    /// Number of nodes of the underlying substrate (base nodes, not
    /// carrier nodes).
    pub fn node_count(&self) -> usize {
        match self {
            Topology::Graph(g) => g.node_count(),
            Topology::Hypergraph(h) => h.node_count(),
        }
    }

    /// The graph, if this is a graph topology.
    pub fn graph(&self) -> Option<&Graph> {
        match self {
            Topology::Graph(g) => Some(g),
            Topology::Hypergraph(_) => None,
        }
    }

    /// The hypergraph, if this is a hypergraph topology.
    pub fn hypergraph(&self) -> Option<&Hypergraph> {
        match self {
            Topology::Graph(_) => None,
            Topology::Hypergraph(h) => Some(h),
        }
    }

    /// A stable 64-bit fingerprint of the substrate: node count plus
    /// every (hyper)edge in storage order. Computed once per engine
    /// build (it walks the whole edge set), then cached on the engine.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Topology::Graph(g) => {
                let mut h = mix(11, g.node_count() as u64);
                for e in g.edges() {
                    h = mix(h, (e.u.index() as u64) << 32 | e.v.index() as u64);
                }
                h
            }
            Topology::Hypergraph(hg) => {
                let mut h = mix(12, hg.node_count() as u64);
                for (_, nodes) in hg.edges() {
                    h = mix(h, nodes.len() as u64);
                    for v in nodes {
                        h = mix(h, v.index() as u64);
                    }
                }
                h
            }
        }
    }
}
