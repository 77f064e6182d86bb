//! Marginal oracles: the "arbitrary local computation" of LOCAL nodes.
//!
//! The paper's LOCAL algorithms let each node gather a radius-`t` ball and
//! perform **unbounded** computation on it. This crate instantiates that
//! computation tractably:
//!
//! * [`EnumerationOracle`] — the literal algorithm from Theorem 5.1:
//!   gather `B_{t+ℓ}(v)`, greedily extend the pinning over the frontier
//!   ring `Γ = B_{t+ℓ}(v) \ (B_t(v) ∪ Λ)` (possible for locally
//!   admissible models), and compute the conditional marginal exactly
//!   under the ball weight `w_B` by enumeration. Always correct up to the
//!   strong-spatial-mixing error `δ_n(t)`; exponential in the ball size.
//!   It answers multiplicative targets through the boosting lemma, so it
//!   serves colorings on its own.
//! * [`TwoSpinSawOracle`] — Weitz's self-avoiding-walk tree for two-spin
//!   systems (hardcore, Ising, general `(β, γ, λ)`), truncated at depth
//!   `t` with **certified** upper/lower marginal bounds from the two
//!   extreme boundary conditions. Polynomial in the ball size; the same
//!   oracle run on a line graph computes monomer–dimer (matching)
//!   marginals — the duality of Corollary 5.3.
//! * [`BoostedOracle`] — the boosting lemma (Lemma 4.1): turns additive
//!   (total-variation) inference error into multiplicative error by
//!   pinning the frontier ring coordinate-by-coordinate with argmax
//!   marginals and finishing with exact enumeration under `w_B`.
//!
//! All oracles implement [`Oracle`], whose queries carry their error
//! [`Target`]; radius planning uses [`DecayRate`], the exponential-decay
//! form `δ_n(t) = c·αᵗ` of strong spatial mixing (Definition 5.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boosting;
mod decay;
mod enumeration;
pub mod saw;

pub use boosting::{chain_marginals_mul, BoostedOracle};
pub use decay::DecayRate;
pub use enumeration::EnumerationOracle;
pub use saw::TwoSpinSawOracle;

use lds_gibbs::{GibbsModel, PartialConfig};
use lds_graph::NodeId;

/// The error a query asks for. FY18 treats additive and multiplicative
/// inference as one primitive: Theorem 5.1 turns strong spatial mixing
/// into inference at total-variation error `δ`, and Lemma 4.1 boosts
/// that to multiplicative error `ε`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Target {
    /// Additive error `δ`: `d_TV(μ̂_v, μ^τ_v) ≤ δ`. The Theorem 3.2
    /// sampler's per-node query.
    Tv(f64),
    /// Multiplicative error `ε`: `e^{−ε} ≤ μ̂_v(c)/μ^τ_v(c) ≤ e^ε` for
    /// every value `c` (paper, eq. (2)). Local-JVV's and the chain-rule
    /// counter's query.
    Mul(f64),
    /// The support of the `Mul(ε)` answer: positive exactly where that
    /// answer is, with no promise on the magnitudes. By the
    /// multiplicative guarantee a positive estimate implies positive
    /// truth, so this is all local-JVV's ground pass needs, and an oracle
    /// with certified bounds can often decide it far more cheaply than
    /// the magnitude.
    Support(f64),
}

/// A local inference oracle: estimates the conditional marginal `μ_v^τ`
/// to a [`Target`] error from information near `v`.
///
/// Implementations must be *local*: the answer may depend only on the
/// ball of radius [`Oracle::radius`] around `v` — its topology, the
/// factors fully inside it, and the pinned values of its members. This
/// is what makes an oracle directly executable inside a LOCAL view.
/// Answers must be deterministic functions of the arguments.
pub trait Oracle {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// The radius a query at `target` on `model` plans for.
    fn radius(&self, model: &GibbsModel, target: Target) -> usize;

    /// Estimates `μ_v^τ` to `target`; returns a length-`q` vector, a
    /// probability vector for `Tv` and `Mul`.
    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64>;
}
