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
//! All oracles implement [`InferenceOracle`]; radius planning uses
//! [`DecayRate`], the exponential-decay form `δ_n(t) = c·αᵗ` of strong
//! spatial mixing (Definition 5.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boosting;
mod decay;
mod enumeration;
pub mod saw;

pub use boosting::{chain_marginals_mul, BoostedOracle, MultiplicativeInference};
pub use decay::DecayRate;
pub use enumeration::EnumerationOracle;
pub use saw::TwoSpinSawOracle;

use lds_gibbs::{GibbsModel, PartialConfig};
use lds_graph::NodeId;

/// A local inference oracle: estimates the conditional marginal `μ_v^τ`
/// from information within radius `t` of `v`.
///
/// Implementations must be *local*: the estimate may depend only on the
/// ball `B_t(v)` — its topology, the factors fully inside it, and the
/// pinned values of its members. This is what makes an oracle directly
/// executable inside a LOCAL view.
pub trait InferenceOracle {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// The radius `t(n, δ)` this oracle needs for additive error `δ` on
    /// instances of `n` nodes.
    fn radius(&self, n: usize, delta: f64) -> usize;

    /// Estimates `μ_v^τ` using information within radius `t` of `v`;
    /// returns a length-`q` probability vector.
    fn marginal(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> Vec<f64>;
}

/// A shared oracle is an oracle: lets callers hand an `Arc` (including
/// an `Arc<dyn …>` trait object) to the generic algorithms, which clone
/// their oracle into `'static` pool jobs.
impl<T: InferenceOracle + ?Sized> InferenceOracle for std::sync::Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn radius(&self, n: usize, delta: f64) -> usize {
        (**self).radius(n, delta)
    }

    fn marginal(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> Vec<f64> {
        (**self).marginal(model, pinning, v, t)
    }
}
