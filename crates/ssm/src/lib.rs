//! Strong spatial mixing: estimation, rate fitting, phase transitions,
//! and the `Ω(diam)` lower-bound witness.
//!
//! The paper's third main result (Theorem 5.1 + Corollary 5.3) ties the
//! tractability of local sampling/counting to **strong spatial mixing**
//! (Definition 5.1): `d_TV(μ^σ_v, μ^τ_v) ≤ δ_n(dist_G(v, D))` where `D`
//! is the disagreement set. Combined with the `Ω(diam)` lower bound of
//! Feng–Sun–Yin (PODC'17) for the hardcore model in the non-uniqueness
//! regime, this yields the first *computational phase transition* for
//! distributed sampling, at the tree uniqueness threshold
//! `λ_c(Δ) = (Δ−1)^{Δ−1}/(Δ−2)^Δ`.
//!
//! This crate makes all of that measurable:
//!
//! * [`estimator`] — exact decay measurements: `d_TV(μ^σ_v, μ^τ_v)` as a
//!   function of the distance to the disagreement set, by enumeration on
//!   general graphs and by scalar tree recursions on `Δ`-regular trees
//!   (exact at any depth).
//! * [`rate`] — least-squares fitting of the exponential decay rate `α`
//!   from a gap series, and the derived decay length `1/ln(1/α)`.
//! * [`phase`] — the phase-transition experiment driver: sweep `λ`
//!   across `λ_c(Δ)` and report fitted rates, decay lengths and required
//!   radii (experiment E7).
//! * [`correlation`] — the lower-bound witness (experiment E8): in the
//!   non-uniqueness regime the boundary-to-root gap does *not* vanish
//!   with depth, so any local algorithm with radius `< depth` suffers a
//!   constant inference error — the information-theoretic heart of the
//!   `Ω(diam)` sampling lower bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod estimator;
pub mod phase;
pub mod rate;
