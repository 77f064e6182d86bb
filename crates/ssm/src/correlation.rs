//! The lower-bound witness (experiment E8).
//!
//! Feng–Sun–Yin (PODC'17, Theorem 5.3) prove an `Ω(diam)` lower bound
//! for sampling from the hardcore model in the non-uniqueness regime.
//! The information-theoretic core is **long-range order**: the marginal
//! at a vertex depends on the boundary condition at distance `d` by a
//! gap that does not vanish as `d → ∞`. A LOCAL algorithm with radius
//! `t < d` outputs the *same* distribution at `v` for both boundary
//! conditions (it cannot see them), so its inference error is at least
//! half the gap for one of the two instances — and a sampler's output
//! marginal errs equally. This module makes that argument executable.

use lds_core::complexity;

use crate::estimator::tree_root_occupation;

/// The non-vanishing-gap witness on the `Δ`-regular tree: the limiting
/// boundary gap `lim_d |p^+_d − p^-_d|` estimated at a large depth.
/// Positive iff `λ > λ_c(Δ)` (up to the estimation depth).
pub fn limiting_tree_gap(delta: usize, lambda: f64, depth: usize) -> f64 {
    assert!(delta >= 3, "need Δ ≥ 3");
    let b = delta - 1;
    // average consecutive depths to damp the period-2 oscillation of the
    // non-uniqueness recursion
    let g1 = (tree_root_occupation(b, depth, lambda, true)
        - tree_root_occupation(b, depth, lambda, false))
    .abs();
    let g2 = (tree_root_occupation(b, depth + 1, lambda, true)
        - tree_root_occupation(b, depth + 1, lambda, false))
    .abs();
    0.5 * (g1 + g2)
}

/// The inference-error floor forced on any radius-`t` LOCAL algorithm by
/// a boundary gap `gap` at distance `d > t`: at least `gap/2` on one of
/// the two instances (both instances look identical within radius `t`).
pub fn error_floor(gap: f64) -> f64 {
    gap / 2.0
}

/// The minimum radius a LOCAL inference algorithm needs to achieve error
/// `< ε` at a vertex whose boundary (at distance `depth`) induces gap
/// series `gaps[d]` (`gaps[d]` = gap at distance `d+1`): the smallest
/// `t` such that `gap(t+1)/2 < ε`, or `None` if even seeing everything
/// but the boundary leaves error `≥ ε` (then the radius must be ≥ the
/// boundary distance itself — the `Ω(diam)` conclusion).
pub fn min_radius_for_error(gaps: &[f64], eps: f64) -> Option<usize> {
    gaps.iter()
        .position(|&g| error_floor(g) < eps)
        .map(|i| i + 1)
}

/// Classification of a fugacity for the E8 paper row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// `λ ≤ λ_c(Δ)`: the tree's Gibbs measure is unique (Kelly). Below
    /// `λ_c` SSM holds and sampling takes `O(log³ n)` rounds; at `λ_c`
    /// the gap still vanishes, but only polynomially.
    Unique,
    /// `λ > λ_c(Δ)`: long-range order, `Ω(diam)` sampling.
    NonUnique,
}

/// Classifies `λ` against the hardcore threshold: `λ_c` itself is
/// unique.
pub fn classify(delta: usize, lambda: f64) -> Regime {
    if lambda <= complexity::hardcore_uniqueness_threshold(delta) {
        Regime::Unique
    } else {
        Regime::NonUnique
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tree_gap_series;

    #[test]
    fn gap_vanishes_below_and_persists_above() {
        let lc = complexity::hardcore_uniqueness_threshold(4);
        assert!(limiting_tree_gap(4, 0.5 * lc, 200) < 1e-8);
        assert!(limiting_tree_gap(4, 2.0 * lc, 200) > 0.05);
    }

    #[test]
    fn error_floor_is_half_gap() {
        assert_eq!(error_floor(0.3), 0.15);
    }

    #[test]
    fn min_radius_grows_with_lambda() {
        let lc = complexity::hardcore_uniqueness_threshold(4);
        let eps = 0.02;
        let gaps_low: Vec<f64> = tree_gap_series(3, 0.4 * lc, 160)
            .iter()
            .map(|p| p.gap)
            .collect();
        let gaps_mid: Vec<f64> = tree_gap_series(3, 0.8 * lc, 160)
            .iter()
            .map(|p| p.gap)
            .collect();
        let r_low = min_radius_for_error(&gaps_low, eps).unwrap();
        let r_mid = min_radius_for_error(&gaps_mid, eps).unwrap();
        assert!(r_low < r_mid, "{r_low} !< {r_mid}");
        // above threshold: no radius below the horizon suffices
        let gaps_high: Vec<f64> = tree_gap_series(3, 2.0 * lc, 160)
            .iter()
            .map(|p| p.gap)
            .collect();
        assert_eq!(min_radius_for_error(&gaps_high, eps), None);
    }

    #[test]
    fn classification_matches_threshold() {
        let lc = complexity::hardcore_uniqueness_threshold(5);
        assert_eq!(classify(5, 0.9 * lc), Regime::Unique);
        assert_eq!(classify(5, lc), Regime::Unique);
        assert_eq!(classify(5, 1.1 * lc), Regime::NonUnique);
    }
}
