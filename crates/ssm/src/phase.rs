//! The computational phase transition (experiment E7).
//!
//! Sweep the hardcore fugacity `λ` across the uniqueness threshold
//! `λ_c(Δ)` on `Δ`-regular trees and report, for each `λ`:
//!
//! * the fitted SSM decay rate `α` and decay length,
//! * the limiting boundary-to-root gap (0 ⟺ uniqueness),
//! * the radius a local inference algorithm needs for a fixed target
//!   error (diverging at the threshold — and *infinite* above it, which
//!   is the tractable/intractable divide of the paper's headline
//!   phase-transition claim).

use crate::estimator::{tree_gap_series, GapPoint};
use crate::rate::{fit_rate, FittedRate};
use lds_core::complexity;

/// One row of the phase-transition sweep.
#[derive(Clone, Debug)]
pub struct PhasePoint {
    /// `λ/λ_c(Δ)`.
    pub lambda_ratio: f64,
    /// Fitted decay rate over the measured depths (tail of the series).
    pub fitted: Option<FittedRate>,
    /// The exact tree contraction rate (theory column).
    pub theory_rate: f64,
    /// Gap at the largest measured depth (long-range order indicator).
    pub limiting_gap: f64,
    /// Radius required for inference error 0.01: ∞ when the gap at the
    /// largest measured depth is still at least 0.01. That holds above
    /// the threshold, and at it, where the gap decays only polynomially.
    pub required_radius: f64,
    /// `true` iff `λ ≤ λ_c(Δ)`: the tree's Gibbs measure is unique up to
    /// and at the threshold (Kelly).
    pub unique: bool,
}

/// Sweeps `λ = ratios[i]·λ_c(Δ)` on the `Δ`-regular tree (branching
/// `b = Δ−1`), measuring gaps up to `max_depth`.
pub fn hardcore_tree_sweep(delta: usize, ratios: &[f64], max_depth: usize) -> Vec<PhasePoint> {
    assert!(delta >= 3, "phase transition needs Δ ≥ 3");
    let b = delta - 1;
    let lc = complexity::hardcore_uniqueness_threshold(delta);
    ratios
        .iter()
        .map(|&r| {
            let lambda = r * lc;
            let series = tree_gap_series(b, lambda, max_depth);
            // fit only where the gap is above the floating-point floor,
            // skipping the first quarter (boundary transient)
            let usable: Vec<GapPoint> = series.iter().copied().filter(|p| p.gap > 1e-13).collect();
            let skip = usable.len() / 4;
            let fitted = fit_rate(&usable[skip..]);
            let limiting_gap = series.last().map_or(0.0, |p| p.gap);
            // required radius measured directly: one past the last depth
            // whose gap still exceeds the target
            let target = 0.01;
            let required_radius = if limiting_gap >= target {
                // no radius within the measured depth reaches the target
                f64::INFINITY
            } else {
                match series.iter().rposition(|p| p.gap > target) {
                    Some(i) => (series[i].distance + 1) as f64,
                    None => 1.0,
                }
            };
            PhasePoint {
                lambda_ratio: r,
                fitted,
                theory_rate: complexity::hardcore_decay_rate(lambda, delta),
                limiting_gap,
                required_radius,
                unique: lambda <= lc,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_transition_at_threshold() {
        let ratios = [0.3, 0.6, 0.9, 1.5, 2.5];
        let points = hardcore_tree_sweep(4, &ratios, 320);
        assert_eq!(points.len(), 5);
        // below threshold: finite radius, vanishing gap
        for p in &points[..3] {
            assert!(p.unique);
            assert!(
                p.required_radius.is_finite(),
                "λ/λ_c={} should be tractable",
                p.lambda_ratio
            );
            assert!(p.limiting_gap < 1e-2, "gap {}", p.limiting_gap);
        }
        // above threshold: infinite radius, persistent gap
        for p in &points[3..] {
            assert!(!p.unique);
            assert!(
                p.required_radius.is_infinite(),
                "λ/λ_c={} should be intractable",
                p.lambda_ratio
            );
            assert!(p.limiting_gap > 0.01, "gap {}", p.limiting_gap);
        }
    }

    #[test]
    fn fitted_rate_tracks_theory_below_threshold() {
        let points = hardcore_tree_sweep(5, &[0.5], 60);
        let p = &points[0];
        let fitted = p.fitted.as_ref().unwrap();
        // the tree recursion's asymptotic rate is the theory contraction
        assert!(
            (fitted.alpha - p.theory_rate).abs() < 0.1,
            "fitted {} vs theory {}",
            fitted.alpha,
            p.theory_rate
        );
    }

    #[test]
    fn required_radius_diverges_near_threshold() {
        let points = hardcore_tree_sweep(4, &[0.4, 0.8, 0.95], 60);
        let r: Vec<f64> = points.iter().map(|p| p.required_radius).collect();
        assert!(r[0] < r[1] && r[1] < r[2], "radii {r:?} not increasing");
    }

    #[test]
    #[should_panic(expected = "Δ ≥ 3")]
    fn rejects_low_degree() {
        let _ = hardcore_tree_sweep(2, &[0.5], 10);
    }
}
