//! Fitting exponential decay rates from gap series.
//!
//! Definition 5.1's exponential form is `δ_n(t) = poly(n)·αᵗ`; taking
//! logs, `ln gap(d) ≈ ln c + d·ln α` is linear in `d`, so ordinary least
//! squares on `(d, ln gap(d))` recovers `α` (slope) and `c` (intercept).
//! The fitted rate feeds `lds_oracle::DecayRate` for radius planning
//! and the phase diagrams of experiment E7 (`lds-ssm` does not depend
//! on `lds-oracle`, so this is a plain-text reference, not a doc link).

use crate::estimator::GapPoint;

/// A fitted exponential decay `gap(d) ≈ c·α^d`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FittedRate {
    /// The decay rate `α` (may exceed 1 when correlations persist).
    pub alpha: f64,
    /// The constant `c`.
    pub c: f64,
    /// Coefficient of determination of the log-linear fit.
    pub r_squared: f64,
    /// Number of points used (positive gaps only).
    pub points: usize,
}

impl FittedRate {
    /// The decay length `1/ln(1/α)` — the distance over which the gap
    /// shrinks by a factor `e`. Infinite when `α ≥ 1` (no decay).
    /// Experiment E7 reports it to show the phase transition at `λ_c`.
    pub fn decay_length(&self) -> f64 {
        if self.alpha >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 / self.alpha).ln()
        }
    }
}

/// Least-squares fit of `gap(d) = c·α^d` on the positive-gap points.
/// Returns `None` with fewer than two usable points.
pub fn fit_rate(series: &[GapPoint]) -> Option<FittedRate> {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .filter(|p| p.gap > 0.0 && p.gap.is_finite())
        .map(|p| (p.distance as f64, p.gap.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    // R²
    let mean_y = sy / n;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Some(FittedRate {
        alpha: slope.exp(),
        c: intercept.exp(),
        r_squared,
        points: pts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(alpha: f64, c: f64, n: usize) -> Vec<GapPoint> {
        (1..=n)
            .map(|d| GapPoint {
                distance: d,
                gap: c * alpha.powi(d as i32),
            })
            .collect()
    }

    #[test]
    fn recovers_synthetic_rate() {
        let fit = fit_rate(&synthetic(0.6, 3.0, 10)).unwrap();
        assert!((fit.alpha - 0.6).abs() < 1e-9);
        assert!((fit.c - 3.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
        assert_eq!(fit.points, 10);
    }

    #[test]
    fn decay_length_and_radius() {
        let fit = fit_rate(&synthetic(0.5, 1.0, 8)).unwrap();
        assert!((fit.decay_length() - 1.0 / (2.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn flat_series_has_no_decay() {
        let series: Vec<GapPoint> = (1..=10)
            .map(|d| GapPoint {
                distance: d,
                gap: 0.3,
            })
            .collect();
        let fit = fit_rate(&series).unwrap();
        assert!((fit.alpha - 1.0).abs() < 1e-9);
        assert!(fit.decay_length().is_infinite());
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(fit_rate(&[]).is_none());
        assert!(fit_rate(&[GapPoint {
            distance: 1,
            gap: 0.5
        }])
        .is_none());
        // all-zero gaps filtered out
        let zeros: Vec<GapPoint> = (1..5)
            .map(|d| GapPoint {
                distance: d,
                gap: 0.0,
            })
            .collect();
        assert!(fit_rate(&zeros).is_none());
    }
}
