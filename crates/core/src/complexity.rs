//! Uniqueness thresholds, decay rates and round-complexity formulas.
//!
//! The quantities the paper's applications (Corollary 5.3) are stated in:
//!
//! * the hardcore uniqueness threshold
//!   `λ_c(Δ) = (Δ−1)^{Δ−1}/(Δ−2)^Δ`,
//! * the weighted-hypergraph-matching threshold
//!   `λ_c(r, Δ) = (Δ−1)^{Δ−1}/((r−1)(Δ−2)^Δ)`,
//! * the coloring constant `α* ≈ 1.763...` with `α* = e^{1/α*}`,
//! * per-model decay rates `α` for radius planning, and
//! * the round bounds `O(log³ n)` and `O(√Δ·log³ n)`.
//!
//! The threshold formulas are exact (from the paper and its references).
//! The *decay-rate* functions for hardcore and Ising are the exact tree
//! contraction ratios; those for matchings and colorings are
//! Θ-shape surrogates of the cited analyses (Bayati et al.;
//! Gamarnik–Katz–Misra) — the paper rows *measure* the true rates and
//! report both (`lds-bench`'s `perf_telemetry`, row `e5`).

/// The hardcore uniqueness threshold `λ_c(Δ) = (Δ−1)^{Δ−1}/(Δ−2)^Δ`
/// (infinite for `Δ ≤ 2`: one-dimensional systems are always unique).
pub fn hardcore_uniqueness_threshold(delta: usize) -> f64 {
    if delta <= 2 {
        return f64::INFINITY;
    }
    let d = delta as f64;
    (d - 1.0).powf(d - 1.0) / (d - 2.0).powf(d)
}

/// The weighted hypergraph matching uniqueness threshold
/// `λ_c(r, Δ) = (Δ−1)^{Δ−1} / ((r−1)·(Δ−2)^Δ)` (paper, Corollary 5.3;
/// Song–Yin–Zhao).
pub fn hypergraph_matching_threshold(rank: usize, delta: usize) -> f64 {
    assert!(rank >= 2, "hypergraph rank must be at least 2");
    if delta <= 2 {
        return f64::INFINITY;
    }
    hardcore_uniqueness_threshold(delta) / (rank as f64 - 1.0)
}

/// The coloring constant `α* ≈ 1.76322`, the positive root of
/// `x = e^{1/x}` (paper, Corollary 5.3): `q ≥ αΔ` colorings of
/// triangle-free graphs mix for `α > α*`.
pub(crate) fn alpha_star() -> f64 {
    // fixed-point iteration x ← e^{1/x} converges quickly near 1.76
    let mut x = 1.75f64;
    for _ in 0..128 {
        x = (1.0 / x).exp();
    }
    x
}

/// The exact SSM decay rate of the hardcore model on the `Δ`-regular
/// tree: `(Δ−1)·x*/(1+x*)` where `x*` solves `x = λ/(1+x)^{Δ−1}` —
/// the contraction ratio of Weitz's tree recursion at its fixpoint.
/// Strictly below 1 iff `λ < λ_c(Δ)`.
pub fn hardcore_decay_rate(lambda: f64, delta: usize) -> f64 {
    assert!(lambda >= 0.0, "fugacity must be nonnegative");
    if lambda == 0.0 {
        return 0.0;
    }
    let d = (delta.max(2) - 1) as f64;
    // solve x = λ/(1+x)^d by damped fixpoint iteration
    let mut x = lambda.min(1.0);
    for _ in 0..500 {
        let next = lambda / (1.0 + x).powf(d);
        x = 0.5 * x + 0.5 * next;
    }
    d * x / (1.0 + x)
}

/// The exact tree contraction ratio of the Ising model with edge weight
/// `b = e^{2β}`: `(Δ−1)·|1−b|/(1+b)`. Below 1 iff `e^{2|β|} < Δ/(Δ−2)`.
pub fn ising_decay_rate(beta: f64, delta: usize) -> f64 {
    let b = (2.0 * beta).exp();
    let d = (delta.max(2) - 1) as f64;
    d * (1.0 - b).abs() / (1.0 + b)
}

/// Θ-shape surrogate of the matching (monomer–dimer) decay rate
/// `1 − Ω(1/√(λΔ))` (Bayati–Gamarnik–Katz–Nair–Tetali): we use
/// `1 − 2/(√(4λΔ + 1) + 1)`, which is always `< 1` (matchings mix at
/// every temperature) and approaches 1 like `1 − Θ(1/√(λΔ))`.
pub fn matching_decay_rate(lambda: f64, delta: usize) -> f64 {
    let x = 4.0 * lambda * delta.max(1) as f64;
    1.0 - 2.0 / ((x + 1.0).sqrt() + 1.0)
}

/// Θ-shape surrogate of the triangle-free coloring decay rate for
/// `q ≥ αΔ`: `α*·Δ/q` (below 1 iff `q > α*Δ`, the Gamarnik–Katz–Misra
/// regime).
pub fn coloring_decay_rate(q: usize, delta: usize) -> f64 {
    alpha_star() * delta as f64 / q as f64
}

/// `log₂ n`, clamped below by 1 (round formulas use it as a factor).
fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2().max(1.0)
}

/// The `O(log³ n)` round bound of Corollary 5.3 with constant `c`.
pub fn log3_rounds_bound(n: usize, c: f64) -> f64 {
    c * log2n(n).powi(3)
}

/// The `O(√Δ · log³ n)` bound for sampling matchings.
pub fn matchings_rounds_bound(delta: usize, n: usize, c: f64) -> f64 {
    c * (delta.max(1) as f64).sqrt() * log2n(n).powi(3)
}

/// The `O(1/(1−α) · log³ n)` bound of Corollary 5.3 for SSM rate `α`.
pub fn ssm_rounds_bound(alpha: f64, n: usize, c: f64) -> f64 {
    assert!((0.0..1.0).contains(&alpha), "rate must be in [0,1)");
    c / (1.0 - alpha) * log2n(n).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_thresholds() {
        // λ_c(3) = 4, λ_c(4) = 27/16, λ_c(5) = 256/27/... compute directly
        assert!((hardcore_uniqueness_threshold(3) - 4.0).abs() < 1e-12);
        assert!((hardcore_uniqueness_threshold(4) - 27.0 / 16.0).abs() < 1e-12);
        assert!((hardcore_uniqueness_threshold(5) - 256.0 / 243.0 * 4.0 / 4.0).abs() < 0.2);
        assert!(hardcore_uniqueness_threshold(2).is_infinite());
        // λ_c(Δ) decreases in Δ
        assert!(hardcore_uniqueness_threshold(4) > hardcore_uniqueness_threshold(5));
    }

    #[test]
    fn hypergraph_threshold_scales_inversely_with_rank() {
        let a = hypergraph_matching_threshold(2, 4);
        let b = hypergraph_matching_threshold(3, 4);
        assert!((a - 2.0 * b).abs() < 1e-12);
        assert!((a - hardcore_uniqueness_threshold(4)).abs() < 1e-12);
    }

    #[test]
    fn alpha_star_solves_equation() {
        let a = alpha_star();
        assert!((a - (1.0 / a).exp()).abs() < 1e-10);
        assert!((a - 1.763).abs() < 0.001);
    }

    #[test]
    fn hardcore_rate_crosses_one_at_threshold() {
        for delta in [3usize, 4, 5] {
            let lc = hardcore_uniqueness_threshold(delta);
            assert!(
                hardcore_decay_rate(0.8 * lc, delta) < 1.0,
                "below threshold must contract (Δ={delta})"
            );
            assert!(
                hardcore_decay_rate(1.3 * lc, delta) > 1.0,
                "above threshold must expand (Δ={delta})"
            );
            // approximately 1 at the threshold
            let at = hardcore_decay_rate(lc, delta);
            assert!((at - 1.0).abs() < 0.02, "rate at λ_c = {at}");
        }
    }

    #[test]
    fn ising_rate_matches_uniqueness() {
        // Δ=4: unique iff e^{2|β|} < 2
        let unique = ising_decay_rate(-0.3, 4);
        let nonunique = ising_decay_rate(-0.4, 4);
        assert!(unique < 1.0);
        assert!(nonunique > 1.0);
        assert_eq!(ising_decay_rate(0.0, 4), 0.0);
    }

    #[test]
    fn matching_rate_always_below_one() {
        for delta in [2usize, 4, 8, 16] {
            for lambda in [0.5, 1.0, 4.0] {
                let r = matching_decay_rate(lambda, delta);
                assert!((0.0..1.0).contains(&r), "Δ={delta} λ={lambda}: {r}");
            }
        }
        // rate grows with Δ (harder to mix)
        assert!(matching_decay_rate(1.0, 16) > matching_decay_rate(1.0, 4));
    }

    #[test]
    fn coloring_rate_below_one_past_alpha_star() {
        assert!(coloring_decay_rate(8, 4) < 1.0); // q = 2Δ > α*Δ
        assert!(coloring_decay_rate(6, 4) > 1.0); // q = 1.5Δ < α*Δ
    }

    #[test]
    fn round_bounds_shapes() {
        assert!(log3_rounds_bound(256, 1.0) > log3_rounds_bound(16, 1.0));
        assert!(matchings_rounds_bound(9, 64, 1.0) > matchings_rounds_bound(4, 64, 1.0));
        let near = ssm_rounds_bound(0.9, 64, 1.0);
        let far = ssm_rounds_bound(0.5, 64, 1.0);
        assert!(near > far);
    }
}
