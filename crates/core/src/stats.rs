//! Statistical test helpers: chi-square goodness of fit.
//!
//! The workspace's exactness claims (`local-JVV` conditioned on success
//! follows `μ^τ` *exactly*, Theorem 4.2) are locked down empirically by
//! `tests/statistical.rs`: sample many times with fixed seeds, count
//! occurrences per configuration, and compare against the brute-force
//! enumerated distribution with Pearson's chi-square test. This module
//! provides the test statistic and its p-value (the regularized upper
//! incomplete gamma function `Q(k/2, χ²/2)`), dependency-free.

/// Result of a chi-square goodness-of-fit test.
#[derive(Clone, Copy, Debug)]
pub struct ChiSquare {
    /// Pearson's `χ² = Σ (O_i − E_i)² / E_i` over the pooled bins.
    pub statistic: f64,
    /// Degrees of freedom: pooled bins − 1.
    pub dof: usize,
    /// `Pr[χ²_dof ≥ statistic]` — small values reject the null
    /// hypothesis that the observations follow the expected law.
    pub p_value: f64,
    /// Number of bins after pooling low-expectation bins.
    pub bins: usize,
}

/// Pearson chi-square goodness-of-fit of observed counts against a
/// discrete law given by (unnormalized) weights.
///
/// Bins whose expected count falls below `min_expected` (Cochran's rule
/// uses 5) are pooled deterministically: the bins are scanned in order
/// and consecutive bins are merged until the running expectation reaches
/// the threshold; an undersized final group is merged into its
/// predecessor.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or the weights do
/// not sum to a positive finite number.
pub fn goodness_of_fit(observed: &[u64], weights: &[f64], min_expected: f64) -> ChiSquare {
    assert_eq!(observed.len(), weights.len(), "bin arity mismatch");
    assert!(!observed.is_empty(), "need at least one bin");
    let total: u64 = observed.iter().sum();
    let mass: f64 = weights.iter().sum();
    assert!(
        mass.is_finite() && mass > 0.0,
        "weights must have positive finite mass"
    );

    // pool consecutive bins until each group's expectation clears the
    // threshold
    let mut groups: Vec<(f64, f64)> = Vec::new(); // (observed, expected)
    let mut acc_o = 0.0f64;
    let mut acc_e = 0.0f64;
    for (&o, &w) in observed.iter().zip(weights) {
        acc_o += o as f64;
        acc_e += w / mass * total as f64;
        if acc_e >= min_expected {
            groups.push((acc_o, acc_e));
            acc_o = 0.0;
            acc_e = 0.0;
        }
    }
    if acc_e > 0.0 || acc_o > 0.0 {
        match groups.last_mut() {
            Some(last) => {
                last.0 += acc_o;
                last.1 += acc_e;
            }
            None => groups.push((acc_o, acc_e)),
        }
    }

    let statistic: f64 = groups
        .iter()
        .filter(|(_, e)| *e > 0.0)
        .map(|(o, e)| (o - e) * (o - e) / e)
        .sum();
    let bins = groups.len();
    let dof = bins.saturating_sub(1);
    ChiSquare {
        statistic,
        dof,
        p_value: chi_square_pvalue(statistic, dof),
        bins,
    }
}

/// The chi-square survival function `Pr[χ²_dof ≥ x] = Q(dof/2, x/2)`.
fn chi_square_pvalue(x: f64, dof: usize) -> f64 {
    if dof == 0 || x <= 0.0 {
        return 1.0;
    }
    gamma_q(dof as f64 / 2.0, x / 2.0)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 5, accurate to ~1e-13).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma needs a positive argument, got {x}");
    const COEF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    let mut y = y;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// The regularized upper incomplete gamma function `Q(a, x)`.
fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain: a > 0, x >= 0");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Series representation of `P(a, x)`, convergent for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const EPS: f64 = 1e-14;
    const ITMAX: usize = 500;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..ITMAX {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Modified Lentz continued fraction for `Q(a, x)`, convergent for
/// `x ≥ a + 1`.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;
    const ITMAX: usize = 500;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=ITMAX {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..10u64 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-10, "ln Γ({n})");
        }
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn pvalues_match_tables() {
        // classic critical values: Pr[χ²_k ≥ x] = 0.05
        for (dof, x) in [(1, 3.841), (2, 5.991), (5, 11.070), (10, 18.307)] {
            let p = chi_square_pvalue(x, dof);
            assert!((p - 0.05).abs() < 2e-4, "dof {dof}: p {p}");
        }
        assert_eq!(chi_square_pvalue(0.0, 4), 1.0);
        assert!(chi_square_pvalue(100.0, 3) < 1e-10);
        // mean of the distribution: p around 0.4-0.6
        let p = chi_square_pvalue(5.0, 5);
        assert!((0.3..0.7).contains(&p), "p {p}");
    }

    #[test]
    fn perfect_fit_has_high_pvalue() {
        let observed = [250u64, 250, 250, 250];
        let weights = [1.0, 1.0, 1.0, 1.0];
        let t = goodness_of_fit(&observed, &weights, 5.0);
        assert_eq!(t.dof, 3);
        assert!(t.statistic < 1e-12);
        assert!(t.p_value > 0.999);
    }

    #[test]
    fn gross_misfit_is_rejected() {
        let observed = [900u64, 50, 25, 25];
        let weights = [1.0, 1.0, 1.0, 1.0];
        let t = goodness_of_fit(&observed, &weights, 5.0);
        assert!(t.p_value < 1e-6, "p {}", t.p_value);
    }

    #[test]
    fn low_expectation_bins_pool() {
        // 100 samples over weights {98, 1, 1}: the two light bins pool
        // into the heavy group's tail
        let observed = [97u64, 2, 1];
        let weights = [98.0, 1.0, 1.0];
        let t = goodness_of_fit(&observed, &weights, 5.0);
        assert!(t.bins < 3, "bins {}", t.bins);
        assert!(t.p_value > 0.05);
    }
}
