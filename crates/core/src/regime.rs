//! Structured uniqueness-regime validation for the Corollary 5.3
//! applications.
//!
//! Every application sampler is only proven correct (with
//! polylogarithmic round complexity) inside a parameter regime — below
//! the hardcore uniqueness threshold `λ_c(Δ)`, inside two-spin
//! uniqueness, past the coloring constant `α*`, and so on. This module
//! centralizes those checks as the single source the `lds-engine`
//! facade validates against, and every rejection reports *which*
//! threshold was violated together with both the computed and the
//! critical value.

use lds_gibbs::models::ising::IsingParams;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_graph::{Graph, Hypergraph};

use crate::complexity;

/// Error: the requested parameters are outside the regime for which the
/// paper proves polylogarithmic sampling.
///
/// Carries the violated threshold in structured form: `computed` is the
/// offending quantity as derived from the request, `critical` the value
/// it must stay on the tractable side of, and `condition` names the
/// comparison in words.
#[derive(Clone, Debug, PartialEq)]
pub struct OutOfRegime {
    /// The decay rate that was computed (`≥ 1` means no contraction).
    pub rate: f64,
    /// Human-readable description of the violated condition.
    pub condition: String,
    /// The computed value of the checked quantity.
    pub computed: f64,
    /// The critical threshold the computed value crossed.
    pub critical: f64,
}

impl std::fmt::Display for OutOfRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parameters outside the uniqueness regime ({}; computed {:.4} vs critical {:.4}; \
             rate {:.3})",
            self.condition, self.computed, self.critical, self.rate
        )
    }
}

impl std::error::Error for OutOfRegime {}

/// A passed regime check: the decay rate to plan radii with.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeCheck {
    /// The SSM decay rate used for radius planning (`< 1`).
    pub rate: f64,
}

/// Hardcore model: requires `λ < λ_c(Δ) = (Δ−1)^{Δ−1}/(Δ−2)^Δ`
/// (Corollary 5.3, second bullet).
///
/// # Errors
///
/// Returns [`OutOfRegime`] if `λ ≥ λ_c(Δ)`.
pub fn hardcore(g: &Graph, lambda: f64) -> Result<RegimeCheck, OutOfRegime> {
    let delta = g.max_degree();
    let lc = complexity::hardcore_uniqueness_threshold(delta);
    let rate = complexity::hardcore_decay_rate(lambda, delta);
    if lambda >= lc {
        return Err(OutOfRegime {
            rate,
            condition: format!("need λ < λ_c({delta}) = {lc:.4}, got λ = {lambda}"),
            computed: lambda,
            critical: lc,
        });
    }
    Ok(RegimeCheck { rate })
}

/// Matchings (monomer–dimer): in regime for **every** `λ` and `Δ`
/// (Corollary 5.3, first bullet) — the check is infallible and only
/// computes the decay rate.
pub fn matching(g: &Graph, lambda: f64) -> RegimeCheck {
    let delta = g.max_degree();
    let rate = complexity::matching_decay_rate(lambda, delta);
    RegimeCheck { rate }
}

/// General antiferromagnetic two-spin system with a caller-supplied
/// decay rate: requires `βγ < 1` and `rate < 1` (Corollary 5.3, fourth
/// bullet).
///
/// # Errors
///
/// Returns [`OutOfRegime`] if the parameters are not antiferromagnetic
/// or the rate does not contract.
pub fn two_spin(params: TwoSpinParams, rate: f64) -> Result<RegimeCheck, OutOfRegime> {
    let bg = params.beta * params.gamma;
    if !params.is_antiferromagnetic() {
        return Err(OutOfRegime {
            rate,
            condition: format!("need βγ < 1 (antiferromagnetic), got βγ = {bg:.4}"),
            computed: bg,
            critical: 1.0,
        });
    }
    if rate >= 1.0 {
        return Err(OutOfRegime {
            rate,
            condition: format!("need decay rate < 1 (uniqueness), got rate = {rate:.4}"),
            computed: rate,
            critical: 1.0,
        });
    }
    Ok(RegimeCheck { rate })
}

/// Antiferromagnetic Ising model: computes the exact tree contraction
/// ratio and requires it below 1 (uniqueness: `e^{2|β|} < Δ/(Δ−2)`).
///
/// # Errors
///
/// Returns [`OutOfRegime`] outside uniqueness or for ferromagnetic `β`.
pub fn ising(g: &Graph, params: IsingParams) -> Result<RegimeCheck, OutOfRegime> {
    let delta = g.max_degree().max(2);
    let rate = complexity::ising_decay_rate(params.beta, delta);
    if params.beta > 0.0 {
        return Err(OutOfRegime {
            rate,
            condition: format!("need β ≤ 0 (antiferromagnetic), got β = {}", params.beta),
            computed: params.beta,
            critical: 0.0,
        });
    }
    if rate >= 1.0 {
        return Err(OutOfRegime {
            rate,
            condition: format!(
                "need contraction (Δ−1)·|1−e^{{2β}}|/(1+e^{{2β}}) < 1, got {rate:.4} (Δ = {delta})"
            ),
            computed: rate,
            critical: 1.0,
        });
    }
    Ok(RegimeCheck { rate })
}

/// Proper `q`-colorings: requires a triangle-free graph and
/// `q > α*·Δ` with `α* ≈ 1.763` (Corollary 5.3, third bullet).
///
/// # Errors
///
/// Returns [`OutOfRegime`] if the graph has a triangle or the palette is
/// too small.
pub fn coloring(g: &Graph, q: usize) -> Result<RegimeCheck, OutOfRegime> {
    let delta = g.max_degree();
    let critical = complexity::alpha_star() * delta as f64;
    if !g.is_triangle_free() {
        // count the triangles (rejection path only) so `computed` is a
        // real quantity: triangles found vs the zero the regime allows
        let triangles = count_triangles(g);
        return Err(OutOfRegime {
            rate: 1.0,
            condition: format!("need a triangle-free graph, got {triangles} triangle(s)"),
            computed: triangles as f64,
            critical: 0.0,
        });
    }
    let rate = complexity::coloring_decay_rate(q, delta.max(1));
    if rate >= 1.0 {
        return Err(OutOfRegime {
            rate,
            condition: format!("need q > α*·Δ ≈ {critical:.3}, got q = {q}"),
            computed: q as f64,
            critical,
        });
    }
    Ok(RegimeCheck { rate })
}

/// Ceiling on the SSM decay rate up to which local Glauber dynamics is
/// certified to mix in `O(log n)` sweeps. Below the ceiling, one-step
/// contraction gives `d_TV ≤ n·rateᵀ`, so `T = ln(n/δ)/(1−rate)` sweeps
/// suffice; as `rate → 1` the certified budget diverges, and past the
/// ceiling we refuse to certify at all (the builder's per-model regime
/// checks only require `rate < 1`, so a model can be in the sampling
/// regime yet outside the Glauber certificate — e.g. a caller-supplied
/// two-spin rate of `0.995`).
pub const GLAUBER_RATE_CEILING: f64 = 0.99;

/// A certified local-Glauber execution plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlauberPlan {
    /// Sweeps sufficient for `d_TV ≤ δ` under one-step contraction.
    pub sweeps: usize,
}

/// Certifies local Glauber dynamics for an `n`-node instance at decay
/// rate `rate` and total-variation budget `δ`: the sweep budget is
/// `⌈ln(n/δ)/(1−rate)⌉` (one-step contraction `d_TV ≤ n·e^{−(1−rate)·T}`
/// from a worst-case start), clamped to at least one sweep.
///
/// # Errors
///
/// Returns [`OutOfRegime`] when `rate ≥` [`GLAUBER_RATE_CEILING`] — the
/// regime where the contraction argument certifies nothing useful.
pub fn glauber_plan(rate: f64, n: usize, delta: f64) -> Result<GlauberPlan, OutOfRegime> {
    if rate.is_nan() || rate >= GLAUBER_RATE_CEILING {
        return Err(OutOfRegime {
            rate,
            condition: format!(
                "local Glauber dynamics needs decay rate < {GLAUBER_RATE_CEILING}, got {rate:.4}"
            ),
            computed: rate,
            critical: GLAUBER_RATE_CEILING,
        });
    }
    let rate = rate.max(0.0);
    let n = n.max(2) as f64;
    let delta = delta.clamp(f64::MIN_POSITIVE, 0.5);
    let sweeps = ((n / delta).ln() / (1.0 - rate)).ceil().max(1.0) as usize;
    Ok(GlauberPlan { sweeps })
}

/// The `Backend::Auto` decision for approximate-sampling tasks.
#[derive(Clone, Debug, PartialEq)]
pub enum AutoBackend {
    /// Serve with local Glauber dynamics under the given certified plan.
    Glauber(GlauberPlan),
    /// Serve with the oracle-driven chain-rule sampler.
    Exact,
}

/// Picks the approximate-sampling backend from `(ε, δ, rate)`: Glauber
/// when its mixing certificate exists ([`glauber_plan`]) **and** the
/// certified sweep budget undercuts the chain-rule sampler's per-node
/// cost proxy — each of the `n` chain-rule nodes pays an oracle ball of
/// radius `t = ln(1/η)/ln(1/rate)` at per-node error
/// `η = min(ε, δ)/n`, while Glauber pays `sweeps` table lookups per
/// node. With the quadratic ball proxy `t²`, Glauber wins everywhere
/// the certificate holds except in pathological corners, so in practice
/// `Auto` reads as *Glauber when certified, chain-rule otherwise*.
pub fn auto_sampling_backend(rate: f64, n: usize, epsilon: f64, delta: f64) -> AutoBackend {
    let Ok(plan) = glauber_plan(rate, n, delta) else {
        return AutoBackend::Exact;
    };
    let per_node = (epsilon.min(delta) / n.max(1) as f64).clamp(f64::MIN_POSITIVE, 0.5);
    let radius = ((1.0 / per_node).ln() / (1.0 / rate.clamp(0.01, 1.0)).ln())
        .ceil()
        .max(1.0);
    let chain_cost = (radius * radius).max(8.0);
    if plan.sweeps as f64 <= chain_cost {
        AutoBackend::Glauber(plan)
    } else {
        AutoBackend::Exact
    }
}

/// Counts triangles by checking, for each node, adjacent pairs among its
/// higher-id neighbors. Only used on the rejection path.
fn count_triangles(g: &Graph) -> usize {
    let mut count = 0usize;
    for u in g.nodes() {
        let higher: Vec<_> = g.neighbors(u).copied().filter(|&v| v > u).collect();
        for (i, &v) in higher.iter().enumerate() {
            for &w in &higher[i + 1..] {
                if g.has_edge(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// The cheap half of the hypergraph matching check: `λ < λ_c(r, Δ)`
/// needs only the rank and maximum degree, so callers can reject
/// out-of-regime parameters **before** paying for the intersection
/// graph.
///
/// # Errors
///
/// Returns [`OutOfRegime`] if `λ ≥ λ_c(r, Δ)`.
pub fn hypergraph_matching_threshold(h: &Hypergraph, lambda: f64) -> Result<f64, OutOfRegime> {
    let r = h.rank().max(2);
    let delta = h.max_degree();
    let lc = complexity::hypergraph_matching_threshold(r, delta.max(3));
    if lambda >= lc {
        return Err(OutOfRegime {
            rate: 1.0,
            condition: format!("need λ < λ_c({r}, {delta}) = {lc:.4}, got λ = {lambda}"),
            computed: lambda,
            critical: lc,
        });
    }
    Ok(lc)
}

/// Weighted hypergraph matchings: requires
/// `λ < λ_c(r, Δ) = (Δ−1)^{Δ−1}/((r−1)(Δ−2)^Δ)` (Corollary 5.3, fifth
/// bullet). On success the rate is the hardcore rate on the intersection
/// graph, whose maximum degree the caller supplies via `ig_delta` (use
/// [`hypergraph_matching_threshold`] first to reject without building
/// the intersection graph).
///
/// # Errors
///
/// Returns [`OutOfRegime`] if `λ ≥ λ_c(r, Δ)`.
pub fn hypergraph_matching(
    h: &Hypergraph,
    lambda: f64,
    ig_delta: usize,
) -> Result<RegimeCheck, OutOfRegime> {
    hypergraph_matching_threshold(h, lambda)?;
    let rate = complexity::hardcore_decay_rate(lambda, ig_delta.max(2));
    Ok(RegimeCheck {
        rate: rate.min(0.95),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_graph::{generators, NodeId};

    #[test]
    fn hardcore_reports_computed_and_critical() {
        let t = generators::torus(4, 4); // Δ = 4, λ_c = 27/16
        let err = hardcore(&t, 2.0).unwrap_err();
        assert_eq!(err.computed, 2.0);
        assert!((err.critical - 27.0 / 16.0).abs() < 1e-12);
        assert!(err.rate > 1.0);
        let msg = err.to_string();
        assert!(msg.contains("uniqueness"), "{msg}");
        assert!(msg.contains("2.0000") && msg.contains("1.6875"), "{msg}");
    }

    #[test]
    fn matching_is_infallible() {
        let g = generators::complete(6);
        for lambda in [0.1, 1.0, 50.0] {
            let check = matching(&g, lambda);
            assert!(check.rate < 1.0, "λ = {lambda}: rate {}", check.rate);
        }
    }

    #[test]
    fn two_spin_rejects_ferromagnets_with_values() {
        let err = two_spin(TwoSpinParams::new(2.0, 3.0, 1.0), 0.5).unwrap_err();
        assert_eq!(err.computed, 6.0);
        assert_eq!(err.critical, 1.0);
        let err2 = two_spin(TwoSpinParams::hardcore(1.0), 1.2).unwrap_err();
        assert_eq!(err2.computed, 1.2);
    }

    #[test]
    fn ising_uniqueness_window() {
        let t = generators::torus(4, 4); // Δ = 4: unique iff e^{2|β|} < 2
        assert!(ising(&t, IsingParams::new(-0.3, 0.0)).is_ok());
        let err = ising(&t, IsingParams::new(-0.4, 0.0)).unwrap_err();
        assert!(err.computed > 1.0);
        assert!(
            ising(&t, IsingParams::new(0.2, 0.0)).is_err(),
            "ferromagnet"
        );
    }

    #[test]
    fn coloring_thresholds() {
        let g = generators::cycle(7);
        assert!(coloring(&g, 4).is_ok());
        let k3 = generators::complete(3);
        let err = coloring(&k3, 9).unwrap_err();
        assert!(err.condition.contains("triangle"));
        let t = generators::torus(4, 4); // triangle-free, Δ = 4, α*Δ ≈ 7.05
        let err = coloring(&t, 6).unwrap_err();
        assert_eq!(err.computed, 6.0);
        assert!((err.critical - complexity::alpha_star() * 4.0).abs() < 1e-12);
    }

    #[test]
    fn glauber_plan_certifies_below_the_ceiling() {
        let plan = glauber_plan(0.5, 10, 0.05).unwrap();
        assert!(plan.sweeps >= 1);
        // monotone: tighter δ and larger n need more sweeps
        assert!(glauber_plan(0.5, 10, 0.001).unwrap().sweeps > plan.sweeps);
        assert!(glauber_plan(0.5, 10_000, 0.05).unwrap().sweeps > plan.sweeps);
        assert!(glauber_plan(0.9, 10, 0.05).unwrap().sweeps > plan.sweeps);
    }

    #[test]
    fn glauber_plan_rejects_past_the_ceiling() {
        for rate in [GLAUBER_RATE_CEILING, 0.995, 1.0, 1.5, f64::NAN] {
            let err = glauber_plan(rate, 10, 0.05).unwrap_err();
            assert_eq!(err.critical, GLAUBER_RATE_CEILING);
            assert!(err.condition.contains("Glauber"), "{}", err.condition);
        }
    }

    #[test]
    fn auto_backend_is_glauber_when_certified() {
        match auto_sampling_backend(0.5, 12, 0.01, 0.05) {
            AutoBackend::Glauber(plan) => assert!(plan.sweeps >= 1),
            other => panic!("expected Glauber, got {other:?}"),
        }
        assert_eq!(
            auto_sampling_backend(0.995, 12, 0.01, 0.05),
            AutoBackend::Exact
        );
    }

    #[test]
    fn hypergraph_matching_threshold_check() {
        let h = Hypergraph::new(
            6,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(3), NodeId(4)],
                vec![NodeId(4), NodeId(5), NodeId(0)],
            ],
        );
        assert!(hypergraph_matching(&h, 0.3, 2).is_ok());
        let err = hypergraph_matching(&h, 100.0, 2).unwrap_err();
        assert_eq!(err.computed, 100.0);
        assert!(err.critical < 100.0);
    }
}
