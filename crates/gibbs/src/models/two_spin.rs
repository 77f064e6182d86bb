//! General two-spin systems.
//!
//! A two-spin system `(β, γ, λ)` on a graph `G` assigns each edge the
//! interaction matrix `[[β, 1], [1, γ]]` (indexed by the endpoint values
//! in `{0, 1}`) and each vertex the activity `λ` for value `1`:
//!
//! `w(σ) = β^{m_00(σ)} · γ^{m_11(σ)} · λ^{|σ|}`.
//!
//! * hardcore model = `(1, 0, λ)`,
//! * Ising model with edge weight `b = e^{2β'}` is `(b, b, λ)`.
//!
//! The system is **antiferromagnetic** iff `βγ < 1` — the regime of
//! Corollary 5.3's "anti-ferromagnetic 2-spin model in the uniqueness
//! regime" (Li–Lu–Yin SODA'13 provide the SSM the paper plugs in).

use lds_graph::Graph;

use crate::{Factor, GibbsModel};

/// Parameters of a two-spin system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwoSpinParams {
    /// Weight of an edge with both endpoints `0`.
    pub beta: f64,
    /// Weight of an edge with both endpoints `1`.
    pub gamma: f64,
    /// Vertex activity of value `1`.
    pub lambda: f64,
}

impl TwoSpinParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or non-finite.
    pub fn new(beta: f64, gamma: f64, lambda: f64) -> Self {
        for (name, x) in [("beta", beta), ("gamma", gamma), ("lambda", lambda)] {
            assert!(x.is_finite() && x >= 0.0, "{name} must be finite and >= 0");
        }
        TwoSpinParams {
            beta,
            gamma,
            lambda,
        }
    }

    /// The hardcore specialization `(1, 0, λ)`.
    pub fn hardcore(lambda: f64) -> Self {
        TwoSpinParams::new(1.0, 0.0, lambda)
    }

    /// Returns `true` if the system is antiferromagnetic (`βγ < 1`).
    pub fn is_antiferromagnetic(&self) -> bool {
        self.beta * self.gamma < 1.0
    }
}

/// Builds the two-spin model on `g`.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::two_spin::{self, TwoSpinParams};
/// use lds_graph::generators;
///
/// let g = generators::cycle(4);
/// let m = two_spin::model(&g, TwoSpinParams::hardcore(1.0));
/// assert_eq!(m.alphabet_size(), 2);
/// ```
pub fn model(g: &Graph, params: TwoSpinParams) -> GibbsModel {
    let mut factors = Vec::with_capacity(g.node_count() + g.edge_count());
    for v in g.nodes() {
        factors.push(Factor::unary(v, vec![1.0, params.lambda]));
    }
    for e in g.edges() {
        factors.push(Factor::binary(
            e.u,
            e.v,
            2,
            vec![params.beta, 1.0, 1.0, params.gamma],
        ));
    }
    GibbsModel::new(g.clone(), 2, factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::hardcore;
    use crate::{distribution, PartialConfig};
    use lds_graph::generators;

    #[test]
    fn hardcore_specialization_matches_hardcore_model() {
        let g = generators::cycle(5);
        let ts = model(&g, TwoSpinParams::hardcore(1.7));
        let hc = hardcore::model(&g, 1.7);
        let p = PartialConfig::empty(5);
        let z1 = distribution::partition_function(&ts, &p);
        let z2 = distribution::partition_function(&hc, &p);
        assert!((z1 - z2).abs() < 1e-10);
        for v in g.nodes() {
            let m1 = distribution::marginal(&ts, &p, v).unwrap();
            let m2 = distribution::marginal(&hc, &p, v).unwrap();
            assert!((m1[1] - m2[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn antiferromagnetic_classification() {
        assert!(TwoSpinParams::hardcore(2.0).is_antiferromagnetic());
        assert!(TwoSpinParams::new(0.5, 0.5, 1.0).is_antiferromagnetic());
        assert!(!TwoSpinParams::new(2.0, 2.0, 1.0).is_antiferromagnetic());
    }

    #[test]
    fn soft_two_spin_partition_function() {
        // single edge, β=2, γ=3, λ=1:
        // w(00)=2, w(01)=w(10)=1, w(11)=3 -> Z=7
        let g = generators::path(2);
        let m = model(&g, TwoSpinParams::new(2.0, 3.0, 1.0));
        let z = distribution::partition_function(&m, &PartialConfig::empty(2));
        assert!((z - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beta must be finite")]
    fn rejects_bad_params() {
        let _ = TwoSpinParams::new(f64::NAN, 0.0, 1.0);
    }
}
