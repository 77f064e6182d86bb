//! The Ising model.
//!
//! `w(σ) = exp(β · #{agreeing edges} − β · #{disagreeing edges})
//!        · exp(h · (#plus − #minus))`
//! over `{0, 1}`-configurations (0 = minus, 1 = plus). Equivalently a
//! [two-spin system](crate::models::two_spin) with
//! `β_edge = γ_edge = e^{2β}` after normalizing edge weights, and vertex
//! activity `λ = e^{2h}`.
//!
//! Antiferromagnetic for `β < 0`; on max-degree-`Δ` graphs the
//! antiferromagnetic Ising model is in the uniqueness regime iff
//! `e^{2|β|} < Δ/(Δ−2)` (the threshold used by experiment E6d).

use lds_graph::Graph;

use crate::models::two_spin::{self, TwoSpinParams};
use crate::GibbsModel;

/// Parameters of the Ising model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IsingParams {
    /// Inverse-temperature coupling; negative = antiferromagnetic.
    pub beta: f64,
    /// External field; positive favors value `1`.
    pub field: f64,
}

impl IsingParams {
    /// Creates Ising parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-finite.
    pub fn new(beta: f64, field: f64) -> Self {
        assert!(
            beta.is_finite() && field.is_finite(),
            "parameters must be finite"
        );
        IsingParams { beta, field }
    }

    /// The equivalent two-spin parameters `(e^{2β}, e^{2β}, e^{2h})`
    /// (edge weights normalized so disagreeing edges weigh 1).
    pub fn to_two_spin(self) -> TwoSpinParams {
        let b = (2.0 * self.beta).exp();
        TwoSpinParams::new(b, b, (2.0 * self.field).exp())
    }
}

/// Builds the Ising model on `g` via its two-spin representation.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::ising::{self, IsingParams};
/// use lds_graph::generators;
///
/// let g = generators::torus(3, 3);
/// let m = ising::model(&g, IsingParams::new(-0.2, 0.0));
/// assert_eq!(m.alphabet_size(), 2);
/// ```
pub fn model(g: &Graph, params: IsingParams) -> GibbsModel {
    two_spin::model(g, params.to_two_spin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribution, PartialConfig};
    use lds_graph::{generators, NodeId};

    #[test]
    fn zero_coupling_is_product_measure() {
        let g = generators::cycle(4);
        let m = model(&g, IsingParams::new(0.0, 0.0));
        let p = PartialConfig::empty(4);
        let mu = distribution::marginal(&m, &p, NodeId(0)).unwrap();
        assert!((mu[0] - 0.5).abs() < 1e-12);
        // conditioning changes nothing
        let mut tau = p.clone();
        tau.pin(NodeId(2), crate::Value(1));
        let mu_c = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        assert!((mu_c[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ferromagnetic_coupling_aligns_neighbors() {
        let g = generators::path(2);
        let m = model(&g, IsingParams::new(0.5, 0.0));
        let mut tau = PartialConfig::empty(2);
        tau.pin(NodeId(0), crate::Value(1));
        let mu = distribution::marginal(&m, &tau, NodeId(1)).unwrap();
        assert!(mu[1] > 0.5);
    }

    #[test]
    fn antiferromagnetic_coupling_repels_neighbors() {
        let g = generators::path(2);
        let m = model(&g, IsingParams::new(-0.5, 0.0));
        let mut tau = PartialConfig::empty(2);
        tau.pin(NodeId(0), crate::Value(1));
        let mu = distribution::marginal(&m, &tau, NodeId(1)).unwrap();
        assert!(mu[1] < 0.5);
    }

    #[test]
    fn field_biases_marginal() {
        let g = generators::path(2);
        let m = model(&g, IsingParams::new(0.0, 0.3));
        let mu = distribution::marginal(&m, &PartialConfig::empty(2), NodeId(0)).unwrap();
        assert!(mu[1] > 0.5);
    }
}
