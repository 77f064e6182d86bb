use std::fmt;

use lds_gibbs::{GibbsModel, PartialConfig};

/// Error returned when constructing an [`Instance`] whose pinning is not
/// even locally feasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasiblePinning;

impl fmt::Display for InfeasiblePinning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pinning violates a fully pinned constraint")
    }
}

impl std::error::Error for InfeasiblePinning {}

/// A distributed sampling/counting instance `(G, x, τ)` (paper,
/// Definition 2.2): a joint distribution `μ = μ_{(G,x)}` given as a
/// [`GibbsModel`], together with a feasible pinning `τ ∈ Σ^Λ`. The target
/// distribution is the conditional `μ^τ`.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::hardcore;
/// use lds_gibbs::{PartialConfig, Value};
/// use lds_graph::{generators, NodeId};
/// use lds_localnet::Instance;
///
/// let g = generators::path(3);
/// let mut tau = PartialConfig::empty(3);
/// tau.pin(NodeId(0), Value(1));
/// let inst = Instance::new(hardcore::model(&g, 1.0), tau).unwrap();
/// assert_eq!(inst.pinning().pinned_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Instance {
    model: GibbsModel,
    pinning: PartialConfig,
}

impl Instance {
    /// Creates an instance, verifying the pinning is locally feasible.
    ///
    /// Full (global) feasibility is exponential to verify; the paper
    /// assumes instances come with feasible `τ`. For locally admissible
    /// models (Definition 2.5) local feasibility *is* feasibility, which
    /// covers every model family shipped in [`lds_gibbs::models`] under
    /// their standard parameter regimes.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasiblePinning`] if a fully pinned factor evaluates to
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the pinning length differs from the model's node count.
    pub fn new(model: GibbsModel, pinning: PartialConfig) -> Result<Self, InfeasiblePinning> {
        assert_eq!(
            pinning.len(),
            model.node_count(),
            "pinning must cover the node set"
        );
        if !model.is_locally_feasible(&pinning) {
            return Err(InfeasiblePinning);
        }
        Ok(Instance { model, pinning })
    }

    /// Creates an instance with the empty pinning (always feasible).
    pub fn unconditioned(model: GibbsModel) -> Self {
        let n = model.node_count();
        Instance {
            model,
            pinning: PartialConfig::empty(n),
        }
    }

    /// The joint distribution `μ_{(G,x)}`.
    pub fn model(&self) -> &GibbsModel {
        &self.model
    }

    /// The pinning `τ`.
    pub fn pinning(&self) -> &PartialConfig {
        &self.pinning
    }

    /// Number of network nodes `n`.
    pub fn node_count(&self) -> usize {
        self.model.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::Value;
    use lds_graph::{generators, NodeId};

    #[test]
    fn accepts_feasible_pinning() {
        let g = generators::path(3);
        let mut tau = PartialConfig::empty(3);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(2), Value(1));
        assert!(Instance::new(hardcore::model(&g, 1.0), tau).is_ok());
    }

    #[test]
    fn rejects_locally_infeasible_pinning() {
        let g = generators::path(2);
        let mut tau = PartialConfig::empty(2);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(1), Value(1));
        let err = Instance::new(hardcore::model(&g, 1.0), tau).unwrap_err();
        assert_eq!(err, InfeasiblePinning);
        assert!(err.to_string().contains("constraint"));
    }
}
