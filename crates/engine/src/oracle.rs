//! Unified oracle dispatch: one object-safe interface over both oracle
//! guarantees.
//!
//! The paper's algorithms consume two different oracle contracts:
//! additive (total-variation) inference for the Theorem 3.2 sampler, and
//! multiplicative inference for local-JVV (Theorem 4.2) and chain-rule
//! counting. Rather than wiring a concrete oracle type into every call
//! site (as the pre-facade per-model free functions did), the engine
//! erases the choice behind the object-safe [`TaskOracle`] trait, picked once
//! at build time (SAW tree for two-spin-shaped models, boosted
//! enumeration for colorings) and shared by every task.

use lds_gibbs::{GibbsModel, PartialConfig};
use lds_graph::NodeId;
use lds_oracle::{
    BoostedOracle, DecayRate, EnumerationOracle, InferenceOracle, MultiplicativeInference,
};

/// Object-safe union of the additive and multiplicative oracle
/// interfaces. The engine stores one `Arc<dyn TaskOracle>` and passes it
/// straight to the generic algorithms in `lds_core` (`sampler::sample_local`,
/// `jvv::sample_exact_local`, `counting::log_partition_function`):
/// `lds-oracle` implements both oracle traits for `Arc<T>`, so the
/// shared handle is itself an oracle: the algorithms borrow it, and the
/// chain-rule sampler, which owns its oracle, holds a clone of it.
pub trait TaskOracle: InferenceOracle + MultiplicativeInference + Send + Sync {}

impl<O: InferenceOracle + MultiplicativeInference + Send + Sync> TaskOracle for O {}

/// The coloring oracle: plain enumeration (Theorem 5.1) for additive
/// queries, the boosted wrapper (Lemma 4.1) for multiplicative ones —
/// packaged as one type so it fits behind [`TaskOracle`].
#[derive(Clone, Debug)]
pub struct BoostedEnumeration {
    additive: EnumerationOracle,
    multiplicative: BoostedOracle<EnumerationOracle>,
}

impl BoostedEnumeration {
    /// Builds both halves from one decay rate.
    pub fn new(rate: DecayRate) -> Self {
        BoostedEnumeration {
            additive: EnumerationOracle::new(rate),
            multiplicative: BoostedOracle::new(EnumerationOracle::new(rate)),
        }
    }
}

impl InferenceOracle for BoostedEnumeration {
    fn name(&self) -> &str {
        "boosted-enumeration"
    }

    fn radius(&self, n: usize, delta: f64) -> usize {
        self.additive.radius(n, delta)
    }

    fn marginal(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> Vec<f64> {
        self.additive.marginal(model, pinning, v, t)
    }
}

impl MultiplicativeInference for BoostedEnumeration {
    fn name(&self) -> &str {
        "boosted-enumeration"
    }

    fn radius_mul(&self, model: &GibbsModel, eps: f64) -> usize {
        self.multiplicative.radius_mul(model, eps)
    }

    fn marginal_mul(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        eps: f64,
    ) -> Vec<f64> {
        self.multiplicative.marginal_mul(model, pinning, v, eps)
    }
}
