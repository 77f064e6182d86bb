//! Approximate inference as a LOCAL algorithm.
//!
//! The *approximate inference* problem (paper, Section 2): given an
//! instance `(G, x, τ)` and error `δ`, every node `v` outputs an estimate
//! `μ̂_v` with `d_TV(μ̂_v, μ^τ_v) ≤ δ`.
//!
//! [`LocalInference`] wraps any [`Oracle`] as a LOCAL algorithm: each node
//! gathers the view of the oracle's radius at [`Target::Tv`]`(δ)` and runs
//! the oracle *inside the view* (restricted model, restricted pinning), so
//! locality is enforced by construction.
//!
//! Proposition 3.3 (inference algorithms can be assumed deterministic and
//! failure-free) is realized structurally: both shipped oracles are
//! deterministic functions of the view and never fail, so the failure
//! bits are always 0.

use lds_gibbs::GibbsModel;
use lds_localnet::local::{LocalAlgorithm, NodeOutcome};
use lds_localnet::View;
use lds_oracle::{Oracle, Target};

/// The approximate-inference LOCAL algorithm built from an oracle.
///
/// Output at each node: the estimated marginal distribution `μ̂_v` as a
/// length-`q` probability vector.
#[derive(Clone, Debug)]
pub struct LocalInference<'a, O: ?Sized> {
    oracle: &'a O,
    delta: f64,
}

impl<'a, O: Oracle + ?Sized> LocalInference<'a, O> {
    /// Creates the algorithm for total-variation error `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `δ ≤ 0`.
    pub fn new(oracle: &'a O, delta: f64) -> Self {
        assert!(delta > 0.0, "error target must be positive");
        LocalInference { oracle, delta }
    }
}

impl<O: Oracle + ?Sized> LocalAlgorithm for LocalInference<'_, O> {
    type Output = Vec<f64>;

    fn radius(&self, model: &GibbsModel) -> usize {
        // the oracle peeks one locality-width past its radius for the
        // frontier ring; the +ℓ is folded into the oracle's own gather,
        // so the LOCAL radius is t + ℓ with ℓ = O(1). We charge t + 1
        // for the pairwise models shipped here.
        self.oracle.radius(model, Target::Tv(self.delta)) + 1
    }

    fn run_at(&self, view: &View) -> NodeOutcome<Vec<f64>> {
        let marginal = self.oracle.query(
            view.model(),
            view.pinning(),
            view.center_local(),
            Target::Tv(self.delta),
        );
        NodeOutcome::ok(marginal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::models::two_spin::TwoSpinParams;
    use lds_gibbs::{distribution, metrics, PartialConfig};
    use lds_graph::{generators, NodeId};
    use lds_localnet::local::run_local;
    use lds_localnet::{Instance, Network};
    use lds_oracle::{DecayRate, EnumerationOracle, TwoSpinSawOracle};

    #[test]
    fn all_nodes_receive_marginals_within_delta() {
        let g = generators::cycle(10);
        let m = hardcore::model(&g, 1.0);
        let inst = Instance::unconditioned(m.clone());
        let net = Network::new(inst, 1);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let algo = LocalInference::new(&oracle, 0.05);
        let run = run_local(&net, &algo);
        assert!(run.succeeded());
        let tau = PartialConfig::empty(10);
        for v in g.nodes() {
            let exact = distribution::marginal(&m, &tau, v).unwrap();
            let err = metrics::tv_distance(&exact, &run.outputs[v.index()]);
            assert!(err <= 0.05, "node {v}: err {err}");
        }
    }

    #[test]
    fn view_restriction_matches_global_oracle() {
        // running the oracle inside the view equals running it globally:
        // the oracle only reads the ball either way.
        let g = generators::torus(4, 4);
        let m = hardcore::model(&g, 0.8);
        let net = Network::new(Instance::unconditioned(m.clone()), 3);
        let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        let algo = LocalInference::new(&oracle, 0.25);
        let run = run_local(&net, &algo);
        let tau = PartialConfig::empty(16);
        for v in [NodeId(0), NodeId(5), NodeId(10)] {
            let global = oracle.query(&m, &tau, v, Target::Tv(0.25));
            let local = &run.outputs[v.index()];
            assert!(
                metrics::tv_distance(&global, local) < 1e-9,
                "node {v}: view-restricted oracle diverged"
            );
        }
    }

    #[test]
    fn deterministic_and_failure_free() {
        // Proposition 3.3: inference needs no randomness and no failures.
        let g = generators::cycle(8);
        let net = Network::new(Instance::unconditioned(hardcore::model(&g, 1.2)), 9);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.2), DecayRate::new(0.5, 2.0));
        let algo = LocalInference::new(&oracle, 0.1);
        let a = run_local(&net, &algo);
        let b = run_local(&net, &algo);
        assert!(a.succeeded() && b.succeeded());
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_delta() {
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let _ = LocalInference::new(&oracle, 0.0);
    }
}
