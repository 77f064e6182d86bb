//! The enumeration oracle — the literal local computation of Theorem 5.1.
//!
//! For a locally admissible, local Gibbs distribution with strong spatial
//! mixing rate `δ_n(·)`, the paper's inference algorithm at node `v` with
//! radius budget `t`:
//!
//! 1. gathers `B_{t+2ℓ}(v)` (we gather `B_{t+ℓ}` plus the factors needed
//!    to check feasibility, which [`lds_gibbs::GibbsModel::restrict_to`]
//!    provides),
//! 2. extends the pinning `τ` to a locally feasible `τ'` on `Λ ∪ Γ`
//!    where `Γ = B_{t+ℓ}(v) \ (B_t(v) ∪ Λ)` is the frontier ring — for
//!    locally admissible models a greedy scan always succeeds,
//! 3. returns the exact conditional marginal `μ_v^{τ'}` computed under
//!    the ball weight `w_B(σ) = ∏_{(f,S): S ⊆ B} f(σ_S)`; by conditional
//!    independence (Proposition 2.1) this equals the true marginal of the
//!    ball-conditioned distribution, and by SSM it is `δ_n(t)`-close to
//!    `μ_v^τ`.
//!
//! Cost: exponential in `|B_t(v)|` — the price of instantiating the
//! paper's "unbounded local computation" exactly. Use
//! [`crate::TwoSpinSawOracle`] for polynomial-time two-spin inference.

use lds_gibbs::{distribution, GibbsModel, PartialConfig, Value};
use lds_graph::{traversal, NodeId};

use crate::{boosting, DecayRate, Oracle, Target};

/// Exact-within-ball inference via enumeration (Theorem 5.1's algorithm).
#[derive(Clone, Debug)]
pub struct EnumerationOracle {
    rate: DecayRate,
}

impl EnumerationOracle {
    /// Creates the oracle with the decay rate used for radius planning.
    pub fn new(rate: DecayRate) -> Self {
        EnumerationOracle { rate }
    }

    /// The marginal computed within the ball, plus the pinning `τ'`
    /// actually used on the frontier (exposed for tests).
    pub fn marginal_with_frontier(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        t: usize,
    ) -> (Vec<f64>, PartialConfig) {
        let q = model.alphabet_size();
        if let Some(val) = pinning.get(v) {
            let mut point = vec![0.0; q];
            point[val.index()] = 1.0;
            return (point, pinning.clone());
        }
        let g = model.graph();
        let ell = model.locality().max(1);
        let members = traversal::ball(g, v, t + ell);
        let (ball_model, sub) = model.restrict_to(&members);
        let mut local_pin = GibbsModel::localize_pinning(&sub, pinning);
        let lv = sub.to_local(v).expect("center in ball");

        // Γ = nodes at distance in (t, t+ℓ] from v, not already pinned.
        let dist = traversal::bfs_distances(g, v);
        let mut frontier: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&u| {
                let d = dist[u.index()] as usize;
                d > t && !pinning.is_pinned(u)
            })
            .collect();
        frontier.sort_unstable(); // increasing global id, as in the paper

        // Greedily extend the pinning over Γ, keeping the *ball model*
        // locally feasible (locally admissible ⇒ always possible).
        for u in frontier {
            let lu = sub.to_local(u).expect("frontier in ball");
            let mut placed = false;
            for c in (0..q).map(Value::from_index) {
                let candidate = local_pin.with_pin(lu, c);
                if ball_model.is_locally_feasible(&candidate) {
                    local_pin = candidate;
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Non-admissible corner: leave the node free; the
                // enumeration below then averages over it, which is
                // still a valid local estimate.
                continue;
            }
        }

        let marginal = distribution::marginal(&ball_model, &local_pin, lv)
            .unwrap_or_else(|| vec![1.0 / q as f64; q]);
        (marginal, local_pin)
    }
}

/// `Tv(δ)` is Theorem 5.1's algorithm at the planned radius
/// `t = min{t : c·αᵗ ≤ δ}`. `Mul(ε)` and `Support(ε)` boost those answers
/// through Lemma 4.1 ([`crate::boosting`]), so this one oracle serves
/// every target on colorings.
///
/// Both views reach `ℓ` past the radius they declare: a `Tv` query at
/// radius `t` gathers `B_{t+ℓ}(v)` for its frontier ring, and a boosted
/// answer at inner radius `t'` reads pins in `B_{2t'+2ℓ}(v)` against the
/// declared `2t' + ℓ`, because the base query at each frontier node
/// gathers a frontier ring of its own.
impl Oracle for EnumerationOracle {
    fn name(&self) -> &str {
        "enumeration"
    }

    fn radius(&self, model: &GibbsModel, target: Target) -> usize {
        match target {
            Target::Tv(delta) => self.rate.radius_for(delta),
            Target::Mul(eps) | Target::Support(eps) => boosting::boosted_radius(self, model, eps),
        }
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64> {
        match target {
            Target::Tv(delta) => {
                let t = self.rate.radius_for(delta);
                self.marginal_with_frontier(model, pinning, v, t).0
            }
            Target::Mul(eps) | Target::Support(eps) => {
                boosting::boost(self, model, pinning, v, eps).0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::metrics;
    use lds_gibbs::models::{coloring, hardcore};
    use lds_graph::generators;

    fn oracle() -> EnumerationOracle {
        EnumerationOracle::new(DecayRate::new(0.5, 2.0))
    }

    #[test]
    fn exact_when_ball_covers_graph() {
        let g = generators::cycle(7);
        let m = hardcore::model(&g, 1.3);
        let tau = PartialConfig::empty(7);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        // radius 7 covers the cycle: frontier ring is empty
        let est = oracle().marginal_with_frontier(&m, &tau, NodeId(0), 7).0;
        assert!(metrics::tv_distance(&exact, &est) < 1e-12);
    }

    #[test]
    fn error_decays_with_radius() {
        let g = generators::cycle(16);
        let m = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(16);
        let exact = distribution::marginal(&m, &tau, NodeId(0)).unwrap();
        let mut last = f64::INFINITY;
        for t in [1usize, 3, 5] {
            let est = oracle().marginal_with_frontier(&m, &tau, NodeId(0), t).0;
            let err = metrics::tv_distance(&exact, &est);
            assert!(err <= last + 1e-12, "error grew at t={t}");
            last = err;
        }
        assert!(last < 0.01, "radius-5 error too large: {last}");
    }

    #[test]
    fn respects_pinning() {
        let g = generators::path(5);
        let m = hardcore::model(&g, 2.0);
        let mut tau = PartialConfig::empty(5);
        tau.pin(NodeId(1), Value(1));
        // node 2 neighbors an occupied node: must be empty
        let est = oracle().marginal_with_frontier(&m, &tau, NodeId(2), 2).0;
        assert!(est[1] < 1e-12);
        // pinned node returns its point mass
        let pinned = oracle().marginal_with_frontier(&m, &tau, NodeId(1), 2).0;
        assert_eq!(pinned, vec![0.0, 1.0]);
    }

    #[test]
    fn colorings_frontier_extension_is_proper() {
        let g = generators::cycle(9);
        let m = coloring::model(&g, 3);
        let tau = PartialConfig::empty(9);
        let (est, frontier) = oracle().marginal_with_frontier(&m, &tau, NodeId(0), 2);
        let total: f64 = est.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // the frontier pinning never violates a constraint
        assert!(frontier.pinned_count() > 0);
    }

    #[test]
    fn radius_planning_uses_decay() {
        let o = oracle();
        let m = hardcore::model(&generators::cycle(100), 1.0);
        let radius = |delta| o.radius(&m, Target::Tv(delta));
        assert_eq!(radius(0.125), 4); // 2 * 0.5^4 = 0.125
        assert!(radius(1e-6) > radius(1e-2));
    }
}
