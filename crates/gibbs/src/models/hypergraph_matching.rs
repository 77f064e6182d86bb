//! Weighted hypergraph matchings via the intersection-graph duality.
//!
//! A matching of a hypergraph `H` is a set of pairwise disjoint
//! hyperedges; with weight `λ` per hyperedge, `μ(M) ∝ λ^{|M|}`. Matchings
//! of `H` are independent sets of its intersection graph, so the model is
//! again the hardcore model on a derived graph. Corollary 5.3 samples
//! these in `O(log³ n)` rounds below the uniqueness threshold
//! `λ_c(r, Δ) = (Δ−1)^{Δ−1} / ((r−1)(Δ−2)^Δ)` (Song–Yin–Zhao RANDOM'16).

use lds_graph::{Graph, HyperEdgeId, Hypergraph, NodeId};

use crate::models::hardcore;
use crate::{Config, GibbsModel, Value};

/// A hypergraph-matching instance: the hypergraph, its intersection graph,
/// and the hardcore model over intersection-graph vertices (one per
/// hyperedge).
///
/// # Example
///
/// ```
/// use lds_gibbs::models::hypergraph_matching::HypergraphMatchingInstance;
/// use lds_gibbs::{distribution, PartialConfig};
/// use lds_graph::{Hypergraph, NodeId};
///
/// let h = Hypergraph::new(4, vec![
///     vec![NodeId(0), NodeId(1), NodeId(2)],
///     vec![NodeId(2), NodeId(3)],
/// ]);
/// let inst = HypergraphMatchingInstance::new(&h, 1.0);
/// // matchings: {}, {h0}, {h1} (h0 and h1 intersect) -> Z = 3
/// let z = distribution::partition_function(
///     inst.model(), &PartialConfig::empty(2));
/// assert!((z - 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct HypergraphMatchingInstance {
    hypergraph: Hypergraph,
    intersection: Graph,
    model: GibbsModel,
}

impl HypergraphMatchingInstance {
    /// Builds the weighted hypergraph-matching model with uniform
    /// hyperedge weight `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `λ` is negative or non-finite.
    pub fn new(h: &Hypergraph, lambda: f64) -> Self {
        let intersection = h.intersection_graph();
        let model = hardcore::model(&intersection, lambda);
        HypergraphMatchingInstance {
            hypergraph: h.clone(),
            intersection,
            model,
        }
    }

    /// The intersection graph; node `i` is hyperedge `HyperEdgeId(i)`.
    pub fn intersection_graph(&self) -> &Graph {
        &self.intersection
    }

    /// The hardcore model over the intersection graph.
    pub fn model(&self) -> &GibbsModel {
        &self.model
    }

    /// The model, without the hypergraph and its intersection graph.
    pub fn into_model(self) -> GibbsModel {
        self.model
    }

    /// Decodes a configuration into the matched hyperedges:
    /// intersection-graph node `i` is hyperedge `i`, so the configuration
    /// alone decides.
    pub fn hyperedges_of(config: &Config) -> Vec<HyperEdgeId> {
        (0..config.len())
            .filter(|&i| config.get(NodeId::from_index(i)) == Value(1))
            .map(HyperEdgeId::from_index)
            .collect()
    }

    /// Returns `true` if `edges` are pairwise disjoint hyperedges.
    pub fn is_matching(&self, edges: &[HyperEdgeId]) -> bool {
        let mut used = vec![false; self.hypergraph.node_count()];
        for &e in edges {
            for &v in self.hypergraph.edge(e) {
                if used[v.index()] {
                    return false;
                }
                used[v.index()] = true;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribution, PartialConfig};

    fn triangle_hypergraph() -> Hypergraph {
        // three 2-element hyperedges forming a "path": h0={0,1}, h1={1,2}, h2={2,3}
        Hypergraph::new(
            4,
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(3)],
            ],
        )
    }

    #[test]
    fn matches_graph_matchings_when_rank_two() {
        // rank-2 hypergraph matchings == graph matchings of P4: Z = 1+3λ+λ²
        let inst = HypergraphMatchingInstance::new(&triangle_hypergraph(), 2.0);
        let z = distribution::partition_function(inst.model(), &PartialConfig::empty(3));
        assert!((z - (1.0 + 6.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn feasible_configs_are_matchings() {
        let h = Hypergraph::new(
            5,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(3), NodeId(4)],
                vec![NodeId(0), NodeId(4)],
            ],
        );
        let inst = HypergraphMatchingInstance::new(&h, 1.0);
        let joint =
            distribution::joint_distribution(inst.model(), &PartialConfig::empty(3)).unwrap();
        for (c, _) in &joint {
            let edges = HypergraphMatchingInstance::hyperedges_of(c);
            assert!(inst.is_matching(&edges));
        }
        // {}, {h0}, {h1}, {h2}, {h0 with h1}? no (share 2). {h0,h2}? share 0. {h1,h2}? share 4.
        assert_eq!(joint.len(), 4);
    }

    #[test]
    fn disjointness_check() {
        let inst = HypergraphMatchingInstance::new(&triangle_hypergraph(), 1.0);
        assert!(inst.is_matching(&[HyperEdgeId(0), HyperEdgeId(2)]));
        assert!(!inst.is_matching(&[HyperEdgeId(0), HyperEdgeId(1)]));
    }
}
