//! The monomer–dimer model (weighted matchings) via line-graph duality.
//!
//! A matching of `G` is a set of pairwise non-adjacent edges; with edge
//! weight `λ` the distribution is `μ(M) ∝ λ^{|M|}`. Matchings of `G` are
//! exactly the independent sets of the line graph `L(G)`, so the model is
//! the [hardcore model](crate::models::hardcore) on `L(G)`. The paper's
//! Corollary 5.3 uses exactly this duality ("in the case of edge models
//! ... represented as such joint distributions through dualities of
//! graphs/hypergraphs, which preserve the distances") to obtain an
//! `O(√Δ log³ n)`-round exact sampler from the
//! Bayati–Gamarnik–Katz–Nair–Tetali SSM of matchings.

use lds_graph::{line::LineGraph, EdgeId, Graph, NodeId};

use crate::models::hardcore;
use crate::{Config, GibbsModel, Value};

/// A matching instance: the base graph and the hardcore model over its
/// line graph `L(G)`, one vertex per base edge.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::matching::MatchingInstance;
/// use lds_gibbs::{distribution, PartialConfig};
/// use lds_graph::generators;
///
/// let g = generators::path(3); // edges 0-1 and 1-2 share node 1
/// let inst = MatchingInstance::new(&g, 1.0);
/// // matchings: {}, {01}, {12} -> Z = 3
/// let z = distribution::partition_function(
///     inst.model(), &PartialConfig::empty(2));
/// assert!((z - 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct MatchingInstance {
    base: Graph,
    model: GibbsModel,
}

impl MatchingInstance {
    /// Builds the monomer–dimer model on `g` with uniform edge weight `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `λ` is negative or non-finite.
    pub fn new(g: &Graph, lambda: f64) -> Self {
        MatchingInstance {
            base: g.clone(),
            model: hardcore::model(LineGraph::of(g).graph(), lambda),
        }
    }

    /// The hardcore model over `L(G)` representing the matching
    /// distribution. Configurations index line-graph nodes = base edges.
    pub fn model(&self) -> &GibbsModel {
        &self.model
    }

    /// Decodes a configuration over line-graph nodes into the matched base
    /// edges.
    pub fn edges_of(&self, config: &Config) -> Vec<EdgeId> {
        (0..config.len())
            .filter(|&i| config.get(NodeId::from_index(i)) == Value(1))
            .map(EdgeId::from_index)
            .collect()
    }

    /// Returns `true` if `edges` is a matching of the base graph (no two
    /// edges share an endpoint).
    pub fn is_matching(&self, edges: &[EdgeId]) -> bool {
        let mut used = vec![false; self.base.node_count()];
        for &e in edges {
            let edge = self.base.edge(e);
            if used[edge.u.index()] || used[edge.v.index()] {
                return false;
            }
            used[edge.u.index()] = true;
            used[edge.v.index()] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribution, PartialConfig};
    use lds_graph::generators;

    #[test]
    fn matchings_of_cycle4() {
        // matchings of C4: {}, 4 single edges, 2 perfect matchings -> 7
        let g = generators::cycle(4);
        let inst = MatchingInstance::new(&g, 1.0);
        let z = distribution::partition_function(
            inst.model(),
            &PartialConfig::empty(inst.model().node_count()),
        );
        assert!((z - 7.0).abs() < 1e-12);
    }

    #[test]
    fn matching_polynomial_of_path() {
        // P3 has edges e0, e1 sharing the middle node:
        // Z(λ) = 1 + 2λ
        let g = generators::path(3);
        let inst = MatchingInstance::new(&g, 3.0);
        let z = distribution::partition_function(inst.model(), &PartialConfig::empty(2));
        assert!((z - 7.0).abs() < 1e-12);
    }

    #[test]
    fn all_feasible_configs_are_matchings() {
        let g = generators::complete(4);
        let inst = MatchingInstance::new(&g, 1.5);
        let joint = distribution::joint_distribution(
            inst.model(),
            &PartialConfig::empty(inst.model().node_count()),
        )
        .unwrap();
        for (c, p) in &joint {
            assert!(*p > 0.0);
            let edges = inst.edges_of(c);
            assert!(inst.is_matching(&edges));
        }
        // matchings of K4: 1 empty + 6 single + 3 perfect = 10
        assert_eq!(joint.len(), 10);
    }

    #[test]
    fn non_matching_is_rejected() {
        let g = generators::path(3);
        let inst = MatchingInstance::new(&g, 1.0);
        // both edges share node 1
        assert!(!inst.is_matching(&[EdgeId(0), EdgeId(1)]));
        assert!(inst.is_matching(&[EdgeId(0)]));
        assert!(inst.is_matching(&[]));
    }

    #[test]
    fn line_graph_degree_bound_respected() {
        let g = generators::random_regular(12, 4, &mut {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(2)
        });
        let inst = MatchingInstance::new(&g, 1.0);
        assert!(inst.model().graph().max_degree() <= 2 * g.max_degree() - 2);
    }
}
