//! Line graphs.
//!
//! The line graph `L(G)` has one node per edge of `G`; two nodes of `L(G)`
//! are adjacent iff the corresponding edges of `G` share an endpoint.
//!
//! Matchings of `G` are exactly independent sets of `L(G)`, so the
//! monomer–dimer model (weighted matchings) is the hardcore model on
//! `L(G)` — the edge-model duality the paper invokes for Corollary 5.3
//! ("in the case of edge models ... can be represented as such joint
//! distributions through dualities of graphs/hypergraphs, which preserve
//! the distances").

use crate::{EdgeId, Graph, GraphBuilder, NodeId};

/// A line graph together with the mapping between its nodes and the base
/// graph's edges.
///
/// # Example
///
/// ```
/// use lds_graph::{generators, line::LineGraph};
///
/// let g = generators::path(4); // edges 0-1, 1-2, 2-3
/// let lg = LineGraph::of(&g);
/// assert_eq!(lg.graph().node_count(), 3);
/// assert_eq!(lg.graph().edge_count(), 2); // consecutive edges share a node
/// ```
#[derive(Clone, Debug)]
pub struct LineGraph {
    graph: Graph,
}

impl LineGraph {
    /// Builds the line graph of `g`.
    ///
    /// Node `i` of the line graph corresponds to `EdgeId(i)` of `g`. If `g`
    /// has maximum degree `Δ`, the line graph has maximum degree `≤ 2Δ−2`.
    pub fn of(g: &Graph) -> Self {
        let m = g.edge_count();
        let mut b = GraphBuilder::new(m);
        for v in g.nodes() {
            let inc: Vec<EdgeId> = g.incident(v).map(|(_, e)| e).collect();
            for i in 0..inc.len() {
                for j in (i + 1)..inc.len() {
                    let (a, bb) = (inc[i], inc[j]);
                    b.try_add_edge(
                        NodeId::from_index(a.index()),
                        NodeId::from_index(bb.index()),
                    );
                }
            }
        }
        LineGraph { graph: b.build() }
    }

    /// The line graph itself; node `i` corresponds to edge `EdgeId(i)` of
    /// the base graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = generators::complete(3);
        let lg = LineGraph::of(&g);
        assert_eq!(lg.graph().node_count(), 3);
        assert_eq!(lg.graph().edge_count(), 3);
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let g = generators::star(5); // 4 edges all sharing the center
        let lg = LineGraph::of(&g);
        assert_eq!(lg.graph().node_count(), 4);
        assert_eq!(lg.graph().edge_count(), 6); // K_4
    }

    #[test]
    fn line_graph_degree_bound() {
        let g = generators::torus(4, 4); // Δ = 4
        let lg = LineGraph::of(&g);
        assert!(lg.graph().max_degree() <= 2 * g.max_degree() - 2);
    }

    #[test]
    fn adjacency_means_shared_endpoint() {
        let g = generators::grid(3, 3);
        let lg = LineGraph::of(&g);
        for le in lg.graph().edges() {
            let e1 = g.edge(EdgeId::from_index(le.u.index()));
            let e2 = g.edge(EdgeId::from_index(le.v.index()));
            let shared = [e1.u, e1.v].iter().any(|&w| w == e2.u || w == e2.v);
            assert!(shared, "{e1:?} and {e2:?} adjacent in L(G) but disjoint");
        }
    }
}
