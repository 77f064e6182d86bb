use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, NodeId};

/// Identifier of a hyperedge in a [`Hypergraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HyperEdgeId(pub u32);

impl HyperEdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a hyperedge id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        HyperEdgeId(u32::try_from(index).expect("hyperedge index exceeds u32::MAX"))
    }
}

impl fmt::Debug for HyperEdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A hypergraph `H = (V, F)` with vertex set `0..n` and a list of
/// hyperedges (vertex subsets).
///
/// Used for two purposes in this workspace:
///
/// * the *constraint hypergraph* of a Gibbs distribution (Prop. 2.1 of the
///   paper: conditional independence is separation in this hypergraph), and
/// * weighted **hypergraph matchings** (Corollary 5.3): matchings of `H`
///   are independent sets of its [intersection graph](Hypergraph::intersection_graph).
///
/// # Example
///
/// ```
/// use lds_graph::{Hypergraph, NodeId};
///
/// let h = Hypergraph::new(4, vec![vec![NodeId(0), NodeId(1), NodeId(2)],
///                                 vec![NodeId(2), NodeId(3)]]);
/// assert_eq!(h.rank(), 3);
/// let ig = h.intersection_graph();
/// assert_eq!(ig.edge_count(), 1); // the two hyperedges share vertex 2
/// ```
#[derive(Clone, Debug)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<Vec<NodeId>>,
}

impl Hypergraph {
    /// Creates a hypergraph on `n` vertices with the given hyperedges.
    /// Vertex lists are sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any hyperedge is empty or mentions a vertex `>= n`.
    pub fn new(n: usize, edges: Vec<Vec<NodeId>>) -> Self {
        let mut norm = Vec::with_capacity(edges.len());
        for mut e in edges {
            assert!(!e.is_empty(), "empty hyperedge");
            e.sort_unstable();
            e.dedup();
            assert!(
                e.iter().all(|v| v.index() < n),
                "hyperedge vertex out of range"
            );
            norm.push(e);
        }
        Hypergraph { n, edges: norm }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of hyperedges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The vertex set of hyperedge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    pub fn edge(&self, e: HyperEdgeId) -> &[NodeId] {
        &self.edges[e.index()]
    }

    /// All hyperedges.
    pub fn edges(&self) -> impl Iterator<Item = (HyperEdgeId, &[NodeId])> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (HyperEdgeId::from_index(i), e.as_slice()))
    }

    /// Maximum hyperedge size (the *rank* `r`).
    pub fn rank(&self) -> usize {
        self.edges.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Maximum vertex degree `Δ` (number of hyperedges containing a vertex).
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            for v in e {
                deg[v.index()] += 1;
            }
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Intersection graph ("line graph" of the hypergraph): one node per
    /// hyperedge, adjacent iff the hyperedges share a vertex. Matchings of
    /// the hypergraph are independent sets of this graph.
    pub fn intersection_graph(&self) -> Graph {
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (i, e) in self.edges.iter().enumerate() {
            for v in e {
                touching[v.index()].push(i);
            }
        }
        let mut b = GraphBuilder::new(self.edges.len());
        for list in &touching {
            for i in 0..list.len() {
                for j in (i + 1)..list.len() {
                    b.try_add_edge(NodeId::from_index(list[i]), NodeId::from_index(list[j]));
                }
            }
        }
        b.build()
    }

    /// Random `r`-uniform hypergraph: `m` hyperedges, each a uniformly
    /// random `r`-subset of the vertices (duplicates between hyperedges
    /// allowed, as in the standard model). Experiment E6e samples
    /// Corollary 5.3's weighted hypergraph matchings on these.
    ///
    /// # Panics
    ///
    /// Panics if `r > n` or `r == 0`.
    pub fn random_uniform<R: Rng + ?Sized>(n: usize, m: usize, r: usize, rng: &mut R) -> Self {
        assert!(r > 0 && r <= n, "need 0 < r <= n");
        let all: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let mut pick = all.clone();
            pick.shuffle(rng);
            pick.truncate(r);
            edges.push(pick);
        }
        Hypergraph::new(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h() -> Hypergraph {
        Hypergraph::new(
            5,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(3)],
                vec![NodeId(4)],
            ],
        )
    }

    #[test]
    fn basic_stats() {
        let h = h();
        assert_eq!(h.node_count(), 5);
        assert_eq!(h.edge_count(), 3);
        assert_eq!(h.rank(), 3);
        assert_eq!(h.max_degree(), 2); // vertex 2
    }

    #[test]
    fn intersection_graph_edges() {
        let ig = h().intersection_graph();
        assert_eq!(ig.node_count(), 3);
        assert_eq!(ig.edge_count(), 1);
        assert!(ig.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn normalizes_hyperedges() {
        let h = Hypergraph::new(3, vec![vec![NodeId(2), NodeId(0), NodeId(2)]]);
        assert_eq!(h.edge(HyperEdgeId(0)), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    fn random_uniform_has_right_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = Hypergraph::random_uniform(10, 7, 3, &mut rng);
        assert_eq!(h.edge_count(), 7);
        assert!(h.edges().all(|(_, e)| e.len() == 3));
        assert_eq!(h.rank(), 3);
    }

    #[test]
    #[should_panic(expected = "empty hyperedge")]
    fn rejects_empty_hyperedge() {
        let _ = Hypergraph::new(2, vec![vec![]]);
    }
}
