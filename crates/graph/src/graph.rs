use std::fmt;

use crate::NodeId;

/// Identifier of an undirected edge in a [`Graph`].
///
/// Edge ids are dense indices in `0..m` in the order edges were inserted.
/// They are the vertex ids of the corresponding [line graph](crate::line).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an edge id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge, stored with `u <= v`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates a normalized edge (endpoints sorted).
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not allowed in simple graphs).
    pub(crate) fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loop {u}-{v} not allowed in a simple graph");
        if u < v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }
}

/// A simple undirected graph in CSR (compressed sparse row) form.
///
/// This is the network topology `G = (V, E)` of the LOCAL model. Adjacency
/// lists are sorted, enabling binary-search edge queries; edges carry dense
/// [`EdgeId`]s so models over edges (matchings) can address them.
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder),
/// [`Graph::from_edges`], or a generator from [`generators`](crate::generators).
///
/// # Example
///
/// ```
/// use lds_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// assert!(g.has_edge(NodeId(0), NodeId(3)));
/// assert!(!g.has_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: neighbors of node `i` live at `adj[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Flattened sorted adjacency lists.
    adj: Vec<NodeId>,
    /// For each position in `adj`, the id of the corresponding edge.
    adj_edge: Vec<EdgeId>,
    /// Edge list indexed by `EdgeId`.
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of `(u, v)` pairs.
    ///
    /// Duplicate edges are rejected.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate edges, or endpoints `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = crate::GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Internal constructor used by [`GraphBuilder`](crate::GraphBuilder).
    pub(crate) fn from_parts(n: usize, mut edge_list: Vec<Edge>) -> Self {
        edge_list.sort_unstable();
        let mut degree = vec![0u32; n];
        for e in &edge_list {
            degree[e.u.index()] += 1;
            degree[e.v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adj = vec![NodeId(0); acc as usize];
        let mut adj_edge = vec![EdgeId(0); acc as usize];
        for (i, e) in edge_list.iter().enumerate() {
            let id = EdgeId::from_index(i);
            let cu = cursor[e.u.index()] as usize;
            adj[cu] = e.v;
            adj_edge[cu] = id;
            cursor[e.u.index()] += 1;
            let cv = cursor[e.v.index()] as usize;
            adj[cv] = e.u;
            adj_edge[cv] = id;
            cursor[e.v.index()] += 1;
        }
        // Sort each adjacency list (and keep edge ids aligned).
        let mut g = Graph {
            offsets,
            adj,
            adj_edge,
            edges: edge_list,
        };
        for v in 0..n {
            let (lo, hi) = g.range(NodeId::from_index(v));
            let mut zipped: Vec<(NodeId, EdgeId)> =
                (lo..hi).map(|i| (g.adj[i], g.adj_edge[i])).collect();
            zipped.sort_unstable();
            for (k, (nb, eid)) in zipped.into_iter().enumerate() {
                g.adj[lo + k] = nb;
                g.adj_edge[lo + k] = eid;
            }
        }
        g
    }

    #[inline]
    fn range(&self, v: NodeId) -> (usize, usize) {
        (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        )
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Slice of all edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (lo, hi) = self.range(v);
        hi - lo
    }

    /// Maximum degree `Δ` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(NodeId::from_index(v)))
            .max()
            .unwrap_or(0)
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        let (lo, hi) = self.range(v);
        Neighbors {
            inner: self.adj[lo..hi].iter(),
        }
    }

    /// Neighbors of `v` together with the connecting edge ids.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let (lo, hi) = self.range(v);
        self.adj[lo..hi]
            .iter()
            .copied()
            .zip(self.adj_edge[lo..hi].iter().copied())
    }

    /// Returns `true` if `{u, v}` is an edge (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (lo, hi) = self.range(u);
        self.adj[lo..hi].binary_search(&v).is_ok()
    }

    /// Checks whether the vertex set `s` induces a triangle-free subgraph
    /// equal to the whole graph (`s = V` case used by the colorings
    /// application, Corollary 5.3).
    pub fn is_triangle_free(&self) -> bool {
        for e in &self.edges {
            // intersect sorted neighbor lists of the endpoints
            let mut a = self.neighbors(e.u).peekable();
            let mut b = self.neighbors(e.v).peekable();
            while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
                match x.cmp(y) {
                    std::cmp::Ordering::Less => {
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        b.next();
                    }
                    std::cmp::Ordering::Equal => return false,
                }
            }
        }
        true
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Iterator over the sorted neighbors of a node.
///
/// Returned by [`Graph::neighbors`].
#[derive(Clone, Debug)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, NodeId>,
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = &'a NodeId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn counts() {
        let g = square();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(Graph::from_edges(0, []).node_count(), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(0, 4), (0, 2), (0, 1), (0, 3)]);
        let nbrs: Vec<_> = g.neighbors(NodeId(0)).copied().collect();
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn edge_queries() {
        let g = square();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        let (_, e) = g
            .incident(NodeId(3))
            .find(|&(nb, _)| nb == NodeId(0))
            .unwrap();
        assert_eq!(g.edge(e), Edge::new(NodeId(0), NodeId(3)));
    }

    #[test]
    fn incident_edges_align_with_neighbors() {
        let g = square();
        for v in g.nodes() {
            for (nb, eid) in g.incident(v) {
                assert_eq!(g.edge(eid), Edge::new(v, nb));
            }
        }
    }

    #[test]
    fn edge_normalization_and_other() {
        let e = Edge::new(NodeId(5), NodeId(2));
        assert_eq!(e.u, NodeId(2));
        assert_eq!(e.v, NodeId(5));
        assert_eq!(Edge::new(NodeId(2), NodeId(5)), e);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = Edge::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn triangle_free_detection() {
        assert!(square().is_triangle_free());
        let tri = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert!(!tri.is_triangle_free());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", square());
        assert!(s.contains("Graph"));
    }
}
