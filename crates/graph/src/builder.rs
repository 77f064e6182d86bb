use std::collections::HashSet;

use crate::{Edge, Graph, NodeId};

/// Incremental builder for [`Graph`].
///
/// Rejects self-loops and duplicate edges, which keeps every constructed
/// graph simple — the standing assumption of the LOCAL model.
///
/// # Example
///
/// ```
/// use lds_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    seen: HashSet<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`, if either endpoint is out of range, or if the
    /// edge was already added.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge {u}-{v} out of range for n={}",
            self.n
        );
        let e = Edge::new(u, v);
        assert!(self.seen.insert(e), "duplicate edge {u}-{v}");
        self.edges.push(e);
        self
    }

    /// Adds the edge `{u, v}` if not already present; returns whether it was
    /// inserted.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or if either endpoint is out of range.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge {u}-{v} out of range for n={}",
            self.n
        );
        let e = Edge::new(u, v);
        if self.seen.insert(e) {
            self.edges.push(e);
            true
        } else {
            false
        }
    }

    /// Finalizes the builder into a [`Graph`].
    pub fn build(self) -> Graph {
        Graph::from_parts(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1))
            .add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2));
    }

    #[test]
    fn try_add_is_idempotent() {
        let mut b = GraphBuilder::new(3);
        assert!(b.try_add_edge(NodeId(0), NodeId(1)));
        assert!(!b.try_add_edge(NodeId(1), NodeId(0)));
        assert_eq!(b.build().edge_count(), 1);
    }
}
