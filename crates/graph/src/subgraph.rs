use std::collections::HashMap;

use crate::{Graph, GraphBuilder, NodeId};

/// An induced subgraph together with the mapping between local and parent
/// node ids.
///
/// This is the primitive behind *view extraction* in the LOCAL simulator: a
/// node's radius-`t` view is the subgraph induced by `B_t(v)`, relabeled to
/// local ids, with the mapping retained so outputs can be translated back.
///
/// # Example
///
/// ```
/// use lds_graph::{generators, traversal, NodeId, Subgraph};
///
/// let g = generators::cycle(8);
/// let members = traversal::ball(&g, NodeId(0), 2);
/// let sub = Subgraph::induced(&g, &members);
/// assert_eq!(sub.graph().node_count(), 5);
/// let local = sub.to_local(NodeId(0)).unwrap();
/// assert_eq!(sub.to_parent(local), NodeId(0));
/// ```
#[derive(Clone, Debug)]
pub struct Subgraph {
    graph: Graph,
    /// `parent[i]` = parent id of local node `i`.
    parent: Vec<NodeId>,
    /// parent id → local id.
    local: HashMap<NodeId, NodeId>,
}

impl Subgraph {
    /// Builds the subgraph of `g` induced by `members`. Local ids are
    /// assigned in the order nodes appear in `members`.
    ///
    /// # Panics
    ///
    /// Panics if `members` contains duplicates or out-of-range nodes.
    pub fn induced(g: &Graph, members: &[NodeId]) -> Self {
        let mut local = HashMap::with_capacity(members.len());
        for (i, &v) in members.iter().enumerate() {
            assert!(v.index() < g.node_count(), "member {v} out of range");
            let prev = local.insert(v, NodeId::from_index(i));
            assert!(prev.is_none(), "duplicate member {v}");
        }
        let mut b = GraphBuilder::new(members.len());
        for (i, &v) in members.iter().enumerate() {
            for &w in g.neighbors(v) {
                if let Some(&lw) = local.get(&w) {
                    if lw.index() > i {
                        b.add_edge(NodeId::from_index(i), lw);
                    }
                }
            }
        }
        Subgraph {
            graph: b.build(),
            parent: members.to_vec(),
            local,
        }
    }

    /// The induced graph with local ids.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the subgraph has no nodes. Kept beside
    /// [`Subgraph::len`], which clippy's `len_without_is_empty` requires.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Translates a local id back to the parent id.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn to_parent(&self, local: NodeId) -> NodeId {
        self.parent[local.index()]
    }

    /// Translates a parent id to the local id, if the node is a member.
    pub fn to_local(&self, parent: NodeId) -> Option<NodeId> {
        self.local.get(&parent).copied()
    }

    /// Returns `true` if `parent` is a member of the subgraph.
    pub fn contains(&self, parent: NodeId) -> bool {
        self.local.contains_key(&parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, traversal};

    #[test]
    fn induced_preserves_internal_edges() {
        let g = generators::grid(3, 3);
        let members = traversal::ball(&g, NodeId(4), 1); // center + 4 neighbors
        let sub = Subgraph::induced(&g, &members);
        assert_eq!(sub.len(), 5);
        // star: center connected to 4 others, no other edges
        assert_eq!(sub.graph().edge_count(), 4);
        let c = sub.to_local(NodeId(4)).unwrap();
        assert_eq!(sub.graph().degree(c), 4);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = generators::cycle(6);
        let members = vec![NodeId(5), NodeId(0), NodeId(1)];
        let sub = Subgraph::induced(&g, &members);
        for (i, &p) in members.iter().enumerate() {
            let l = NodeId::from_index(i);
            assert_eq!(sub.to_parent(l), p);
            assert_eq!(sub.to_local(p), Some(l));
        }
        assert!(sub.contains(NodeId(0)));
        assert!(!sub.contains(NodeId(3)));
        assert_eq!(sub.to_local(NodeId(3)), None);
    }

    #[test]
    fn edges_outside_members_are_dropped() {
        let g = generators::path(4);
        let sub = Subgraph::induced(&g, &[NodeId(0), NodeId(2)]);
        assert_eq!(sub.graph().edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn rejects_duplicate_members() {
        let g = generators::path(3);
        let _ = Subgraph::induced(&g, &[NodeId(0), NodeId(0)]);
    }
}
