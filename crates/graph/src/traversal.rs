//! BFS-based traversal: distances, balls, spheres, diameter.
//!
//! These primitives realize the paper's notation `dist_G(u, v)`,
//! `B_r(v) = {u | dist_G(u,v) ≤ r}` and `dist_G(v, S)` (Section 2,
//! "Notation for Graphs"), and the radius-`t` information gathering of the
//! LOCAL model.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Distance of every node from `src`; `u32::MAX` marks unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances from `src`.
///
/// Returns a vector `d` with `d[v] = dist_G(src, v)` and
/// [`UNREACHABLE`] for nodes in other components.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    multi_source_distances(g, std::slice::from_ref(&src))
}

/// Multi-source BFS: `d[v] = dist_G(v, S)` for the source set `S`.
///
/// Matches the paper's `dist_G(v, S) = min_{u in S} dist_G(u, v)`.
fn multi_source_distances(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] != 0 || !queue.contains(&s) {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for &w in g.neighbors(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// BFS truncated at radius `r`; returns `(nodes, dist)` where `nodes` lists
/// the ball's members in BFS (distance, id) order and `dist[v]` is
/// meaningful only for members.
fn bounded_bfs(g: &Graph, src: NodeId, r: usize) -> (Vec<NodeId>, Vec<u32>) {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    order.push(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        if dv as usize >= r {
            continue;
        }
        for &w in g.neighbors(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
                order.push(w);
            }
        }
    }
    (order, dist)
}

/// The ball `B_r(v) = {u | dist_G(u, v) ≤ r}` in BFS order.
pub fn ball(g: &Graph, v: NodeId, r: usize) -> Vec<NodeId> {
    bounded_bfs(g, v, r).0
}

/// The sphere `{u | dist_G(u, v) = r}` in id order.
pub fn sphere(g: &Graph, v: NodeId, r: usize) -> Vec<NodeId> {
    let (order, dist) = bounded_bfs(g, v, r);
    let mut s: Vec<NodeId> = order
        .into_iter()
        .filter(|u| dist[u.index()] as usize == r)
        .collect();
    s.sort_unstable();
    s
}

/// Eccentricity of `v`: max distance to any reachable node.
pub(crate) fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Exact diameter of the graph (max eccentricity over all nodes; 0 for the
/// empty graph). Unreachable pairs are ignored, i.e. this is the max
/// diameter over connected components.
pub fn diameter(g: &Graph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multi_source_matches_min() {
        let g = generators::cycle(10);
        let d = multi_source_distances(&g, &[NodeId(0), NodeId(5)]);
        for v in g.nodes() {
            let d0 = bfs_distances(&g, NodeId(0))[v.index()];
            let d5 = bfs_distances(&g, NodeId(5))[v.index()];
            assert_eq!(d[v.index()], d0.min(d5));
        }
    }

    #[test]
    fn ball_and_sphere_on_cycle() {
        let g = generators::cycle(8);
        let b = ball(&g, NodeId(0), 2);
        let mut sorted = b.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(6), NodeId(7)]
        );
        assert_eq!(sphere(&g, NodeId(0), 2), vec![NodeId(2), NodeId(6)]);
        // BFS order starts at the center.
        assert_eq!(b[0], NodeId(0));
    }

    #[test]
    fn ball_radius_zero_is_center() {
        let g = generators::cycle(5);
        assert_eq!(ball(&g, NodeId(3), 0), vec![NodeId(3)]);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(6)), 5);
        assert_eq!(diameter(&generators::cycle(8)), 4);
        assert_eq!(diameter(&generators::complete(5)), 1);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]);
        assert_eq!(eccentricity(&g, NodeId(4)), 0);
        // the diameter ignores unreachable pairs
        assert_eq!(diameter(&g), 1);
    }

    use crate::Graph;
}
