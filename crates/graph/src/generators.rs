//! Graph families used as experiment workloads.
//!
//! Deterministic families (paths, cycles, grids, tori, complete graphs,
//! balanced trees, stars) and random families (Erdős–Rényi and random
//! Δ-regular via the configuration model). The
//! paper's applications are evaluated on bounded-degree graphs; tori and
//! random regular graphs are the canonical such workloads, and balanced
//! Δ-ary trees witness the uniqueness/non-uniqueness phase transition.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, NodeId};

/// Path `P_n` with nodes `0 - 1 - ... - n-1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i));
    }
    b.build()
}

/// Cycle `C_n` (requires `n >= 3`).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes, got {n}");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n));
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
        }
    }
    b.build()
}

/// Star `K_{1,n-1}` with center node `0`.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(0), NodeId::from_index(i));
    }
    b.build()
}

/// `rows × cols` grid (open boundary). Node `(r, c)` has id `r*cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    let id = |r: usize, c: usize| NodeId::from_index(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (periodic boundary); 4-regular when both sides `>= 3`.
///
/// # Panics
///
/// Panics if either side is `< 3` (wrap-around would create duplicate edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus sides must be >= 3");
    let mut b = GraphBuilder::new(rows * cols);
    let id = |r: usize, c: usize| NodeId::from_index(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, (c + 1) % cols));
            b.add_edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    b.build()
}

/// Complete `arity`-ary tree of the given `depth` (depth 0 = single root).
/// Node 0 is the root; children are assigned ids in BFS order.
///
/// The root has `arity` children and internal nodes have `arity` children
/// each, so internal nodes have degree `arity + 1` — the standard
/// `(arity+1)`-regular-tree witness for the hardcore phase transition when
/// truncated.
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity >= 1, "arity must be positive");
    // n = 1 + arity + arity^2 + ... + arity^depth
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= arity;
        n += level;
    }
    let mut b = GraphBuilder::new(n);
    let mut next_child = 1usize;
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut new_frontier = Vec::with_capacity(frontier.len() * arity);
        for &p in &frontier {
            for _ in 0..arity {
                b.add_edge(NodeId::from_index(p), NodeId::from_index(next_child));
                new_frontier.push(next_child);
                next_child += 1;
            }
        }
        frontier = new_frontier;
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: each pair is an edge independently with
/// probability `p`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
    }
    b.build()
}

/// Random `d`-regular simple graph via the configuration model with
/// restarts. Requires `n*d` even and `d < n`.
///
/// # Panics
///
/// Panics if `n*d` is odd or `d >= n`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(
        (n * d).is_multiple_of(2),
        "n*d must be even for a {d}-regular graph"
    );
    assert!(d < n, "degree {d} must be below n={n}");
    if d == 0 {
        return GraphBuilder::new(n).build();
    }
    'restart: loop {
        // stubs[k] = node owning half-edge k
        let mut stubs: Vec<usize> = (0..n * d).map(|k| k / d).collect();
        stubs.shuffle(rng);
        let mut b = GraphBuilder::new(n);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue 'restart;
            }
            if !b.try_add_edge(NodeId::from_index(u), NodeId::from_index(v)) {
                continue 'restart;
            }
        }
        return b.build();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(3)), 2);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert!((1..5).all(|i| g.degree(NodeId::from_index(i)) == 1));
    }

    #[test]
    fn grid_and_torus_degrees() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        let t = torus(4, 5);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert_eq!(t.edge_count(), 2 * 20);
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_tree(2, 3);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert!(traversal::bfs_distances(&g, NodeId(0))
            .iter()
            .all(|&d| d != traversal::UNREACHABLE));
        assert_eq!(traversal::eccentricity(&g, NodeId(0)), 3);
        // leaves have degree 1
        assert_eq!(g.degree(NodeId(14)), 1);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, d) in &[(10, 3), (12, 4), (8, 5)] {
            let g = random_regular(n, d, &mut rng);
            assert_eq!(g.node_count(), n);
            assert!(g.nodes().all(|v| g.degree(v) == d), "n={n} d={d}");
        }
    }
}
