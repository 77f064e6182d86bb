//! Property-based tests for the graph substrate.

use lds_graph::{generators, line::LineGraph, ordering, power, traversal, Graph, NodeId};
use proptest::prelude::*;

/// Strategy: a random simple graph given as (n, edge set over pairs).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(0..max_edges, 0..=max_edges.min(40)).prop_map(move |codes| {
            let mut b = lds_graph::GraphBuilder::new(n);
            for code in codes {
                // decode pair index into (i, j), i < j
                let mut k = code;
                let mut i = 0usize;
                while k >= n - 1 - i {
                    k -= n - 1 - i;
                    i += 1;
                }
                let j = i + 1 + k;
                b.try_add_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.edge_count());
    }

    #[test]
    fn distance_is_symmetric(g in arb_graph()) {
        let d0 = traversal::bfs_distances(&g, NodeId(0));
        for (v, &from_zero) in d0.iter().enumerate().skip(1) {
            let dv = traversal::bfs_distances(&g, NodeId::from_index(v));
            prop_assert_eq!(from_zero, dv[0]);
        }
    }

    #[test]
    fn balls_are_monotone_in_radius(g in arb_graph(), r in 0usize..6) {
        for v in g.nodes() {
            let small = traversal::ball(&g, v, r);
            let big = traversal::ball(&g, v, r + 1);
            let bigset: std::collections::HashSet<_> = big.iter().collect();
            prop_assert!(small.iter().all(|u| bigset.contains(u)));
        }
    }

    #[test]
    fn ball_matches_distance_definition(g in arb_graph(), r in 0usize..5) {
        let v = NodeId(0);
        let dist = traversal::bfs_distances(&g, v);
        let ball: std::collections::HashSet<_> =
            traversal::ball(&g, v, r).into_iter().collect();
        for u in g.nodes() {
            let inside = dist[u.index()] != traversal::UNREACHABLE
                && dist[u.index()] as usize <= r;
            prop_assert_eq!(ball.contains(&u), inside, "node {} radius {}", u, r);
        }
    }

    #[test]
    fn power_graph_adjacency_is_bounded_distance(g in arb_graph(), k in 1usize..4) {
        let p = power::power(&g, k);
        for v in g.nodes() {
            let dist = traversal::bfs_distances(&g, v);
            for u in g.nodes() {
                if u == v { continue; }
                let within = dist[u.index()] != traversal::UNREACHABLE
                    && dist[u.index()] as usize <= k;
                prop_assert_eq!(p.has_edge(v, u), within);
            }
        }
    }

    #[test]
    fn line_graph_vertex_count_is_edge_count(g in arb_graph()) {
        let lg = LineGraph::of(&g);
        prop_assert_eq!(lg.graph().node_count(), g.edge_count());
        // sum over v of C(deg v, 2) edges
        let expect: usize = g
            .nodes()
            .map(|v| g.degree(v) * g.degree(v).saturating_sub(1) / 2)
            .sum();
        prop_assert_eq!(lg.graph().edge_count(), expect);
    }

    #[test]
    fn orderings_are_permutations(g in arb_graph(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        prop_assert!(ordering::is_permutation(&g, &ordering::identity(&g)));
        prop_assert!(ordering::is_permutation(&g, &ordering::random(&g, &mut rng)));
        prop_assert!(ordering::is_permutation(&g, &ordering::bfs_from(&g, NodeId(0))));
        prop_assert!(ordering::is_permutation(&g, &ordering::degeneracy(&g)));
    }

    #[test]
    fn subgraph_preserves_adjacency(g in arb_graph(), r in 0usize..4) {
        let members = traversal::ball(&g, NodeId(0), r);
        let sub = lds_graph::Subgraph::induced(&g, &members);
        for (i, &pu) in members.iter().enumerate() {
            for (j, &pv) in members.iter().enumerate() {
                if i < j {
                    let lu = NodeId::from_index(i);
                    let lv = NodeId::from_index(j);
                    prop_assert_eq!(sub.graph().has_edge(lu, lv), g.has_edge(pu, pv));
                }
            }
        }
    }

    #[test]
    fn random_regular_graphs_are_regular(n in 4usize..16, d in 2usize..4, seed in any::<u64>()) {
        use rand::SeedableRng;
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng);
        prop_assert!(g.nodes().all(|v| g.degree(v) == d));
    }
}
