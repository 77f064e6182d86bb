//! Randomized network decomposition (Linial–Saks).
//!
//! A `(C, D)` *network decomposition* partitions the nodes into clusters,
//! each assigned one of `C` colors, such that clusters of the same color
//! are non-adjacent and every cluster has weak diameter at most `D`. The
//! SLOCAL→LOCAL transformation (paper, Lemma 3.1, following
//! Ghaffari–Kuhn–Maus) runs on an `(O(log n), O(log n))` decomposition of
//! the power graph `G^{r+1}`.
//!
//! We implement the classic randomized construction of Linial & Saks: in
//! each of `O(log n)` phases every remaining node `y` draws a truncated
//! geometric radius `r_y`; each remaining node `u` joins the candidate
//! center of **maximum id** among `{y : dist(u, y) ≤ r_y}` (distances in
//! the remaining graph), and is *finalized* in this phase iff its distance
//! to that center is strictly below `r_y`. Finalized same-phase clusters
//! with different centers are provably non-adjacent; each phase finalizes
//! each node with constant probability, so `O(log n)` phases suffice
//! w.h.p. Nodes still unclustered when the color budget runs out are
//! **locally certified failures** — exactly the failure mode Lemma 3.1
//! charges to `Σ_v E[F″_v]`.

use lds_graph::{traversal, Graph, NodeId};
use rand::Rng;

/// Marker for nodes without a cluster/color.
pub const UNCLUSTERED: u32 = u32::MAX;

/// Tuning parameters of the decomposition.
#[derive(Clone, Copy, Debug)]
pub struct DecompositionParams {
    /// Maximum number of colors (phases) before giving up; `O(log n)`.
    pub color_cap: usize,
    /// Truncation of the geometric radius distribution; `O(log n)`.
    pub radius_cap: usize,
}

impl DecompositionParams {
    /// Defaults giving an `(O(log n), O(log n))` decomposition w.h.p.:
    /// `color_cap = 8·⌈log₂ n⌉ + 8`, `radius_cap = ⌈log₂ n⌉ + 1`.
    pub fn for_size(n: usize) -> Self {
        let log = usize::BITS as usize - n.max(2).leading_zeros() as usize;
        DecompositionParams {
            color_cap: 8 * log + 8,
            radius_cap: log + 1,
        }
    }
}

/// A network decomposition: per-node cluster ids and colors, per-cluster
/// centers, and failure flags for unclustered nodes.
#[derive(Clone, Debug)]
pub struct NetworkDecomposition {
    /// Cluster id per node ([`UNCLUSTERED`] if failed).
    pub cluster: Vec<u32>,
    /// Color (phase) per node ([`UNCLUSTERED`] if failed).
    pub color: Vec<u32>,
    /// Number of colors used.
    pub colors: usize,
    /// Center node of each cluster, indexed by cluster id.
    pub(crate) centers: Vec<NodeId>,
    /// Locally certified failure flags (`F″_v`): unclustered nodes.
    pub failed: Vec<bool>,
}

impl NetworkDecomposition {
    /// Members of each cluster, indexed by cluster id.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut m = vec![Vec::new(); self.centers.len()];
        for (i, &c) in self.cluster.iter().enumerate() {
            if c != UNCLUSTERED {
                m[c as usize].push(NodeId::from_index(i));
            }
        }
        m
    }

    /// Verifies the defining property on the graph the decomposition was
    /// computed on: same-color adjacent nodes are in the same cluster.
    pub fn verify_color_separation(&self, g: &Graph) -> bool {
        g.edges().iter().all(|e| {
            let (u, v) = (e.u.index(), e.v.index());
            self.color[u] == UNCLUSTERED
                || self.color[v] == UNCLUSTERED
                || self.color[u] != self.color[v]
                || self.cluster[u] == self.cluster[v]
        })
    }

    /// Maximum weak radius of any cluster measured in `base`: the largest
    /// `dist_base(center, member)`. Weak diameter is at most twice this.
    pub fn max_weak_radius(&self, base: &Graph) -> usize {
        let mut worst = 0usize;
        for (cid, members) in self.members().iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let d = traversal::bfs_distances(base, self.centers[cid]);
            for &v in members {
                worst = worst.max(d[v.index()] as usize);
            }
        }
        worst
    }

    /// Maximum weak radius per color (in `base`), indexed by color.
    pub(crate) fn weak_radius_by_color(&self, base: &Graph) -> Vec<usize> {
        let mut by_color = vec![0usize; self.colors];
        for (cid, members) in self.members().iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let color = members
                .first()
                .map(|v| self.color[v.index()] as usize)
                .expect("nonempty");
            let d = traversal::bfs_distances(base, self.centers[cid]);
            for &v in members {
                by_color[color] = by_color[color].max(d[v.index()] as usize);
            }
        }
        by_color
    }
}

/// Truncated geometric radius: `Pr[r = j] = 2^{-(j+1)}` for `j < cap`,
/// remaining mass on `cap`.
fn truncated_geometric<R: Rng + ?Sized>(cap: usize, rng: &mut R) -> usize {
    let mut r = 0usize;
    while r < cap && rng.gen_bool(0.5) {
        r += 1;
    }
    r
}

/// Runs the Linial–Saks decomposition on `g`.
///
/// The returned decomposition satisfies color separation by construction
/// (verified in tests); nodes not finalized within `params.color_cap`
/// phases carry `failed = true`.
pub fn linial_saks<R: Rng + ?Sized>(
    g: &Graph,
    params: DecompositionParams,
    rng: &mut R,
) -> NetworkDecomposition {
    let n = g.node_count();
    let mut cluster = vec![UNCLUSTERED; n];
    let mut color = vec![UNCLUSTERED; n];
    let mut centers: Vec<NodeId> = Vec::new();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut remaining_count = n;
    let mut phase = 0usize;

    while remaining_count > 0 && phase < params.color_cap {
        // 1. draw radii for remaining nodes
        let radii: Vec<usize> = (0..n)
            .map(|v| {
                if remaining[v] {
                    truncated_geometric(params.radius_cap, rng)
                } else {
                    0
                }
            })
            .collect();

        // 2. each remaining u finds the max-id center y with
        //    dist_rem(u, y) <= r_y; BFS from every candidate center.
        //    best[u] = (y_id, dist) with max y_id preferred.
        let mut best: Vec<Option<(u32, u32)>> = vec![None; n];
        for y in 0..n {
            if !remaining[y] {
                continue;
            }
            let ry = radii[y];
            // truncated BFS within remaining nodes
            let mut dist = vec![u32::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            dist[y] = 0;
            queue.push_back(NodeId::from_index(y));
            while let Some(u) = queue.pop_front() {
                let du = dist[u.index()];
                let better = match best[u.index()] {
                    None => true,
                    Some((by, _)) => (y as u32) > by,
                };
                if better {
                    best[u.index()] = Some((y as u32, du));
                }
                if (du as usize) < ry {
                    for &w in g.neighbors(u) {
                        if remaining[w.index()] && dist[w.index()] == u32::MAX {
                            dist[w.index()] = du + 1;
                            queue.push_back(w);
                        }
                    }
                }
            }
        }

        // 3. finalize nodes strictly inside their center's radius
        let mut new_cluster_of_center: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        for u in 0..n {
            if !remaining[u] {
                continue;
            }
            if let Some((y, d)) = best[u] {
                if (d as usize) < radii[y as usize] {
                    let cid = *new_cluster_of_center.entry(y).or_insert_with(|| {
                        centers.push(NodeId(y));
                        (centers.len() - 1) as u32
                    });
                    cluster[u] = cid;
                    color[u] = phase as u32;
                    remaining[u] = false;
                    remaining_count -= 1;
                }
            }
        }
        phase += 1;
    }

    let failed: Vec<bool> = remaining;
    NetworkDecomposition {
        cluster,
        color,
        colors: phase,
        centers,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn decompose(g: &Graph, seed: u64) -> NetworkDecomposition {
        let mut rng = StdRng::seed_from_u64(seed);
        linial_saks(g, DecompositionParams::for_size(g.node_count()), &mut rng)
    }

    #[test]
    fn clusters_cover_all_nodes_whp() {
        for seed in 0..5 {
            let g = generators::torus(6, 6);
            let d = decompose(&g, seed);
            assert!(
                !d.failed.contains(&true),
                "seed {seed} left nodes unclustered"
            );
            assert!(!d.centers.is_empty());
        }
    }

    #[test]
    fn color_separation_holds() {
        for seed in 0..5 {
            let g = generators::random_regular(40, 4, &mut StdRng::seed_from_u64(seed));
            let d = decompose(&g, seed);
            assert!(d.verify_color_separation(&g), "seed {seed}");
        }
    }

    #[test]
    fn color_and_radius_are_logarithmic() {
        let g = generators::torus(8, 8); // n = 64
        let d = decompose(&g, 3);
        let log = 7; // ceil(log2 64) + 1
        assert!(d.colors <= 8 * log + 8);
        assert!(d.max_weak_radius(&g) <= 2 * log);
    }

    #[test]
    fn members_partition_clustered_nodes() {
        let g = generators::grid(5, 5);
        let d = decompose(&g, 11);
        let members = d.members();
        let total: usize = members.iter().map(Vec::len).sum();
        let clustered = d.failed.iter().filter(|&&f| !f).count();
        assert_eq!(total, clustered);
        for (cid, m) in members.iter().enumerate() {
            for &v in m {
                assert_eq!(d.cluster[v.index()], cid as u32);
            }
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []);
        let d = decompose(&g, 0);
        assert!(!d.failed.contains(&true));
        assert_eq!(d.centers.len(), 1);
        assert_eq!(d.max_weak_radius(&g), 0);
    }

    #[test]
    fn zero_color_cap_fails_everyone() {
        let g = generators::cycle(5);
        let mut rng = StdRng::seed_from_u64(1);
        let d = linial_saks(
            &g,
            DecompositionParams {
                color_cap: 0,
                radius_cap: 3,
            },
            &mut rng,
        );
        assert!(d.failed.contains(&true));
        assert_eq!(d.failed.iter().filter(|&&f| f).count(), 5);
    }

    use lds_graph::Graph;
}
