//! The SLOCAL→LOCAL transformation (paper, Lemma 3.1).
//!
//! Given an SLOCAL algorithm `A` with locality `r`, the LOCAL algorithm
//! `B`:
//!
//! 1. computes an `(O(log n), O(log n))` network decomposition of the
//!    power graph `G^{r+1}` (so same-color clusters are at pairwise
//!    distance `> r + 1` in `G`),
//! 2. processes colors in increasing order; within a color, every cluster
//!    simulates `A` on its members in parallel (the cluster's leader
//!    gathers the cluster plus a radius-`r` halo, runs the scan, and
//!    disseminates the states), which is sound because concurrent
//!    clusters are too far apart for their radius-`r` reads to interact;
//! 3. the resulting execution is *identical* to running `A` sequentially
//!    on the ordering `π` = (colors, then clusters, then members), so
//!    conditioned on the decomposition succeeding the output distribution
//!    is exactly `μ̂_{I,π}` for that ordering — the statement of
//!    Lemma 3.1.
//!
//! This module computes the schedule: the ordering `π`, the failure bits
//! and the round cost of `B`. By step 3 the simulator runs a pass as the
//! sequential scan ([`crate::slocal::run_scan_sequential`]) over
//! [`ChromaticSchedule::order`] and charges it the rounds of `B`. The
//! schedule depends only on the graph, the locality and a seed, so a
//! caller that runs many executions draws it once
//! ([`complete_schedule`]) and scans it in every one.
//!
//! Simulated round cost charged here:
//! `Σ_colors (2·weak_radius_color + r + 1)`, the cost of gather +
//! disseminate per color class; with `O(log n)` colors and weak radius
//! `O((r+1) log n)` in `G` this is the paper's `O(r log² n)`.
//!
//! Decomposition failures are surfaced as per-node failure bits `F″_v`
//! with `Σ_v E[F″_v] = O(1/n²)` under the default parameters, and are
//! independent of the algorithm's own randomness — as required by the
//! proof of Proposition 4.3.

use lds_graph::{power, NodeId};
use lds_runtime::{streams, StreamRng};

use crate::decomposition::{linial_saks, DecompositionParams, NetworkDecomposition};
use crate::Network;

/// A chromatic schedule: the ordering `π` the LOCAL cluster simulation
/// is equivalent to, plus the simulated round cost.
#[derive(Clone, Debug)]
pub struct ChromaticSchedule {
    /// The ordering `π`: clusters by color, then by cluster id, members
    /// in increasing id order. Includes all nodes; unclustered (failed)
    /// nodes are appended at the end.
    pub order: Vec<NodeId>,
    /// Failure bits `F″_v` from the decomposition.
    pub failed: Vec<bool>,
    /// Simulated LOCAL rounds.
    pub rounds: usize,
    /// Colors used by the decomposition.
    pub colors: usize,
    /// The decomposition itself (on `G^{r+1}`).
    pub decomposition: NetworkDecomposition,
}

/// Computes the chromatic schedule for locality `r` on the network's
/// graph: decomposition of `G^{r+1}`, equivalent ordering, and round cost.
///
/// `stream` decorrelates scheduling randomness from algorithm randomness
/// (pass distinct streams for nested uses). Decomposition randomness is
/// derived through the [`StreamRng`] tree under the
/// [`streams::DECOMPOSITION`] domain, so it is independent of the
/// algorithm randomness drawn from the per-node streams (Proposition
/// 4.3) while sharing the one master seed.
pub fn chromatic_schedule(net: &Network, locality: usize, stream: u64) -> ChromaticSchedule {
    let g = net.instance().model().graph();
    let n = g.node_count();
    // A LOCAL node never needs to gather beyond the graph's diameter:
    // radius `diam` already delivers the whole graph, so larger declared
    // localities are capped here (keeps simulated rounds honest on small
    // benchmark graphs whose diameter is below the asymptotic radius).
    let diam = lds_graph::traversal::diameter(g) as usize;
    let locality = locality.min(diam.max(1));
    let h = power::power(g, locality + 1);
    let mut rng = StreamRng::derive(net.seed(), streams::DECOMPOSITION)
        .substream(stream)
        .rng();
    let decomposition = linial_saks(&h, DecompositionParams::for_size(n), &mut rng);

    // π: by color, then cluster id, then node id. Failed nodes carry the
    // color and cluster `UNCLUSTERED` (the largest value), so they come
    // last, in id order (they output defaults and carry F″ = 1).
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_unstable_by_key(|v| {
        let i = v.index();
        (decomposition.color[i], decomposition.cluster[i], *v)
    });

    // Round cost: per color, gather cluster + halo and disseminate.
    let radius_by_color = decomposition.weak_radius_by_color(g);
    let rounds: usize = radius_by_color
        .iter()
        .map(|&wr| 2 * wr + locality + 1)
        .sum();

    ChromaticSchedule {
        failed: decomposition.failed.clone(),
        rounds,
        colors: decomposition.colors,
        order,
        decomposition,
    }
}

/// Draws allowed by [`complete_schedule`] before it gives up.
const SCHEDULE_DRAWS: u64 = 4;

/// A chromatic schedule that clusters every node if one of four draws
/// does: draws [`chromatic_schedule`] on streams
/// `0, 1, …` and returns the first draw without `F″` failures, else the
/// last draw, whose failure bits then surface in every run over it.
///
/// A schedule depends only on the graph, the locality and `net`'s seed,
/// so one draw can serve any number of executions. A redraw stays
/// independent of the samplers' randomness (Proposition 4.3): every draw
/// reads only the [`streams::DECOMPOSITION`] domain.
pub fn complete_schedule(net: &Network, locality: usize) -> ChromaticSchedule {
    let mut schedule = chromatic_schedule(net, locality, 0);
    for stream in 1..SCHEDULE_DRAWS {
        if !schedule.failed.contains(&true) {
            break;
        }
        schedule = chromatic_schedule(net, locality, stream);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::UNCLUSTERED;
    use crate::Instance;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::PartialConfig;
    use lds_graph::{generators, ordering, traversal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(n_side: usize, seed: u64) -> Network {
        let g = generators::torus(n_side, n_side);
        let n = g.node_count();
        Network::new(
            Instance::new(hardcore::model(&g, 1.0), PartialConfig::empty(n)).unwrap(),
            seed,
        )
    }

    #[test]
    fn schedule_order_is_a_permutation() {
        let net = net(5, 3);
        let s = chromatic_schedule(&net, 2, 0);
        assert!(ordering::is_permutation(
            net.instance().model().graph(),
            &s.order
        ));
    }

    #[test]
    fn same_color_clusters_are_far_apart() {
        let net = net(6, 9);
        let r = 2usize;
        let s = chromatic_schedule(&net, r, 0);
        let g = net.instance().model().graph();
        let d = &s.decomposition;
        // brute-force: same color, different cluster => distance > r+1
        for u in g.nodes() {
            if d.color[u.index()] == UNCLUSTERED {
                continue;
            }
            let dist = traversal::bfs_distances(g, u);
            for v in g.nodes() {
                if v <= u || d.color[v.index()] == UNCLUSTERED {
                    continue;
                }
                if d.color[u.index()] == d.color[v.index()]
                    && d.cluster[u.index()] != d.cluster[v.index()]
                {
                    assert!(
                        dist[v.index()] as usize > r + 1,
                        "{u} and {v} same color but distance {}",
                        dist[v.index()]
                    );
                }
            }
        }
    }

    #[test]
    fn rounds_scale_with_locality_and_logs() {
        let net = net(6, 1);
        let s1 = chromatic_schedule(&net, 1, 0);
        let s3 = chromatic_schedule(&net, 6, 0);
        assert!(s1.rounds >= s1.colors); // at least one round per color
        assert!(s3.rounds > s1.rounds); // larger locality costs more
    }

    #[test]
    fn complete_schedule_keeps_a_complete_first_draw() {
        let net = net(5, 4);
        let s = complete_schedule(&net, 2);
        assert!(!s.failed.contains(&true));
        assert_eq!(s.order, chromatic_schedule(&net, 2, 0).order);
    }

    #[test]
    fn decomposition_failures_propagate() {
        // force failures with an impossible color cap by shrinking the
        // schedule through a tiny custom decomposition
        let netw = net(4, 2);
        let g = netw.instance().model().graph();
        let h = power::power(g, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let d = linial_saks(
            &h,
            DecompositionParams {
                color_cap: 0,
                radius_cap: 1,
            },
            &mut rng,
        );
        assert!(d.failed.contains(&true));
        assert_eq!(d.failed.iter().filter(|&&f| f).count(), g.node_count());
    }
}
