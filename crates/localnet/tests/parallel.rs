//! Property tests for the parallel chromatic simulation (Lemma 3.1):
//! simulating same-color clusters concurrently is execution-equivalent
//! to the sequential scan on the same ordering `π`, for random graphs
//! and localities `r ∈ {1, 2, 3}`.

use lds_gibbs::models::hardcore;
use lds_gibbs::{PartialConfig, Value};
use lds_graph::{generators, traversal, Graph, NodeId};
use lds_localnet::scheduler::{self, run_kernel_chromatic};
use lds_localnet::slocal::{run_scan_sequential, SlocalKernel};
use lds_localnet::{Instance, Network};
use lds_runtime::{CancelToken, ThreadPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(idx: usize, seed: u64) -> Graph {
    match idx % 5 {
        0 => generators::cycle(16),
        1 => generators::torus(4, 5),
        2 => generators::random_regular(16, 3, &mut StdRng::seed_from_u64(seed)),
        3 => generators::erdos_renyi(18, 0.15, &mut StdRng::seed_from_u64(seed ^ 0xe5)),
        _ => generators::balanced_tree(2, 3),
    }
}

fn network(g: &Graph, seed: u64) -> Network {
    Network::new(Instance::unconditioned(hardcore::model(g, 1.0)), seed)
}

/// A kernel with explicit locality `r`: node `v`'s value mixes the pins
/// of every node within distance `r` (weighted by distance, so both
/// *which* nodes are pinned and *what* they hold matter) with `v`'s
/// private randomness. Any cross-cluster leak in the concurrent
/// simulation changes the output.
#[derive(Clone)]
struct BallHashKernel {
    r: usize,
}

impl SlocalKernel for BallHashKernel {
    fn process(&self, net: &Network, sigma: &PartialConfig, v: NodeId) -> (Value, bool) {
        let g = net.instance().model().graph();
        let dist = traversal::bfs_distances(g, v);
        let mut acc: u64 = net.node_rng(v, 11).gen::<u64>();
        for u in g.nodes() {
            let d = dist[u.index()];
            if d == traversal::UNREACHABLE || d as usize > self.r {
                continue;
            }
            if let Some(val) = sigma.get(u) {
                acc = acc
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((u.index() as u64) << 17 | (val.index() as u64) << 3 | d as u64);
            }
        }
        (
            Value::from_index((acc % 2) as usize),
            acc.is_multiple_of(97),
        )
    }
}

proptest! {
    /// Concurrent same-color cluster simulation == sequential scan on
    /// the schedule's ordering, bitwise, at several pool widths.
    #[test]
    fn parallel_chromatic_equals_sequential_scan(
        gidx in 0usize..5,
        seed in 0u64..300,
        r in 1usize..4,
    ) {
        let g = workload(gidx, seed);
        let net = network(&g, seed);
        let schedule = scheduler::chromatic_schedule(&net, r, 0);
        let kernel = BallHashKernel { r };
        let never = CancelToken::never();
        let seq = run_scan_sequential(&net, &kernel, &schedule.order, &never).unwrap();
        for threads in [2usize, 8] {
            let (par, _) =
                run_kernel_chromatic(&net, &kernel, &schedule, &ThreadPool::new(threads), &never)
                    .unwrap();
            prop_assert_eq!(
                &par.outputs, &seq.outputs,
                "outputs diverged: graph {} seed {} r {} threads {}", gidx, seed, r, threads
            );
            prop_assert_eq!(
                &par.failures, &seq.failures,
                "failures diverged: graph {} seed {} r {} threads {}", gidx, seed, r, threads
            );
        }
    }

    /// The schedule's parallel form is structurally sound: colors
    /// partition the clustered nodes, clusters flatten to the ordering,
    /// and same-color clusters stay beyond the kernel's reach.
    #[test]
    fn color_clusters_are_consistent(gidx in 0usize..5, seed in 0u64..300, r in 1usize..4) {
        let g = workload(gidx, seed);
        let net = network(&g, seed);
        let s = scheduler::chromatic_schedule(&net, r, 0);
        let flat: Vec<NodeId> = s
            .color_clusters
            .iter()
            .flatten()
            .flatten()
            .chain(s.tail.iter())
            .copied()
            .collect();
        prop_assert_eq!(&flat, &s.order);
        let r_eff = r.min((traversal::diameter(&g) as usize).max(1));
        for clusters in s.color_clusters.iter() {
            for (i, a) in clusters.iter().enumerate() {
                for b in clusters.iter().skip(i + 1) {
                    for &u in a {
                        let dist = traversal::bfs_distances(&g, u);
                        for &v in b {
                            let d = dist[v.index()];
                            prop_assert!(
                                d == traversal::UNREACHABLE || d as usize > r_eff + 1,
                                "same-color clusters within reach: {} {} at distance {}", u, v, d
                            );
                        }
                    }
                }
            }
        }
    }
}
