//! Halo-sharding equivalence: the chromatic runner that ships
//! **halo-projected** scan state ([`ScanKernel::project`], one
//! `O(|halo|)` payload per cluster through an arena of reusable
//! buffers) is **bit-identical** to the frozen full-snapshot reference
//! (`run_kernel_chromatic_reference`: `Arc<state.clone()>` per color
//! plus a second full clone per cluster).
//!
//! Mirrors the `tests/pass3_parallel.rs` pattern: a proptest over
//! random graphs and explicit kernel localities `r ∈ {1, 2, 3}` at pool
//! widths 1, 2 and 8, plus directed checks that
//!
//! * the sharding telemetry proves per-cluster bytes cloned is bounded
//!   by the halo sum (not `n · #clusters`) for projecting kernels, and
//!   that a kernel left on the default full-copy `project` exceeds the
//!   bound — the condition the CI telemetry gate fails on;
//! * the real serving-path kernels (the Theorem 3.2 sampler through
//!   its blanket pinning projection) agree across widths on a workload
//!   whose colors genuinely carry several clusters.
//!
//! The CI determinism matrix runs this suite under
//! `LDS_THREADS ∈ {1, 4, 8}`; the widths exercised here are explicit.

use lds::gibbs::models::hardcore;
use lds::gibbs::{PartialConfig, Value};
use lds::graph::{generators, traversal, Graph, NodeId};
use lds::localnet::scheduler::{self, run_kernel_chromatic, run_kernel_chromatic_reference};
use lds::localnet::slocal::{run_scan_sequential, ScanKernel, SlocalKernel};
use lds::localnet::{Instance, Network};
use lds::runtime::{CancelToken, ThreadPool};
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
/// within distance `r` with `v`'s private randomness — any read the
/// halo projection fails to carry changes the output.
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

/// The same per-node step as a hand-rolled [`ScanKernel`] that keeps
/// the **default** full-copy `project` — exercising the blanket
/// correctness of the sharded runner for non-projecting kernels, and
/// giving the telemetry assertions a full-clone specimen.
#[derive(Clone)]
struct FullCopyKernel {
    inner: BallHashKernel,
}

impl ScanKernel for FullCopyKernel {
    type State = PartialConfig;
    type Effect = (Value, bool);
    type Run = lds::localnet::slocal::SlocalRun<Value>;

    fn init(&self, net: &Network) -> PartialConfig {
        net.instance().pinning().clone()
    }

    fn process(
        &self,
        net: &Network,
        state: &mut PartialConfig,
        v: NodeId,
    ) -> Option<(Value, bool)> {
        if state.is_pinned(v) {
            return None;
        }
        let (val, fail) = SlocalKernel::process(&self.inner, net, state, v);
        state.pin(v, val);
        Some((val, fail))
    }

    fn apply(&self, state: &mut PartialConfig, v: NodeId, &(val, _): &(Value, bool)) {
        state.pin(v, val);
    }

    fn finish(
        &self,
        net: &Network,
        state: PartialConfig,
        effects: Vec<(NodeId, (Value, bool))>,
    ) -> Self::Run {
        let n = net.node_count();
        let mut failures = vec![false; n];
        for (v, (_, fail)) in effects {
            failures[v.index()] = fail;
        }
        let outputs: Vec<Value> = (0..n)
            .map(|i| state.get(NodeId::from_index(i)).expect("scan is complete"))
            .collect();
        lds::localnet::slocal::SlocalRun { outputs, failures }
    }
    // no `project` override: the default full copy must stay correct
}

proptest! {
    /// Halo-projected execution == frozen full-snapshot reference ==
    /// sequential scan, for kernel localities r ∈ {1, 2, 3} on random
    /// graphs, at widths 1/2/8 — and the shipped bytes stay within the
    /// halo bound.
    #[test]
    fn halo_runner_equals_full_snapshot_reference(
        gidx in 0usize..5,
        seed in 0u64..200,
        r in 1usize..4,
    ) {
        let g = workload(gidx, seed);
        let net = network(&g, seed);
        let schedule = scheduler::chromatic_schedule(&net, r, 0);
        let kernel = BallHashKernel { r };
        let never = CancelToken::never();
        let seq = run_scan_sequential(&net, &kernel, &schedule.order, &never).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let reference = run_kernel_chromatic_reference(&net, &kernel, &schedule, &pool);
            let (halo, stats) =
                run_kernel_chromatic(&net, &kernel, &schedule, &pool, &never).unwrap();
            prop_assert_eq!(
                &halo.outputs, &reference.outputs,
                "outputs vs reference: graph {} seed {} r {} threads {}", gidx, seed, r, threads
            );
            prop_assert_eq!(&halo.failures, &reference.failures);
            prop_assert_eq!(&halo.outputs, &seq.outputs, "outputs vs sequential");
            prop_assert_eq!(&halo.failures, &seq.failures);
            prop_assert!(
                stats.within_halo_bound(),
                "projected kernel exceeded the halo bound: {:?}", stats
            );
            if threads == 1 {
                prop_assert_eq!(stats.projected_clusters, 0, "width 1 must ship nothing");
            }
        }
    }

    /// A kernel left on the default full-copy `project` still runs
    /// bit-identically through the sharded runner — and its telemetry
    /// exceeds the halo bound whenever a multi-cluster color shipped
    /// state, which is exactly what the CI gate rejects.
    #[test]
    fn default_projection_is_correct_but_flagged(
        gidx in 0usize..5,
        seed in 0u64..100,
        r in 1usize..3,
    ) {
        let g = workload(gidx, seed);
        let net = network(&g, seed);
        let schedule = scheduler::chromatic_schedule(&net, r, 0);
        let full = FullCopyKernel { inner: BallHashKernel { r } };
        let never = CancelToken::never();
        let seq = run_scan_sequential(&net, &full, &schedule.order, &never).unwrap();
        let pool = ThreadPool::new(8);
        let (halo, stats) = run_kernel_chromatic(&net, &full, &schedule, &pool, &never).unwrap();
        prop_assert_eq!(&halo.outputs, &seq.outputs);
        prop_assert_eq!(&halo.failures, &seq.failures);
        if stats.projected_clusters > 0 {
            let n = net.node_count();
            // every halo is a strict subset of the graph on these
            // workloads only when the cluster radius is small; the
            // bound comparison itself is what the CI gate uses
            prop_assert!(stats.halo_sum <= stats.projected_clusters * n);
            if stats.halo_sum < stats.projected_clusters * n {
                prop_assert!(
                    !stats.within_halo_bound(),
                    "full-copy kernel slipped under the halo bound: {:?}", stats
                );
            }
        }
    }
}

/// The schedule's halos really are `B_r(cluster)`, sorted, and cover
/// their clusters.
#[test]
fn halos_cover_clusters_at_schedule_radius() {
    for seed in 0..6u64 {
        let g = generators::torus(4, 5);
        let net = network(&g, seed);
        let s = scheduler::chromatic_schedule(&net, 2, 0);
        let halos = s.halos(net.instance().model().graph());
        assert_eq!(halos.len(), s.color_clusters.len());
        for (clusters, halos) in s.color_clusters.iter().zip(halos) {
            assert_eq!(clusters.len(), halos.len());
            for (cluster, halo) in clusters.iter().zip(halos) {
                let expect = traversal::multi_source_ball(
                    net.instance().model().graph(),
                    cluster,
                    s.locality,
                );
                assert_eq!(halo, &expect);
                for v in cluster {
                    assert!(halo.contains(v), "halo misses its own cluster member {v}");
                }
            }
        }
    }
}

/// The serving-path sampler (Theorem 3.2, blanket pinning projection)
/// agrees across widths on a workload whose colors genuinely fan out,
/// and its reported sharding stays within the halo bound.
#[test]
fn sampler_fans_out_within_halo_bound() {
    use lds::core::sampler;
    use lds::gibbs::models::two_spin::TwoSpinParams;
    use lds::oracle::{DecayRate, TwoSpinSawOracle};
    let g = generators::cycle(128);
    let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(0.5), DecayRate::new(0.27, 2.0));
    let mut fanned_out = false;
    for seed in 0..4u64 {
        let net = Network::new(Instance::unconditioned(hardcore::model(&g, 0.5)), seed);
        let sample = |pool: &ThreadPool| {
            sampler::sample_local(&net, &oracle, 0.3, 0, pool, &CancelToken::never()).unwrap()
        };
        let seq_run = sample(&ThreadPool::sequential()).run;
        for threads in [2usize, 8] {
            let out = sample(&ThreadPool::new(threads));
            assert_eq!(
                out.run.outputs, seq_run.outputs,
                "seed {seed} threads {threads}"
            );
            assert_eq!(out.run.failures, seq_run.failures);
            assert!(
                out.sharding.within_halo_bound(),
                "seed {seed}: {:?}",
                out.sharding
            );
            fanned_out |= out.sharding.projected_clusters > 0;
        }
    }
    assert!(fanned_out, "no seed produced a multi-cluster color");
}
