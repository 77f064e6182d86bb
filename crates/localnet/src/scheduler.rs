//! The SLOCAL→LOCAL transformation (paper, Lemma 3.1).
//!
//! Given an SLOCAL algorithm `A` with locality `r`, the LOCAL algorithm
//! `B`:
//!
//! 1. computes an `(O(log n), O(log n))` network decomposition of the
//!    power graph `G^{r+1}` (so same-color clusters are at pairwise
//!    distance `> r + 1` in `G`),
//! 2. processes colors in increasing order; within a color, every cluster
//!    simulates `A` on its members **in parallel** (the cluster's leader
//!    gathers the cluster plus a radius-`r` halo, runs the scan, and
//!    disseminates the states), which is sound because concurrent
//!    clusters are too far apart for their radius-`r` reads to interact;
//! 3. the resulting execution is *identical* to running `A` sequentially
//!    on the ordering `π` = (colors, then clusters, then members), so
//!    conditioned on the decomposition succeeding the output distribution
//!    is exactly `μ̂_{I,π}` for that ordering — the statement of
//!    Lemma 3.1.
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

use std::sync::{Arc, Mutex, OnceLock};

use lds_graph::{power, traversal, Graph, NodeId};
use lds_obs::trace::{self, TraceEvent};
use lds_runtime::{streams, CancelToken, Cancelled, StreamRng, ThreadPool};

/// Chromatic-runner observability handles, resolved once. Counters are
/// bumped per color round (not per node), and the trace events are
/// behind the sampling knob, so the instrumented runner's hot loops are
/// unchanged in shape.
struct RunnerMetrics {
    /// Color rounds executed by the projected (parallel) runner.
    rounds: Arc<lds_obs::Counter>,
    /// Clusters simulated through a halo projection.
    projected: Arc<lds_obs::Counter>,
    /// Clusters scanned inline on the global state.
    inline: Arc<lds_obs::Counter>,
    /// Bytes of scan state shipped to workers.
    bytes: Arc<lds_obs::Counter>,
}

fn runner_metrics() -> &'static RunnerMetrics {
    static METRICS: OnceLock<RunnerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lds_obs::global();
        RunnerMetrics {
            rounds: reg.counter("chromatic_color_rounds"),
            projected: reg.counter("chromatic_clusters_projected"),
            inline: reg.counter("chromatic_clusters_inline"),
            bytes: reg.counter("chromatic_bytes_projected"),
        }
    })
}

use crate::decomposition::{linial_saks, DecompositionParams, NetworkDecomposition, UNCLUSTERED};
use crate::slocal::ScanKernel;
use crate::Network;

/// A chromatic schedule: the sequential ordering realized by the parallel
/// cluster simulation, plus the simulated round cost.
#[derive(Clone, Debug)]
pub struct ChromaticSchedule {
    /// The ordering `π` the parallel simulation is equivalent to. Includes
    /// all nodes; unclustered (failed) nodes are appended at the end.
    pub order: Vec<NodeId>,
    /// The parallel form of the schedule: for each color in increasing
    /// order, the clusters of that color (members sorted by id). Same-
    /// color clusters are at pairwise distance `> r + 1` in `G`, so they
    /// may be simulated concurrently; flattening this nesting and
    /// appending [`ChromaticSchedule::tail`] reproduces `order` exactly.
    /// Shared (`Arc`) so the runner can ship member lists to pool
    /// workers without cloning them every color round.
    pub color_clusters: Arc<Vec<Vec<Vec<NodeId>>>>,
    /// Unclustered (failed) nodes, processed sequentially after all
    /// colors — the tail of `order`.
    pub tail: Vec<NodeId>,
    /// Failure bits `F″_v` from the decomposition.
    pub failed: Vec<bool>,
    /// Simulated LOCAL rounds.
    pub rounds: usize,
    /// Colors used by the decomposition.
    pub colors: usize,
    /// Largest weak radius of a cluster, measured in `G`.
    pub max_weak_radius: usize,
    /// The locality `r` the schedule was built for, after the diameter
    /// cap — the halo radius of the sharded simulation.
    pub locality: usize,
    /// The decomposition itself (on `G^{r+1}`).
    pub decomposition: NetworkDecomposition,
    /// Lazily computed per-cluster halos (see
    /// [`ChromaticSchedule::halos`]); parallel to `color_clusters`.
    halos: OnceLock<Vec<Vec<Vec<NodeId>>>>,
}

impl ChromaticSchedule {
    /// Per-cluster halos, parallel to
    /// [`ChromaticSchedule::color_clusters`]: `halos()[c][i]` is
    /// `B_r(C)` for cluster `i` of color `c` — the cluster's members
    /// plus their radius-`r` boundary (`r` = [`ChromaticSchedule::locality`]),
    /// in increasing id order. This is exactly the state region a
    /// locality-`r` kernel can read or write while scanning the
    /// cluster, so the sharded runner ships only these slots.
    ///
    /// Computed once per schedule on first use (the width-1 sequential
    /// path never pays for it) and reused across colors **and** across
    /// passes sharing the schedule (local-JVV runs all three passes on
    /// one schedule). `g` must be the carrier graph the schedule was
    /// built on — later calls return the memoized halos, so a
    /// different graph would silently be ignored.
    pub fn halos(&self, g: &Graph) -> &[Vec<Vec<NodeId>>] {
        debug_assert_eq!(
            g.node_count(),
            self.order.len(),
            "halos requested for a graph the schedule was not built on"
        );
        self.halos.get_or_init(|| {
            self.color_clusters
                .iter()
                .map(|clusters| {
                    clusters
                        .iter()
                        .map(|cluster| traversal::multi_source_ball(g, cluster, self.locality))
                        .collect()
                })
                .collect()
        })
    }
}

/// Telemetry of one sharded kernel execution: how much scan state the
/// chromatic runner actually shipped to workers, against the halo
/// bound. `bytes_cloned ≤ halo_bytes_bound` if and only if every
/// projected cluster copied `O(|halo|)` slots — the CI telemetry gate
/// that keeps the full-clone path from silently coming back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardingStats {
    /// Clusters simulated through a halo projection (parallel fan-out).
    pub projected_clusters: usize,
    /// Clusters scanned inline on the global state (single-cluster
    /// colors — no snapshot, no projection).
    pub inline_clusters: usize,
    /// Sum of halo sizes over the projected clusters.
    pub halo_sum: usize,
    /// Largest halo among the projected clusters.
    pub max_halo: usize,
    /// Bytes of scan state copied into worker payloads
    /// ([`ScanKernel::projected_bytes`] summed over projections).
    pub bytes_cloned: u64,
    /// What a perfect halo restriction would have copied: the same
    /// accounting evaluated at `n = |halo|`.
    pub halo_bytes_bound: u64,
}

impl ShardingStats {
    /// Accumulates another execution's stats (e.g. across the three
    /// local-JVV passes sharing one schedule).
    pub fn merge(&mut self, other: &ShardingStats) {
        self.projected_clusters += other.projected_clusters;
        self.inline_clusters += other.inline_clusters;
        self.halo_sum += other.halo_sum;
        self.max_halo = self.max_halo.max(other.max_halo);
        self.bytes_cloned += other.bytes_cloned;
        self.halo_bytes_bound += other.halo_bytes_bound;
    }

    /// Mean halo size over projected clusters (0 when none).
    pub fn mean_halo(&self) -> f64 {
        if self.projected_clusters == 0 {
            0.0
        } else {
            self.halo_sum as f64 / self.projected_clusters as f64
        }
    }

    /// `true` when every projection stayed within the halo bound.
    pub fn within_halo_bound(&self) -> bool {
        self.bytes_cloned <= self.halo_bytes_bound
    }
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

    // Group clusters by (color, cluster id); members sorted by id. One
    // pass over the clusters builds both the nested parallel form and
    // the flattened ordering: each member list is moved (not cloned)
    // into its color slot, and `order` grows alongside instead of being
    // re-derived by flattening afterwards.
    let mut members = decomposition.members();
    let mut cluster_ids: Vec<usize> = (0..members.len())
        .filter(|&cid| !members[cid].is_empty())
        .collect();
    cluster_ids.sort_by_key(|&cid| {
        let color = members[cid]
            .first()
            .map(|v| decomposition.color[v.index()])
            .unwrap_or(UNCLUSTERED);
        (color, cid)
    });
    let mut color_clusters: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); decomposition.colors];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for &cid in &cluster_ids {
        let mut m = std::mem::take(&mut members[cid]);
        m.sort_unstable();
        let color = decomposition.color[m[0].index()] as usize;
        order.extend_from_slice(&m);
        color_clusters[color].push(m);
    }
    // failed nodes last (they output defaults and carry F″ = 1)
    let tail: Vec<NodeId> = (0..n)
        .filter(|&v| decomposition.failed[v])
        .map(NodeId::from_index)
        .collect();
    order.extend_from_slice(&tail);
    debug_assert_eq!(order.len(), n);

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
        max_weak_radius: decomposition.max_weak_radius(g),
        order,
        color_clusters: Arc::new(color_clusters),
        tail,
        locality,
        decomposition,
        halos: OnceLock::new(),
    }
}

/// Per-color fan-out results: each cluster's reusable projection buffer
/// coming back from its worker, plus the cluster's effects in scan
/// order.
type ClusterRuns<S, E> = Vec<(S, Vec<(NodeId, E)>)>;

/// Runs any [`ScanKernel`] under the chromatic schedule with same-color
/// clusters simulated **concurrently** on the pool — the literal
/// parallel simulation of Lemma 3.1, replacing the sequential
/// within-color scan. Pinning-extension kernels
/// ([`crate::slocal::SlocalKernel`]) run
/// here through their blanket `ScanKernel` impl; richer kernels
/// (`local-JVV`'s rejection pass) implement `ScanKernel` directly.
///
/// Colors are processed in order; within a color every cluster scans its
/// members sequentially against a **halo projection** of the scan state
/// accumulated through the previous colors — the cluster's members plus
/// their radius-`r` boundary ([`ChromaticSchedule::halos`]), which is
/// exactly what the paper's cluster leader gathers — and the per-node
/// effects are replayed onto the global state **in cluster order**, the
/// order the sequential scan uses. Same-color clusters are at pairwise
/// distance `> r + 1`, so (under the kernel's locality contract) no
/// cluster can read past its own halo, and the merged result is
/// **bit-identical** to [`crate::slocal::run_scan_sequential`] on
/// `schedule.order` — at any pool width. Unclustered (failed) nodes are
/// processed sequentially at the end, exactly as in the sequential scan.
///
/// No full-state snapshot is ever cloned: the caller builds one
/// `O(|halo|)` projection per cluster ([`ScanKernel::project`]) into
/// arena-recycled buffers, workers take their payload through a shared
/// slot (the `par_map` items are bare indices), and buffers come back
/// for the next color — so steady-state per-round copying is the halo
/// sum, not `n · #clusters`. The returned [`ShardingStats`] report what
/// was shipped.
///
/// `cancel` is checked at the **start of every color round** and once
/// before the unclustered tail — never inside a round — so a run that
/// completes is bit-identical to the same run under
/// [`CancelToken::never`] (checks consume no randomness), and a
/// cancelled run returns `Err(`[`Cancelled`]`)` having produced no
/// partial result. This is the enforcement point for per-request
/// deadlines: the engine wraps a deadline in a [`CancelToken`] and maps
/// `Cancelled` into its typed `DeadlineExceeded`.
///
/// The kernel ships to the pool's workers as part of a `'static` job, so
/// it must own its context (`Clone + Send + Sync + 'static`) — oracles
/// travel by value or `Arc`, never by borrow.
pub fn run_kernel_chromatic<K>(
    net: &Network,
    kernel: &K,
    schedule: &ChromaticSchedule,
    pool: &ThreadPool,
    cancel: &CancelToken,
) -> Result<(K::Run, ShardingStats), Cancelled>
where
    K: ScanKernel + Clone + Send + Sync + 'static,
{
    let mut stats = ShardingStats::default();
    if pool.is_sequential() {
        // the sequential scan is the same execution without the
        // per-cluster projections — one state for the whole schedule
        return Ok((
            crate::slocal::run_scan_sequential(net, kernel, &schedule.order, cancel)?,
            stats,
        ));
    }
    let n = net.node_count();
    let halos = schedule.halos(net.instance().model().graph());
    let mut state = kernel.init(net);
    let mut effects: Vec<(NodeId, K::Effect)> = Vec::new();
    // Scratch arena: projections come back from the workers with their
    // run's effects and are re-projected next color, so buffer
    // allocations are paid once per lane, not once per cluster-round.
    // Each entry remembers which halo it was last projected for (as
    // `(color, cluster)` indices into `halos`) so the kernel can erase
    // exactly the stale slots.
    let mut arena: Vec<(K::State, (usize, usize))> = Vec::new();
    let metrics = runner_metrics();
    for (color, clusters) in schedule.color_clusters.iter().enumerate() {
        cancel.check()?;
        if let [cluster] = clusters.as_slice() {
            // a single cluster this color: scan it inline on the global
            // state — same execution, no projection, no fan-out
            stats.inline_clusters += 1;
            metrics.rounds.inc();
            metrics.inline.inc();
            trace::emit(TraceEvent::RoundStart {
                color: color as u32,
            });
            for &v in cluster {
                if let Some(e) = kernel.process(net, &mut state, v) {
                    effects.push((v, e));
                }
            }
            trace::emit(TraceEvent::RoundEnd {
                color: color as u32,
                clusters: 1,
            });
            continue;
        }
        if clusters.is_empty() {
            continue;
        }
        metrics.rounds.inc();
        trace::emit(TraceEvent::RoundStart {
            color: color as u32,
        });
        // project on the caller's thread (the only reader of `state`);
        // workers receive owned payloads through take-once slots
        let mut slots: Vec<Mutex<Option<K::State>>> = Vec::with_capacity(clusters.len());
        for ci in 0..clusters.len() {
            let halo = &halos[color][ci];
            let projected = match arena.pop() {
                Some((mut scratch, (pc, pi))) => {
                    kernel.project_into(&state, halo, &mut scratch, &halos[pc][pi]);
                    scratch
                }
                None => kernel.project(&state, halo),
            };
            stats.projected_clusters += 1;
            stats.halo_sum += halo.len();
            stats.max_halo = stats.max_halo.max(halo.len());
            stats.bytes_cloned += kernel.projected_bytes(n, halo.len());
            stats.halo_bytes_bound += kernel.projected_bytes(halo.len(), halo.len());
            metrics.projected.inc();
            metrics.bytes.add(kernel.projected_bytes(n, halo.len()));
            trace::emit(TraceEvent::ClusterDispatch {
                color: color as u32,
                cluster: ci as u32,
                halo: halo.len() as u32,
            });
            slots.push(Mutex::new(Some(projected)));
        }
        let slots = Arc::new(slots);
        let indices: Vec<usize> = (0..clusters.len()).collect();
        let runs: ClusterRuns<K::State, K::Effect> = pool.par_map(&indices, {
            let net = net.clone();
            let kernel = kernel.clone();
            let clusters = Arc::clone(&schedule.color_clusters);
            let slots = Arc::clone(&slots);
            move |&ci| {
                let mut local = slots[ci]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("each slot is taken exactly once");
                let cluster = &clusters[color][ci];
                let mut out = Vec::with_capacity(cluster.len());
                for &v in cluster {
                    if let Some(e) = kernel.process(&net, &mut local, v) {
                        out.push((v, e));
                    }
                }
                (local, out)
            }
        });
        // replay in cluster order — the order the sequential scan uses —
        // and return the buffers to the arena for the next color
        let round_clusters = runs.len() as u32;
        for (ci, (scratch, cluster_out)) in runs.into_iter().enumerate() {
            arena.push((scratch, (color, ci)));
            for (v, e) in cluster_out {
                kernel.apply(&mut state, v, &e);
                effects.push((v, e));
            }
        }
        trace::emit(TraceEvent::RoundEnd {
            color: color as u32,
            clusters: round_clusters,
        });
    }
    cancel.check()?;
    for &v in &schedule.tail {
        if let Some(e) = kernel.process(net, &mut state, v) {
            effects.push((v, e));
        }
    }
    Ok((kernel.finish(net, state, effects), stats))
}

/// The **frozen pre-sharding** chromatic runner: full-state snapshot per
/// color (`Arc<state.clone()>`), a second full clone per cluster, no
/// projections. Kept verbatim as the reference implementation the halo
/// equivalence proptest (`tests/halo_sharding.rs`) compares
/// [`run_kernel_chromatic`] against, bit for bit. Not part of any
/// serving path.
#[doc(hidden)]
pub fn run_kernel_chromatic_reference<K>(
    net: &Network,
    kernel: &K,
    schedule: &ChromaticSchedule,
    pool: &ThreadPool,
) -> K::Run
where
    K: ScanKernel + Clone + Send + Sync + 'static,
{
    if pool.is_sequential() {
        return crate::slocal::run_scan_sequential(
            net,
            kernel,
            &schedule.order,
            &CancelToken::never(),
        )
        .expect("a never-token cannot cancel");
    }
    let mut state = kernel.init(net);
    let mut effects: Vec<(NodeId, K::Effect)> = Vec::new();
    for clusters in schedule.color_clusters.iter() {
        if let [cluster] = clusters.as_slice() {
            for &v in cluster {
                if let Some(e) = kernel.process(net, &mut state, v) {
                    effects.push((v, e));
                }
            }
            continue;
        }
        let snapshot = Arc::new(state.clone());
        let runs: Vec<Vec<(NodeId, K::Effect)>> = pool.par_map(clusters, {
            let net = net.clone();
            let kernel = kernel.clone();
            move |cluster: &Vec<NodeId>| {
                let mut local = (*snapshot).clone();
                let mut out = Vec::with_capacity(cluster.len());
                for &v in cluster {
                    if let Some(e) = kernel.process(&net, &mut local, v) {
                        out.push((v, e));
                    }
                }
                out
            }
        });
        for cluster_out in runs {
            for (v, e) in cluster_out {
                kernel.apply(&mut state, v, &e);
                effects.push((v, e));
            }
        }
    }
    for &v in &schedule.tail {
        if let Some(e) = kernel.process(net, &mut state, v) {
            effects.push((v, e));
        }
    }
    kernel.finish(net, state, effects)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn color_clusters_flatten_to_the_order() {
        for seed in 0..5 {
            let net = net(5, seed);
            let s = chromatic_schedule(&net, 2, 0);
            let flat: Vec<_> = s
                .color_clusters
                .iter()
                .flatten()
                .flatten()
                .chain(s.tail.iter())
                .copied()
                .collect();
            assert_eq!(flat, s.order);
            for (color, clusters) in s.color_clusters.iter().enumerate() {
                for cluster in clusters {
                    assert!(!cluster.is_empty(), "color {color} has an empty cluster");
                    for &v in cluster {
                        assert_eq!(s.decomposition.color[v.index()], color as u32);
                    }
                }
            }
        }
    }

    /// A locality-1 kernel whose value at `v` depends on the pins of
    /// `v`'s neighbors and `v`'s private randomness — enough to expose
    /// any divergence between the parallel and sequential scans.
    #[derive(Clone)]
    struct ParityKernel;

    impl crate::slocal::SlocalKernel for ParityKernel {
        fn process(
            &self,
            net: &Network,
            sigma: &lds_gibbs::PartialConfig,
            v: lds_graph::NodeId,
        ) -> (lds_gibbs::Value, bool) {
            use rand::Rng;
            let g = net.instance().model().graph();
            let occupied = g
                .neighbors(v)
                .filter(|&&w| sigma.get(w) == Some(lds_gibbs::Value(1)))
                .count();
            let coin = net.node_rng(v, 7).gen_bool(0.5) as usize;
            (lds_gibbs::Value::from_index((occupied + coin) % 2), false)
        }
    }

    #[test]
    fn chromatic_kernel_run_matches_sequential_scan_bitwise() {
        use crate::slocal::run_scan_sequential;
        let never = CancelToken::never();
        for seed in 0..4 {
            let net = net(5, seed);
            let s = chromatic_schedule(&net, 1, 0);
            let seq = run_scan_sequential(&net, &ParityKernel, &s.order, &never).unwrap();
            for threads in [1, 2, 8] {
                let (par, _) = run_kernel_chromatic(
                    &net,
                    &ParityKernel,
                    &s,
                    &ThreadPool::new(threads),
                    &never,
                )
                .unwrap();
                assert_eq!(par.outputs, seq.outputs, "seed {seed} threads {threads}");
                assert_eq!(par.failures, seq.failures);
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
        assert!(!d.is_complete());
        assert_eq!(d.failed.iter().filter(|&&f| f).count(), g.node_count());
    }
}
