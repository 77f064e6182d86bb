//! The SLOCAL model (Ghaffari–Kuhn–Maus).
//!
//! An SLOCAL algorithm with locality `r` scans the nodes in an arbitrary
//! adversarial ordering `π = (v_1, ..., v_n)`; when processing `v_i` it
//! reads the states of all nodes within distance `r`, performs unbounded
//! computation, updates its own state and fixes its output (paper,
//! Section 3).
//!
//! In this simulator an SLOCAL algorithm is a [`ScanKernel`]: a per-node
//! step over an explicit scan state, driven along the ordering by
//! [`run_scan_sequential`] (or, lifted to LOCAL by Lemma 3.1, by
//! [`crate::scheduler::run_kernel_chromatic`]). Kernels are trusted (and
//! tested) to respect their declared locality. The accompanying helper
//! [`multipass_locality`] implements the locality arithmetic of the
//! paper's Lemma 4.4: a `k`-pass SLOCAL algorithm with per-pass localities
//! `r_1, ..., r_k` collapses to a single pass with locality
//! `r_1 + 2·(r_2 + ... + r_k)`, and write-radius `w` folds into `r + w`.

use lds_gibbs::{PartialConfig, Value};
use lds_graph::NodeId;
use lds_runtime::{CancelToken, Cancelled};

use crate::Network;

/// Result of a sequential SLOCAL execution.
#[derive(Clone, Debug)]
pub struct SlocalRun<T> {
    /// Per-node outputs `Y_v` indexed by node id.
    pub outputs: Vec<T>,
    /// Per-node failure bits `F′_v` indexed by node id.
    pub failures: Vec<bool>,
}

impl<T> SlocalRun<T> {
    /// Returns `true` if no node failed.
    pub fn succeeded(&self) -> bool {
        self.failures.iter().all(|&f| !f)
    }
}

/// A *pinning-extension* SLOCAL algorithm, factored into its per-node
/// kernel.
///
/// Most of the paper's sequential algorithms (the Theorem 3.2 chain-rule
/// sampler, `local-JVV`'s ground-state and sampling passes) share one
/// shape: the scan state is exactly the pinning of already-processed
/// nodes, and processing node `v_i` computes a [`Value`] from the pins
/// within distance `r` of `v_i` plus `v_i`'s private randomness. A
/// kernel exposes that per-node step so the chromatic scheduler can
/// simulate same-color clusters **concurrently** (Lemma 3.1's parallel
/// cluster simulation, [`crate::scheduler::run_kernel_chromatic`])
/// instead of scanning the ordering one node at a time.
///
/// Contract (trusted): `process` may depend only on the instance within
/// the algorithm's locality of `v`, the pins of `sigma` within that
/// radius, and `v`'s private randomness from `net`. Under that contract
/// the concurrent simulation is execution-equivalent to
/// [`run_scan_sequential`] on the schedule's ordering — property-tested
/// in `tests/parallel.rs`.
pub trait SlocalKernel: Sync {
    /// Computes node `v`'s output from the pins of previously processed
    /// nodes. Returns the value and a Las Vegas failure bit.
    fn process(&self, net: &Network, sigma: &PartialConfig, v: NodeId) -> (Value, bool);
}

/// The general SLOCAL scan kernel: explicit scan state, per-node
/// effects, and a fold into the final run result.
///
/// [`SlocalKernel`] covers the pinning-extension shape (state = the
/// pinning of processed nodes, effect = the pinned value); passes whose
/// scan state is richer — `local-JVV`'s rejection pass threads a full
/// feasible configuration `σ_{i−1}` through the scan and accumulates
/// acceptance statistics — implement `ScanKernel` directly. Every
/// `SlocalKernel` is a `ScanKernel` through a blanket impl, so
/// [`crate::scheduler::run_kernel_chromatic`] drives both shapes with
/// one engine.
///
/// Contract (what makes the chromatic cluster-parallel simulation
/// execution-equivalent to the sequential scan):
///
/// * `process(net, state, v)` must mutate `state` exactly as the
///   sequential scan would, and its reads/writes of `state` must stay
///   within the kernel's declared locality of `v`;
/// * `apply(state, v, effect)` must reproduce on another state the state
///   mutation `process` performed (the runner replays cluster-local
///   effects onto the global state, in schedule order);
/// * `finish` folds the effects **in schedule order**, so any
///   order-sensitive accumulation (e.g. a floating-point product) sees
///   the same operation sequence at every pool width.
pub trait ScanKernel: Sync {
    /// Scan state threaded through the ordering (cloned per concurrent
    /// cluster by the chromatic runner).
    type State: Clone + Send + Sync + 'static;
    /// Per-node result, replayable onto a state via
    /// [`ScanKernel::apply`].
    type Effect: Send + 'static;
    /// The folded result of a full scan.
    type Run;

    /// The scan's initial state.
    fn init(&self, net: &Network) -> Self::State;

    /// Processes node `v` against `state`, mutating it exactly as the
    /// sequential scan would. Returns `None` when the node is skipped
    /// (e.g. pinned by the instance).
    fn process(&self, net: &Network, state: &mut Self::State, v: NodeId) -> Option<Self::Effect>;

    /// Replays the state mutation of a `process(.., v)` that returned
    /// `effect` onto another state.
    fn apply(&self, state: &mut Self::State, v: NodeId, effect: &Self::Effect);

    /// Restricts the scan state to a cluster's halo (the cluster's
    /// members plus their radius-`r` boundary, `r` the schedule
    /// locality): the returned state must make `process` behave
    /// **bit-identically** for any node whose state reads stay inside
    /// `halo`, and processing such nodes must confine its state writes
    /// to `halo` as well. The chromatic runner ships one projection per
    /// concurrent cluster instead of a full snapshot clone.
    ///
    /// The default is a full copy — correct for every kernel, so
    /// existing kernels keep compiling; kernels on the hot path override
    /// it (and [`ScanKernel::projected_bytes`]) with a real restriction
    /// so the per-cluster payload is `O(|halo|)`, not `O(n)`.
    fn project(&self, state: &Self::State, halo: &[NodeId]) -> Self::State {
        let _ = halo;
        state.clone()
    }

    /// [`ScanKernel::project`] into a reusable scratch state — the
    /// arena path that amortizes per-round allocations across colors.
    ///
    /// Contract: `scratch` was produced by a previous
    /// `project`/`project_into` of **this kernel** for the halo `stale`
    /// and then mutated only inside `stale` (the write half of the
    /// `project` contract). The implementation must erase the stale
    /// slots before (or by) filling the new halo. The default discards
    /// the scratch and allocates a fresh projection.
    fn project_into(
        &self,
        state: &Self::State,
        halo: &[NodeId],
        scratch: &mut Self::State,
        stale: &[NodeId],
    ) {
        let _ = stale;
        *scratch = self.project(state, halo);
    }

    /// Telemetry: approximate bytes of scan state copied when shipping
    /// one cluster's projection, on an `n`-node instance with a
    /// `halo`-node halo. Must mirror [`ScanKernel::project`]: the
    /// default full copy accounts the whole dense state; a real
    /// restriction accounts only the halo slots. The runner sums this
    /// into [`crate::scheduler::ShardingStats`] and CI gates the sum
    /// against the halo bound, so a kernel silently falling back to
    /// full copies is caught.
    fn projected_bytes(&self, n: usize, halo: usize) -> u64 {
        let _ = halo;
        (n * core::mem::size_of::<usize>()) as u64
    }

    /// Folds the final state and the effects (in schedule order) into
    /// the run result.
    fn finish(
        &self,
        net: &Network,
        state: Self::State,
        effects: Vec<(NodeId, Self::Effect)>,
    ) -> Self::Run;
}

/// Every pinning-extension kernel is a [`ScanKernel`] whose state is the
/// pinning of processed nodes: processing pins the computed value, the
/// effect is `(value, failure)`, and the fold reads the outputs off the
/// fully pinned state.
impl<K: SlocalKernel + ?Sized> ScanKernel for K {
    type State = PartialConfig;
    type Effect = (Value, bool);
    type Run = SlocalRun<Value>;

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
        let (val, fail) = SlocalKernel::process(self, net, state, v);
        state.pin(v, val);
        Some((val, fail))
    }

    fn apply(&self, state: &mut PartialConfig, v: NodeId, &(val, _): &(Value, bool)) {
        state.pin(v, val);
    }

    /// Halo restriction of a pinning state: only the halo's pins are
    /// copied. Sound because a pinning-extension kernel reads pins
    /// within its locality of the processed node and pins only the node
    /// itself — both inside the halo by the schedule's construction.
    fn project(&self, state: &PartialConfig, halo: &[NodeId]) -> PartialConfig {
        let mut p = PartialConfig::empty(state.len());
        for &v in halo {
            if let Some(val) = state.get(v) {
                p.pin(v, val);
            }
        }
        p
    }

    fn project_into(
        &self,
        state: &PartialConfig,
        halo: &[NodeId],
        scratch: &mut PartialConfig,
        stale: &[NodeId],
    ) {
        // every pin in the scratch — projected halo pins and the pins
        // made while processing its cluster — lies inside the stale halo
        for &v in stale {
            scratch.unpin(v);
        }
        debug_assert_eq!(scratch.pinned_count(), 0, "scratch escaped its stale halo");
        for &v in halo {
            if let Some(val) = state.get(v) {
                scratch.pin(v, val);
            }
        }
    }

    fn projected_bytes(&self, _n: usize, halo: usize) -> u64 {
        (halo * core::mem::size_of::<Option<Value>>()) as u64
    }

    fn finish(
        &self,
        net: &Network,
        state: PartialConfig,
        effects: Vec<(NodeId, (Value, bool))>,
    ) -> SlocalRun<Value> {
        let n = net.node_count();
        let mut failures = vec![false; n];
        for (v, (_, fail)) in effects {
            failures[v.index()] = fail;
        }
        let outputs: Vec<Value> = (0..n)
            .map(|i| {
                state
                    .get(NodeId::from_index(i))
                    .expect("scan visits every free node")
            })
            .collect();
        SlocalRun { outputs, failures }
    }
}

/// How many nodes the sequential scan processes between cancellation
/// checks. Chunked so a real deadline token (whose check reads the
/// clock) costs `O(n / CHUNK)` clock reads, not `O(n)`.
const CANCEL_CHECK_STRIDE: usize = 256;

/// Runs any [`ScanKernel`] as the classic sequential SLOCAL scan over
/// `order`: initialize the state, process each node in order, fold the
/// effects. Pinning-extension kernels skip nodes pinned by the instance,
/// which keep their pinned value.
///
/// `order` must visit every free node (schedule orderings do). `cancel`
/// is checked every `CANCEL_CHECK_STRIDE` nodes; checks consume no
/// randomness, so a scan that completes is bit-identical to one under
/// [`CancelToken::never`], and a cancelled scan returns
/// `Err(`[`Cancelled`]`)` with no partial result.
pub fn run_scan_sequential<K: ScanKernel + ?Sized>(
    net: &Network,
    kernel: &K,
    order: &[NodeId],
    cancel: &CancelToken,
) -> Result<K::Run, Cancelled> {
    let mut state = kernel.init(net);
    let mut effects = Vec::new();
    for chunk in order.chunks(CANCEL_CHECK_STRIDE) {
        cancel.check()?;
        for &v in chunk {
            if let Some(e) = ScanKernel::process(kernel, net, &mut state, v) {
                effects.push((v, e));
            }
        }
    }
    Ok(kernel.finish(net, state, effects))
}

/// Locality of the single-pass equivalent of a multi-pass SLOCAL
/// algorithm (paper, Lemma 4.4(2)): `r_1 + 2·Σ_{i≥2} r_i`.
pub fn multipass_locality(pass_localities: &[usize]) -> usize {
    match pass_localities.split_first() {
        None => 0,
        Some((first, rest)) => first + 2 * rest.iter().sum::<usize>(),
    }
}

/// Locality after allowing writes into neighbors' memories within radius
/// `w` (paper, Lemma 4.4(1)): reads of radius `r` become `r + w`.
pub fn write_radius_locality(read: usize, write: usize) -> usize {
    read + write
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipass_locality_matches_lemma() {
        assert_eq!(multipass_locality(&[]), 0);
        assert_eq!(multipass_locality(&[3]), 3);
        assert_eq!(multipass_locality(&[3, 2, 1]), 3 + 2 * 3);
    }

    #[test]
    fn write_radius_adds() {
        assert_eq!(write_radius_locality(4, 2), 6);
    }
}
