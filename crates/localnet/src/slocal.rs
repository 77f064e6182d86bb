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
//! [`run_scan_sequential`]. Lifted to LOCAL by Lemma 3.1, a pass is the
//! same scan over a chromatic schedule's ordering
//! ([`crate::scheduler`]). Kernels are trusted (and tested) to respect
//! their declared locality. The accompanying helper
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
/// kernel exposes only that per-node step; the blanket [`ScanKernel`]
/// impl supplies the pinning state and the fold.
///
/// Contract (trusted): `process` may depend only on the instance within
/// the algorithm's locality of `v`, the pins of `sigma` within that
/// radius, and `v`'s private randomness from `net` — the SLOCAL locality
/// that Lemma 3.1 turns into a LOCAL round bound.
pub trait SlocalKernel {
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
/// [`run_scan_sequential`] drives both shapes.
///
/// Contract: `process(net, state, v)` reads and writes `state` only
/// within the kernel's declared locality of `v`, and `finish` folds the
/// effects in scan order.
pub trait ScanKernel {
    /// Scan state threaded through the ordering.
    type State;
    /// Per-node result, folded by [`ScanKernel::finish`].
    type Effect;
    /// The folded result of a full scan.
    type Run;

    /// The scan's initial state.
    fn init(&self, net: &Network) -> Self::State;

    /// Processes node `v` against `state`, mutating it. Returns `None`
    /// when the node is skipped (e.g. pinned by the instance).
    fn process(&self, net: &Network, state: &mut Self::State, v: NodeId) -> Option<Self::Effect>;

    /// Folds the final state and the effects (in scan order) into the
    /// run result.
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
/// clock) costs `O(n / CANCEL_CHECK_STRIDE)` clock reads, not `O(n)`.
const CANCEL_CHECK_STRIDE: usize = 256;

/// Runs any [`ScanKernel`] as the classic sequential SLOCAL scan over
/// `order`: initialize the state, process each node in order, fold the
/// effects. Pinning-extension kernels skip nodes pinned by the instance,
/// which keep their pinned value. Every pass runs here; a LOCAL pass
/// (Lemma 3.1) is this scan over
/// [`ChromaticSchedule::order`](crate::scheduler::ChromaticSchedule::order).
///
/// `order` must visit every free node (schedule orderings do). `cancel`
/// is checked before every `CANCEL_CHECK_STRIDE` nodes and once more
/// after the last, so a scan that runs past its deadline fails however
/// short it is. Checks consume no randomness, so a scan that completes
/// is bit-identical to one under [`CancelToken::never`], and a cancelled
/// scan returns `Err(`[`Cancelled`]`)` with no partial result.
pub fn run_scan_sequential<K: ScanKernel + ?Sized>(
    net: &Network,
    kernel: &K,
    order: &[NodeId],
    cancel: &CancelToken,
) -> Result<K::Run, Cancelled> {
    let mut state = kernel.init(net);
    let mut effects = Vec::with_capacity(order.len());
    for chunk in order.chunks(CANCEL_CHECK_STRIDE) {
        cancel.check()?;
        for &v in chunk {
            if let Some(e) = ScanKernel::process(kernel, net, &mut state, v) {
                effects.push((v, e));
            }
        }
    }
    cancel.check()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;
    use lds_gibbs::models::hardcore;
    use lds_graph::generators;
    use std::time::{Duration, Instant};

    /// Pins every node to 0 and, while processing `last`, waits until
    /// `deadline` has passed.
    struct PassDeadlineAt {
        deadline: Instant,
        last: NodeId,
    }

    impl SlocalKernel for PassDeadlineAt {
        fn process(&self, _net: &Network, _sigma: &PartialConfig, v: NodeId) -> (Value, bool) {
            if v == self.last {
                std::thread::sleep(self.deadline.saturating_duration_since(Instant::now()));
            }
            (Value(0), false)
        }
    }

    #[test]
    fn a_scan_cancelled_at_its_last_node_returns_cancelled() {
        let g = generators::path(10);
        let net = Network::new(Instance::unconditioned(hardcore::model(&g, 1.0)), 1);
        let order: Vec<NodeId> = g.nodes().collect();
        let deadline = Instant::now() + Duration::from_millis(200);
        let cancel = CancelToken::with_deadline_opt(Some(deadline));
        let kernel = PassDeadlineAt {
            deadline,
            last: order[9],
        };
        assert_eq!(
            run_scan_sequential(&net, &kernel, &order, &cancel).map(|run| run.outputs),
            Err(Cancelled)
        );
        // the same scan under a token without a deadline completes
        let never = CancelToken::never();
        assert!(run_scan_sequential(&net, &kernel, &order, &never).is_ok());
    }

    #[test]
    fn multipass_locality_matches_lemma() {
        assert_eq!(multipass_locality(&[]), 0);
        assert_eq!(multipass_locality(&[3]), 3);
        assert_eq!(multipass_locality(&[3, 2, 1]), 3 + 2 * 3);
    }
}
