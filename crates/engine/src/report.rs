//! Typed tasks and the uniform response types.

use std::time::Duration;

use lds_core::glauber::GlauberStats;
use lds_core::jvv::JvvStats;
use lds_gibbs::{Config, Value};
use lds_graph::{EdgeId, HyperEdgeId, NodeId};
pub use lds_runtime::Phase;

use crate::backend::ServedBackend;

/// One request against a built [`crate::Engine`].
///
/// The four task kinds are exactly the paper's equivalence class of
/// local computations: exact sampling (Theorem 4.2), approximate
/// sampling (Theorem 3.2), approximate inference (Section 2 /
/// Theorem 5.1), and counting (chain rule).
///
/// `Task` is `Eq + Hash` (it is float-free by construction) so serving
/// layers can key in-flight dedup and idempotency-cache entries by
/// `(fingerprint, Task, seed)` — see `lds-serve`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// Draw one exact sample via `local-JVV` (Theorem 4.2). Exactness is
    /// conditional on [`RunReport::succeeded`], which holds with
    /// probability at least `e^{−5n²ε}` on `n` carrier nodes (the
    /// rejection slack is `s = e^{−3nε}`). At the default `ε = 0.01`
    /// runs beyond a few dozen nodes almost never succeed: `succeeded`
    /// was `false` for 300 of 300 seeds on cycle(128) and on torus(4,4),
    /// and for 288 of 300 on cycle(10). The paper's `ε = 1/n³`
    /// ([`LocalJvv::paper_epsilon`](lds_core::jvv::LocalJvv::paper_epsilon))
    /// gives success probability `1 − O(1/n)`.
    SampleExact,
    /// Draw one approximate sample (total-variation error `δ`) via the
    /// Theorem 3.2 chain-rule sampler under the LOCAL scheduler.
    SampleApprox,
    /// Estimate the conditional marginal `μ^τ_v` and report the
    /// probability of `value` at `vertex` (multiplicative error `ε`).
    ///
    /// Reads no randomness: the engine computes each vertex's marginal
    /// once, on first use, and answers later requests from that entry
    /// of its marginal table. The report only echoes the seed.
    Infer {
        /// The carrier-graph vertex to infer at.
        vertex: NodeId,
        /// The spin/color whose probability to report.
        value: Value,
    },
    /// Estimate `ln Z^τ` by the chain rule over a multiplicative oracle.
    ///
    /// Reads no randomness: the engine runs the estimator once, on first
    /// use, and answers later requests (a typed failure included) from
    /// that result. The report only echoes the seed.
    Count,
}

/// Decoded form of a sampled configuration, for models whose carrier
/// graph is not the input topology.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleDecode {
    /// The configuration itself is the answer (vertex models).
    Spins,
    /// Line-graph configuration decoded to base-graph matching edges.
    Matching(Vec<EdgeId>),
    /// Intersection-graph configuration decoded to hyperedges.
    HypergraphMatching(Vec<HyperEdgeId>),
}

/// The task-specific payload of a [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum TaskOutput {
    /// A sampled configuration on the carrier graph plus its decoding.
    Sample {
        /// The configuration (indexes carrier-graph nodes).
        config: Config,
        /// Model-specific decoding of `config`.
        decoded: SampleDecode,
    },
    /// An estimated marginal distribution at one vertex.
    Marginal {
        /// The full length-`q` probability vector.
        distribution: Vec<f64>,
        /// The probability of the requested value.
        probability: f64,
    },
    /// A partition-function estimate.
    Count {
        /// The estimate of `ln Z^τ`.
        log_z: f64,
        /// The chain rule's bound on `|ln Ẑ − ln Z|`: free nodes × ε. It
        /// holds only if every chain answer met ε, which nothing checks
        /// yet: a query whose walk ran out of budget can miss it.
        log_error_bound: f64,
    },
}

/// The uniform response of every engine task.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The task that produced this report.
    pub task: Task,
    /// The seed this execution ran with.
    pub seed: u64,
    /// The task-specific output.
    pub output: TaskOutput,
    /// Whether every node succeeded (for [`Task::SampleExact`],
    /// exactness of the output distribution is conditional on this).
    pub succeeded: bool,
    /// Simulated LOCAL rounds (for sampling tasks: the scheduler's
    /// round count; for inference/counting: the gather radius).
    pub rounds: usize,
    /// The paper's round bound for this model, evaluated with the
    /// calibration constant 3 so the measured schedule cost stays below
    /// it (the round ledger treats a crossing as a hard error).
    pub bound_rounds: f64,
    /// The SSM decay rate used for radius planning.
    pub rate: f64,
    /// Which sampling backend actually served this run. Oracle-driven
    /// paths (local-JVV, the chain-rule sampler, inference, counting)
    /// report [`ServedBackend::Exact`]; a Glauber-served
    /// [`Task::SampleApprox`] reports its resolved sweep count.
    pub backend: ServedBackend,
    /// JVV execution statistics (exact sampling only).
    pub stats: Option<JvvStats>,
    /// Glauber mixing diagnostics (Glauber-served sampling only):
    /// sweeps, total site updates, and the final sweep's change count.
    pub glauber: Option<GlauberStats>,
    /// Wall-clock time of the execution.
    pub wall_time: Duration,
    /// Per-phase wall-clock and simulated-round breakdown. The phase
    /// rounds sum to [`RunReport::rounds`]; the phase wall times are
    /// bounded by [`RunReport::wall_time`].
    pub phases: Vec<Phase>,
}

impl RunReport {
    /// The sampled configuration, if this was a sampling task.
    pub fn config(&self) -> Option<&Config> {
        match &self.output {
            TaskOutput::Sample { config, .. } => Some(config),
            _ => None,
        }
    }

    /// The decoded matching edges, if this was a matching sample.
    pub fn matching_edges(&self) -> Option<&[EdgeId]> {
        match &self.output {
            TaskOutput::Sample {
                decoded: SampleDecode::Matching(edges),
                ..
            } => Some(edges),
            _ => None,
        }
    }

    /// The decoded hyperedges, if this was a hypergraph matching sample.
    pub fn hyperedges(&self) -> Option<&[HyperEdgeId]> {
        match &self.output {
            TaskOutput::Sample {
                decoded: SampleDecode::HypergraphMatching(edges),
                ..
            } => Some(edges),
            _ => None,
        }
    }

    /// The estimated marginal distribution, if this was an inference
    /// task.
    pub fn marginal(&self) -> Option<&[f64]> {
        match &self.output {
            TaskOutput::Marginal { distribution, .. } => Some(distribution),
            _ => None,
        }
    }

    /// The `ln Z` estimate, if this was a counting task.
    pub fn log_z(&self) -> Option<f64> {
        match &self.output {
            TaskOutput::Count { log_z, .. } => Some(*log_z),
            _ => None,
        }
    }

    /// The rejection acceptance product, if this was an exact sample.
    pub fn acceptance(&self) -> Option<f64> {
        self.stats.as_ref().map(|s| s.acceptance_product)
    }

    /// The Glauber sweep count, if Glauber served this run.
    pub fn glauber_sweeps(&self) -> Option<u32> {
        match self.backend {
            ServedBackend::Glauber { sweeps } => Some(sweeps),
            ServedBackend::Exact => None,
        }
    }

    /// Semantic equality: every field the determinism contract covers,
    /// ignoring the wall-clock times (`wall_time`, per-phase
    /// `wall_time`) that legitimately vary between runs of the same
    /// `(fingerprint, task, seed)`. Floats are compared bit-for-bit: the
    /// contract is bit-identical outputs, not approximate agreement.
    ///
    /// This is the one definition of "same answer" the determinism,
    /// serving, and net round-trip tests all share; an ad-hoc exclusion
    /// list in a test is a future false positive.
    pub fn semantic_eq(&self, other: &RunReport) -> bool {
        let jvv_eq = match (&self.stats, &other.stats) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.acceptance_product.to_bits() == b.acceptance_product.to_bits()
                    && a.clamped == b.clamped
                    && a.repair_failures == b.repair_failures
                    && a.locality == b.locality
            }
            _ => false,
        };
        let phases_eq = self.phases.len() == other.phases.len()
            && self
                .phases
                .iter()
                .zip(&other.phases)
                .all(|(a, b)| a.name == b.name && a.rounds == b.rounds);
        self.task == other.task
            && self.seed == other.seed
            && self.output == other.output
            && self.succeeded == other.succeeded
            && self.rounds == other.rounds
            && self.bound_rounds.to_bits() == other.bound_rounds.to_bits()
            && self.rate.to_bits() == other.rate.to_bits()
            && self.backend == other.backend
            && jvv_eq
            && self.glauber == other.glauber
            && phases_eq
    }
}

/// How a [`MarginalsReport`] was computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MarginalsMethod {
    /// Independent per-vertex multiplicative-oracle queries, each with
    /// relative error `ε` ([`crate::Engine::marginals`]).
    Exact {
        /// The multiplicative error target of each query.
        epsilon: f64,
    },
    /// The Theorem 3.4 sampling ⟹ inference reduction: empirical
    /// frequencies over repeated approximate-sampler executions
    /// ([`crate::Engine::marginals_sampled`]).
    Sampled {
        /// Sampler executions averaged over.
        repetitions: usize,
        /// Fraction of executions with at least one failed node (the
        /// `ε₀` additive term of the paper's error bound).
        failure_rate: f64,
        /// The per-execution total-variation budget `δ`.
        delta: f64,
    },
}

/// Structured result of a whole-table marginals request, mirroring
/// [`RunReport`]: the per-node tables plus how they were produced and
/// the phase timings. Returned by [`crate::Engine::marginals`] and
/// [`crate::Engine::marginals_sampled`].
#[derive(Clone, Debug)]
pub struct MarginalsReport {
    /// How the table was computed, with its error parameters.
    pub method: MarginalsMethod,
    /// Per-node probability tables, indexed by carrier node id; each
    /// inner vector has the alphabet's length and sums to 1 (up to the
    /// method's error).
    pub marginals: Vec<Vec<f64>>,
    /// Simulated LOCAL rounds (exact: the oracle gather radius; sampled:
    /// the scheduler's round count of one sampler execution).
    pub rounds: usize,
    /// Wall-clock time of the whole request.
    pub wall_time: Duration,
    /// Per-phase wall-clock breakdown, like [`RunReport::phases`].
    pub phases: Vec<Phase>,
}

impl MarginalsReport {
    /// The marginal table at one carrier node, if in range.
    pub fn marginal(&self, v: NodeId) -> Option<&[f64]> {
        self.marginals.get(v.index()).map(Vec::as_slice)
    }

    /// Number of carrier nodes in the table.
    pub fn len(&self) -> usize {
        self.marginals.len()
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.marginals.is_empty()
    }
}
