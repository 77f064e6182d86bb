//! The engine: build-time validation, oracle dispatch, task serving.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lds_core::counting::{self, CountError};
use lds_core::{complexity, glauber, jvv, regime, sampler, sampling_to_inference};
use lds_gibbs::models::hypergraph_matching::HypergraphMatchingInstance;
use lds_gibbs::models::ising::IsingParams;
use lds_gibbs::models::matching::MatchingInstance;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_gibbs::models::{coloring, hardcore, two_spin};
use lds_gibbs::{Config, PartialConfig};
use lds_graph::{Graph, Hypergraph, NodeId};
use lds_localnet::scheduler::{self, ChromaticSchedule};
use lds_localnet::{Instance, Network};
use lds_oracle::{DecayRate, EnumerationOracle, Oracle, Target, TwoSpinSawOracle};
use lds_runtime::{CancelToken, Cancelled, Phase, ThreadPool};

use crate::backend::{self, ApproxPath, Backend, ServedBackend, SweepBudget};
use crate::error::EngineError;
use crate::report::{MarginalsMethod, MarginalsReport, RunReport, SampleDecode, Task, TaskOutput};
use crate::spec::{ModelSpec, Topology};

/// How a carrier-graph configuration maps back to the input topology.
enum Decoder {
    /// Vertex models: the configuration is the answer.
    Spins,
    /// Matchings: decode line-graph occupation to base edges.
    Matching(MatchingInstance),
    /// Hypergraph matchings: decode intersection-graph occupation to
    /// hyperedges.
    Hypergraph(HypergraphMatchingInstance),
}

/// The unified facade: one validated instance serving every task kind.
///
/// Built once via [`Engine::builder`] — model construction, oracle
/// selection, and the uniqueness-regime check all happen in
/// [`EngineBuilder::build`] — then serves any number of typed
/// [`Task`]s, each returning a uniform [`RunReport`]. Each sampling path
/// draws its chromatic schedule (Lemma 3.1) on its first request and
/// scans that one schedule in every later request. [`Task::Infer`] and
/// [`Task::Count`] read no randomness, so the engine answers each one
/// once, on first use, and looks the answer up after.
///
/// # Example
///
/// ```
/// use lds_engine::{Engine, ModelSpec, Task};
/// use lds_graph::generators;
///
/// let engine = Engine::builder()
///     .model(ModelSpec::Hardcore { lambda: 1.0 })
///     .graph(generators::cycle(10))
///     .epsilon(0.001)
///     .seed(42)
///     .build()
///     .expect("λ = 1 is below λ_c(2) = ∞");
/// let report = engine.run(Task::SampleExact).unwrap();
/// assert_eq!(report.config().unwrap().len(), 10);
/// ```
pub struct Engine {
    spec: ModelSpec,
    topology: Topology,
    instance: Arc<Instance>,
    oracle: Box<dyn Oracle + Send + Sync>,
    decoder: Decoder,
    rate: f64,
    bound_rounds: f64,
    epsilon: f64,
    delta: f64,
    seed: u64,
    /// The requested sampling backend.
    backend: Backend,
    /// How `SampleApprox` executes, resolved once at build time; `Err`
    /// records the failed Glauber certificate of a forced out-of-regime
    /// Glauber request (surfaced as
    /// [`EngineError::BackendUnavailable`] when the task is requested).
    approx: Result<ApproxPath, regime::OutOfRegime>,
    /// The chromatic schedule `SampleExact` scans, drawn on first use
    /// (see [`Engine::schedule`]).
    exact_schedule: OnceLock<ChromaticSchedule>,
    /// The chromatic schedule of the resolved `SampleApprox` path (chain
    /// rule or Glauber), drawn on first use.
    approx_schedule: OnceLock<ChromaticSchedule>,
    /// The marginal table: one cell per carrier vertex holding `μ^τ_v`
    /// at `ε`, filled on first use (see [`Engine::marginal`]).
    /// `Task::Infer` and [`Engine::marginals`] both read it.
    marginal_table: Vec<OnceLock<Vec<f64>>>,
    /// `Task::Count`'s answer, `(ln Ẑ, log_error_bound)` or its typed
    /// failure, filled on first use.
    count: OnceLock<Result<(f64, f64), CountError>>,
    /// Stable identity of everything that determines task outputs
    /// (spec, topology, pinning, ε, δ, backend) — the engine half of a
    /// serving idempotency key; see [`Engine::fingerprint`].
    fingerprint: u64,
    /// The fan-out width of a first `Task::Count`, [`Engine::marginals`]
    /// and [`Engine::marginals_sampled`]; it owns no threads.
    pool: ThreadPool,
    /// Host hardware parallelism, cached at build time. The batch
    /// fan-out caps its lane count here: width beyond the physical
    /// cores buys nothing on the across-seeds path (the seeds are pure
    /// throughput work) and the extra lanes cost real time on small
    /// hosts. The other fan-outs keep the full width.
    host_lanes: usize,
}

/// Builder for [`Engine`]; see [`Engine::builder`].
#[derive(Default)]
pub struct EngineBuilder {
    spec: Option<ModelSpec>,
    topology: Option<Topology>,
    pinning: Option<PartialConfig>,
    epsilon: Option<f64>,
    delta: Option<f64>,
    seed: u64,
    threads: Option<usize>,
    backend: Option<Backend>,
    /// First invalid setter argument, recorded **at set time** so the
    /// rejection names the call that caused it instead of surfacing as
    /// a downstream regime error or panic; `build()` returns it.
    invalid: Option<EngineError>,
}

impl EngineBuilder {
    /// Sets the model specification (required).
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Sets the network graph (required for every model except
    /// hypergraph matchings).
    pub fn graph(mut self, g: Graph) -> Self {
        self.topology = Some(Topology::Graph(g));
        self
    }

    /// Sets the network hypergraph (required for hypergraph matchings).
    pub fn hypergraph(mut self, h: Hypergraph) -> Self {
        self.topology = Some(Topology::Hypergraph(h));
        self
    }

    /// Sets the topology from an already-typed [`Topology`] value — the
    /// hook deserialization layers (`lds-net`) use to rebuild an engine
    /// from a decoded substrate without matching on its kind.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Sets a pinning `τ` over the **carrier** node set (for edge
    /// models: the line/intersection graph). Defaults to the empty
    /// pinning.
    pub fn pinning(mut self, tau: PartialConfig) -> Self {
        self.pinning = Some(tau);
        self
    }

    /// Records an invalid setter argument; the **first** one wins and
    /// is what [`EngineBuilder::build`] returns.
    fn reject(&mut self, name: &'static str, message: String) {
        self.invalid
            .get_or_insert(EngineError::InvalidParameter { name, message });
    }

    /// Validates an error target at set time: NaN, `±∞`, zero, and
    /// negative values are rejected immediately (they would otherwise
    /// slip through comparisons as radius plans and surface as
    /// downstream panics or bogus regime errors).
    fn checked_error_target(&mut self, name: &'static str, x: f64) -> Option<f64> {
        if x.is_finite() && x > 0.0 {
            Some(x)
        } else {
            self.reject(
                name,
                format!("must be a positive finite error target, got {x}"),
            );
            None
        }
    }

    /// Sets the multiplicative oracle error `ε` used by exact sampling,
    /// inference, and counting (default `0.01`; the paper's exact-
    /// sampling instantiation is `ε = 1/n³`,
    /// [`LocalJvv::paper_epsilon`](lds_core::jvv::LocalJvv::paper_epsilon)).
    ///
    /// [`Task::SampleExact`] succeeds with probability at least
    /// `e^{−5n²ε}` on `n` carrier nodes, so at the default `ε` it almost
    /// never succeeds beyond a few dozen nodes (see [`Task::SampleExact`]
    /// for measured rates); pass the paper's `ε` when exact samples
    /// must succeed.
    ///
    /// Validated **at set time**: a NaN or non-positive value makes
    /// [`EngineBuilder::build`] fail with
    /// [`EngineError::InvalidParameter`] naming `epsilon`.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = self.checked_error_target("epsilon", eps);
        self
    }

    /// Sets the total-variation error `δ` of approximate sampling
    /// (default `0.05`).
    ///
    /// Validated **at set time**: a NaN or non-positive value makes
    /// [`EngineBuilder::build`] fail with
    /// [`EngineError::InvalidParameter`] naming `delta`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = self.checked_error_target("delta", delta);
        self
    }

    /// Sets the default network seed used by [`Engine::run`]
    /// (default `0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine's fan-out width: a first [`Task::Count`] fans its
    /// chain levels across that many lanes, [`Engine::marginals`] its
    /// per-vertex oracle queries, [`Engine::marginals_sampled`] its
    /// Monte Carlo executions, and [`Engine::run_batch`] its seeds
    /// (capped at the host's parallelism). Each fan-out spawns scoped
    /// helper threads and joins them before it returns, so an engine
    /// owns no threads between calls. A single sampling execution always
    /// runs sequentially. The width also sets how many requests a
    /// `lds-serve` `Server` over this engine runs at once: one session
    /// per lane.
    ///
    /// Every result is **bit-identical regardless of `n`** (randomness
    /// is derived per task, never shared — see `lds-runtime`);
    /// `threads(1)` recovers the fully sequential execution. Default:
    /// the `LDS_THREADS` environment variable if set, else
    /// `std::thread::available_parallelism()`.
    ///
    /// Validated **at set time**: `n == 0` makes
    /// [`EngineBuilder::build`] fail with
    /// [`EngineError::InvalidParameter`] (the pool needs at least the
    /// calling thread).
    pub fn threads(mut self, n: usize) -> Self {
        if n == 0 {
            self.reject("threads", "the pool needs at least one thread".into());
        }
        self.threads = Some(n);
        self
    }

    /// Sets the sampling backend serving [`Task::SampleApprox`]
    /// (default [`Backend::Exact`], the oracle-driven chain-rule path —
    /// exactly the pre-backend behavior).
    ///
    /// Validated **at set time** like `ε`/`δ`/`threads`: a zero fixed
    /// sweep budget makes [`EngineBuilder::build`] fail with
    /// [`EngineError::InvalidParameter`] naming `backend` (first
    /// invalid setter wins). Whether a Glauber request has a mixing
    /// certificate is checked at build time and surfaced as
    /// [`EngineError::BackendUnavailable`] only when `SampleApprox` is
    /// actually requested — the engine still serves every other task.
    pub fn backend(mut self, backend: Backend) -> Self {
        if let Backend::Glauber {
            sweeps: SweepBudget::Fixed(0),
        } = backend
        {
            self.reject(
                "backend",
                "a fixed Glauber sweep budget needs at least one sweep".into(),
            );
        }
        self.backend = Some(backend);
        self
    }

    /// Validates the request and builds the engine: checks the
    /// uniqueness regime once, constructs the Gibbs model on its
    /// carrier graph, selects the oracle, and verifies the pinning.
    ///
    /// # Errors
    ///
    /// [`EngineError::MissingModel`] / [`EngineError::MissingTopology`]
    /// on an incomplete request, [`EngineError::InvalidParameter`] on a
    /// bad `ε`/`δ` or a non-finite/out-of-domain model parameter,
    /// [`EngineError::OutOfRegime`] outside the proven regime,
    /// [`EngineError::PinningLength`] /
    /// [`EngineError::InfeasiblePinning`] on a bad pinning.
    pub fn build(self) -> Result<Engine, EngineError> {
        // a setter already rejected its argument: report that first,
        // before any missing-field diagnosis (the caller's earliest
        // mistake is the most useful one)
        if let Some(err) = self.invalid {
            return Err(err);
        }
        let spec = self.spec.ok_or(EngineError::MissingModel)?;
        let epsilon = self.epsilon.unwrap_or(0.01);
        let delta = self.delta.unwrap_or(0.05);
        validate_spec_parameters(&spec)?;
        let pool = self
            .threads
            .map_or_else(ThreadPool::from_env, ThreadPool::new);
        let topology = self.topology.ok_or(EngineError::MissingTopology {
            expected: spec.expected_topology(),
        })?;

        // regime check + model/oracle/decoder construction, per spec
        type BoxedOracle = Box<dyn Oracle + Send + Sync>;
        // The paper's round bounds are asymptotic; `bound_rounds`
        // evaluates them with this explicit constant so the realized
        // Linial–Saks schedule cost stays *below* the bound on every
        // run (the round ledger treats a crossing as a hard error).
        // The decomposition cost is only `O(log³ n)` w.h.p. — at
        // benchmark scale its fluctuation around the uncalibrated
        // formula reaches ~2.3× (worst over 500 seeds across all six
        // models), so constant 3 absorbs the tail with margin while
        // keeping the bound tight enough that a real complexity
        // regression (an extra log factor, a runaway locality) still
        // trips it.
        const BOUND_CALIBRATION: f64 = 3.0;
        let (model, oracle, decoder, rate, bound_rounds): (_, BoxedOracle, _, f64, f64) =
            match &spec {
                ModelSpec::Hardcore { lambda } => {
                    let g = require_graph(&topology)?;
                    let rate = regime::hardcore(g, *lambda)?.rate;
                    let bound = complexity::ssm_rounds_bound(
                        rate.min(0.95),
                        g.node_count(),
                        BOUND_CALIBRATION,
                    );
                    (
                        hardcore::model(g, *lambda),
                        Box::new(saw_oracle(TwoSpinParams::hardcore(*lambda), rate)),
                        Decoder::Spins,
                        rate,
                        bound,
                    )
                }
                ModelSpec::Matching { lambda } => {
                    let g = require_graph(&topology)?;
                    let rate = regime::matching(g, *lambda).rate;
                    let bound = complexity::matchings_rounds_bound(
                        g.max_degree(),
                        g.node_count(),
                        BOUND_CALIBRATION,
                    );
                    let inst = MatchingInstance::new(g, *lambda);
                    (
                        inst.model().clone(),
                        Box::new(saw_oracle(TwoSpinParams::hardcore(*lambda), rate)),
                        Decoder::Matching(inst),
                        rate,
                        bound,
                    )
                }
                ModelSpec::Ising { beta, field } => {
                    let g = require_graph(&topology)?;
                    let params = IsingParams::new(*beta, *field);
                    let rate = regime::ising(g, params)?.rate;
                    let bound =
                        complexity::ssm_rounds_bound(rate, g.node_count(), BOUND_CALIBRATION);
                    (
                        two_spin::model(g, params.to_two_spin()),
                        Box::new(saw_oracle(params.to_two_spin(), rate)),
                        Decoder::Spins,
                        rate,
                        bound,
                    )
                }
                ModelSpec::TwoSpin {
                    beta,
                    gamma,
                    lambda,
                    rate,
                } => {
                    let g = require_graph(&topology)?;
                    let params = TwoSpinParams::new(*beta, *gamma, *lambda);
                    let rate = regime::two_spin(params, *rate)?.rate;
                    let bound =
                        complexity::ssm_rounds_bound(rate, g.node_count(), BOUND_CALIBRATION);
                    (
                        two_spin::model(g, params),
                        Box::new(saw_oracle(params, rate)),
                        Decoder::Spins,
                        rate,
                        bound,
                    )
                }
                ModelSpec::Coloring { q } => {
                    let g = require_graph(&topology)?;
                    let rate = regime::coloring(g, *q)?.rate;
                    let bound = complexity::log3_rounds_bound(g.node_count(), BOUND_CALIBRATION);
                    (
                        coloring::model(g, *q),
                        Box::new(EnumerationOracle::new(DecayRate::new(
                            rate.clamp(1e-6, 0.95),
                            2.0,
                        ))),
                        Decoder::Spins,
                        rate,
                        bound,
                    )
                }
                ModelSpec::HypergraphMatching { lambda } => {
                    let h = topology.hypergraph().ok_or(EngineError::MissingTopology {
                        expected: "hypergraph",
                    })?;
                    // cheap threshold check first: reject before paying
                    // for the intersection graph
                    regime::hypergraph_matching_threshold(h, *lambda)?;
                    let inst = HypergraphMatchingInstance::new(h, *lambda);
                    let ig_delta = inst.intersection_graph().max_degree();
                    let rate = regime::hypergraph_matching(h, *lambda, ig_delta)?.rate;
                    let bound = complexity::log3_rounds_bound(h.node_count(), BOUND_CALIBRATION);
                    (
                        inst.model().clone(),
                        Box::new(saw_oracle(TwoSpinParams::hardcore(*lambda), rate)),
                        Decoder::Hypergraph(inst),
                        rate,
                        bound,
                    )
                }
            };

        let carrier_n = model.node_count();
        let pinning = match self.pinning {
            Some(tau) => {
                if tau.len() != carrier_n {
                    return Err(EngineError::PinningLength {
                        expected: carrier_n,
                        got: tau.len(),
                    });
                }
                tau
            }
            None => PartialConfig::empty(carrier_n),
        };
        let backend = self.backend.unwrap_or_default();
        let approx = backend::resolve_backend(backend, rate, carrier_n, epsilon, delta);
        // the engine half of the serving idempotency key: everything
        // that determines a (Task, seed) output, hashed once at build
        let fingerprint = {
            let mut h = crate::spec::mix(spec.fingerprint(), topology.fingerprint());
            h = crate::spec::mix(h, pinning.len() as u64);
            for (v, value) in pinning.pins() {
                h = crate::spec::mix(h, (v.index() as u64) << 32 | value.index() as u64);
            }
            h = crate::spec::mix(h, epsilon.to_bits());
            h = crate::spec::mix(h, delta.to_bits());
            let (tag, budget) = backend::fingerprint_words(backend);
            h = crate::spec::mix(h, tag);
            crate::spec::mix(h, budget)
        };
        let instance = Arc::new(Instance::new(model, pinning)?);

        Ok(Engine {
            spec,
            topology,
            instance,
            oracle,
            decoder,
            rate,
            bound_rounds,
            epsilon,
            delta,
            seed: self.seed,
            backend,
            approx,
            exact_schedule: OnceLock::new(),
            approx_schedule: OnceLock::new(),
            marginal_table: (0..carrier_n).map(|_| OnceLock::new()).collect(),
            count: OnceLock::new(),
            fingerprint,
            pool,
            host_lanes: ThreadPool::available().threads(),
        })
    }
}

fn require_graph(topology: &Topology) -> Result<&Graph, EngineError> {
    topology
        .graph()
        .ok_or(EngineError::MissingTopology { expected: "graph" })
}

/// Rejects non-finite or out-of-domain model parameters *before* they
/// reach the regime checks (NaN slips through `>=` comparisons) or the
/// model constructors (which `assert!` and would panic a documented-
/// fallible builder).
fn validate_spec_parameters(spec: &ModelSpec) -> Result<(), EngineError> {
    let finite_nonneg = |name: &'static str, x: f64| {
        if x.is_finite() && x >= 0.0 {
            Ok(())
        } else {
            Err(EngineError::InvalidParameter {
                name,
                message: format!("must be finite and nonnegative, got {x}"),
            })
        }
    };
    let finite = |name: &'static str, x: f64| {
        if x.is_finite() {
            Ok(())
        } else {
            Err(EngineError::InvalidParameter {
                name,
                message: format!("must be finite, got {x}"),
            })
        }
    };
    match *spec {
        ModelSpec::Hardcore { lambda }
        | ModelSpec::Matching { lambda }
        | ModelSpec::HypergraphMatching { lambda } => finite_nonneg("lambda", lambda),
        ModelSpec::Ising { beta, field } => {
            finite("beta", beta)?;
            finite("field", field)
        }
        ModelSpec::TwoSpin {
            beta,
            gamma,
            lambda,
            rate,
        } => {
            finite_nonneg("beta", beta)?;
            finite_nonneg("gamma", gamma)?;
            finite_nonneg("lambda", lambda)?;
            finite_nonneg("rate", rate)
        }
        ModelSpec::Coloring { q } => {
            if q == 0 {
                return Err(EngineError::InvalidParameter {
                    name: "q",
                    message: "need at least one color".into(),
                });
            }
            Ok(())
        }
    }
}

fn saw_oracle(params: TwoSpinParams, rate: f64) -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(params, DecayRate::new(rate.clamp(1e-6, 0.95), 2.0))
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("spec", &self.spec)
            .field("carrier_nodes", &self.instance.node_count())
            .field("oracle", &self.oracle_name())
            .field("rate", &self.rate)
            .field("epsilon", &self.epsilon)
            .field("delta", &self.delta)
            .field("seed", &self.seed)
            .field("threads", &self.pool.threads())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The model specification this engine was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The input topology (base graph or hypergraph).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The validated instance `(G, x, τ)` on the carrier graph.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Number of carrier-graph nodes (for edge models: line/intersection
    /// graph nodes, not base nodes).
    pub fn carrier_node_count(&self) -> usize {
        self.instance.node_count()
    }

    /// The SSM decay rate used for radius planning.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The multiplicative oracle error `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// A stable 64-bit fingerprint of everything that determines task
    /// outputs: the [`ModelSpec`] (kind + exact parameter bits), the
    /// topology (nodes + edges), the pinning, and the `ε`/`δ` error
    /// targets. Computed once at build time.
    ///
    /// Because every task's randomness derives from its seed alone,
    /// `(fingerprint, Task, seed)` fully identifies a [`RunReport`] up
    /// to wall-clock timing — serving layers (`lds-serve`) use exactly
    /// this triple as the idempotency-cache key. [`Task::Infer`] and
    /// [`Task::Count`] read no randomness at all: the engine answers
    /// each once, and their reports only echo the seed. The default seed
    /// of [`Engine::run`] and the pool width are deliberately excluded:
    /// neither changes any output bit.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The sampling backend this engine was built with (as requested:
    /// [`Backend::Auto`] is reported as `Auto`, not as its resolution).
    /// The backend that actually served a run is in
    /// [`RunReport::backend`].
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The engine's fan-out width (see [`EngineBuilder::threads`]).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The dispatched oracle's name.
    pub fn oracle_name(&self) -> &str {
        self.oracle.name()
    }

    /// Serves one task with the engine's default seed.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_with_seed`].
    pub fn run(&self, task: Task) -> Result<RunReport, EngineError> {
        self.run_with_seed(task, self.seed)
    }

    /// Serves one task with an explicit network seed. Sampling tasks run
    /// sequentially; a first [`Task::Count`] fans its chain marginals
    /// across [`Engine::threads`] lanes.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidTask`] for an out-of-range vertex/value in
    /// [`Task::Infer`]; [`EngineError::CountFailed`] — carrying the
    /// broken invariant — if the count estimator fails.
    pub fn run_with_seed(&self, task: Task, seed: u64) -> Result<RunReport, EngineError> {
        self.run_with_seed_on(task, seed, &self.pool, &CancelToken::never())
    }

    /// [`Engine::run_with_seed`] under an optional absolute deadline.
    ///
    /// The deadline is enforced cooperatively: checked at admission,
    /// which comes before a sampling path's first-use schedule draw,
    /// every 256 nodes of each sequential scan, and when each scan ends,
    /// so a sampling run whose last scan ends past the deadline misses
    /// it. The draw itself cannot be interrupted; once it finishes the
    /// schedule stays cached for later requests, whether or not this run
    /// makes its deadline.
    /// [`Task::Infer`] and [`Task::Count`] check the deadline only at
    /// admission: a request that finds its answer still being computed
    /// by an earlier request waits for that computation. The checks
    /// consume no randomness, so a run that completes in time is
    /// **bit-identical** to the same `(task, seed)` without a deadline.
    /// A run that misses its deadline returns
    /// [`EngineError::DeadlineExceeded`] and no partial report.
    pub fn run_with_deadline(
        &self,
        task: Task,
        seed: u64,
        deadline: Option<Instant>,
    ) -> Result<RunReport, EngineError> {
        self.run_with_seed_on(
            task,
            seed,
            &self.pool,
            &CancelToken::with_deadline_opt(deadline),
        )
    }

    /// Serves the same task once per seed. Seeds fan out across the
    /// engine's lanes (each seed's own execution, Count's chain
    /// marginals included, stays sequential so nested fan-out cannot
    /// oversubscribe the host) and the reports are gathered **in input
    /// order**; per-task randomness is derived from the seed alone, so
    /// the reports are bit-identical to a sequential run at any width.
    ///
    /// The fan-out runs on [`Engine::threads`] lanes capped at the
    /// host's hardware parallelism: on an across-seeds throughput path,
    /// lanes beyond the physical cores only add overhead (measured ~45%
    /// per sample at width 4 on a 1-core host), and the lane count
    /// cannot change results by the determinism contract of
    /// [`ThreadPool::par_map`].
    ///
    /// There is no deadline variant: a caller that needs one runs each
    /// seed through [`Engine::run_with_deadline`], which is what a
    /// `lds-serve` server does, one request per dispatch, so no serving
    /// path calls this.
    ///
    /// # Errors
    ///
    /// The first task error in seed order. Every seed runs before it is
    /// returned, and the reports of the other seeds are discarded.
    pub fn run_batch(&self, task: Task, seeds: &[u64]) -> Result<Vec<RunReport>, EngineError> {
        let (sequential, cancel) = (ThreadPool::sequential(), CancelToken::never());
        ThreadPool::new(self.threads().min(self.host_lanes))
            .par_map(seeds, |&seed| {
                self.run_with_seed_on(task, seed, &sequential, &cancel)
            })
            .into_iter()
            .collect()
    }

    /// Marginals at every carrier vertex with multiplicative error `ε`
    /// (the full inference table): the engine's marginal table, which
    /// [`Task::Infer`] reads too. The per-vertex lookups fan out across
    /// the engine's pool, in vertex order, and each entry no request has
    /// filled yet is filled there by an independent oracle query (the
    /// SAW tree's certified bounds, or boosted frontier pinning plus an
    /// exact ball marginal for colorings). Mirrors [`RunReport`]: the
    /// table rides in a [`MarginalsReport`] with the method
    /// ([`MarginalsMethod::Exact`]), the oracle gather radius as the
    /// round count, and the phase timing.
    pub fn marginals(&self) -> MarginalsReport {
        let start = Instant::now();
        let vertices: Vec<NodeId> = (0..self.marginal_table.len())
            .map(NodeId::from_index)
            .collect();
        let marginals = self.pool.par_map(&vertices, |&v| self.marginal(v).to_vec());
        let rounds = self.oracle_radius();
        let wall_time = start.elapsed();
        MarginalsReport {
            method: MarginalsMethod::Exact {
                epsilon: self.epsilon,
            },
            marginals,
            rounds,
            wall_time,
            phases: vec![Phase::new("oracle", wall_time, rounds)],
        }
    }

    /// The sampling ⟹ inference reduction (Theorem 3.4): reconstructs
    /// every carrier node's marginal from `repetitions` executions of
    /// the approximate sampler (seeds `seed0, seed0+1, …`). The
    /// per-node error is bounded by `δ + ε₀ + ` Monte Carlo noise,
    /// where `ε₀` is the reported failure rate — recorded, along with
    /// the repetition count and `δ`, in the report's
    /// [`MarginalsMethod::Sampled`].
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidParameter`] if `repetitions` is zero.
    pub fn marginals_sampled(
        &self,
        repetitions: usize,
        seed0: u64,
    ) -> Result<MarginalsReport, EngineError> {
        let start = Instant::now();
        if repetitions == 0 {
            return Err(EngineError::InvalidParameter {
                name: "repetitions",
                message: "need at least one sampler execution".into(),
            });
        }
        let net = Network::from_shared(Arc::clone(&self.instance), seed0);
        let run = sampling_to_inference::marginals_by_sampling(
            &net,
            &*self.oracle,
            self.delta,
            repetitions,
            seed0,
            &self.pool,
        );
        let wall_time = start.elapsed();
        Ok(MarginalsReport {
            method: MarginalsMethod::Sampled {
                repetitions: run.repetitions,
                failure_rate: run.failure_rate,
                delta: self.delta,
            },
            rounds: run.rounds,
            marginals: run.marginals,
            wall_time,
            phases: vec![Phase::new("sampling", wall_time, run.rounds)],
        })
    }

    /// [`Engine::run_with_seed`] on an explicit pool, which only a first
    /// [`Task::Count`]'s chain marginals use (the batch path
    /// parallelizes *across* seeds and passes a sequential pool to avoid
    /// nested thread fan-out).
    fn run_with_seed_on(
        &self,
        task: Task,
        seed: u64,
        pool: &ThreadPool,
        cancel: &CancelToken,
    ) -> Result<RunReport, EngineError> {
        let start = Instant::now();
        // admission: an already-expired deadline never starts the run
        cancel.check().map_err(|_| EngineError::DeadlineExceeded)?;
        // fail point at the task boundary: with the lds-chaos registry
        // armed, an `Error` fault here models the marginal oracle
        // failing at a chosen call index (Trigger::Nth picks which run)
        if let Some(fault) = lds_chaos::point("engine.oracle_error") {
            match fault {
                lds_chaos::Fault::Error(message) => return Err(EngineError::Faulted(message)),
                lds_chaos::Fault::Delay(d) => std::thread::sleep(d),
                lds_chaos::Fault::Panic => panic!("injected fault: engine.oracle_error"),
                _ => {}
            }
        }
        let model = self.instance.model();
        let net = Network::from_shared(Arc::clone(&self.instance), seed);
        let deadline = |_: Cancelled| EngineError::DeadlineExceeded;
        match task {
            Task::SampleExact => {
                let (schedule, wall) = self.schedule(&self.exact_schedule, || {
                    jvv::LocalJvv::new(&*self.oracle, self.epsilon).locality(model)
                });
                let out =
                    jvv::sample_exact_local(&net, &*self.oracle, self.epsilon, schedule, cancel)
                        .map_err(deadline)?;
                Ok(self.sample_report(task, seed, start, wall, out, ServedBackend::Exact))
            }
            Task::SampleApprox => match self.approx {
                Err(ref cause) => Err(EngineError::BackendUnavailable {
                    backend: "glauber",
                    cause: cause.clone(),
                }),
                Ok(ApproxPath::Chain) => {
                    let (schedule, wall) = self.schedule(&self.approx_schedule, || {
                        sampler::SequentialSampler::new(&*self.oracle, self.delta).locality(model)
                    });
                    let out =
                        sampler::sample_local(&net, &*self.oracle, self.delta, schedule, cancel)
                            .map_err(deadline)?;
                    Ok(self.sample_report(task, seed, start, wall, out, ServedBackend::Exact))
                }
                Ok(ApproxPath::Glauber { sweeps }) => {
                    let (schedule, wall) =
                        self.schedule(&self.approx_schedule, || glauber::sweep_locality(model));
                    let out = glauber::sample_glauber(&net, sweeps as usize, schedule, cancel)
                        .map_err(deadline)?;
                    let backend = ServedBackend::Glauber { sweeps };
                    Ok(self.sample_report(task, seed, start, wall, out, backend))
                }
            },
            Task::Infer { vertex, value } => {
                if vertex.index() >= model.node_count() {
                    return Err(EngineError::InvalidTask {
                        message: format!(
                            "vertex {vertex} outside the carrier node set (n = {})",
                            model.node_count()
                        ),
                    });
                }
                if value.index() >= model.alphabet_size() {
                    return Err(EngineError::InvalidTask {
                        message: format!(
                            "value {} outside the alphabet (q = {})",
                            value.index(),
                            model.alphabet_size()
                        ),
                    });
                }
                let distribution = self.marginal(vertex).to_vec();
                let probability = distribution[value.index()];
                let rounds = self.oracle_radius();
                let phases = vec![Phase::new("oracle", start.elapsed(), rounds)];
                let output = TaskOutput::Marginal {
                    distribution,
                    probability,
                };
                Ok(self.oracle_report(task, seed, start, output, rounds, phases))
            }
            Task::Count => {
                // the first use runs both passes: the anchor pass is
                // sequential by construction, and the n frozen chain
                // marginals fan out across the pool; concurrent first
                // users wait for it, and later users look it up
                let mut passes = None;
                let count = self.count.get_or_init(|| {
                    let run = counting::log_partition_function(
                        model,
                        self.instance.pinning(),
                        &*self.oracle,
                        self.epsilon,
                        pool,
                    )?;
                    passes = Some((run.anchor_time, run.marginal_time));
                    Ok((run.estimate.log_z, run.estimate.log_error_bound))
                });
                let (log_z, log_error_bound) = (*count)?;
                // a lookup charges its time to the marginals phase
                let (anchor, marginals) = passes.unwrap_or((Duration::ZERO, start.elapsed()));
                let rounds = self.oracle_radius();
                let phases = vec![
                    Phase::new("anchor", anchor, 0),
                    Phase::new("marginals", marginals, rounds),
                ];
                let output = TaskOutput::Count {
                    log_z,
                    log_error_bound,
                };
                Ok(self.oracle_report(task, seed, start, output, rounds, phases))
            }
        }
    }

    /// The chromatic schedule in `cell` and the wall time spent getting
    /// it. The first caller draws it with
    /// [`scheduler::complete_schedule`] at `locality()` from a network
    /// seeded with the topology fingerprint, so the schedule depends on
    /// the graph and the locality alone; concurrent first callers wait
    /// for that one draw, and later callers only look it up.
    fn schedule<'a>(
        &'a self,
        cell: &'a OnceLock<ChromaticSchedule>,
        locality: impl FnOnce() -> usize,
    ) -> (&'a ChromaticSchedule, Duration) {
        let start = Instant::now();
        let schedule = cell.get_or_init(|| {
            let net = Network::from_shared(Arc::clone(&self.instance), self.topology.fingerprint());
            scheduler::complete_schedule(&net, locality())
        });
        (schedule, start.elapsed())
    }

    /// The oracle's radius at `Mul(ε)`: the gather radius that Infer,
    /// Count and [`Engine::marginals`] report as their rounds.
    fn oracle_radius(&self) -> usize {
        let model = self.instance.model();
        self.oracle.radius(model, Target::Mul(self.epsilon))
    }

    /// Vertex `v`'s entry of the marginal table, `μ^τ_v` at `ε`. The
    /// first caller queries the oracle; concurrent first callers wait
    /// for that one query, and later callers only look it up.
    fn marginal(&self, v: NodeId) -> &[f64] {
        self.marginal_table[v.index()].get_or_init(|| {
            let (model, pinning) = (self.instance.model(), self.instance.pinning());
            self.oracle
                .query(model, pinning, v, Target::Mul(self.epsilon))
        })
    }

    /// The report of a sampling task, built from the sampler's outcome
    /// and `schedule_wall`, the time spent getting its schedule.
    ///
    /// Also records the round-ledger observable: the measured rounds
    /// against the model's predicted bound, or, for a Glauber-served
    /// run (whose `rounds` counts sweeps, not chromatic rounds), the
    /// executed sweeps against the plan resolved at build time.
    /// Inference and counting report a gather radius with a different
    /// meaning and are not ledgered.
    fn sample_report(
        &self,
        task: Task,
        seed: u64,
        start: Instant,
        schedule_wall: Duration,
        mut out: sampler::SampleRun,
        backend: ServedBackend,
    ) -> RunReport {
        // every sampler reports the schedule phase first
        out.phases[0].wall_time = schedule_wall;
        let ledger = lds_obs::ledger();
        if let (Some(g), ServedBackend::Glauber { sweeps }) = (&out.glauber, backend) {
            ledger.record_sweeps(self.spec.name(), g.sweeps as u64, sweeps as u64);
        } else {
            ledger.record_rounds(self.spec.name(), out.run.rounds, self.bound_rounds);
        }
        let succeeded = out.run.succeeded();
        let config = Config::from_values(out.run.outputs);
        let decoded = self.decode(&config);
        RunReport {
            task,
            seed,
            output: TaskOutput::Sample { config, decoded },
            succeeded,
            rounds: out.run.rounds,
            bound_rounds: self.bound_rounds,
            rate: self.rate,
            backend,
            stats: out.jvv,
            glauber: out.glauber,
            wall_time: start.elapsed(),
            phases: out.phases,
        }
    }

    /// The report of an oracle task (inference or counting): always
    /// successful, served by the oracle, no sampler telemetry.
    fn oracle_report(
        &self,
        task: Task,
        seed: u64,
        start: Instant,
        output: TaskOutput,
        rounds: usize,
        phases: Vec<Phase>,
    ) -> RunReport {
        RunReport {
            task,
            seed,
            output,
            succeeded: true,
            rounds,
            bound_rounds: self.bound_rounds,
            rate: self.rate,
            backend: ServedBackend::Exact,
            stats: None,
            glauber: None,
            wall_time: start.elapsed(),
            phases,
        }
    }

    fn decode(&self, config: &Config) -> SampleDecode {
        match &self.decoder {
            Decoder::Spins => SampleDecode::Spins,
            Decoder::Matching(inst) => SampleDecode::Matching(inst.edges_of(config)),
            Decoder::Hypergraph(inst) => {
                SampleDecode::HypergraphMatching(inst.hyperedges_of(config))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::Value;
    use lds_graph::{generators, NodeId};

    #[test]
    fn builder_requires_model_and_topology() {
        assert_eq!(
            Engine::builder().build().unwrap_err(),
            EngineError::MissingModel
        );
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::MissingTopology { expected: "graph" });
        // hypergraph model fed a graph
        let err = Engine::builder()
            .model(ModelSpec::HypergraphMatching { lambda: 0.2 })
            .graph(generators::cycle(4))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::MissingTopology {
                expected: "hypergraph"
            }
        );
    }

    #[test]
    fn builder_validates_parameters_once() {
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(6))
            .epsilon(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "epsilon",
                ..
            }
        ));

        // regime violation is a build-time error, with values attached
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 2.0 })
            .graph(generators::torus(4, 4))
            .build()
            .unwrap_err();
        match err {
            EngineError::OutOfRegime(oor) => {
                assert_eq!(oor.computed, 2.0);
                assert!((oor.critical - 27.0 / 16.0).abs() < 1e-12);
            }
            other => panic!("expected OutOfRegime, got {other:?}"),
        }
    }

    #[test]
    fn pinning_is_validated_against_the_carrier() {
        let g = generators::cycle(6);
        // wrong length
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(g.clone())
            .pinning(PartialConfig::empty(5))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::PinningLength {
                expected: 6,
                got: 5
            }
        );
        // infeasible: two adjacent occupied vertices
        let mut tau = PartialConfig::empty(6);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(1), Value(1));
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(g.clone())
            .pinning(tau)
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::InfeasiblePinning);
        // matching carrier is the line graph: cycle(6) has 6 edges too,
        // but a 7-long pinning must be rejected against carrier size
        let err = Engine::builder()
            .model(ModelSpec::Matching { lambda: 1.0 })
            .graph(g)
            .pinning(PartialConfig::empty(7))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::PinningLength {
                expected: 6,
                got: 7
            }
        );
    }

    #[test]
    fn builder_rejects_nonfinite_model_parameters_without_panicking() {
        // NaN slips through `>=` regime comparisons and negative weights
        // panic the model constructors — both must surface as errors.
        for lambda in [f64::NAN, f64::INFINITY, -1.0] {
            let err = Engine::builder()
                .model(ModelSpec::Hardcore { lambda })
                .graph(generators::cycle(6))
                .build()
                .unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidParameter { name: "lambda", .. }),
                "λ = {lambda}: {err:?}"
            );
        }
        let err = Engine::builder()
            .model(ModelSpec::Ising {
                beta: f64::NAN,
                field: 0.0,
            })
            .graph(generators::cycle(6))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter { name: "beta", .. }
        ));
        let err = Engine::builder()
            .model(ModelSpec::TwoSpin {
                beta: -0.2,
                gamma: 0.5,
                lambda: 1.0,
                rate: 0.5,
            })
            .graph(generators::cycle(6))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter { name: "beta", .. }
        ));
        let err = Engine::builder()
            .model(ModelSpec::Coloring { q: 0 })
            .graph(generators::cycle(6))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter { name: "q", .. }
        ));
    }

    #[test]
    fn setters_validate_at_set_time_and_first_error_wins() {
        // NaN ε is rejected by the setter, before build even sees the
        // (here: missing) model — the earliest mistake is reported
        let err = Engine::builder().epsilon(f64::NAN).build().unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "epsilon",
                ..
            }
        ));
        for bad in [f64::NAN, f64::NEG_INFINITY, 0.0, -0.5] {
            let err = Engine::builder()
                .model(ModelSpec::Hardcore { lambda: 1.0 })
                .graph(generators::cycle(6))
                .delta(bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidParameter { name: "delta", .. }),
                "δ = {bad}: {err:?}"
            );
        }
        // first invalid setter wins over later ones
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(6))
            .delta(-1.0)
            .epsilon(f64::INFINITY)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter { name: "delta", .. }
        ));
        let err = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(6))
            .threads(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "threads",
                ..
            }
        ));
    }

    #[test]
    fn fingerprint_identifies_the_output_determining_state() {
        let build = |lambda: f64, n: usize, eps: f64| {
            Engine::builder()
                .model(ModelSpec::Hardcore { lambda })
                .graph(generators::cycle(n))
                .epsilon(eps)
                .build()
                .unwrap()
        };
        let a = build(1.0, 8, 0.01);
        // identical request → identical fingerprint, at any pool width
        // or default seed (neither changes output bits)
        let b = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(8))
            .epsilon(0.01)
            .seed(999)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // each output-determining ingredient separates
        assert_ne!(a.fingerprint(), build(1.1, 8, 0.01).fingerprint());
        assert_ne!(a.fingerprint(), build(1.0, 9, 0.01).fingerprint());
        assert_ne!(a.fingerprint(), build(1.0, 8, 0.02).fingerprint());
        let mut tau = PartialConfig::empty(8);
        tau.pin(NodeId(0), Value(1));
        let pinned = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(8))
            .pinning(tau)
            .epsilon(0.01)
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), pinned.fingerprint());
        // spec fingerprints separate model kinds at equal parameters
        assert_ne!(
            ModelSpec::Hardcore { lambda: 1.0 }.fingerprint(),
            ModelSpec::Matching { lambda: 1.0 }.fingerprint()
        );
    }

    #[test]
    fn marginals_sampled_reconstructs_and_validates() {
        let engine = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(6))
            .delta(0.02)
            .build()
            .unwrap();
        assert!(matches!(
            engine.marginals_sampled(0, 1).unwrap_err(),
            EngineError::InvalidParameter {
                name: "repetitions",
                ..
            }
        ));
        let rec = engine.marginals_sampled(400, 1).unwrap();
        assert_eq!(rec.len(), 6);
        assert!(matches!(
            rec.method,
            MarginalsMethod::Sampled {
                repetitions: 400,
                ..
            }
        ));
        for mu in &rec.marginals {
            let total: f64 = mu.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        }
    }

    #[test]
    fn infer_validates_vertex_and_value() {
        let engine = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(6))
            .build()
            .unwrap();
        let err = engine
            .run(Task::Infer {
                vertex: NodeId(9),
                value: Value(0),
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidTask { .. }));
        let err = engine
            .run(Task::Infer {
                vertex: NodeId(0),
                value: Value(5),
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidTask { .. }));
    }

    #[test]
    fn pinned_engine_respects_pins_in_every_task() {
        let mut tau = PartialConfig::empty(8);
        tau.pin(NodeId(2), Value(1));
        let engine = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(8))
            .pinning(tau)
            .epsilon(0.005)
            .build()
            .unwrap();
        for seed in 0..5 {
            let report = engine.run_with_seed(Task::SampleExact, seed).unwrap();
            let config = report.config().unwrap();
            assert_eq!(config.get(NodeId(2)), Value(1));
            assert_eq!(config.get(NodeId(1)), Value(0));
        }
        let inf = engine
            .run(Task::Infer {
                vertex: NodeId(2),
                value: Value(1),
            })
            .unwrap();
        match inf.output {
            TaskOutput::Marginal { probability, .. } => assert_eq!(probability, 1.0),
            ref other => panic!("expected marginal, got {other:?}"),
        }
    }
}
