//! Approximate sampling from approximate inference (paper, Theorem 3.2).
//!
//! The reduction is the classic chain-rule sampler made local: an SLOCAL
//! algorithm scans the nodes in an arbitrary order; at each free node
//! `v_i` it queries the inference oracle for the conditional marginal
//! `μ̂^{τ ∧ σ_{i-1}}_{v_i}` (error `δ/n`) and samples `σ(v_i)` from it
//! with `v_i`'s private randomness. A coupling argument gives
//! `d_TV(μ̂, μ^τ) ≤ δ` for the output distribution `μ̂`.
//!
//! The LOCAL version follows by the SLOCAL→LOCAL transformation
//! (Lemma 3.1, [`lds_localnet::scheduler`]): time complexity
//! `O(t(n, δ/n) · log² n)`.

use std::time::{Duration, Instant};

use lds_gibbs::{distribution, GibbsModel, PartialConfig, Value};
use lds_graph::NodeId;
use lds_localnet::local::LocalRun;
use lds_localnet::scheduler::{self, ChromaticSchedule};
use lds_localnet::slocal::{run_scan_sequential, SlocalKernel};
use lds_localnet::Network;
use lds_oracle::{Oracle, Target};
use lds_runtime::{CancelToken, Cancelled, Phase};

use crate::glauber::GlauberStats;
use crate::jvv::JvvStats;

/// Randomness stream tag for the sequential sampler (distinct streams
/// decorrelate passes that share the network seed).
const STREAM_SEQ_SAMPLER: u64 = 1;

/// The Theorem 3.2 sequential sampler as an SLOCAL algorithm.
///
/// Output: each node's sampled value `Y_v ∈ Σ`; the sampler itself never
/// fails (failures only enter through the LOCAL transformation).
#[derive(Clone, Debug)]
pub struct SequentialSampler<'a, O: ?Sized> {
    oracle: &'a O,
    delta: f64,
}

impl<'a, O: Oracle + ?Sized> SequentialSampler<'a, O> {
    /// Creates the sampler with output total-variation error `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `δ ≤ 0`.
    pub fn new(oracle: &'a O, delta: f64) -> Self {
        assert!(delta > 0.0, "error target must be positive");
        SequentialSampler { oracle, delta }
    }

    /// The per-node inference error `δ/n` the oracle is queried with.
    fn per_node_delta(&self, n: usize) -> f64 {
        self.delta / n.max(1) as f64
    }

    /// The oracle target of every query on `model`: [`Target::Tv`] at the
    /// per-node error `δ/n`.
    fn target(&self, model: &GibbsModel) -> Target {
        Target::Tv(self.per_node_delta(model.node_count()))
    }

    /// The sampler's SLOCAL locality on `model`: the oracle radius at
    /// per-node error `δ/n`, plus one for the pin it writes.
    pub fn locality(&self, model: &GibbsModel) -> usize {
        self.oracle.radius(model, self.target(model)) + 1
    }
}

/// The sampler's per-node step is a pinning-extension kernel: sample
/// `Y_v ~ μ̂^{τ ∧ σ}_v` with `v`'s private randomness. Reads only pins
/// within the oracle radius `t` — the locality contract Lemma 3.1 needs.
impl<O: Oracle + ?Sized> SlocalKernel for SequentialSampler<'_, O> {
    fn process(&self, net: &Network, sigma: &PartialConfig, v: NodeId) -> (Value, bool) {
        let model = net.instance().model();
        let mu = self.oracle.query(model, sigma, v, self.target(model));
        let mut rng = net.node_rng(v, STREAM_SEQ_SAMPLER);
        (distribution::sample_from_marginal(&mu, &mut rng), false)
    }
}

/// The outcome of one LOCAL sampler execution, shared by the three
/// samplers: the chain-rule sampler ([`sample_local`]), local-JVV
/// ([`crate::jvv::sample_exact_local`]) and local Glauber dynamics
/// ([`crate::glauber::sample_glauber`]).
#[derive(Clone, Debug)]
pub struct SampleRun {
    /// Sampled values, failure bits (the algorithm's own `F′_v` merged
    /// with the decomposition's `F″_v`) and simulated LOCAL rounds.
    pub run: LocalRun<Value>,
    /// Per-phase wall clock and rounds in execution order: `schedule`
    /// first, charged every simulated round, then the sampler's passes.
    pub phases: Vec<Phase>,
    /// Execution statistics (local-JVV only).
    pub jvv: Option<JvvStats>,
    /// Mixing diagnostics (Glauber only).
    pub glauber: Option<GlauberStats>,
}

/// Lifts an SLOCAL scan result to the LOCAL run of Lemma 3.1: a node
/// fails if the scan failed it (`F′_v`) or the decomposition left it
/// unclustered (`F″_v`).
pub(crate) fn lift(
    outputs: Vec<Value>,
    failures: &[bool],
    schedule: &ChromaticSchedule,
    rounds: usize,
) -> LocalRun<Value> {
    let failures = failures
        .iter()
        .zip(&schedule.failed)
        .map(|(&f, &ff)| f || ff)
        .collect();
    LocalRun {
        outputs,
        failures,
        rounds,
    }
}

/// Runs the Theorem 3.2 sampler in the LOCAL model: the sequential
/// sampler composed with the Lemma 3.1 transformation, scanning the
/// ordering `π` of `schedule`, a chromatic schedule drawn for the
/// sampler's [`SequentialSampler::locality`]. Conditioned on no failure
/// the output follows `μ̂_{I,π}` with `d_TV(μ̂, μ^τ) ≤ δ` for any `π`, so
/// one schedule serves every execution.
///
/// `cancel` is checked every 256 nodes of the scan and when it ends.
/// Checks consume no randomness, so a completed run is bit-identical to
/// one under [`CancelToken::never`]; a cancelled run returns
/// `Err(`[`Cancelled`]`)` with no partial result.
///
/// Phases: `schedule` (all rounds, zero wall time: the caller that got
/// the schedule owns that time), `scan`.
pub fn sample_local<O: Oracle + ?Sized>(
    net: &Network,
    oracle: &O,
    delta: f64,
    schedule: &ChromaticSchedule,
    cancel: &CancelToken,
) -> Result<SampleRun, Cancelled> {
    let sampler = SequentialSampler::new(oracle, delta);
    let start = Instant::now();
    let scan = run_scan_sequential(net, &sampler, &schedule.order, cancel)?;
    let scan_wall = start.elapsed();
    Ok(SampleRun {
        run: lift(scan.outputs, &scan.failures, schedule, schedule.rounds),
        phases: vec![
            Phase::new("schedule", Duration::ZERO, schedule.rounds),
            Phase::new("scan", scan_wall, 0),
        ],
        jvv: None,
        glauber: None,
    })
}

/// One uncancellable [`sample_local`] run over `schedule` — the unit of
/// Monte Carlo work for the estimators that fan executions across the
/// pool.
pub(crate) fn sample_once<O: Oracle + ?Sized>(
    net: &Network,
    oracle: &O,
    delta: f64,
    schedule: &ChromaticSchedule,
) -> LocalRun<Value> {
    sample_local(net, oracle, delta, schedule, &CancelToken::never())
        .expect("a never-token cannot cancel")
        .run
}

/// The chromatic schedule a Monte Carlo estimator shares across its
/// executions: one [`scheduler::complete_schedule`] draw from `net`'s
/// seed at the chain-rule sampler's locality.
pub(crate) fn shared_schedule<O: Oracle + ?Sized>(
    net: &Network,
    oracle: &O,
    delta: f64,
) -> ChromaticSchedule {
    let locality = SequentialSampler::new(oracle, delta).locality(net.instance().model());
    scheduler::complete_schedule(net, locality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::two_spin::TwoSpinParams;
    use lds_gibbs::models::{coloring, hardcore};
    use lds_gibbs::{metrics, Config, PartialConfig};
    use lds_graph::{generators, ordering};
    use lds_localnet::slocal::{run_scan_sequential, SlocalRun};
    use lds_localnet::Instance;
    use lds_oracle::{DecayRate, EnumerationOracle, TwoSpinSawOracle};

    /// The sampler's plain SLOCAL scan over `order`.
    fn scan<O: Oracle>(
        sampler: &SequentialSampler<'_, O>,
        net: &Network,
        order: &[NodeId],
    ) -> SlocalRun<Value> {
        run_scan_sequential(net, sampler, order, &CancelToken::never()).unwrap()
    }

    fn hc_net(n: usize, lambda: f64, seed: u64) -> Network {
        let g = generators::cycle(n);
        Network::new(Instance::unconditioned(hardcore::model(&g, lambda)), seed)
    }

    fn saw(lambda: f64) -> TwoSpinSawOracle {
        TwoSpinSawOracle::new(TwoSpinParams::hardcore(lambda), DecayRate::new(0.5, 2.0))
    }

    #[test]
    fn outputs_are_independent_sets() {
        let oracle = saw(1.5);
        for seed in 0..20 {
            let net = hc_net(9, 1.5, seed);
            let sampler = SequentialSampler::new(&oracle, 0.1);
            let order = ordering::identity(net.instance().model().graph());
            let run = scan(&sampler, &net, &order);
            let config = Config::from_values(run.outputs.clone());
            assert!(
                net.instance().model().weight(&config) > 0.0,
                "seed {seed} produced an infeasible configuration"
            );
        }
    }

    #[test]
    fn empirical_distribution_close_to_target() {
        // small cycle: compare empirical joint distribution to exact
        let n = 5usize;
        let g = generators::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let oracle = saw(1.0);
        let trials = 40_000usize;
        let mut samples = Vec::with_capacity(trials);
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let sampler = SequentialSampler::new(&oracle, 0.02);
            let order = ordering::identity(&g);
            let run = scan(&sampler, &net, &order);
            samples.push(Config::from_values(run.outputs));
        }
        let emp = metrics::empirical_distribution(&samples);
        let exact = distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
        let tv = metrics::tv_distance_joint(&emp, &exact);
        // sampling noise ~ sqrt(#configs / trials) ≈ 0.02
        assert!(tv < 0.05, "empirical TV {tv}");
    }

    #[test]
    fn honors_pinning() {
        let g = generators::cycle(8);
        let model = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(8);
        tau.pin(NodeId(0), Value(1));
        let inst = Instance::new(model, tau).unwrap();
        let oracle = saw(1.0);
        for seed in 0..10 {
            let net = Network::new(inst.clone(), seed);
            let sampler = SequentialSampler::new(&oracle, 0.1);
            let run = scan(
                &sampler,
                &net,
                &ordering::identity(net.instance().model().graph()),
            );
            assert_eq!(run.outputs[0], Value(1));
            assert_eq!(run.outputs[1], Value(0), "neighbor of pinned-occupied");
        }
    }

    #[test]
    fn local_version_succeeds_and_matches_feasibility() {
        let net = hc_net(12, 1.0, 3);
        let oracle = saw(1.0);
        let schedule = shared_schedule(&net, &oracle, 0.1);
        let out = sample_local(&net, &oracle, 0.1, &schedule, &CancelToken::never()).unwrap();
        let run = out.run;
        assert!(run.succeeded(), "decomposition failed unexpectedly");
        assert!(run.rounds > 0);
        let phases: Vec<(&str, usize)> = out.phases.iter().map(|p| (p.name, p.rounds)).collect();
        assert_eq!(phases, [("schedule", run.rounds), ("scan", 0)]);
        let config = Config::from_values(run.outputs);
        assert!(net.instance().model().weight(&config) > 0.0);
    }

    #[test]
    fn colorings_with_enumeration_oracle() {
        let g = generators::cycle(7);
        let model = coloring::model(&g, 3);
        let oracle = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
        for seed in 0..10 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let sampler = SequentialSampler::new(&oracle, 0.1);
            let run = scan(&sampler, &net, &ordering::identity(&g));
            let config = Config::from_values(run.outputs);
            assert!(
                coloring::is_proper(&g, &config),
                "seed {seed}: improper coloring"
            );
        }
    }

    #[test]
    fn different_orders_same_target_distribution() {
        // marginal frequencies should agree across scan orders
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.0);
        let oracle = saw(1.0);
        let trials = 20_000usize;
        let mut occ_id = 0usize;
        let mut occ_rev = 0usize;
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let sampler = SequentialSampler::new(&oracle, 0.02);
            let a = scan(&sampler, &net, &ordering::identity(&g));
            if a.outputs[3] == Value(1) {
                occ_id += 1;
            }
            let net2 = Network::new(Instance::unconditioned(model.clone()), seed + 1_000_000);
            let b = scan(&sampler, &net2, &ordering::reverse(&g));
            if b.outputs[3] == Value(1) {
                occ_rev += 1;
            }
        }
        let f1 = occ_id as f64 / trials as f64;
        let f2 = occ_rev as f64 / trials as f64;
        assert!(
            (f1 - f2).abs() < 0.02,
            "order changed marginals: {f1} vs {f2}"
        );
    }

    use lds_gibbs::distribution;
}
