//! Local Glauber dynamics (Fischer–Ghaffari, arXiv:1802.06676) as a
//! chromatic [`ScanKernel`] sweep — the engine's second sampling backend.
//!
//! The classic single-site Glauber dynamics resamples one uniformly
//! random site per step from its exact conditional distribution; the
//! *local* variant updates many non-adjacent sites per round, so the
//! whole chain runs in `O(log n)` LOCAL rounds inside the uniqueness
//! regime. This module implements the **systematic-scan** form of that
//! chain on the workspace's existing machinery: one sweep is one scan of
//! the chromatic schedule's ordering ([`run_scan_sequential`]) in which
//! every free node, visited in schedule order, resamples its spin from
//! the conditional distribution given its current neighborhood. Sites of
//! the same color are distance `≥ locality + 2` apart, so by Lemma 3.1
//! the scan is the execution of the LOCAL simulation that updates each
//! color class in parallel, and a sweep costs the schedule's rounds.
//!
//! Contrast with the classic random-site chain: same per-site update
//! rule, but that chain picks sites with a global RNG and is inherently
//! serial, while this one draws each site's randomness from
//! [`Network::node_rng`] (per node, per sweep), so a sweep is a local
//! algorithm.
//!
//! Each update touches only the factors containing the site — a table
//! lookup per factor — so a sweep costs `O(n · q · deg)` arithmetic with
//! **no inference-oracle queries at all**. That is the whole appeal over
//! the chain-rule sampler (Theorem 3.2) and local-JVV (Theorem 4.2) in
//! the high-volume `SampleApprox` regime: those pay a radius-`t` ball
//! enumeration per node, Glauber pays `sweeps` table lookups.
//!
//! The chain starts from the greedy feasible extension of the instance
//! pinning (Remark 2.3's sequential local oblivious construction), run
//! as a scan of the same ordering so the start state is deterministic.
//! Mixing is certified by [`crate::regime::glauber_plan`] from the
//! model's SSM decay rate.

use std::time::{Duration, Instant};

use lds_gibbs::admissible::first_feasible_value;
use lds_gibbs::{distribution, Config, GibbsModel, PartialConfig, Value};
use lds_graph::NodeId;
use lds_localnet::scheduler::ChromaticSchedule;
use lds_localnet::slocal::{run_scan_sequential, ScanKernel, SlocalKernel};
use lds_localnet::Network;
use lds_runtime::{CancelToken, Cancelled, Phase};

use crate::sampler::{lift, SampleRun};

/// Base randomness stream tag for Glauber sweeps: sweep `s` draws each
/// node's randomness from stream `STREAM_GLAUBER + s`. Stream tags pack
/// into the low 20 bits of [`Network::node_seed`]'s derivation, so the
/// base (plus any realistic sweep count) stays below `2^20` while
/// keeping clear of the sampler/JVV tags (1–3) and the runtime's
/// decomposition/node/workload tags.
const STREAM_GLAUBER: u64 = 0x4_0000;

/// The greedy ground pass: pin each free node, in schedule order, to the
/// first value keeping every factor touching it positive — Remark 2.3's
/// sequential local oblivious construction, here as a pinning-extension
/// kernel over the schedule's ordering. Reads pins only within the model
/// locality of the processed node (it checks only the factors touching
/// that node), so a node that fails does not fail the nodes after it.
struct GreedyGroundKernel;

impl SlocalKernel for GreedyGroundKernel {
    fn process(&self, net: &Network, sigma: &PartialConfig, v: NodeId) -> (Value, bool) {
        match first_feasible_value(net.instance().model(), sigma, v) {
            Some(c) => (c, false),
            None => (Value(0), true),
        }
    }
}

/// Result of one full Glauber sweep.
#[derive(Clone, Debug)]
pub(crate) struct GlauberSweepRun {
    /// The configuration after the sweep.
    pub(crate) config: Config,
    /// Free sites resampled by the sweep.
    pub(crate) resampled: usize,
    /// Resampled sites whose value changed.
    pub(crate) changed: usize,
}

/// One systematic-scan Glauber sweep as a [`ScanKernel`].
///
/// The scan state is the full current configuration; processing a free
/// node replaces its value with a draw from the exact conditional
/// distribution given its neighborhood (computable from the factors
/// touching the node only — locality `ℓ`, the model's factor diameter),
/// using the node's private randomness for this sweep's stream. Pinned
/// nodes are never updated. A node's scan effect is whether its update
/// changed its value.
#[derive(Clone, Debug)]
pub(crate) struct GlauberKernel {
    initial: Config,
    stream: u64,
}

impl GlauberKernel {
    /// A sweep kernel starting from `initial` and drawing node
    /// randomness from `stream` (one distinct stream per sweep).
    fn new(initial: Config, stream: u64) -> Self {
        GlauberKernel { initial, stream }
    }
}

impl ScanKernel for GlauberKernel {
    type State = Config;
    type Effect = bool;
    type Run = GlauberSweepRun;

    fn init(&self, _net: &Network) -> Config {
        self.initial.clone()
    }

    fn process(&self, net: &Network, state: &mut Config, v: NodeId) -> Option<bool> {
        let model = net.instance().model();
        if net.instance().pinning().is_pinned(v) {
            return None;
        }
        let q = model.alphabet_size();
        let mut weights = vec![0.0f64; q];
        for (c, w) in weights.iter_mut().enumerate() {
            let mut local = 1.0f64;
            for &fi in model.factors_touching(v) {
                let f = &model.factors()[fi];
                local *= f
                    .eval_partial(|s| {
                        Some(if s == v {
                            Value::from_index(c)
                        } else {
                            state.get(s)
                        })
                    })
                    .expect("full config");
                if local == 0.0 {
                    break;
                }
            }
            *w = local;
        }
        let current = state.get(v);
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // frozen site (cannot happen from a feasible state): keep the
            // current value without consuming randomness
            return Some(false);
        }
        let mut rng = net.node_rng(v, self.stream);
        let value = distribution::sample_from_marginal(&weights, &mut rng);
        state.set(v, value);
        Some(value != current)
    }

    fn finish(
        &self,
        _net: &Network,
        state: Config,
        effects: Vec<(NodeId, bool)>,
    ) -> GlauberSweepRun {
        let resampled = effects.len();
        let changed = effects.iter().filter(|&&(_, changed)| changed).count();
        GlauberSweepRun {
            config: state,
            resampled,
            changed,
        }
    }
}

/// Mixing diagnostics of a [`sample_glauber`] execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GlauberStats {
    /// Full sweeps executed.
    pub sweeps: usize,
    /// Total single-site resamples across all sweeps.
    pub site_updates: u64,
    /// Sites whose value changed in the final sweep — a cheap mixing
    /// diagnostic (a well-mixed chain keeps flipping at its stationary
    /// flip rate; a frozen chain reports 0).
    pub last_sweep_changes: usize,
    /// The schedule locality used for the sweeps (the model's factor
    /// diameter).
    pub locality: usize,
}

/// The schedule locality of Glauber sweeps: the model's factor diameter
/// (at least 1), the radius a site update reads.
pub fn sweep_locality(model: &GibbsModel) -> usize {
    model.locality().max(1)
}

/// Runs `sweeps` systematic-scan Glauber sweeps from the greedy ground
/// state, all scanning the ordering of `schedule`, a chromatic schedule
/// drawn for [`sweep_locality`] — the local Glauber dynamics of
/// Fischer–Ghaffari in this workspace's scan form.
/// [`SampleRun::glauber`] carries the mixing diagnostics.
///
/// The reported round count charges `schedule.rounds` LOCAL rounds per
/// chromatic pass (the ground pass plus each sweep), the cost of the
/// Lemma 3.1 simulation.
///
/// `cancel` is threaded into every pass (checked every 256 nodes and
/// when the pass ends) and checked once per sweep. Checks consume no
/// randomness, so a completed run is bit-identical to one under
/// [`CancelToken::never`]; a cancelled run returns `Err(`[`Cancelled`]`)`
/// with no partial result.
///
/// Phases: `schedule` (all rounds, zero wall time: the caller that got
/// the schedule owns that time), `ground`, `glauber`.
pub fn sample_glauber(
    net: &Network,
    sweeps: usize,
    schedule: &ChromaticSchedule,
    cancel: &CancelToken,
) -> Result<SampleRun, Cancelled> {
    let start = Instant::now();
    let ground = run_scan_sequential(net, &GreedyGroundKernel, &schedule.order, cancel)?;
    let ground_wall = start.elapsed();

    let mut config = Config::from_values(ground.outputs);
    let mut stats = GlauberStats {
        sweeps,
        site_updates: 0,
        last_sweep_changes: 0,
        locality: sweep_locality(net.instance().model()),
    };
    let start = Instant::now();
    for s in 0..sweeps {
        cancel.check()?;
        let kernel = GlauberKernel::new(config, stream_for_sweep(s));
        let run = run_scan_sequential(net, &kernel, &schedule.order, cancel)?;
        stats.site_updates += run.resampled as u64;
        stats.last_sweep_changes = run.changed;
        config = run.config;
    }
    let sweeps_wall = start.elapsed();

    let rounds = schedule.rounds * (sweeps + 1);
    Ok(SampleRun {
        run: lift(config.values().to_vec(), &ground.failures, schedule, rounds),
        phases: vec![
            Phase::new("schedule", Duration::ZERO, rounds),
            Phase::new("ground", ground_wall, 0),
            Phase::new("glauber", sweeps_wall, 0),
        ],
        jvv: None,
        glauber: Some(stats),
    })
}

/// The randomness stream for sweep `s`: distinct per sweep so each sweep
/// re-draws fresh node randomness. Must stay below the `2^20` stream-tag
/// width of [`Network::node_seed`] or (node, sweep) pairs would alias
/// across nodes.
fn stream_for_sweep(s: usize) -> u64 {
    STREAM_GLAUBER + s as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::metrics;
    use lds_gibbs::models::{coloring, hardcore};
    use lds_gibbs::PartialConfig;
    use lds_graph::generators;
    use lds_localnet::{scheduler, Instance};

    fn hc_net(n: usize, lambda: f64, seed: u64) -> Network {
        let g = generators::cycle(n);
        Network::new(Instance::unconditioned(hardcore::model(&g, lambda)), seed)
    }

    fn glauber_out(net: &Network, sweeps: usize) -> SampleRun {
        let schedule = scheduler::complete_schedule(net, sweep_locality(net.instance().model()));
        sample_glauber(net, sweeps, &schedule, &CancelToken::never()).unwrap()
    }

    fn glauber(net: &Network, sweeps: usize) -> lds_localnet::local::LocalRun<Value> {
        glauber_out(net, sweeps).run
    }

    #[test]
    fn outputs_are_feasible_configurations() {
        for seed in 0..20 {
            let net = hc_net(9, 1.5, seed);
            let run = glauber(&net, 6);
            assert!(run.succeeded(), "seed {seed}");
            let config = Config::from_values(run.outputs);
            assert!(
                net.instance().model().weight(&config) > 0.0,
                "seed {seed} produced an infeasible configuration"
            );
        }
    }

    #[test]
    fn respects_instance_pinning() {
        let g = generators::cycle(8);
        let model = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(8);
        tau.pin(NodeId(0), Value(1));
        let inst = Instance::new(model, tau).unwrap();
        for seed in 0..10 {
            let net = Network::new(inst.clone(), seed);
            let run = glauber(&net, 8);
            assert_eq!(run.outputs[0], Value(1));
            assert_eq!(run.outputs[1], Value(0), "neighbor of pinned-occupied");
        }
    }

    #[test]
    fn colorings_stay_proper_through_sweeps() {
        let g = generators::cycle(7);
        let model = coloring::model(&g, 4);
        for seed in 0..10 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let run = glauber(&net, 6);
            let config = Config::from_values(run.outputs);
            assert!(
                coloring::is_proper(&g, &config),
                "seed {seed}: improper coloring"
            );
        }
    }

    #[test]
    fn converges_to_the_target_marginal() {
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.0);
        let trials = 20_000usize;
        let mut occupied = 0usize;
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let run = glauber(&net, 24);
            if run.outputs[2] == Value(1) {
                occupied += 1;
            }
        }
        let est = occupied as f64 / trials as f64;
        let exact = distribution::marginal(&model, &PartialConfig::empty(6), NodeId(2)).unwrap()[1];
        assert!(
            (est - exact).abs() < 0.015,
            "glauber {est:.4} vs exact {exact:.4}"
        );
    }

    #[test]
    fn distinct_sweeps_draw_distinct_randomness() {
        // a 1-sweep and a 2-sweep run must disagree on some seed if the
        // second sweep draws fresh randomness
        let mut differs = false;
        for seed in 0..20 {
            let net = hc_net(10, 1.5, seed);
            let one = glauber(&net, 1);
            let two = glauber(&net, 2);
            if one.outputs != two.outputs {
                differs = true;
                break;
            }
        }
        assert!(differs, "second sweep never changed the configuration");
    }

    #[test]
    fn stats_count_site_updates_and_locality() {
        let net = hc_net(10, 1.0, 5);
        let out = glauber_out(&net, 3);
        let stats = out.glauber.expect("glauber stats");
        assert_eq!(stats.sweeps, 3);
        assert_eq!(stats.site_updates, 30, "10 free sites x 3 sweeps");
        assert_eq!(stats.locality, 1);
        assert!(out.run.rounds > 0);
        let phases: Vec<(&str, usize)> = out.phases.iter().map(|p| (p.name, p.rounds)).collect();
        assert_eq!(
            phases,
            [("schedule", out.run.rounds), ("ground", 0), ("glauber", 0)]
        );
    }

    #[test]
    fn a_ground_failure_does_not_spread_to_another_component() {
        // a triangle 0–1–2 with 0 ↦ 0 and 1 ↦ 1 leaves node 2 no color
        // of two; the edge 3–4 is another component
        let mut b = lds_graph::GraphBuilder::new(5);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let model = coloring::model(&b.build(), 2);
        let mut tau = PartialConfig::empty(5);
        tau.pin(NodeId(0), Value(0));
        tau.pin(NodeId(1), Value(1));
        let net = Network::new(Instance::new(model, tau).unwrap(), 0);
        let order = [4, 2, 3].map(NodeId);
        let run =
            run_scan_sequential(&net, &GreedyGroundKernel, &order, &CancelToken::never()).unwrap();
        assert_eq!(run.failures, [false, false, true, false, false]);
        assert_ne!(run.outputs[3], run.outputs[4], "3 and 4 are adjacent");
    }

    #[test]
    fn tv_distance_to_stationarity_is_small() {
        // joint-distribution check on a small cycle, mirroring the
        // chain-rule sampler's test
        let n = 5usize;
        let g = generators::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let trials = 40_000usize;
        let mut samples = Vec::with_capacity(trials);
        for seed in 0..trials as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let run = glauber(&net, 24);
            samples.push(Config::from_values(run.outputs));
        }
        let emp = metrics::empirical_distribution(&samples);
        let exact = distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
        let tv = metrics::tv_distance_joint(&emp, &exact);
        assert!(tv < 0.05, "empirical TV {tv}");
    }
}
