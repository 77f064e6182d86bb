//! Approximate inference from approximate sampling (paper, Theorem 3.4).
//!
//! If a LOCAL sampler has output distribution `μ̂` with
//! `d_TV(μ̂, μ^τ) ≤ δ` conditioned on success and failure mass `ε₀`, then
//! the *unconditioned* per-node output marginals `μ̃_v` satisfy
//! `d_TV(μ̃_v, μ^τ_v) ≤ δ + ε₀` — so reading off the sampler's one-node
//! output distribution solves inference with error `δ + ε₀` in the same
//! round complexity.
//!
//! **Substitution:** the paper reconstructs
//! `μ̃_v` *exactly* at `v` by enumerating the random bits the sampler
//! consumes inside `v`'s view. Enumerating bit strings is infeasible
//! verbatim, so we estimate `μ̃_v` by Monte Carlo over independent
//! executions (fresh network seeds), with the standard
//! Dvoretzky–Kiefer–Wolfowitz/Hoeffding repetition bound
//! `k ≥ ln(2q/η)/(2·δ_s²)` for estimation error `δ_s` at confidence
//! `1 − η`. Locality is untouched — each execution is a LOCAL run — only
//! the per-node post-processing differs.

use lds_localnet::Network;
use lds_oracle::Oracle;
use lds_runtime::ThreadPool;

use crate::sampler::{sample_once, shared_schedule};

/// Result of the sampling→inference reduction.
#[derive(Clone, Debug)]
pub struct SampledMarginals {
    /// Estimated marginal per node (length-`q` vectors).
    pub marginals: Vec<Vec<f64>>,
    /// Fraction of executions that failed (`ε₀` estimate).
    pub failure_rate: f64,
    /// Rounds of a single sampler execution (the reduction's complexity).
    pub rounds: usize,
    /// Number of Monte Carlo executions.
    pub repetitions: usize,
}

/// Estimates every node's marginal `μ̃_v` by repeated execution of the
/// Theorem 3.2 LOCAL sampler (error `δ` per run), using `repetitions`
/// independent runs with network seeds `seed₀, seed₀+1, ...`, fanned out
/// across `pool`. Each repetition derives its own network seed, so the
/// estimate is bit-identical at any pool width. Every repetition scans
/// one chromatic schedule, drawn once per call from `net`'s seed.
///
/// Failed executions contribute their outputs too (the reduction reads
/// the *unconditioned* marginal, which is what the `δ + ε₀` bound is
/// about); the failure rate is reported separately.
pub fn marginals_by_sampling<O: Oracle + Sync + ?Sized>(
    net: &Network,
    oracle: &O,
    delta: f64,
    repetitions: usize,
    seed0: u64,
    pool: &ThreadPool,
) -> SampledMarginals {
    let n = net.node_count();
    let q = net.instance().model().alphabet_size();
    let mut counts = vec![vec![0usize; q]; n];
    let mut failures = 0usize;
    let mut rounds = 0usize;
    // tally chunk by chunk so peak memory stays O(chunk · n) no matter
    // how many repetitions the Hoeffding bound asks for
    let chunk = (pool.threads() * 16).max(64);
    let reps: Vec<u64> = (0..repetitions as u64).collect();
    let schedule = shared_schedule(net, oracle, delta);
    for chunk_reps in reps.chunks(chunk) {
        let runs = pool.par_map(chunk_reps, |&rep| {
            let run_net = Network::from_shared(net.shared_instance(), seed0.wrapping_add(rep));
            sample_once(&run_net, oracle, delta, &schedule)
        });
        for run in runs {
            rounds = rounds.max(run.rounds);
            if !run.succeeded() {
                failures += 1;
            }
            for v in 0..n {
                counts[v][run.outputs[v].index()] += 1;
            }
        }
    }
    let marginals = counts
        .into_iter()
        .map(|c| {
            c.into_iter()
                .map(|x| x as f64 / repetitions as f64)
                .collect()
        })
        .collect();
    SampledMarginals {
        marginals,
        failure_rate: failures as f64 / repetitions as f64,
        rounds,
        repetitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::models::two_spin::TwoSpinParams;
    use lds_gibbs::{distribution, metrics, PartialConfig};
    use lds_graph::generators;
    use lds_localnet::Instance;
    use lds_oracle::{DecayRate, TwoSpinSawOracle};

    #[test]
    fn recovered_marginals_match_exact() {
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.0);
        let net = Network::new(Instance::unconditioned(model.clone()), 5);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let result =
            marginals_by_sampling(&net, &oracle, 0.02, 4000, 100, &ThreadPool::sequential());
        let tau = PartialConfig::empty(6);
        for v in g.nodes() {
            let exact = distribution::marginal(&model, &tau, v).unwrap();
            let err = metrics::tv_distance(&exact, &result.marginals[v.index()]);
            // δ + ε₀ + Monte Carlo noise
            assert!(
                err < 0.02 + result.failure_rate + 0.03,
                "node {v}: err {err} (failure rate {})",
                result.failure_rate
            );
        }
        assert!(result.rounds > 0);
        assert_eq!(result.repetitions, 4000);
    }
}
