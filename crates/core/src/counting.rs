//! Global counting from local inference — the chain-rule decomposition.
//!
//! The paper frames *inference* as the local counterpart of counting
//! because, for self-reducible problems, the global count decomposes via
//! the chain rule into marginal probabilities (introduction, citing
//! Jerrum's monograph): for any feasible `σ`,
//!
//! `Z^τ = w(σ) / μ^τ(σ) = w(σ) / ∏_i μ^{τ∧σ_{<i}}_{v_i}(σ(v_i))`.
//!
//! So a multiplicative-error inference oracle yields a multiplicative
//! approximation of the partition function: `n` factors, each within
//! `e^{±ε}`, give `|ln Ẑ − ln Z| ≤ n·ε`. In the LOCAL model the `n`
//! marginal computations run in parallel given the pinning chain, and
//! the estimator here mirrors that structure in two passes:
//!
//! 1. **Anchor pass** (sequential, cheap): walk the free nodes in id
//!    order, greedily pinning each to the argmax of a *coarse* marginal
//!    estimate at precision `max(ε, ANCHOR_EPS_FLOOR)`. The identity
//!    above holds for **any** feasible `σ` — the anchor's quality never
//!    enters the error bound — and the coarse argmax is feasible because
//!    its estimate is `≥ 1/q > 0`, which by the multiplicative guarantee
//!    implies positive true probability.
//! 2. **Marginal pass** (parallel): with the pinning chain frozen, the
//!    `n` full-precision marginals `μ^{τ∧σ_{<i}}_{v_i}(σ(v_i))` are
//!    independent trials, fanned across the `lds_runtime::ThreadPool`
//!    via [`lds_oracle::chain_marginals_mul`]. Results are bit-identical
//!    at any pool width.
//!
//! For sampling-backed oracles, [`log_partition_function_annealed`]
//! replaces each level's oracle call with an **anytime** Monte Carlo
//! estimate over independent sampler executions: each level streams
//! samples in chunks and stops at the first checkpoint whose Hoeffding
//! interval certifies relative log error `≤ ε`, reporting the achieved
//! per-level bound instead of spending a fixed worst-case budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lds_gibbs::{GibbsModel, PartialConfig, Value};
use lds_graph::NodeId;
use lds_localnet::{Instance, Network};
use lds_oracle::{chain_marginals_mul, InferenceOracle, MultiplicativeInference};
use lds_runtime::{splitmix64, ThreadPool};

use crate::sampler::{sample_once, shared_schedule};

/// Precision floor for the anchor pass. The anchor only needs to be
/// *feasible* — any coarse argmax works, and the chain-rule error bound
/// is independent of the anchor choice — so anchor marginals are never
/// computed sharper than this even when the requested `ε` is tiny.
pub const ANCHOR_EPS_FLOOR: f64 = 0.25;

/// Why a chain-rule count could not be produced.
///
/// Cannot happen for locally admissible models with an honest oracle;
/// surfaced so serving clients see *which* invariant a misbehaving
/// oracle or infeasible instance broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The oracle returned an empty marginal vector at `vertex`.
    EmptyMarginal {
        /// The chain vertex whose marginal was empty.
        vertex: NodeId,
    },
    /// The marginal of the anchor value at `vertex` was `≤ 0` (or not
    /// finite), so its log cannot enter the chain-rule product.
    NonPositiveMarginal {
        /// The chain vertex whose anchor-value marginal was non-positive.
        vertex: NodeId,
    },
    /// No anchor configuration with positive weight could be built.
    InfeasibleAnchor,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::EmptyMarginal { vertex } => {
                write!(
                    f,
                    "oracle returned an empty marginal vector at node {vertex}"
                )
            }
            CountError::NonPositiveMarginal { vertex } => {
                write!(
                    f,
                    "non-positive marginal for the anchor value at node {vertex}"
                )
            }
            CountError::InfeasibleAnchor => {
                write!(f, "no feasible anchor configuration (non-positive weight)")
            }
        }
    }
}

impl std::error::Error for CountError {}

/// Result of a chain-rule partition function estimation.
#[derive(Clone, Debug)]
pub struct CountEstimate {
    /// The estimate of `ln Z^τ`.
    pub log_z: f64,
    /// Guaranteed bound on `|ln Ẑ − ln Z|` given the oracle error: `n·ε`.
    pub log_error_bound: f64,
    /// The feasible anchor configuration used by the chain rule.
    pub anchor: lds_gibbs::Config,
}

impl CountEstimate {
    /// The estimate of `Z^τ` itself (may overflow to `inf` for large
    /// instances; prefer [`CountEstimate::log_z`]).
    pub fn z(&self) -> f64 {
        self.log_z.exp()
    }
}

/// A count estimate together with per-phase telemetry.
#[derive(Clone, Debug)]
pub struct CountRun {
    /// The estimate.
    pub estimate: CountEstimate,
    /// Wall time of the sequential anchor-construction pass.
    pub anchor_time: Duration,
    /// Wall time of the (parallel) full-precision marginal pass.
    pub marginal_time: Duration,
    /// Number of chain levels (free vertices walked).
    pub levels: usize,
}

/// Estimates `ln Z^τ` using a multiplicative inference oracle with error
/// `ε` per marginal, returning per-phase telemetry.
///
/// The anchor pass runs sequentially at coarse precision
/// `max(ε, `[`ANCHOR_EPS_FLOOR`]`)`; the marginal pass evaluates the
/// frozen chain at full `ε` through
/// [`lds_oracle::chain_marginals_mul`], fanned
/// across `pool`. The result is bit-identical at every pool width (and
/// to [`log_partition_function_reference`]).
pub fn log_partition_function<O>(
    model: &GibbsModel,
    pinning: &PartialConfig,
    oracle: &O,
    eps: f64,
    pool: &ThreadPool,
) -> Result<CountRun, CountError>
where
    O: MultiplicativeInference + Sync,
{
    let n = model.node_count();
    let anchor_eps = eps.max(ANCHOR_EPS_FLOOR);

    let anchor_start = Instant::now();
    let mut sigma = pinning.clone();
    let mut levels: Vec<(NodeId, Value)> = Vec::new();
    for v in (0..n).map(NodeId::from_index) {
        if sigma.is_pinned(v) {
            continue;
        }
        let mu = oracle.marginal_mul(model, &sigma, v, anchor_eps);
        let (argmax, p) = mu
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite marginal"))
            .ok_or(CountError::EmptyMarginal { vertex: v })?;
        if p <= 0.0 {
            return Err(CountError::NonPositiveMarginal { vertex: v });
        }
        let val = Value::from_index(argmax);
        sigma.pin(v, val);
        levels.push((v, val));
    }
    let anchor = sigma.to_config();
    let w = model.weight(&anchor);
    if w <= 0.0 {
        return Err(CountError::InfeasibleAnchor);
    }
    let anchor_time = anchor_start.elapsed();

    let marginal_start = Instant::now();
    let mus = chain_marginals_mul(oracle, model, pinning, &levels, eps, pool);
    let mut log_z = w.ln();
    for (mu, &(v, val)) in mus.iter().zip(&levels) {
        let p = mu
            .get(val.index())
            .copied()
            .ok_or(CountError::EmptyMarginal { vertex: v })?;
        if p <= 0.0 {
            return Err(CountError::NonPositiveMarginal { vertex: v });
        }
        log_z -= p.ln();
    }
    let marginal_time = marginal_start.elapsed();

    Ok(CountRun {
        estimate: CountEstimate {
            log_z,
            log_error_bound: levels.len() as f64 * eps,
            anchor,
        },
        anchor_time,
        marginal_time,
        levels: levels.len(),
    })
}

/// **Frozen reference**: the straight-line sequential form of the
/// two-pass estimator, kept verbatim as the bit-identity target for the
/// cross-width proptests (`tests/counting_parallel.rs`). Do not
/// "improve" this function — change [`log_partition_function`] and let
/// the tests prove agreement.
pub fn log_partition_function_reference<O: MultiplicativeInference>(
    model: &GibbsModel,
    pinning: &PartialConfig,
    oracle: &O,
    eps: f64,
) -> Result<CountEstimate, CountError> {
    let n = model.node_count();
    let anchor_eps = eps.max(ANCHOR_EPS_FLOOR);

    // anchor pass: coarse greedy argmax pinning
    let mut sigma = pinning.clone();
    let mut levels: Vec<(NodeId, Value)> = Vec::new();
    for v in (0..n).map(NodeId::from_index) {
        if sigma.is_pinned(v) {
            continue;
        }
        let mu = oracle.marginal_mul(model, &sigma, v, anchor_eps);
        let (argmax, p) = mu
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite marginal"))
            .ok_or(CountError::EmptyMarginal { vertex: v })?;
        if p <= 0.0 {
            return Err(CountError::NonPositiveMarginal { vertex: v });
        }
        let val = Value::from_index(argmax);
        sigma.pin(v, val);
        levels.push((v, val));
    }
    let anchor = sigma.to_config();
    let w = model.weight(&anchor);
    if w <= 0.0 {
        return Err(CountError::InfeasibleAnchor);
    }

    // marginal pass: full-precision chain walk
    let mut prefix = pinning.clone();
    let mut log_z = w.ln();
    for &(v, val) in &levels {
        let mu = oracle.marginal_mul(model, &prefix, v, eps);
        let p = mu
            .get(val.index())
            .copied()
            .ok_or(CountError::EmptyMarginal { vertex: v })?;
        if p <= 0.0 {
            return Err(CountError::NonPositiveMarginal { vertex: v });
        }
        log_z -= p.ln();
        prefix.pin(v, val);
    }

    Ok(CountEstimate {
        log_z,
        log_error_bound: levels.len() as f64 * eps,
        anchor,
    })
}

/// Tuning knobs for [`log_partition_function_annealed`].
#[derive(Clone, Debug)]
pub struct AnnealedConfig {
    /// Target certified relative log error per chain level.
    pub eps: f64,
    /// Overall Monte Carlo confidence budget: with probability `≥ 1 − δ`
    /// every level's reported bound holds simultaneously (split as
    /// `δ/levels` per level, union-bounded over its checkpoints).
    pub delta: f64,
    /// Total-variation error of each underlying sampler execution. Per
    /// Theorem 3.4 this is an *additive* bias `δ_s + ε₀` on each level's
    /// true marginal — orthogonal to, and not covered by, the certified
    /// Monte Carlo bound.
    pub sampler_delta: f64,
    /// Samples drawn between anytime certification checkpoints.
    pub chunk: usize,
    /// Hard per-level sample budget; a level that exhausts it reports
    /// its achieved (possibly uncertified) bound.
    pub max_samples_per_level: usize,
    /// Sampler executions attempted (with distinct seeds) to find a
    /// feasible anchor before giving up.
    pub max_anchor_attempts: usize,
}

impl Default for AnnealedConfig {
    fn default() -> Self {
        AnnealedConfig {
            eps: 0.25,
            delta: 0.05,
            sampler_delta: 0.05,
            chunk: 64,
            max_samples_per_level: 8192,
            max_anchor_attempts: 8,
        }
    }
}

/// Result of an annealed (sampling-backed) chain-rule estimation.
#[derive(Clone, Debug)]
pub struct AnnealedCount {
    /// The estimate; `log_error_bound` is the *achieved* certified bound
    /// `Σ_i bound_i` (not the a-priori `n·ε`), and is `∞` if any level
    /// could not be certified at all within its budget.
    pub estimate: CountEstimate,
    /// Total sampler executions across all levels (anchor excluded).
    pub samples: usize,
    /// Number of levels whose achieved bound met the target `ε`.
    pub certified_levels: usize,
    /// Number of chain levels.
    pub levels: usize,
    /// The confidence `1 − δ` at which the reported bound holds.
    pub confidence: f64,
}

/// Per-level outcome of the annealed streaming loop.
struct LevelStat {
    p_hat: f64,
    achieved: f64,
    samples: usize,
}

/// Anytime annealed counting for **sampling-backed** oracles: estimates
/// `ln Z^τ` by Monte Carlo over independent executions of the Theorem
/// 3.2 LOCAL sampler, instead of a multiplicative inference oracle.
///
/// The anchor is the first feasible sampler output (fresh seed per
/// attempt). Each chain level then estimates
/// `p_i = μ̃^{τ∧σ_{<i}}_{v_i}(σ(v_i))` by streaming sampler executions
/// under the frozen prefix in chunks, stopping at the **first**
/// checkpoint whose Hoeffding interval (confidence `δ/levels`, union
/// bound over checkpoints) certifies relative log error `≤ ε` — an
/// anytime scheme that spends samples where the marginal is hard and
/// stops early where it is easy. The achieved per-level bounds are
/// summed into `estimate.log_error_bound`.
///
/// Levels are fanned across `pool` with per-level SplitMix64 seed
/// derivation, so the result is bit-identical at every pool width. Every
/// sampler execution scans one chromatic schedule, drawn once per call.
///
/// The certified bound covers Monte Carlo error only: each sampler
/// execution also carries the additive TV bias `δ_s + ε₀` of Theorem
/// 3.4 (see [`AnnealedConfig::sampler_delta`]).
pub fn log_partition_function_annealed<O>(
    model: &GibbsModel,
    pinning: &PartialConfig,
    oracle: &O,
    cfg: &AnnealedConfig,
    seed0: u64,
    pool: &ThreadPool,
) -> Result<AnnealedCount, CountError>
where
    O: InferenceOracle + Clone + Sync,
{
    let n = model.node_count();

    // anchor: first feasible sampler output
    let instance = Arc::new(
        Instance::new(model.clone(), pinning.clone()).map_err(|_| CountError::InfeasibleAnchor)?,
    );
    // one chromatic schedule for every sampler execution of the call:
    // it depends on the graph alone, which the level pinnings keep
    let schedule = shared_schedule(
        &Network::from_shared(Arc::clone(&instance), seed0),
        oracle,
        cfg.sampler_delta,
    );
    let anchor_seed = splitmix64(seed0 ^ 0x616e_6368_6f72); // "anchor"
    let mut anchor = None;
    for attempt in 0..cfg.max_anchor_attempts.max(1) as u64 {
        let net = Network::from_shared(Arc::clone(&instance), anchor_seed.wrapping_add(attempt));
        let run = sample_once(&net, oracle, cfg.sampler_delta, &schedule);
        if !run.succeeded() {
            continue;
        }
        let mut sigma = pinning.clone();
        for v in (0..n).map(NodeId::from_index) {
            if !sigma.is_pinned(v) {
                sigma.pin(v, run.outputs[v.index()]);
            }
        }
        let config = sigma.to_config();
        if model.weight(&config) > 0.0 {
            anchor = Some(config);
            break;
        }
    }
    let anchor = anchor.ok_or(CountError::InfeasibleAnchor)?;
    let w = model.weight(&anchor);

    let levels: Vec<(NodeId, Value)> = (0..n)
        .map(NodeId::from_index)
        .filter(|&v| !pinning.is_pinned(v))
        .map(|v| (v, anchor.get(v)))
        .collect();

    if levels.is_empty() {
        return Ok(AnnealedCount {
            estimate: CountEstimate {
                log_z: w.ln(),
                log_error_bound: 0.0,
                anchor,
            },
            samples: 0,
            certified_levels: 0,
            levels: 0,
            confidence: 1.0 - cfg.delta,
        });
    }

    // each level is a self-contained anytime Monte Carlo loop; fan them
    // across the pool with seeds derived from the level index alone
    let chunk = cfg.chunk.max(1);
    let budget = cfg.max_samples_per_level.max(chunk);
    let checkpoints = budget.div_ceil(chunk);
    let delta_ckpt = cfg.delta / levels.len() as f64 / checkpoints as f64;
    let indices: Vec<usize> = (0..levels.len()).collect();
    let stats: Vec<Result<LevelStat, CountError>> = pool.par_map(&indices, |&i| {
        let (v, target) = levels[i];
        let mut prefix = pinning.clone();
        for &(u, val) in &levels[..i] {
            prefix.pin(u, val);
        }
        let instance = Arc::new(
            Instance::new(model.clone(), prefix).map_err(|_| CountError::InfeasibleAnchor)?,
        );
        let level_seed = splitmix64(seed0 ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut hits = 0usize;
        let mut m = 0usize;
        let mut achieved = f64::INFINITY;
        while m < budget {
            let take = chunk.min(budget - m);
            for s in 0..take as u64 {
                let net = Network::from_shared(
                    Arc::clone(&instance),
                    level_seed.wrapping_add(m as u64 + s),
                );
                let run = sample_once(&net, oracle, cfg.sampler_delta, &schedule);
                if run.outputs[v.index()] == target {
                    hits += 1;
                }
            }
            m += take;
            let p = hits as f64 / m as f64;
            if p > 0.0 {
                let e = ((2.0 / delta_ckpt).ln() / (2.0 * m as f64)).sqrt();
                let upper = ((p + e) / p).ln();
                achieved = if p - e > 0.0 {
                    upper.max((p / (p - e)).ln())
                } else {
                    f64::INFINITY
                };
                if achieved <= cfg.eps {
                    break;
                }
            }
        }
        if hits == 0 {
            return Err(CountError::NonPositiveMarginal { vertex: v });
        }
        Ok(LevelStat {
            p_hat: hits as f64 / m as f64,
            achieved,
            samples: m,
        })
    });

    let mut log_z = w.ln();
    let mut bound = 0.0f64;
    let mut samples = 0usize;
    let mut certified = 0usize;
    for stat in stats {
        let stat = stat?;
        log_z -= stat.p_hat.ln();
        bound += stat.achieved;
        samples += stat.samples;
        if stat.achieved <= cfg.eps {
            certified += 1;
        }
    }

    Ok(AnnealedCount {
        estimate: CountEstimate {
            log_z,
            log_error_bound: bound,
            anchor,
        },
        samples,
        certified_levels: certified,
        levels: levels.len(),
        confidence: 1.0 - cfg.delta,
    })
}

/// Approximately counts independent sets of `g` weighted by fugacity `λ`
/// (`λ = 1` counts plain independent sets). Convenience wrapper wiring
/// the hardcore model to a boosted SAW oracle.
pub fn count_independent_sets(
    g: &lds_graph::Graph,
    lambda: f64,
    eps: f64,
) -> Result<CountEstimate, CountError> {
    use lds_gibbs::models::{hardcore, two_spin::TwoSpinParams};
    use lds_oracle::{BoostedOracle, DecayRate, TwoSpinSawOracle};
    let model = hardcore::model(g, lambda);
    let rate = crate::complexity::hardcore_decay_rate(lambda, g.max_degree().max(2));
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(lambda),
        DecayRate::new(rate.clamp(0.05, 0.95), 2.0),
    ));
    log_partition_function(
        &model,
        &PartialConfig::empty(g.node_count()),
        &oracle,
        eps,
        &ThreadPool::sequential(),
    )
    .map(|run| run.estimate)
}

/// Approximately counts matchings of `g` weighted by edge weight `λ`
/// (`λ = 1` counts plain matchings), via the line-graph duality.
pub fn count_matchings(
    g: &lds_graph::Graph,
    lambda: f64,
    eps: f64,
) -> Result<CountEstimate, CountError> {
    use lds_gibbs::models::{matching::MatchingInstance, two_spin::TwoSpinParams};
    use lds_oracle::{BoostedOracle, DecayRate, TwoSpinSawOracle};
    let inst = MatchingInstance::new(g, lambda);
    let rate = crate::complexity::matching_decay_rate(lambda, g.max_degree().max(1));
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(lambda),
        DecayRate::new(rate.clamp(0.05, 0.95), 2.0),
    ));
    log_partition_function(
        inst.model(),
        &PartialConfig::empty(inst.model().node_count()),
        &oracle,
        eps,
        &ThreadPool::sequential(),
    )
    .map(|run| run.estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::{coloring, hardcore};
    use lds_gibbs::{distribution, models::two_spin::TwoSpinParams};
    use lds_graph::generators;
    use lds_oracle::{BoostedOracle, DecayRate, EnumerationOracle, TwoSpinSawOracle};

    /// The sequential estimate alone.
    fn estimate<O>(
        model: &GibbsModel,
        tau: &PartialConfig,
        oracle: &O,
        eps: f64,
    ) -> Result<CountEstimate, CountError>
    where
        O: MultiplicativeInference + Sync,
    {
        log_partition_function(model, tau, oracle, eps, &ThreadPool::sequential())
            .map(|run| run.estimate)
    }

    /// The pre-split estimator, kept verbatim: one full-precision pass
    /// doing argmax construction and accumulation together. Used to
    /// check the two-pass estimator agrees within the combined bounds.
    fn pr6_estimator<O: MultiplicativeInference>(
        model: &GibbsModel,
        pinning: &PartialConfig,
        oracle: &O,
        eps: f64,
    ) -> Option<CountEstimate> {
        let n = model.node_count();
        let mut sigma = pinning.clone();
        let mut log_z = 0.0f64;
        let mut free_steps = 0usize;
        for v in (0..n).map(NodeId::from_index) {
            if sigma.is_pinned(v) {
                continue;
            }
            let mu = oracle.marginal_mul(model, &sigma, v, eps);
            let (argmax, p) = mu
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite marginal"))?;
            if p <= 0.0 {
                return None;
            }
            log_z -= p.ln();
            sigma.pin(v, Value::from_index(argmax));
            free_steps += 1;
        }
        let anchor = sigma.to_config();
        let w = model.weight(&anchor);
        if w <= 0.0 {
            return None;
        }
        log_z += w.ln();
        Some(CountEstimate {
            log_z,
            log_error_bound: free_steps as f64 * eps,
            anchor,
        })
    }

    /// Independent-set counts of paths are Fibonacci numbers:
    /// i(P_n) = F(n+2) with F(1) = F(2) = 1.
    #[test]
    fn path_independent_sets_are_fibonacci() {
        let fib = [1u64, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];
        for n in 2..=10usize {
            let g = generators::path(n);
            let est = count_independent_sets(&g, 1.0, 1e-4).unwrap();
            let expect = fib[n + 1] as f64; // F(n+2), 0-indexed offset
            assert!(
                (est.log_z - expect.ln()).abs() <= est.log_error_bound + 1e-6,
                "P{n}: ln Ẑ = {} vs ln {} (bound {})",
                est.log_z,
                expect,
                est.log_error_bound
            );
        }
    }

    /// Independent-set counts of cycles are Lucas numbers:
    /// i(C_n) = L(n) with L(1)=1, L(2)=3.
    #[test]
    fn cycle_independent_sets_are_lucas() {
        let lucas = [2u64, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199];
        for (n, &expect) in lucas.iter().enumerate().take(11).skip(3) {
            let g = generators::cycle(n);
            let est = count_independent_sets(&g, 1.0, 1e-4).unwrap();
            let expect = expect as f64;
            assert!(
                (est.log_z - expect.ln()).abs() <= est.log_error_bound + 1e-6,
                "C{n}: ln Ẑ = {} vs ln {}",
                est.log_z,
                expect
            );
        }
    }

    #[test]
    fn weighted_counts_match_enumeration() {
        let g = generators::grid(2, 3);
        for lambda in [0.5f64, 1.5] {
            let model = hardcore::model(&g, lambda);
            let exact = distribution::partition_function(&model, &PartialConfig::empty(6));
            let est = count_independent_sets(&g, lambda, 1e-5).unwrap();
            assert!(
                (est.log_z - exact.ln()).abs() <= est.log_error_bound + 1e-6,
                "λ={lambda}: {} vs {}",
                est.log_z,
                exact.ln()
            );
        }
    }

    #[test]
    fn matching_counts_match_enumeration() {
        let g = generators::cycle(6);
        let inst = lds_gibbs::models::matching::MatchingInstance::new(&g, 1.0);
        let exact = distribution::partition_function(
            inst.model(),
            &PartialConfig::empty(inst.model().node_count()),
        );
        let est = count_matchings(&g, 1.0, 1e-5).unwrap();
        assert!(
            (est.log_z - exact.ln()).abs() <= est.log_error_bound + 1e-6,
            "{} vs {}",
            est.log_z,
            exact.ln()
        );
    }

    #[test]
    fn coloring_counts_via_generic_estimator() {
        // chromatic polynomial of C5 at q=3: (q-1)^5 + (q-1)·(-1)^5 = 30
        let g = generators::cycle(5);
        let model = coloring::model(&g, 3);
        let oracle = BoostedOracle::new(EnumerationOracle::new(DecayRate::new(0.4, 2.0)));
        let est = estimate(&model, &PartialConfig::empty(5), &oracle, 1e-5).unwrap();
        assert!(
            (est.log_z - 30.0f64.ln()).abs() <= est.log_error_bound + 1e-6,
            "ln Ẑ = {} vs ln 30",
            est.log_z
        );
    }

    #[test]
    fn conditional_counts_follow_pinning() {
        // pin node 0 occupied on C5: remaining IS count = #IS containing v0
        let g = generators::cycle(5);
        let model = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(5);
        tau.pin(lds_graph::NodeId(0), Value(1));
        let exact = distribution::partition_function(&model, &tau);
        let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(1.0),
            DecayRate::new(0.5, 2.0),
        ));
        let est = estimate(&model, &tau, &oracle, 1e-5).unwrap();
        assert!(
            (est.log_z - exact.ln()).abs() <= est.log_error_bound + 1e-6,
            "{} vs {}",
            est.log_z,
            exact.ln()
        );
        // anchor honors the pinning
        assert_eq!(est.anchor.get(lds_graph::NodeId(0)), Value(1));
    }

    #[test]
    fn error_bound_scales_with_eps_and_size() {
        let g = generators::cycle(8);
        let a = count_independent_sets(&g, 1.0, 1e-3).unwrap();
        let b = count_independent_sets(&g, 1.0, 1e-5).unwrap();
        assert!(b.log_error_bound < a.log_error_bound);
        assert_eq!(a.log_error_bound, 8.0 * 1e-3);
    }

    #[test]
    fn two_pass_agrees_with_pre_split_estimator_within_bounds() {
        // both estimators carry the same |ln Ẑ − ln Z| ≤ n·ε guarantee
        // (the identity holds for ANY feasible anchor), so they differ
        // by at most the sum of their bounds
        let g = generators::cycle(9);
        let model = hardcore::model(&g, 1.3);
        let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(1.3),
            DecayRate::new(0.5, 2.0),
        ));
        let tau = PartialConfig::empty(9);
        let new = estimate(&model, &tau, &oracle, 1e-4).unwrap();
        let old = pr6_estimator(&model, &tau, &oracle, 1e-4).unwrap();
        assert!(
            (new.log_z - old.log_z).abs() <= new.log_error_bound + old.log_error_bound + 1e-9,
            "two-pass {} vs pre-split {}",
            new.log_z,
            old.log_z
        );
    }

    #[test]
    fn pooled_estimator_matches_reference_bitwise() {
        let g = generators::grid(3, 3);
        let model = hardcore::model(&g, 0.8);
        let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(0.8),
            DecayRate::new(0.5, 2.0),
        ));
        let mut tau = PartialConfig::empty(9);
        tau.pin(NodeId(4), Value(0));
        let reference = log_partition_function_reference(&model, &tau, &oracle, 1e-3).unwrap();
        for threads in [1usize, 4, 8] {
            let pool = ThreadPool::new(threads);
            let run = log_partition_function(&model, &tau, &oracle, 1e-3, &pool).unwrap();
            assert_eq!(run.estimate.log_z.to_bits(), reference.log_z.to_bits());
            assert_eq!(
                run.estimate.log_error_bound.to_bits(),
                reference.log_error_bound.to_bits()
            );
            assert_eq!(run.levels, 8);
        }
    }

    #[test]
    fn detailed_run_reports_phase_times() {
        let g = generators::cycle(8);
        let model = hardcore::model(&g, 1.0);
        let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(1.0),
            DecayRate::new(0.5, 2.0),
        ));
        let run = log_partition_function(
            &model,
            &PartialConfig::empty(8),
            &oracle,
            1e-3,
            &ThreadPool::sequential(),
        )
        .unwrap();
        assert_eq!(run.levels, 8);
        assert!(run.anchor_time > Duration::ZERO);
        assert!(run.marginal_time > Duration::ZERO);
    }

    /// An oracle that always returns an empty marginal vector.
    #[derive(Clone)]
    struct EmptyOracle;
    impl MultiplicativeInference for EmptyOracle {
        fn name(&self) -> &str {
            "empty"
        }
        fn radius_mul(&self, _: &GibbsModel, _: f64) -> usize {
            0
        }
        fn marginal_mul(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: f64) -> Vec<f64> {
            Vec::new()
        }
    }

    /// An oracle that returns an all-zero marginal vector.
    #[derive(Clone)]
    struct ZeroOracle;
    impl MultiplicativeInference for ZeroOracle {
        fn name(&self) -> &str {
            "zero"
        }
        fn radius_mul(&self, _: &GibbsModel, _: f64) -> usize {
            0
        }
        fn marginal_mul(
            &self,
            model: &GibbsModel,
            _: &PartialConfig,
            _: NodeId,
            _: f64,
        ) -> Vec<f64> {
            vec![0.0; model.alphabet_size()]
        }
    }

    /// An oracle that steers the anchor into a zero-weight config:
    /// claims every node is occupied with probability 1.
    #[derive(Clone)]
    struct AlwaysOccupied;
    impl MultiplicativeInference for AlwaysOccupied {
        fn name(&self) -> &str {
            "occupied"
        }
        fn radius_mul(&self, _: &GibbsModel, _: f64) -> usize {
            0
        }
        fn marginal_mul(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: f64) -> Vec<f64> {
            vec![0.0, 1.0]
        }
    }

    #[test]
    fn failure_causes_are_typed() {
        let g = generators::path(3);
        let model = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(3);
        assert_eq!(
            estimate(&model, &tau, &EmptyOracle, 0.1).unwrap_err(),
            CountError::EmptyMarginal { vertex: NodeId(0) }
        );
        assert_eq!(
            estimate(&model, &tau, &ZeroOracle, 0.1).unwrap_err(),
            CountError::NonPositiveMarginal { vertex: NodeId(0) }
        );
        // adjacent occupied nodes have hardcore weight 0
        assert_eq!(
            estimate(&model, &tau, &AlwaysOccupied, 0.1).unwrap_err(),
            CountError::InfeasibleAnchor
        );
    }

    #[test]
    fn annealed_estimate_is_cross_width_identical_and_sane() {
        let g = generators::cycle(6);
        let model = hardcore::model(&g, 1.0);
        let tau = PartialConfig::empty(6);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let cfg = AnnealedConfig {
            eps: 0.3,
            delta: 0.1,
            sampler_delta: 0.05,
            chunk: 64,
            max_samples_per_level: 2048,
            max_anchor_attempts: 8,
        };
        let base = log_partition_function_annealed(
            &model,
            &tau,
            &oracle,
            &cfg,
            42,
            &ThreadPool::sequential(),
        )
        .unwrap();
        // exact ln Z = ln 18 (Lucas L6); the certified bound covers MC
        // error only, so allow the additive sampler bias on top
        let exact = 18.0f64.ln();
        assert!(
            (base.estimate.log_z - exact).abs()
                <= base.estimate.log_error_bound + 6.0 * 2.0 * cfg.sampler_delta + 0.5,
            "annealed {} vs exact {} (bound {})",
            base.estimate.log_z,
            exact,
            base.estimate.log_error_bound
        );
        assert!(base.samples > 0);
        assert_eq!(base.levels, 6);
        assert!(base.certified_levels <= base.levels);
        assert_eq!(base.confidence, 0.9);
        for threads in [4usize, 8] {
            let pool = ThreadPool::new(threads);
            let run =
                log_partition_function_annealed(&model, &tau, &oracle, &cfg, 42, &pool).unwrap();
            assert_eq!(
                run.estimate.log_z.to_bits(),
                base.estimate.log_z.to_bits(),
                "width {threads}"
            );
            assert_eq!(run.samples, base.samples);
            assert_eq!(run.certified_levels, base.certified_levels);
        }
    }

    #[test]
    fn annealed_stops_early_on_easy_levels() {
        // a generous eps certifies at the first checkpoint: exactly one
        // chunk per level
        let g = generators::path(4);
        let model = hardcore::model(&g, 1.0);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let cfg = AnnealedConfig {
            eps: 5.0,
            chunk: 32,
            max_samples_per_level: 4096,
            ..AnnealedConfig::default()
        };
        let run = log_partition_function_annealed(
            &model,
            &PartialConfig::empty(4),
            &oracle,
            &cfg,
            7,
            &ThreadPool::sequential(),
        )
        .unwrap();
        assert_eq!(run.certified_levels, 4);
        assert_eq!(run.samples, 4 * 32);
        assert!(run.estimate.log_error_bound <= 4.0 * 5.0);
    }
}
