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
//!    estimate at precision `max(ε, 0.25)`. The identity
//!    above holds for **any** feasible `σ` — the anchor's quality never
//!    enters the error bound — and the coarse argmax is feasible because
//!    its estimate is `≥ 1/q > 0`, which by the multiplicative guarantee
//!    implies positive true probability.
//! 2. **Marginal pass** (parallel): with the pinning chain frozen, the
//!    `n` full-precision marginals `μ^{τ∧σ_{<i}}_{v_i}(σ(v_i))` are
//!    independent trials, fanned across the `lds_runtime::ThreadPool`
//!    via [`lds_oracle::chain_marginals_mul`]. Results are bit-identical
//!    at any pool width.

use std::time::{Duration, Instant};

use lds_gibbs::{GibbsModel, PartialConfig, Value};
use lds_graph::NodeId;
use lds_oracle::{chain_marginals_mul, Oracle, Target};
use lds_runtime::ThreadPool;

/// Precision floor for the anchor pass. The anchor only needs to be
/// *feasible* — any coarse argmax works, and the chain-rule error bound
/// is independent of the anchor choice — so anchor marginals are never
/// computed sharper than this even when the requested `ε` is tiny.
const ANCHOR_EPS_FLOOR: f64 = 0.25;

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
    /// The chain rule's bound on `|ln Ẑ − ln Z|`, `n·ε` over the `n` free
    /// nodes. It holds only if every chain answer met its multiplicative
    /// error `ε`, and nothing checks that yet: an oracle query whose walk
    /// ran out of budget can miss it.
    pub log_error_bound: f64,
    /// The feasible anchor configuration used by the chain rule.
    pub anchor: lds_gibbs::Config,
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
/// `max(ε, 0.25)`; the marginal pass evaluates the
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
    O: Oracle + Sync + ?Sized,
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
        let mu = oracle.query(model, &sigma, v, Target::Mul(anchor_eps));
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
pub fn log_partition_function_reference<O: Oracle + ?Sized>(
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
        let mu = oracle.query(model, &sigma, v, Target::Mul(anchor_eps));
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
        let mu = oracle.query(model, &prefix, v, Target::Mul(eps));
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
        O: Oracle + Sync,
    {
        log_partition_function(model, tau, oracle, eps, &ThreadPool::sequential())
            .map(|run| run.estimate)
    }

    /// The boosted SAW oracle for fugacity `λ`, planned at decay `rate`.
    fn boosted_saw(lambda: f64, rate: f64) -> BoostedOracle<TwoSpinSawOracle> {
        BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(lambda),
            DecayRate::new(rate.clamp(0.05, 0.95), 2.0),
        ))
    }

    /// The chain-rule estimate of `ln Z` for independent sets of `g` at
    /// fugacity `λ`, through the boosted SAW oracle at the hardcore rate.
    fn independent_sets(g: &lds_graph::Graph, lambda: f64, eps: f64) -> CountEstimate {
        let rate = crate::complexity::hardcore_decay_rate(lambda, g.max_degree().max(2));
        let model = hardcore::model(g, lambda);
        let tau = PartialConfig::empty(g.node_count());
        estimate(&model, &tau, &boosted_saw(lambda, rate), eps).unwrap()
    }

    /// The pre-split estimator, kept verbatim: one full-precision pass
    /// doing argmax construction and accumulation together. Used to
    /// check the two-pass estimator agrees within the combined bounds.
    fn pr6_estimator<O: Oracle>(
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
            let mu = oracle.query(model, &sigma, v, Target::Mul(eps));
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
            let est = independent_sets(&g, 1.0, 1e-4);
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
            let est = independent_sets(&g, 1.0, 1e-4);
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
            let est = independent_sets(&g, lambda, 1e-5);
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
        // the line-graph duality: matchings of C6 are the hardcore model on L(C6)
        let rate = crate::complexity::matching_decay_rate(1.0, g.max_degree().max(1));
        let est = estimate(
            inst.model(),
            &PartialConfig::empty(inst.model().node_count()),
            &boosted_saw(1.0, rate),
            1e-5,
        )
        .unwrap();
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
        let a = independent_sets(&g, 1.0, 1e-3);
        let b = independent_sets(&g, 1.0, 1e-5);
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
    impl Oracle for EmptyOracle {
        fn name(&self) -> &str {
            "empty"
        }
        fn radius(&self, _: &GibbsModel, _: Target) -> usize {
            0
        }
        fn query(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: Target) -> Vec<f64> {
            Vec::new()
        }
    }

    /// An oracle that returns an all-zero marginal vector.
    #[derive(Clone)]
    struct ZeroOracle;
    impl Oracle for ZeroOracle {
        fn name(&self) -> &str {
            "zero"
        }
        fn radius(&self, _: &GibbsModel, _: Target) -> usize {
            0
        }
        fn query(&self, model: &GibbsModel, _: &PartialConfig, _: NodeId, _: Target) -> Vec<f64> {
            vec![0.0; model.alphabet_size()]
        }
    }

    /// An oracle that steers the anchor into a zero-weight config:
    /// claims every node is occupied with probability 1.
    #[derive(Clone)]
    struct AlwaysOccupied;
    impl Oracle for AlwaysOccupied {
        fn name(&self) -> &str {
            "occupied"
        }
        fn radius(&self, _: &GibbsModel, _: Target) -> usize {
            0
        }
        fn query(&self, _: &GibbsModel, _: &PartialConfig, _: NodeId, _: Target) -> Vec<f64> {
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
}
