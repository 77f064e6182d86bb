//! Statistical correctness: chi-square goodness of fit of
//! `Task::SampleExact` output against brute-force enumeration.
//!
//! Theorem 4.2: conditioned on success, `local-JVV`'s output follows the
//! Gibbs distribution `μ^τ` *exactly*. On instances small enough to
//! enumerate (≤ 12 carrier nodes) we draw thousands of samples with a
//! fixed-seed harness, keep the successful runs, and run Pearson's
//! chi-square test (`lds_core::stats`) of the observed configuration
//! counts against the enumerated law. The harness is deterministic —
//! fixed seeds through the engine's derived RNG streams — so these are
//! regression tests, not flaky Monte Carlo: the statistic only moves if
//! the sampler's distribution moves.

use lds::core::stats::{self, ChiSquare};
use lds::engine::{Backend, Engine, ModelSpec, SweepBudget, Task};
use lds::gibbs::distribution;
use lds::graph::generators;

/// Reject only overwhelming evidence of misfit; with fixed seeds the
/// p-value is a constant of the codebase, so any drift below this bound
/// signals a real distribution change.
const P_FLOOR: f64 = 1e-3;

/// Draws `trials` exact samples (seeds `0..trials`), tallies successful
/// runs per enumerated configuration, and chi-square-tests them against
/// the exact law. Also enforces that the success rate is healthy, since
/// exactness is conditional on success.
fn chi_square_exactness(engine: &Engine, trials: usize) -> ChiSquare {
    let model = engine.instance().model();
    let joint = distribution::joint_distribution(model, engine.instance().pinning())
        .expect("instance small enough to enumerate");
    let weights: Vec<f64> = joint.iter().map(|(_, p)| *p).collect();
    let seeds: Vec<u64> = (0..trials as u64).collect();
    let reports = engine
        .run_batch(Task::SampleExact, &seeds)
        .expect("valid task");
    let mut counts = vec![0u64; joint.len()];
    let mut accepted = 0usize;
    for report in &reports {
        if !report.succeeded {
            continue;
        }
        accepted += 1;
        let config = report.config().expect("sampling task");
        let idx = joint
            .iter()
            .position(|(c, _)| c == config)
            .expect("sample must be a feasible configuration");
        counts[idx] += 1;
    }
    assert!(
        accepted * 2 >= trials,
        "success rate collapsed: {accepted}/{trials}"
    );
    stats::goodness_of_fit(&counts, &weights, 5.0)
}

#[test]
fn hardcore_exact_samples_fit_the_gibbs_law() {
    // C8 at λ = 1: uniform over the 47 independent sets of the cycle
    let engine = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(8))
        .epsilon(0.001)
        .threads(2)
        .build()
        .unwrap();
    let test = chi_square_exactness(&engine, 2000);
    assert!(test.dof >= 20, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "hardcore misfit: {test:?}");
}

#[test]
fn ising_exact_samples_fit_the_gibbs_law() {
    // C6 antiferromagnet with a field: 64 configurations, non-uniform
    let engine = Engine::builder()
        .model(ModelSpec::Ising {
            beta: -0.2,
            field: 0.1,
        })
        .graph(generators::cycle(6))
        .epsilon(0.001)
        .threads(2)
        .build()
        .unwrap();
    let test = chi_square_exactness(&engine, 2000);
    assert!(test.dof >= 20, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "ising misfit: {test:?}");
}

#[test]
fn coloring_exact_samples_fit_the_gibbs_law() {
    // C5 with q = 4 (the regime needs q > α*·Δ ≈ 3.53): uniform over
    // the 240 proper colorings
    let engine = Engine::builder()
        .model(ModelSpec::Coloring { q: 4 })
        .graph(generators::cycle(5))
        .epsilon(0.002)
        .threads(2)
        .build()
        .unwrap();
    let test = chi_square_exactness(&engine, 2000);
    assert!(test.dof >= 20, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "coloring misfit: {test:?}");
}

#[test]
fn matching_exact_samples_fit_the_gibbs_law() {
    // P4 at λ = 1: the line graph is P3, whose monomer–dimer law has 5
    // configurations. Ported from the removed `lds_core::apps` test
    // suite (`matching_empirical_distribution_is_exact`) — matchings
    // are the one Corollary 5.3 model the facade suites above don't
    // cover statistically, and the only one whose carrier (the line
    // graph) differs from the input topology.
    let engine = Engine::builder()
        .model(ModelSpec::Matching { lambda: 1.0 })
        .graph(generators::path(4))
        .epsilon(0.002)
        .threads(2)
        .build()
        .unwrap();
    let test = chi_square_exactness(&engine, 2000);
    assert!(test.dof >= 3, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "matching misfit: {test:?}");
}

/// The Glauber analogue of [`chi_square_exactness`]: draws `trials`
/// approximate samples through a Glauber-backed `Task::SampleApprox`
/// (seeds `0..trials`) and chi-square-tests them against the enumerated
/// law. The sweep budget is fixed far above the certified mixing time
/// of these tiny instances, so the residual total-variation distance is
/// orders of magnitude below what the test could detect — a failure
/// means the dynamics are biased, not under-mixed. Every report must
/// also say Glauber actually served it.
fn chi_square_glauber(engine: &Engine, trials: usize, sweeps: u32) -> ChiSquare {
    let model = engine.instance().model();
    let joint = distribution::joint_distribution(model, engine.instance().pinning())
        .expect("instance small enough to enumerate");
    let weights: Vec<f64> = joint.iter().map(|(_, p)| *p).collect();
    let seeds: Vec<u64> = (0..trials as u64).collect();
    let reports = engine
        .run_batch(Task::SampleApprox, &seeds)
        .expect("in-regime Glauber request");
    let mut counts = vec![0u64; joint.len()];
    for report in &reports {
        assert_eq!(
            report.glauber_sweeps(),
            Some(sweeps),
            "Glauber must have served this run"
        );
        assert!(report.succeeded, "greedy ground pass cannot fail in-regime");
        let config = report.config().expect("sampling task");
        let idx = joint
            .iter()
            .position(|(c, _)| c == config)
            .expect("sample must be a feasible configuration");
        counts[idx] += 1;
    }
    stats::goodness_of_fit(&counts, &weights, 5.0)
}

/// Chi-square cross-validation of the Glauber backend against the same
/// enumerated law `Task::SampleExact` is tested against above — the
/// two backends agree on the target distribution, not just internally.
#[test]
fn hardcore_glauber_samples_fit_the_gibbs_law() {
    let engine = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(8))
        .epsilon(0.001)
        .threads(2)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(48),
        })
        .build()
        .unwrap();
    let test = chi_square_glauber(&engine, 2000, 48);
    assert!(test.dof >= 20, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "glauber hardcore misfit: {test:?}");
}

#[test]
fn ising_glauber_samples_fit_the_gibbs_law() {
    let engine = Engine::builder()
        .model(ModelSpec::Ising {
            beta: -0.2,
            field: 0.1,
        })
        .graph(generators::cycle(6))
        .epsilon(0.001)
        .threads(2)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(48),
        })
        .build()
        .unwrap();
    let test = chi_square_glauber(&engine, 2000, 48);
    assert!(test.dof >= 20, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "glauber ising misfit: {test:?}");
}

#[test]
fn coloring_glauber_samples_fit_the_gibbs_law() {
    let engine = Engine::builder()
        .model(ModelSpec::Coloring { q: 4 })
        .graph(generators::cycle(5))
        .epsilon(0.002)
        .threads(2)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(48),
        })
        .build()
        .unwrap();
    let test = chi_square_glauber(&engine, 2000, 48);
    assert!(test.dof >= 20, "degenerate binning: {test:?}");
    assert!(test.p_value > P_FLOOR, "glauber coloring misfit: {test:?}");
}
