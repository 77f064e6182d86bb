//! Backend-selection API behavior: the `Backend` enum through the
//! builder, dispatch, reporting, and error surfaces.
//!
//! The statistical correctness of the Glauber sampler itself is locked
//! down in `tests/statistical.rs` (chi-square against enumeration) and
//! its width-independence in `tests/determinism.rs`; this suite covers
//! the *surface*: set-time validation, fingerprint separation, the
//! typed `BackendUnavailable` failure, `Auto` resolution, the report
//! fields, and the structured marginals reports with their deprecated
//! shims.

use lds::engine::{
    Backend, Engine, EngineError, MarginalsMethod, ModelSpec, ServedBackend, SweepBudget, Task,
};
use lds::graph::{generators, NodeId};

fn builder_on_cycle(n: usize) -> lds::engine::EngineBuilder {
    Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(generators::cycle(n))
        .epsilon(0.01)
        .delta(0.05)
        .threads(2)
}

/// A two-spin instance whose declared decay rate passes the sampling
/// regime check (`rate < 1`) but sits above the Glauber certificate's
/// ceiling (`0.99`) — buildable, yet Glauber cannot certify mixing.
fn uncertifiable_spec() -> ModelSpec {
    ModelSpec::TwoSpin {
        beta: 0.8,
        gamma: 0.9,
        lambda: 1.0,
        rate: 0.995,
    }
}

#[test]
fn backend_setter_validates_at_set_time() {
    // Fixed(0) is rejected by the setter, not at build or run time
    let err = builder_on_cycle(8)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(0),
        })
        .build()
        .unwrap_err();
    match err {
        EngineError::InvalidParameter { name, message } => {
            assert_eq!(name, "backend");
            assert!(message.contains("at least one sweep"), "{message}");
        }
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn first_invalid_setter_wins_over_a_later_backend_error() {
    // epsilon fails first; the backend error must not displace it
    let err = builder_on_cycle(8)
        .epsilon(-1.0)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(0),
        })
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::InvalidParameter {
                name: "epsilon",
                ..
            }
        ),
        "first invalid setter must win: {err:?}"
    );
}

#[test]
fn forced_glauber_out_of_regime_fails_typed_only_when_requested() {
    // the build succeeds — every other task is still servable
    let engine = Engine::builder()
        .model(uncertifiable_spec())
        .graph(generators::cycle(8))
        .epsilon(0.01)
        .threads(2)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Auto,
        })
        .build()
        .expect("build must succeed; only SampleApprox is unservable");

    // the unservable task fails typed, with the failed certificate
    let err = engine.run(Task::SampleApprox).unwrap_err();
    match &err {
        EngineError::BackendUnavailable { backend, cause } => {
            assert_eq!(*backend, "glauber");
            assert!(cause.computed >= cause.critical, "{cause:?}");
        }
        other => panic!("expected BackendUnavailable, got {other:?}"),
    }
    assert!(err.to_string().contains("`glauber` unavailable"), "{err}");

    // no silent fallback, and no collateral damage: exact sampling,
    // inference, and counting still serve through the oracle paths
    assert!(engine.run(Task::SampleExact).is_ok());
    assert!(engine.run(Task::Count).is_ok());
}

#[test]
fn auto_resolves_to_glauber_in_regime_and_chain_otherwise() {
    // hardcore on a cycle: rate well below the ceiling → Glauber serves
    let auto_in = builder_on_cycle(8).backend(Backend::Auto).build().unwrap();
    assert_eq!(auto_in.backend(), Backend::Auto);
    let report = auto_in.run(Task::SampleApprox).unwrap();
    assert!(
        matches!(report.backend, ServedBackend::Glauber { .. }),
        "auto should pick Glauber here: {:?}",
        report.backend
    );
    assert!(report.glauber.is_some(), "mixing diagnostics missing");

    // uncertifiable rate → Auto quietly serves the chain-rule sampler
    let auto_out = Engine::builder()
        .model(uncertifiable_spec())
        .graph(generators::cycle(8))
        .epsilon(0.01)
        .threads(2)
        .backend(Backend::Auto)
        .build()
        .unwrap();
    let report = auto_out
        .run(Task::SampleApprox)
        .expect("Auto never raises BackendUnavailable");
    assert_eq!(report.backend, ServedBackend::Exact);
    assert!(report.glauber.is_none());
}

#[test]
fn glauber_reports_carry_the_resolved_budget_and_diagnostics() {
    let engine = builder_on_cycle(8)
        .backend(Backend::Glauber {
            sweeps: SweepBudget::Fixed(17),
        })
        .build()
        .unwrap();
    assert_eq!(
        engine.backend(),
        Backend::Glauber {
            sweeps: SweepBudget::Fixed(17)
        }
    );
    let report = engine.run(Task::SampleApprox).unwrap();
    assert_eq!(report.glauber_sweeps(), Some(17));
    let stats = report.glauber.as_ref().expect("diagnostics");
    assert_eq!(stats.sweeps, 17);
    assert!(stats.site_updates > 0, "sweeps must touch sites");
    assert!(report.stats.is_none(), "no JVV stats on the Glauber path");

    // the exact paths are untouched by the backend choice
    let exact = engine.run(Task::SampleExact).unwrap();
    assert_eq!(exact.backend, ServedBackend::Exact);
    assert!(exact.glauber.is_none());
}

#[test]
fn default_backend_is_exact_and_reports_say_so() {
    let engine = builder_on_cycle(8).build().unwrap();
    assert_eq!(engine.backend(), Backend::Exact);
    let report = engine.run(Task::SampleApprox).unwrap();
    assert_eq!(report.backend, ServedBackend::Exact);
    assert!(report.glauber.is_none());
    assert_eq!(report.glauber_sweeps(), None);
}

#[test]
fn fingerprint_separates_backend_requests() {
    let fingerprints: Vec<u64> = [
        Backend::Exact,
        Backend::Auto,
        Backend::Glauber {
            sweeps: SweepBudget::Auto,
        },
        Backend::Glauber {
            sweeps: SweepBudget::Fixed(17),
        },
    ]
    .into_iter()
    .map(|b| {
        builder_on_cycle(8)
            .backend(b)
            .build()
            .unwrap()
            .fingerprint()
    })
    .collect();
    for (i, a) in fingerprints.iter().enumerate() {
        for b in &fingerprints[i + 1..] {
            assert_ne!(a, b, "backends must not collide in the fingerprint");
        }
    }
}

#[test]
fn structured_marginals_reports_mirror_run_reports() {
    let engine = builder_on_cycle(6).build().unwrap();
    let n = engine.instance().model().node_count();

    let exact = engine.marginals();
    assert!(matches!(
        exact.method,
        MarginalsMethod::Exact { epsilon } if epsilon == 0.01
    ));
    assert_eq!(exact.len(), n);
    assert!(!exact.is_empty());
    assert!(exact.rounds > 0, "oracle radius must be positive");
    assert!(!exact.phases.is_empty());
    let mu = exact.marginal(NodeId(0)).expect("node 0 in range");
    assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    assert!(exact.marginal(NodeId(n as u32)).is_none());

    let sampled = engine.marginals_sampled(150, 3).unwrap();
    match sampled.method {
        MarginalsMethod::Sampled {
            repetitions,
            failure_rate,
            delta,
        } => {
            assert_eq!(repetitions, 150);
            assert!((0.0..=1.0).contains(&failure_rate));
            assert_eq!(delta, 0.05);
        }
        other => panic!("expected Sampled, got {other:?}"),
    }
    assert_eq!(sampled.len(), n);
    assert!(
        engine.marginals_sampled(0, 3).is_err(),
        "zero repetitions is invalid"
    );
}
