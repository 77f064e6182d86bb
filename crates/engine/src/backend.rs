//! Sampling-backend selection: which algorithm serves
//! [`crate::Task::SampleApprox`].
//!
//! The engine has two ways to produce an approximate sample inside the
//! uniqueness regime:
//!
//! * the **oracle-driven** chain-rule sampler (paper, Theorem 3.2):
//!   every node queries the inference oracle for its conditional
//!   marginal — one radius-`t` ball enumeration per node, total
//!   variation `≤ δ` unconditionally in-regime;
//! * **local Glauber dynamics** (Fischer–Ghaffari, arXiv:1802.06676;
//!   [`lds_core::glauber`]): `T` systematic sweeps of single-site
//!   heat-bath updates — a handful of factor-table lookups per site per
//!   sweep, no oracle queries at all, with `d_TV ≤ δ` certified by the
//!   one-step contraction argument when the model's SSM decay rate sits
//!   below [`lds_core::regime::GLAUBER_RATE_CEILING`].
//!
//! [`Backend`] picks between them. It only affects
//! [`crate::Task::SampleApprox`]: exact sampling always runs local-JVV
//! (Glauber cannot certify exactness), and inference/counting are
//! oracle computations with no sampling step.

use lds_core::regime::{self, GlauberPlan};

/// Sweep budget of a Glauber backend request.
///
/// Float-free (like [`crate::Task`]) so [`Backend`] stays
/// `Copy + Eq + Hash` and can ride in cache keys and wire messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SweepBudget {
    /// Use the certified budget `⌈ln(n/δ)/(1−rate)⌉` from
    /// [`lds_core::regime::glauber_plan`] — enough for `d_TV ≤ δ` under
    /// one-step contraction.
    Auto,
    /// Exactly this many sweeps (must be `≥ 1`; the builder's
    /// [`crate::EngineBuilder::backend`] setter rejects `Fixed(0)` at
    /// set time). The mixing certificate is still required — a fixed
    /// budget overrides *how long* the chain runs, not *whether* it is
    /// trusted.
    Fixed(u32),
}

/// Which sampling backend [`crate::Task::SampleApprox`] is served by.
///
/// Set via [`crate::EngineBuilder::backend`]; the backend that actually
/// served a run is reported in [`crate::RunReport::backend`]. The
/// choice changes the output bits of `SampleApprox` (both backends are
/// deterministic per seed, but they draw different randomness), so it
/// is part of [`crate::Engine::fingerprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The oracle-driven paths, exactly as before this enum existed:
    /// `SampleApprox` through the Theorem 3.2 chain-rule sampler (and
    /// `SampleExact` through local-JVV, as always). The default.
    #[default]
    Exact,
    /// Local Glauber dynamics with the given sweep budget. Requires the
    /// mixing certificate: on a model whose decay rate is at or above
    /// [`lds_core::regime::GLAUBER_RATE_CEILING`], `SampleApprox` fails
    /// with [`crate::EngineError::BackendUnavailable`] instead of
    /// silently falling back.
    Glauber {
        /// How many sweeps to run.
        sweeps: SweepBudget,
    },
    /// Pick per instance at build time via
    /// [`lds_core::regime::auto_sampling_backend`]: Glauber when its
    /// mixing certificate holds and the certified sweep budget
    /// undercuts the chain-rule cost proxy from `(ε, δ, rate)`; the
    /// chain-rule sampler otherwise. Never fails at run time.
    Auto,
}

/// The backend that actually served a report (recorded in
/// [`crate::RunReport::backend`]). Distinct from [`Backend`]: `Auto`
/// resolves at build time, and a [`SweepBudget`] resolves to a concrete
/// sweep count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServedBackend {
    /// An oracle-driven path served the task (local-JVV, the chain-rule
    /// sampler, or a pure oracle computation for inference/counting).
    Exact,
    /// Local Glauber dynamics served the task with this many sweeps.
    Glauber {
        /// Resolved sweep count of the execution.
        sweeps: u32,
    },
}

/// How `SampleApprox` will execute, resolved once at build time.
#[derive(Clone, Debug)]
pub(crate) enum ApproxPath {
    /// The Theorem 3.2 chain-rule sampler.
    Chain,
    /// Glauber dynamics with a concrete sweep count.
    Glauber { sweeps: u32 },
}

/// Resolves a requested [`Backend`] against the built instance's
/// `(rate, n, ε, δ)`. A forced Glauber request without a mixing
/// certificate resolves to the certificate's [`regime::OutOfRegime`] —
/// surfaced as [`crate::EngineError::BackendUnavailable`] when
/// `SampleApprox` is actually requested (the build itself succeeds:
/// every other task is still servable).
pub(crate) fn resolve_backend(
    backend: Backend,
    rate: f64,
    n: usize,
    epsilon: f64,
    delta: f64,
) -> Result<ApproxPath, regime::OutOfRegime> {
    let budget = |budget: SweepBudget, plan: GlauberPlan| match budget {
        SweepBudget::Auto => plan.sweeps.min(u32::MAX as usize) as u32,
        SweepBudget::Fixed(k) => k,
    };
    match backend {
        Backend::Exact => Ok(ApproxPath::Chain),
        Backend::Glauber { sweeps } => {
            let plan = regime::glauber_plan(rate, n, delta)?;
            Ok(ApproxPath::Glauber {
                sweeps: budget(sweeps, plan),
            })
        }
        Backend::Auto => match regime::auto_sampling_backend(rate, n, epsilon, delta) {
            regime::AutoBackend::Glauber(plan) => Ok(ApproxPath::Glauber {
                sweeps: budget(SweepBudget::Auto, plan),
            }),
            regime::AutoBackend::Exact => Ok(ApproxPath::Chain),
        },
    }
}

/// The backend's contribution to [`crate::Engine::fingerprint`]: a tag
/// word plus the sweep budget, mixed like every other output-
/// determining ingredient. [`Backend::Exact`] and [`Backend::Auto`]
/// that resolves to the chain path produce different fingerprints —
/// deliberately: the fingerprint identifies the *request*, and a later
/// release may re-tune the `Auto` policy.
pub(crate) fn fingerprint_words(backend: Backend) -> (u64, u64) {
    match backend {
        Backend::Exact => (0x21, 0),
        Backend::Glauber {
            sweeps: SweepBudget::Auto,
        } => (0x22, u64::MAX),
        Backend::Glauber {
            sweeps: SweepBudget::Fixed(k),
        } => (0x22, k as u64),
        Backend::Auto => (0x23, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_the_default_and_resolves_to_chain() {
        assert_eq!(Backend::default(), Backend::Exact);
        assert!(matches!(
            resolve_backend(Backend::Exact, 0.5, 10, 0.01, 0.05),
            Ok(ApproxPath::Chain)
        ));
    }

    #[test]
    fn glauber_resolves_budgets() {
        match resolve_backend(
            Backend::Glauber {
                sweeps: SweepBudget::Fixed(7),
            },
            0.5,
            10,
            0.01,
            0.05,
        ) {
            Ok(ApproxPath::Glauber { sweeps }) => assert_eq!(sweeps, 7),
            other => panic!("expected Glauber(7), got {other:?}"),
        }
        match resolve_backend(
            Backend::Glauber {
                sweeps: SweepBudget::Auto,
            },
            0.5,
            10,
            0.01,
            0.05,
        ) {
            Ok(ApproxPath::Glauber { sweeps }) => {
                assert_eq!(
                    sweeps as usize,
                    regime::glauber_plan(0.5, 10, 0.05).unwrap().sweeps
                );
            }
            other => panic!("expected Glauber(auto), got {other:?}"),
        }
    }

    #[test]
    fn forced_glauber_out_of_regime_is_an_error_auto_is_not() {
        let rate = 0.995; // past the Glauber ceiling, inside the sampling regime
        assert!(resolve_backend(
            Backend::Glauber {
                sweeps: SweepBudget::Auto
            },
            rate,
            10,
            0.01,
            0.05
        )
        .is_err());
        assert!(matches!(
            resolve_backend(Backend::Auto, rate, 10, 0.01, 0.05),
            Ok(ApproxPath::Chain)
        ));
    }

    #[test]
    fn fingerprint_words_separate_requests() {
        let words: Vec<(u64, u64)> = [
            Backend::Exact,
            Backend::Auto,
            Backend::Glauber {
                sweeps: SweepBudget::Auto,
            },
            Backend::Glauber {
                sweeps: SweepBudget::Fixed(8),
            },
            Backend::Glauber {
                sweeps: SweepBudget::Fixed(9),
            },
        ]
        .into_iter()
        .map(fingerprint_words)
        .collect();
        for (i, a) in words.iter().enumerate() {
            for b in &words[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
