//! The unified error type of the engine facade.

use lds_core::counting::CountError;
use lds_core::regime::OutOfRegime;
use lds_localnet::InfeasiblePinning;

/// Everything that can go wrong building an [`crate::Engine`] or
/// serving a [`crate::Task`] through it.
///
/// Absorbs the per-module error types of the lower layers
/// ([`OutOfRegime`], [`InfeasiblePinning`]) into one structured enum so
/// callers match on a single type.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The requested parameters are outside the regime for which the
    /// paper proves polylogarithmic sampling. Carries the violated
    /// threshold with both the computed and the critical value.
    OutOfRegime(OutOfRegime),
    /// The supplied pinning violates a fully pinned constraint.
    InfeasiblePinning,
    /// The supplied pinning does not cover the model's carrier node set
    /// (for edge models the carrier is the line/intersection graph).
    PinningLength {
        /// Carrier node count the pinning must have.
        expected: usize,
        /// Length of the pinning that was supplied.
        got: usize,
    },
    /// The builder was finalized without a [`crate::ModelSpec`].
    MissingModel,
    /// The builder was finalized without the topology kind the model
    /// needs (`graph` for the vertex/edge models, `hypergraph` for
    /// hypergraph matchings).
    MissingTopology {
        /// The topology kind the chosen model requires.
        expected: &'static str,
    },
    /// A numeric configuration value is invalid (e.g. `ε ≤ 0`).
    InvalidParameter {
        /// Name of the offending builder parameter.
        name: &'static str,
        /// What was wrong with it.
        message: String,
    },
    /// A task referenced a vertex or value outside the instance.
    InvalidTask {
        /// What was wrong with the request.
        message: String,
    },
    /// The chain-rule count estimator failed; the payload says which
    /// invariant broke (empty marginal vector, non-positive anchor
    /// marginal, or infeasible anchor weight — cannot happen for locally
    /// admissible models with an honest oracle).
    CountFailed(CountError),
    /// The explicitly requested sampling backend cannot serve this
    /// instance — e.g. [`crate::Backend::Glauber`] on a model whose
    /// decay rate has no mixing certificate. Raised when the task is
    /// actually requested, never as a silent fallback; the cause carries
    /// the violated threshold. `Backend::Auto` never raises this — it
    /// resolves to a servable path at build time.
    BackendUnavailable {
        /// Name of the unavailable backend (`"glauber"`).
        backend: &'static str,
        /// The certificate that failed, with computed vs. critical
        /// values.
        cause: OutOfRegime,
    },
    /// The run's deadline expired before it completed. The run was
    /// cancelled cooperatively at a check between scan chunks and
    /// produced **no partial report** — re-running the same `(task, seed)` without a
    /// deadline yields the bit-identical report the timed-out run would
    /// have produced.
    DeadlineExceeded,
    /// An injected fault fired at the marginal-oracle fail point
    /// (`engine.oracle_error`) — only reachable with the `lds-chaos`
    /// registry armed; carries the fault's message.
    Faulted(
        /// The injected fault's message.
        String,
    ),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfRegime(e) => write!(f, "{e}"),
            EngineError::InfeasiblePinning => {
                write!(f, "pinning violates a fully pinned constraint")
            }
            EngineError::PinningLength { expected, got } => write!(
                f,
                "pinning must cover the carrier node set: expected length {expected}, got {got}"
            ),
            EngineError::MissingModel => write!(f, "engine builder needs a ModelSpec"),
            EngineError::MissingTopology { expected } => {
                write!(f, "this model requires a {expected} topology")
            }
            EngineError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            EngineError::InvalidTask { message } => write!(f, "invalid task: {message}"),
            EngineError::CountFailed(cause) => {
                write!(f, "count estimator failed: {cause}")
            }
            EngineError::BackendUnavailable { backend, cause } => {
                write!(
                    f,
                    "backend `{backend}` unavailable for this instance: {cause}"
                )
            }
            EngineError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the run completed")
            }
            EngineError::Faulted(message) => write!(f, "injected fault: {message}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::OutOfRegime(e) => Some(e),
            EngineError::CountFailed(e) => Some(e),
            EngineError::BackendUnavailable { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<OutOfRegime> for EngineError {
    fn from(e: OutOfRegime) -> Self {
        EngineError::OutOfRegime(e)
    }
}

impl From<InfeasiblePinning> for EngineError {
    fn from(_: InfeasiblePinning) -> Self {
        EngineError::InfeasiblePinning
    }
}

impl From<CountError> for EngineError {
    fn from(e: CountError) -> Self {
        EngineError::CountFailed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_sources() {
        let oor = OutOfRegime {
            rate: 1.3,
            condition: "need λ < λ_c(4) = 1.6875, got λ = 2".into(),
            computed: 2.0,
            critical: 1.6875,
        };
        let e = EngineError::from(oor.clone());
        assert!(e.to_string().contains("uniqueness"));
        assert!(e.source().is_some(), "OutOfRegime must be the source");
        assert_eq!(e, EngineError::OutOfRegime(oor));

        let p = EngineError::from(InfeasiblePinning);
        assert_eq!(p, EngineError::InfeasiblePinning);
        assert!(p.source().is_none());
        assert!(EngineError::PinningLength {
            expected: 5,
            got: 3
        }
        .to_string()
        .contains("expected length 5"));
    }

    #[test]
    fn backend_unavailable_carries_the_failed_certificate() {
        let cause = OutOfRegime {
            rate: 0.995,
            condition: "local Glauber dynamics needs decay rate < 0.99, got 0.9950".into(),
            computed: 0.995,
            critical: 0.99,
        };
        let e = EngineError::BackendUnavailable {
            backend: "glauber",
            cause: cause.clone(),
        };
        let msg = e.to_string();
        assert!(msg.contains("`glauber` unavailable"), "{msg}");
        assert!(msg.contains("0.9950"), "{msg}");
        assert!(e.source().is_some(), "certificate must be the source");
        assert_eq!(
            e,
            EngineError::BackendUnavailable {
                backend: "glauber",
                cause
            }
        );
    }

    #[test]
    fn count_failures_carry_their_cause() {
        use lds_graph::NodeId;
        let causes = [
            CountError::EmptyMarginal { vertex: NodeId(3) },
            CountError::NonPositiveMarginal { vertex: NodeId(7) },
            CountError::InfeasibleAnchor,
        ];
        for cause in causes {
            let e = EngineError::from(cause);
            assert_eq!(e, EngineError::CountFailed(cause));
            // the diagnosis survives Display — that string is what
            // crosses the wire to serving clients
            assert!(
                e.to_string().contains(&cause.to_string()),
                "{e} should mention {cause}"
            );
            assert!(e.source().is_some(), "cause must be the source");
        }
    }
}
