//! Cooperative cancellation for long-running kernels.
//!
//! A [`CancelToken`] is checked *between* units of work (Glauber sweeps,
//! chunks of a sequential scan) — never inside one — so a
//! cancelled computation stops at a clean boundary and returns a typed
//! [`Cancelled`] instead of a partial result. Crucially for this
//! workspace, a cancellation check consumes **no randomness**: a run
//! that completes under a deadline is bit-identical to the same run
//! without one.
//!
//! The token is deliberately cheap: it is `Copy`, carries no
//! allocation, and a [`CancelToken::never`] token's
//! [`check`](CancelToken::check) is a single `Option` branch, so every
//! call path threads a token at no measurable cost.

use std::fmt;
use std::time::Instant;

/// The unit error of a cancelled computation. Callers map it into their
/// own typed error (`EngineError::DeadlineExceeded` at the engine
/// boundary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// A cancellation handle threaded through kernel runners: an optional
/// absolute deadline.
///
/// * [`CancelToken::never`] — the default for every entry point without
///   a budget; checks are a branch on `None` and always pass.
/// * [`CancelToken::with_deadline_opt`] — cancelled once `Instant::now()`
///   passes the deadline, if one is given (how serve enforces
///   per-request budgets).
#[derive(Clone, Copy, Debug, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels.
    pub fn never() -> CancelToken {
        CancelToken { deadline: None }
    }

    /// A token that cancels once `deadline` passes, or
    /// [`CancelToken::never`] without one — the shape serve's optional
    /// per-request budget produces.
    pub fn with_deadline_opt(deadline: Option<Instant>) -> CancelToken {
        CancelToken { deadline }
    }

    /// `true` once the deadline has passed.
    fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The cooperative checkpoint: `Err(Cancelled)` once cancelled.
    /// Consumes no randomness and takes no locks, so sprinkling it
    /// between rounds preserves bit-identical determinism.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_always_passes() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.deadline.is_none());
    }

    #[test]
    fn deadline_in_the_past_cancels_immediately() {
        let t = CancelToken::with_deadline_opt(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_in_the_future_passes_until_it_arrives() {
        let t = CancelToken::with_deadline_opt(Some(Instant::now() + Duration::from_secs(3600)));
        assert!(t.check().is_ok());
    }

    #[test]
    fn with_deadline_opt_none_is_never() {
        let t = CancelToken::with_deadline_opt(None);
        assert!(t.deadline.is_none());
        assert!(t.check().is_ok());
    }
}
