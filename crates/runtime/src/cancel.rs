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
//! The token is deliberately cheap when absent: [`CancelToken::never`]
//! carries no allocation, and its [`check`](CancelToken::check) is a
//! single `Option` branch, so every pre-existing call path threads a
//! token at no measurable cost.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

#[derive(Debug)]
struct Inner {
    /// Absolute wall-clock deadline, if this token carries one.
    deadline: Option<Instant>,
    /// Set by [`CancelToken::cancel`]; checked alongside the deadline.
    flag: AtomicBool,
}

/// A cloneable cancellation handle threaded through kernel runners.
///
/// Three constructors cover the use sites:
///
/// * [`CancelToken::never`] — the default for every legacy entry point;
///   checks are a branch on `None` and always pass.
/// * [`CancelToken::with_deadline_opt`] — cancelled once `Instant::now()`
///   passes the deadline, if one is given (how serve enforces
///   per-request budgets).
/// * [`CancelToken::manual`] — cancelled explicitly via
///   [`CancelToken::cancel`] (tests, administrative aborts).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels. Free to clone and check.
    pub fn never() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A token that cancels once `deadline` passes, or
    /// [`CancelToken::never`] without one — the shape serve's optional
    /// per-request budget produces.
    pub fn with_deadline_opt(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: deadline.map(|d| {
                Arc::new(Inner {
                    deadline: Some(d),
                    flag: AtomicBool::new(false),
                })
            }),
        }
    }

    /// A token cancelled only by an explicit [`CancelToken::cancel`].
    pub fn manual() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                deadline: None,
                flag: AtomicBool::new(false),
            })),
        }
    }

    /// Cancels the token (and every clone of it). No-op on a
    /// [`CancelToken::never`] token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// `true` once the token is cancelled (flag set or deadline
    /// passed).
    fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
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
        t.cancel(); // no-op
        assert!(t.check().is_ok());
        assert!(t.inner.is_none());
    }

    #[test]
    fn manual_cancel_reaches_every_clone() {
        let t = CancelToken::manual();
        let clone = t.clone();
        assert!(clone.check().is_ok());
        t.cancel();
        assert_eq!(clone.check(), Err(Cancelled));
        assert!(t.is_cancelled());
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
        // explicit cancel still wins over a future deadline
        t.cancel();
        assert_eq!(t.check(), Err(Cancelled));
    }

    #[test]
    fn with_deadline_opt_none_is_never() {
        let t = CancelToken::with_deadline_opt(None);
        assert!(t.inner.is_none());
        assert!(t.check().is_ok());
    }
}
