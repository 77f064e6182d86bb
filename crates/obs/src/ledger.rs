//! The round-complexity ledger: measured LOCAL costs against the
//! paper's predicted bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which theorem-backed observable an entry checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObservableKind {
    /// Simulated chromatic-scheduler rounds against the model's round
    /// bound (`RunReport::rounds` vs `RunReport::bound_rounds`).
    /// Violated when `measured > bound`.
    ChromaticRounds,
    /// Glauber sweeps actually executed against the sweep count the
    /// certified plan resolved at build time. The plan *is* the
    /// execution schedule, so any inequality is a violation.
    GlauberSweeps,
}

/// One recorded observation: a measured cost, the predicted bound, and
/// the rule that relates them.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundObservation {
    /// What is being checked.
    pub kind: ObservableKind,
    /// A short label for the run's model (e.g. `"hardcore"`).
    pub label: &'static str,
    /// The measured cost (rounds or sweeps).
    pub measured: f64,
    /// The predicted bound (round bound or planned sweeps).
    pub bound: f64,
}

impl RoundObservation {
    /// `measured / bound` (`∞` against a zero bound).
    pub fn ratio(&self) -> f64 {
        if self.bound == 0.0 {
            if self.measured == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured / self.bound
        }
    }

    /// `true` when the observation breaks its kind's rule.
    fn violates(&self) -> bool {
        match self.kind {
            ObservableKind::ChromaticRounds => self.measured > self.bound,
            ObservableKind::GlauberSweeps => self.measured != self.bound,
        }
    }
}

/// Aggregate view of a ledger: what tests and telemetry gate on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LedgerSummary {
    /// Observations recorded.
    pub observations: u64,
    /// Observations that broke their bound.
    pub violations: u64,
    /// The largest `measured / bound` ratio seen (0 when empty).
    pub max_ratio: f64,
}

/// Accumulates [`RoundObservation`]s across runs and flags bound
/// violations.
///
/// The engine records every sampling run's measured rounds (and, for
/// Glauber-served runs, sweeps) into the process ledger
/// ([`crate::ledger`]); `tests/round_ledger.rs` and `perf_telemetry`
/// treat a nonzero violation count as a hard error — a run that beats
/// its own paper bound is working evidence, one that exceeds it is a
/// broken theorem mapping, never noise.
#[derive(Debug, Default)]
pub struct RoundLedger {
    observations: Mutex<Vec<RoundObservation>>,
    recorded: AtomicU64,
    violations: AtomicU64,
}

/// Observations retained for inspection; aggregate counters keep
/// counting beyond this.
const RETAINED: usize = 4096;

impl RoundLedger {
    /// Records one observation; returns `false` (and counts a
    /// violation) when it breaks its bound.
    fn record(&self, obs: RoundObservation) -> bool {
        let ok = !obs.violates();
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        let mut retained = self.observations.lock().expect("round ledger lock");
        if retained.len() < RETAINED {
            retained.push(obs);
        } else {
            // keep the window moving: overwrite round-robin by count
            let i = (self.recorded.load(Ordering::Relaxed) as usize - 1) % RETAINED;
            retained[i] = obs;
        }
        ok
    }

    /// Convenience: record a chromatic-rounds check.
    pub fn record_rounds(&self, label: &'static str, measured: usize, bound: f64) -> bool {
        self.record(RoundObservation {
            kind: ObservableKind::ChromaticRounds,
            label,
            measured: measured as f64,
            bound,
        })
    }

    /// Convenience: record a Glauber sweeps-vs-plan check.
    pub fn record_sweeps(&self, label: &'static str, measured: u64, planned: u64) -> bool {
        self.record(RoundObservation {
            kind: ObservableKind::GlauberSweeps,
            label,
            measured: measured as f64,
            bound: planned as f64,
        })
    }

    /// Observations that broke their bound so far.
    fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// The retained observations (most recent `RETAINED`).
    pub fn observations(&self) -> Vec<RoundObservation> {
        self.observations.lock().expect("round ledger lock").clone()
    }

    /// Aggregates the ledger into the numbers gates consume.
    pub fn summary(&self) -> LedgerSummary {
        let max_ratio = self
            .observations
            .lock()
            .expect("round ledger lock")
            .iter()
            .map(RoundObservation::ratio)
            .fold(0.0, f64::max);
        LedgerSummary {
            observations: self.recorded.load(Ordering::Relaxed),
            violations: self.violations(),
            max_ratio,
        }
    }

    /// `Err` with the violating observations when any bound broke —
    /// the hard-error form tests use.
    pub fn check(&self) -> Result<(), Vec<RoundObservation>> {
        if self.violations() == 0 {
            return Ok(());
        }
        Err(self
            .observations()
            .into_iter()
            .filter(RoundObservation::violates)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_observations_are_clean() {
        let ledger = RoundLedger::default();
        assert!(ledger.record_rounds("hardcore", 40, 64.0));
        assert!(ledger.record_rounds("ising", 64, 64.0)); // boundary is ok
        assert!(ledger.record_sweeps("glauber", 12, 12));
        assert_eq!(ledger.violations(), 0);
        assert!(ledger.check().is_ok());
        let s = ledger.summary();
        assert_eq!(s.observations, 3);
        assert!((s.max_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn violations_are_flagged_as_hard_errors() {
        let ledger = RoundLedger::default();
        assert!(!ledger.record_rounds("coloring", 65, 64.0));
        assert!(!ledger.record_sweeps("glauber", 11, 12)); // != plan, even below
        assert!(ledger.record_rounds("matching", 10, 64.0));
        assert_eq!(ledger.violations(), 2);
        let broken = ledger.check().unwrap_err();
        assert_eq!(broken.len(), 2);
        assert!(broken.iter().all(RoundObservation::violates));
        let s = ledger.summary();
        assert_eq!(s.observations, 3);
        assert_eq!(s.violations, 2);
        assert!(s.max_ratio > 1.0);
    }

    #[test]
    fn ratio_handles_zero_bounds() {
        let zero = RoundObservation {
            kind: ObservableKind::ChromaticRounds,
            label: "z",
            measured: 0.0,
            bound: 0.0,
        };
        assert_eq!(zero.ratio(), 0.0);
        assert!(!zero.violates());
        let inf = RoundObservation {
            measured: 3.0,
            ..zero.clone()
        };
        assert!(inf.ratio().is_infinite());
        assert!(inf.violates());
    }

    #[test]
    fn retention_caps_memory_but_not_counts() {
        let ledger = RoundLedger::default();
        for i in 0..(RETAINED as u64 + 100) {
            ledger.record_rounds("bulk", i as usize % 10, 100.0);
        }
        assert_eq!(ledger.summary().observations, RETAINED as u64 + 100);
        assert_eq!(ledger.observations().len(), RETAINED);
    }
}
