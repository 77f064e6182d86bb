//! Unified observability for the workspace: a process-wide metrics
//! registry and the round-complexity ledger that checks measured LOCAL
//! rounds against the paper's bounds.
//!
//! The paper's central claims are *round-complexity* statements, so the
//! quantities this crate makes observable are not generic server
//! counters but the simulation costs the theorems bound: chromatic
//! scheduler rounds against the `O(log² n)`-flavored upper bounds
//! ([`RoundLedger`]), Glauber sweep counts against their certified
//! plans, and — below those — the mechanical health of every layer
//! that executes them (fan-out lanes, queue depths, wire latencies).
//!
//! Design constraints, in order:
//!
//! 1. **Dependency-free.** `lds-runtime` is dependency-free and must be
//!    instrumentable, so this crate sits at the very bottom of the
//!    workspace graph and uses `std` only.
//! 2. **Lock-free hot path.** Counters, gauges, and histogram
//!    recordings are single relaxed atomic operations on pre-resolved
//!    handles. Name lookup (the only locking operation) happens once at
//!    registration; hot paths hold `Arc` handles.
//!
//! The registry is process-global ([`global`]) so the live `NetServer`
//! (`Op::Metrics`) and the bench harness (`perf_telemetry`) read the
//! same numbers by construction. A component with numbers of its own
//! (each serving front-end) records into a [`MetricsScope`], and the
//! snapshot reports every name once, totalled over all scopes.
//! Independent registries can still be created for tests
//! (`MetricsRegistry::default()`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod ledger;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use ledger::{LedgerSummary, ObservableKind, RoundLedger, RoundObservation};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsScope, MetricsSnapshot};

use std::sync::OnceLock;

/// The process-wide registry every instrumented layer records into.
///
/// `Op::Metrics` snapshots this registry; `perf_telemetry` reads it;
/// [`MetricsSnapshot::render_text`] renders it for scraping.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// The process-wide round ledger (see [`RoundLedger`]). Engine runs
/// record their measured rounds/sweeps here; tests and telemetry check
/// it for bound violations.
pub fn ledger() -> &'static RoundLedger {
    static LEDGER: OnceLock<RoundLedger> = OnceLock::new();
    LEDGER.get_or_init(RoundLedger::default)
}
