//! Deterministic fault injection for the serving stack.
//!
//! A **fail point** is a named site in production code —
//! `chaos::point("net.write_torn")` — that is a single relaxed atomic
//! load when the registry is disarmed (the permanent state outside
//! chaos tests) and consults the armed [`Plan`] otherwise. Faults are
//! *data*: the site receives a [`Fault`] value and performs the
//! corresponding misbehavior itself (tear the frame, panic, sleep),
//! so the registry never holds a lock across a panic or a sleep.
//!
//! Fault **schedules are deterministic**: probabilistic triggers draw
//! their coin from [`lds_runtime::StreamRng`] keyed by
//! `(plan seed, site, hit index)` — never from global mutable RNG state
//! — so the same seed replays the same fault sequence for the same
//! sequence of site hits at any thread width. (Cross-width replay of a
//! *concurrent* workload additionally requires the workload itself to
//! hit sites in a deterministic order, e.g. a single caller issuing
//! requests sequentially.)
//!
//! The registry is process-global because fail points live in library
//! code that cannot thread a handle; chaos tests that arm it must
//! serialize among themselves (the armed plan is process state).
//! [`arm`] returns a guard that disarms on drop, so a failing test
//! cannot leak an armed plan into its successors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use lds_runtime::{splitmix64, streams, StreamRng};

/// A misbehavior a fail-point site performs when its rule fires. The
/// site owns the mechanics; the variant is the instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Sleep this long, then proceed normally (slow write, stalled
    /// read, queue stall).
    Delay(Duration),
    /// Write only the first `keep` bytes of the frame, then sever the
    /// connection (torn/truncated frame).
    TornWrite {
        /// Bytes of the frame (header + payload) actually written.
        keep: usize,
    },
    /// Sever the connection without writing anything.
    Reset,
    /// Panic at the site (contained by the supervisor under test).
    Panic,
    /// Fail the operation with this message as a typed error.
    Error(String),
}

/// When a [`Plan`] rule fires, as a function of the site's hit index
/// (0-based count of [`point`] calls on that site since arming).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire exactly once, on hit index `n`.
    Nth(u64),
    /// Fire on every `n`-th hit (indices `n-1`, `2n-1`, ...).
    EveryNth(u64),
    /// Fire with this probability per hit, decided by a coin derived
    /// from `(plan seed, site, hit index)` — deterministic replay.
    Prob(f64),
}

/// One fault schedule entry: at `site`, when `trigger` says so, inject
/// `fault`. The first matching rule per hit wins.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Rule {
    /// The fail-point site name (e.g. `"net.write_torn"`).
    pub(crate) site: String,
    /// When the rule fires.
    pub(crate) trigger: Trigger,
    /// What the site should do.
    pub(crate) fault: Fault,
}

impl Rule {
    /// A rule for `site` with the given trigger and fault.
    fn new(site: &str, trigger: Trigger, fault: Fault) -> Rule {
        Rule {
            site: site.to_string(),
            trigger,
            fault,
        }
    }
}

/// A deterministic fault schedule: a seed (for probabilistic triggers)
/// plus the rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Plan {
    /// Master seed for [`Trigger::Prob`] coins.
    pub(crate) seed: u64,
    /// The schedule; first matching rule per hit wins.
    pub(crate) rules: Vec<Rule>,
}

impl Plan {
    /// An empty plan with this seed.
    pub fn new(seed: u64) -> Plan {
        Plan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder-style rule append.
    pub fn with(mut self, site: &str, trigger: Trigger, fault: Fault) -> Plan {
        self.rules.push(Rule::new(site, trigger, fault));
        self
    }
}

struct SiteState {
    hits: u64,
    firings: u64,
}

struct ArmedState {
    plan: Plan,
    sites: HashMap<String, SiteState>,
}

/// Disarmed fast path: one relaxed load. This is the only cost a
/// production binary pays for carrying fail points.
static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<Option<ArmedState>> {
    static STATE: OnceLock<Mutex<Option<ArmedState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Chaos tests intentionally panic threads; a poisoned registry lock
/// must not cascade into unrelated assertions.
fn lock_state() -> MutexGuard<'static, Option<ArmedState>> {
    match state().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn firings_counter() -> &'static std::sync::Arc<lds_obs::Counter> {
    static COUNTER: OnceLock<std::sync::Arc<lds_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| lds_obs::global().counter("chaos_firings"))
}

/// Arms the registry with `plan`, resetting all hit/firing counts.
/// Returns a guard that disarms on drop. Arming while already armed
/// replaces the active plan.
pub fn arm(plan: Plan) -> ChaosGuard {
    let mut guard = lock_state();
    *guard = Some(ArmedState {
        plan,
        sites: HashMap::new(),
    });
    ARMED.store(true, Ordering::SeqCst);
    ChaosGuard { _private: () }
}

/// Disarms the registry; every [`point`] reverts to the one-load fast
/// path. Idempotent.
fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *lock_state() = None;
}

/// Disarms the registry when dropped (returned by [`arm`]). Hold it
/// for the scope of a chaos scenario so a panicking test cannot leak
/// an armed plan into the next one.
#[must_use = "dropping the guard disarms the registry immediately"]
pub struct ChaosGuard {
    _private: (),
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        disarm();
    }
}

impl std::fmt::Debug for ChaosGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChaosGuard")
    }
}

fn site_label(site: &str) -> u64 {
    site.bytes()
        .fold(0xc4a0_5eed, |acc, b| splitmix64(acc ^ b as u64))
}

fn coin(seed: u64, site: &str, hit: u64) -> f64 {
    let bits = StreamRng::derive(seed, streams::CHAOS)
        .substream(site_label(site))
        .substream(hit)
        .state();
    // 53 uniform mantissa bits → [0, 1)
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The fail point: returns the fault to inject at `site` for this hit,
/// or `None` (the overwhelmingly common case). Disarmed cost is a
/// single relaxed atomic load; armed cost is one mutex round trip.
pub fn point(site: &str) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    consult(site)
}

#[cold]
fn consult(site: &str) -> Option<Fault> {
    let mut guard = lock_state();
    let armed = guard.as_mut()?;
    let entry = armed.sites.entry(site.to_string()).or_insert(SiteState {
        hits: 0,
        firings: 0,
    });
    let hit = entry.hits;
    entry.hits += 1;
    let seed = armed.plan.seed;
    let fired = armed
        .plan
        .rules
        .iter()
        .find(|rule| {
            rule.site == site
                && match rule.trigger {
                    Trigger::Always => true,
                    Trigger::Nth(n) => hit == n,
                    Trigger::EveryNth(n) => n > 0 && (hit + 1) % n == 0,
                    Trigger::Prob(p) => coin(seed, site, hit) < p,
                }
        })
        .map(|rule| rule.fault.clone());
    if fired.is_some() {
        armed
            .sites
            .get_mut(site)
            .expect("entry just inserted")
            .firings += 1;
        drop(guard);
        firings_counter().inc();
    }
    fired
}

/// How many times a rule fired at `site` since arming.
pub fn firings(site: &str) -> u64 {
    lock_state()
        .as_ref()
        .and_then(|armed| armed.sites.get(site))
        .map_or(0, |s| s.firings)
}

/// The chaos seed for a test run: `LDS_CHAOS_SEED` when set and
/// parseable (decimal or `0x`-hex), else `default`. CI pins this for
/// reproducible matrix runs and randomizes it for the soak invocation.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("LDS_CHAOS_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or(default)
        }
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process state; tests arming it must not overlap.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<StdMutex<()>> = OnceLock::new();
        match GATE.get_or_init(|| StdMutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disarmed_points_return_none() {
        let _serial = serial();
        disarm();
        assert_eq!(point("net.write_torn"), None);
        assert_eq!(firings("net.write_torn"), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _serial = serial();
        let _guard = arm(Plan::new(1).with("s", Trigger::Nth(2), Fault::Reset));
        let fired: Vec<bool> = (0..5).map(|_| point("s").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(firings("s"), 1);
    }

    #[test]
    fn every_nth_trigger_fires_periodically() {
        let _serial = serial();
        let _guard = arm(Plan::new(1).with("s", Trigger::EveryNth(3), Fault::Reset));
        let fired: Vec<bool> = (0..9).map(|_| point("s").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn prob_schedule_replays_bit_identically_per_seed() {
        let _serial = serial();
        let run = |seed: u64| -> Vec<bool> {
            let _guard = arm(Plan::new(seed).with("p", Trigger::Prob(0.5), Fault::Reset));
            (0..64).map(|_| point("p").is_some()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "distinct seeds must differ (p=0.5 over 64 hits)");
        let rate = a.iter().filter(|f| **f).count();
        assert!((16..=48).contains(&rate), "p=0.5 fired {rate}/64");
    }

    #[test]
    fn first_matching_rule_wins_and_faults_carry_payloads() {
        let _serial = serial();
        let _guard = arm(Plan::new(1)
            .with("w", Trigger::Always, Fault::TornWrite { keep: 5 })
            .with("w", Trigger::Always, Fault::Reset));
        assert_eq!(point("w"), Some(Fault::TornWrite { keep: 5 }));
        assert_eq!(point("other"), None);
    }

    #[test]
    fn guard_drop_disarms() {
        let _serial = serial();
        {
            let _guard = arm(Plan::new(1).with("g", Trigger::Always, Fault::Panic));
            assert_eq!(point("g"), Some(Fault::Panic));
        }
        assert_eq!(point("g"), None);
    }

    #[test]
    fn seed_from_env_parses_or_defaults() {
        // env is process-global, so only pin the default path when the
        // variable is genuinely absent (CI sets it for chaos runs)
        if std::env::var("LDS_CHAOS_SEED").is_err() {
            assert_eq!(seed_from_env(42), 42);
        } else {
            let _ = seed_from_env(42);
        }
    }
}
