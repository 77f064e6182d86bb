//! Multi-tenant engine registry: many models behind one process.
//!
//! A serving process with one `ModelSpec` per process does not scale to
//! many models — the ROADMAP's "millions of users" are not all sampling
//! the same hardcore cycle. The registry turns the serving layer
//! multi-tenant: a map from [`Engine::fingerprint`] to a **live
//! tenant** — the engine wrapped in its own [`Server`] (own bounded
//! queue, own sessions — one per thread of the engine's pool — own
//! idempotency cache, own [`ServerStats`]) — with LRU eviction of cold
//! tenants at a capacity cap.
//!
//! The fingerprint is the routing key *and* the identity contract:
//! because it pins everything that determines task outputs (spec bits,
//! topology, pinning, error targets), two processes that register the
//! same model derive the same key, and a `(fingerprint, task, seed)`
//! request is idempotent **across processes** — the property `lds-net`
//! relies on to serve over the wire.
//!
//! Eviction is graceful by construction: removing a tenant from the map
//! drops the registry's handle, but sessions still holding the
//! `Arc<Server>` keep being served; the server drains its accepted
//! queue when the last handle drops. A fingerprint that was evicted
//! simply re-registers on next use.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use lds_engine::Engine;

use crate::server::{Server, ServerConfig};
use crate::stats::ServerStats;

/// Tuning knobs of an [`EngineRegistry`].
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Most tenants kept live at once (default 8, clamped to ≥ 1).
    /// Registering beyond it evicts the least-recently-used tenant.
    pub capacity: usize,
    /// Per-tenant [`Server`] configuration (every registered engine
    /// gets its own queue and cache built from this template, and one
    /// session per thread of its pool).
    pub server: ServerConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            capacity: 8,
            server: ServerConfig::default(),
        }
    }
}

/// One live tenant: the engine's server plus registry bookkeeping.
struct Tenant {
    server: Arc<Server>,
    /// Logical clock value of the last lookup/registration — the LRU
    /// ordering key (a counter, not wall clock: cheap and total).
    last_used: u64,
    /// Baseline snapshot for [`EngineRegistry::interval_stats_of`]
    /// (`snapshot_and_reset` semantics: each interval query differences
    /// against this and replaces it).
    interval_base: ServerStats,
}

struct Inner {
    tenants: HashMap<u64, Tenant>,
    clock: u64,
    registrations: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
}

/// Registry-level counters (tenant churn and routing outcomes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    /// Tenants currently live.
    pub live: usize,
    /// Successful registrations (first-time and idempotent re-registers).
    pub registrations: u64,
    /// Tenants evicted by the LRU capacity cap.
    pub evictions: u64,
    /// Lookups that found a live tenant.
    pub hits: u64,
    /// Lookups for an unknown (never registered or evicted) fingerprint.
    pub misses: u64,
}

/// A map from [`Engine::fingerprint`] to live, serving engines. Each
/// tenant's [`Server`] runs one session per thread of its engine's pool
/// ([`Engine::threads`]), so a tenant's concurrency is set where its
/// engine is built, not here.
///
/// ```
/// use std::sync::Arc;
/// use lds_engine::{Engine, ModelSpec, Task};
/// use lds_graph::generators;
/// use lds_serve::{EngineRegistry, RegistryConfig};
///
/// let registry = EngineRegistry::new(RegistryConfig::default());
/// let engine = Engine::builder()
///     .model(ModelSpec::Hardcore { lambda: 1.0 })
///     .graph(generators::cycle(8))
///     .build()
///     .unwrap();
/// let fp = registry.register(engine);
/// let tenant = registry.get(fp).expect("just registered");
/// let report = tenant.run(Task::SampleExact, 7).unwrap();
/// assert_eq!(report.config().unwrap().len(), 8);
/// ```
pub struct EngineRegistry {
    inner: Mutex<Inner>,
    config: RegistryConfig,
}

impl EngineRegistry {
    /// An empty registry with the given configuration.
    pub fn new(config: RegistryConfig) -> Self {
        EngineRegistry {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                clock: 0,
                registrations: 0,
                evictions: 0,
                hits: 0,
                misses: 0,
            }),
            config: RegistryConfig {
                capacity: config.capacity.max(1),
                ..config
            },
        }
    }

    /// Registers an engine under its own fingerprint and returns that
    /// fingerprint. Idempotent: re-registering an already-live
    /// fingerprint keeps the existing tenant (its cache and stats
    /// survive) and merely refreshes its LRU position. Registering past
    /// the capacity cap evicts the least-recently-used *other* tenant.
    pub fn register(&self, engine: Engine) -> u64 {
        let fingerprint = engine.fingerprint();
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.clock += 1;
        inner.registrations += 1;
        let now = inner.clock;
        if let Some(tenant) = inner.tenants.get_mut(&fingerprint) {
            tenant.last_used = now;
            return fingerprint;
        }
        let server = Arc::new(Server::new(Arc::new(engine), self.config.server.clone()));
        let interval_base = server.stats();
        inner.tenants.insert(
            fingerprint,
            Tenant {
                server,
                last_used: now,
                interval_base,
            },
        );
        while inner.tenants.len() > self.config.capacity {
            // evict the coldest tenant that is not the one just added
            let coldest = inner
                .tenants
                .iter()
                .filter(|(fp, _)| **fp != fingerprint)
                .min_by_key(|(_, t)| t.last_used)
                .map(|(fp, _)| *fp);
            match coldest {
                Some(fp) => {
                    inner.tenants.remove(&fp);
                    inner.evictions += 1;
                }
                None => break, // capacity 1 and only the new tenant left
            }
        }
        fingerprint
    }

    /// Looks up a live tenant, refreshing its LRU position. `None` for
    /// fingerprints never registered or already evicted — the caller
    /// turns this into a typed "unknown fingerprint" error, never a
    /// panic.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<Server>> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.clock += 1;
        let now = inner.clock;
        match inner.tenants.get_mut(&fingerprint) {
            Some(tenant) => {
                tenant.last_used = now;
                let server = Arc::clone(&tenant.server);
                inner.hits += 1;
                Some(server)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Process-lifetime [`ServerStats`] of one tenant (no LRU refresh —
    /// scraping stats must not keep a cold tenant warm).
    pub fn stats_of(&self, fingerprint: u64) -> Option<ServerStats> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.tenants.get(&fingerprint).map(|t| t.server.stats())
    }

    /// The tenant's **interval** stats: everything since the previous
    /// `interval_stats_of` call (or registration), as a field-wise
    /// difference of [`ServerStats`], and resets the interval baseline —
    /// the `snapshot_and_reset` pattern. Two monitoring consumers should
    /// not share one registry interval; scrape [`stats_of`] and
    /// difference externally instead.
    ///
    /// [`stats_of`]: EngineRegistry::stats_of
    pub fn interval_stats_of(&self, fingerprint: u64) -> Option<ServerStats> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let tenant = inner.tenants.get_mut(&fingerprint)?;
        let now = tenant.server.stats();
        let delta = now.since(&tenant.interval_base);
        tenant.interval_base = now;
        Some(delta)
    }

    /// Registry-level counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry poisoned");
        RegistryStats {
            live: inner.tenants.len(),
            registrations: inner.registrations,
            evictions: inner.evictions,
            hits: inner.hits,
            misses: inner.misses,
        }
    }
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry poisoned");
        f.debug_struct("EngineRegistry")
            .field("live", &inner.tenants.len())
            .field("capacity", &self.config.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_engine::{ModelSpec, Task};
    use lds_graph::generators;

    fn engine(n: usize) -> Engine {
        Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(n))
            .epsilon(0.01)
            .threads(1)
            .build()
            .expect("in regime")
    }

    #[test]
    fn register_routes_and_is_idempotent() {
        let registry = EngineRegistry::new(RegistryConfig::default());
        let fp = registry.register(engine(8));
        assert_eq!(registry.register(engine(8)), fp, "same spec, same key");
        assert_eq!(registry.stats().live, 1, "idempotent registration");
        let tenant = registry.get(fp).unwrap();
        let direct = engine(8).run_with_seed(Task::SampleExact, 3).unwrap();
        let served = tenant.run(Task::SampleExact, 3).unwrap();
        assert_eq!(
            served.config().unwrap().values(),
            direct.config().unwrap().values()
        );
        assert!(registry.get(fp ^ 1).is_none(), "unknown key routes nowhere");
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.registrations, 2);
    }

    #[test]
    fn lru_eviction_at_capacity_and_reregistration() {
        let registry = EngineRegistry::new(RegistryConfig {
            capacity: 2,
            ..RegistryConfig::default()
        });
        let fp_a = registry.register(engine(6));
        let fp_b = registry.register(engine(8));
        // touch A so B is the LRU tenant
        registry.get(fp_a).unwrap();
        let fp_c = registry.register(engine(10));
        assert!(registry.stats_of(fp_a).is_some(), "recently used survives");
        assert!(registry.stats_of(fp_b).is_none(), "LRU tenant evicted");
        assert!(registry.stats_of(fp_c).is_some());
        assert_eq!(registry.stats().evictions, 1);
        // the evicted fingerprint re-registers cleanly
        assert_eq!(registry.register(engine(8)), fp_b);
        assert!(registry.stats_of(fp_b).is_some());
        assert!(
            registry.stats_of(fp_a).is_none(),
            "A became LRU and made room"
        );
        // B is now the hottest tenant, so C goes next
        registry.register(engine(6));
        assert!(registry.stats_of(fp_b).is_some());
        assert!(registry.stats_of(fp_c).is_none());
    }

    #[test]
    fn eviction_with_inflight_handle_still_serves() {
        let registry = EngineRegistry::new(RegistryConfig {
            capacity: 1,
            ..RegistryConfig::default()
        });
        let fp_a = registry.register(engine(6));
        let held = registry.get(fp_a).unwrap();
        let _fp_b = registry.register(engine(8)); // evicts A from the map
        assert!(registry.stats_of(fp_a).is_none());
        // the held handle keeps serving; the server drains when dropped
        assert!(held.run(Task::SampleExact, 1).is_ok());
    }

    #[test]
    fn interval_stats_reset_between_queries() {
        let registry = EngineRegistry::new(RegistryConfig::default());
        let fp = registry.register(engine(8));
        let tenant = registry.get(fp).unwrap();
        tenant.run(Task::SampleExact, 1).unwrap();
        tenant.run(Task::SampleExact, 2).unwrap();
        let first = registry.interval_stats_of(fp).unwrap();
        assert_eq!(first.completed, 2);
        // nothing happened since: the next interval is empty, while the
        // lifetime aggregate still carries both completions
        let second = registry.interval_stats_of(fp).unwrap();
        assert_eq!(second.completed, 0);
        assert_eq!(registry.stats_of(fp).unwrap().completed, 2);
        // and a cache hit in the next interval shows up as exactly one
        tenant.run(Task::SampleExact, 1).unwrap();
        let third = registry.interval_stats_of(fp).unwrap();
        assert_eq!(third.completed, 1);
        assert_eq!(third.cache_hits, 1);
        assert_eq!(third.engine_executions, 0);
    }
}
