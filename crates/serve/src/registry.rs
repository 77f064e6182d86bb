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

use std::sync::{Arc, Mutex};

use lds_engine::Engine;

use crate::cache::LruCache;
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

struct Inner {
    /// Live tenants by fingerprint, in recency order.
    tenants: LruCache<u64, Arc<Server>>,
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
        let capacity = config.capacity.max(1);
        EngineRegistry {
            inner: Mutex::new(Inner {
                tenants: LruCache::new(capacity),
                registrations: 0,
                evictions: 0,
                hits: 0,
                misses: 0,
            }),
            config: RegistryConfig { capacity, ..config },
        }
    }

    /// Registers an engine under its own fingerprint and returns that
    /// fingerprint. Idempotent: re-registering an already-live
    /// fingerprint keeps the existing tenant (its cache and stats
    /// survive) and merely refreshes its LRU position. Registering past
    /// the capacity cap evicts the least-recently-used *other* tenant.
    ///
    /// The evicted tenant is dropped after the registry lock is
    /// released: if the registry held its last handle, the drop drains
    /// the tenant's queue, and that wait blocks only this call, never
    /// another tenant's lookups.
    pub fn register(&self, engine: Engine) -> u64 {
        let fingerprint = engine.fingerprint();
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.registrations += 1;
        if inner.tenants.get(&fingerprint).is_some() {
            return fingerprint;
        }
        let server = Arc::new(Server::new(Arc::new(engine), self.config.server.clone()));
        let evicted = inner.tenants.insert(fingerprint, server);
        if evicted.is_some() {
            inner.evictions += 1;
        }
        drop(inner);
        drop(evicted);
        fingerprint
    }

    /// Looks up a live tenant, refreshing its LRU position. `None` for
    /// fingerprints never registered or already evicted — the caller
    /// turns this into a typed "unknown fingerprint" error, never a
    /// panic.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<Server>> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let server = inner.tenants.get(&fingerprint).cloned();
        match server {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        server
    }

    /// Process-lifetime [`ServerStats`] of one tenant (no LRU refresh —
    /// scraping stats must not keep a cold tenant warm).
    pub fn stats_of(&self, fingerprint: u64) -> Option<ServerStats> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.tenants.peek(&fingerprint).map(|s| s.stats())
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
    fn reading_stats_does_not_warm_a_tenant() {
        let registry = EngineRegistry::new(RegistryConfig {
            capacity: 2,
            ..RegistryConfig::default()
        });
        let fp_a = registry.register(engine(6));
        let fp_b = registry.register(engine(8));
        // A is the coldest tenant; scraping its stats must leave it so
        assert!(registry.stats_of(fp_a).is_some());
        registry.register(engine(10));
        assert!(registry.stats_of(fp_a).is_none(), "cold tenant evicted");
        assert!(registry.stats_of(fp_b).is_some());
        assert_eq!(registry.stats().evictions, 1);
    }
}
