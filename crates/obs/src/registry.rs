//! The named-metric registry and its snapshot/exposition forms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::histogram::{merged_snapshot, Histogram, HistogramSnapshot};

/// A monotonically increasing counter. Bumping is one relaxed
/// `fetch_add` on a pre-resolved handle.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `by` to the counter.
    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous signed level (queue depth, in-flight
/// count). All operations are single relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `by` (may be negative).
    pub fn add(&self, by: i64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// The current level.
    fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One name's series: the unscoped handle, and one per live
/// [`MetricsScope`] that registered the name (keyed by scope id).
#[derive(Debug, Default)]
struct Entry<T> {
    unscoped: Arc<T>,
    scoped: BTreeMap<u64, Arc<T>>,
}

/// Every registered name of one metric kind.
type Named<T> = Mutex<BTreeMap<&'static str, Entry<T>>>;

/// Every update under a registry lock leaves its map valid, so a panic
/// elsewhere need not poison the registry (and a scope's `Drop` must
/// not panic).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The handle under `name`: the unscoped one, or scope `scope`'s own
/// (each created on first use).
fn resolve<T: Default>(map: &Named<T>, name: &'static str, scope: Option<u64>) -> Arc<T> {
    let mut map = lock(map);
    let entry = map.entry(name).or_default();
    Arc::clone(match scope {
        None => &entry.unscoped,
        Some(id) => entry.scoped.entry(id).or_default(),
    })
}

/// Every name with `total` over its unscoped and scoped handles.
fn totals<T, V>(map: &Named<T>, total: impl Fn(&[&T]) -> V) -> Vec<(String, V)> {
    lock(map)
        .iter()
        .map(|(&name, entry)| {
            let parts: Vec<&T> = std::iter::once(&entry.unscoped)
                .chain(entry.scoped.values())
                .map(|h| &**h)
                .collect();
            (name.to_owned(), total(&parts))
        })
        .collect()
}

/// Removes scope `id`'s handles, first passing each to `fold` with the
/// unscoped handle of its name. One lock covers both, so no snapshot
/// sees a handle both folded and live, or neither.
fn release<T>(map: &Named<T>, id: u64, fold: impl Fn(&T, &T)) {
    for entry in lock(map).values_mut() {
        if let Some(handle) = entry.scoped.remove(&id) {
            fold(&entry.unscoped, &handle);
        }
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Registration (name → handle) takes a lock once; the returned `Arc`
/// handles are lock-free to operate. Handles for one name are shared:
/// registering `"pool_jobs"` twice yields the same counter, so layers
/// can resolve their handles independently without coordination.
///
/// A component that needs its own numbers (one serving front-end among
/// several) records into a [`MetricsScope`] instead; the snapshot still
/// reports each name once, as the total over every scope.
///
/// Most code uses the process-wide instance ([`crate::global`]);
/// independent instances exist for tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Named<Counter>,
    gauges: Named<Gauge>,
    histograms: Named<Histogram>,
    next_scope: AtomicU64,
}

impl MetricsRegistry {
    /// The unscoped counter under `name` (created on first use).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        resolve(&self.counters, name, None)
    }

    /// The unscoped histogram under `name` (created on first use).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        resolve(&self.histograms, name, None)
    }

    /// A new scope: series of its own, added into this registry's
    /// totals.
    pub fn scope(&self) -> MetricsScope<'_> {
        MetricsScope {
            registry: self,
            id: self.next_scope.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. Each name appears once: counters and gauges are summed,
    /// and histograms merged, over the unscoped series and every live
    /// scope. Concurrent recordings land on one side of the snapshot
    /// or the other, never half-applied per metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: totals(&self.counters, |parts| parts.iter().map(|c| c.get()).sum()),
            gauges: totals(&self.gauges, |parts| parts.iter().map(|g| g.get()).sum()),
            histograms: totals(&self.histograms, merged_snapshot),
        }
    }
}

/// One component's series within a [`MetricsRegistry`] — for example
/// one serving front-end among several in a process. Its handles are
/// its own, so the component reads back exactly what it recorded, while
/// the registry's snapshot reports each name once, totalled over all
/// scopes.
///
/// Dropping the scope folds its counters and histograms into the
/// registry's unscoped series, so totals never go backwards, and
/// removes its gauges, which describe a component that no longer
/// exists. Recordings through its handles after the drop are lost.
#[derive(Debug)]
pub struct MetricsScope<'r> {
    registry: &'r MetricsRegistry,
    id: u64,
}

impl MetricsScope<'_> {
    /// This scope's counter under `name` (created on first use).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        resolve(&self.registry.counters, name, Some(self.id))
    }

    /// This scope's gauge under `name` (created on first use).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        resolve(&self.registry.gauges, name, Some(self.id))
    }

    /// This scope's histogram under `name` (created on first use).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        resolve(&self.registry.histograms, name, Some(self.id))
    }
}

impl Drop for MetricsScope<'_> {
    fn drop(&mut self) {
        let registry = self.registry;
        release(&registry.counters, self.id, |total, c| total.add(c.get()));
        release(&registry.gauges, self.id, |_, _| {});
        release(&registry.histograms, self.id, Histogram::absorb);
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: plain data, sorted
/// by name, safe to ship across threads or the wire (`Op::Metrics`)
/// and to render for scraping ([`MetricsSnapshot::render_text`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every registered gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every registered histogram, sorted by
    /// name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The level of a gauge by name, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram snapshot by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// samples, histograms as quantile summaries with `_sum`/`_count`.
    /// Deterministic (sorted by name) so two snapshots compare equal
    /// iff their renderings do.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for q in [0.5, 0.9, 0.99] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("hits").get(), 3);

        let scope = reg.scope();
        let g = scope.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(scope.gauge("depth").get(), 3);

        reg.histogram("lat").record(42);
        assert_eq!(reg.histogram("lat").snapshot().count, 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::default();
        reg.counter("zeta").add(1);
        reg.counter("alpha").add(2);
        let scope = reg.scope();
        scope.gauge("mid").set(-7);
        reg.histogram("lat").record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.counter("alpha"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("mid"), Some(-7));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert!(snap.render_text().contains("# TYPE mid gauge\nmid -7\n"));
    }

    /// The registry with no scopes reports what it did before scopes
    /// existed: this snapshot and its rendering are pinned literally.
    /// Gauges live only in scopes, so it has none.
    #[test]
    fn a_registry_without_scopes_snapshots_as_before() {
        let reg = MetricsRegistry::default();
        reg.counter("jobs").add(7);
        reg.counter("hits").inc();
        let lat = reg.histogram("lat");
        for v in [3u64, 40, 40, 900] {
            lat.record(v);
        }
        let snap = reg.snapshot();
        let expected = MetricsSnapshot {
            counters: vec![("hits".into(), 1), ("jobs".into(), 7)],
            gauges: vec![],
            histograms: vec![(
                "lat".into(),
                HistogramSnapshot {
                    count: 4,
                    sum: 983,
                    max: 900,
                    buckets: vec![(3, 1), (41, 2), (912, 1)],
                },
            )],
        };
        assert_eq!(snap, expected);
        assert_eq!(snap.histogram("lat"), Some(&lat.snapshot()));
        assert_eq!(
            snap.render_text(),
            "# TYPE hits counter\nhits 1\n# TYPE jobs counter\njobs 7\n\
             # TYPE lat summary\n\
             lat{quantile=\"0.5\"} 41\nlat{quantile=\"0.9\"} 912\n\
             lat{quantile=\"0.99\"} 912\nlat_sum 983\nlat_count 4\n"
        );
    }

    #[test]
    fn scopes_add_to_the_totals_and_keep_their_own_numbers() {
        let reg = MetricsRegistry::default();
        reg.counter("jobs").add(1);
        let (a, b) = (reg.scope(), reg.scope());
        a.counter("jobs").add(2);
        b.counter("jobs").add(4);
        b.counter("only_b").inc();
        a.gauge("depth").set(3);
        b.gauge("depth").set(-1);
        a.histogram("lat").record(10);
        b.histogram("lat").record(1000);
        // a scope reads back exactly what it recorded, by name
        assert_eq!(a.counter("jobs").get(), 2);
        assert_eq!(b.counter("jobs").get(), 4);
        assert_eq!(reg.counter("jobs").get(), 1);

        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["jobs", "only_b"], "each name once");
        assert_eq!(snap.counter("jobs"), Some(7));
        assert_eq!(snap.counter("only_b"), Some(1));
        assert_eq!(snap.gauge("depth"), Some(2));
        let both = Histogram::new();
        both.record(10);
        both.record(1000);
        assert_eq!(snap.histogram("lat"), Some(&both.snapshot()));
    }

    #[test]
    fn dropping_a_scope_keeps_its_totals_and_removes_its_gauges() {
        let reg = MetricsRegistry::default();
        let (a, b) = (reg.scope(), reg.scope());
        a.counter("jobs").add(2);
        b.counter("jobs").add(4);
        a.gauge("depth").set(3);
        b.gauge("depth").set(5);
        a.histogram("lat").record(10);
        b.histogram("lat").record(1000);
        let before = reg.snapshot();

        drop(a);
        let after = reg.snapshot();
        assert_eq!(after.counters, before.counters);
        assert_eq!(after.histograms, before.histograms);
        assert_eq!(after.gauge("depth"), Some(5));

        drop(b);
        let after = reg.snapshot();
        assert_eq!(after.counters, before.counters);
        assert_eq!(after.histograms, before.histograms);
        // the name stays, at its unscoped level
        assert_eq!(after.gauge("depth"), Some(0));
        // the folded totals now live on the unscoped series
        assert_eq!(reg.counter("jobs").get(), 6);
        assert_eq!(reg.histogram("lat").snapshot().count, 2);
    }

    #[test]
    fn totals_never_go_backwards_while_scopes_come_and_go() {
        let reg = MetricsRegistry::default();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..200 {
                            let scope = reg.scope();
                            let jobs = scope.counter("jobs");
                            for _ in 0..10 {
                                jobs.inc();
                            }
                        }
                    })
                })
                .collect();
            let mut last = 0;
            while !workers.iter().all(|w| w.is_finished()) {
                let now = reg.snapshot().counter("jobs").unwrap_or(0);
                assert!(now >= last, "total went from {last} back to {now}");
                last = now;
            }
        });
        assert_eq!(reg.snapshot().counter("jobs"), Some(4000));
    }

    #[test]
    fn text_exposition_round_trips_equality() {
        let reg = MetricsRegistry::default();
        reg.counter("jobs").add(7);
        let scope = reg.scope();
        scope.gauge("depth").set(2);
        let h = reg.histogram("lat");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.render_text();
        assert!(text.contains("# TYPE jobs counter"));
        assert!(text.contains("jobs 7"));
        assert!(text.contains("depth 2"));
        assert!(text.contains("lat{quantile=\"0.5\"} 20"));
        assert!(text.contains("lat_count 3"));
        assert!(text.contains("lat_sum 60"));
        // deterministic: equal snapshots render identically
        assert_eq!(text, reg.snapshot().render_text());
    }
}
