//! The persistent work-stealing thread pool.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// A job shipped to a parked worker: a boxed `'static` closure, so no
/// borrow from any caller's stack ever crosses into a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool observability handles, resolved against the process metrics
/// registry once. Every operation on them is a single relaxed atomic,
/// and they are touched **only on the fan-out path** — the width-1 /
/// single-item inline path of [`ThreadPool::par_map`] stays exactly
/// `items.iter().map(f).collect()` with zero instrumentation, which is
/// what keeps the microbenchmark gates honest.
struct PoolMetrics {
    /// Helper jobs enqueued to parked workers (one per lane fanned out).
    jobs: Arc<lds_obs::Counter>,
    /// Items claimed by helper lanes (the caller's own claims are the
    /// remainder of the per-call item count).
    steals: Arc<lds_obs::Counter>,
    /// Times a worker began waiting for a job (parked).
    parks: Arc<lds_obs::Counter>,
    /// Times a worker woke with a job (unparked).
    unparks: Arc<lds_obs::Counter>,
    /// Helper jobs currently enqueued but not yet picked up.
    queue_depth: Arc<lds_obs::Gauge>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = lds_obs::global();
        PoolMetrics {
            jobs: reg.counter("pool_jobs"),
            steals: reg.counter("pool_steals"),
            parks: reg.counter("pool_parks"),
            unparks: reg.counter("pool_unparks"),
            queue_depth: reg.gauge("pool_queue_depth"),
        }
    })
}

/// A deterministic persistent `std::thread` work-stealing pool.
///
/// Construction spawns `width − 1` long-lived workers parked on a shared
/// job channel (the calling thread is always the pool's remaining lane —
/// see below); [`par_map`](ThreadPool::par_map) ships each call's work to
/// them as `'static` closures instead of spawning scoped threads per
/// call, so a caller making many small calls (short batches, a few
/// marginals each) pays the thread-spawn cost **once per pool**, not
/// once per call.
///
/// Within one `par_map` call the workers self-schedule by stealing the
/// next unclaimed item index from a shared atomic counter. An idle
/// worker always steals the globally next item, so load imbalance
/// between items is absorbed without any per-worker queues — and because
/// every result lands in the slot of its input index, the output order
/// is the input order no matter which worker ran which item.
///
/// **The caller is a worker too.** After enqueuing the helper jobs, the
/// calling thread runs the same steal loop on the same counter. This
/// guarantees progress even when every parked worker is busy with other
/// work (e.g. an accidentally nested `par_map` on the same pool degrades
/// to an inline scan instead of deadlocking), and it means a pool of
/// width `w` uses exactly `w` lanes: `w − 1` parked workers plus the
/// caller.
///
/// Determinism contract: `par_map(items, f)` returns exactly
/// `items.iter().map(f).collect()` provided `f` is a pure function
/// of its item (no shared mutable state). All the workspace's parallel
/// call sites derive per-task RNG streams via [`crate::StreamRng`] to
/// satisfy this — the same counter discipline at every width — which is
/// what `tests/determinism.rs` locks down.
///
/// Cloning a `ThreadPool` is cheap and **shares** the same workers (the
/// clone is another handle, not another set of threads); the engine
/// hands one pool to batch fan-out, the counting estimators, and
/// boosting trials this way. The workers exit when the last handle
/// drops.
///
/// # Example
///
/// ```
/// use lds_runtime::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
    /// `None` at width 1 (fully inline, no threads at all).
    inner: Option<Arc<PoolInner>>,
}

/// The shared state of a pool's worker threads.
///
/// Workers are **detached**: shutdown is signalled purely by closing the
/// job channel, never by joining. This matters because the last
/// `Arc<PoolInner>` may be dropped *by a worker itself* — a job closure
/// can own the handle transitively (e.g. a batch job capturing an
/// `Arc`-shared engine that owns the pool), and joining from inside a
/// worker would self-deadlock (`EDEADLK`). With channel-only shutdown
/// the dropping thread — caller or worker — just closes the sender;
/// every parked worker wakes with a recv error and exits on its own.
struct PoolInner {
    sender: Mutex<Option<Sender<Job>>>,
}

impl std::fmt::Debug for PoolInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolInner").finish_non_exhaustive()
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        // closing the channel wakes every parked worker with a recv
        // error (after draining any queued jobs); they exit on their own
        if let Ok(mut sender) = self.sender.lock() {
            sender.take();
        }
    }
}

/// The parked-worker loop: pull a job, run it with panics contained (a
/// panicking job must not kill the long-lived worker — the panic payload
/// travels back to the caller through the job's result channel), repeat
/// until the pool closes the channel.
fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    let metrics = pool_metrics();
    loop {
        metrics.parks.inc();
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            guard.recv()
        };
        match job {
            Ok(job) => {
                metrics.unparks.inc();
                metrics.queue_depth.add(-1);
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
            }
            Err(_) => return, // pool dropped
        }
    }
}

impl Default for ThreadPool {
    /// Same as [`ThreadPool::from_env`].
    fn default() -> Self {
        ThreadPool::from_env()
    }
}

impl ThreadPool {
    /// A pool of the given width. Width `0` clamps to `1` (a pool cannot
    /// be narrower than its own caller, who is always one of the lanes),
    /// so e.g. `LDS_THREADS=0` degrades to sequential instead of
    /// panicking or deadlocking.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return ThreadPool {
                threads,
                inner: None,
            };
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..threads - 1 {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("lds-pool-{i}"))
                .spawn(move || worker_loop(rx))
                .expect("spawn pool worker");
        }
        ThreadPool {
            threads,
            inner: Some(Arc::new(PoolInner {
                sender: Mutex::new(Some(tx)),
            })),
        }
    }

    /// The single-threaded pool: every `par_map` runs inline on the
    /// caller's thread. This recovers exactly the pre-runtime sequential
    /// behavior.
    pub fn sequential() -> Self {
        ThreadPool::new(1)
    }

    /// A pool as wide as the machine (`std::thread::available_parallelism`).
    pub fn available() -> Self {
        ThreadPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Pool width from the `LDS_THREADS` environment variable, falling
    /// back to [`ThreadPool::available`] when unset or unparsable. This
    /// is the knob the CI determinism matrix turns. An explicit `0`
    /// clamps to width 1 (see [`ThreadPool::new`]).
    pub fn from_env() -> Self {
        match Self::parse_width(std::env::var("LDS_THREADS").ok().as_deref()) {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::available(),
        }
    }

    /// Parses an `LDS_THREADS`-style width: `None`/garbage means "no
    /// explicit width" (fall back to the machine), a parsed number is
    /// used as-is — `0` included, which [`ThreadPool::new`] clamps to 1.
    fn parse_width(value: Option<&str>) -> Option<usize> {
        value.and_then(|s| s.trim().parse::<usize>().ok())
    }

    /// The pool width (parked workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` if `par_map` runs inline (width 1).
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f` over `items`, fanning the work across the pool's parked
    /// workers (plus the calling thread) and gathering the results **in
    /// input order**.
    ///
    /// With width 1 (or at most one item) this is *exactly*
    /// `items.iter().map(f).collect()` — no synchronization, no clone,
    /// byte-for-byte the pre-pool sequential behavior. At width > 1 the
    /// items are cloned once into an `Arc` so the jobs shipped to the
    /// parked workers are `'static` (no borrow from the caller's stack
    /// ever crosses a thread boundary); one `Vec` clone per call is the
    /// entire price of persistence, against a thread spawn+join per call
    /// for the scoped strategy it replaced.
    ///
    /// A panic in `f` is resumed on the caller's thread after the
    /// in-flight items drain; the workers survive it (they are
    /// long-lived).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        self.par_map_bounded(items, f, usize::MAX)
    }

    /// [`par_map`](ThreadPool::par_map) with the fan-out capped at
    /// `max_lanes` lanes (the caller plus at most `max_lanes − 1` parked
    /// workers). A cap of 1 runs inline.
    ///
    /// The outputs are bit-identical to `par_map` at any cap — only the
    /// number of lanes claiming items changes, never the item→slot
    /// mapping. Throughput-oriented call sites use this to avoid
    /// oversubscribing the *machine*: fanning a CPU-bound batch across
    /// more lanes than the host has cores buys no parallelism and pays
    /// real context-switch overhead per item (measured ~45% on the batch
    /// serving path at width 4 on a 1-core host), while the other call
    /// sites (counting levels, boosting trials) keep the pool's full
    /// explicit width.
    pub fn par_map_bounded<T, R, F>(&self, items: &[T], f: F, max_lanes: usize) -> Vec<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let lanes = self.threads.min(max_lanes.max(1));
        if n <= 1 || lanes == 1 || self.inner.is_none() {
            return items.iter().map(f).collect();
        }
        let inner = self.inner.as_ref().expect("checked above");

        // Shared steal state: the items, the claim counter, and a
        // channel carrying (index, result) pairs — or the panic payload
        // of a failed item — back to the caller.
        type Outcome<R> = (usize, std::thread::Result<R>);
        let shared: Arc<Vec<T>> = Arc::new(items.to_vec());
        let next = Arc::new(AtomicUsize::new(0));
        let f = Arc::new(f);
        let (tx, rx) = channel::<Outcome<R>>();

        // the steal loop both helpers and the caller run; helper lanes
        // count their claims as steals (the caller's claims are its own
        // work, not stolen from anyone)
        let steal = {
            let shared = Arc::clone(&shared);
            let next = Arc::clone(&next);
            let f = Arc::clone(&f);
            move |tx: Sender<Outcome<R>>, helper: bool| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = shared.get(i) else { break };
                if helper {
                    pool_metrics().steals.inc();
                }
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                if tx.send((i, result)).is_err() {
                    break; // caller gone — stop pulling work
                }
            }
        };

        // enqueue lanes − 1 helper jobs; the caller is the final lane
        let helpers = (lanes - 1).min(n.saturating_sub(1));
        if let Ok(sender) = inner.sender.lock() {
            if let Some(sender) = sender.as_ref() {
                let metrics = pool_metrics();
                for _ in 0..helpers {
                    let steal = steal.clone();
                    let tx = tx.clone();
                    if sender.send(Box::new(move || steal(tx, true))).is_ok() {
                        metrics.jobs.inc();
                        metrics.queue_depth.add(1);
                    }
                }
            }
        }
        steal(tx, false);

        // Gather in input order. Every claimed index sends exactly one
        // outcome, so exactly `n` messages arrive — counting them (rather
        // than waiting for the channel to close) means the caller never
        // blocks on a stale helper job that is still queued behind other
        // callers' work. A panic is resumed only after all items drain,
        // like the scoped version did.
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..n {
            let (i, result) = rx.recv().expect("every claimed index reports");
            match result {
                Ok(r) => out[i] = Some(r),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        out.into_iter()
            .map(|s| s.expect("every index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.par_map(&items, |&x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn fan_out_is_observable() {
        // the global registry is shared across parallel tests, so only
        // monotone lower bounds on the deltas are assertable
        let reg = lds_obs::global();
        let jobs = reg.counter("pool_jobs").get();
        let unparks = reg.counter("pool_unparks").get();
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let out = pool.par_map(&items, |&x| {
            std::thread::yield_now();
            x
        });
        assert_eq!(out, items);
        // 3 helper jobs were enqueued for a width-4 fan-out
        assert!(reg.counter("pool_jobs").get() >= jobs + 3);
        // parked workers woke to take them (some may still be queued if
        // the caller drained everything, but the send itself landed)
        assert!(reg.counter("pool_unparks").get() >= unparks);
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(pool.par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // one huge item plus many tiny ones: all results still in order
        let items: Vec<u64> = (0..64).collect();
        let pool = ThreadPool::new(4);
        let out = pool.par_map(&items, |&x| {
            if x == 0 {
                (0..200_000u64).fold(0u64, |a, b| a.wrapping_add(b)) % 2 + x
            } else {
                x
            }
        });
        assert_eq!(out[0], 0);
        assert_eq!(&out[1..], &items[1..]);
    }

    #[test]
    fn workers_persist_across_calls() {
        // many consecutive calls on one pool: all correct, no respawn
        // needed for correctness (the spawn-cost win is measured in the
        // pool bench, not asserted here)
        let pool = ThreadPool::new(4);
        for round in 0..100u64 {
            let out = pool.par_map(&(0..16u64).collect::<Vec<_>>(), move |&x| x + round);
            let expect: Vec<u64> = (0..16).map(|x| x + round).collect();
            assert_eq!(out, expect, "round {round}");
        }
    }

    #[test]
    fn clones_share_workers_and_drop_cleanly() {
        let pool = ThreadPool::new(3);
        let clone = pool.clone();
        assert_eq!(clone.threads(), 3);
        let a = pool.par_map(&[1u64, 2, 3], |&x| x * 2);
        let b = clone.par_map(&[1u64, 2, 3], |&x| x * 2);
        assert_eq!(a, b);
        drop(pool);
        // surviving handle still works after the sibling drops
        let c = clone.par_map(&[5u64, 6], |&x| x + 1);
        assert_eq!(c, vec![6, 7]);
    }

    #[test]
    fn width_zero_clamps_to_one() {
        // regression: LDS_THREADS=0 must not panic or deadlock
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_sequential());
        assert_eq!(pool.par_map(&[1u64, 2, 3], |&x| x * x), vec![1, 4, 9]);
        assert_eq!(ThreadPool::parse_width(Some("0")), Some(0));
    }

    #[test]
    fn env_width_parsing() {
        assert_eq!(ThreadPool::parse_width(None), None);
        assert_eq!(ThreadPool::parse_width(Some("garbage")), None);
        assert_eq!(ThreadPool::parse_width(Some("")), None);
        assert_eq!(ThreadPool::parse_width(Some("4")), Some(4));
        assert_eq!(ThreadPool::parse_width(Some(" 2 ")), Some(2));
        assert!(ThreadPool::available().threads() >= 1);
        assert!(ThreadPool::sequential().is_sequential());
        assert_eq!(ThreadPool::new(5).threads(), 5);
    }

    #[test]
    fn bounded_fan_out_matches_unbounded_bitwise() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7 + 3).collect();
        let pool = ThreadPool::new(8);
        for cap in [1usize, 2, 4, 8, usize::MAX] {
            assert_eq!(
                pool.par_map_bounded(&items, |&x| x * 7 + 3, cap),
                expect,
                "cap {cap}"
            );
        }
    }

    #[test]
    fn bounded_to_one_lane_runs_inline() {
        // cap 1 must be the zero-synchronization inline path even on a
        // wide pool: thread-local state set by the closure proves every
        // item ran on the calling thread
        thread_local! {
            static HITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        HITS.with(|h| h.set(0));
        let pool = ThreadPool::new(4);
        let out = pool.par_map_bounded(
            &(0..32u64).collect::<Vec<_>>(),
            |&x| {
                HITS.with(|h| h.set(h.get() + 1));
                x
            },
            1,
        );
        assert_eq!(out.len(), 32);
        assert_eq!(HITS.with(|h| h.get()), 32, "an item ran off-thread");
        // cap 0 clamps to 1 (a fan-out cannot exclude its own caller)
        assert_eq!(pool.par_map_bounded(&[1u64, 2], |&x| x, 0), vec![1, 2]);
    }

    #[test]
    fn nested_par_map_degrades_instead_of_deadlocking() {
        // every worker lane busy with the outer call; inner calls run on
        // their calling lane via caller participation
        let pool = ThreadPool::new(2);
        let inner = pool.clone();
        let items: Vec<u64> = (0..8).collect();
        let out = pool.par_map(&items, move |&x| {
            inner.par_map(&[x, x + 1], |&y| y * 10).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|x| 10 * x + 10 * (x + 1)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let pool = ThreadPool::new(2);
        let _ = pool.par_map(&[1u64, 2, 3, 4], |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn pool_survives_a_panicking_call() {
        let pool = ThreadPool::new(3);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&[1u64, 2, 3, 4, 5, 6], |&x| {
                if x == 2 {
                    panic!("transient");
                }
                x
            })
        }));
        assert!(result.is_err());
        // the same workers serve the next call
        assert_eq!(pool.par_map(&[1u64, 2, 3], |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn last_handle_dropped_by_worker_is_safe() {
        // a job closure may transitively own a handle to its own pool
        // (e.g. a batch job capturing an Arc-shared engine); the worker
        // that drops the last Arc<F> then drops that handle. Shutdown is
        // channel-only, so this must neither deadlock nor panic — the
        // old join-on-drop strategy hit EDEADLK here.
        for _ in 0..50 {
            let pool = ThreadPool::new(2);
            let held = pool.clone();
            let items: Vec<u64> = (0..4).collect();
            let out = pool.par_map(&items, move |&x| {
                let _own_pool = &held;
                x
            });
            assert_eq!(out, items);
            drop(pool); // the worker may now hold the last handle
        }
    }

    #[test]
    fn captured_state_is_shared_not_borrowed() {
        // jobs are 'static: captured context travels by Arc, not borrow
        let base = Arc::new(vec![10u64, 20, 30]);
        let pool = ThreadPool::new(2);
        let captured = Arc::clone(&base);
        let out = pool.par_map(&[0usize, 1, 2], move |&i| captured[i]);
        assert_eq!(out, *base);
    }
}
