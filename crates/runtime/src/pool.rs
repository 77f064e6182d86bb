//! Deterministic scoped fan-out across a fixed number of lanes.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

/// `pool_jobs`: helper lanes spawned, resolved against the process
/// metrics registry once. It is touched **only on the fan-out path** —
/// the width-1 / single-item inline path of [`ThreadPool::par_map`]
/// stays exactly `items.iter().map(f).collect()` with zero
/// instrumentation, which is what keeps the microbenchmark gates honest.
fn pool_jobs() -> &'static lds_obs::Counter {
    static JOBS: OnceLock<Arc<lds_obs::Counter>> = OnceLock::new();
    JOBS.get_or_init(|| lds_obs::global().counter("pool_jobs"))
}

/// A deterministic fan-out width: how many lanes a
/// [`par_map`](ThreadPool::par_map) call may run on.
///
/// A `ThreadPool` owns no threads. Each `par_map` call with more than
/// one lane spawns `lanes − 1` helper threads inside
/// [`std::thread::scope`] and runs the last lane on the calling thread,
/// so the items, the closure and everything it captures are borrowed,
/// never shipped, and every helper is joined before the call returns.
/// A fan-out pays one thread spawn per helper lane, so the workspace
/// fans out only where each item is a whole oracle query or sampler
/// execution.
///
/// Within one call the lanes self-schedule by claiming the next
/// unclaimed item index from a shared atomic counter. An idle lane
/// always takes the globally next item, so load imbalance between items
/// is absorbed without any per-lane queues — and because every result
/// carries its input index, the output order is the input order no
/// matter which lane ran which item. A nested `par_map` just fans out
/// again from its own lane.
///
/// Determinism contract: `par_map(items, f)` returns exactly
/// `items.iter().map(f).collect()` provided `f` is a pure function
/// of its item (no shared mutable state). All the workspace's parallel
/// call sites derive per-task RNG streams via [`crate::StreamRng`] to
/// satisfy this — the same counter discipline at every width — which is
/// what `tests/determinism.rs` locks down.
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
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of the given width. Width `0` clamps to `1` (a pool cannot
    /// be narrower than its own caller, who is always one of the lanes),
    /// so e.g. `LDS_THREADS=0` degrades to sequential instead of
    /// panicking.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
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
        ThreadPool::new(thread::available_parallelism().map_or(1, |n| n.get()))
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

    /// The pool width (helper lanes + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` if `par_map` runs inline (width 1).
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f` over `items` on up to [`threads`](ThreadPool::threads)
    /// lanes — scoped helper threads plus the calling thread — and
    /// gathers the results **in input order**.
    ///
    /// With width 1 (or at most one item) this is *exactly*
    /// `items.iter().map(f).collect()` — no synchronization, no thread,
    /// byte-for-byte the pre-pool sequential behavior.
    ///
    /// Every item runs even if some panic: each item's panic is caught,
    /// and the panic of the first panicking item in input order is
    /// resumed on the caller's thread once all lanes have joined.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.threads == 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let lane = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                done.push((i, panic::catch_unwind(AssertUnwindSafe(|| f(item)))));
            }
            done
        };
        let mut done = thread::scope(|scope| {
            // a helper the OS refuses to spawn is a lane fewer, not an
            // error: the remaining lanes claim its items
            let helpers: Vec<_> = (1..self.threads.min(n))
                .filter_map(|_| thread::Builder::new().spawn_scoped(scope, lane).ok())
                .collect();
            pool_jobs().add(helpers.len() as u64);
            let mut done = lane();
            for helper in helpers {
                done.extend(helper.join().expect("a lane catches its items' panics"));
            }
            done
        });
        // every index was claimed exactly once, so sorting by index
        // restores the input order
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter()
            .map(|(_, result)| result.unwrap_or_else(|payload| panic::resume_unwind(payload)))
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
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let out = pool.par_map(&items, |&x| {
            std::thread::yield_now();
            x
        });
        assert_eq!(out, items);
        // 3 helper lanes were spawned for a width-4 fan-out
        assert!(reg.counter("pool_jobs").get() >= jobs + 3);
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
        // many consecutive calls on one pool value, each spawning and
        // joining its own lanes: all correct
        let pool = ThreadPool::new(4);
        for round in 0..100u64 {
            let out = pool.par_map(&(0..16u64).collect::<Vec<_>>(), move |&x| x + round);
            let expect: Vec<u64> = (0..16).map(|x| x + round).collect();
            assert_eq!(out, expect, "round {round}");
        }
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
    fn bounded_to_one_lane_runs_inline() {
        // a width capped to one lane (as `run_batch` caps its width at
        // the host's lanes) must be the zero-synchronization inline
        // path: thread-local state set by the closure proves every item
        // ran on the calling thread
        thread_local! {
            static HITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        HITS.with(|h| h.set(0));
        let wide = ThreadPool::new(4);
        let pool = ThreadPool::new(wide.threads().min(1));
        let out = pool.par_map(&(0..32u64).collect::<Vec<_>>(), |&x| {
            HITS.with(|h| h.set(h.get() + 1));
            x
        });
        assert_eq!(out.len(), 32);
        assert_eq!(HITS.with(|h| h.get()), 32, "an item ran off-thread");
        // cap 0 clamps to 1 (a fan-out cannot exclude its own caller)
        assert_eq!(ThreadPool::new(0).par_map(&[1u64, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn nested_par_map_degrades_instead_of_deadlocking() {
        // every lane of the outer call fans out again from inside an
        // item: the inner calls spawn their own scoped lanes, so nesting
        // can neither deadlock nor reorder results
        let pool = ThreadPool::new(2);
        let items: Vec<u64> = (0..8).collect();
        let out = pool.par_map(&items, |&x| {
            pool.par_map(&[x, x + 1], |&y| y * 10).iter().sum::<u64>()
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
        // the same pool serves the next call
        assert_eq!(pool.par_map(&[1u64, 2, 3], |&x| x + 1), vec![2, 3, 4]);
    }
}
