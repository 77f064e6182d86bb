//! Lightweight span/event tracing: per-thread ring buffers of typed
//! events with monotonic timestamps and request-id correlation.
//!
//! Tracing is **off by default**. The disabled emit path is one
//! relaxed atomic load and a branch, so instrumented hot loops (the
//! serve dispatch, the net reader and writer) pay ~nothing until a test
//! or operator turns sampling on with [`set_sampling`]. With sampling
//! `k`, every `k`-th emitted event (per thread) is recorded into that
//! thread's fixed-size ring; [`drain`] collects the rings from every
//! thread that ever recorded, in timestamp order.
//!
//! Correlation: layers that serve one logical request (serve dispatch,
//! net sessions) wrap the work in [`with_request_id`], and every event
//! recorded inside carries that id — following one request across
//! engine → serve → net is a filter, not a join.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events the instrumented layers emit. Variants are intentionally
/// plain (copyable, no heap) so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request entered a serving queue (depth after enqueue).
    QueueEnqueue {
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// A request left a serving queue (depth after dequeue).
    QueueDequeue {
        /// Queue depth after the dequeue.
        depth: u32,
    },
    /// An idempotency-cache hit.
    CacheHit,
    /// An idempotency-cache miss.
    CacheMiss,
    /// A wire frame was encoded (payload bytes).
    WireEncode {
        /// Encoded payload length.
        bytes: u32,
    },
    /// A wire frame was decoded (payload bytes).
    WireDecode {
        /// Decoded payload length.
        bytes: u32,
    },
    /// A named span opened (pair with `SpanEnd` by name + thread).
    SpanStart {
        /// Static span name.
        name: &'static str,
    },
    /// A named span closed.
    SpanEnd {
        /// Static span name.
        name: &'static str,
    },
}

/// One recorded event: what, when (monotonic ns since the process's
/// first trace use), and for which request (0 = none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the process trace epoch (monotonic).
    pub at_ns: u64,
    /// The request id in scope when the event fired (0 = none).
    pub request_id: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Events retained per thread; older events are overwritten.
const RING_CAPACITY: usize = 4096;

struct Ring {
    records: Vec<TraceRecord>,
    next: usize,
}

impl Ring {
    fn push(&mut self, r: TraceRecord) {
        if self.records.len() < RING_CAPACITY {
            self.records.push(r);
        } else {
            self.records[self.next] = r;
            self.next = (self.next + 1) % RING_CAPACITY;
        }
    }
}

/// Sampling knob: 0 = disabled, k = record every k-th event per thread.
static SAMPLING: AtomicU32 = AtomicU32::new(0);
/// Monotonically growing request-id source for layers that need one.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    static LOCAL_SKIP: Cell<u32> = const { Cell::new(0) };
    static REQUEST_ID: Cell<u64> = const { Cell::new(0) };
}

/// Sets the sampling rate: `0` disables tracing (the default), `1`
/// records every event, `k` records every `k`-th event per thread.
pub fn set_sampling(every: u32) {
    SAMPLING.store(every, Ordering::Relaxed);
}

/// A fresh process-unique request id (never 0).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` with `id` as the thread's current request id; events
/// emitted inside carry it. Restores the previous id on exit (nesting
/// is fine).
pub fn with_request_id<R>(id: u64, f: impl FnOnce() -> R) -> R {
    let prev = REQUEST_ID.with(|r| r.replace(id));
    let out = f();
    REQUEST_ID.with(|r| r.set(prev));
    out
}

/// The request id currently in scope on this thread (0 = none).
pub fn current_request_id() -> u64 {
    REQUEST_ID.with(|r| r.get())
}

/// Emits one event. With sampling disabled this is one relaxed load
/// and a branch; with sampling `k` every `k`-th call per thread locks
/// the thread's own (uncontended) ring and records.
#[inline]
pub fn emit(event: TraceEvent) {
    let every = SAMPLING.load(Ordering::Relaxed);
    if every == 0 {
        return;
    }
    let due = LOCAL_SKIP.with(|s| {
        let n = s.get() + 1;
        if n >= every {
            s.set(0);
            true
        } else {
            s.set(n);
            false
        }
    });
    if !due {
        return;
    }
    let record = TraceRecord {
        at_ns: epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64,
        request_id: current_request_id(),
        event,
    };
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring {
                records: Vec::new(),
                next: 0,
            }));
            rings()
                .lock()
                .expect("trace ring registry lock")
                .push(Arc::clone(&ring));
            ring
        });
        ring.lock().expect("trace ring lock").push(record);
    });
}

/// Collects and clears every thread's recorded events, in timestamp
/// order. Threads recording concurrently may land events after the
/// drain; each recorded event is returned exactly once.
pub fn drain() -> Vec<TraceRecord> {
    let rings = rings().lock().expect("trace ring registry lock");
    let mut out: Vec<TraceRecord> = Vec::new();
    for ring in rings.iter() {
        let mut ring = ring.lock().expect("trace ring lock");
        out.append(&mut ring.records);
        ring.next = 0;
    }
    out.sort_by_key(|r| r.at_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // the sampling knob and rings are process-global; serialize the
    // tests that flip them
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_sampling(0);
        drain();
        emit(TraceEvent::CacheHit);
        emit(TraceEvent::CacheMiss);
        assert!(drain().is_empty());
    }

    #[test]
    fn sampling_one_records_everything_in_order() {
        let _g = lock();
        set_sampling(1);
        drain();
        emit(TraceEvent::QueueEnqueue { depth: 2 });
        emit(TraceEvent::WireEncode { bytes: 9 });
        emit(TraceEvent::QueueDequeue { depth: 1 });
        set_sampling(0);
        let events = drain();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(events[0].event, TraceEvent::QueueEnqueue { depth: 2 });
        assert_eq!(events[1].event, TraceEvent::WireEncode { bytes: 9 });
        // a second drain is empty
        assert!(drain().is_empty());
    }

    #[test]
    fn sampling_k_keeps_every_kth() {
        let _g = lock();
        set_sampling(3);
        drain();
        for _ in 0..9 {
            emit(TraceEvent::CacheHit);
        }
        set_sampling(0);
        assert_eq!(drain().len(), 3);
    }

    #[test]
    fn request_ids_correlate_and_nest() {
        let _g = lock();
        set_sampling(1);
        drain();
        assert_eq!(current_request_id(), 0);
        with_request_id(7, || {
            emit(TraceEvent::CacheHit);
            with_request_id(8, || emit(TraceEvent::CacheMiss));
            emit(TraceEvent::CacheHit);
        });
        set_sampling(0);
        let ids: Vec<u64> = drain().iter().map(|r| r.request_id).collect();
        assert_eq!(ids, [7, 8, 7]);
        assert_eq!(current_request_id(), 0);
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn cross_thread_events_are_all_collected() {
        let _g = lock();
        set_sampling(1);
        drain();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10 {
                        emit(TraceEvent::SpanStart { name: "t" });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_sampling(0);
        assert_eq!(drain().len(), 30);
    }
}
