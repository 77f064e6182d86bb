//! A blocking bounded MPMC channel.
//!
//! `std::sync::mpsc` is unbounded with a single consumer, but a serving
//! front-end needs the opposite shape: a **bounded** queue that multiple
//! producers (client sessions) push into and multiple consumers (worker
//! sessions, each taking one request at a time) drain, where a full
//! queue is an *admission-control signal* rather than an allocation.
//! This module is that primitive: a `Mutex<VecDeque>` + two condvars,
//! nothing clever — the queue is a backpressure valve, not a hot loop.
//!
//! Semantics:
//!
//! * [`Sender::try_send_below`] never blocks: a queue at the given depth
//!   returns [`TrySendError::Full`] with the item handed back, which is
//!   what a server turns into an `Overloaded` rejection.
//! * [`Sender::send`] blocks until space frees up (or every receiver is
//!   gone).
//! * [`Receiver::recv`] blocks until an item arrives (or every sender is
//!   gone **and** the queue has drained — queued items are never lost to
//!   a disconnect).
//! * Both ends are [`Clone`]; the channel disconnects when either side's
//!   count reaches zero.
//!
//! The channel also tracks a high-watermark of observed queue depth
//! ([`Receiver::peak_depth`]) so a server can report how close to
//! overload it has run.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Creates a bounded blocking MPMC channel with room for `capacity`
/// queued items. A capacity of `0` is clamped to `1` (a rendezvous
/// channel would make `try_send_below` always fail, which turns
/// admission control into a total outage).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            peak: 0,
        }),
        capacity: capacity.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    peak: usize,
}

/// The producing half of a [`bounded`] channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half of a [`bounded`] channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error of [`Sender::try_send_below`], returning the unsent item.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at its limit; the caller should shed load. Carries
    /// the unsent item and the queue depth observed **under the
    /// rejection lock** (re-reading [`Receiver::len`] afterwards could
    /// see a drained queue and misreport why admission failed).
    Full(T, usize),
    /// Every receiver is gone; nothing will ever drain the queue.
    Disconnected(T),
}

/// Error of [`Sender::send`]: every receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error of [`Receiver::recv`]: every sender is gone and the queue has
/// drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

impl<T> Sender<T> {
    /// Enqueues without blocking, but only while the queue depth is
    /// below `limit` (clamped to the capacity); otherwise hands the item
    /// back as [`TrySendError::Full`] — the admission-control path. This
    /// is the **atomic** check-and-enqueue a soft admission watermark
    /// needs. Reading [`Receiver::len`] first and then enqueueing would
    /// let concurrent producers all observe a below-watermark depth and
    /// overshoot it together; here the depth check and the push happen
    /// under one lock, so the queue never exceeds `limit` through this
    /// call.
    pub fn try_send_below(&self, item: T, limit: usize) -> Result<(), TrySendError<T>> {
        let limit = limit.min(self.shared.capacity);
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(item));
        }
        if inner.queue.len() >= limit {
            let depth = inner.queue.len();
            return Err(TrySendError::Full(item, depth));
        }
        inner.queue.push_back(item);
        inner.peak = inner.peak.max(inner.queue.len());
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is at capacity.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if inner.receivers == 0 {
                return Err(SendError(item));
            }
            if inner.queue.len() < self.shared.capacity {
                inner.queue.push_back(item);
                inner.peak = inner.peak.max(inner.queue.len());
                drop(inner);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner = self.shared.not_full.wait(inner).expect("channel poisoned");
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues, blocking while the queue is empty. Returns
    /// [`RecvError`] only once every sender is gone **and** the queue
    /// has drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if let Some(item) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(item);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.shared.not_empty.wait(inner).expect("channel poisoned");
        }
    }

    /// Current queue depth (racy by nature; a watermark check, not a
    /// synchronization primitive).
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .queue
            .len()
    }

    /// `true` if the queue is currently empty. Kept beside
    /// [`Receiver::len`], which clippy's `len_without_is_empty` requires.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-watermark of queue depth observed since creation.
    pub fn peak_depth(&self) -> usize {
        self.shared.inner.lock().expect("channel poisoned").peak
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().expect("channel poisoned").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        inner.senders -= 1;
        let disconnected = inner.senders == 0;
        drop(inner);
        if disconnected {
            // wake every parked receiver so it can observe the drain
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        inner.receivers -= 1;
        let disconnected = inner.receivers == 0;
        drop(inner);
        if disconnected {
            // wake every parked sender so it can fail fast
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_within_one_producer() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.try_send_below(i, usize::MAX).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_send_reports_full_and_hands_the_item_back() {
        let (tx, rx) = bounded(2);
        tx.try_send_below(1, usize::MAX).unwrap();
        tx.try_send_below(2, usize::MAX).unwrap();
        assert_eq!(
            tx.try_send_below(3, usize::MAX),
            Err(TrySendError::Full(3, 2))
        );
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.peak_depth(), 2);
        // draining one slot readmits
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send_below(3, usize::MAX).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn try_send_below_enforces_the_limit_atomically() {
        let (tx, rx) = bounded(8);
        tx.try_send_below(1, 2).unwrap();
        tx.try_send_below(2, 2).unwrap();
        // the soft limit governs even though the queue has room
        assert_eq!(tx.try_send_below(3, 2), Err(TrySendError::Full(3, 2)));
        assert_eq!(rx.len(), 2);
        // an unbounded limit still admits up to the hard capacity
        tx.try_send_below(3, usize::MAX).unwrap();
        // a limit above capacity clamps to capacity
        for i in 4..=8 {
            tx.try_send_below(i, 100).unwrap();
        }
        assert_eq!(tx.try_send_below(9, 100), Err(TrySendError::Full(9, 8)));
        assert_eq!(rx.recv(), Ok(1));
        // draining readmits under the soft limit only below it
        assert_eq!(tx.try_send_below(9, 2), Err(TrySendError::Full(9, 7)));
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let (tx, _rx) = bounded(0);
        tx.try_send_below(1, usize::MAX).unwrap();
        assert_eq!(
            tx.try_send_below(2, usize::MAX),
            Err(TrySendError::Full(2, 1))
        );
    }

    #[test]
    fn queued_items_survive_sender_disconnect() {
        let (tx, rx) = bounded::<u32>(4);
        tx.try_send_below(7, usize::MAX).unwrap();
        tx.try_send_below(8, usize::MAX).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Ok(8));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_receivers_are_gone() {
        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        assert_eq!(
            tx.try_send_below(2, usize::MAX),
            Err(TrySendError::Disconnected(2))
        );
    }

    #[test]
    fn blocking_send_unblocks_when_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.try_send_below(1, usize::MAX).unwrap();
        let producer = thread::spawn(move || tx.send(2));
        // the producer is parked on a full queue until this recv
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        producer.join().unwrap().unwrap();
    }

    #[test]
    fn mpmc_every_item_arrives_exactly_once() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..50u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(x) = rx.recv() {
                        got.push(x);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..3u64)
            .flat_map(|p| (0..50u64).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
