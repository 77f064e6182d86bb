//! The idempotency cache: an O(1) LRU over `(fingerprint, task, seed)`.
//!
//! Per-request seeds are the workspace's idempotency key: every bit a
//! task consumes derives from `(engine state, task, seed)` (the
//! `lds-runtime` stream-derivation contract), so a repeated request is
//! *guaranteed* to reproduce the same report — serving it from memory
//! is not an approximation, it is the definition. The cache therefore
//! doubles as request dedup: retries, fan-in from many clients asking
//! for the same sample, and replayed idempotent writes all collapse to
//! one engine execution. The same [`LruCache`] keeps the registry's live
//! tenants.

use std::collections::HashMap;
use std::hash::Hash;

use lds_engine::Task;

/// The idempotency key of one request against one engine.
///
/// `fingerprint` is [`lds_engine::Engine::fingerprint`] — the stable
/// hash of everything output-determining (spec bits, topology, pinning,
/// ε/δ) — so keys from different engines never collide semantically
/// even if a cache were shared across them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct IdempotencyKey {
    /// The engine identity ([`lds_engine::Engine::fingerprint`]).
    pub(crate) fingerprint: u64,
    /// The requested task.
    pub(crate) task: Task,
    /// The per-request seed.
    pub(crate) seed: u64,
}

/// Index of the null node in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map with O(1) `get`/`insert`.
///
/// Implemented as a slab of nodes threaded into an intrusive doubly
/// linked recency list (head = most recent) plus a `HashMap` from key
/// to slab index. Once the slab reaches capacity, every insert evicts
/// the tail and reuses its slot, so the cache never reallocates at
/// steady state. Capacity `0` is the disabled cache: `get` always
/// misses and `insert` is a no-op.
pub(crate) struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            nodes: Vec::with_capacity(capacity.min(4096)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlinks node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Links node `i` at the head (most recent).
    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.nodes[i].value)
    }

    /// Looks up `key` without touching the recency order.
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Inserts (or refreshes) `key → value`, evicting the least
    /// recently used entry if at capacity. Returns the evicted
    /// `(key, value)` pair, if any.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return None;
        }
        if self.map.len() < self.capacity {
            let i = self.nodes.len();
            self.nodes.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.link_front(i);
            return None;
        }
        // at capacity: evict the tail and reuse its slot
        let i = self.tail;
        self.unlink(i);
        let evicted_key = std::mem::replace(&mut self.nodes[i].key, key.clone());
        let evicted_value = std::mem::replace(&mut self.nodes[i].value, value);
        self.map.remove(&evicted_key);
        self.map.insert(key, i);
        self.link_front(i);
        Some((evicted_key, evicted_value))
    }
}

impl<K, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert!(c.map.is_empty());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now most recent
        let evicted = c.insert(3, 30); // so 2 is the victim
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn peek_leaves_the_recency_order_unchanged() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(&1), Some(&10)); // 1 stays least recent
        assert_eq!(c.peek(&3), None);
        assert_eq!(c.insert(3, 30), Some((1, 10)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_existing_updates_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn eviction_order_is_lru_over_a_long_run() {
        let mut c: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..100 {
            c.insert(i, i);
        }
        assert_eq!(c.map.len(), 8);
        for i in 0..92 {
            assert_eq!(c.get(&i), None, "key {i} should have been evicted");
        }
        for i in 92..100 {
            assert_eq!(c.get(&i), Some(&i));
        }
    }

    #[test]
    fn capacity_zero_disables() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.get(&1), None);
        assert!(c.map.is_empty());
    }

    #[test]
    fn capacity_one_always_holds_the_latest() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 10);
        assert_eq!(c.insert(2, 20), Some((1, 10)));
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn idempotency_key_distinguishes_components() {
        use lds_engine::Task;
        let k = |fp: u64, seed: u64| IdempotencyKey {
            fingerprint: fp,
            task: Task::SampleExact,
            seed,
        };
        assert_eq!(k(1, 2), k(1, 2));
        assert_ne!(k(1, 2), k(1, 3));
        assert_ne!(k(1, 2), k(2, 2));
        let count = IdempotencyKey {
            fingerprint: 1,
            task: Task::Count,
            seed: 2,
        };
        assert_ne!(k(1, 2), count);
    }
}
