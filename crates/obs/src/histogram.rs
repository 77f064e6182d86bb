//! A lock-free log-linear histogram for latency-style values.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave: values within one power of two are resolved
/// to 16 linear steps, bounding the relative quantile error at ~6%.
const SUB: usize = 16;
/// Values below `SUB` get exact unit buckets.
const LINEAR: usize = SUB;
/// Octaves covered above the linear range (`2^4 ..= 2^63`).
const OCTAVES: usize = 60;
/// Total bucket count.
const BUCKETS: usize = LINEAR + OCTAVES * SUB;

/// The bucket index for a value: exact below [`LINEAR`], then 16
/// linear sub-buckets per power of two.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // ≥ 4
    let sub = ((v >> (exp - 4)) & (SUB as u64 - 1)) as usize;
    LINEAR + (exp - 4) * SUB + sub
}

/// The smallest value mapping to a bucket index.
fn bucket_lower(i: usize) -> u64 {
    if i < LINEAR {
        return i as u64;
    }
    let oct = (i - LINEAR) / SUB;
    let sub = (i - LINEAR) % SUB;
    let exp = oct + 4;
    (1u64 << exp) + ((sub as u64) << (exp - 4))
}

/// The representative value reported for a bucket: its midpoint (the
/// bucket's lower bound for the exact unit buckets).
fn bucket_mid(i: usize) -> u64 {
    if i < LINEAR {
        return i as u64;
    }
    let exp = (i - LINEAR) / SUB + 4;
    let width = 1u64 << (exp - 4);
    bucket_lower(i).saturating_add(width / 2)
}

/// A lock-free log-linear histogram of `u64` observations (typically
/// nanoseconds). Recording is one relaxed `fetch_add` into a bucket
/// plus count/sum/max maintenance — safe from any thread, no locking,
/// no allocation. Quantiles are derived from the bucket counts on
/// demand (p50/p90/p99 within ~6% relative error) via
/// [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the bucket counts. Concurrent recordings
    /// may land in either side of the snapshot; each observation is
    /// counted at most once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        merged_snapshot(&[self])
    }

    /// Adds every observation of `other` to this histogram, as if each
    /// had been recorded here too.
    pub(crate) fn absorb(&self, other: &Histogram) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(load(theirs), Ordering::Relaxed);
        }
        self.count.fetch_add(load(&other.count), Ordering::Relaxed);
        self.sum.fetch_add(load(&other.sum), Ordering::Relaxed);
        self.max.fetch_max(load(&other.max), Ordering::Relaxed);
    }
}

/// One snapshot of the observations of all `parts` together — for a
/// single histogram, exactly its own [`Histogram::snapshot`].
pub(crate) fn merged_snapshot(parts: &[&Histogram]) -> HistogramSnapshot {
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let buckets: Vec<(u64, u64)> = (0..BUCKETS)
        .filter_map(|i| {
            let n: u64 = parts.iter().map(|h| load(&h.buckets[i])).sum();
            (n > 0).then_some((bucket_mid(i), n))
        })
        .collect();
    // derive count from the captured buckets so the snapshot is
    // internally consistent even under concurrent recording
    let count = buckets.iter().map(|&(_, n)| n).sum();
    HistogramSnapshot {
        count,
        sum: parts
            .iter()
            .fold(0, |sum, h| sum.wrapping_add(load(&h.sum))),
        max: parts.iter().map(|h| load(&h.max)).max().unwrap_or(0),
        buckets,
    }
}

/// A point-in-time copy of a [`Histogram`]: the non-empty buckets as
/// `(representative value, count)` pairs in increasing value order,
/// plus count/sum/max. This is the form that crosses the wire in
/// `Op::Metrics` and the form quantiles are computed from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations in `buckets`.
    pub count: u64,
    /// Sum of all recorded values (for the mean).
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
    /// Non-empty buckets: `(representative value, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]`: the representative value of
    /// the bucket containing the `⌈q · count⌉`-th smallest observation
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(value, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return value;
            }
        }
        self.buckets.last().map(|&(v, _)| v).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_monotone_and_consistent() {
        // every value maps into a bucket whose [lower, lower+width)
        // range contains it, and indices are monotone in the value
        let mut prev = 0;
        for v in (0..4096u64).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(bucket_lower(i) <= v, "lower bound above value at {v}");
            if i + 1 < BUCKETS {
                assert!(bucket_lower(i + 1) > v, "value past bucket end at {v}");
            }
            assert!(bucket_mid(i) >= bucket_lower(i));
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 15] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 15);
        assert_eq!(s.max, 15);
        assert_eq!(s.sum, 21);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        for (q, expect) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = s.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.07, "q{q}: got {got}, want ~{expect} (rel {rel:.3})");
        }
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.sum, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn merging_and_absorbing_match_recording_into_one() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0u64, 7, 40, 41, 900, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [40u64, 5000, 3] {
            b.record(v);
            both.record(v);
        }
        assert_eq!(merged_snapshot(&[&a, &b]), both.snapshot());
        a.absorb(&b);
        assert_eq!(a.snapshot(), both.snapshot());
        assert_eq!(a.snapshot().count, both.snapshot().count);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 40_000);
    }
}
