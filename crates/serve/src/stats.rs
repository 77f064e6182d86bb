//! Serving observability: the [`ServerStats`] snapshot a server reads
//! from its own `lds-obs` registry scope.

use std::time::Duration;

use lds_obs::Histogram;

/// `(p50, p99)` of a latency [`Histogram`] as durations (zeros when
/// empty). The percentiles cover the server's whole lifetime, and the
/// histogram is the server's `serve_request_latency_ns` series in the
/// process metrics registry (`Op::Metrics`, text exposition) — one
/// definition of latency everywhere. Quantiles are bucket midpoints,
/// within ~6% relative error.
pub(crate) fn latency_percentiles(histogram: &Histogram) -> (Duration, Duration) {
    let snap = histogram.snapshot();
    (
        Duration::from_nanos(snap.quantile(0.50)),
        Duration::from_nanos(snap.quantile(0.99)),
    )
}

/// A point-in-time snapshot of a server's counters and latency
/// percentiles — what a scrape endpoint would export.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Submission attempts (accepted + rejected).
    pub submitted: u64,
    /// Requests shed by admission control ([`crate::SubmitError::Overloaded`]).
    pub rejected: u64,
    /// Requests answered with a report.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Requests answered straight from the idempotency cache.
    pub cache_hits: u64,
    /// Requests that missed the cache.
    pub cache_misses: u64,
    /// Seeds actually executed on the engine.
    pub engine_executions: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// High-watermark of queue depth since the server started.
    pub peak_queue_depth: usize,
    /// Median request latency over the server's lifetime (submit →
    /// respond).
    pub p50_latency: Duration,
    /// 99th-percentile request latency over the server's lifetime.
    pub p99_latency: Duration,
    /// Time since the server started.
    pub uptime: Duration,
}

impl ServerStats {
    /// Fraction of answered lookups served from the cache
    /// (`hits / (hits + misses)`; `0` before any lookup).
    fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Requests that were deduplicated against an identical concurrent
    /// execution (answered without running the engine and without a
    /// cache hit).
    pub fn deduped(&self) -> u64 {
        self.cache_misses.saturating_sub(self.engine_executions)
    }

    /// Completed requests per second of uptime.
    fn throughput(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} failed, {} rejected",
            self.submitted, self.completed, self.failed, self.rejected
        )?;
        writeln!(
            f,
            "cache:    {} hits / {} misses (hit rate {:.1}%), {} deduped in flight",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.deduped()
        )?;
        writeln!(f, "engine:   {} executions", self.engine_executions)?;
        writeln!(
            f,
            "queue:    depth {} (peak {})",
            self.queue_depth, self.peak_queue_depth
        )?;
        write!(
            f,
            "latency:  p50 {:.3} ms, p99 {:.3} ms; throughput {:.0} req/s over {:.2} s",
            self.p50_latency.as_secs_f64() * 1e3,
            self.p99_latency.as_secs_f64() * 1e3,
            self.throughput(),
            self.uptime.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_the_histogram() {
        let hist = Histogram::new();
        let (p50, p99) = latency_percentiles(&hist);
        assert_eq!((p50, p99), (Duration::ZERO, Duration::ZERO));
        for i in 1..=100u64 {
            hist.record_duration(Duration::from_nanos(i));
        }
        let (p50, p99) = latency_percentiles(&hist);
        // bucket midpoints: the 50th value (50 ns) lands in [50, 52) →
        // 51; the 99th (99 ns) lands in [96, 100) → 98
        assert_eq!(p50, Duration::from_nanos(51));
        assert_eq!(p99, Duration::from_nanos(98));
        // the histogram aggregates over the server lifetime (no sliding
        // window): a burst of small latencies pulls the median down but
        // the old tail stays visible in p99
        for _ in 0..10_000 {
            hist.record_duration(Duration::from_nanos(7));
        }
        let (p50, p99) = latency_percentiles(&hist);
        assert_eq!(p50, Duration::from_nanos(7));
        assert!(p99 >= Duration::from_nanos(7));
    }

    #[test]
    fn derived_rates() {
        let stats = ServerStats {
            submitted: 100,
            rejected: 10,
            completed: 88,
            failed: 2,
            cache_hits: 30,
            cache_misses: 60,
            engine_executions: 45,
            queue_depth: 0,
            peak_queue_depth: 12,
            p50_latency: Duration::from_micros(500),
            p99_latency: Duration::from_millis(4),
            uptime: Duration::from_secs(2),
        };
        assert!((stats.cache_hit_rate() - 30.0 / 90.0).abs() < 1e-12);
        assert_eq!(stats.deduped(), 15);
        assert!((stats.throughput() - 44.0).abs() < 1e-12);
        let rendered = stats.to_string();
        assert!(rendered.contains("hit rate 33.3%"));
        assert!(rendered.contains("peak 12"));
    }

    #[test]
    fn display_snapshot_is_stable() {
        // pins the exact rendering across the latency-recorder →
        // histogram swap: the public `Display` shape is a compatibility
        // surface (operators grep it)
        let stats = ServerStats {
            submitted: 100,
            rejected: 10,
            completed: 88,
            failed: 2,
            cache_hits: 30,
            cache_misses: 60,
            engine_executions: 45,
            queue_depth: 0,
            peak_queue_depth: 12,
            p50_latency: Duration::from_micros(500),
            p99_latency: Duration::from_millis(4),
            uptime: Duration::from_secs(2),
        };
        let expected = "\
requests: 100 submitted, 88 completed, 2 failed, 10 rejected
cache:    30 hits / 60 misses (hit rate 33.3%), 15 deduped in flight
engine:   45 executions
queue:    depth 0 (peak 12)
latency:  p50 0.500 ms, p99 4.000 ms; throughput 44 req/s over 2.00 s";
        assert_eq!(stats.to_string(), expected);
    }
}
