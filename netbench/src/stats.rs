//! Summary statistics, process CPU time and registry deltas.

use std::time::Duration;

use lds_obs::MetricsSnapshot;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice by nearest rank;
/// 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of unsorted values; 0 for none.
pub fn quantile_of(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, q)
}

/// The median of unsorted values; 0 for none.
pub fn median(values: Vec<f64>) -> f64 {
    quantile_of(values, 0.5)
}

/// The mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The large-sample standard error of the median, `1.2533 σ / √n` (exact
/// for normal data, a guide to the noise otherwise); 0 for fewer than two
/// values.
pub fn median_std_error(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    1.2533 * (var / values.len() as f64).sqrt()
}

/// User plus system CPU time of this process, all threads, to the
/// nanosecond (`CLOCK_PROCESS_CPUTIME_ID`). `/proc/self/stat` holds the
/// same sum in 10 ms ticks, which is several percent of a one-second
/// slice of the lightest workload.
pub fn process_cpu_time() -> Result<Duration, String> {
    /// `struct timespec` on 64-bit Linux, the benchmark's platform.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// `after − before` of a registry counter (0 when never registered).
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
