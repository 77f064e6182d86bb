//! Pool bench: per-call overhead of the persistent worker pool on many
//! small `par_map` calls.
//!
//! The persistent pool parks its workers once and ships jobs over a
//! channel, so many small `par_map` calls (small batches, a few
//! marginals each) pay the thread-spawn cost once per engine instead of
//! once per call. This bench measures exactly that regime — many calls,
//! few items, negligible per-item work.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lds_runtime::ThreadPool;

/// The many-small-calls workload: `calls` par_maps of `items` cheap
/// items each (a few hundred ns of work per item, like a short scan on a
/// tiny graph).
fn small_item(x: &u64) -> u64 {
    (0..32u64).fold(*x, |a, b| a.wrapping_mul(0x9e37_79b9).wrapping_add(b))
}

const CALLS: usize = 64;
const ITEMS: usize = 8;

fn bench_many_small_calls(c: &mut Criterion) {
    let items: Vec<u64> = (0..ITEMS as u64).collect();
    let mut group = c.benchmark_group("pool_many_small_calls");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("persistent", threads), &threads, |b, _| {
            b.iter(|| {
                for _ in 0..CALLS {
                    criterion::black_box(pool.par_map(&items, small_item));
                }
            })
        });
    }
    group.finish();
}

fn overhead_table(_c: &mut Criterion) {
    let items: Vec<u64> = (0..ITEMS as u64).collect();
    println!(
        "\npool overhead: {CALLS} calls x {ITEMS} items, available parallelism {}",
        ThreadPool::available().threads()
    );
    let expected: Vec<u64> = items.iter().map(small_item).collect();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        // warmup parks the workers and faults in the code paths
        for _ in 0..4 {
            assert_eq!(
                pool.par_map(&items, small_item),
                expected,
                "wrong results at width {threads}"
            );
        }
        let start = Instant::now();
        for _ in 0..CALLS {
            criterion::black_box(pool.par_map(&items, small_item));
        }
        let persistent = start.elapsed();
        println!(
            "  threads {threads}: persistent {:>8.0} ns/call",
            persistent.as_nanos() as f64 / CALLS as f64,
        );
    }
}

criterion_group!(benches, bench_many_small_calls, overhead_table);
criterion_main!(benches);
