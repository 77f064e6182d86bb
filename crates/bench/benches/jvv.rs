//! Criterion bench for experiment E4: the distributed JVV exact sampler
//! (Theorem 4.2) — full three-pass executions, plus the pass-3 scaling
//! bench across pool widths (the rejection pass runs same-color clusters
//! concurrently through `run_kernel_chromatic`).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lds_bench::workloads;
use lds_core::jvv::LocalJvv;
use lds_gibbs::models::hardcore;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_graph::ordering;
use lds_localnet::scheduler;
use lds_localnet::slocal::multipass_locality;
use lds_localnet::{Instance, Network};
use lds_oracle::{BoostedOracle, DecayRate, MultiplicativeInference, TwoSpinSawOracle};
use lds_runtime::{CancelToken, ThreadPool};

fn bench_jvv_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_local_jvv");
    group.sample_size(10);
    for &n in &[6usize, 8, 10] {
        let g = workloads::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
            TwoSpinParams::hardcore(1.0),
            DecayRate::new(0.5, 2.0),
        ));
        let jvv = LocalJvv::new(&oracle, 0.01);
        let net = Network::new(Instance::unconditioned(model), 1);
        let order = ordering::identity(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| jvv.run_detailed(&net, &order))
        });
    }
    group.finish();
}

/// Pass-3 scaling: one scheduled three-pass execution per width on a
/// torus (many colors, several clusters per color), reporting per-pass
/// wall-clock so the rejection pass's parallel fraction is visible.
/// Outputs are asserted bit-identical across widths while measuring.
fn pass3_scaling_table(_c: &mut Criterion) {
    let g = workloads::torus(5);
    let oracle = BoostedOracle::new(TwoSpinSawOracle::new(
        TwoSpinParams::hardcore(1.0),
        DecayRate::new(0.5, 2.0),
    ));
    let eps = 0.01;
    let net = Network::new(Instance::unconditioned(hardcore::model(&g, 1.0)), 7);
    let jvv = LocalJvv::new(&oracle, eps);
    let model = net.instance().model();
    let ell = model.locality().max(1);
    let t = oracle.radius_mul(model, eps);
    let schedule = scheduler::chromatic_schedule(&net, multipass_locality(&[t, t, 3 * t + ell]), 0);
    println!(
        "\njvv pass-3 scaling: torus(5), {} colors, available parallelism {}",
        schedule.colors,
        ThreadPool::available().threads()
    );
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let never = CancelToken::never();
        let run = || {
            jvv.run_scheduled(&net, &schedule, &pool, &never)
                .expect("never cancelled")
        };
        let _warm = run();
        let mut best: Option<Duration> = None;
        let mut phases = Vec::new();
        let mut outcome = None;
        for _ in 0..3 {
            let start = Instant::now();
            let (out, p, _) = run();
            let elapsed = start.elapsed();
            if best.is_none_or(|b| elapsed < b) {
                best = Some(elapsed);
                phases = p;
            }
            outcome = Some(out);
        }
        let outcome = outcome.expect("ran");
        match &reference {
            None => reference = Some(outcome),
            Some(r) => {
                assert_eq!(
                    r.run.outputs, outcome.run.outputs,
                    "determinism broke at {threads} threads"
                );
            }
        }
        let passes: Vec<String> = phases
            .iter()
            .map(|p| format!("{} {:>10.3?}", p.name, p.wall_time))
            .collect();
        println!(
            "  threads {threads}: total {:>10.3?}  {}",
            best.expect("ran"),
            passes.join("  ")
        );
    }
}

criterion_group!(benches, bench_jvv_run, pass3_scaling_table);
criterion_main!(benches);
