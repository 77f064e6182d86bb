//! Criterion bench for experiment E1/E2: the inference⟺sampling
//! reductions (Theorems 3.2 and 3.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lds_bench::workloads;
use lds_core::sampler::SequentialSampler;
use lds_gibbs::models::hardcore;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_graph::ordering;
use lds_localnet::slocal::run_scan_sequential;
use lds_localnet::{scheduler, Instance, Network};
use lds_oracle::{DecayRate, TwoSpinSawOracle};
use lds_runtime::CancelToken;

fn bench_sequential_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_sequential_sampler");
    group.sample_size(20);
    for &n in &[16usize, 32, 64] {
        let g = workloads::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let oracle = TwoSpinSawOracle::new(TwoSpinParams::hardcore(1.0), DecayRate::new(0.5, 2.0));
        let net = Network::new(Instance::unconditioned(model), 1);
        let order = ordering::identity(&g);
        let sampler = SequentialSampler::new(oracle.clone(), 0.05);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| run_scan_sequential(&net, &sampler, &order, &CancelToken::never()))
        });
    }
    group.finish();
}

fn bench_local_transformation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_lemma31_transformation");
    group.sample_size(10);
    for &side in &[4usize, 6, 8] {
        let g = workloads::torus(side);
        let model = hardcore::model(&g, 0.8);
        let net = Network::new(Instance::unconditioned(model), 1);
        group.bench_with_input(BenchmarkId::from_parameter(side * side), &side, |b, _| {
            b.iter(|| scheduler::chromatic_schedule(&net, 3, 0))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_sampler,
    bench_local_transformation
);
criterion_main!(benches);
