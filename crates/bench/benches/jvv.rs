//! Criterion bench for experiment E4: the distributed JVV exact sampler
//! (Theorem 4.2) — full three-pass executions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lds_bench::workloads;
use lds_core::jvv::LocalJvv;
use lds_gibbs::models::hardcore;
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_graph::ordering;
use lds_localnet::{Instance, Network};
use lds_oracle::{BoostedOracle, DecayRate, TwoSpinSawOracle};
use lds_runtime::CancelToken;

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
        let never = CancelToken::never();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| jvv.run(&net, &order, &never).expect("never cancelled"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_jvv_run);
criterion_main!(benches);
