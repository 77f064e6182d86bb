//! Report pins: a 64-bit digest of every engine report in a fixed table
//! of `(model, task, seed)` runs, recorded once and compared on every
//! run of the suite.
//!
//! The determinism suite compares pool widths against each other and
//! the statistical suites compare distributions, so neither notices a
//! change that moves every width the same way. These pins do: a
//! refactor that claims "no behaviour change" must leave every digest
//! here untouched. A change that moves report bits on purpose re-pins
//! the table — the failure message prints the new table in source form.
//!
//! Each digest is FNV-1a over the report's canonical wire encoding
//! ([`Wire::to_bytes`]) after zeroing the wall times, which
//! [`RunReport::semantic_eq`] also ignores. Engines use the default pool
//! width, so the `LDS_THREADS` CI matrix checks the same pins at every
//! width.

use std::time::Duration;

use lds::engine::{
    Backend, Engine, MarginalsMethod, MarginalsReport, ModelSpec, RunReport, SweepBudget, Task,
};
use lds::gibbs::Value;
use lds::graph::{generators, Hypergraph, NodeId};
use lds::net::Wire;

const SEEDS: [u64; 3] = [0, 7, u64::MAX - 5];

fn triangle_hypergraph() -> Hypergraph {
    Hypergraph::new(
        6,
        vec![
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(2), NodeId(3), NodeId(4)],
            vec![NodeId(4), NodeId(5), NodeId(0)],
        ],
    )
}

/// The six model specs of the determinism suite.
fn specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Hardcore { lambda: 1.0 },
        ModelSpec::Matching { lambda: 1.5 },
        ModelSpec::Ising {
            beta: -0.2,
            field: 0.1,
        },
        ModelSpec::TwoSpin {
            beta: 0.8,
            gamma: 0.9,
            lambda: 1.0,
            rate: 0.5,
        },
        ModelSpec::Coloring { q: 4 },
        ModelSpec::HypergraphMatching { lambda: 0.1 },
    ]
}

fn engine_for(spec: &ModelSpec, backend: Backend) -> Engine {
    let builder = Engine::builder()
        .model(spec.clone())
        .epsilon(0.01)
        .delta(0.05)
        .backend(backend);
    match spec {
        ModelSpec::HypergraphMatching { .. } => builder.hypergraph(triangle_hypergraph()),
        _ => builder.graph(generators::cycle(8)),
    }
    .build()
    .unwrap_or_else(|e| panic!("{}: {e:?}", spec.name()))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.wall_time = Duration::ZERO;
    for p in &mut r.phases {
        p.wall_time = Duration::ZERO;
    }
    fnv1a(&r.to_bytes())
}

fn marginals_digest(report: &MarginalsReport) -> u64 {
    let mut words: Vec<u64> = match report.method {
        MarginalsMethod::Exact { epsilon } => vec![0, epsilon.to_bits()],
        MarginalsMethod::Sampled {
            repetitions,
            failure_rate,
            delta,
        } => vec![
            1,
            repetitions as u64,
            failure_rate.to_bits(),
            delta.to_bits(),
        ],
    };
    words.push(report.rounds as u64);
    for mu in &report.marginals {
        words.push(mu.len() as u64);
        words.extend(mu.iter().map(|x| x.to_bits()));
    }
    for p in &report.phases {
        words.extend(p.name.bytes().map(u64::from));
        words.push(p.rounds as u64);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Every pinned run, labelled `model/task/seed index`, in table order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let infer = Task::Infer {
        vertex: NodeId(0),
        value: Value(1),
    };
    for spec in specs() {
        let name = spec.name();
        let exact = engine_for(&spec, Backend::Exact);
        let glauber = engine_for(
            &spec,
            Backend::Glauber {
                sweeps: SweepBudget::Fixed(12),
            },
        );
        for (i, seed) in SEEDS.into_iter().enumerate() {
            let runs = [
                ("exact", exact.run_with_seed(Task::SampleExact, seed)),
                ("chain", exact.run_with_seed(Task::SampleApprox, seed)),
                ("glauber", glauber.run_with_seed(Task::SampleApprox, seed)),
                ("infer", exact.run_with_seed(infer, seed)),
                ("count", exact.run_with_seed(Task::Count, seed)),
            ];
            for (task, report) in runs {
                let report = report.unwrap_or_else(|e| panic!("{name}/{task}/{seed}: {e}"));
                out.push((format!("{name}/{task}/{i}"), report_digest(&report)));
            }
            let sampled = exact
                .marginals_sampled(64, seed)
                .unwrap_or_else(|e| panic!("{name}/sampled/{seed}: {e}"));
            out.push((format!("{name}/sampled/{i}"), marginals_digest(&sampled)));
        }
        out.push((
            format!("{name}/marginals"),
            marginals_digest(&exact.marginals()),
        ));
    }
    out
}

#[test]
fn report_digests_match_the_pinned_table() {
    let actual = digests();
    let got: Vec<(&str, u64)> = actual.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    if got != PINNED {
        let mut table = String::from("const PINNED: &[(&str, u64)] = &[\n");
        for (label, digest) in &got {
            table.push_str(&format!("    (\"{label}\", {digest:#018x}),\n"));
        }
        table.push_str("];\n");
        let moved: Vec<&str> = got
            .iter()
            .zip(PINNED)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a.0)
            .collect();
        panic!(
            "report bits moved ({} of {} entries differ: {moved:?}); \
             if that is intended, re-pin with:\n{table}",
            moved.len() + got.len().abs_diff(PINNED.len()),
            got.len()
        );
    }
}

const PINNED: &[(&str, u64)] = &[
    ("hardcore/exact/0", 0xef2d02ea2aa49c4b),
    ("hardcore/chain/0", 0xe62f9874afcecced),
    ("hardcore/glauber/0", 0x98299196de685f1c),
    ("hardcore/infer/0", 0xf33a3265d8d00f4a),
    ("hardcore/count/0", 0xe724fde4dc0e82fb),
    ("hardcore/sampled/0", 0x19c48cfbf9ac9c0a),
    ("hardcore/exact/1", 0x4984696cb9e4191b),
    ("hardcore/chain/1", 0xa1176483dbaa4eaa),
    ("hardcore/glauber/1", 0xe259aa649f766dea),
    ("hardcore/infer/1", 0x1fb6584c86747743),
    ("hardcore/count/1", 0x658450c17ea5f414),
    ("hardcore/sampled/1", 0x74305f6d8e23d891),
    ("hardcore/exact/2", 0x773b03ce21cb71d7),
    ("hardcore/chain/2", 0x4871a12a3923029a),
    ("hardcore/glauber/2", 0x88aff45026ea8138),
    ("hardcore/infer/2", 0xd08447d7f8c196c5),
    ("hardcore/count/2", 0x3b270de2c1763882),
    ("hardcore/sampled/2", 0x57cab745b9a17452),
    ("hardcore/marginals", 0xf8b7561244370ab5),
    ("matching/exact/0", 0x8314fe71f0879989),
    ("matching/chain/0", 0x81c2a9d149fd5fc4),
    ("matching/glauber/0", 0x96d476b6acbb6dbd),
    ("matching/infer/0", 0x4a1e75738a1fb624),
    ("matching/count/0", 0xe3eae1ec4acc5c59),
    ("matching/sampled/0", 0x601b0159117bdcd1),
    ("matching/exact/1", 0x5dea485119d0a776),
    ("matching/chain/1", 0x3f9839d68b45a2c1),
    ("matching/glauber/1", 0x90ddd29b71df8f95),
    ("matching/infer/1", 0xb0c3d0289e450039),
    ("matching/count/1", 0x2350f07626871c16),
    ("matching/sampled/1", 0x3c729e1052460696),
    ("matching/exact/2", 0xbafed7087584ec4d),
    ("matching/chain/2", 0xfdc9aae8fa6eeba3),
    ("matching/glauber/2", 0x7b422069fd2c6a7b),
    ("matching/infer/2", 0x463bc20d19e6ef27),
    ("matching/count/2", 0x78ac1e477e4d94b8),
    ("matching/sampled/2", 0xadd79cbd127b2bd7),
    ("matching/marginals", 0x9e432fa0461e7ec5),
    ("ising/exact/0", 0x9e7e3377ff9cc003),
    ("ising/chain/0", 0x22c14d9bc82c5f0b),
    ("ising/glauber/0", 0xfd0bed98a0a3b738),
    ("ising/infer/0", 0x8a9f541c737b6801),
    ("ising/count/0", 0x123a665e9bef5920),
    ("ising/sampled/0", 0x826ed3572e3583d1),
    ("ising/exact/1", 0xd96b64f221edeb20),
    ("ising/chain/1", 0x6e5098554a3b4acc),
    ("ising/glauber/1", 0xe87edbd707493332),
    ("ising/infer/1", 0xb3f5fec4fe8d95ac),
    ("ising/count/1", 0x16b357ba2441a9e3),
    ("ising/sampled/1", 0x1ca844bccaf8c799),
    ("ising/exact/2", 0x7643b00fb6c61a92),
    ("ising/chain/2", 0xa3cc8a1aec6dbea7),
    ("ising/glauber/2", 0xe4a71a0432a32431),
    ("ising/infer/2", 0xe1be2a27c6410406),
    ("ising/count/2", 0x2b9ad4d3059bd7a5),
    ("ising/sampled/2", 0x446e6d1f064cf2e2),
    ("ising/marginals", 0x658b09bc8061a185),
    ("two-spin/exact/0", 0xbf45c7df610125f6),
    ("two-spin/chain/0", 0xb0f71d48986e50bb),
    ("two-spin/glauber/0", 0x7e2161c133e0e650),
    ("two-spin/infer/0", 0x2128916a204bc972),
    ("two-spin/count/0", 0xd75c27dfa0306d0a),
    ("two-spin/sampled/0", 0xe265d545943b3076),
    ("two-spin/exact/1", 0x5c751b0c6359dbaf),
    ("two-spin/chain/1", 0xfe262e7a7b443183),
    ("two-spin/glauber/1", 0xd94affeff1128526),
    ("two-spin/infer/1", 0x98e2ee7c0ac2e86f),
    ("two-spin/count/1", 0xbdcae3a3ad9aaae5),
    ("two-spin/sampled/1", 0x86ecac48583eb427),
    ("two-spin/exact/2", 0x9debec80eca58150),
    ("two-spin/chain/2", 0x5790fbe73b0fb0ff),
    ("two-spin/glauber/2", 0x796a23d775e2a8ec),
    ("two-spin/infer/2", 0x2a67d9c165f93a81),
    ("two-spin/count/2", 0x543162ab35d7f357),
    ("two-spin/sampled/2", 0x04680e9a99c8bb0e),
    ("two-spin/marginals", 0xe1347c12ee991865),
    ("coloring/exact/0", 0xe32a21d9d19b6fc8),
    ("coloring/chain/0", 0x376773b71b914e2c),
    ("coloring/glauber/0", 0xb74f170fadaa026a),
    ("coloring/infer/0", 0x925a16184ffe19a1),
    ("coloring/count/0", 0x5dba71a66f0ab2f4),
    ("coloring/sampled/0", 0xe81a96b31109048e),
    ("coloring/exact/1", 0xd90c86e013d72f5a),
    ("coloring/chain/1", 0x351ec10b17f69513),
    ("coloring/glauber/1", 0x6ed3d5df641e0526),
    ("coloring/infer/1", 0x05f78c0768086320),
    ("coloring/count/1", 0x459e7c40307492e7),
    ("coloring/sampled/1", 0xc1fe7ab53ac14178),
    ("coloring/exact/2", 0xfa900cee1143eaea),
    ("coloring/chain/2", 0x50c8afe83978e719),
    ("coloring/glauber/2", 0x7723efcf57e4211c),
    ("coloring/infer/2", 0xa5371597f7bdbd16),
    ("coloring/count/2", 0x0d0bbe3b071d8bb1),
    ("coloring/sampled/2", 0x50381cbc86bd3b40),
    ("coloring/marginals", 0xcfed111614dfdf15),
    ("hypergraph-matching/exact/0", 0x1a401e6445a5286e),
    ("hypergraph-matching/chain/0", 0x4beddfa1b43648d8),
    ("hypergraph-matching/glauber/0", 0x9e630d9d9bca1e47),
    ("hypergraph-matching/infer/0", 0x0ee9cf0852227e6f),
    ("hypergraph-matching/count/0", 0xb54b70880452d0fc),
    ("hypergraph-matching/sampled/0", 0x56749463b0129556),
    ("hypergraph-matching/exact/1", 0xa450893f97e73e24),
    ("hypergraph-matching/chain/1", 0x11aaf252d7f2d0eb),
    ("hypergraph-matching/glauber/1", 0x5aa5d32af9a0e89f),
    ("hypergraph-matching/infer/1", 0xb8e02df919bf8806),
    ("hypergraph-matching/count/1", 0x08b765a41b8b2477),
    ("hypergraph-matching/sampled/1", 0x55f617f4bf7dcd25),
    ("hypergraph-matching/exact/2", 0x443d6b96a1dbc2c6),
    ("hypergraph-matching/chain/2", 0xa8814eba8fb10935),
    ("hypergraph-matching/glauber/2", 0x6811cb18b9ee54a3),
    ("hypergraph-matching/infer/2", 0xbbebe91f91b15ca4),
    ("hypergraph-matching/count/2", 0xd384980836adaccd),
    ("hypergraph-matching/sampled/2", 0x1bbe100ba65552da),
    ("hypergraph-matching/marginals", 0x3833fdd82bf5280d),
];
