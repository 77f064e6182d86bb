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
//! The six specs run on cycle(8) or a triangle hypergraph, where no SAW
//! node has two children. Two more engines run on graphs of degree 4 and
//! more: hardcore λ = 1 on torus(4,4), the `net-torus-oracle` tenant, and
//! matchings λ = 1.5 on grid(3,3), whose line graph has degree up to 6.
//!
//! Each digest is FNV-1a over the report's canonical wire encoding
//! ([`Wire::to_bytes`]) after zeroing the wall times, which
//! [`RunReport::semantic_eq`] also ignores. Engines use the default pool
//! width, so the `LDS_THREADS` CI matrix checks the same pins at every
//! width.

use std::time::Duration;

use lds::engine::{
    Backend, Engine, MarginalsMethod, MarginalsReport, ModelSpec, RunReport, SweepBudget, Task,
    Topology,
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

/// Every pinned engine, labelled, with its topology: the six specs on
/// cycle(8) (the triangle hypergraph for hypergraph matchings), then
/// hardcore on torus(4,4) and matchings on grid(3,3).
fn cases() -> Vec<(String, ModelSpec, Topology)> {
    let mut cases: Vec<_> = specs()
        .into_iter()
        .map(|spec| {
            let topology = match spec {
                ModelSpec::HypergraphMatching { .. } => Topology::Hypergraph(triangle_hypergraph()),
                _ => Topology::Graph(generators::cycle(8)),
            };
            (spec.name().to_string(), spec, topology)
        })
        .collect();
    cases.push((
        "hardcore-torus44".to_string(),
        ModelSpec::Hardcore { lambda: 1.0 },
        Topology::Graph(generators::torus(4, 4)),
    ));
    cases.push((
        "matching-grid33".to_string(),
        ModelSpec::Matching { lambda: 1.5 },
        Topology::Graph(generators::grid(3, 3)),
    ));
    cases
}

fn engine_for(spec: &ModelSpec, topology: &Topology, backend: Backend) -> Engine {
    Engine::builder()
        .model(spec.clone())
        .topology(topology.clone())
        .epsilon(0.01)
        .delta(0.05)
        .backend(backend)
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
    for (name, spec, topology) in cases() {
        let exact = engine_for(&spec, &topology, Backend::Exact);
        let glauber = engine_for(
            &spec,
            &topology,
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
    ("hardcore/exact/0", 0xa66b21540d6c29f1),
    ("hardcore/chain/0", 0x06092729e42d4457),
    ("hardcore/glauber/0", 0xbaa43af9a82bf062),
    ("hardcore/infer/0", 0xf33a3265d8d00f4a),
    ("hardcore/count/0", 0xe724fde4dc0e82fb),
    ("hardcore/sampled/0", 0x472876f1afea52a9),
    ("hardcore/exact/1", 0x7cc14e264542a0cf),
    ("hardcore/chain/1", 0x2f5e039cab3a5858),
    ("hardcore/glauber/1", 0x3e85e48f05e3ca66),
    ("hardcore/infer/1", 0x1fb6584c86747743),
    ("hardcore/count/1", 0x658450c17ea5f414),
    ("hardcore/sampled/1", 0x61f69f8bb8bf41b9),
    ("hardcore/exact/2", 0x18287bce3c3d0cf8),
    ("hardcore/chain/2", 0x1005f62fb536a2f2),
    ("hardcore/glauber/2", 0xad4199a0d93e198c),
    ("hardcore/infer/2", 0xd08447d7f8c196c5),
    ("hardcore/count/2", 0x3b270de2c1763882),
    ("hardcore/sampled/2", 0x79b36ece11e46eb8),
    ("hardcore/marginals", 0xf8b7561244370ab5),
    ("matching/exact/0", 0x2bd301fa6311c783),
    ("matching/chain/0", 0x443c4e3ca45ab982),
    ("matching/glauber/0", 0x1f1efb0501d1a123),
    ("matching/infer/0", 0x4a1e75738a1fb624),
    ("matching/count/0", 0xe3eae1ec4acc5c59),
    ("matching/sampled/0", 0x7a5ba2aaaa6bf67b),
    ("matching/exact/1", 0x5b1accbbcb258673),
    ("matching/chain/1", 0x7c9cb11101373897),
    ("matching/glauber/1", 0xa8054f8c6d642cad),
    ("matching/infer/1", 0xb0c3d0289e450039),
    ("matching/count/1", 0x2350f07626871c16),
    ("matching/sampled/1", 0x7bffe6f96cd3ccbf),
    ("matching/exact/2", 0x071ad56a9f8107a8),
    ("matching/chain/2", 0xd977f76632057635),
    ("matching/glauber/2", 0xe00c18696e8be226),
    ("matching/infer/2", 0x463bc20d19e6ef27),
    ("matching/count/2", 0x78ac1e477e4d94b8),
    ("matching/sampled/2", 0xf176083bb773cce9),
    ("matching/marginals", 0x9e432fa0461e7ec5),
    ("ising/exact/0", 0x95a836651fd4697d),
    ("ising/chain/0", 0xc34b9944955b0ac9),
    ("ising/glauber/0", 0xe2476521bef1b707),
    ("ising/infer/0", 0x8a9f541c737b6801),
    ("ising/count/0", 0x123a665e9bef5920),
    ("ising/sampled/0", 0xb5e02b7aa9698284),
    ("ising/exact/1", 0x310d9b05469f2fe6),
    ("ising/chain/1", 0x4ddb1a0cf7772d12),
    ("ising/glauber/1", 0x090305197b049718),
    ("ising/infer/1", 0xb3f5fec4fe8d95ac),
    ("ising/count/1", 0x16b357ba2441a9e3),
    ("ising/sampled/1", 0x2d08beddf24abac3),
    ("ising/exact/2", 0x30edbef03f7eff25),
    ("ising/chain/2", 0xa044524ff69723c7),
    ("ising/glauber/2", 0xe47599f3b4abefdd),
    ("ising/infer/2", 0xe1be2a27c6410406),
    ("ising/count/2", 0x2b9ad4d3059bd7a5),
    ("ising/sampled/2", 0x5716d22b00135a93),
    ("ising/marginals", 0x658b09bc8061a185),
    ("two-spin/exact/0", 0xe78e9f5d46940b1c),
    ("two-spin/chain/0", 0x103fb70a2463b581),
    ("two-spin/glauber/0", 0xa5a988b458d78438),
    ("two-spin/infer/0", 0x2128916a204bc972),
    ("two-spin/count/0", 0xd75c27dfa0306d0a),
    ("two-spin/sampled/0", 0xbd3e7b33656f8d78),
    ("two-spin/exact/1", 0x1fe640fd588d0618),
    ("two-spin/chain/1", 0xcf72d54d7775c16d),
    ("two-spin/glauber/1", 0x8bf4055d91e1eb8c),
    ("two-spin/infer/1", 0x98e2ee7c0ac2e86f),
    ("two-spin/count/1", 0xbdcae3a3ad9aaae5),
    ("two-spin/sampled/1", 0x4d2c2ce9c8cff27c),
    ("two-spin/exact/2", 0x55c0fcd33b2aa4f1),
    ("two-spin/chain/2", 0xa1ede4a6b05a5d2f),
    ("two-spin/glauber/2", 0xdcc26b50e7f3ea16),
    ("two-spin/infer/2", 0x2a67d9c165f93a81),
    ("two-spin/count/2", 0x543162ab35d7f357),
    ("two-spin/sampled/2", 0xaa5175321ef93e8e),
    ("two-spin/marginals", 0xe1347c12ee991865),
    ("coloring/exact/0", 0x762252acde61dd4e),
    ("coloring/chain/0", 0x5b0f1cf04634a3b6),
    ("coloring/glauber/0", 0x75c139ab5ce9ec6c),
    ("coloring/infer/0", 0x925a16184ffe19a1),
    ("coloring/count/0", 0x5dba71a66f0ab2f4),
    ("coloring/sampled/0", 0xec1688061e351fd9),
    ("coloring/exact/1", 0x94a136a17fc6161a),
    ("coloring/chain/1", 0x42287992082c36f1),
    ("coloring/glauber/1", 0xdcb043e87eb21da3),
    ("coloring/infer/1", 0x05f78c0768086320),
    ("coloring/count/1", 0x459e7c40307492e7),
    ("coloring/sampled/1", 0xe9863279e4dd5ef1),
    ("coloring/exact/2", 0x919bc31eea9d093b),
    ("coloring/chain/2", 0x41f86443e3aa1861),
    ("coloring/glauber/2", 0xb404a2899862f385),
    ("coloring/infer/2", 0xa5371597f7bdbd16),
    ("coloring/count/2", 0x0d0bbe3b071d8bb1),
    ("coloring/sampled/2", 0xe4d7f64db01d2ac6),
    ("coloring/marginals", 0xcfed111614dfdf15),
    ("hypergraph-matching/exact/0", 0x87ef771df170b4e6),
    ("hypergraph-matching/chain/0", 0xf725580de0d6d328),
    ("hypergraph-matching/glauber/0", 0x6817286db6838ca7),
    ("hypergraph-matching/infer/0", 0x0ee9cf0852227e6f),
    ("hypergraph-matching/count/0", 0xb54b70880452d0fc),
    ("hypergraph-matching/sampled/0", 0x7c1cc603740824b9),
    ("hypergraph-matching/exact/1", 0xc4fd7dcf52becf14),
    ("hypergraph-matching/chain/1", 0x9827de80cf78a76b),
    ("hypergraph-matching/glauber/1", 0x7d39733cb17d01af),
    ("hypergraph-matching/infer/1", 0xb8e02df919bf8806),
    ("hypergraph-matching/count/1", 0x08b765a41b8b2477),
    ("hypergraph-matching/sampled/1", 0xfc44e11c4d9fa5c5),
    ("hypergraph-matching/exact/2", 0x443d6b96a1dbc2c6),
    ("hypergraph-matching/chain/2", 0xa8814eba8fb10935),
    ("hypergraph-matching/glauber/2", 0x6811cb18b9ee54a3),
    ("hypergraph-matching/infer/2", 0xbbebe91f91b15ca4),
    ("hypergraph-matching/count/2", 0xd384980836adaccd),
    ("hypergraph-matching/sampled/2", 0x8be2938913296bb5),
    ("hypergraph-matching/marginals", 0x3833fdd82bf5280d),
    ("hardcore-torus44/exact/0", 0x0306b10ac6132c43),
    ("hardcore-torus44/chain/0", 0xc8c5069bac8be5da),
    ("hardcore-torus44/glauber/0", 0x85b6ca3678cc2a69),
    ("hardcore-torus44/infer/0", 0x7fd9191260d815bb),
    ("hardcore-torus44/count/0", 0xe48b2e94321acd12),
    ("hardcore-torus44/sampled/0", 0xfcbdf934fa66bf08),
    ("hardcore-torus44/exact/1", 0x92cc4647f7c99dee),
    ("hardcore-torus44/chain/1", 0x14d7492cea2599e6),
    ("hardcore-torus44/glauber/1", 0x46957e9444de2d9d),
    ("hardcore-torus44/infer/1", 0xe22021640d2efbbe),
    ("hardcore-torus44/count/1", 0xe0fc38f0a557a9b5),
    ("hardcore-torus44/sampled/1", 0x091e551a9aa37bae),
    ("hardcore-torus44/exact/2", 0x8af54e1a5ffad2c3),
    ("hardcore-torus44/chain/2", 0x47d66385d6d7473c),
    ("hardcore-torus44/glauber/2", 0xb03f117127634766),
    ("hardcore-torus44/infer/2", 0x90e18544795c5230),
    ("hardcore-torus44/count/2", 0xd9a0693681cc2e0b),
    ("hardcore-torus44/sampled/2", 0x2b8ed56dd049ff46),
    ("hardcore-torus44/marginals", 0x903077e1d61db1f5),
    ("matching-grid33/exact/0", 0x4315a5e1f972edb3),
    ("matching-grid33/chain/0", 0xd433ad6c60ce566d),
    ("matching-grid33/glauber/0", 0xcf2318d6fbd8ae32),
    ("matching-grid33/infer/0", 0x5d7e5a15119d4527),
    ("matching-grid33/count/0", 0x6fe91217d8d71b3f),
    ("matching-grid33/sampled/0", 0x27412773f853234c),
    ("matching-grid33/exact/1", 0x4b26c7b172a54515),
    ("matching-grid33/chain/1", 0xa9a837fbe213e832),
    ("matching-grid33/glauber/1", 0xe385a4ed03e3594b),
    ("matching-grid33/infer/1", 0xcf99c1a6d43e1c06),
    ("matching-grid33/count/1", 0x997c57d4518dd120),
    ("matching-grid33/sampled/1", 0xe0e509421c4915bf),
    ("matching-grid33/exact/2", 0x42c0bfa94997d5e4),
    ("matching-grid33/chain/2", 0xf57d04b9e6f08ae4),
    ("matching-grid33/glauber/2", 0x46c450944a0b57fa),
    ("matching-grid33/infer/2", 0x6aaaee7dc0eb6d94),
    ("matching-grid33/count/2", 0x2d9f8913f46152be),
    ("matching-grid33/sampled/2", 0x955b9120ad9033fc),
    ("matching-grid33/marginals", 0xb8d2d7615988e1cd),
];
