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
//! ([`Wire::to_bytes`]) after zeroing the execution-strategy fields
//! that [`RunReport::semantic_eq`] also ignores: the wall times and the
//! halo-sharding telemetry. Engines use the default pool width, so the
//! `LDS_THREADS` CI matrix checks the same pins at every width.

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
    r.sharding = None;
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
    ("hardcore/exact/0", 0x0e183ee675b59371),
    ("hardcore/chain/0", 0xf1acfb46bc6636b7),
    ("hardcore/glauber/0", 0xf7017f5beb599c94),
    ("hardcore/infer/0", 0x1bf2ed0f6989fabe),
    ("hardcore/count/0", 0xd25e66e1eca89081),
    ("hardcore/sampled/0", 0x19c48cfbf9ac9c0a),
    ("hardcore/exact/1", 0xd0183ebfde96a8e1),
    ("hardcore/chain/1", 0x650e760e4263aade),
    ("hardcore/glauber/1", 0x14ca72faf63cc49e),
    ("hardcore/infer/1", 0x574f4d0877e6a6d9),
    ("hardcore/count/1", 0x25c94cca33fdbdfc),
    ("hardcore/sampled/1", 0x74305f6d8e23d891),
    ("hardcore/exact/2", 0x64b94e436cb27055),
    ("hardcore/chain/2", 0x3c1774bf167d6bae),
    ("hardcore/glauber/2", 0x2d7d5c3220799228),
    ("hardcore/infer/2", 0x125cd8fbb0f330bf),
    ("hardcore/count/2", 0xf9951a4ebbe204e6),
    ("hardcore/sampled/2", 0x57cab745b9a17452),
    ("hardcore/marginals", 0xf8b7561244370ab5),
    ("matching/exact/0", 0x4445e49bb669e3cb),
    ("matching/chain/0", 0x7b2652a0b989ba0c),
    ("matching/glauber/0", 0x06737567827b7827),
    ("matching/infer/0", 0x1177b753b3e27f2c),
    ("matching/count/0", 0x147a3d831940eb3b),
    ("matching/sampled/0", 0x601b0159117bdcd1),
    ("matching/exact/1", 0x65c057cedd8c8d82),
    ("matching/chain/1", 0x554d088ea7538df3),
    ("matching/glauber/1", 0x087c73227ee0fa2f),
    ("matching/infer/1", 0xa1baee04ef3f60db),
    ("matching/count/1", 0x89a4aec37794b962),
    ("matching/sampled/1", 0x3c729e1052460696),
    ("matching/exact/2", 0x43f3b05fb0dd86d7),
    ("matching/chain/2", 0xac990ce18a7a65f9),
    ("matching/glauber/2", 0x9dc78f193278ef01),
    ("matching/infer/2", 0x3e79e34303685f45),
    ("matching/count/2", 0x5a0c2b7b9dd3b4a8),
    ("matching/sampled/2", 0xadd79cbd127b2bd7),
    ("matching/marginals", 0x9e432fa0461e7ec5),
    ("ising/exact/0", 0xed3177e7575a4519),
    ("ising/chain/0", 0x3ad5eab523657fb1),
    ("ising/glauber/0", 0x9efbf258f6305428),
    ("ising/infer/0", 0x0823ed583ab1b9b3),
    ("ising/count/0", 0xe89512c2f7b47160),
    ("ising/sampled/0", 0x826ed3572e3583d1),
    ("ising/exact/1", 0x5f67a76fa7468760),
    ("ising/chain/1", 0xae3da4ed22c018a4),
    ("ising/glauber/1", 0x58c2c0616161fdf6),
    ("ising/infer/1", 0x589594bc8a955344),
    ("ising/count/1", 0xd467f44b9b93acb9),
    ("ising/sampled/1", 0x1ca844bccaf8c799),
    ("ising/exact/2", 0xbb1ebcb3929f2616),
    ("ising/chain/2", 0xc24d52bfbe7af5c5),
    ("ising/glauber/2", 0x2b1566220b367f43),
    ("ising/infer/2", 0xd725a795e079d632),
    ("ising/count/2", 0xb3ef479287cf6d5f),
    ("ising/sampled/2", 0x446e6d1f064cf2e2),
    ("ising/marginals", 0x658b09bc8061a185),
    ("two-spin/exact/0", 0x04b89691d4f38102),
    ("two-spin/chain/0", 0x22377d5b03732dc1),
    ("two-spin/glauber/0", 0x339f6b4b272759f0),
    ("two-spin/infer/0", 0xa3b88954e0c74cb6),
    ("two-spin/count/0", 0x2204cafd324947fe),
    ("two-spin/sampled/0", 0xe265d545943b3076),
    ("two-spin/exact/1", 0x74d8a50cd1b04a5d),
    ("two-spin/chain/1", 0x1f127d1f74e02199),
    ("two-spin/glauber/1", 0x4cf60ab6a2783f92),
    ("two-spin/infer/1", 0x8c83abc64930f49d),
    ("two-spin/count/1", 0x1a6bb41ffdd0631f),
    ("two-spin/sampled/1", 0x86ecac48583eb427),
    ("two-spin/exact/2", 0xfd642f121d3abaf0),
    ("two-spin/chain/2", 0xdb0d08e95ba9c14d),
    ("two-spin/glauber/2", 0x3203d31d50250904),
    ("two-spin/infer/2", 0x07b184a0467e6933),
    ("two-spin/count/2", 0xe7ddffec7df27cd5),
    ("two-spin/sampled/2", 0x04680e9a99c8bb0e),
    ("two-spin/marginals", 0xe1347c12ee991865),
    ("coloring/exact/0", 0x9c074d1f2b1ef0d8),
    ("coloring/chain/0", 0xb617cc23d7e7d4c4),
    ("coloring/glauber/0", 0x256699a417e21a1e),
    ("coloring/infer/0", 0xad2d2c4fecc58c93),
    ("coloring/count/0", 0x4e8211ceaf2e149c),
    ("coloring/sampled/0", 0xe81a96b31109048e),
    ("coloring/exact/1", 0xa77888c1b6a575ee),
    ("coloring/chain/1", 0x39d718d9b7ff4f49),
    ("coloring/glauber/1", 0x6ff990971f02bf92),
    ("coloring/infer/1", 0x2c061095c6406f60),
    ("coloring/count/1", 0xc0e0081256159e85),
    ("coloring/sampled/1", 0xc1fe7ab53ac14178),
    ("coloring/exact/2", 0x06b0e28756682b9e),
    ("coloring/chain/2", 0xbdea0099a870af7b),
    ("coloring/glauber/2", 0x5631995258a44294),
    ("coloring/infer/2", 0x7a56c739f7684c62),
    ("coloring/count/2", 0x487fef4d17345dc3),
    ("coloring/sampled/2", 0x50381cbc86bd3b40),
    ("coloring/marginals", 0xcfed111614dfdf15),
    ("hypergraph-matching/exact/0", 0x401c126257a3b2ea),
    ("hypergraph-matching/chain/0", 0x3b7bd7c5383dc708),
    ("hypergraph-matching/glauber/0", 0xec6e69cfb87172a5),
    ("hypergraph-matching/infer/0", 0x79c93a23909cd69d),
    ("hypergraph-matching/count/0", 0x6201331f58b91c34),
    ("hypergraph-matching/sampled/0", 0x56749463b0129556),
    ("hypergraph-matching/exact/1", 0x1c175b0f1dee972c),
    ("hypergraph-matching/chain/1", 0xf84aadc4f198ff51),
    ("hypergraph-matching/glauber/1", 0xa8ae71062c6b462d),
    ("hypergraph-matching/infer/1", 0xe4762446c0742232),
    ("hypergraph-matching/count/1", 0x5ac62cdacd6ef635),
    ("hypergraph-matching/sampled/1", 0x55f617f4bf7dcd25),
    ("hypergraph-matching/exact/2", 0xd02096f5086bf672),
    ("hypergraph-matching/chain/2", 0x04c1fc0229d2a50f),
    ("hypergraph-matching/glauber/2", 0xc490be03eff9d0f9),
    ("hypergraph-matching/infer/2", 0x0339c4a490606aac),
    ("hypergraph-matching/count/2", 0x17fb22f4e91ca057),
    ("hypergraph-matching/sampled/2", 0x1bbe100ba65552da),
    ("hypergraph-matching/marginals", 0x3833fdd82bf5280d),
];
