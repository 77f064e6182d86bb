//! The benchmark's workloads and their deterministic request streams.
//!
//! A stream is a pure function of `(workload name, seed, client, index)`:
//! the same seed replays the same requests at every entry point, and the
//! server sees only the generated `(fingerprint, Task, seed)` triples.

use lds_engine::{Backend, ModelSpec, SweepBudget, Task, Topology};
use lds_gibbs::Value;
use lds_graph::{generators, Graph, NodeId};
use lds_net::EngineSpec;
use lds_runtime::splitmix64;

/// Closed-loop client threads, one connection each.
pub const CLIENTS: usize = 2;

/// What a request asks for, at the granularity the per-task metrics use.
/// `SampleApprox` is the chain-rule path; `Glauber` is `SampleApprox`
/// routed to the tenant built with a Glauber backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    SampleExact,
    SampleApprox,
    Glauber,
    Infer,
    Count,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::SampleExact,
        Class::SampleApprox,
        Class::Glauber,
        Class::Infer,
        Class::Count,
    ];

    /// The name used in metric names and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Class::SampleExact => "sample_exact",
            Class::SampleApprox => "sample_approx",
            Class::Glauber => "glauber",
            Class::Infer => "infer",
            Class::Count => "count",
        }
    }
}

/// The graph every tenant of a workload is built on.
#[derive(Clone, Copy, Debug)]
pub enum Substrate {
    Cycle(usize),
    Torus(usize, usize),
}

impl Substrate {
    pub fn graph(self) -> Graph {
        match self {
            Substrate::Cycle(n) => generators::cycle(n),
            Substrate::Torus(rows, cols) => generators::torus(rows, cols),
        }
    }

    pub fn node_count(self) -> usize {
        match self {
            Substrate::Cycle(n) => n,
            Substrate::Torus(rows, cols) => rows * cols,
        }
    }
}

/// A layer split a workload was designed for; the traced run checks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `serve.cache_hit_frac` is at least 0.9.
    CacheHits,
    /// `serve.cache_hit_frac` is under 0.01.
    CacheBypassed,
    /// `net.self_us + serve.self_us` is over half the client p50.
    NetServeDominate,
    /// The chromatic schedule is the largest engine stage.
    ScheduleLargest,
    /// The schedule is under 5% of engine time.
    ScheduleMinor,
}

/// One traffic mix against hardcore λ=1, ε=0.01 tenants.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub substrate: Substrate,
    /// One tenant per backend. `Class::Glauber` goes to the Glauber
    /// tenant, every other class to tenant 0.
    pub backends: &'static [Backend],
    /// Task weights in percent (they sum to 100).
    pub mix: &'static [(Class, u32)],
    /// `SampleExact` keys warmed during set-up (0: no hot set).
    pub hot_keys: u64,
    /// Percent of requests drawn from the hot set; the rest use fresh seeds.
    pub hot_percent: u32,
    pub expect: &'static [Expect],
}

const GLAUBER_AUTO: Backend = Backend::Glauber {
    sweeps: SweepBudget::Auto,
};

pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "net-cold-cycle",
        substrate: Substrate::Cycle(128),
        backends: &[Backend::Exact, GLAUBER_AUTO],
        mix: &[
            (Class::SampleExact, 15),
            (Class::SampleApprox, 70),
            (Class::Glauber, 15),
        ],
        hot_keys: 0,
        hot_percent: 0,
        expect: &[Expect::CacheBypassed, Expect::ScheduleLargest],
    },
    Workload {
        name: "net-hot-replay",
        substrate: Substrate::Cycle(10),
        backends: &[Backend::Exact],
        mix: &[(Class::SampleExact, 100)],
        hot_keys: 64,
        hot_percent: 95,
        expect: &[Expect::CacheHits, Expect::NetServeDominate],
    },
    Workload {
        name: "net-torus-oracle",
        substrate: Substrate::Torus(4, 4),
        backends: &[Backend::Exact],
        mix: &[
            (Class::Count, 10),
            (Class::Infer, 70),
            (Class::SampleExact, 10),
            (Class::SampleApprox, 10),
        ],
        hot_keys: 0,
        hot_percent: 0,
        expect: &[Expect::CacheBypassed, Expect::ScheduleMinor],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Workload::specs`].
    pub tenant: usize,
    pub class: Class,
    pub task: Task,
    pub seed: u64,
    /// Drawn from the pre-warmed hot set (a cache hit once warmed).
    pub hot: bool,
}

/// Domain labels that keep the independent draws apart. The hot set
/// takes the place of a client index no client has.
const HOT_SET: u64 = u64::MAX;
const ROLL_HOT: u64 = 1;
const ROLL_CLASS: u64 = 2;
const ROLL_KEY: u64 = 3;

fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

fn name_hash(name: &str) -> u64 {
    // FNV-1a: stable across builds, unlike the std hasher
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Workload {
    /// The engine specs of the tenants, in tenant order.
    pub fn specs(&self) -> Vec<EngineSpec> {
        let graph = self.substrate.graph();
        self.backends
            .iter()
            .map(|&backend| EngineSpec {
                epsilon: 0.01,
                backend,
                ..EngineSpec::new(
                    ModelSpec::Hardcore { lambda: 1.0 },
                    Topology::Graph(graph.clone()),
                )
            })
            .collect()
    }

    fn tenant_of(&self, class: Class) -> usize {
        if class == Class::Glauber {
            self.backends
                .iter()
                .position(|b| matches!(b, Backend::Glauber { .. }))
                .expect("a workload that mixes in Glauber has a Glauber tenant")
        } else {
            0
        }
    }

    /// The seed of hot key `k` (`k < hot_keys`).
    pub fn hot_seed(&self, seed: u64, k: u64) -> u64 {
        mix(mix(mix(name_hash(self.name), seed), HOT_SET), k)
    }

    /// Request `index` of client `client`'s stream.
    pub fn request(&self, seed: u64, client: usize, index: u64) -> Request {
        let h = mix(mix(mix(name_hash(self.name), seed), client as u64), index);
        let key = mix(h, ROLL_KEY);
        if self.hot_keys > 0 && mix(h, ROLL_HOT) % 100 < u64::from(self.hot_percent) {
            return Request {
                tenant: 0,
                class: Class::SampleExact,
                task: Task::SampleExact,
                seed: self.hot_seed(seed, key % self.hot_keys),
                hot: true,
            };
        }
        let mut roll = mix(h, ROLL_CLASS) % 100;
        let class = self
            .mix
            .iter()
            .find_map(|&(class, weight)| {
                if roll < u64::from(weight) {
                    Some(class)
                } else {
                    roll -= u64::from(weight);
                    None
                }
            })
            .expect("mix weights sum to 100");
        let task = match class {
            Class::SampleExact => Task::SampleExact,
            Class::SampleApprox | Class::Glauber => Task::SampleApprox,
            Class::Infer => Task::Infer {
                vertex: NodeId::from_index((key % self.substrate.node_count() as u64) as usize),
                value: Value(1),
            },
            Class::Count => Task::Count,
        };
        Request {
            tenant: self.tenant_of(class),
            class,
            task,
            seed: key,
            hot: false,
        }
    }
}
