//! The LOCAL model: algorithms, runner, round accounting and Las Vegas
//! failure semantics.
//!
//! A [`LocalAlgorithm`] with time complexity `t` lets every node gather
//! all information within radius `t` — topology, inputs, random bits —
//! and perform arbitrary local computation (paper, Section 2). Upon
//! termination each node `v` outputs its value and a failure bit `F_v`;
//! algorithms are required to keep `Σ_v E[F_v] = O(1/n)` ("a well accepted
//! notion of Las Vegas algorithms for local computation").

use lds_gibbs::GibbsModel;
use lds_graph::NodeId;

use crate::{Network, View};

/// Output of one node: the value plus the locally certified failure bit
/// `F_v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeOutcome<T> {
    /// The regular output `Y_v`.
    pub value: T,
    /// The failure indicator `F_v` (true = local failure).
    pub failed: bool,
}

impl<T> NodeOutcome<T> {
    /// A successful outcome.
    pub fn ok(value: T) -> Self {
        NodeOutcome {
            value,
            failed: false,
        }
    }
}

/// A LOCAL algorithm: a radius and a per-node computation on views.
///
/// Determinism discipline: `run_at` must be a pure function of the view
/// (which includes member seeds); all randomness must come from
/// [`View::member_seed`]. The runner never gives a node anything outside
/// its radius-`t` ball, so locality is enforced by construction.
pub trait LocalAlgorithm {
    /// Per-node output type.
    type Output;

    /// The gather radius `t` used by every node, planned from the
    /// instance's model (its size `n` among others).
    fn radius(&self, model: &GibbsModel) -> usize;

    /// Computes the output of the view's center node.
    fn run_at(&self, view: &View) -> NodeOutcome<Self::Output>;
}

/// The result of running a LOCAL algorithm on a network.
#[derive(Clone, Debug)]
pub struct LocalRun<T> {
    /// Per-node outputs `Y_v` indexed by node id.
    pub outputs: Vec<T>,
    /// Per-node failure bits `F_v`.
    pub failures: Vec<bool>,
    /// The radius every node gathered (= the algorithm's round count).
    pub rounds: usize,
}

impl<T> LocalRun<T> {
    /// Returns `true` if no node failed.
    pub fn succeeded(&self) -> bool {
        self.failures.iter().all(|&f| !f)
    }
}

/// Runs `algo` on every node of the network (the faithful LOCAL
/// semantics: each node computes independently from its own view).
pub fn run_local<A: LocalAlgorithm>(net: &Network, algo: &A) -> LocalRun<A::Output> {
    let n = net.node_count();
    let t = algo.radius(net.instance().model());
    let mut outputs = Vec::with_capacity(n);
    let mut failures = Vec::with_capacity(n);
    for v in 0..n {
        let view = net.view(NodeId::from_index(v), t);
        let outcome = algo.run_at(&view);
        outputs.push(outcome.value);
        failures.push(outcome.failed);
    }
    LocalRun {
        outputs,
        failures,
        rounds: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::PartialConfig;
    use lds_graph::generators;

    /// A toy LOCAL algorithm: output the number of nodes within radius 2.
    struct BallCounter;

    impl LocalAlgorithm for BallCounter {
        type Output = usize;

        fn radius(&self, _: &GibbsModel) -> usize {
            2
        }

        fn run_at(&self, view: &View) -> NodeOutcome<usize> {
            NodeOutcome::ok(view.model().node_count())
        }
    }

    fn net() -> Network {
        let g = generators::cycle(10);
        Network::new(
            Instance::new(hardcore::model(&g, 1.0), PartialConfig::empty(10)).unwrap(),
            5,
        )
    }

    #[test]
    fn runner_visits_every_node() {
        let run = run_local(&net(), &BallCounter);
        assert_eq!(run.outputs.len(), 10);
        assert!(run.outputs.iter().all(|&c| c == 5));
        assert!(run.succeeded());
        assert_eq!(run.rounds, 2);
        assert_eq!(run.failures.iter().filter(|&&f| f).count(), 0);
    }

    /// An algorithm that fails at odd nodes — exercises failure plumbing.
    struct OddFails;

    impl LocalAlgorithm for OddFails {
        type Output = u32;

        fn radius(&self, _: &GibbsModel) -> usize {
            0
        }

        fn run_at(&self, view: &View) -> NodeOutcome<u32> {
            let id = view.subgraph().to_parent(view.center_local()).0;
            NodeOutcome {
                value: id,
                failed: id % 2 == 1,
            }
        }
    }

    #[test]
    fn failures_are_reported_per_node() {
        let run = run_local(&net(), &OddFails);
        assert!(!run.succeeded());
        assert_eq!(run.failures.iter().filter(|&&f| f).count(), 5);
        assert!(run.failures[1] && !run.failures[2]);
    }

    /// Determinism: same network seed, same outputs.
    struct RandomBit;

    impl LocalAlgorithm for RandomBit {
        type Output = u64;

        fn radius(&self, _: &GibbsModel) -> usize {
            1
        }

        fn run_at(&self, view: &View) -> NodeOutcome<u64> {
            use rand::{Rng, SeedableRng};
            let seed = view.member_seed(view.center_local());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            NodeOutcome::ok(rng.gen())
        }
    }

    #[test]
    fn outputs_are_deterministic_given_seed() {
        let a = run_local(&net(), &RandomBit);
        let b = run_local(&net(), &RandomBit);
        assert_eq!(a.outputs, b.outputs);
        // different seeds give different outputs somewhere
        let g = generators::cycle(10);
        let other = Network::new(
            Instance::new(hardcore::model(&g, 1.0), PartialConfig::empty(10)).unwrap(),
            6,
        );
        let c = run_local(&other, &RandomBit);
        assert_ne!(a.outputs, c.outputs);
    }
}
