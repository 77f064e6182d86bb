use std::sync::Arc;

use lds_graph::{traversal, NodeId};
use lds_runtime::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Instance, View};

/// The distributed network: an [`Instance`] plus per-node randomness.
///
/// Each node of the LOCAL model holds an arbitrarily long private random
/// bit string (paper, Section 2 "The LOCAL Model"). We realize this with a
/// per-node 64-bit seed derived deterministically from the network seed by
/// a SplitMix64 step, so that
///
/// * a node's randomness is *part of its view* — gathering `B_t(v)`
///   collects the seeds of all members, exactly like the model's
///   "inputs and random bits of the nodes within that radius", and
/// * re-running an algorithm with the same network seed reproduces the
///   same randomness (needed to *reconstruct* a node's output
///   distribution in the sampling→inference reduction, Theorem 3.4).
///
/// The instance is held behind an [`Arc`] so that many executions of the
/// same instance (different seeds, as in batched sampling or Monte Carlo
/// reconstruction) share one copy of the graph and factor tables.
#[derive(Clone, Debug)]
pub struct Network {
    instance: Arc<Instance>,
    seed: u64,
}

impl Network {
    /// Creates a network over the instance with the given master seed.
    pub fn new(instance: Instance, seed: u64) -> Self {
        Network {
            instance: Arc::new(instance),
            seed,
        }
    }

    /// Creates a network sharing an already-wrapped instance — the O(1)
    /// constructor for running many seeds against one instance.
    pub fn from_shared(instance: Arc<Instance>, seed: u64) -> Self {
        Network { instance, seed }
    }

    /// The instance `(G, x, τ)`.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// A shared handle to the instance (for spawning sibling networks
    /// with other seeds without cloning the model).
    pub fn shared_instance(&self) -> Arc<Instance> {
        Arc::clone(&self.instance)
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.instance.node_count()
    }

    /// The master seed of this execution.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The private random seed of node `v` for round usage `stream`
    /// (different algorithms/passes use different streams so their
    /// randomness is independent).
    pub fn node_seed(&self, v: NodeId, stream: u64) -> u64 {
        splitmix64(
            self.seed
                .wrapping_mul(0x2545f4914f6cdd1d)
                .wrapping_add(splitmix64((v.0 as u64) << 20 | stream)),
        )
    }

    /// An RNG seeded with node `v`'s private randomness for `stream`.
    pub fn node_rng(&self, v: NodeId, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.node_seed(v, stream))
    }

    /// Gathers the radius-`t` view of node `v`: ball topology, restricted
    /// model `w_B`, restricted pinning and member seeds (stream 0).
    pub fn view(&self, v: NodeId, t: usize) -> View {
        let mut members = traversal::ball(self.instance.model().graph(), v, t);
        // Local ids are assigned in increasing global-id order so that
        // id-based tie-breaking inside a view matches the global graph
        // (the unique IDs are part of the gathered information).
        members.sort_unstable();
        View::build(self, v, &members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::PartialConfig;
    use lds_graph::generators;

    fn net() -> Network {
        let g = generators::cycle(6);
        Network::new(
            Instance::new(hardcore::model(&g, 1.0), PartialConfig::empty(6)).unwrap(),
            7,
        )
    }

    #[test]
    fn node_seeds_are_deterministic_and_distinct() {
        let n = net();
        assert_eq!(n.node_seed(NodeId(0), 0), n.node_seed(NodeId(0), 0));
        assert_ne!(n.node_seed(NodeId(0), 0), n.node_seed(NodeId(1), 0));
        assert_ne!(n.node_seed(NodeId(0), 0), n.node_seed(NodeId(0), 1));
    }

    #[test]
    fn different_master_seeds_differ() {
        let g = generators::cycle(6);
        let i = Instance::new(hardcore::model(&g, 1.0), PartialConfig::empty(6)).unwrap();
        let n1 = Network::new(i.clone(), 1);
        let n2 = Network::new(i, 2);
        assert_ne!(n1.node_seed(NodeId(3), 0), n2.node_seed(NodeId(3), 0));
    }

    #[test]
    fn view_gathers_ball() {
        let n = net();
        let v = n.view(NodeId(2), 1);
        assert_eq!(v.subgraph().len(), 3);
        assert!(v.subgraph().contains(NodeId(1)));
        assert!(v.subgraph().contains(NodeId(3)));
    }
}
