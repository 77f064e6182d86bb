use lds_gibbs::{GibbsModel, PartialConfig};
use lds_graph::{traversal, NodeId, Subgraph};

use crate::Network;

/// The radius-`t` view of a node in the LOCAL model: everything node `v`
/// learns by gathering all information within distance `t` — the ball's
/// topology, the local constraints fully inside it, the pinned values of
/// its members and their private randomness.
///
/// All node ids inside a view are *local* ids of the induced
/// [`Subgraph`]; translate with [`View::subgraph`].
#[derive(Clone, Debug)]
pub struct View {
    center_local: NodeId,
    sub: Subgraph,
    model: GibbsModel,
    pinning: PartialConfig,
    seeds: Vec<u64>,
    distances: Vec<u32>,
}

impl View {
    pub(crate) fn build(net: &Network, center: NodeId, members: &[NodeId]) -> View {
        let (model, sub) = net.instance().model().restrict_to(members);
        let pinning = GibbsModel::localize_pinning(&sub, net.instance().pinning());
        let seeds = members.iter().map(|&v| net.node_seed(v, 0)).collect();
        let global_dist = traversal::bfs_distances(net.instance().model().graph(), center);
        // distance from center, clipped to the ball
        let distances = members.iter().map(|&v| global_dist[v.index()]).collect();
        View {
            center_local: sub.to_local(center).expect("center is a member"),
            sub,
            model,
            pinning,
            seeds,
            distances,
        }
    }

    /// The local id of the center inside [`View::subgraph`].
    pub fn center_local(&self) -> NodeId {
        self.center_local
    }

    /// The ball `B_t(v)` as an induced subgraph with id mapping.
    pub fn subgraph(&self) -> &Subgraph {
        &self.sub
    }

    /// The restricted model over local ids: only factors with scope fully
    /// inside the ball (the weight `w_B` of Lemma 4.1 / Theorem 5.1).
    pub fn model(&self) -> &GibbsModel {
        &self.model
    }

    /// The pinning restricted to the ball (local ids).
    pub fn pinning(&self) -> &PartialConfig {
        &self.pinning
    }

    /// Private seed of the member with the given *local* id (stream 0).
    pub fn member_seed(&self, local: NodeId) -> u64 {
        self.seeds[local.index()]
    }

    /// Distance of a member (local id) from the center.
    pub fn distance(&self, local: NodeId) -> u32 {
        self.distances[local.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;
    use lds_gibbs::models::hardcore;
    use lds_gibbs::Value;
    use lds_graph::generators;

    fn network() -> Network {
        let g = generators::cycle(8);
        let mut tau = PartialConfig::empty(8);
        tau.pin(NodeId(3), Value(1));
        Network::new(Instance::new(hardcore::model(&g, 2.0), tau).unwrap(), 99)
    }

    #[test]
    fn view_restricts_model_and_pinning() {
        let net = network();
        let view = net.view(NodeId(2), 1);
        // ball {1,2,3}: factors inside = 3 unary + 2 edges
        assert_eq!(view.model().factors().len(), 5);
        let local3 = view.subgraph().to_local(NodeId(3)).unwrap();
        assert_eq!(view.pinning().get(local3), Some(Value(1)));
    }

    #[test]
    fn boundary_is_sphere() {
        let net = network();
        let view = net.view(NodeId(0), 2);
        let boundary: Vec<NodeId> = (0..view.model().node_count())
            .map(NodeId::from_index)
            .filter(|&l| view.distance(l) == 2)
            .map(|l| view.subgraph().to_parent(l))
            .collect();
        let mut sorted = boundary.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![NodeId(2), NodeId(6)]);
    }

    #[test]
    fn member_seeds_match_network_seeds() {
        let net = network();
        let view = net.view(NodeId(5), 2);
        for l in 0..view.model().node_count() {
            let local = NodeId::from_index(l);
            let global = view.subgraph().to_parent(local);
            assert_eq!(view.member_seed(local), net.node_seed(global, 0));
        }
    }

    #[test]
    fn distances_from_center() {
        let net = network();
        let view = net.view(NodeId(0), 3);
        assert_eq!(view.distance(view.center_local()), 0);
        let l = view.subgraph().to_local(NodeId(7)).unwrap();
        assert_eq!(view.distance(l), 1);
    }
}
