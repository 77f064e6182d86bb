use std::fmt;

use lds_graph::{traversal, Graph, NodeId, Subgraph};

use crate::{Config, Factor, PartialConfig};

/// A Gibbs distribution `μ(σ) ∝ w(σ) = ∏_{(f,S) ∈ F} f(σ_S)` specified by
/// `(G, Σ, F)` (paper, Definition 2.3).
///
/// The model's *locality* `ℓ` is the maximum diameter of a factor scope in
/// `G` (Definition 2.4); the model is a **local** Gibbs distribution when
/// `ℓ = O(1)`, which holds for every model family in [`crate::models`]
/// (all scopes are single vertices, edges, or hyperedge cliques).
///
/// # Example
///
/// ```
/// use lds_gibbs::{Config, Factor, GibbsModel, Value};
/// use lds_graph::{generators, NodeId};
///
/// let g = generators::path(2);
/// let model = GibbsModel::new(
///     g,
///     2,
///     vec![Factor::binary(NodeId(0), NodeId(1), 2, vec![1.0, 1.0, 1.0, 0.0])],
/// );
/// let both = Config::from_values(vec![Value(1), Value(1)]);
/// assert_eq!(model.weight(&both), 0.0);
/// ```
#[derive(Clone)]
pub struct GibbsModel {
    graph: Graph,
    q: usize,
    factors: Vec<Factor>,
    /// For each node, the indices of factors whose scope contains it.
    by_node: Vec<Vec<usize>>,
    /// For each node v, indices of factors whose scope max (by id) is v —
    /// used for prefix-pruned enumeration in id order.
    completed_at: Vec<Vec<usize>>,
    locality: usize,
}

impl GibbsModel {
    /// Creates a model over `graph` with alphabet size `q` and the given
    /// factor list.
    ///
    /// # Panics
    ///
    /// Panics if a factor's alphabet size differs from `q`, or if a scope
    /// node is out of range.
    pub fn new(graph: Graph, q: usize, factors: Vec<Factor>) -> Self {
        let n = graph.node_count();
        let mut by_node = vec![Vec::new(); n];
        let mut completed_at = vec![Vec::new(); n];
        let mut locality = 0usize;
        for (i, f) in factors.iter().enumerate() {
            assert_eq!(f.alphabet_size(), q, "factor {i} alphabet mismatch");
            assert!(
                f.scope().iter().all(|v| v.index() < n),
                "factor {i} scope out of range"
            );
            for &v in f.scope() {
                by_node[v.index()].push(i);
            }
            let max = f.scope().iter().max().expect("nonempty scope");
            completed_at[max.index()].push(i);
            locality = locality.max(scope_diameter(&graph, f.scope()));
        }
        GibbsModel {
            graph,
            q,
            factors,
            by_node,
            completed_at,
            locality,
        }
    }

    /// The underlying graph `G`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes `n = |V|`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Alphabet size `q = |Σ|`.
    pub fn alphabet_size(&self) -> usize {
        self.q
    }

    /// All factors `F`.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Indices of factors whose scope contains `v` — the constraints a
    /// node knows in the LOCAL model ("`x_v` includes the descriptions of
    /// all local constraints `(f, S)` with `v ∈ S`").
    pub fn factors_touching(&self, v: NodeId) -> &[usize] {
        &self.by_node[v.index()]
    }

    /// Indices of factors whose maximum scope node is `v` (for id-ordered
    /// enumeration with early pruning).
    pub(crate) fn factors_completed_at(&self, v: NodeId) -> &[usize] {
        &self.completed_at[v.index()]
    }

    /// The locality `ℓ`: maximum scope diameter in `G` (Definition 2.4).
    pub fn locality(&self) -> usize {
        self.locality
    }

    /// The weight `w(σ) = ∏ f(σ_S)` (paper, eq. (1)).
    pub fn weight(&self, config: &Config) -> f64 {
        self.factors
            .iter()
            .map(|f| {
                f.eval_partial(|v| Some(config.get(v)))
                    .expect("full config")
            })
            .product()
    }

    /// Returns `true` if `p` is *locally feasible*: no fully pinned factor
    /// evaluates to zero (Definition 2.5).
    pub fn is_locally_feasible(&self, p: &PartialConfig) -> bool {
        self.factors
            .iter()
            .filter_map(|f| f.eval_partial(|v| p.get(v)))
            .all(|w| w > 0.0)
    }

    /// Restricts the model to the induced subgraph on `members`, keeping
    /// only factors with scope fully inside (the weight `w_B` used by the
    /// paper's local computations in Lemma 4.1 and Theorem 5.1). Factor
    /// scopes are remapped to local ids.
    pub fn restrict_to(&self, members: &[NodeId]) -> (GibbsModel, Subgraph) {
        let sub = Subgraph::induced(&self.graph, members);
        let mut kept = Vec::new();
        for f in &self.factors {
            if f.scope().iter().all(|&v| sub.contains(v)) {
                kept.push(f.remap(|v| sub.to_local(v)));
            }
        }
        let model = GibbsModel::new(sub.graph().clone(), self.q, kept);
        (model, sub)
    }

    /// Translates a pinning on parent ids into one on the local ids of the
    /// restriction `sub`; pins outside `sub` are dropped.
    pub fn localize_pinning(sub: &Subgraph, p: &PartialConfig) -> PartialConfig {
        let mut local = PartialConfig::empty(sub.len());
        for (v, val) in p.pins() {
            if let Some(lv) = sub.to_local(v) {
                local.pin(lv, val);
            }
        }
        local
    }
}

/// Maximum pairwise distance of scope nodes in `g` (0 for singleton
/// scopes).
fn scope_diameter(g: &Graph, scope: &[NodeId]) -> usize {
    let mut diam = 0usize;
    for &u in scope {
        let d = traversal::bfs_distances(g, u);
        for &v in scope {
            let duv = d[v.index()];
            assert!(
                duv != traversal::UNREACHABLE,
                "factor scope spans disconnected nodes {u} and {v}"
            );
            diam = diam.max(duv as usize);
        }
    }
    diam
}

impl fmt::Debug for GibbsModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GibbsModel")
            .field("n", &self.node_count())
            .field("q", &self.q)
            .field("factors", &self.factors.len())
            .field("locality", &self.locality)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use lds_graph::generators;

    fn hardcore_path3() -> GibbsModel {
        // path 0-1-2, hardcore with λ=2 on the middle vertex
        let g = generators::path(3);
        let hard = vec![1.0, 1.0, 1.0, 0.0];
        GibbsModel::new(
            g,
            2,
            vec![
                Factor::binary(NodeId(0), NodeId(1), 2, hard.clone()),
                Factor::binary(NodeId(1), NodeId(2), 2, hard),
                Factor::unary(NodeId(1), vec![1.0, 2.0]),
            ],
        )
    }

    #[test]
    fn weight_products() {
        let m = hardcore_path3();
        let empty = Config::constant(3, Value(0));
        assert_eq!(m.weight(&empty), 1.0);
        let mid = Config::from_values(vec![Value(0), Value(1), Value(0)]);
        assert_eq!(m.weight(&mid), 2.0);
        let bad = Config::from_values(vec![Value(1), Value(1), Value(0)]);
        assert_eq!(m.weight(&bad), 0.0);
    }

    #[test]
    fn locality_of_edge_factors_is_one() {
        let m = hardcore_path3();
        assert_eq!(m.locality(), 1);
    }

    #[test]
    fn local_feasibility_checks_only_pinned_scopes() {
        let m = hardcore_path3();
        let mut p = PartialConfig::empty(3);
        p.pin(NodeId(0), Value(1));
        assert!(m.is_locally_feasible(&p));
        p.pin(NodeId(1), Value(1));
        assert!(!m.is_locally_feasible(&p));
    }

    #[test]
    fn restriction_drops_boundary_factors() {
        let m = hardcore_path3();
        let (rm, sub) = m.restrict_to(&[NodeId(0), NodeId(1)]);
        // kept: edge 0-1 and the unary on node 1; dropped: edge 1-2
        assert_eq!(rm.factors().len(), 2);
        assert_eq!(rm.node_count(), 2);
        assert!(sub.contains(NodeId(1)));
        let mut p = PartialConfig::empty(3);
        p.pin(NodeId(1), Value(1));
        p.pin(NodeId(2), Value(0));
        let local = GibbsModel::localize_pinning(&sub, &p);
        assert_eq!(local.pinned_count(), 1);
    }

    #[test]
    fn factors_indexing() {
        let m = hardcore_path3();
        assert_eq!(m.factors_touching(NodeId(1)).len(), 3);
        assert_eq!(m.factors_touching(NodeId(0)).len(), 1);
        // factor with scope {1,2} completes at node 2; unary(1) at node 1
        assert_eq!(m.factors_completed_at(NodeId(2)).len(), 1);
        assert_eq!(m.factors_completed_at(NodeId(1)).len(), 2);
    }

    #[test]
    fn debug_shows_the_model_shape() {
        let m = hardcore_path3();
        assert_eq!(
            format!("{m:?}"),
            "GibbsModel { n: 3, q: 2, factors: 3, locality: 1 }"
        );
    }
}
