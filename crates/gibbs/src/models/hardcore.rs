//! The hardcore model (weighted independent sets).
//!
//! Configurations are `{0, 1}`-valued; a configuration is feasible iff the
//! occupied set is an independent set, and `w(σ) = λ^{|σ|}` where `|σ|` is
//! the number of occupied vertices. The uniqueness threshold on graphs of
//! maximum degree `Δ` is `λ_c(Δ) = (Δ−1)^{Δ−1}/(Δ−2)^Δ`; sampling is
//! `O(log³ n)`-round local below it (Corollary 5.3) and requires
//! `Ω(diam)` rounds above it [Feng–Sun–Yin PODC'17].

use lds_graph::{Graph, NodeId};

use crate::{Config, Factor, GibbsModel, Value};

/// The hard edge constraint: both endpoints occupied is forbidden.
fn edge_factor(u: NodeId, v: NodeId) -> Factor {
    Factor::binary(u, v, 2, vec![1.0, 1.0, 1.0, 0.0])
}

/// Builds the hardcore model on `g` with uniform fugacity `λ`.
///
/// # Panics
///
/// Panics if `λ` is negative or non-finite.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::hardcore;
/// use lds_graph::generators;
///
/// let g = generators::cycle(5);
/// let m = hardcore::model(&g, 1.0);
/// assert_eq!(m.alphabet_size(), 2);
/// assert_eq!(m.locality(), 1);
/// ```
pub fn model(g: &Graph, lambda: f64) -> GibbsModel {
    model_with_activities(g, &vec![lambda; g.node_count()])
}

/// Builds the hardcore model with per-vertex fugacities `λ_v` (the
/// self-reducible generalization needed for conditioning arguments).
///
/// # Panics
///
/// Panics if `activities.len() != n` or any activity is negative or
/// non-finite.
fn model_with_activities(g: &Graph, activities: &[f64]) -> GibbsModel {
    assert_eq!(activities.len(), g.node_count(), "one activity per vertex");
    assert!(
        activities.iter().all(|l| l.is_finite() && *l >= 0.0),
        "fugacities must be finite and nonnegative"
    );
    let mut factors = Vec::with_capacity(g.node_count() + g.edge_count());
    for v in g.nodes() {
        factors.push(Factor::unary(v, vec![1.0, activities[v.index()]]));
    }
    for e in g.edges() {
        factors.push(edge_factor(e.u, e.v));
    }
    GibbsModel::new(g.clone(), 2, factors)
}

/// The set of occupied vertices of a configuration.
pub fn occupied_set(config: &Config) -> Vec<NodeId> {
    (0..config.len())
        .map(NodeId::from_index)
        .filter(|&v| config.get(v) == Value(1))
        .collect()
}

/// Returns `true` if the occupied set of `config` is an independent set of
/// `g`.
pub fn is_independent_set(g: &Graph, config: &Config) -> bool {
    g.edges()
        .iter()
        .all(|e| !(config.get(e.u) == Value(1) && config.get(e.v) == Value(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribution, PartialConfig};
    use lds_graph::generators;

    #[test]
    fn weight_is_lambda_to_occupied_count() {
        let g = generators::path(3);
        let m = model(&g, 3.0);
        let c = Config::from_values(vec![Value(1), Value(0), Value(1)]);
        assert_eq!(m.weight(&c), 9.0);
        assert!(is_independent_set(&g, &c));
        assert_eq!(occupied_set(&c), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn blocked_configurations_have_zero_weight() {
        let g = generators::path(2);
        let m = model(&g, 1.0);
        let c = Config::from_values(vec![Value(1), Value(1)]);
        assert_eq!(m.weight(&c), 0.0);
        assert!(!is_independent_set(&g, &c));
    }

    #[test]
    fn partition_function_of_path3() {
        // independent sets of P3: {}, {0}, {1}, {2}, {0,2} -> Z(λ=1) = 5
        let g = generators::path(3);
        let m = model(&g, 1.0);
        let z = distribution::partition_function(&m, &PartialConfig::empty(3));
        assert!((z - 5.0).abs() < 1e-12);
    }

    #[test]
    fn per_vertex_activities() {
        let g = generators::path(2);
        let m = model_with_activities(&g, &[2.0, 3.0]);
        // Z = 1 + 2 + 3
        let z = distribution::partition_function(&m, &PartialConfig::empty(2));
        assert!((z - 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_fugacity_forces_empty() {
        let g = generators::cycle(4);
        let m = model(&g, 0.0);
        // only the empty set carries positive weight
        assert_eq!(
            distribution::partition_function(&m, &PartialConfig::empty(4)),
            1.0
        );
        let mu = distribution::marginal(&m, &PartialConfig::empty(4), NodeId(0)).unwrap();
        assert_eq!(mu[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_negative_fugacity() {
        let g = generators::path(2);
        let _ = model(&g, -1.0);
    }
}
