//! Proper `q`-colorings and their residual color lists.
//!
//! The uniform distribution over proper (list-)colorings is the paradigm
//! example running through the paper: self-reduction pins a partial
//! coloring `τ` and the conditional distribution is a list-coloring of the
//! remaining graph with lists `L_v = [q] \ {τ_u : uv ∈ E}` (Remark 2.2).
//! Corollary 5.3 gives `O(log³ n)`-round exact sampling for triangle-free
//! graphs when `q ≥ αΔ` with `α > α* ≈ 1.763` (Gamarnik–Katz–Misra SSM).

use lds_graph::{Graph, NodeId};

use crate::{Config, Factor, GibbsModel, Value};

/// The disequality edge factor over `q` colors.
fn diff_factor(u: NodeId, v: NodeId, q: usize) -> Factor {
    let mut table = vec![1.0; q * q];
    for c in 0..q {
        table[c * q + c] = 0.0;
    }
    Factor::binary(u, v, q, table)
}

/// Builds the uniform distribution over proper `q`-colorings of `g`.
///
/// # Panics
///
/// Panics if `q == 0`.
///
/// # Example
///
/// ```
/// use lds_gibbs::models::coloring;
/// use lds_gibbs::{distribution, PartialConfig};
/// use lds_graph::generators;
///
/// let g = generators::path(2);
/// let m = coloring::model(&g, 3);
/// // 3 * 2 proper colorings of an edge
/// let z = distribution::partition_function(&m, &PartialConfig::empty(2));
/// assert!((z - 6.0).abs() < 1e-12);
/// ```
pub fn model(g: &Graph, q: usize) -> GibbsModel {
    assert!(q > 0, "need at least one color");
    let factors = g.edges().iter().map(|e| diff_factor(e.u, e.v, q)).collect();
    GibbsModel::new(g.clone(), q, factors)
}

/// Returns `true` if `config` is a proper coloring of `g`.
pub fn is_proper(g: &Graph, config: &Config) -> bool {
    g.edges().iter().all(|e| config.get(e.u) != config.get(e.v))
}

/// The residual list of colors available at `v` given the pinned colors of
/// its neighbors — the self-reduction lists `L_v = [q] \ {τ_u : uv ∈ E}`.
pub fn residual_list(
    g: &Graph,
    q: usize,
    pinned: impl Fn(NodeId) -> Option<Value>,
    v: NodeId,
) -> Vec<usize> {
    let mut allowed = vec![true; q];
    for &u in g.neighbors(v) {
        if let Some(c) = pinned(u) {
            allowed[c.index()] = false;
        }
    }
    (0..q).filter(|&c| allowed[c]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribution, PartialConfig};
    use lds_graph::generators;

    #[test]
    fn chromatic_polynomial_of_triangle() {
        // P(K3, q) = q(q-1)(q-2)
        let g = generators::complete(3);
        for q in 3..6 {
            let m = model(&g, q);
            let z = distribution::partition_function(&m, &PartialConfig::empty(3));
            let expect = (q * (q - 1) * (q - 2)) as f64;
            assert!((z - expect).abs() < 1e-9, "q={q}");
        }
    }

    #[test]
    fn chromatic_polynomial_of_cycle() {
        // P(C_n, q) = (q-1)^n + (-1)^n (q-1)
        let g = generators::cycle(5);
        let q = 3usize;
        let m = model(&g, q);
        let z = distribution::partition_function(&m, &PartialConfig::empty(5));
        let expect = ((q - 1) as f64).powi(5) - (q - 1) as f64;
        assert!((z - expect).abs() < 1e-9);
    }

    #[test]
    fn two_colorings_of_odd_cycle_are_infeasible() {
        let g = generators::cycle(5);
        let m = model(&g, 2);
        assert!(!distribution::is_feasible(&m, &PartialConfig::empty(5)));
    }

    #[test]
    fn residual_lists_follow_remark_2_2() {
        let g = generators::path(3);
        let mut tau = PartialConfig::empty(3);
        tau.pin(NodeId(0), Value(2));
        let l1 = residual_list(&g, 3, |u| tau.get(u), NodeId(1));
        assert_eq!(l1, vec![0, 1]);
        let l2 = residual_list(&g, 3, |u| tau.get(u), NodeId(2));
        assert_eq!(l2, vec![0, 1, 2]);
    }

    #[test]
    fn proper_check() {
        let g = generators::path(3);
        assert!(is_proper(
            &g,
            &Config::from_values(vec![Value(0), Value(1), Value(0)])
        ));
        assert!(!is_proper(
            &g,
            &Config::from_values(vec![Value(0), Value(0), Value(1)])
        ));
    }

    #[test]
    fn conditioning_matches_list_model() {
        // pin a color: node 1's marginal is uniform on its residual list
        let g = generators::path(3);
        let q = 3;
        let m = model(&g, q);
        let mut tau = PartialConfig::empty(3);
        tau.pin(NodeId(0), Value(0));
        let mu = distribution::marginal(&m, &tau, NodeId(1)).unwrap();
        // node 1 can be 1 or 2 with equal probability (by symmetry of node 2's lists)
        assert!((mu[0] - 0.0).abs() < 1e-12);
        assert!((mu[1] - 0.5).abs() < 1e-12);
        assert!((mu[2] - 0.5).abs() < 1e-12);
    }
}
