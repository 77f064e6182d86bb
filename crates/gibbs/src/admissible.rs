//! The *locally admissible* property (paper, Definition 2.5).
//!
//! A Gibbs distribution is locally admissible when every **locally
//! feasible** pinning (one violating no fully-pinned constraint) is also
//! **feasible** (extensible to a positive-weight full configuration). For
//! such models, constructing a feasible solution is trivial for a
//! sequential local oblivious procedure (Remark 2.3) — the property `(⋆⋆)`
//! that Theorem 5.1 requires.

use lds_graph::NodeId;

use crate::{GibbsModel, PartialConfig, Value};

/// Greedily extends `pinning` to a full locally feasible configuration by
/// scanning free nodes in id order and choosing, at each node, a value
/// that keeps the partial configuration locally feasible.
///
/// For locally admissible models this always succeeds from a feasible
/// pinning (this is the "sequential local oblivious" construction of
/// Remark 2.3); for general models it may fail, returning `None`.
pub fn greedy_feasible_extension(
    model: &GibbsModel,
    pinning: &PartialConfig,
) -> Option<PartialConfig> {
    let mut current = pinning.clone();
    if !model.is_locally_feasible(&current) {
        return None;
    }
    let free: Vec<NodeId> = current.free_nodes().collect();
    for v in free {
        let val = first_feasible_value(model, &current, v)?;
        current.pin(v, val);
    }
    Some(current)
}

/// The value the greedy construction of Remark 2.3 picks at `v`: the
/// first `c` such that every factor touching `v` that `pinning ∧ (v ↦ c)`
/// fully determines is positive, or `None` if there is no such value.
///
/// It reads only the factors touching `v`, so it costs `O(q · deg)`
/// factor lookups, and a violated factor elsewhere in `pinning` does not
/// fail `v`. On a locally feasible `pinning` it agrees with checking
/// [`GibbsModel::is_locally_feasible`] on each extension.
pub fn first_feasible_value(
    model: &GibbsModel,
    pinning: &PartialConfig,
    v: NodeId,
) -> Option<Value> {
    (0..model.alphabet_size())
        .map(Value::from_index)
        .find(|&c| {
            let at = |s: NodeId| if s == v { Some(c) } else { pinning.get(s) };
            model
                .factors_touching(v)
                .iter()
                .all(|&fi| model.factors()[fi].eval_partial(at).is_none_or(|w| w > 0.0))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution;
    use crate::models::{coloring, hardcore};
    use lds_graph::generators;

    /// Exhaustively checks Definition 2.5: over **every** subset `Λ ⊆ V`
    /// and **every** `σ ∈ Σ^Λ` (all `(q+1)^n` pinnings), local
    /// feasibility implies feasibility. Returns the first counterexample
    /// (a locally feasible but infeasible pinning), or `None` if the model
    /// is locally admissible. Exponential; small models only.
    fn find_inadmissible_pinning(model: &GibbsModel) -> Option<PartialConfig> {
        let n = model.node_count();
        let q = model.alphabet_size();
        // iterate over all (q+1)^n partial configurations via mixed-radix count
        let mut digits = vec![0usize; n]; // 0 = unpinned, 1..=q = Value(d-1)
        loop {
            let mut p = PartialConfig::empty(n);
            for (i, &d) in digits.iter().enumerate() {
                if d > 0 {
                    p.pin(NodeId::from_index(i), Value::from_index(d - 1));
                }
            }
            if model.is_locally_feasible(&p) && !distribution::is_feasible(model, &p) {
                return Some(p);
            }
            // increment mixed-radix counter
            let mut i = 0;
            loop {
                if i == n {
                    return None;
                }
                digits[i] += 1;
                if digits[i] <= q {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn hardcore_is_locally_admissible() {
        let g = generators::cycle(4);
        let m = hardcore::model(&g, 1.0);
        assert!(find_inadmissible_pinning(&m).is_none());
    }

    #[test]
    fn colorings_with_enough_colors_are_admissible() {
        // (Δ+1)-coloring of a cycle: Δ = 2, q = 3
        let g = generators::cycle(4);
        let m = coloring::model(&g, 3);
        assert!(find_inadmissible_pinning(&m).is_none());
    }

    #[test]
    fn two_coloring_of_even_cycle_is_not_admissible() {
        // proper 2-colorings of C4 exist, but pinning opposite corners
        // with different colors is locally feasible yet infeasible.
        let g = generators::cycle(4);
        let m = coloring::model(&g, 2);
        let bad = find_inadmissible_pinning(&m).expect("C4 with q = 2 is not admissible");
        assert!(m.is_locally_feasible(&bad));
        assert!(!distribution::is_feasible(&m, &bad));
        assert!(greedy_feasible_extension(&m, &bad).is_none());
    }

    #[test]
    fn greedy_extension_works_for_admissible_models() {
        let g = generators::cycle(5);
        let m = hardcore::model(&g, 2.0);
        let mut p = PartialConfig::empty(5);
        p.pin(NodeId(0), Value(1));
        let full = greedy_feasible_extension(&m, &p).unwrap();
        assert_eq!(full.free_nodes().count(), 0);
        assert!(m.weight(&full.to_config()) > 0.0);
        assert_eq!(full.get(NodeId(0)), Some(Value(1)));
    }

    #[test]
    fn greedy_extension_fails_on_locally_infeasible_pinning() {
        let g = generators::path(2);
        let m = hardcore::model(&g, 1.0);
        let mut p = PartialConfig::empty(2);
        p.pin(NodeId(0), Value(1));
        p.pin(NodeId(1), Value(1));
        assert!(greedy_feasible_extension(&m, &p).is_none());
    }
}
