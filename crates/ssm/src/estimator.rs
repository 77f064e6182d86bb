//! Exact decay-of-correlation measurements.
//!
//! Two complementary instruments:
//!
//! * [`boundary_gap_series`] — on general graphs, by enumeration: pin a
//!   sphere `S_d(v)` with two extremal boundary configurations and
//!   measure `d_TV(μ^σ_v, μ^τ_v)` for each distance `d`. Exponential in
//!   instance size; use on small workloads.
//! * [`tree_gap_series`] — on complete `b`-ary trees, by the exact
//!   scalar recursion `R ← λ/(1+R)^b` (all depth-`k` subtrees are
//!   identical): the root occupation gap between the all-occupied and
//!   all-vacant leaf boundaries, exact at **any** depth in `O(depth)`
//!   time. This is the classic witness of the uniqueness phase
//!   transition at `λ_c(b+1)`.

use lds_gibbs::{distribution, metrics, GibbsModel, PartialConfig, Value};
use lds_graph::{traversal, NodeId};

/// One decay measurement: distance and total-variation gap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GapPoint {
    /// Distance from the probe vertex to the disagreement set.
    pub distance: usize,
    /// `d_TV(μ^σ_v, μ^τ_v)` for the extremal boundary pair.
    pub gap: f64,
}

/// Measures `d_TV(μ^σ_v, μ^τ_v)` at `v` for boundary pairs pinned on the
/// spheres `S_d(v)`, `d = 1..=max_distance`, with `σ` pinning the whole
/// sphere to `lo` and `τ` to `hi` (skipping infeasible pinnings).
///
/// Exact by enumeration — small models only.
pub fn boundary_gap_series(
    model: &GibbsModel,
    v: NodeId,
    lo: Value,
    hi: Value,
    max_distance: usize,
) -> Vec<GapPoint> {
    let g = model.graph();
    let mut series = Vec::new();
    for d in 1..=max_distance {
        let sphere = traversal::sphere(g, v, d);
        if sphere.is_empty() {
            break;
        }
        let mut sigma = PartialConfig::empty(model.node_count());
        let mut tau = PartialConfig::empty(model.node_count());
        for &u in &sphere {
            sigma.pin(u, lo);
            tau.pin(u, hi);
        }
        let mu_s = distribution::marginal(model, &sigma, v);
        let mu_t = distribution::marginal(model, &tau, v);
        if let (Some(a), Some(b)) = (mu_s, mu_t) {
            series.push(GapPoint {
                distance: d,
                gap: metrics::tv_distance(&a, &b),
            });
        }
    }
    series
}

/// The root occupation probability of the hardcore model on the complete
/// `b`-ary tree of the given depth, with all leaves pinned to `boundary`
/// (`true` = occupied). Exact scalar recursion.
///
/// The root of a depth-`k` tree has `b` children, each the root of a
/// depth-`k−1` tree, so the occupation ratio satisfies
/// `R_k = λ/(1+R_{k−1})^b`, seeded at the pinned leaves with
/// `R_0 = ∞` (occupied) or `R_0 = 0` (vacant).
pub(crate) fn tree_root_occupation(b: usize, depth: usize, lambda: f64, boundary: bool) -> f64 {
    let mut r = if boundary { f64::INFINITY } else { 0.0 };
    for _ in 0..depth {
        r = if r.is_infinite() {
            // λ/(1+∞)^b = 0
            0.0
        } else {
            lambda / (1.0 + r).powi(b as i32)
        };
    }
    if r.is_infinite() {
        1.0
    } else {
        r / (1.0 + r)
    }
}

/// The boundary-to-root gap series on complete `b`-ary trees:
/// `gap(d) = |p_root^{occupied leaves} − p_root^{vacant leaves}|` for
/// depth `d = 1..=max_depth`. Exact, `O(max_depth²)` total.
///
/// In the uniqueness regime (`λ < λ_c(b+1)`) the gap decays
/// exponentially; above it the gap oscillates towards a positive limit —
/// the long-range order behind the paper's `Ω(diam)` lower bound.
pub fn tree_gap_series(b: usize, lambda: f64, max_depth: usize) -> Vec<GapPoint> {
    (1..=max_depth)
        .map(|d| {
            let p_occ = tree_root_occupation(b, d, lambda, true);
            let p_vac = tree_root_occupation(b, d, lambda, false);
            GapPoint {
                distance: d,
                gap: (p_occ - p_vac).abs(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_core::complexity;
    use lds_gibbs::models::hardcore;
    use lds_graph::generators;

    #[test]
    fn tree_recursion_matches_enumeration() {
        // depth-3 binary tree: compare scalar recursion with enumeration
        let b = 2usize;
        let depth = 3usize;
        let lambda = 1.7;
        let g = generators::balanced_tree(b, depth);
        let m = hardcore::model(&g, lambda);
        let n = g.node_count();
        // pin all leaves (last b^depth nodes) occupied / vacant
        let leaves: Vec<NodeId> = (n - b.pow(depth as u32)..n)
            .map(NodeId::from_index)
            .collect();
        for boundary in [true, false] {
            let mut pin = PartialConfig::empty(n);
            for &u in &leaves {
                pin.pin(u, if boundary { Value(1) } else { Value(0) });
            }
            let exact = distribution::marginal(&m, &pin, NodeId(0)).unwrap()[1];
            let scalar = tree_root_occupation(b, depth, lambda, boundary);
            assert!(
                (exact - scalar).abs() < 1e-12,
                "boundary={boundary}: {exact} vs {scalar}"
            );
        }
    }

    #[test]
    fn tree_gap_vanishes_in_uniqueness() {
        // b=3 children ⇒ Δ = 4 internal degree; λ_c(4) = 27/16
        let lc = complexity::hardcore_uniqueness_threshold(4);
        let series = tree_gap_series(3, 0.5 * lc, 60);
        let last = series.last().unwrap();
        assert!(last.gap < 1e-6, "uniqueness gap {}", last.gap);
        // monotone-ish decay: last much smaller than first
        assert!(series[0].gap > 100.0 * last.gap);
    }

    #[test]
    fn tree_gap_persists_in_nonuniqueness() {
        let lc = complexity::hardcore_uniqueness_threshold(4);
        let series = tree_gap_series(3, 2.0 * lc, 40);
        let last = series.last().unwrap();
        assert!(
            last.gap > 0.05,
            "non-uniqueness long-range order missing: {}",
            last.gap
        );
    }

    #[test]
    fn cycle_gap_decays() {
        let g = generators::cycle(14);
        let m = hardcore::model(&g, 1.0);
        let series = boundary_gap_series(&m, NodeId(0), Value(0), Value(1), 6);
        assert!(series.len() >= 5);
        assert!(series[0].gap > 2.0 * series[4].gap, "no decay: {series:?}");
        assert!(series[4].gap < 0.05, "gap {}", series[4].gap);
    }
}
