//! Exact computations on Gibbs distributions by pruned enumeration.
//!
//! These routines are the workspace's ground truth: partition functions
//! `Z`, (conditional) marginal distributions `μ_v^τ`, full joint
//! distributions, and exact chain-rule sampling. All run in time
//! exponential in the number of *free* nodes (with early pruning on hard
//! constraints), so they are meant for small instances and for the
//! restricted ball models used by the paper's local computations
//! (Lemma 4.1, Theorem 5.1).

use lds_graph::NodeId;
use rand::Rng;

use crate::{Config, GibbsModel, PartialConfig, Value};

/// Visits every feasible completion of `pinning` (weight > 0) in
/// lexicographic order of free-node values, calling `visit(values, weight)`.
///
/// Enumeration assigns nodes in id order and prunes as soon as a completed
/// factor evaluates to zero.
fn enumerate_feasible(
    model: &GibbsModel,
    pinning: &PartialConfig,
    mut visit: impl FnMut(&[Value], f64),
) {
    let n = model.node_count();
    assert_eq!(pinning.len(), n, "pinning size mismatch");
    let q = model.alphabet_size();
    let mut values = vec![Value(0); n];
    // weight accumulated after assigning prefix 0..=depth-1
    let mut prefix = vec![1.0f64; n + 1];

    // iterative DFS over depth 0..n
    #[derive(Clone, Copy)]
    enum Step {
        Enter(usize),
        Try(usize, u32),
    }
    let mut stack = vec![Step::Enter(0)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(depth) => {
                if depth == n {
                    visit(&values, prefix[n]);
                    continue;
                }
                stack.push(Step::Try(depth, 0));
            }
            Step::Try(depth, k) => {
                let v = NodeId::from_index(depth);
                let pinned = pinning.get(v);
                // which values to try at this node
                let (val, next) = match pinned {
                    Some(val) => {
                        if k > 0 {
                            continue;
                        }
                        (val, u32::MAX) // only one branch
                    }
                    None => {
                        if k as usize >= q {
                            continue;
                        }
                        (Value(k), k + 1)
                    }
                };
                if next != u32::MAX {
                    stack.push(Step::Try(depth, next));
                } else if pinned.is_none() {
                    unreachable!();
                }
                values[depth] = val;
                let mut w = prefix[depth];
                for &fi in model.factors_completed_at(v) {
                    let f = &model.factors()[fi];
                    w *= f
                        .eval_partial(|s| (s.index() <= depth).then(|| values[s.index()]))
                        .expect("factor complete at this depth");
                    if w == 0.0 {
                        break;
                    }
                }
                if w > 0.0 {
                    prefix[depth + 1] = w;
                    stack.push(Step::Enter(depth + 1));
                }
            }
        }
    }
}

/// The (conditional) partition function
/// `Z^τ = Σ_{σ: σ_Λ = τ} w(σ)`.
pub fn partition_function(model: &GibbsModel, pinning: &PartialConfig) -> f64 {
    let mut z = 0.0;
    enumerate_feasible(model, pinning, |_, w| z += w);
    z
}

/// Returns `true` if the pinning is feasible with respect to `μ`, i.e. has
/// at least one positive-weight completion. Short-circuits on the first
/// witness.
pub fn is_feasible(model: &GibbsModel, pinning: &PartialConfig) -> bool {
    // enumerate but bail on first hit via an early-exit search
    exists_feasible_rec(
        model,
        pinning,
        0,
        &mut vec![Value(0); model.node_count()],
        1.0,
    )
}

fn exists_feasible_rec(
    model: &GibbsModel,
    pinning: &PartialConfig,
    depth: usize,
    values: &mut Vec<Value>,
    prefix: f64,
) -> bool {
    let n = model.node_count();
    if depth == n {
        return prefix > 0.0;
    }
    let v = NodeId::from_index(depth);
    let candidates: Vec<Value> = match pinning.get(v) {
        Some(val) => vec![val],
        None => (0..model.alphabet_size()).map(Value::from_index).collect(),
    };
    for val in candidates {
        values[depth] = val;
        let mut w = prefix;
        for &fi in model.factors_completed_at(v) {
            let f = &model.factors()[fi];
            w *= f
                .eval_partial(|s| (s.index() <= depth).then(|| values[s.index()]))
                .expect("factor complete");
            if w == 0.0 {
                break;
            }
        }
        if w > 0.0 && exists_feasible_rec(model, pinning, depth + 1, values, w) {
            return true;
        }
    }
    false
}

/// The exact conditional marginal distribution `μ_v^τ` as a length-`q`
/// probability vector; `None` if the pinning is infeasible (`Z^τ = 0`).
///
/// If `v` is pinned by `τ`, the marginal is the point mass on `τ(v)`.
pub fn marginal(model: &GibbsModel, pinning: &PartialConfig, v: NodeId) -> Option<Vec<f64>> {
    let q = model.alphabet_size();
    let mut mass = vec![0.0f64; q];
    enumerate_feasible(model, pinning, |values, w| {
        mass[values[v.index()].index()] += w;
    });
    let z: f64 = mass.iter().sum();
    if z <= 0.0 {
        return None;
    }
    for m in &mut mass {
        *m /= z;
    }
    Some(mass)
}

/// The full joint distribution `μ^τ` as a list of `(configuration,
/// probability)` pairs over feasible completions; `None` if infeasible.
pub fn joint_distribution(
    model: &GibbsModel,
    pinning: &PartialConfig,
) -> Option<Vec<(Config, f64)>> {
    let mut items: Vec<(Config, f64)> = Vec::new();
    let mut z = 0.0;
    enumerate_feasible(model, pinning, |values, w| {
        items.push((Config::from_values(values.to_vec()), w));
        z += w;
    });
    if z <= 0.0 {
        return None;
    }
    for (_, p) in &mut items {
        *p /= z;
    }
    Some(items)
}

/// Draws one exact sample from `μ^τ` by two-pass enumeration (compute `Z`,
/// then walk the enumeration until the cumulative weight passes `u·Z`).
///
/// # Panics
///
/// Panics if the pinning is infeasible.
pub fn sample_exact<R: Rng + ?Sized>(
    model: &GibbsModel,
    pinning: &PartialConfig,
    rng: &mut R,
) -> Config {
    let z = partition_function(model, pinning);
    assert!(z > 0.0, "infeasible pinning has no samples");
    let target = rng.gen_range(0.0..z);
    let mut acc = 0.0;
    let mut out: Option<Config> = None;
    enumerate_feasible(model, pinning, |values, w| {
        if out.is_none() {
            acc += w;
            if acc > target {
                out = Some(Config::from_values(values.to_vec()));
            }
        }
    });
    out.expect("cumulative weight reaches Z")
}

/// Samples a value from a probability vector.
///
/// # Panics
///
/// Panics if the vector does not sum to something positive.
pub fn sample_from_marginal<R: Rng + ?Sized>(marginal: &[f64], rng: &mut R) -> Value {
    let total: f64 = marginal.iter().sum();
    assert!(total > 0.0, "marginal has no mass");
    let mut target = rng.gen_range(0.0..total);
    for (i, &p) in marginal.iter().enumerate() {
        if target < p {
            return Value::from_index(i);
        }
        target -= p;
    }
    // numerical fallthrough: return the last positive entry
    let last = marginal
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("positive entry exists");
    Value::from_index(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::hardcore;
    use crate::Factor;
    use lds_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hardcore_cycle4_partition_function() {
        let g = generators::cycle(4);
        let m = hardcore::model(&g, 1.0);
        let z = partition_function(&m, &PartialConfig::empty(4));
        // independent sets of C4: {}, 4 singletons, 2 opposite pairs
        assert!((z - 7.0).abs() < 1e-12);
        assert_eq!(
            joint_distribution(&m, &PartialConfig::empty(4))
                .unwrap()
                .len(),
            7
        );
    }

    #[test]
    fn hardcore_weighted_partition_function() {
        let g = generators::path(2);
        let m = hardcore::model(&g, 2.0);
        // Z = 1 + λ + λ = 5
        let z = partition_function(&m, &PartialConfig::empty(2));
        assert!((z - 5.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_partition_function() {
        let g = generators::cycle(4);
        let m = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(4);
        tau.pin(NodeId(0), Value(1));
        // configs with node 0 occupied: {0} and {0, 2}
        let z = partition_function(&m, &tau);
        assert!((z - 2.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_matches_hand_count() {
        let g = generators::cycle(4);
        let m = hardcore::model(&g, 1.0);
        let mu = marginal(&m, &PartialConfig::empty(4), NodeId(0)).unwrap();
        // node 0 occupied in {0} and {0,2}: 2 of 7
        assert!((mu[1] - 2.0 / 7.0).abs() < 1e-12);
        assert!((mu[0] - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_of_pinned_node_is_point_mass() {
        let g = generators::path(3);
        let m = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(3);
        tau.pin(NodeId(1), Value(1));
        let mu = marginal(&m, &tau, NodeId(1)).unwrap();
        assert_eq!(mu, vec![0.0, 1.0]);
        // neighbors are forced out
        let mu0 = marginal(&m, &tau, NodeId(0)).unwrap();
        assert_eq!(mu0, vec![1.0, 0.0]);
    }

    #[test]
    fn infeasible_pinning_detected() {
        let g = generators::path(2);
        let m = hardcore::model(&g, 1.0);
        let mut tau = PartialConfig::empty(2);
        tau.pin(NodeId(0), Value(1));
        tau.pin(NodeId(1), Value(1));
        assert!(!is_feasible(&m, &tau));
        assert!(marginal(&m, &tau, NodeId(0)).is_none());
        assert!(joint_distribution(&m, &tau).is_none());
        let mut ok = PartialConfig::empty(2);
        ok.pin(NodeId(0), Value(1));
        assert!(is_feasible(&m, &ok));
    }

    #[test]
    fn joint_distribution_sums_to_one() {
        let g = generators::cycle(5);
        let m = hardcore::model(&g, 1.5);
        let joint = joint_distribution(&m, &PartialConfig::empty(5)).unwrap();
        let total: f64 = joint.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // all configs are independent sets
        for (c, p) in &joint {
            assert!(*p > 0.0);
            assert!(m.weight(c) > 0.0);
        }
    }

    #[test]
    fn exact_sampler_matches_distribution() {
        let g = generators::cycle(4);
        let m = hardcore::model(&g, 1.0);
        let empty = PartialConfig::empty(4);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = std::collections::HashMap::new();
        let trials = 70_000usize;
        for _ in 0..trials {
            let c = sample_exact(&m, &empty, &mut rng);
            *counts.entry(format!("{c:?}")).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 7);
        for &c in counts.values() {
            let freq = c as f64 / trials as f64;
            assert!((freq - 1.0 / 7.0).abs() < 0.01, "freq={freq}");
        }
    }

    #[test]
    fn sample_from_marginal_respects_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = vec![0.0, 0.25, 0.75];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[sample_from_marginal(&m, &mut rng).index()] += 1;
        }
        assert_eq!(counts[0], 0);
        let f1 = counts[1] as f64 / 20_000.0;
        assert!((f1 - 0.25).abs() < 0.02);
    }

    #[test]
    fn soft_factors_enumerate_correctly() {
        // Ising-like chain of 2 nodes: w(equal)=2, w(diff)=1; Z = 2+1+1+2
        let g = generators::path(2);
        let f = Factor::binary(NodeId(0), NodeId(1), 2, vec![2.0, 1.0, 1.0, 2.0]);
        let m = GibbsModel::new(g, 2, vec![f]);
        let z = partition_function(&m, &PartialConfig::empty(2));
        assert!((z - 6.0).abs() < 1e-12);
        let mu = marginal(&m, &PartialConfig::empty(2), NodeId(0)).unwrap();
        assert!((mu[0] - 0.5).abs() < 1e-12);
    }
}
