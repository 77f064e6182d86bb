use std::fmt;

use lds_graph::NodeId;

use crate::Value;

/// A full configuration `σ ∈ Σ^V`: one value per node.
///
/// # Example
///
/// ```
/// use lds_gibbs::{Config, Value};
/// use lds_graph::NodeId;
///
/// let mut c = Config::constant(3, Value(0));
/// c.set(NodeId(1), Value(1));
/// assert_eq!(c.get(NodeId(1)), Value(1));
/// assert_eq!(c.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Config {
    values: Vec<Value>,
}

impl Config {
    /// A configuration assigning `value` to every node of an `n`-node graph.
    pub fn constant(n: usize, value: Value) -> Self {
        Config {
            values: vec![value; n],
        }
    }

    /// Builds a configuration from a value vector.
    pub fn from_values(values: Vec<Value>) -> Self {
        Config { values }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the configuration covers zero nodes. Kept beside
    /// [`Config::len`], which clippy's `len_without_is_empty` requires.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn get(&self, v: NodeId) -> Value {
        self.values[v.index()]
    }

    /// Sets the value at node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn set(&mut self, v: NodeId, value: Value) {
        self.values[v.index()] = value;
    }

    /// The underlying value slice indexed by node id.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Config[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", v.0)?;
        }
        write!(f, "]")
    }
}

/// A partially specified configuration `τ ∈ Σ^Λ` on a subset `Λ ⊆ V` — the
/// *pinning* of an instance `(G, x, τ)` (paper, Definition 2.2).
///
/// Pinnings are how self-reducibility enters: fixing a feasible `τ` turns
/// `μ` into the conditional distribution `μ^τ` over the free nodes
/// (Remark 2.2).
///
/// # Example
///
/// ```
/// use lds_gibbs::{PartialConfig, Value};
/// use lds_graph::NodeId;
///
/// let mut tau = PartialConfig::empty(4);
/// tau.pin(NodeId(2), Value(1));
/// assert_eq!(tau.get(NodeId(2)), Some(Value(1)));
/// assert_eq!(tau.get(NodeId(0)), None);
/// assert_eq!(tau.pinned_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PartialConfig {
    values: Vec<Option<Value>>,
    pinned: usize,
}

impl PartialConfig {
    /// The empty pinning (`Λ = ∅`) over `n` nodes — always feasible by
    /// convention.
    pub fn empty(n: usize) -> Self {
        PartialConfig {
            values: vec![None; n],
            pinned: 0,
        }
    }

    /// Number of nodes (pinned or not).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the underlying node set is empty. Kept beside
    /// [`PartialConfig::len`], which clippy's `len_without_is_empty`
    /// requires.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of pinned nodes `|Λ|`.
    pub fn pinned_count(&self) -> usize {
        self.pinned
    }

    /// The pinned value at `v`, or `None` if `v` is free.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<Value> {
        self.values[v.index()]
    }

    /// Returns `true` if `v` is pinned.
    #[inline]
    pub fn is_pinned(&self, v: NodeId) -> bool {
        self.values[v.index()].is_some()
    }

    /// Pins node `v` to `value` (overwrites a previous pin).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn pin(&mut self, v: NodeId, value: Value) {
        if self.values[v.index()].is_none() {
            self.pinned += 1;
        }
        self.values[v.index()] = Some(value);
    }

    /// Removes the pin at `v` if present.
    pub fn unpin(&mut self, v: NodeId) {
        if self.values[v.index()].is_some() {
            self.pinned -= 1;
        }
        self.values[v.index()] = None;
    }

    /// Returns a copy with `v` additionally pinned to `value` — the
    /// self-reduction step `τ ∧ (v ← c)`.
    pub fn with_pin(&self, v: NodeId, value: Value) -> Self {
        let mut c = self.clone();
        c.pin(v, value);
        c
    }

    /// Iterator over `(node, value)` pairs of the pinned set `Λ`.
    pub fn pins(&self) -> impl Iterator<Item = (NodeId, Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|val| (NodeId::from_index(i), val)))
    }

    /// Iterator over the free (unpinned) nodes.
    pub(crate) fn free_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none())
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Converts a fully pinned partial configuration into a [`Config`].
    ///
    /// # Panics
    ///
    /// Panics if any node is free.
    pub fn to_config(&self) -> Config {
        Config {
            values: self
                .values
                .iter()
                .map(|v| v.expect("configuration is not complete"))
                .collect(),
        }
    }

    /// The set of nodes where both pinnings are defined but disagree
    /// (the set `D` of Definition 5.1, strong spatial mixing). Kept to
    /// state that definition; no served path computes it.
    pub fn disagreement(&self, other: &PartialConfig) -> Vec<NodeId> {
        assert_eq!(self.len(), other.len(), "pinning size mismatch");
        self.pins()
            .filter_map(|(v, val)| match other.get(v) {
                Some(o) if o != val => Some(v),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Debug for PartialConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pinning[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match v {
                Some(val) => write!(f, "{}", val.0)?,
                None => write!(f, "·")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_counts() {
        let mut p = PartialConfig::empty(3);
        assert_eq!(p.pinned_count(), 0);
        p.pin(NodeId(0), Value(1));
        p.pin(NodeId(0), Value(2)); // overwrite, count unchanged
        assert_eq!(p.pinned_count(), 1);
        assert_eq!(p.get(NodeId(0)), Some(Value(2)));
        p.unpin(NodeId(0));
        p.unpin(NodeId(0)); // double unpin is a no-op
        assert_eq!(p.pinned_count(), 0);
    }

    #[test]
    fn with_pin_does_not_mutate() {
        let p = PartialConfig::empty(2);
        let q = p.with_pin(NodeId(1), Value(0));
        assert_eq!(p.pinned_count(), 0);
        assert_eq!(q.pinned_count(), 1);
    }

    #[test]
    fn free_nodes_and_pins_partition() {
        let mut p = PartialConfig::empty(4);
        p.pin(NodeId(1), Value(0));
        p.pin(NodeId(3), Value(1));
        let free: Vec<NodeId> = p.free_nodes().collect();
        assert_eq!(free, vec![NodeId(0), NodeId(2)]);
        let pins: Vec<(NodeId, Value)> = p.pins().collect();
        assert_eq!(pins, vec![(NodeId(1), Value(0)), (NodeId(3), Value(1))]);
    }

    #[test]
    fn complete_roundtrip() {
        let c = Config::from_values(vec![Value(0), Value(1), Value(2)]);
        let mut p = PartialConfig::empty(c.len());
        for (i, &v) in c.values().iter().enumerate() {
            p.pin(NodeId::from_index(i), v);
        }
        assert_eq!(p.pinned_count(), c.len());
        assert_eq!(p.to_config(), c);
    }

    #[test]
    #[should_panic(expected = "not complete")]
    fn to_config_requires_complete() {
        let p = PartialConfig::empty(2);
        let _ = p.to_config();
    }

    #[test]
    fn consistency_and_disagreement() {
        let mut a = PartialConfig::empty(3);
        let mut b = PartialConfig::empty(3);
        a.pin(NodeId(0), Value(1));
        b.pin(NodeId(0), Value(1));
        b.pin(NodeId(2), Value(0));
        assert!(a.disagreement(&b).is_empty());
        assert!(b.disagreement(&a).is_empty());
        a.pin(NodeId(2), Value(1));
        assert_eq!(a.disagreement(&b), vec![NodeId(2)]);
        assert_eq!(b.disagreement(&a), vec![NodeId(2)]);
    }

    #[test]
    fn debug_formats() {
        let mut p = PartialConfig::empty(2);
        p.pin(NodeId(1), Value(3));
        assert_eq!(format!("{p:?}"), "Pinning[· 3]");
        let c = Config::from_values(vec![Value(0), Value(1)]);
        assert_eq!(format!("{c:?}"), "Config[0 1]");
    }
}
