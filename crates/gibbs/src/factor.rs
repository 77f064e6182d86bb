use std::fmt;

use lds_graph::NodeId;

use crate::Value;

/// A constraint `(f, S)` of a Gibbs distribution (paper, Definition 2.3):
/// a nonnegative function `f : Σ^S → R≥0` on a scope `S ⊆ V`, stored as a
/// dense row-major table.
///
/// The table index of an assignment `(c_0, ..., c_{k-1})` to the scope
/// `(s_0, ..., s_{k-1})` is `((c_0 · q + c_1) · q + c_2) · q + ...`, i.e.
/// the first scope node varies slowest.
///
/// A factor is *soft* if strictly positive everywhere, otherwise *hard*.
///
/// # Example
///
/// ```
/// use lds_gibbs::{Factor, Value};
/// use lds_graph::NodeId;
///
/// // hardcore edge constraint: forbid both endpoints occupied
/// let f = Factor::new(vec![NodeId(0), NodeId(1)], 2,
///                     vec![1.0, 1.0, 1.0, 0.0]);
/// assert!(f.is_hard());
/// assert_eq!(f.eval(&[Value(1), Value(1)]), 0.0);
/// assert_eq!(f.eval(&[Value(1), Value(0)]), 1.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Factor {
    scope: Vec<NodeId>,
    q: usize,
    table: Vec<f64>,
}

impl Factor {
    /// Creates a factor over `scope` with alphabet size `q` and the given
    /// dense `table` of length `q^|scope|`.
    ///
    /// # Panics
    ///
    /// Panics if the table length is not `q^|scope|`, if any entry is
    /// negative or non-finite, or if the scope contains duplicates.
    pub fn new(scope: Vec<NodeId>, q: usize, table: Vec<f64>) -> Self {
        let expect = q
            .checked_pow(u32::try_from(scope.len()).expect("scope too large"))
            .expect("table size overflow");
        assert_eq!(
            table.len(),
            expect,
            "table length {} != q^|S| = {}",
            table.len(),
            expect
        );
        assert!(
            table.iter().all(|&x| x.is_finite() && x >= 0.0),
            "factor entries must be finite and nonnegative"
        );
        let mut sorted = scope.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), scope.len(), "scope contains duplicates");
        Factor { scope, q, table }
    }

    /// A unary factor (vertex activity) on node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != q` (with `q` inferred from the length)
    /// — i.e. never; the length *defines* `q`. Panics on negative entries.
    pub(crate) fn unary(v: NodeId, weights: Vec<f64>) -> Self {
        let q = weights.len();
        Factor::new(vec![v], q, weights)
    }

    /// A binary factor on the edge `{u, v}` from a `q × q` matrix in
    /// row-major order (`row` = value of `u`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `q × q` or has negative entries.
    pub fn binary(u: NodeId, v: NodeId, q: usize, matrix: Vec<f64>) -> Self {
        Factor::new(vec![u, v], q, matrix)
    }

    /// The scope `S` of the factor, in table order.
    pub fn scope(&self) -> &[NodeId] {
        &self.scope
    }

    /// Alphabet size the table is defined over.
    pub(crate) fn alphabet_size(&self) -> usize {
        self.q
    }

    /// Evaluates the factor on an assignment to its scope (in scope order).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != |S|` or any value is out of range.
    pub fn eval(&self, assignment: &[Value]) -> f64 {
        assert_eq!(assignment.len(), self.scope.len(), "assignment arity");
        let mut idx = 0usize;
        for &v in assignment {
            debug_assert!(v.index() < self.q, "value {v:?} out of range");
            idx = idx * self.q + v.index();
        }
        self.table[idx]
    }

    /// Evaluates the factor on a full or partial assignment indexed by
    /// node id; returns `None` if some scope node is unassigned.
    pub fn eval_partial(&self, get: impl Fn(NodeId) -> Option<Value>) -> Option<f64> {
        let mut idx = 0usize;
        for &s in &self.scope {
            idx = idx * self.q + get(s)?.index();
        }
        Some(self.table[idx])
    }

    /// Returns `true` if the factor is hard (takes the value 0 somewhere).
    pub fn is_hard(&self) -> bool {
        self.table.contains(&0.0)
    }

    /// Remaps scope node ids through `f` (used when restricting a model to
    /// a subgraph with local ids).
    ///
    /// # Panics
    ///
    /// Panics if `f` returns `None` for a scope node.
    pub(crate) fn remap(&self, f: impl Fn(NodeId) -> Option<NodeId>) -> Factor {
        Factor {
            scope: self
                .scope
                .iter()
                .map(|&s| f(s).expect("scope node missing from remap"))
                .collect(),
            q: self.q,
            table: self.table.clone(),
        }
    }
}

impl fmt::Debug for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Factor")
            .field("scope", &self.scope)
            .field("q", &self.q)
            .field("hard", &self.is_hard())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_and_binary_shapes() {
        let u = Factor::unary(NodeId(3), vec![1.0, 0.5]);
        assert_eq!(u.scope(), &[NodeId(3)]);
        assert_eq!(u.eval(&[Value(1)]), 0.5);
        assert!(!u.is_hard());

        let b = Factor::binary(NodeId(0), NodeId(1), 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.eval(&[Value(0), Value(1)]), 2.0);
        assert_eq!(b.eval(&[Value(1), Value(0)]), 3.0);
    }

    #[test]
    fn eval_partial_requires_full_scope() {
        let b = Factor::binary(NodeId(0), NodeId(1), 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.eval_partial(|_| Some(Value(1))), Some(4.0));
        assert_eq!(
            b.eval_partial(|v| (v == NodeId(0)).then_some(Value(0))),
            None
        );
    }

    #[test]
    fn remap_renames_scope() {
        let b = Factor::binary(NodeId(5), NodeId(9), 2, vec![1.0, 1.0, 1.0, 0.0]);
        let r = b.remap(|v| Some(NodeId(v.0 - 5)));
        assert_eq!(r.scope(), &[NodeId(0), NodeId(4)]);
        assert_eq!(r.eval(&[Value(1), Value(1)]), 0.0);
    }

    #[test]
    #[should_panic(expected = "table length")]
    fn rejects_bad_table_size() {
        let _ = Factor::new(vec![NodeId(0)], 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_negative_entries() {
        let _ = Factor::unary(NodeId(0), vec![1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn rejects_duplicate_scope() {
        let _ = Factor::new(vec![NodeId(0), NodeId(0)], 2, vec![1.0; 4]);
    }
}
