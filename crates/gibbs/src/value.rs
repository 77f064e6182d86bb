use std::fmt;

/// A value (spin/color/occupation) from an alphabet `Σ`, stored as a dense
/// index `0..q`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u32);

impl Value {
    /// Returns the value as a `usize` index into the alphabet.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a value from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Value(u32::try_from(index).expect("value index exceeds u32::MAX"))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An alphabet `Σ` of size `q`, with the paper's standing assumption
/// `q = |Σ| ≤ poly(n)`.
///
/// # Example
///
/// ```
/// use lds_gibbs::{Alphabet, Value};
/// let colors = Alphabet::new(3);
/// assert_eq!(colors.size(), 3);
/// assert!(colors.contains(Value(2)));
/// assert!(!colors.contains(Value(3)));
/// let all: Vec<Value> = colors.values().collect();
/// assert_eq!(all.len(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Alphabet {
    q: usize,
}

impl Alphabet {
    /// Creates an alphabet of size `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q > 0, "alphabet must be nonempty");
        Alphabet { q }
    }

    /// Alphabet size `q = |Σ|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.q
    }

    /// Returns `true` if `v` is a member of the alphabet.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        v.index() < self.q
    }

    /// Iterator over all values of the alphabet.
    pub fn values(&self) -> impl Iterator<Item = Value> + Clone {
        (0..self.q).map(Value::from_index)
    }
}

/// The occupation value `1` of spin systems (occupied / in the independent
/// set / in the matching).
pub const OCCUPIED: Value = Value(1);

/// The vacancy value `0` of spin systems.
pub const EMPTY: Value = Value(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_membership() {
        let a = Alphabet::new(4);
        assert!(a.contains(Value(0)));
        assert!(a.contains(Value(3)));
        assert!(!a.contains(Value(4)));
    }

    #[test]
    fn binary_alphabet() {
        // spin systems use {0, 1}: 0 = unoccupied / minus, 1 = occupied / plus
        let b = Alphabet::new(2);
        assert_eq!(b.size(), 2);
        assert!(b.contains(OCCUPIED));
        assert!(b.contains(EMPTY));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn rejects_empty_alphabet() {
        let _ = Alphabet::new(0);
    }

    #[test]
    fn values_iterates_all() {
        let a = Alphabet::new(3);
        let vals: Vec<Value> = a.values().collect();
        assert_eq!(vals, vec![Value(0), Value(1), Value(2)]);
    }

    #[test]
    fn value_display() {
        assert_eq!(format!("{}", Value(5)), "#5");
        assert_eq!(format!("{:?}", Value(5)), "#5");
    }
}
