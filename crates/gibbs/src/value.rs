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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_display() {
        assert_eq!(format!("{}", Value(5)), "#5");
        assert_eq!(format!("{:?}", Value(5)), "#5");
    }
}
