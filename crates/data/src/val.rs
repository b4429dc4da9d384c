//! Universe elements.

use std::fmt;

/// A universe element of a relational structure.
///
/// Universe elements are dense identifiers `0..universe_size`. The paper's
/// universe `U(D)` is represented by the range of valid [`Val`]s of a
/// [`crate::Structure`]; a fact of a [`crate::Relation`] is a `&[Val]` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Val(pub u32);

impl Val {
    /// The underlying index as a `usize`, convenient for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Val {
    #[inline]
    fn from(v: u32) -> Self {
        Val(v)
    }
}

impl From<usize> for Val {
    #[inline]
    fn from(v: usize) -> Self {
        Val(v as u32)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_conversions() {
        let v: Val = 5usize.into();
        assert_eq!(v, Val(5));
        let v: Val = 7u32.into();
        assert_eq!(v.index(), 7);
        assert_eq!(format!("{v}"), "7");
    }
}
