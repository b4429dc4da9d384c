//! Universe elements and tuples (facts).

use std::fmt;

/// A universe element of a relational structure.
///
/// Universe elements are dense identifiers `0..universe_size`. The paper's
/// universe `U(D)` is represented by the range of valid [`Val`]s of a
/// [`crate::Structure`].
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

/// A tuple (fact) of a relation: a fixed-length sequence of universe elements.
///
/// Tuples are stored as boxed slices to keep [`crate::Relation`] compact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(pub Box<[Val]>);

impl Tuple {
    /// Create a tuple from a slice of values.
    pub fn new(values: &[Val]) -> Self {
        Tuple(values.to_vec().into_boxed_slice())
    }

    /// Create a tuple from raw `u32` values.
    pub fn from_raw(values: &[u32]) -> Self {
        Tuple(values.iter().map(|&v| Val(v)).collect())
    }

    /// The arity (length) of the tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values of the tuple.
    #[inline]
    pub fn values(&self) -> &[Val] {
        &self.0
    }

    /// The value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Val {
        self.0[i]
    }
}

impl From<Vec<Val>> for Tuple {
    fn from(v: Vec<Val>) -> Self {
        Tuple(v.into_boxed_slice())
    }
}

impl From<&[Val]> for Tuple {
    fn from(v: &[Val]) -> Self {
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::from_raw(&[1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Val(1));
        assert_eq!(t.get(2), Val(3));
        assert_eq!(t.values(), &[Val(1), Val(2), Val(3)]);
        assert_eq!(format!("{t}"), "(1,2,3)");
    }

    #[test]
    fn val_conversions() {
        let v: Val = 5usize.into();
        assert_eq!(v, Val(5));
        let v: Val = 7u32.into();
        assert_eq!(v.index(), 7);
        assert_eq!(format!("{v}"), "7");
    }

    #[test]
    fn tuple_ordering_is_lexicographic() {
        let a = Tuple::from_raw(&[1, 2]);
        let b = Tuple::from_raw(&[1, 3]);
        let c = Tuple::from_raw(&[2, 0]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn tuple_from_vec_and_slice() {
        let vals = vec![Val(0), Val(9)];
        let t1: Tuple = vals.clone().into();
        let t2: Tuple = vals.as_slice().into();
        assert_eq!(t1, t2);
    }
}
