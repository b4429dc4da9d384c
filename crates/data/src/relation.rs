//! Relations: finite sets of tuples with per-column indices.

use crate::tuple::{Tuple, Val};
use std::collections::{BTreeSet, HashMap};

/// Per-position value index: `index[pos][v]` lists the tuples carrying
/// value `v` at position `pos`.
type PositionIndex = Vec<HashMap<Val, Vec<Tuple>>>;

/// A relation `R^D ⊆ U(D)^{ar(R)}`: a set of facts of a fixed arity.
///
/// Tuples are kept in a sorted set (deterministic iteration) and an inverted
/// index `position → value → tuple positions` is maintained lazily to support
/// selections during joins and homomorphism search.
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Tuple>,
    /// Lazily built index: `index[pos]` maps a value to the tuples that carry
    /// that value at position `pos`. Invalidated on mutation. A `OnceLock`
    /// (rather than a `RefCell`) so that read-only relations stay `Sync` —
    /// the parallel runtime shares databases across worker threads, and the
    /// first thread to need the index builds it for everyone.
    index: std::sync::OnceLock<PositionIndex>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // the lazy index is cheap to rebuild; don't copy it
        Relation {
            arity: self.arity,
            tuples: self.tuples.clone(),
            index: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.tuples == other.tuples
    }
}
impl Eq for Relation {}

impl Relation {
    /// Create an empty relation with the given (positive) arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "relations must have positive arity");
        Relation {
            arity,
            tuples: BTreeSet::new(),
            index: std::sync::OnceLock::new(),
        }
    }

    /// The arity of the relation.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of facts `|R^D|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no facts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the tuple length does not match the arity (builders validate
    /// this earlier with a proper error).
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            t.arity(),
            self.arity
        );
        self.index = std::sync::OnceLock::new();
        self.tuples.insert(t)
    }

    /// Test membership of a tuple.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Test membership of a tuple given as a value slice.
    pub fn contains_values(&self, values: &[Val]) -> bool {
        if values.len() != self.arity {
            return false;
        }
        self.tuples.contains(&Tuple::new(values))
    }

    /// Iterate over all tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// All tuples carrying `value` at position `pos` (0-based), in sorted
    /// order.
    ///
    /// Builds the per-column index on first use.
    pub fn matching(&self, pos: usize, value: Val) -> &[Tuple] {
        assert!(pos < self.arity);
        self.ensure_index()[pos]
            .get(&value)
            .map_or(&[], Vec::as_slice)
    }

    /// The set of distinct values occurring at position `pos`.
    pub fn active_domain_at(&self, pos: usize) -> BTreeSet<Val> {
        assert!(pos < self.arity);
        self.tuples.iter().map(|t| t.get(pos)).collect()
    }

    /// The set of distinct values occurring anywhere in the relation.
    pub fn active_domain(&self) -> BTreeSet<Val> {
        self.tuples
            .iter()
            .flat_map(|t| t.values().iter().copied())
            .collect()
    }

    /// The complement of this relation with respect to `U^arity` where
    /// `U = {0, .., universe_size-1}`.
    ///
    /// This is used to materialise the negated relations `R̄^{B(ϕ,D)} =
    /// U(D)^{ar(R)} ∖ R^D` of Definition 20. The cost is `Θ(|U|^{ar})`,
    /// matching the `ν·|U(D)|^a` term of Observation 21.
    pub fn complement(&self, universe_size: usize) -> Relation {
        let mut out = Relation::new(self.arity);
        let mut current = vec![0u32; self.arity];
        loop {
            let tup = Tuple::from_raw(&current);
            if !self.tuples.contains(&tup) {
                out.insert(tup);
            }
            // advance odometer
            let mut i = self.arity;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                current[i] += 1;
                if (current[i] as usize) < universe_size {
                    break;
                }
                current[i] = 0;
                if i == 0 {
                    return out;
                }
            }
        }
    }

    /// Sum of tuple lengths, i.e. `|R^D| · ar(R)`; the per-relation
    /// contribution to `‖D‖`.
    pub fn encoding_size(&self) -> usize {
        self.len() * self.arity
    }

    fn ensure_index(&self) -> &PositionIndex {
        self.index.get_or_init(|| {
            let mut built: Vec<HashMap<Val, Vec<Tuple>>> = vec![HashMap::new(); self.arity];
            for t in &self.tuples {
                for (pos, v) in t.values().iter().enumerate() {
                    built[pos].entry(*v).or_default().push(t.clone());
                }
            }
            built
        })
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collect tuples into a relation; the arity is taken from the first
    /// tuple. Collecting an empty iterator panics (arity unknown) — use
    /// [`Relation::new`] for empty relations.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let first = it.peek().expect("cannot infer arity of an empty relation");
        let mut r = Relation::new(first.arity());
        for t in it {
            r.insert(t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(a, b) in pairs {
            r.insert(Tuple::from_raw(&[a, b]));
        }
        r
    }

    #[test]
    fn insert_and_contains() {
        let r = rel(&[(0, 1), (1, 2)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::from_raw(&[0, 1])));
        assert!(!r.contains(&Tuple::from_raw(&[1, 0])));
        assert!(r.contains_values(&[Val(1), Val(2)]));
        assert!(!r.contains_values(&[Val(1)]));
        assert!(!r.is_empty());
        assert_eq!(r.arity(), 2);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut r = Relation::new(1);
        assert!(r.insert(Tuple::from_raw(&[3])));
        assert!(!r.insert(Tuple::from_raw(&[3])));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::from_raw(&[1]));
    }

    #[test]
    fn matching_by_position() {
        let r = rel(&[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            r.matching(0, Val(0)),
            [Tuple::from_raw(&[0, 1]), Tuple::from_raw(&[0, 2])]
        );
        assert_eq!(r.matching(1, Val(2)).len(), 2);
        assert!(r.matching(1, Val(9)).is_empty());
    }

    #[test]
    fn matching_index_survives_mutation() {
        let mut r = rel(&[(0, 1)]);
        assert_eq!(r.matching(0, Val(0)).len(), 1);
        r.insert(Tuple::from_raw(&[0, 2]));
        // index must be rebuilt after mutation
        assert_eq!(r.matching(0, Val(0)).len(), 2);
    }

    #[test]
    fn active_domains() {
        let r = rel(&[(0, 1), (2, 1)]);
        assert_eq!(
            r.active_domain_at(0),
            [Val(0), Val(2)].into_iter().collect()
        );
        assert_eq!(r.active_domain_at(1), [Val(1)].into_iter().collect());
        assert_eq!(
            r.active_domain(),
            [Val(0), Val(1), Val(2)].into_iter().collect()
        );
    }

    #[test]
    fn complement_binary() {
        let r = rel(&[(0, 0), (1, 1)]);
        let c = r.complement(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&Tuple::from_raw(&[0, 1])));
        assert!(c.contains(&Tuple::from_raw(&[1, 0])));
        // complement of the complement is the original
        let cc = c.complement(2);
        assert_eq!(cc, r);
    }

    #[test]
    fn complement_unary_and_empty() {
        let mut r = Relation::new(1);
        r.insert(Tuple::from_raw(&[1]));
        let c = r.complement(3);
        assert_eq!(c.len(), 2);
        let empty = Relation::new(2);
        let c = empty.complement(3);
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn encoding_size() {
        let r = rel(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(r.encoding_size(), 6);
    }

    #[test]
    fn from_iterator() {
        let r: Relation = vec![Tuple::from_raw(&[1, 2]), Tuple::from_raw(&[3, 4])]
            .into_iter()
            .collect();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }
}
