//! Relations: immutable sorted rows with an eager per-column index.

use crate::val::Val;

/// A relation `R^D ⊆ U(D)^{ar(R)}`: a set of facts of a fixed arity, built
/// once by [`Relation::new`] and never modified.
///
/// The rows are stored row-major in one `Vec<Val>`, sorted lexicographically
/// and without duplicates, so iteration is in lexicographic order and
/// membership is a binary search. For every column `c ≥ 1` the relation also
/// keeps the row ids ordered by (value at `c`, row id), so
/// [`Relation::matching`] is a binary search on any column. Column 0 needs no
/// such list (it is the sort order), and a unary relation has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    values: Vec<Val>,
    /// `by_column[c - 1]` lists the row ids sorted by their value at column
    /// `c`, ties in row order.
    by_column: Vec<Vec<u32>>,
}

impl Relation {
    /// Build a relation of the given (positive) arity from row-major
    /// `values`: row `i` is `values[i·arity .. (i+1)·arity]`. Rows may come
    /// in any order and repeat; they are sorted and deduplicated here, and
    /// the column index is built here, once.
    ///
    /// # Panics
    /// Panics if `arity` is zero or `values.len()` is not a multiple of it
    /// (builders validate facts earlier with a proper error).
    pub fn new(arity: usize, mut values: Vec<Val>) -> Self {
        assert!(arity > 0, "relations must have positive arity");
        assert_eq!(
            values.len() % arity,
            0,
            "{} values do not form rows of arity {arity}",
            values.len()
        );
        let rows = values.len() / arity;
        assert!(u32::try_from(rows).is_ok(), "too many rows for u32 row ids");
        let row = |i: usize| &values[i * arity..(i + 1) * arity];
        if !(1..rows).all(|i| row(i - 1) < row(i)) {
            let mut order: Vec<usize> = (0..rows).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|a, b| row(*a) == row(*b));
            values = order.iter().flat_map(|&i| row(i)).copied().collect();
        }
        values.shrink_to_fit();
        let rows = values.len() / arity;
        let by_column = (1..arity)
            .map(|c| {
                let mut ids: Vec<u32> = (0..rows as u32).collect();
                ids.sort_unstable_by_key(|&id| (values[id as usize * arity + c], id));
                ids
            })
            .collect();
        Relation {
            arity,
            values,
            by_column,
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
        self.values.len() / self.arity
    }

    /// Whether the relation holds no facts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Test membership of a row (a binary search; a row of the wrong length
    /// is never a member).
    pub fn contains(&self, row: &[Val]) -> bool {
        if row.len() != self.arity {
            return false;
        }
        let at = partition_point(self.len(), |i| self.row(i) < row);
        at < self.len() && self.row(at) == row
    }

    /// Iterate over all rows in lexicographic order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Val]> + '_ {
        self.values.chunks_exact(self.arity)
    }

    /// All rows carrying `value` at position `pos` (0-based), in
    /// lexicographic order.
    pub fn matching(&self, pos: usize, value: Val) -> impl ExactSizeIterator<Item = &[Val]> + '_ {
        assert!(pos < self.arity);
        // the k-th row in column `pos` order
        let ids = pos.checked_sub(1).map(|c| self.by_column[c].as_slice());
        let nth = move |k: usize| self.row(ids.map_or(k, |ids| ids[k] as usize));
        let start = partition_point(self.len(), |k| nth(k)[pos] < value);
        let end = start + partition_point(self.len() - start, |k| nth(start + k)[pos] <= value);
        (start..end).map(nth)
    }

    /// The complement of this relation with respect to `U^arity` where
    /// `U = {0, .., universe_size-1}`; empty when the universe is.
    ///
    /// This is used to materialise the negated relations `R̄^{B(ϕ,D)} =
    /// U(D)^{ar(R)} ∖ R^D` of Definition 20. The cost is `Θ(|U|^{ar})`,
    /// matching the `ν·|U(D)|^a` term of Observation 21.
    pub fn complement(&self, universe_size: usize) -> Relation {
        let total = universe_size.saturating_pow(self.arity as u32);
        let mut values =
            Vec::with_capacity(total.saturating_sub(self.len()).saturating_mul(self.arity));
        if universe_size > 0 {
            // Walk U^arity in lexicographic order alongside the sorted rows.
            let mut current = vec![Val(0); self.arity];
            let mut next_row = 0;
            loop {
                while next_row < self.len() && self.row(next_row) < current.as_slice() {
                    next_row += 1;
                }
                if next_row == self.len() || self.row(next_row) != current.as_slice() {
                    values.extend_from_slice(&current);
                }
                // advance the odometer
                let Some(i) = (0..self.arity).rfind(|&i| current[i].index() + 1 < universe_size)
                else {
                    break;
                };
                current[i].0 += 1;
                current[i + 1..].fill(Val(0));
            }
        }
        Relation::new(self.arity, values)
    }

    /// Sum of tuple lengths, i.e. `|R^D| · ar(R)`; the per-relation
    /// contribution to `‖D‖`.
    pub fn encoding_size(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn row(&self, i: usize) -> &[Val] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }
}

/// The first `k < len` for which `below(k)` fails, where `below` holds on a
/// prefix of `0..len` (a binary search).
fn partition_point(len: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: &[(u32, u32)]) -> Relation {
        let values = pairs.iter().flat_map(|&(a, b)| [Val(a), Val(b)]).collect();
        Relation::new(2, values)
    }

    #[test]
    fn new_and_contains() {
        let r = rel(&[(1, 2), (0, 1)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Val(0), Val(1)]));
        assert!(!r.contains(&[Val(1), Val(0)]));
        assert!(r.contains(&[Val(1), Val(2)]));
        assert!(!r.contains(&[Val(1)]));
        assert!(!r.is_empty());
        assert_eq!(r.arity(), 2);
        let rows: Vec<&[Val]> = r.iter().collect();
        assert_eq!(rows, [[Val(0), Val(1)], [Val(1), Val(2)]]);
    }

    #[test]
    fn duplicate_rows_collapse() {
        let r = Relation::new(1, vec![Val(3), Val(1), Val(3)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter().collect::<Vec<_>>(), [[Val(1)], [Val(3)]]);
    }

    #[test]
    #[should_panic(expected = "do not form rows")]
    fn ragged_values_panic() {
        Relation::new(2, vec![Val(1)]);
    }

    #[test]
    fn matching_by_position() {
        let r = rel(&[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            r.matching(0, Val(0)).collect::<Vec<_>>(),
            [[Val(0), Val(1)], [Val(0), Val(2)]]
        );
        assert_eq!(
            r.matching(1, Val(2)).collect::<Vec<_>>(),
            [[Val(0), Val(2)], [Val(1), Val(2)]]
        );
        assert_eq!(r.matching(1, Val(2)).len(), 2);
        assert_eq!(r.matching(1, Val(9)).len(), 0);
    }

    #[test]
    fn complement_binary() {
        let r = rel(&[(0, 0), (1, 1)]);
        let c = r.complement(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&[Val(0), Val(1)]));
        assert!(c.contains(&[Val(1), Val(0)]));
        // complement of the complement is the original
        let cc = c.complement(2);
        assert_eq!(cc, r);
    }

    #[test]
    fn complement_unary_and_empty() {
        let r = Relation::new(1, vec![Val(1)]);
        let c = r.complement(3);
        assert_eq!(c.len(), 2);
        let empty = Relation::new(2, Vec::new());
        let c = empty.complement(3);
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn complement_over_the_empty_universe_is_empty() {
        for arity in 1..=3 {
            assert!(Relation::new(arity, Vec::new()).complement(0).is_empty());
        }
    }

    #[test]
    fn encoding_size() {
        let r = rel(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(r.encoding_size(), 6);
    }
}
