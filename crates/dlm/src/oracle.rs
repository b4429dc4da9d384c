//! The `EdgeFree` oracle interface.

use std::collections::BTreeSet;

/// A decision oracle for an `ℓ`-partite `ℓ`-uniform hypergraph `H` whose
/// vertex classes are `U₀, …, U_{ℓ−1}` (Definition 24 instantiates this with
/// `U_i = U(D) × {i}`).
///
/// The only access to the hyperedge set is [`EdgeFreeOracle::edge_free`]:
/// given per-class subsets `V_i ⊆ U_i`, report whether `H[V₀, …, V_{ℓ−1}]`
/// has **no** hyperedge. This mirrors the access model of Theorem 17,
/// restricted to *class-aligned* subsets: the "most important case"
/// identified in the proof of Lemma 22, and the only queries the edge
/// counter issues (the proof recovers general ℓ-partite queries from them
/// with `ℓ!` class-aligned calls, which the counter never needs).
pub trait EdgeFreeOracle {
    /// The number of vertex classes `ℓ`.
    fn num_classes(&self) -> usize;

    /// The size of class `i` (`|U_i|`).
    fn class_size(&self, i: usize) -> usize;

    /// Does `H[V₀, …, V_{ℓ−1}]` contain **no** hyperedge?
    /// `parts[i] ⊆ {0, .., class_size(i) − 1}`.
    fn edge_free(&mut self, parts: &[BTreeSet<usize>]) -> bool;

    /// Number of oracle queries answered so far (for experiment reporting).
    fn calls(&self) -> u64 {
        0
    }
}

/// A wrapper that counts oracle calls made through it.
pub struct CountingOracle<O> {
    inner: O,
    calls: u64,
}

impl<O: EdgeFreeOracle> CountingOracle<O> {
    /// Wrap an oracle.
    pub fn new(inner: O) -> Self {
        CountingOracle { inner, calls: 0 }
    }

    /// The wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: EdgeFreeOracle> EdgeFreeOracle for CountingOracle<O> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn class_size(&self, i: usize) -> usize {
        self.inner.class_size(i)
    }
    fn edge_free(&mut self, parts: &[BTreeSet<usize>]) -> bool {
        self.calls += 1;
        self.inner.edge_free(parts)
    }
    fn calls(&self) -> u64 {
        self.calls
    }
}

impl<O: EdgeFreeOracle + ?Sized> EdgeFreeOracle for &mut O {
    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }
    fn class_size(&self, i: usize) -> usize {
        (**self).class_size(i)
    }
    fn edge_free(&mut self, parts: &[BTreeSet<usize>]) -> bool {
        (**self).edge_free(parts)
    }
    fn calls(&self) -> u64 {
        (**self).calls()
    }
}

/// Convenience: the full per-class subsets (no restriction).
pub fn full_parts<O: EdgeFreeOracle>(oracle: &O) -> Vec<BTreeSet<usize>> {
    (0..oracle.num_classes())
        .map(|i| (0..oracle.class_size(i)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitHypergraph;

    #[test]
    fn counting_oracle_counts() {
        let h = ExplicitHypergraph::new(vec![2, 2], vec![vec![0, 0], vec![1, 1]]);
        let mut o = CountingOracle::new(h);
        let parts = full_parts(&o);
        assert!(!o.edge_free(&parts));
        assert!(!o.edge_free(&parts));
        assert_eq!(o.calls(), 2);
        assert_eq!(o.num_classes(), 2);
        assert_eq!(o.class_size(0), 2);
    }
}
