//! The crate's one tree-decomposition dynamic program, and exact
//! homomorphism counting on it (Dalmau–Jonsson).
//!
//! For each bag, in postorder, the locally consistent assignments are
//! computed ([`crate::bag_solutions()`]) and joined with the children's
//! tables on the shared variables. The pass is generic over the row weight:
//! a saturating `u128` counts the extensions of each row into its subtree
//! ([`count_homomorphisms`]), while `()` only keeps the extendable rows,
//! which is the decision of Theorem 31 ([`crate::DecompositionDecider`]).
//! The running time is `poly(‖A‖, ‖B‖) · |U(B)|^{w+1}` for a decomposition
//! of width `w`.
//!
//! Counting is used as an exact baseline in experiments (counting answers
//! of quantifier-free queries reduces to counting homomorphisms) and as a
//! ground truth in tests.

use crate::bag_solutions::bag_solutions;
use crate::instance::HomInstance;
use cqc_data::{Structure, Val};
use cqc_hypergraph::treewidth::{treewidth_exact, treewidth_upper_bound};
use cqc_hypergraph::TreeDecomposition;
use std::collections::HashMap;

/// Patterns with at most this many elements get an exact minimum-width
/// decomposition; larger ones a min-fill / min-degree heuristic one.
const EXACT_TREEWIDTH_LIMIT: usize = 13;

/// A tree decomposition of the pattern hypergraph of `inst`.
pub(crate) fn decompose(inst: &HomInstance<'_>) -> TreeDecomposition {
    let h = inst.pattern_hypergraph();
    if h.num_vertices() <= EXACT_TREEWIDTH_LIMIT {
        treewidth_exact(&h).1
    } else {
        treewidth_upper_bound(&h).1
    }
}

/// The weight the dynamic program attaches to a bag assignment.
pub(crate) trait Weight: Copy {
    /// The weight of a row with no children to join.
    const ONE: Self;
    /// Combine the weights of child rows with the same projection.
    fn plus(self, other: Self) -> Self;
    /// Combine a row's weight with a matching child group's weight.
    fn times(self, other: Self) -> Self;
}

/// Extension counts. They saturate, so a sum is `min(u128::MAX, Σ)`
/// whatever the order of its terms.
impl Weight for u128 {
    const ONE: Self = 1;
    fn plus(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn times(self, other: Self) -> Self {
        self.saturating_mul(other)
    }
}

/// Existence only.
impl Weight for () {
    const ONE: Self = ();
    fn plus(self, _: Self) -> Self {}
    fn times(self, _: Self) -> Self {}
}

/// Run the dynamic program over `td`, a tree decomposition of the pattern
/// hypergraph of `inst`. Returns the sum of the root table's weights, or
/// `None` when there is no homomorphism (it stops at the first empty table,
/// since an empty table empties every table above it).
pub(crate) fn tree_dp<W: Weight>(inst: &HomInstance<'_>, td: &TreeDecomposition) -> Option<W> {
    if inst.num_vars() == 0 {
        return Some(W::ONE);
    }
    let domains = inst.initial_domains();
    if domains.iter().any(Vec::is_empty) {
        return None;
    }
    // tables[t]: bag assignments of t (bag order = sorted vertex order, rows
    // in descent order) that extend into the subtree below t, with weights.
    let mut tables: Vec<Vec<(Vec<Val>, W)>> = vec![Vec::new(); td.num_nodes()];
    for t in td.postorder() {
        let bag: Vec<usize> = td.bag(t).iter().copied().collect();
        // Each child's table grouped by its projection onto the shared
        // variables; the maps are only queried, never iterated.
        let groups: Vec<_> = td
            .children(t)
            .iter()
            .map(|&c| {
                let child_bag = td.bag(c);
                let (bag_pos, child_pos): (Vec<usize>, Vec<usize>) = bag
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| child_bag.iter().position(|x| x == v).map(|j| (i, j)))
                    .unzip();
                let mut grouped: HashMap<Vec<Val>, W> = HashMap::new();
                for (beta, w) in std::mem::take(&mut tables[c]) {
                    let key = child_pos.iter().map(|&p| beta[p]).collect();
                    grouped
                        .entry(key)
                        .and_modify(|acc| *acc = acc.plus(w))
                        .or_insert(w);
                }
                (bag_pos, grouped)
            })
            .collect();
        let table: Vec<(Vec<Val>, W)> = bag_solutions(inst, &bag, &domains)
            .into_iter()
            .filter_map(|alpha| {
                let mut w = W::ONE;
                for (bag_pos, grouped) in &groups {
                    let key: Vec<Val> = bag_pos.iter().map(|&p| alpha[p]).collect();
                    w = w.times(*grouped.get(&key)?);
                }
                Some((alpha, w))
            })
            .collect();
        if table.is_empty() {
            return None;
        }
        tables[t] = table;
    }
    tables[td.root()].iter().map(|&(_, w)| w).reduce(W::plus)
}

/// Count the homomorphisms from `A` to `B` exactly.
///
/// The pattern's tree decomposition is computed exactly for up to 13 elements
/// and heuristically beyond; either way the count is exact (the decomposition
/// quality only affects running time).
pub fn count_homomorphisms(a: &Structure, b: &Structure) -> u128 {
    let inst = HomInstance::new(a, b);
    tree_dp::<u128>(&inst, &decompose(&inst)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtracking::BacktrackingDecider;
    use cqc_data::StructureBuilder;

    fn path_pattern(k: usize) -> Structure {
        let mut b = StructureBuilder::new(k + 1);
        b.relation("E", 2);
        for i in 0..k {
            b.fact("E", &[i as u32, (i + 1) as u32]).unwrap();
        }
        b.build()
    }

    fn clique_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    b.fact("E", &[i, j]).unwrap();
                }
            }
        }
        b.build()
    }

    fn cycle_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n {
            b.fact("E", &[i as u32, ((i + 1) % n) as u32]).unwrap();
        }
        b.build()
    }

    #[test]
    fn counts_edges_into_cliques() {
        // homs from one edge into K_n: n(n-1)
        for n in 2..6usize {
            assert_eq!(
                count_homomorphisms(&path_pattern(1), &clique_graph(n)),
                (n * (n - 1)) as u128
            );
        }
    }

    #[test]
    fn counts_paths_into_cliques() {
        // homs from a path with k edges into K_n: n(n-1)^k
        for (k, n) in [(2usize, 3usize), (3, 3), (2, 4), (4, 3)] {
            let expected = (n as u128) * ((n - 1) as u128).pow(k as u32);
            assert_eq!(
                count_homomorphisms(&path_pattern(k), &clique_graph(n)),
                expected
            );
        }
    }

    #[test]
    fn counts_paths_into_directed_cycles() {
        // A directed cycle has exactly n homs from a directed path (start anywhere).
        for (k, n) in [(2usize, 4usize), (3, 5), (5, 3)] {
            assert_eq!(
                count_homomorphisms(&path_pattern(k), &cycle_graph(n)),
                n as u128
            );
        }
    }

    #[test]
    fn count_zero_when_no_hom_exists() {
        assert_eq!(count_homomorphisms(&cycle_graph(5), &cycle_graph(4)), 0);
        assert_eq!(count_homomorphisms(&clique_graph(4), &clique_graph(3)), 0);
    }

    #[test]
    fn count_matches_enumeration_on_small_instances() {
        let bt = BacktrackingDecider::new();
        let patterns = vec![path_pattern(2), cycle_graph(3), cycle_graph(4)];
        let targets = vec![clique_graph(3), cycle_graph(4), cycle_graph(6)];
        for a in &patterns {
            for b in &targets {
                let expected = bt.enumerate(a, b).len() as u128;
                assert_eq!(count_homomorphisms(a, b), expected);
            }
        }
    }

    #[test]
    fn empty_pattern_counts_one() {
        let a = StructureBuilder::new(0).build();
        assert_eq!(count_homomorphisms(&a, &clique_graph(3)), 1);
    }

    #[test]
    fn isolated_pattern_elements_multiply_by_universe() {
        // pattern: one edge plus one isolated element
        let mut ab = StructureBuilder::new(3);
        ab.relation("E", 2);
        ab.fact("E", &[0, 1]).unwrap();
        let a = ab.build();
        let b = clique_graph(3);
        // 6 homs for the edge × 3 choices for the isolated element
        assert_eq!(count_homomorphisms(&a, &b), 18);
    }

    #[test]
    fn disconnected_pattern_counts_multiply() {
        // two independent edges into K3: 6 * 6 = 36
        let mut ab = StructureBuilder::new(4);
        ab.relation("E", 2);
        ab.fact("E", &[0, 1]).unwrap();
        ab.fact("E", &[2, 3]).unwrap();
        let a = ab.build();
        assert_eq!(count_homomorphisms(&a, &clique_graph(3)), 36);
    }
}
