//! Integral edge covers and hypertreewidth (Definition 37).
//!
//! A hypertree decomposition `(T, B, Γ)` augments a tree decomposition with a
//! *guard* `Γ_t ⊆ E(H)` per node such that `B_t ⊆ ∪ Γ_t`; its width is the
//! maximum guard cardinality. We compute guards per bag as minimum edge
//! covers of the bag (exact branch-and-bound for small bags, greedy set cover
//! otherwise). This yields the *generalised* hypertreewidth of a given tree
//! decomposition, which coincides with hypertreewidth up to a constant factor
//! and is the quantity relevant for all algorithmic uses in this repository
//! (the special condition (iv) of Definition 37 only matters for
//! polynomial-time *computability* of the decomposition, which we sidestep by
//! searching decompositions directly; see `docs/ARCHITECTURE.md`,
//! Substitutions).

use crate::decomposition::TreeDecomposition;
use crate::hypergraph::Hypergraph;
use std::collections::BTreeSet;

/// Minimum number of hyperedges of `H` needed to cover the set `x`
/// (`None` if some vertex of `x` appears in no hyperedge).
///
/// Uses exact branch-and-bound when the number of *relevant* edges is at most
/// 20, greedy set cover otherwise (greedy is a `ln|x|`-approximation, which
/// only ever over-estimates the width — safe for upper bounds).
pub fn integral_cover_number(h: &Hypergraph, x: &BTreeSet<usize>) -> Option<usize> {
    if x.is_empty() {
        return Some(0);
    }
    // Relevant edges, restricted to x, de-duplicated and maximal-only.
    let mut restricted: Vec<BTreeSet<usize>> = h
        .edges()
        .iter()
        .map(|e| e.intersection(x).copied().collect::<BTreeSet<usize>>())
        .filter(|e| !e.is_empty())
        .collect();
    restricted.sort();
    restricted.dedup();
    // Remove edges strictly contained in another (never needed in a minimum cover).
    let maximal: Vec<BTreeSet<usize>> = restricted
        .iter()
        .filter(|e| {
            !restricted
                .iter()
                .any(|f| f.len() > e.len() && e.is_subset(f))
        })
        .cloned()
        .collect();
    // Feasibility.
    let covered: BTreeSet<usize> = maximal.iter().flatten().copied().collect();
    if !x.is_subset(&covered) {
        return None;
    }
    if maximal.len() <= 20 {
        Some(exact_cover(&maximal, x))
    } else {
        Some(greedy_cover(&maximal, x))
    }
}

fn greedy_cover(edges: &[BTreeSet<usize>], x: &BTreeSet<usize>) -> usize {
    let mut uncovered: BTreeSet<usize> = x.clone();
    let mut count = 0;
    while !uncovered.is_empty() {
        let best = edges
            .iter()
            .max_by_key(|e| e.intersection(&uncovered).count())
            .expect("edges remain");
        let gain = best.intersection(&uncovered).count();
        debug_assert!(gain > 0);
        for v in best {
            uncovered.remove(v);
        }
        count += 1;
    }
    count
}

fn exact_cover(edges: &[BTreeSet<usize>], x: &BTreeSet<usize>) -> usize {
    // Branch and bound on the uncovered vertex with fewest covering edges.
    let greedy = greedy_cover(edges, x);
    let mut best = greedy;
    fn recurse(
        edges: &[BTreeSet<usize>],
        uncovered: &BTreeSet<usize>,
        used: usize,
        best: &mut usize,
    ) {
        if uncovered.is_empty() {
            *best = (*best).min(used);
            return;
        }
        if used + 1 >= *best {
            return;
        }
        // pick the uncovered vertex with the fewest covering edges
        let v = *uncovered
            .iter()
            .min_by_key(|&&v| edges.iter().filter(|e| e.contains(&v)).count())
            .expect("non-empty");
        for e in edges.iter().filter(|e| e.contains(&v)) {
            let rest: BTreeSet<usize> = uncovered.difference(e).copied().collect();
            recurse(edges, &rest, used + 1, best);
        }
    }
    recurse(edges, x, 0, &mut best);
    best
}

/// The (generalised) hypertreewidth of a given tree decomposition: the
/// maximum over bags of the minimum edge cover of the bag.
///
/// Returns `None` if some bag contains a vertex lying in no hyperedge.
pub fn hypertree_width_of_decomposition(h: &Hypergraph, td: &TreeDecomposition) -> Option<usize> {
    let mut width = 0usize;
    for bag in td.bags() {
        width = width.max(integral_cover_number(h, bag)?);
    }
    Some(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[usize]) -> BTreeSet<usize> {
        v.iter().copied().collect()
    }

    #[test]
    fn cover_of_empty_set_is_zero() {
        let h = Hypergraph::from_edges(3, &[&[0, 1]]);
        assert_eq!(integral_cover_number(&h, &BTreeSet::new()), Some(0));
    }

    #[test]
    fn cover_single_edge() {
        let h = Hypergraph::from_edges(4, &[&[0, 1, 2, 3]]);
        assert_eq!(integral_cover_number(&h, &set(&[0, 1, 2, 3])), Some(1));
        assert_eq!(integral_cover_number(&h, &set(&[1, 3])), Some(1));
    }

    #[test]
    fn cover_triangle_needs_two() {
        let h = Hypergraph::from_edges(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(integral_cover_number(&h, &set(&[0, 1, 2])), Some(2));
    }

    #[test]
    fn cover_path_needs_two() {
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert_eq!(integral_cover_number(&h, &set(&[0, 1, 2, 3])), Some(2));
        assert_eq!(integral_cover_number(&h, &set(&[0, 3])), Some(2));
        assert_eq!(integral_cover_number(&h, &set(&[1, 2])), Some(1));
    }

    #[test]
    fn infeasible_cover() {
        let h = Hypergraph::from_edges(3, &[&[0, 1]]);
        assert_eq!(integral_cover_number(&h, &set(&[0, 2])), None);
    }

    #[test]
    fn exact_beats_greedy_on_adversarial_instance() {
        // Classic set-cover instance where greedy is suboptimal:
        // universe {0..5}; sets {0,1,2,3} misses, two disjoint big sets vs overlapping ones.
        // Exact cover: {0,1,2} and {3,4,5} → 2. Greedy may pick {1,2,3,4} first → 3.
        let h = Hypergraph::from_edges(6, &[&[0, 1, 2], &[3, 4, 5], &[1, 2, 3, 4]]);
        assert_eq!(
            integral_cover_number(&h, &set(&[0, 1, 2, 3, 4, 5])),
            Some(2)
        );
    }

    #[test]
    fn hypertreewidth_of_decompositions() {
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        // single bag: needs 2 edges
        let td = TreeDecomposition::single_bag(set(&[0, 1, 2, 3]));
        assert_eq!(hypertree_width_of_decomposition(&h, &td), Some(2));
        // path decomposition: each bag covered by 1 edge
        let mut td = TreeDecomposition::single_bag(set(&[0, 1]));
        let a = td.add_child(0, set(&[1, 2]));
        td.add_child(a, set(&[2, 3]));
        assert_eq!(hypertree_width_of_decomposition(&h, &td), Some(1));
    }

    #[test]
    fn hypertreewidth_none_for_uncoverable_bag() {
        let h = Hypergraph::from_edges(3, &[&[0, 1]]);
        let td = TreeDecomposition::single_bag(set(&[0, 1, 2]));
        assert_eq!(hypertree_width_of_decomposition(&h, &td), None);
    }

    #[test]
    fn subset_edges_are_pruned() {
        // {0,1} ⊂ {0,1,2}: the smaller edge never helps
        let h = Hypergraph::from_edges(3, &[&[0, 1], &[0, 1, 2]]);
        assert_eq!(integral_cover_number(&h, &set(&[0, 1, 2])), Some(1));
    }
}
