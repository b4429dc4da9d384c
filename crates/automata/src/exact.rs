//! Exact #TA counting: brute force over the `N`-slice, and a fixed-shape
//! counter via a dynamic program over reachable state sets.

use crate::automaton::TreeAutomaton;
use crate::tree::{LabeledTree, TreeShape};
use std::collections::{BTreeSet, HashMap};

/// `|L_N(A)|` by brute force: enumerate every tree shape with `N` nodes and
/// every labelling, and check acceptance. Exponential; intended only for tiny
/// `N` (ground truth for the approximate counter and for the fixed-shape DP).
pub fn count_slice_bruteforce(a: &TreeAutomaton, n: usize) -> u128 {
    let mut total = 0u128;
    for shape in TreeShape::enumerate(n) {
        total += count_labelings_bruteforce(a, &shape);
    }
    total
}

fn count_labelings_bruteforce(a: &TreeAutomaton, shape: &TreeShape) -> u128 {
    let n = shape.num_nodes();
    let l = a.num_labels();
    let mut labels = vec![0usize; n];
    let mut count = 0u128;
    loop {
        if a.accepts(&LabeledTree::new(shape.clone(), labels.clone())) {
            count += 1;
        }
        let mut i = 0;
        loop {
            if i == n {
                return count;
            }
            labels[i] += 1;
            if labels[i] < l {
                break;
            }
            labels[i] = 0;
            i += 1;
        }
    }
}

/// Count the labellings of a **fixed** shape that the automaton accepts,
/// exactly, by a bottom-up dynamic program whose per-node table maps each
/// *reachable state set* to the number of subtree labellings realising it.
///
/// The table size is bounded by the number of distinct reachable state sets,
/// which is small for the automata produced by the Lemma 52 reduction on
/// moderate instances but can be exponential in general — this function is a
/// ground-truth tool, not the FPRAS (see
/// [`crate::approx_count_fixed_shape_seeded`]).
pub fn count_labelings_fixed_shape(a: &TreeAutomaton, shape: &TreeShape) -> u128 {
    let order = shape.postorder();
    // tables[t]: reachable state set (sorted) → number of labellings of the
    // subtree rooted at t inducing exactly that set.
    let mut tables: Vec<Option<HashMap<Vec<usize>, u128>>> = vec![None; shape.num_nodes()];
    for &t in &order {
        let children = shape.children(t);
        let mut table: HashMap<Vec<usize>, u128> = HashMap::new();
        match children.len() {
            0 => {
                for label in 0..a.num_labels() {
                    let set: Vec<usize> = (0..a.num_states())
                        .filter(|&q| {
                            a.targets(q, label)
                                .iter()
                                .any(|t| matches!(t, crate::TransitionTarget::Leaf))
                        })
                        .collect();
                    *table.entry(set).or_insert(0) += 1;
                }
            }
            1 => {
                let child_table = tables[children[0]].as_ref().expect("postorder");
                // cqc-audit: allow(hash-iter) — every visit only does a commutative u128 `+=` into `table`; the final table is order-independent
                for (child_set, &count) in child_table {
                    let child: BTreeSet<usize> = child_set.iter().copied().collect();
                    for label in 0..a.num_labels() {
                        let set: Vec<usize> = (0..a.num_states())
                            .filter(|&q| {
                                a.targets(q, label).iter().any(|t| match t {
                                    crate::TransitionTarget::Unary(q1) => child.contains(q1),
                                    _ => false,
                                })
                            })
                            .collect();
                        *table.entry(set).or_insert(0) += count;
                    }
                }
            }
            _ => {
                let left_table = tables[children[0]].as_ref().expect("postorder").clone();
                let right_table = tables[children[1]].as_ref().expect("postorder").clone();
                // cqc-audit: allow(hash-iter) — every visit only does a commutative u128 `+=` into `table`; the final table is order-independent
                for (lset, &lc) in &left_table {
                    let left: BTreeSet<usize> = lset.iter().copied().collect();
                    // cqc-audit: allow(hash-iter) — every visit only does a commutative u128 `+=` into `table`; the final table is order-independent
                    for (rset, &rc) in &right_table {
                        let right: BTreeSet<usize> = rset.iter().copied().collect();
                        for label in 0..a.num_labels() {
                            let set: Vec<usize> = (0..a.num_states())
                                .filter(|&q| {
                                    a.targets(q, label).iter().any(|t| match t {
                                        crate::TransitionTarget::Binary(q1, q2) => {
                                            left.contains(q1) && right.contains(q2)
                                        }
                                        _ => false,
                                    })
                                })
                                .collect();
                            *table.entry(set).or_insert(0) += lc * rc;
                        }
                    }
                }
            }
        }
        tables[t] = Some(table);
    }
    tables[shape.root()]
        .as_ref()
        .expect("root processed")
        // cqc-audit: allow(hash-iter) — u128 sum of the surviving counts; addition is commutative, so hash order cannot change the total
        .iter()
        .filter(|(set, _)| set.binary_search(&a.initial()).is_ok())
        .map(|(_, &c)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::accepted_labelings_bruteforce;
    use crate::TransitionTarget;

    #[test]
    fn all_zero_automaton_slice_counts() {
        // exactly one accepted labelling per shape, so |L_N| = #shapes(N)
        let (a, _) = TreeAutomaton::all_zero_labels();
        assert_eq!(count_slice_bruteforce(&a, 1), 1);
        assert_eq!(count_slice_bruteforce(&a, 3), 2);
        assert_eq!(count_slice_bruteforce(&a, 4), 4);
        assert_eq!(count_slice_bruteforce(&a, 5), 9);
    }

    #[test]
    fn fixed_shape_dp_matches_bruteforce() {
        // A small nondeterministic automaton with overlapping transitions:
        // labels {0,1}; states {0 = init, 1, 2}; the root must read label 0
        // and may delegate to state 1 or 2; state 1 accepts leaves labelled 0,
        // state 2 accepts leaves labelled 0 or 1 — overlap on label 0.
        let mut a = TreeAutomaton::new(3, 2, 0);
        a.add_transition(0, 0, TransitionTarget::Unary(1));
        a.add_transition(0, 0, TransitionTarget::Unary(2));
        a.add_transition(1, 0, TransitionTarget::Leaf);
        a.add_transition(2, 0, TransitionTarget::Leaf);
        a.add_transition(2, 1, TransitionTarget::Leaf);
        a.add_transition(0, 1, TransitionTarget::Binary(1, 2));
        for shape in [
            TreeShape::new(vec![vec![1], vec![]], 0),
            TreeShape::new(vec![vec![1, 2], vec![], vec![]], 0),
            TreeShape::new(vec![vec![1], vec![2], vec![]], 0),
            TreeShape::new(vec![vec![1, 2], vec![3], vec![], vec![]], 0),
        ] {
            let expected = accepted_labelings_bruteforce(&a, &shape).len() as u128;
            assert_eq!(count_labelings_fixed_shape(&a, &shape), expected);
        }
    }

    #[test]
    fn projection_style_overlap_is_not_double_counted() {
        // Two states both accept the same leaf labelling — the count must be
        // of *labellings*, not of runs.
        let mut a = TreeAutomaton::new(3, 1, 0);
        a.add_transition(0, 0, TransitionTarget::Unary(1));
        a.add_transition(0, 0, TransitionTarget::Unary(2));
        a.add_transition(1, 0, TransitionTarget::Leaf);
        a.add_transition(2, 0, TransitionTarget::Leaf);
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        // single labelling (all label 0), two runs
        assert_eq!(count_labelings_fixed_shape(&a, &shape), 1);
    }

    #[test]
    fn empty_language() {
        let a = TreeAutomaton::new(2, 2, 0);
        assert_eq!(count_slice_bruteforce(&a, 3), 0);
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        assert_eq!(count_labelings_fixed_shape(&a, &shape), 0);
    }

    #[test]
    fn label_rich_single_node() {
        let mut a = TreeAutomaton::new(1, 5, 0);
        for label in [0, 2, 4] {
            a.add_transition(0, label, TransitionTarget::Leaf);
        }
        assert_eq!(count_slice_bruteforce(&a, 1), 3);
        assert_eq!(count_labelings_fixed_shape(&a, &TreeShape::single()), 3);
    }
}
