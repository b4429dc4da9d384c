//! Exact #TA counting: brute force over the `N`-slice, and a fixed-shape
//! counter via a dynamic program over reachable state sets.

use crate::automaton::TreeAutomaton;
use crate::tree::TreeShape;
use std::collections::BTreeMap;

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
        if a.reachable_states(shape, &labels, shape.root())[a.initial()] {
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
/// nonempty *reachable state set* to the number of subtree labellings
/// realising it.
///
/// At each node the children's tables are folded into combinations of
/// reachable sets (one empty combination at a leaf); per combination one
/// scan of the transitions collects the firing source states, grouped by
/// label. Labellings with an empty reachable set are dropped: nothing fires
/// over them, so they never reach the root's initial state.
///
/// The table size is bounded by the number of distinct reachable state sets,
/// which is small for the automata produced by the Lemma 52 reduction on
/// moderate instances but can be exponential in general. The FPRAS runs this
/// counter while the automaton has at most `fpras_exact_state_budget` states
/// and [`crate::approx_count_fixed_shape_seeded`] above that.
pub fn count_labelings_fixed_shape(a: &TreeAutomaton, shape: &TreeShape) -> u128 {
    // tables[t]: nonempty reachable state set (sorted) → number of
    // labellings of the subtree rooted at t inducing exactly that set.
    let mut tables: Vec<BTreeMap<Vec<usize>, u128>> = vec![BTreeMap::new(); shape.num_nodes()];
    for t in shape.postorder() {
        let child_tables: Vec<BTreeMap<Vec<usize>, u128>> = shape
            .children(t)
            .iter()
            .map(|&c| std::mem::take(&mut tables[c]))
            .collect();
        let mut combos: Vec<(Vec<&[usize]>, u128)> = vec![(Vec::new(), 1)];
        for child in &child_tables {
            combos = combos
                .iter()
                .flat_map(|(sets, count)| {
                    child.iter().map(move |(set, &n)| {
                        let mut sets = sets.clone();
                        sets.push(set);
                        (sets, count * n)
                    })
                })
                .collect();
        }
        let table = &mut tables[t];
        for (sets, count) in combos {
            let mut by_label: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &(q, label, target) in a.transitions() {
                if target.fires(&sets, |set, q1| set.binary_search(&q1).is_ok()) {
                    by_label.entry(label).or_default().push(q);
                }
            }
            for mut set in by_label.into_values() {
                set.sort_unstable();
                set.dedup();
                *table.entry(set).or_insert(0) += count;
            }
        }
    }
    tables[shape.root()]
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
        let a = TreeAutomaton::new(
            3,
            2,
            0,
            vec![
                (0, 0, TransitionTarget::Unary(1)),
                (0, 0, TransitionTarget::Unary(2)),
                (1, 0, TransitionTarget::Leaf),
                (2, 0, TransitionTarget::Leaf),
                (2, 1, TransitionTarget::Leaf),
                (0, 1, TransitionTarget::Binary(1, 2)),
            ],
        );
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
        let a = TreeAutomaton::new(
            3,
            1,
            0,
            vec![
                (0, 0, TransitionTarget::Unary(1)),
                (0, 0, TransitionTarget::Unary(2)),
                (1, 0, TransitionTarget::Leaf),
                (2, 0, TransitionTarget::Leaf),
            ],
        );
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        // single labelling (all label 0), two runs
        assert_eq!(count_labelings_fixed_shape(&a, &shape), 1);
    }

    #[test]
    fn empty_language() {
        let a = TreeAutomaton::new(2, 2, 0, Vec::new());
        assert_eq!(count_slice_bruteforce(&a, 3), 0);
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        assert_eq!(count_labelings_fixed_shape(&a, &shape), 0);
    }

    #[test]
    fn label_rich_single_node() {
        let leaves = [0, 2, 4].map(|label| (0, label, TransitionTarget::Leaf));
        let a = TreeAutomaton::new(1, 5, 0, leaves.to_vec());
        assert_eq!(count_slice_bruteforce(&a, 1), 3);
        assert_eq!(count_labelings_fixed_shape(&a, &TreeShape::single()), 3);
    }
}
