//! Property-based tests for the tree-automaton machinery of Section 5.2.3:
//! acceptance, exact fixed-shape counting, the brute-force N-slice
//! specification and the sampling-based approximate counter (our stand-in
//! for the ACJR FPRAS, Lemma 51).

use cqc_automata::automaton::accepted_labelings_bruteforce;
use cqc_automata::{
    approx_count_fixed_shape_seeded, count_labelings_fixed_shape, count_slice_bruteforce,
    LabeledTree, TaApproxConfig, TransitionTarget, TreeAutomaton, TreeShape,
};
use cqc_runtime::Runtime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A raw random automaton over `num_states` states and `num_labels` labels.
#[derive(Debug, Clone)]
struct RawAutomaton {
    num_states: usize,
    num_labels: usize,
    /// (state, label, kind, q1, q2) with kind 0 = leaf, 1 = unary, 2 = binary.
    transitions: Vec<(usize, usize, u8, usize, usize)>,
}

fn raw_automaton() -> impl Strategy<Value = RawAutomaton> {
    (1usize..=3, 1usize..=3).prop_flat_map(|(num_states, num_labels)| {
        let t = (
            0..num_states,
            0..num_labels,
            0u8..3,
            0..num_states,
            0..num_states,
        );
        proptest::collection::vec(t, 1..10).prop_map(move |transitions| RawAutomaton {
            num_states,
            num_labels,
            transitions,
        })
    })
}

fn build_automaton(raw: &RawAutomaton) -> TreeAutomaton {
    let transitions = raw
        .transitions
        .iter()
        .map(|&(q, sigma, kind, q1, q2)| {
            let target = match kind {
                0 => TransitionTarget::Leaf,
                1 => TransitionTarget::Unary(q1),
                _ => TransitionTarget::Binary(q1, q2),
            };
            (q, sigma, target)
        })
        .collect();
    TreeAutomaton::new(raw.num_states, raw.num_labels, 0, transitions)
}

/// A random small tree shape with at most 5 nodes, drawn from the full
/// enumeration (so every shape is reachable).
fn small_shape() -> impl Strategy<Value = TreeShape> {
    (1usize..=5).prop_flat_map(|n| {
        let shapes = TreeShape::enumerate(n);
        let count = shapes.len();
        (0..count).prop_map(move |i| shapes[i].clone())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The exact fixed-shape counter agrees with brute-force enumeration of
    /// all labelings, and every labelling it counts is indeed accepted.
    #[test]
    fn fixed_shape_counter_matches_bruteforce(raw in raw_automaton(), shape in small_shape()) {
        let a = build_automaton(&raw);
        let accepted = accepted_labelings_bruteforce(&a, &shape);
        for t in &accepted {
            prop_assert!(a.accepts(t));
        }
        prop_assert_eq!(
            count_labelings_fixed_shape(&a, &shape),
            accepted.len() as u128
        );
    }

    /// The N-slice brute-force counter is the sum of the fixed-shape counts
    /// over all shapes with N nodes (Definition 50: the N-slice ranges over
    /// all pairs (T, ψ) with |V(T)| = N).
    #[test]
    fn slice_count_sums_over_shapes(raw in raw_automaton(), n in 1usize..=4) {
        let a = build_automaton(&raw);
        let total: u128 = TreeShape::enumerate(n)
            .iter()
            .map(|s| count_labelings_fixed_shape(&a, s))
            .sum();
        prop_assert_eq!(count_slice_bruteforce(&a, n), total);
    }

    /// Acceptance is label-monotone in the transition relation: adding a
    /// transition can only accept more labelled trees.
    #[test]
    fn adding_transitions_is_monotone(raw in raw_automaton(), shape in small_shape(), extra in (0usize..3, 0usize..3, 0u8..3, 0usize..3, 0usize..3)) {
        let a = build_automaton(&raw);
        let before = count_labelings_fixed_shape(&a, &shape);
        let mut raw2 = raw.clone();
        let (q, sigma, kind, q1, q2) = extra;
        raw2.transitions.push((
            q % raw.num_states,
            sigma % raw.num_labels,
            kind,
            q1 % raw.num_states,
            q2 % raw.num_states,
        ));
        let a2 = build_automaton(&raw2);
        let after = count_labelings_fixed_shape(&a2, &shape);
        prop_assert!(after >= before);
    }

    /// The sampling-based approximate counter is nonnegative, is zero when
    /// the exact count is zero, and is within a generous factor of the exact
    /// count on these tiny instances.
    #[test]
    fn approx_counter_tracks_exact(raw in raw_automaton(), shape in small_shape(), seed in any::<u64>()) {
        let a = build_automaton(&raw);
        let exact = count_labelings_fixed_shape(&a, &shape) as f64;
        let cfg = TaApproxConfig::new(0.1, 0.01);
        let root_seed = StdRng::seed_from_u64(seed).gen();
        let est = approx_count_fixed_shape_seeded(&a, &shape, &cfg, root_seed, &Runtime::serial());
        prop_assert!(est >= 0.0);
        if exact == 0.0 {
            prop_assert!(est < 0.5, "estimate {} for an empty slice", est);
        } else {
            prop_assert!(
                (est - exact).abs() <= 0.5 * exact,
                "estimate {} vs exact {}",
                est,
                exact
            );
        }
    }

    /// The approximate counter is bit-identical at every width: the states
    /// of a node draw from their own RNG streams, and the reading lists they
    /// pool are interned afterwards in state order.
    #[test]
    fn approx_counter_is_width_independent(raw in raw_automaton(), shape in small_shape(), seed in any::<u64>()) {
        let a = build_automaton(&raw);
        let cfg = TaApproxConfig::new(0.2, 0.05);
        let serial = approx_count_fixed_shape_seeded(&a, &shape, &cfg, seed, &Runtime::serial());
        for width in [2, 3] {
            let wide = approx_count_fixed_shape_seeded(&a, &shape, &cfg, seed, &Runtime::new(width));
            prop_assert_eq!(wide.to_bits(), serial.to_bits(), "width {}", width);
        }
    }

    /// The all-zero-labels automaton accepts exactly one labelling per shape
    /// (every node labelled 0), so its N-slice is the number of shapes.
    #[test]
    fn all_zero_labels_counts_shapes(n in 1usize..=4) {
        let (a, _label) = TreeAutomaton::all_zero_labels();
        let shapes = TreeShape::enumerate(n);
        prop_assert_eq!(count_slice_bruteforce(&a, n), shapes.len() as u128);
        for s in shapes {
            prop_assert_eq!(count_labelings_fixed_shape(&a, &s), 1);
        }
    }

    /// Acceptance requires a transition compatible with the degree of every
    /// node: an automaton with only leaf transitions accepts no tree with
    /// more than one node.
    #[test]
    fn leaf_only_automata_reject_internal_nodes(num_labels in 1usize..=3, shape in small_shape()) {
        let leaves = (0..num_labels).map(|sigma| (0, sigma, TransitionTarget::Leaf));
        let a = TreeAutomaton::new(1, num_labels, 0, leaves.collect());
        let count = count_labelings_fixed_shape(&a, &shape);
        if shape.num_nodes() == 1 {
            prop_assert_eq!(count, num_labels as u128);
        } else {
            prop_assert_eq!(count, 0);
        }
    }

    /// `accepts` is consistent with `reachable_states`: a tree is accepted
    /// iff the initial state is reachable at the root.
    #[test]
    fn accepts_matches_reachable_states(raw in raw_automaton(), shape in small_shape(), label_seed in any::<u64>()) {
        let a = build_automaton(&raw);
        let mut s = label_seed;
        let labels: Vec<usize> = (0..shape.num_nodes())
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as usize % raw.num_labels
            })
            .collect();
        let tree = LabeledTree::new(shape.clone(), labels);
        let root_states = a.reachable_states(&shape, &tree.labels, shape.root());
        prop_assert_eq!(a.accepts(&tree), root_states[a.initial()]);
    }
}
