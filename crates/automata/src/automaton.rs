//! Nondeterministic tree automata (Definition 50).

use crate::tree::{LabeledTree, TreeShape};

/// The right-hand side of a transition `(q, σ) → …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionTarget {
    /// `(q, σ) → ∅`: the node is a leaf.
    Leaf,
    /// `(q, σ) → q₁`: the node has exactly one child, rooted at state `q₁`.
    Unary(usize),
    /// `(q, σ) → (q₁, q₂)`: the node has two ordered children.
    Binary(usize, usize),
}

impl TransitionTarget {
    /// The states required at the children, in child order.
    pub(crate) fn child_states(self) -> impl Iterator<Item = usize> {
        let (states, arity) = match self {
            TransitionTarget::Leaf => ([0, 0], 0),
            TransitionTarget::Unary(q1) => ([q1, 0], 1),
            TransitionTarget::Binary(q1, q2) => ([q1, q2], 2),
        };
        states.into_iter().take(arity)
    }

    /// Can the transition fire at a node with these children? It needs one
    /// child per child state, and `holds(child, q)` for each pair.
    pub(crate) fn fires<C>(self, children: &[C], mut holds: impl FnMut(&C, usize) -> bool) -> bool {
        self.child_states().count() == children.len()
            && self.child_states().zip(children).all(|(q, c)| holds(c, q))
    }
}

/// A nondeterministic tree automaton `A = (S, Σ, Δ, s₀)` over binary trees
/// (Definition 50). States and labels are dense indices.
///
/// Built once by [`TreeAutomaton::new`] and never modified. The transitions
/// are kept in one array sorted by source state, stably, so the transitions
/// out of a state keep the order they were given in; per-state offsets into
/// that array make [`TreeAutomaton::transitions_from`] a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeAutomaton {
    num_states: usize,
    num_labels: usize,
    initial: usize,
    /// `(source, label, target)`, sorted stably by source.
    transitions: Vec<(usize, usize, TransitionTarget)>,
    /// `transitions[starts[q]..starts[q + 1]]` are the transitions out of
    /// `q`.
    starts: Vec<usize>,
}

impl TreeAutomaton {
    /// Build an automaton from its `(state, label, target)` transitions, in
    /// any source order. The transitions out of each state keep their given
    /// order (the ACJR counter draws its components in that order).
    ///
    /// # Panics
    /// Panics if `initial`, a state or a label is out of range.
    pub fn new(
        num_states: usize,
        num_labels: usize,
        initial: usize,
        mut transitions: Vec<(usize, usize, TransitionTarget)>,
    ) -> Self {
        assert!(initial < num_states);
        for &(q, label, target) in &transitions {
            assert!(q < num_states && label < num_labels);
            assert!(target.child_states().all(|q1| q1 < num_states));
        }
        transitions.sort_by_key(|&(q, _, _)| q);
        let mut starts = vec![0; num_states + 1];
        for &(q, _, _) in &transitions {
            starts[q + 1] += 1;
        }
        for q in 0..num_states {
            starts[q + 1] += starts[q];
        }
        TreeAutomaton {
            num_states,
            num_labels,
            initial,
            transitions,
            starts,
        }
    }

    /// Number of states `|S|`.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of labels `|Σ|`.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The initial (root) state `s₀`.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// All `(state, label, target)` transitions, sorted stably by state.
    pub fn transitions(&self) -> &[(usize, usize, TransitionTarget)] {
        &self.transitions
    }

    /// The `(state, label, target)` transitions out of `state`, in the order
    /// they were given.
    pub fn transitions_from(&self, state: usize) -> &[(usize, usize, TransitionTarget)] {
        &self.transitions[self.starts[state]..self.starts[state + 1]]
    }

    /// The states `q` such that the subtree of `shape` rooted at `node`,
    /// labelled by `labels`, admits a run assigning `q` to `node`, as a
    /// membership vector indexed by state. Computed bottom-up: a node's
    /// states are the sources of the transitions that read its label and
    /// fire over its children's states.
    pub fn reachable_states(&self, shape: &TreeShape, labels: &[usize], node: usize) -> Vec<bool> {
        let children: Vec<Vec<bool>> = shape
            .children(node)
            .iter()
            .map(|&c| self.reachable_states(shape, labels, c))
            .collect();
        let mut states = vec![false; self.num_states];
        for &(q, label, target) in &self.transitions {
            states[q] |= label == labels[node] && target.fires(&children, |set, q1| set[q1]);
        }
        states
    }

    /// Does the automaton accept the labelled tree (some run assigns `s₀` to
    /// the root)?
    pub fn accepts(&self, tree: &LabeledTree) -> bool {
        self.subtree_accepts_from(tree, tree.shape.root(), self.initial)
    }

    /// Does the subtree of `tree` rooted at `node` admit a run starting from
    /// `state`? (The membership test `ψ|_subtree ∈ L(node, state)`.)
    pub fn subtree_accepts_from(&self, tree: &LabeledTree, node: usize, state: usize) -> bool {
        self.reachable_states(&tree.shape, &tree.labels, node)[state]
    }

    /// A tiny deterministic example automaton used in tests and docs: accepts
    /// the labelled binary trees in which **every** node carries label 0.
    pub fn all_zero_labels() -> (Self, usize) {
        let a = TreeAutomaton::new(
            1,
            2,
            0,
            vec![
                (0, 0, TransitionTarget::Leaf),
                (0, 0, TransitionTarget::Unary(0)),
                (0, 0, TransitionTarget::Binary(0, 0)),
            ],
        );
        (a, 0)
    }
}

/// Enumerate all accepted labelled trees over a fixed shape by brute force
/// (testing helper; `num_labels^n` work).
pub fn accepted_labelings_bruteforce(a: &TreeAutomaton, shape: &TreeShape) -> Vec<LabeledTree> {
    let n = shape.num_nodes();
    let l = a.num_labels();
    let mut out = Vec::new();
    let mut labels = vec![0usize; n];
    loop {
        if a.reachable_states(shape, &labels, shape.root())[a.initial()] {
            out.push(LabeledTree::new(shape.clone(), labels.clone()));
        }
        // odometer
        let mut i = 0;
        loop {
            if i == n {
                return out;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_zero_automaton_accepts_only_zero_labelings() {
        let (a, _) = TreeAutomaton::all_zero_labels();
        let shape = TreeShape::new(vec![vec![1, 2], vec![], vec![]], 0);
        assert!(a.accepts(&LabeledTree::new(shape.clone(), vec![0, 0, 0])));
        assert!(!a.accepts(&LabeledTree::new(shape.clone(), vec![0, 1, 0])));
        let accepted = accepted_labelings_bruteforce(&a, &shape);
        assert_eq!(accepted.len(), 1);
    }

    #[test]
    fn nondeterministic_union_automaton() {
        // Accepts single-node trees labelled 0 or 1 via two different states
        // reachable from the initial state? A single-node tree: the run maps
        // the root to s0, so transitions must be from s0 directly.
        let a = TreeAutomaton::new(
            1,
            3,
            0,
            vec![
                (0, 0, TransitionTarget::Leaf),
                (0, 1, TransitionTarget::Leaf),
            ],
        );
        let shape = TreeShape::single();
        assert!(a.accepts(&LabeledTree::new(shape.clone(), vec![0])));
        assert!(a.accepts(&LabeledTree::new(shape.clone(), vec![1])));
        assert!(!a.accepts(&LabeledTree::new(shape.clone(), vec![2])));
    }

    #[test]
    fn unary_chain_parity_automaton() {
        // Accepts label-0 chains of even length: state 0 = even remaining,
        // state 1 = odd remaining; leaf allowed only in state 1 (so total
        // number of nodes is even).
        let a = TreeAutomaton::new(
            2,
            1,
            0,
            vec![
                (0, 0, TransitionTarget::Unary(1)),
                (1, 0, TransitionTarget::Unary(0)),
                (1, 0, TransitionTarget::Leaf),
            ],
        );
        // chain with k nodes
        let chain = |k: usize| {
            let children: Vec<Vec<usize>> = (0..k)
                .map(|i| if i + 1 < k { vec![i + 1] } else { vec![] })
                .collect();
            LabeledTree::new(TreeShape::new(children, 0), vec![0; k])
        };
        assert!(a.accepts(&chain(2)));
        assert!(a.accepts(&chain(4)));
        assert!(!a.accepts(&chain(1)));
        assert!(!a.accepts(&chain(3)));
    }

    #[test]
    fn reachable_states_and_subtree_membership() {
        let (a, _) = TreeAutomaton::all_zero_labels();
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        let good = LabeledTree::new(shape.clone(), vec![0, 0]);
        let bad = LabeledTree::new(shape.clone(), vec![0, 1]);
        assert!(a.subtree_accepts_from(&good, 1, 0));
        assert!(!a.subtree_accepts_from(&bad, 1, 0));
        assert_eq!(a.reachable_states(&shape, &bad.labels, 0), vec![false]);
    }

    #[test]
    fn transitions_from_keeps_insertion_order() {
        let a = TreeAutomaton::new(
            2,
            3,
            0,
            vec![
                (0, 2, TransitionTarget::Unary(1)),
                (1, 0, TransitionTarget::Leaf),
                (0, 1, TransitionTarget::Leaf),
                (0, 2, TransitionTarget::Binary(1, 1)),
            ],
        );
        assert_eq!(
            a.transitions_from(0),
            &[
                (0, 2, TransitionTarget::Unary(1)),
                (0, 1, TransitionTarget::Leaf),
                (0, 2, TransitionTarget::Binary(1, 1)),
            ]
        );
        assert_eq!(a.transitions_from(1), &[(1, 0, TransitionTarget::Leaf)]);
        assert_eq!(a.transitions()[3], (1, 0, TransitionTarget::Leaf));
        assert_eq!(a.num_states(), 2);
        assert_eq!(a.num_labels(), 3);
        assert_eq!(a.initial(), 0);
        assert_eq!(a.transitions().len(), 4);
        assert_eq!(a.clone(), a);
    }
}
