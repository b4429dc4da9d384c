//! Nondeterministic tree automata (Definition 50).

use crate::tree::{LabeledTree, TreeShape};
use std::collections::{BTreeSet, HashMap};

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

/// A nondeterministic tree automaton `A = (S, Σ, Δ, s₀)` over binary trees
/// (Definition 50). States and labels are dense indices.
#[derive(Debug)]
pub struct TreeAutomaton {
    num_states: usize,
    num_labels: usize,
    initial: usize,
    transitions: Vec<(usize, usize, TransitionTarget)>,
    /// Lazily built lookup tables. A `OnceLock` (not a `RefCell`) so a
    /// fully built automaton is `Sync`: the approximate counter shares it
    /// read-only across the runtime's worker threads.
    index: std::sync::OnceLock<TransitionIndex>,
}

impl Clone for TreeAutomaton {
    fn clone(&self) -> Self {
        TreeAutomaton {
            num_states: self.num_states,
            num_labels: self.num_labels,
            initial: self.initial,
            transitions: self.transitions.clone(),
            index: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for TreeAutomaton {
    fn eq(&self, other: &Self) -> bool {
        self.num_states == other.num_states
            && self.num_labels == other.num_labels
            && self.initial == other.initial
            && self.transitions == other.transitions
    }
}
impl Eq for TreeAutomaton {}

/// Lazily built lookup tables over the transition list.
#[derive(Debug, Clone, Default)]
struct TransitionIndex {
    by_state_label: HashMap<(usize, usize), Vec<TransitionTarget>>,
    by_label: HashMap<usize, Vec<(usize, TransitionTarget)>>,
    by_state: HashMap<usize, Vec<(usize, TransitionTarget)>>,
}

impl TreeAutomaton {
    /// Create an automaton with no transitions.
    pub fn new(num_states: usize, num_labels: usize, initial: usize) -> Self {
        assert!(initial < num_states);
        TreeAutomaton {
            num_states,
            num_labels,
            initial,
            transitions: Vec::new(),
            index: std::sync::OnceLock::new(),
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

    /// Add a transition `(state, label) → target`.
    pub fn add_transition(&mut self, state: usize, label: usize, target: TransitionTarget) {
        assert!(state < self.num_states && label < self.num_labels);
        match target {
            TransitionTarget::Leaf => {}
            TransitionTarget::Unary(q) => assert!(q < self.num_states),
            TransitionTarget::Binary(q1, q2) => {
                assert!(q1 < self.num_states && q2 < self.num_states)
            }
        }
        self.index = std::sync::OnceLock::new();
        self.transitions.push((state, label, target));
    }

    /// All transitions.
    pub fn transitions(&self) -> &[(usize, usize, TransitionTarget)] {
        &self.transitions
    }

    /// The targets available from `(state, label)`.
    pub fn targets(&self, state: usize, label: usize) -> Vec<TransitionTarget> {
        self.ensure_index()
            .by_state_label
            .get(&(state, label))
            .cloned()
            .unwrap_or_default()
    }

    /// All `(state, target)` transitions reading `label`.
    pub fn transitions_with_label(&self, label: usize) -> Vec<(usize, TransitionTarget)> {
        self.ensure_index()
            .by_label
            .get(&label)
            .cloned()
            .unwrap_or_default()
    }

    /// All `(label, target)` transitions out of `state`.
    pub fn transitions_from(&self, state: usize) -> Vec<(usize, TransitionTarget)> {
        self.ensure_index()
            .by_state
            .get(&state)
            .cloned()
            .unwrap_or_default()
    }

    fn ensure_index(&self) -> &TransitionIndex {
        self.index.get_or_init(|| {
            let mut built = TransitionIndex::default();
            for &(s, l, t) in &self.transitions {
                built.by_state_label.entry((s, l)).or_default().push(t);
                built.by_label.entry(l).or_default().push((s, t));
                built.by_state.entry(s).or_default().push((l, t));
            }
            built
        })
    }

    /// The set of states `q` such that the subtree of `tree` rooted at `node`
    /// admits a run assigning `q` to `node` (bottom-up reachable states).
    pub fn reachable_states(&self, tree: &LabeledTree, node: usize) -> BTreeSet<usize> {
        let mut memo: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        self.reachable_rec(tree, node, &mut memo)
    }

    fn reachable_rec(
        &self,
        tree: &LabeledTree,
        node: usize,
        memo: &mut HashMap<usize, BTreeSet<usize>>,
    ) -> BTreeSet<usize> {
        if let Some(s) = memo.get(&node) {
            return s.clone();
        }
        let label = tree.labels[node];
        let children = tree.shape.children(node);
        let child_sets: Vec<BTreeSet<usize>> = children
            .iter()
            .map(|&c| self.reachable_rec(tree, c, memo))
            .collect();
        let mut out = BTreeSet::new();
        for (q, target) in self.transitions_with_label(label) {
            if out.contains(&q) {
                continue;
            }
            let ok = match (target, children.len()) {
                (TransitionTarget::Leaf, 0) => true,
                (TransitionTarget::Unary(q1), 1) => child_sets[0].contains(&q1),
                (TransitionTarget::Binary(q1, q2), 2) => {
                    child_sets[0].contains(&q1) && child_sets[1].contains(&q2)
                }
                _ => false,
            };
            if ok {
                out.insert(q);
            }
        }
        memo.insert(node, out.clone());
        out
    }

    /// Does the automaton accept the labelled tree (some run assigns `s₀` to
    /// the root)?
    pub fn accepts(&self, tree: &LabeledTree) -> bool {
        self.reachable_states(tree, tree.shape.root())
            .contains(&self.initial)
    }

    /// Does the subtree of `tree` rooted at `node` admit a run starting from
    /// `state`? (Membership test `ψ|_subtree ∈ L(node, state)` used by the
    /// Karp–Luby union estimation of the approximate counter.)
    pub fn subtree_accepts_from(&self, tree: &LabeledTree, node: usize, state: usize) -> bool {
        self.reachable_states(tree, node).contains(&state)
    }

    /// A tiny deterministic example automaton used in tests and docs: accepts
    /// the labelled binary trees in which **every** node carries label 0.
    pub fn all_zero_labels() -> (Self, usize) {
        let mut a = TreeAutomaton::new(1, 2, 0);
        a.add_transition(0, 0, TransitionTarget::Leaf);
        a.add_transition(0, 0, TransitionTarget::Unary(0));
        a.add_transition(0, 0, TransitionTarget::Binary(0, 0));
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
        let t = LabeledTree::new(shape.clone(), labels.clone());
        if a.accepts(&t) {
            out.push(t);
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
        let mut a = TreeAutomaton::new(1, 3, 0);
        a.add_transition(0, 0, TransitionTarget::Leaf);
        a.add_transition(0, 1, TransitionTarget::Leaf);
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
        let mut a = TreeAutomaton::new(2, 1, 0);
        a.add_transition(0, 0, TransitionTarget::Unary(1));
        a.add_transition(1, 0, TransitionTarget::Unary(0));
        a.add_transition(1, 0, TransitionTarget::Leaf);
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
        let bad = LabeledTree::new(shape, vec![0, 1]);
        assert!(a.subtree_accepts_from(&good, 1, 0));
        assert!(!a.subtree_accepts_from(&bad, 1, 0));
        assert_eq!(a.reachable_states(&bad, 0).len(), 0);
    }

    #[test]
    fn targets_lookup() {
        let (a, _) = TreeAutomaton::all_zero_labels();
        assert_eq!(a.targets(0, 0).len(), 3);
        assert_eq!(a.targets(0, 1).len(), 0);
        assert_eq!(a.num_states(), 1);
        assert_eq!(a.num_labels(), 2);
        assert_eq!(a.initial(), 0);
        assert_eq!(a.transitions().len(), 3);
    }
}
