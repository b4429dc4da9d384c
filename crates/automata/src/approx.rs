//! Approximate counting of accepted labellings over a fixed tree shape, in
//! the style of Arenas–Croquevielle–Jayaram–Riveros (Lemma 51).
//!
//! For every tree node `t` (bottom-up) and every automaton state `q`, the
//! algorithm maintains an estimate of `|L(t, q)|` — the number of labellings
//! of the subtree rooted at `t` that admit a run starting from `q` — together
//! with a pool of (approximately) uniform sample labellings from `L(t, q)`.
//! The set `L(t, q)` decomposes into a union of *components*, one per
//! transition `(q, σ) → …`:
//!
//! * leaf node, `(q, σ) → ∅`: the single labelling `{t ↦ σ}`;
//! * unary node, `(q, σ) → q₁`: `{t ↦ σ} × L(c, q₁)`;
//! * binary node, `(q, σ) → (q₁, q₂)`: `{t ↦ σ} × L(c₁, q₁) × L(c₂, q₂)`.
//!
//! Components may overlap (this is exactly the projection problem that makes
//! #TA hard), so their union is estimated by Karp–Luby: draw a component with
//! probability proportional to its estimated size, draw an element from it,
//! and count it only if the chosen component is the *first* one containing
//! it. The same draws provide the node's sample pool (rejection sampling).
//!
//! Membership needs, for each child `c`, the set of states that read the
//! drawn labelling's subtree at `c`. Every pooled sample carries that set for
//! its own node: the ascending list of its states is appended to the
//! sample's labelling `Vec`, computed once when the sample is pooled from its
//! label and the lists of the child samples it was drawn from. A trial then
//! tests every component against the lists of the child samples it picked,
//! without re-running the automaton over the subtree
//! ([`TreeAutomaton::reachable_states`], which a debug build uses to check
//! each carried list). Per-level error budgets are set from `ε` and the tree
//! size; see `docs/ARCHITECTURE.md` (Substitutions) for the relation to
//! ACJR's rigorous analysis.

use crate::automaton::{TransitionTarget, TreeAutomaton};
use crate::tree::TreeShape;
use cqc_runtime::{split_seed2, Runtime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Tuning parameters for [`approx_count_fixed_shape_seeded`].
#[derive(Debug, Clone)]
pub struct TaApproxConfig {
    /// Target relative error.
    pub epsilon: f64,
    /// Target failure probability.
    pub delta: f64,
    /// Karp–Luby trials per union estimation (0 = derive from ε and the
    /// number of components).
    pub union_trials: usize,
    /// Sample-pool size kept per (node, state).
    pub sample_pool: usize,
}

impl TaApproxConfig {
    /// A configuration with sensible defaults for the given accuracy target.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        TaApproxConfig {
            epsilon,
            delta,
            union_trials: 0,
            sample_pool: 48,
        }
    }

    fn trials(&self, components: usize) -> usize {
        if self.union_trials > 0 {
            return self.union_trials;
        }
        let base = (24.0 / (self.epsilon * self.epsilon)).ceil() as usize;
        base.max(16 * components).clamp(64, 20_000)
    }
}

#[derive(Debug, Clone)]
struct NodeStateInfo {
    estimate: f64,
    /// Pooled samples of `L(t, q)`. Each is a labelling of the whole shape
    /// (only the subtree of `t` is meaningful) followed by the ascending
    /// list of the states that read that subtree at `t`.
    samples: Vec<Vec<usize>>,
}

/// The transitions of an automaton grouped by label, each group in
/// ascending source-state order, so a node's reading states come out
/// ascending and deduplicated in one pass.
struct TransitionsByLabel(Vec<Vec<(usize, TransitionTarget)>>);

impl TransitionsByLabel {
    fn new(a: &TreeAutomaton) -> Self {
        let mut by_label = vec![Vec::new(); a.num_labels()];
        for q in 0..a.num_states() {
            for &(label, target) in a.transitions_from(q) {
                by_label[label].push((q, target));
            }
        }
        TransitionsByLabel(by_label)
    }

    /// Append to `out` the states, ascending, that read a node labelled
    /// `label` whose children are read by the states in `children` (one
    /// ascending list per child).
    fn reading_states(&self, label: usize, children: &[&[usize]], out: &mut Vec<usize>) {
        for &(q, target) in &self.0[label] {
            if out.last() != Some(&q) && target.fires(children, reads) {
                out.push(q);
            }
        }
    }
}

/// One component of the union defining `L(t, q)`.
struct Component {
    label: usize,
    target: TransitionTarget,
    weight: f64,
}

/// The components of `L(t, q)` at a node with the given children, weighted
/// by the child estimates computed so far.
fn components_of(
    a: &TreeAutomaton,
    children: &[usize],
    info: &[HashMap<usize, NodeStateInfo>],
    q: usize,
) -> Vec<Component> {
    let mut components: Vec<Component> = Vec::new();
    for &(label, target) in a.transitions_from(q) {
        if target.child_states().count() != children.len() {
            continue;
        }
        // The product of the child estimates (1 at a leaf).
        let weight: f64 = target
            .child_states()
            .zip(children)
            .map(|(q1, &c)| info[c].get(&q1).map_or(0.0, |i| i.estimate))
            .product();
        if weight > 0.0 {
            components.push(Component {
                label,
                target,
                weight,
            });
        }
    }
    components
}

/// Approximately count the labellings of `shape` accepted by `a`
/// (`|{ψ : (shape, ψ) accepted}|`), i.e. the `N`-slice restricted to this
/// shape — which for the Lemma 52 automata equals `|L_N(A)| = |Ans(ϕ, D)|`.
///
/// Deterministic and parallel. Tree nodes are processed
/// bottom-up (a genuine sequential dependency: a node's component weights
/// and sample pools come from its children), but within a node every state
/// `q` is independent and is fanned out over `runtime`. State `q` at node
/// `t` draws all of its randomness from the private RNG stream
/// `split_seed2(seed, t, q)`, so the result is **bit-identical for 1, 2,
/// or N threads** — parallelism changes only which thread happens to run a
/// state, never the draws that state makes.
pub fn approx_count_fixed_shape_seeded(
    a: &TreeAutomaton,
    shape: &TreeShape,
    config: &TaApproxConfig,
    seed: u64,
    runtime: &Runtime,
) -> f64 {
    let order = shape.postorder();
    // info[t]: state → (estimate, samples)
    let mut info: Vec<HashMap<usize, NodeStateInfo>> = vec![HashMap::new(); shape.num_nodes()];

    // Which states can possibly start a run at some node? Restrict attention
    // to states appearing on the left of some transition.
    let states_with_transitions: Vec<usize> = (0..a.num_states())
        .filter(|&q| !a.transitions_from(q).is_empty())
        .collect();
    let by_label = TransitionsByLabel::new(a);

    for &t in &order {
        let children = shape.children(t);
        let entries: Vec<Option<(usize, NodeStateInfo)>> =
            runtime.par_map(&states_with_transitions, |_, &q| {
                let components = components_of(a, children, &info, q);
                if components.is_empty() {
                    return None;
                }
                let mut rng = StdRng::seed_from_u64(split_seed2(seed, t as u64, q as u64));
                let entry = estimate_union(
                    a,
                    &by_label,
                    shape,
                    t,
                    children,
                    &info,
                    &components,
                    config,
                    &mut rng,
                );
                (entry.estimate > 0.0).then_some((q, entry))
            });
        for (q, entry) in entries.into_iter().flatten() {
            info[t].insert(q, entry);
        }
    }

    info[shape.root()]
        .get(&a.initial())
        .map(|i| i.estimate)
        .unwrap_or(0.0)
}

/// Karp–Luby estimation of `|∪ components|` plus rejection sampling of a pool
/// of (approximately) uniform members.
#[allow(clippy::too_many_arguments)]
fn estimate_union<R: Rng>(
    a: &TreeAutomaton,
    by_label: &TransitionsByLabel,
    shape: &TreeShape,
    node: usize,
    children: &[usize],
    info: &[HashMap<usize, NodeStateInfo>],
    components: &[Component],
    config: &TaApproxConfig,
    rng: &mut R,
) -> NodeStateInfo {
    let total: f64 = components.iter().map(|c| c.weight).sum();
    // Make a drawn labelling a pooled sample: append the ascending list of
    // the states that read its subtree at `node`, from its label there and
    // the lists of the child samples it was drawn from.
    let mut reading = Vec::new();
    let mut pooled = |mut labeling: Vec<usize>, picked: &[&[usize]]| {
        reading.clear();
        by_label.reading_states(labeling[node], picked, &mut reading);
        debug_assert_eq!(
            reading,
            a.reachable_states(shape, &labeling, node)
                .iter()
                .enumerate()
                .filter_map(|(q, &reads)| reads.then_some(q))
                .collect::<Vec<_>>(),
            "carried states at node {node}"
        );
        labeling.reserve_exact(reading.len());
        labeling.extend_from_slice(&reading);
        labeling
    };

    // Single component: no overlap possible; the estimate is exact relative to
    // the child estimates and sampling is direct. This covers the join and
    // forget nodes of the Lemma 52 automata, keeping the variance low.
    if components.len() == 1 {
        let c = &components[0];
        let mut samples = Vec::with_capacity(config.sample_pool);
        for _ in 0..config.sample_pool {
            if let Some((labeling, picked)) =
                draw_from_component(shape, node, children, info, c, rng)
            {
                let picked = &picked[..children.len()];
                samples.push(pooled(labeling, picked));
            }
        }
        return NodeStateInfo {
            estimate: c.weight,
            samples,
        };
    }

    let trials = config.trials(components.len());
    let mut canonical = 0usize;
    let mut pool: Vec<Vec<usize>> = Vec::new();
    for _ in 0..trials {
        // pick a component proportional to weight
        let mut pick = rng.gen::<f64>() * total;
        let mut idx = 0;
        for (i, c) in components.iter().enumerate() {
            if pick < c.weight {
                idx = i;
                break;
            }
            pick -= c.weight;
            idx = i;
        }
        let Some((labeling, picked)) =
            draw_from_component(shape, node, children, info, &components[idx], rng)
        else {
            continue;
        };
        let picked = &picked[..children.len()];
        // canonical test: idx is the first component containing the labelling
        let first = components
            .iter()
            .position(|c| membership(c, labeling[node], picked));
        if first == Some(idx) {
            canonical += 1;
            if pool.len() < config.sample_pool {
                pool.push(pooled(labeling, picked));
            }
        }
    }
    let p = canonical as f64 / trials as f64;
    NodeStateInfo {
        estimate: total * p,
        samples: pool,
    }
}

/// Draw a labelling of the subtree rooted at `node` from the given component
/// (uniformly, relative to the child sample pools), together with the
/// carried state lists of the child samples it was drawn from, in child
/// order. Returns `None` if a needed child sample pool is empty.
fn draw_from_component<'a, R: Rng>(
    shape: &TreeShape,
    node: usize,
    children: &[usize],
    info: &'a [HashMap<usize, NodeStateInfo>],
    component: &Component,
    rng: &mut R,
) -> Option<(Vec<usize>, [&'a [usize]; 2])> {
    // Check every child pool before drawing, so a failed draw uses no
    // randomness.
    let pools: Option<Vec<&Vec<Vec<usize>>>> = component
        .target
        .child_states()
        .zip(children)
        .map(|(q1, &c)| {
            info[c]
                .get(&q1)
                .map(|i| &i.samples)
                .filter(|s| !s.is_empty())
        })
        .collect();
    let n = shape.num_nodes();
    let mut labeling = vec![0usize; n];
    labeling[node] = component.label;
    let mut picked: [&[usize]; 2] = [&[], &[]];
    for ((samples, &c), slot) in pools?.into_iter().zip(children).zip(&mut picked) {
        let s = &samples[rng.gen_range(0..samples.len())];
        for u in shape.subtree(c) {
            labeling[u] = s[u];
        }
        *slot = &s[n..];
    }
    Some((labeling, picked))
}

/// Is a labelling with `label` at the node, whose children are read by the
/// states in `children` (one ascending list per child), a member of the
/// component's set?
fn membership(component: &Component, label: usize, children: &[&[usize]]) -> bool {
    label == component.label && component.target.fires(children, reads)
}

/// Does the ascending state list contain `q`?
fn reads(list: &&[usize], q: usize) -> bool {
    list.binary_search(&q).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_labelings_fixed_shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: &TreeAutomaton, shape: &TreeShape, seed: u64) -> f64 {
        let root_seed = StdRng::seed_from_u64(seed).gen();
        let config = TaApproxConfig::new(0.2, 0.05);
        approx_count_fixed_shape_seeded(a, shape, &config, root_seed, &Runtime::serial())
    }

    #[test]
    fn deterministic_automaton_is_counted_exactly() {
        let (a, _) = TreeAutomaton::all_zero_labels();
        let shape = TreeShape::new(vec![vec![1, 2], vec![], vec![3], vec![]], 0);
        assert_eq!(approx(&a, &shape, 1), 1.0);
    }

    #[test]
    fn empty_language_gives_zero() {
        let a = TreeAutomaton::new(2, 2, 0);
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        assert_eq!(approx(&a, &shape, 2), 0.0);
    }

    /// Root delegates to state 1 or 2 with heavy overlap on leaves.
    fn overlapping_automaton() -> (TreeAutomaton, TreeShape) {
        let mut a = TreeAutomaton::new(3, 4, 0);
        a.add_transition(0, 0, TransitionTarget::Unary(1));
        a.add_transition(0, 0, TransitionTarget::Unary(2));
        for label in 0..4 {
            a.add_transition(1, label, TransitionTarget::Leaf);
        }
        for label in 0..3 {
            a.add_transition(2, label, TransitionTarget::Leaf);
        }
        (a, TreeShape::new(vec![vec![1], vec![]], 0))
    }

    /// The root reads label 0 and each leaf reads any of several labels
    /// depending on the delegated state; components overlap substantially.
    fn binary_automaton() -> (TreeAutomaton, TreeShape) {
        let mut a = TreeAutomaton::new(4, 5, 0);
        a.add_transition(0, 0, TransitionTarget::Binary(1, 2));
        a.add_transition(0, 0, TransitionTarget::Binary(2, 3));
        for label in 0..3 {
            a.add_transition(1, label, TransitionTarget::Leaf);
        }
        for label in 1..5 {
            a.add_transition(2, label, TransitionTarget::Leaf);
        }
        for label in 2..4 {
            a.add_transition(3, label, TransitionTarget::Leaf);
        }
        (a, TreeShape::new(vec![vec![1, 2], vec![], vec![]], 0))
    }

    /// Parity-style automaton with some nondeterminism: accepts chains of
    /// length 4 with labels in {0,1} at even positions and {0} at odd.
    fn chain_automaton() -> (TreeAutomaton, TreeShape) {
        let mut a = TreeAutomaton::new(2, 2, 0);
        a.add_transition(0, 0, TransitionTarget::Unary(1));
        a.add_transition(0, 1, TransitionTarget::Unary(1));
        a.add_transition(1, 0, TransitionTarget::Unary(0));
        a.add_transition(1, 0, TransitionTarget::Leaf);
        (
            a,
            TreeShape::new(vec![vec![1], vec![2], vec![3], vec![]], 0),
        )
    }

    #[test]
    fn overlapping_unions_are_not_double_counted() {
        let (a, shape) = overlapping_automaton();
        let exact = count_labelings_fixed_shape(&a, &shape) as f64; // 4, not 7
        assert_eq!(exact, 4.0);
        let est = approx(&a, &shape, 3);
        assert!(
            (est - exact).abs() <= 0.25 * exact,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn nondeterministic_binary_automaton_close_to_exact() {
        let (a, shape) = binary_automaton();
        let exact = count_labelings_fixed_shape(&a, &shape) as f64;
        assert!(exact > 0.0);
        let est = approx(&a, &shape, 4);
        assert!(
            (est - exact).abs() <= 0.25 * exact,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn deeper_tree_with_unary_chains() {
        let (a, chain) = chain_automaton();
        let exact = count_labelings_fixed_shape(&a, &chain) as f64;
        let est = approx(&a, &chain, 5);
        assert!(
            (est - exact).abs() <= 0.25 * exact.max(1.0),
            "estimate {est} vs exact {exact}"
        );
    }

    /// The estimates are pinned bit for bit: the component order (the order
    /// of `transitions_from`) decides which RNG draw goes where, so any
    /// reordering of the transition index changes these bits.
    #[test]
    fn estimates_are_pinned_bit_for_bit() {
        let cases = [
            (overlapping_automaton(), 3, 0x4010_317e_4b17_e4b2_u64), // ≈ 4.0483
            (overlapping_automaton(), 11, 0x4010_6d3a_06d3_a06d),    // ≈ 4.1067
            (binary_automaton(), 4, 0x402f_2222_2222_2222),          // ≈ 15.567
            (binary_automaton(), 12, 0x402e_0000_0000_0000),         // 15
            (chain_automaton(), 5, 0x4010_0000_0000_0000),           // 4
            (chain_automaton(), 13, 0x4010_0000_0000_0000),          // 4
        ];
        for ((a, shape), seed, bits) in cases {
            let est = approx(&a, &shape, seed);
            assert_eq!(est.to_bits(), bits, "seed {seed}: estimate {est}");
        }
    }
}
