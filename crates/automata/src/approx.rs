//! Approximate counting of accepted labellings over a fixed tree shape, in
//! the style of Arenas–Croquevielle–Jayaram–Riveros (Lemma 51).
//!
//! For every tree node `t` (bottom-up) and every automaton state `q`, the
//! algorithm maintains an estimate of `|L(t, q)|` — the number of labellings
//! of the subtree rooted at `t` that admit a run starting from `q` — together
//! with a pool of (approximately) uniform samples from `L(t, q)`.
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
//! drawn labelling's subtree at `c`, and nothing else: a drawn labelling is
//! never read again (its label at the node is the drawn component's). So a
//! pooled sample is only the id of its *reading list*, the ascending list
//! of the states that read its subtree at its node, in that node's
//! list table. Once all states of a node are estimated, one sequential
//! step interns the pooled samples: each distinct (label, child sample ids)
//! gets its list computed once, from the label and the child lists, and
//! stored once. A Karp–Luby trial draws child sample ids and tests every
//! component against the child lists they name, allocating nothing and
//! never re-running the automaton over the subtree. Per-level error budgets
//! are set from `ε` and the tree size; see `docs/ARCHITECTURE.md`
//! (Substitutions) for the relation to ACJR's rigorous analysis.

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
    /// Pooled samples of `L(t, q)`, each the id of its reading list in
    /// `t`'s [`ListTable`].
    samples: Vec<u32>,
}

/// The reading lists of the samples pooled at one node, one per distinct
/// (label, child sample ids): list `i` is `states[ends[i - 1]..ends[i]]`
/// (from 0 for `i = 0`), the ascending states that read the subtree of the
/// samples naming it.
#[derive(Debug, Clone, Default)]
struct ListTable {
    states: Vec<u32>,
    ends: Vec<u32>,
}

impl ListTable {
    fn list(&self, id: u32) -> &[u32] {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.states[start as usize..self.ends[id] as usize]
    }

    /// Append the list `fill` writes and return its id.
    fn push(&mut self, fill: impl FnOnce(&mut Vec<u32>)) -> u32 {
        fill(&mut self.states);
        let end = u32::try_from(self.states.len()).expect("list table fits u32 offsets");
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }
}

/// A pooled sample before interning: its label at the node and the ids of
/// the child samples it was drawn from, in child order (unused slots 0).
type Drawn = (usize, [u32; 2]);

/// The reading lists named by child sample ids, in child order.
fn child_lists<'a>(children: &[usize], lists: &'a [ListTable], ids: [u32; 2]) -> [&'a [u32]; 2] {
    let mut out: [&[u32]; 2] = [&[], &[]];
    for ((slot, &c), id) in out.iter_mut().zip(children).zip(ids) {
        *slot = lists[c].list(id);
    }
    out
}

/// The transitions of an automaton as `(label, source, target)`, sorted
/// stably by label: the transitions reading one label are a run in
/// ascending source order, so a node's reading list comes out ascending
/// and deduplicated in one pass.
struct TransitionsByLabel(Vec<(usize, u32, TransitionTarget)>);

impl TransitionsByLabel {
    fn new(a: &TreeAutomaton) -> Self {
        let mut by_label: Vec<_> = a
            .transitions()
            .iter()
            .map(|&(q, label, target)| (label, q as u32, target))
            .collect();
        by_label.sort_by_key(|&(label, _, _)| label);
        TransitionsByLabel(by_label)
    }

    /// Append to `out` the states, ascending, that read a node labelled
    /// `label` whose children are read by the states in `children` (one
    /// ascending list per child).
    fn reading_states(&self, label: usize, children: &[&[u32]], out: &mut Vec<u32>) {
        let start = self.0.partition_point(|&(l, _, _)| l < label);
        let mut last = None;
        for &(_, q, target) in self.0[start..].iter().take_while(|t| t.0 == label) {
            if last != Some(q) && target.fires(children, reads) {
                out.push(q);
                last = Some(q);
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
    for &(_, label, target) in a.transitions_from(q) {
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
/// state, never the draws that state makes. The reading lists are interned
/// afterwards in state order, and their ids never reach an RNG.
pub fn approx_count_fixed_shape_seeded(
    a: &TreeAutomaton,
    shape: &TreeShape,
    config: &TaApproxConfig,
    seed: u64,
    runtime: &Runtime,
) -> f64 {
    let (info, _lists) = fill_pools(a, shape, config, seed, runtime);
    info[shape.root()]
        .get(&a.initial())
        .map_or(0.0, |i| i.estimate)
}

/// Estimate and pool every `(t, q)`, bottom-up. Returns `info[t]`, mapping
/// each state with a positive estimate to its estimate and samples, and
/// `lists[t]`, the reading lists the samples at `t` name.
fn fill_pools(
    a: &TreeAutomaton,
    shape: &TreeShape,
    config: &TaApproxConfig,
    seed: u64,
    runtime: &Runtime,
) -> (Vec<HashMap<usize, NodeStateInfo>>, Vec<ListTable>) {
    assert!(
        u32::try_from(a.num_states()).is_ok(),
        "too many states for u32 state ids"
    );
    let mut info: Vec<HashMap<usize, NodeStateInfo>> = vec![HashMap::new(); shape.num_nodes()];
    let mut lists = vec![ListTable::default(); shape.num_nodes()];

    // Which states can possibly start a run at some node? Restrict
    // attention to states appearing on the left of some transition.
    let states_with_transitions: Vec<usize> = (0..a.num_states())
        .filter(|&q| !a.transitions_from(q).is_empty())
        .collect();
    let by_label = TransitionsByLabel::new(a);

    for t in shape.postorder() {
        let children = shape.children(t);
        let entries = runtime.par_map(&states_with_transitions, |_, &q| {
            let components = components_of(a, children, &info, q);
            if components.is_empty() {
                return None;
            }
            let mut rng = StdRng::seed_from_u64(split_seed2(seed, t as u64, q as u64));
            let (estimate, drawn) =
                estimate_union(children, &info, &lists, &components, config, &mut rng);
            (estimate > 0.0).then_some((q, estimate, drawn))
        });
        // Intern the pooled samples' reading lists, in state order.
        let mut memo: HashMap<Drawn, u32> = HashMap::new();
        let mut table = ListTable::default();
        for (q, estimate, drawn) in entries.into_iter().flatten() {
            let samples = drawn
                .into_iter()
                .map(|(label, ids)| {
                    *memo.entry((label, ids)).or_insert_with(|| {
                        let picked = child_lists(children, &lists, ids);
                        let picked = &picked[..children.len()];
                        table.push(|out| by_label.reading_states(label, picked, out))
                    })
                })
                .collect();
            info[t].insert(q, NodeStateInfo { estimate, samples });
        }
        lists[t] = table;
    }
    (info, lists)
}

/// Karp–Luby estimation of `|∪ components|` plus rejection sampling of a
/// pool of (approximately) uniform members, each as its label and the ids
/// of the child samples it was drawn from.
fn estimate_union<R: Rng>(
    children: &[usize],
    info: &[HashMap<usize, NodeStateInfo>],
    lists: &[ListTable],
    components: &[Component],
    config: &TaApproxConfig,
    rng: &mut R,
) -> (f64, Vec<Drawn>) {
    let total: f64 = components.iter().map(|c| c.weight).sum();

    // Single component: no overlap possible; the estimate is exact relative to
    // the child estimates and sampling is direct. This covers the join and
    // forget nodes of the Lemma 52 automata, keeping the variance low.
    if components.len() == 1 {
        let c = &components[0];
        let mut pool = Vec::with_capacity(config.sample_pool);
        for _ in 0..config.sample_pool {
            if let Some(ids) = draw_from_component(children, info, c, rng) {
                pool.push((c.label, ids));
            }
        }
        return (c.weight, pool);
    }

    let trials = config.trials(components.len());
    let mut canonical = 0usize;
    let mut pool = Vec::new();
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
        let label = components[idx].label;
        let Some(ids) = draw_from_component(children, info, &components[idx], rng) else {
            continue;
        };
        let picked = child_lists(children, lists, ids);
        let picked = &picked[..children.len()];
        // canonical test: idx is the first component containing the sample
        let first = components.iter().position(|c| membership(c, label, picked));
        if first == Some(idx) {
            canonical += 1;
            if pool.len() < config.sample_pool {
                pool.push((label, ids));
            }
        }
    }
    let p = canonical as f64 / trials as f64;
    (total * p, pool)
}

/// Draw a member of the component's set, uniformly relative to the child
/// sample pools: one pooled sample per child, as its id in the child's
/// [`ListTable`], in child order (unused slots 0). Returns `None`, having
/// used no randomness, if a needed child pool is empty.
fn draw_from_component<R: Rng>(
    children: &[usize],
    info: &[HashMap<usize, NodeStateInfo>],
    component: &Component,
    rng: &mut R,
) -> Option<[u32; 2]> {
    let mut pools: [&[u32]; 2] = [&[], &[]];
    for ((slot, q1), &c) in pools
        .iter_mut()
        .zip(component.target.child_states())
        .zip(children)
    {
        *slot = info[c]
            .get(&q1)
            .map(|i| &i.samples[..])
            .filter(|s| !s.is_empty())?;
    }
    let mut ids = [0; 2];
    for (id, pool) in ids.iter_mut().zip(&pools[..children.len()]) {
        *id = pool[rng.gen_range(0..pool.len())];
    }
    Some(ids)
}

/// Is a sample with `label` at the node, whose children are read by the
/// states in `children` (one ascending list per child), a member of the
/// component's set?
fn membership(component: &Component, label: usize, children: &[&[u32]]) -> bool {
    label == component.label && component.target.fires(children, reads)
}

/// Does the ascending state list contain `q`?
fn reads(list: &&[u32], q: usize) -> bool {
    list.binary_search(&(q as u32)).is_ok()
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
        let a = TreeAutomaton::new(2, 2, 0, Vec::new());
        let shape = TreeShape::new(vec![vec![1], vec![]], 0);
        assert_eq!(approx(&a, &shape, 2), 0.0);
    }

    /// Root delegates to state 1 or 2 with heavy overlap on leaves.
    fn overlapping_automaton() -> (TreeAutomaton, TreeShape) {
        let mut transitions = vec![
            (0, 0, TransitionTarget::Unary(1)),
            (0, 0, TransitionTarget::Unary(2)),
        ];
        transitions.extend((0..4).map(|label| (1, label, TransitionTarget::Leaf)));
        transitions.extend((0..3).map(|label| (2, label, TransitionTarget::Leaf)));
        let a = TreeAutomaton::new(3, 4, 0, transitions);
        (a, TreeShape::new(vec![vec![1], vec![]], 0))
    }

    /// The root reads label 0 and each leaf reads any of several labels
    /// depending on the delegated state; components overlap substantially.
    fn binary_automaton() -> (TreeAutomaton, TreeShape) {
        let mut transitions = vec![
            (0, 0, TransitionTarget::Binary(1, 2)),
            (0, 0, TransitionTarget::Binary(2, 3)),
        ];
        transitions.extend((0..3).map(|label| (1, label, TransitionTarget::Leaf)));
        transitions.extend((1..5).map(|label| (2, label, TransitionTarget::Leaf)));
        transitions.extend((2..4).map(|label| (3, label, TransitionTarget::Leaf)));
        let a = TreeAutomaton::new(4, 5, 0, transitions);
        (a, TreeShape::new(vec![vec![1, 2], vec![], vec![]], 0))
    }

    /// Parity-style automaton with some nondeterminism: accepts chains of
    /// length 4 with labels in {0,1} at even positions and {0} at odd.
    fn chain_automaton() -> (TreeAutomaton, TreeShape) {
        let a = TreeAutomaton::new(
            2,
            2,
            0,
            vec![
                (0, 0, TransitionTarget::Unary(1)),
                (0, 1, TransitionTarget::Unary(1)),
                (1, 0, TransitionTarget::Unary(0)),
                (1, 0, TransitionTarget::Leaf),
            ],
        );
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

    /// The invariant the carried lists rest on, once checked per pooled
    /// sample by a debug assertion over the whole labelling: at every node
    /// of a labelled tree, the reading states computed from the node's label
    /// and its children's reachable states are the node's reachable states.
    #[test]
    fn reading_states_match_reachable_states() {
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..500 {
            let num_states = rng.gen_range(1..=4_usize);
            let num_labels = rng.gen_range(1..=3_usize);
            let transitions = (0..rng.gen_range(1..=12_usize))
                .map(|_| {
                    let q1 = rng.gen_range(0..num_states);
                    let q2 = rng.gen_range(0..num_states);
                    let target = match rng.gen_range(0..3) {
                        0 => TransitionTarget::Leaf,
                        1 => TransitionTarget::Unary(q1),
                        _ => TransitionTarget::Binary(q1, q2),
                    };
                    let q = rng.gen_range(0..num_states);
                    (q, rng.gen_range(0..num_labels), target)
                })
                .collect();
            let a = TreeAutomaton::new(num_states, num_labels, 0, transitions);
            let by_label = TransitionsByLabel::new(&a);
            let shapes = TreeShape::enumerate(rng.gen_range(1..=5_usize));
            let shape = &shapes[rng.gen_range(0..shapes.len())];
            let labels: Vec<usize> = (0..shape.num_nodes())
                .map(|_| rng.gen_range(0..num_labels))
                .collect();
            let reachable = |t: usize| -> Vec<u32> {
                let states = a.reachable_states(shape, &labels, t);
                (0..num_states as u32)
                    .filter(|&q| states[q as usize])
                    .collect()
            };
            for t in 0..shape.num_nodes() {
                let children: Vec<Vec<u32>> =
                    shape.children(t).iter().map(|&c| reachable(c)).collect();
                let children: Vec<&[u32]> = children.iter().map(Vec::as_slice).collect();
                // Appended after an earlier list, as in a `ListTable`.
                let mut out = vec![num_states as u32 - 1];
                by_label.reading_states(labels[t], &children, &mut out);
                assert_eq!(out[1..], reachable(t), "labels {labels:?} at node {t}");
            }
        }
    }

    /// Every state at node 1 reads the one label 1 over a leaf whose states
    /// all read label 0, as every state at the 2-path's `z` node does: its
    /// 144 pooled samples name one list, stored once. The estimate bits were
    /// computed when each sample carried its own copy of the list.
    #[test]
    fn shared_label_node_stores_one_list() {
        let transitions = vec![
            (0, 2, TransitionTarget::Unary(1)),
            (0, 2, TransitionTarget::Unary(2)),
            (0, 3, TransitionTarget::Unary(3)),
            (0, 3, TransitionTarget::Unary(2)),
            (1, 1, TransitionTarget::Unary(4)),
            (1, 1, TransitionTarget::Unary(5)),
            (2, 1, TransitionTarget::Unary(5)),
            (2, 1, TransitionTarget::Unary(6)),
            (3, 1, TransitionTarget::Unary(6)),
            (3, 1, TransitionTarget::Unary(7)),
            (4, 0, TransitionTarget::Leaf),
            (5, 0, TransitionTarget::Leaf),
            (6, 0, TransitionTarget::Leaf),
            (7, 0, TransitionTarget::Leaf),
        ];
        let a = TreeAutomaton::new(8, 4, 0, transitions);
        let shape = TreeShape::new(vec![vec![1], vec![2], vec![]], 0);
        for (seed, bits) in [
            (6, 0x4001_698a_4eea_9074_u64), // ≈ 2.1765, exact 2
            (14, 0x4001_38d2_144c_46d1),    // ≈ 2.1527
        ] {
            assert_eq!(approx(&a, &shape, seed).to_bits(), bits, "seed {seed}");
            let root_seed = StdRng::seed_from_u64(seed).gen();
            let config = TaApproxConfig::new(0.2, 0.05);
            let (info, lists) = fill_pools(&a, &shape, &config, root_seed, &Runtime::serial());
            let samples: usize = (1..=3).map(|q| info[1][&q].samples.len()).sum();
            assert_eq!(samples, 3 * config.sample_pool);
            assert_eq!(lists[1].ends.len(), 1);
            assert_eq!(lists[1].list(0), [1, 2, 3]);
            assert_eq!(lists[2].list(0), [4, 5, 6, 7]);
        }
    }
}
