//! Tree decompositions (Definition 4) and nice tree decompositions
//! (Definition 42).

use crate::hypergraph::Hypergraph;
use std::collections::BTreeSet;

/// A (rooted) tree decomposition `(T, B)` of a hypergraph (Definition 4).
///
/// Nodes are indexed `0..num_nodes`; each node has a *bag* `B_t ⊆ V(H)`.
/// The two defining conditions are checked by [`TreeDecomposition::validate`]:
///
/// 1. for each hyperedge `e ∈ E(H)` there is a node `t` with `e ⊆ B_t`, and
/// 2. for each vertex `v ∈ V(H)` the set `{t | v ∈ B_t}` induces a non-empty
///    connected subtree of `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    bags: Vec<BTreeSet<usize>>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    root: usize,
}

impl TreeDecomposition {
    /// A decomposition with a single bag (usually the trivial decomposition
    /// containing all vertices); further nodes are attached with
    /// [`TreeDecomposition::add_child`].
    pub fn single_bag(bag: BTreeSet<usize>) -> Self {
        TreeDecomposition {
            bags: vec![bag],
            parent: vec![None],
            children: vec![vec![]],
            root: 0,
        }
    }

    /// Add a node with the given bag as a child of `parent`, returning the
    /// new node's id.
    pub fn add_child(&mut self, parent: usize, bag: BTreeSet<usize>) -> usize {
        assert!(parent < self.bags.len());
        let id = self.bags.len();
        self.bags.push(bag);
        self.parent.push(Some(parent));
        self.children.push(vec![]);
        self.children[parent].push(id);
        id
    }

    /// Number of nodes `|V(T)|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.bags.len()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// The bag `B_t`.
    #[inline]
    pub fn bag(&self, t: usize) -> &BTreeSet<usize> {
        &self.bags[t]
    }

    /// All bags, indexed by node.
    #[inline]
    pub fn bags(&self) -> &[BTreeSet<usize>] {
        &self.bags
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, t: usize) -> &[usize] {
        &self.children[t]
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, t: usize) -> Option<usize> {
        self.parent[t]
    }

    /// The treewidth of this decomposition: `max_t |B_t| − 1` (Definition 4).
    pub fn width(&self) -> isize {
        self.bags
            .iter()
            .map(|b| b.len() as isize - 1)
            .max()
            .unwrap_or(-1)
    }

    /// Nodes in post-order (children before parents), useful for bottom-up
    /// dynamic programming.
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![(self.root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                order.push(t);
            } else {
                stack.push((t, true));
                for &c in &self.children[t] {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Validate this decomposition against a hypergraph (Definition 4), also
    /// requiring every vertex of `h` to appear in at least one bag.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        // Tree structure sanity.
        if self.parent[self.root].is_some() {
            return Err("root has a parent".into());
        }
        let mut reached = vec![false; self.num_nodes()];
        for t in self.postorder() {
            reached[t] = true;
        }
        if reached.iter().any(|r| !r) {
            return Err("tree is not connected from the root".into());
        }
        // Condition (i): every hyperedge inside some bag.
        for (i, e) in h.edges().iter().enumerate() {
            if !self.bags.iter().any(|b| e.is_subset(b)) {
                return Err(format!("hyperedge #{i} {:?} is in no bag", e));
            }
        }
        // Every vertex appears somewhere.
        for v in h.vertices() {
            if !self.bags.iter().any(|b| b.contains(&v)) {
                return Err(format!("vertex {v} is in no bag"));
            }
        }
        // Condition (ii): connectivity of each vertex's occurrence set.
        for v in h.vertices() {
            let nodes: Vec<usize> = (0..self.num_nodes())
                .filter(|&t| self.bags[t].contains(&v))
                .collect();
            if nodes.is_empty() {
                continue;
            }
            // BFS within the occurrence-induced subtree.
            let occurrence: BTreeSet<usize> = nodes.iter().copied().collect();
            let mut seen = BTreeSet::new();
            let mut stack = vec![nodes[0]];
            seen.insert(nodes[0]);
            while let Some(t) = stack.pop() {
                let mut adjacent: Vec<usize> = self.children[t].clone();
                if let Some(p) = self.parent[t] {
                    adjacent.push(p);
                }
                for a in adjacent {
                    if occurrence.contains(&a) && seen.insert(a) {
                        stack.push(a);
                    }
                }
            }
            if seen.len() != nodes.len() {
                return Err(format!("occurrences of vertex {v} are not connected"));
            }
        }
        Ok(())
    }

    /// Contract edges of the tree whose endpoints carry identical bags
    /// (removing redundant nodes). Returns a new decomposition.
    pub fn contract_equal_bags(&self) -> TreeDecomposition {
        // Union-find style: map each node to a representative whose bag differs
        // from its parent's representative.
        let order = self.postorder();
        let mut repr: Vec<usize> = (0..self.num_nodes()).collect();
        // process top-down so parents are resolved first
        let mut topdown = order.clone();
        topdown.reverse();
        for &t in &topdown {
            if let Some(p) = self.parent[t] {
                if self.bags[t] == self.bags[repr[p]] {
                    repr[t] = repr[p];
                }
            }
        }
        // Build new tree over representatives.
        let reps: Vec<usize> = {
            let mut r: Vec<usize> = repr.clone();
            r.sort_unstable();
            r.dedup();
            r
        };
        // Sorted map: node renumbering must stay independent of hash
        // order (the `hash-iter` rule — decomposition shape reaches
        // every oracle call and therefore every estimate).
        let new_id: std::collections::BTreeMap<usize, usize> =
            reps.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut out = TreeDecomposition {
            bags: reps.iter().map(|&r| self.bags[r].clone()).collect(),
            parent: vec![None; reps.len()],
            children: vec![vec![]; reps.len()],
            root: new_id[&repr[self.root]],
        };
        for &t in &topdown {
            if let Some(p) = self.parent[t] {
                let rt = new_id[&repr[t]];
                let rp = new_id[&repr[p]];
                if rt != rp && out.parent[rt].is_none() && rt != out.root {
                    out.parent[rt] = Some(rp);
                    out.children[rp].push(rt);
                }
            }
        }
        out
    }

    /// Convert into a *nice* tree decomposition (Definition 42):
    /// empty root and leaf bags, at most two children per node, join nodes
    /// with equal bags and chain nodes differing in exactly one element.
    pub fn into_nice(&self) -> NiceTreeDecomposition {
        let contracted = self.contract_equal_bags();
        let mut builder = NiceBuilder::new();
        let root_bag = contracted.bag(contracted.root()).clone();
        // New root with an empty bag, then a chain introducing the root bag.
        let new_root = builder.push(BTreeSet::new(), None);
        let attach = builder.chain(new_root, &BTreeSet::new(), &root_bag);
        builder.process(&contracted, contracted.root(), attach);
        builder.finish(new_root)
    }
}

/// A nice tree decomposition (Definition 42): empty root and leaf bags, at
/// most two children per node, join nodes whose children carry their bag,
/// and chain nodes that add or remove exactly one vertex relative to their
/// child. Outside this crate only [`TreeDecomposition::into_nice`] builds
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct NiceTreeDecomposition {
    /// The underlying decomposition.
    pub td: TreeDecomposition,
}

impl NiceTreeDecomposition {
    /// Validate the niceness conditions of Definition 42.
    pub fn validate_nice(&self) -> Result<(), String> {
        let td = &self.td;
        if !td.bag(td.root()).is_empty() {
            return Err("root bag is not empty".into());
        }
        for t in 0..td.num_nodes() {
            let ch = td.children(t);
            match ch.len() {
                0 => {
                    if !td.bag(t).is_empty() {
                        return Err(format!("leaf {t} has a non-empty bag"));
                    }
                }
                1 => {
                    let c = ch[0];
                    let diff: BTreeSet<usize> =
                        td.bag(t).symmetric_difference(td.bag(c)).copied().collect();
                    if diff.len() != 1 {
                        return Err(format!(
                            "node {t} and its child differ in {} elements",
                            diff.len()
                        ));
                    }
                }
                2 => {
                    if td.bag(ch[0]) != td.bag(t) || td.bag(ch[1]) != td.bag(t) {
                        return Err(format!("join node {t} has unequal child bags"));
                    }
                }
                k => return Err(format!("node {t} has {k} > 2 children")),
            }
        }
        Ok(())
    }
}

struct NiceBuilder {
    bags: Vec<BTreeSet<usize>>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl NiceBuilder {
    fn new() -> Self {
        NiceBuilder {
            bags: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
        }
    }

    fn push(&mut self, bag: BTreeSet<usize>, parent: Option<usize>) -> usize {
        let id = self.bags.len();
        self.bags.push(bag);
        self.parent.push(parent);
        self.children.push(vec![]);
        if let Some(p) = parent {
            self.children[p].push(id);
        }
        id
    }

    /// Create a chain of nodes from bag `from` (already existing at
    /// `attach`) towards bag `to`, removing `from ∖ to` one vertex at a time
    /// and then adding `to ∖ from` one at a time. Returns the id of the final
    /// node (which has bag `to`). If `from == to`, `attach` itself is
    /// returned.
    fn chain(&mut self, attach: usize, from: &BTreeSet<usize>, to: &BTreeSet<usize>) -> usize {
        let mut current = from.clone();
        let mut at = attach;
        for v in from.difference(to) {
            current.remove(v);
            at = self.push(current.clone(), Some(at));
        }
        for v in to.difference(from) {
            current.insert(*v);
            at = self.push(current.clone(), Some(at));
        }
        at
    }

    /// Recursively translate the subtree of `old` rooted at `t`; `attach` is a
    /// node of the new tree whose bag equals `old.bag(t)`.
    fn process(&mut self, old: &TreeDecomposition, t: usize, attach: usize) {
        let children = old.children(t);
        let bag_t = old.bag(t).clone();
        match children.len() {
            0 => {
                // chain down to an empty leaf
                self.chain(attach, &bag_t, &BTreeSet::new());
            }
            1 => {
                let c = children[0];
                let target = old.bag(c).clone();
                let at = self.chain(attach, &bag_t, &target);
                self.process(old, c, at);
            }
            _ => {
                // Binary join tree over copies of bag_t with one leaf per child.
                let leaves = self.join_tree(attach, &bag_t, children.len());
                for (leaf, &c) in leaves.iter().zip(children.iter()) {
                    let target = old.bag(c).clone();
                    let at = self.chain(*leaf, &bag_t, &target);
                    self.process(old, c, at);
                }
            }
        }
    }

    /// Build a (nearly complete) binary tree of `k` leaves below `attach`,
    /// all nodes carrying `bag`. Returns the leaf ids.
    fn join_tree(&mut self, attach: usize, bag: &BTreeSet<usize>, k: usize) -> Vec<usize> {
        assert!(k >= 2);
        let mut frontier = vec![attach];
        // repeatedly split until we have k leaves
        while frontier.len() < k {
            // take the first frontier node, give it two children
            let node = frontier.remove(0);
            let l = self.push(bag.clone(), Some(node));
            let r = self.push(bag.clone(), Some(node));
            frontier.push(l);
            frontier.push(r);
        }
        frontier
    }

    fn finish(self, root: usize) -> NiceTreeDecomposition {
        NiceTreeDecomposition {
            td: TreeDecomposition {
                bags: self.bags,
                parent: self.parent,
                children: self.children,
                root,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[usize]) -> BTreeSet<usize> {
        v.iter().copied().collect()
    }

    fn path_decomposition() -> (Hypergraph, TreeDecomposition) {
        // path 0-1-2-3, decomposition bags {0,1},{1,2},{2,3} as a path
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let mut td = TreeDecomposition::single_bag(set(&[0, 1]));
        let a = td.add_child(0, set(&[1, 2]));
        td.add_child(a, set(&[2, 3]));
        (h, td)
    }

    #[test]
    fn valid_path_decomposition() {
        let (h, td) = path_decomposition();
        assert!(td.validate(&h).is_ok());
        assert_eq!(td.width(), 1);
        assert_eq!(td.num_nodes(), 3);
        assert_eq!(td.postorder().len(), 3);
        assert_eq!(td.parent(0), None);
        assert_eq!(td.children(0).len(), 1);
    }

    #[test]
    fn missing_edge_detected() {
        let h = Hypergraph::from_edges(3, &[&[0, 1], &[0, 2]]);
        let td = TreeDecomposition::single_bag(set(&[0, 1]));
        let err = td.validate(&h).unwrap_err();
        assert!(err.contains("in no bag"));
    }

    #[test]
    fn missing_vertex_detected() {
        let h = Hypergraph::from_edges(3, &[&[0, 1]]);
        let td = TreeDecomposition::single_bag(set(&[0, 1]));
        // vertex 2 is isolated and in no bag
        assert!(td.validate(&h).is_err());
        let mut td2 = td.clone();
        td2.add_child(0, set(&[2]));
        assert!(td2.validate(&h).is_ok());
    }

    #[test]
    fn disconnected_occurrence_detected() {
        let h = Hypergraph::from_edges(3, &[&[0, 1], &[1, 2]]);
        // bags {0,1}, {1,2} and a bag {0} hanging off the {1,2} node: vertex 0
        // occurs in nodes 0 and 2 which are not adjacent — invalid.
        let mut td = TreeDecomposition::single_bag(set(&[0, 1]));
        let a = td.add_child(0, set(&[1, 2]));
        td.add_child(a, set(&[0]));
        // connectivity of vertex 0 fails: nodes {0, 2} with path through node 1 missing 0
        assert!(td.validate(&h).is_err());
    }

    #[test]
    fn trivial_single_bag_is_valid() {
        let h = Hypergraph::from_edges(3, &[&[0, 1, 2]]);
        let td = TreeDecomposition::single_bag(set(&[0, 1, 2]));
        assert!(td.validate(&h).is_ok());
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn contract_equal_bags_removes_duplicates() {
        let mut td = TreeDecomposition::single_bag(set(&[0, 1]));
        let a = td.add_child(0, set(&[0, 1]));
        let b = td.add_child(a, set(&[1, 2]));
        td.add_child(b, set(&[1, 2]));
        let c = td.contract_equal_bags();
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.width(), 1);
    }

    #[test]
    fn contraction_renumbering_is_deterministic() {
        // Regression for the `hash-iter` conversion: node
        // renumbering walks a sorted map, so repeated contractions of one
        // tree are structurally identical (node ids included) — whatever
        // the process hash state.
        let mut td = TreeDecomposition::single_bag(set(&[0, 1]));
        let mut prev = 0;
        for i in 0..12usize {
            let lo = i / 2;
            prev = td.add_child(prev, set(&[lo, lo + 1]));
        }
        let c1 = td.contract_equal_bags();
        let c2 = td.contract_equal_bags();
        assert_eq!(c1, c2);
        assert_eq!(c1.num_nodes(), 6);
        // ids follow first-occurrence order of the representatives
        for t in 1..c1.num_nodes() {
            assert!(c1.parent(t).unwrap() < t);
        }
    }

    #[test]
    fn nice_decomposition_of_path() {
        let (h, td) = path_decomposition();
        let nice = td.into_nice();
        assert!(nice.validate_nice().is_ok(), "{:?}", nice.validate_nice());
        assert!(nice.td.validate(&h).is_ok());
        // width must not increase
        assert_eq!(nice.td.width(), 1);
        // root bag empty
        assert!(nice.td.bag(nice.td.root()).is_empty());
    }

    #[test]
    fn nice_decomposition_with_branching() {
        // star: edges {0,1},{0,2},{0,3} with a star-shaped decomposition
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[0, 2], &[0, 3]]);
        let mut td = TreeDecomposition::single_bag(set(&[0, 1]));
        td.add_child(0, set(&[0, 2]));
        td.add_child(0, set(&[0, 3]));
        let nice = td.into_nice();
        assert!(nice.validate_nice().is_ok(), "{:?}", nice.validate_nice());
        assert!(nice.td.validate(&h).is_ok());
        assert_eq!(nice.td.width(), 1);
        // there must be at least one join node
        assert!((0..nice.td.num_nodes()).any(|t| nice.td.children(t).len() == 2));
    }

    #[test]
    fn nice_decomposition_high_branching() {
        // 5 children under one root bag
        let h = Hypergraph::from_edges(6, &[&[0, 1], &[0, 2], &[0, 3], &[0, 4], &[0, 5]]);
        let mut td = TreeDecomposition::single_bag(set(&[0]));
        for v in 1..6 {
            td.add_child(0, set(&[0, v]));
        }
        let nice = td.into_nice();
        assert!(nice.validate_nice().is_ok(), "{:?}", nice.validate_nice());
        assert!(nice.td.validate(&h).is_ok());
        assert_eq!(nice.td.width(), 1);
    }

    #[test]
    fn nice_preserves_validity_on_larger_example() {
        // grid-ish hypergraph with a handmade decomposition
        let h = Hypergraph::from_edges(
            6,
            &[
                &[0, 1],
                &[1, 2],
                &[3, 4],
                &[4, 5],
                &[0, 3],
                &[1, 4],
                &[2, 5],
            ],
        );
        let mut td = TreeDecomposition::single_bag(set(&[0, 1, 3, 4]));
        let a = td.add_child(0, set(&[1, 2, 4, 5]));
        let _ = a;
        assert!(td.validate(&h).is_ok());
        let nice = td.into_nice();
        assert!(nice.validate_nice().is_ok());
        assert!(nice.td.validate(&h).is_ok());
        assert_eq!(nice.td.width(), 3);
    }

    #[test]
    fn postorder_children_before_parents() {
        let (_, td) = path_decomposition();
        let order = td.postorder();
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        for t in 0..td.num_nodes() {
            for &c in td.children(t) {
                assert!(pos(c) < pos(t));
            }
        }
    }
}
