//! Binary tree shapes and labelled trees (`Trees₂[Σ]`, Definition 49).

/// A rooted tree in which every node has at most two (ordered) children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    children: Vec<Vec<usize>>,
    root: usize,
}

impl TreeShape {
    /// Build a shape from per-node child lists and a root.
    ///
    /// # Panics
    /// Panics if a node has more than two children or the structure is not a
    /// tree rooted at `root`.
    pub fn new(children: Vec<Vec<usize>>, root: usize) -> Self {
        let n = children.len();
        assert!(root < n);
        let mut indeg = vec![0usize; n];
        for (t, ch) in children.iter().enumerate() {
            assert!(ch.len() <= 2, "node {t} has more than two children");
            for &c in ch {
                assert!(c < n);
                indeg[c] += 1;
            }
        }
        assert_eq!(indeg[root], 0, "root has a parent");
        assert!(
            indeg.iter().enumerate().all(|(t, &d)| d == 1 || t == root),
            "not a tree"
        );
        TreeShape { children, root }
    }

    /// A single-node shape.
    pub fn single() -> Self {
        TreeShape {
            children: vec![vec![]],
            root: 0,
        }
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The children of a node (0, 1 or 2 of them, ordered).
    pub fn children(&self, t: usize) -> &[usize] {
        &self.children[t]
    }

    /// Nodes in post-order (children before parents).
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

    /// The nodes of the subtree rooted at `t` (including `t`).
    pub fn subtree(&self, t: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            out.push(u);
            for &c in &self.children[u] {
                stack.push(c);
            }
        }
        out
    }

    /// Enumerate all tree shapes with exactly `n` nodes (used by the
    /// brute-force #TA counter; exponential, intended for tiny `n`).
    ///
    /// Nodes are numbered in a canonical preorder, so two structurally
    /// distinct shapes are never identified.
    pub fn enumerate(n: usize) -> Vec<TreeShape> {
        fn build(n: usize) -> Vec<Vec<Vec<usize>>> {
            // returns child-lists using local numbering 0..n with 0 as root (preorder)
            if n == 0 {
                return vec![];
            }
            if n == 1 {
                return vec![vec![vec![]]];
            }
            let mut out = Vec::new();
            // one child consuming n-1 nodes
            for sub in build(n - 1) {
                let mut children = vec![vec![1usize]];
                children.extend(shift(&sub, 1));
                out.push(children);
            }
            // two children consuming k and n-1-k nodes (both ≥ 1, ordered)
            for k in 1..(n - 1) {
                for left in build(k) {
                    for right in build(n - 1 - k) {
                        let mut children = vec![vec![1usize, 1 + k]];
                        children.extend(shift(&left, 1));
                        children.extend(shift(&right, 1 + k));
                        out.push(children);
                    }
                }
            }
            out
        }
        fn shift(children: &[Vec<usize>], offset: usize) -> Vec<Vec<usize>> {
            children
                .iter()
                .map(|ch| ch.iter().map(|c| c + offset).collect())
                .collect()
        }
        build(n)
            .into_iter()
            .map(|children| TreeShape::new(children, 0))
            .collect()
    }
}

/// A labelled binary tree `(T, ψ) ∈ Trees₂[Σ]`: a shape plus one label per
/// node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTree {
    /// The underlying shape `T`.
    pub shape: TreeShape,
    /// The labelling `ψ : V(T) → Σ` (labels are dense indices).
    pub labels: Vec<usize>,
}

impl LabeledTree {
    /// Create a labelled tree.
    pub fn new(shape: TreeShape, labels: Vec<usize>) -> Self {
        assert_eq!(labels.len(), shape.num_nodes());
        LabeledTree { shape, labels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accessors() {
        let s = TreeShape::new(vec![vec![1, 2], vec![], vec![3], vec![]], 0);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.root(), 0);
        assert_eq!(s.children(0), &[1, 2]);
        let post = s.postorder();
        assert_eq!(post.len(), 4);
        assert_eq!(*post.last().unwrap(), 0);
        assert_eq!(s.subtree(2), vec![2, 3]);
        assert_eq!(s.subtree(0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "more than two children")]
    fn three_children_rejected() {
        TreeShape::new(vec![vec![1, 2, 3], vec![], vec![], vec![]], 0);
    }

    #[test]
    #[should_panic(expected = "not a tree")]
    fn non_tree_rejected() {
        // node 2 has two parents
        TreeShape::new(vec![vec![1, 2], vec![2], vec![]], 0);
    }

    #[test]
    #[should_panic(expected = "root has a parent")]
    fn cycle_rejected() {
        TreeShape::new(vec![vec![1], vec![0]], 0);
    }

    #[test]
    fn enumerate_counts_motzkin_like_shapes() {
        // Number of rooted trees with ≤ 2 ordered children per node and n
        // nodes: 1, 1, 2, 4, 9, 21 (Motzkin numbers).
        assert_eq!(TreeShape::enumerate(1).len(), 1);
        assert_eq!(TreeShape::enumerate(2).len(), 1);
        assert_eq!(TreeShape::enumerate(3).len(), 2);
        assert_eq!(TreeShape::enumerate(4).len(), 4);
        assert_eq!(TreeShape::enumerate(5).len(), 9);
        assert_eq!(TreeShape::enumerate(6).len(), 21);
        // every enumerated shape is valid and has the right size
        for s in TreeShape::enumerate(5) {
            assert_eq!(s.num_nodes(), 5);
            assert_eq!(s.postorder().len(), 5);
        }
    }

    #[test]
    fn labelled_tree_construction() {
        let s = TreeShape::new(vec![vec![1], vec![]], 0);
        let t = LabeledTree::new(s, vec![0, 1]);
        assert_eq!(t.labels.len(), 2);
    }

    #[test]
    #[should_panic]
    fn labelled_tree_wrong_label_count() {
        let s = TreeShape::single();
        LabeledTree::new(s, vec![0, 1]);
    }
}
