//! Finite hypergraphs.

use std::collections::BTreeSet;

/// A finite hypergraph `H = (V(H), E(H))` with `V(H) = {0, .., n-1}` and
/// `E(H)` a set of non-empty hyperedges (paper, Section 1.2).
///
/// The *arity* of a hypergraph is the maximum size of its hyperedges.
/// Duplicate hyperedges are collapsed; empty hyperedges are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    num_vertices: usize,
    edges: Vec<BTreeSet<usize>>,
}

impl Hypergraph {
    /// Create a hypergraph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        Hypergraph {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Create a hypergraph from explicit edges.
    ///
    /// # Panics
    /// Panics if an edge is empty or references a vertex out of range.
    pub fn from_edges(num_vertices: usize, edges: &[&[usize]]) -> Self {
        let mut h = Hypergraph::new(num_vertices);
        for e in edges {
            h.add_edge(e);
        }
        h
    }

    /// Number of vertices `|V(H)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (distinct) hyperedges `|E(H)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over the vertices.
    pub fn vertices(&self) -> impl Iterator<Item = usize> {
        0..self.num_vertices
    }

    /// The hyperedges.
    #[inline]
    pub fn edges(&self) -> &[BTreeSet<usize>] {
        &self.edges
    }

    /// Add a hyperedge; duplicate edges are ignored. Returns `true` if the
    /// edge was new.
    ///
    /// # Panics
    /// Panics if the edge is empty or out of range.
    pub fn add_edge(&mut self, vertices: &[usize]) -> bool {
        assert!(!vertices.is_empty(), "hyperedges must be non-empty");
        let e: BTreeSet<usize> = vertices.iter().copied().collect();
        for &v in &e {
            assert!(
                v < self.num_vertices,
                "vertex {v} out of range (|V| = {})",
                self.num_vertices
            );
        }
        if self.edges.contains(&e) {
            false
        } else {
            self.edges.push(e);
            true
        }
    }

    /// The arity of `H`: the maximum hyperedge cardinality (0 if no edges).
    pub fn arity(&self) -> usize {
        self.edges.iter().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// The hyperedges containing vertex `v`.
    pub fn edges_containing(&self, v: usize) -> Vec<&BTreeSet<usize>> {
        self.edges.iter().filter(|e| e.contains(&v)).collect()
    }

    /// The (primal-graph) neighbours of `v`: vertices sharing a hyperedge
    /// with `v`, excluding `v` itself.
    pub fn neighbours(&self, v: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for e in &self.edges {
            if e.contains(&v) {
                out.extend(e.iter().copied());
            }
        }
        out.remove(&v);
        out
    }

    /// The primal graph (Gaifman graph) as an adjacency list: two vertices
    /// are adjacent iff some hyperedge contains both.
    pub fn primal_graph(&self) -> Vec<BTreeSet<usize>> {
        let mut adj = vec![BTreeSet::new(); self.num_vertices];
        for e in &self.edges {
            let vs: Vec<usize> = e.iter().copied().collect();
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    adj[vs[i]].insert(vs[j]);
                    adj[vs[j]].insert(vs[i]);
                }
            }
        }
        adj
    }

    /// The induced hypergraph `H[X]` (Definition 39): vertex set `X`,
    /// hyperedges `{ e ∩ X | e ∈ E(H), e ∩ X ≠ ∅ }`.
    ///
    /// Vertices of the induced hypergraph are *renumbered* `0..|X|` following
    /// the sorted order of `X`; the second return value maps new indices back
    /// to original vertices.
    pub fn induced(&self, x: &BTreeSet<usize>) -> (Hypergraph, Vec<usize>) {
        let back: Vec<usize> = x.iter().copied().collect();
        let fwd: std::collections::HashMap<usize, usize> =
            back.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut h = Hypergraph::new(back.len());
        for e in &self.edges {
            let inter: Vec<usize> = e.iter().filter_map(|v| fwd.get(v).copied()).collect();
            if !inter.is_empty() {
                h.add_edge(&inter);
            }
        }
        (h, back)
    }

    /// Whether the hypergraph is connected (ignoring isolated vertices is
    /// *not* done: an isolated vertex makes the hypergraph disconnected
    /// unless it is the only vertex).
    pub fn is_connected(&self) -> bool {
        if self.num_vertices <= 1 {
            return true;
        }
        let adj = self.primal_graph();
        let mut seen = vec![false; self.num_vertices];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.num_vertices
    }

    /// Whether vertex `v` is isolated (appears in no hyperedge).
    pub fn is_isolated(&self, v: usize) -> bool {
        self.edges.iter().all(|e| !e.contains(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Hypergraph {
        Hypergraph::from_edges(3, &[&[0, 1], &[1, 2]])
    }

    #[test]
    fn basic_accessors() {
        let h = path3();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.arity(), 2);
        assert_eq!(h.vertices().count(), 3);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut h = path3();
        assert!(!h.add_edge(&[1, 0]));
        assert_eq!(h.num_edges(), 2);
        assert!(h.add_edge(&[0, 2]));
        assert_eq!(h.num_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_edge_rejected() {
        let mut h = Hypergraph::new(2);
        h.add_edge(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_rejected() {
        let mut h = Hypergraph::new(2);
        h.add_edge(&[0, 5]);
    }

    #[test]
    fn neighbours_and_primal_graph() {
        let h = Hypergraph::from_edges(4, &[&[0, 1, 2], &[2, 3]]);
        assert_eq!(h.neighbours(2), [0, 1, 3].into_iter().collect());
        assert_eq!(h.neighbours(0), [1, 2].into_iter().collect());
        let adj = h.primal_graph();
        assert!(adj[3].contains(&2));
        assert!(!adj[3].contains(&0));
    }

    #[test]
    fn edges_containing_vertex() {
        let h = path3();
        assert_eq!(h.edges_containing(1).len(), 2);
        assert_eq!(h.edges_containing(0).len(), 1);
    }

    #[test]
    fn induced_subhypergraph() {
        let h = Hypergraph::from_edges(4, &[&[0, 1, 2], &[2, 3]]);
        let x: BTreeSet<usize> = [1, 2, 3].into_iter().collect();
        let (hi, back) = h.induced(&x);
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(hi.num_vertices(), 3);
        // edges: {1,2} ∩ X (from {0,1,2}) and {2,3} ∩ X
        assert_eq!(hi.num_edges(), 2);
        assert_eq!(hi.arity(), 2);
    }

    #[test]
    fn induced_empty_intersection_dropped() {
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[2, 3]]);
        let x: BTreeSet<usize> = [0, 1].into_iter().collect();
        let (hi, _) = h.induced(&x);
        assert_eq!(hi.num_edges(), 1);
    }

    #[test]
    fn connectivity() {
        assert!(path3().is_connected());
        let h = Hypergraph::from_edges(4, &[&[0, 1], &[2, 3]]);
        assert!(!h.is_connected());
        let single = Hypergraph::new(1);
        assert!(single.is_connected());
        let mut iso = Hypergraph::new(3);
        iso.add_edge(&[0, 1]);
        assert!(!iso.is_connected());
        assert!(iso.is_isolated(2));
        assert!(!iso.is_isolated(0));
    }

    #[test]
    fn arity_of_edgeless_hypergraph_is_zero() {
        let h = Hypergraph::new(5);
        assert_eq!(h.arity(), 0);
        assert_eq!(h.num_edges(), 0);
    }
}
