//! Counting locally injective homomorphisms (the application of Corollary 6).
//!
//! A homomorphism `h : G → G'` is locally injective when it is injective on
//! every neighbourhood `N_G(v)`. The paper encodes this as the ECQ
//!
//! ```text
//! ϕ(x₁, …, x_k) = ⋀_{{i,j} ∈ E(G)} E(x_i, x_j)  ∧  ⋀_{(i,j) ∈ cn(G)} x_i ≠ x_j
//! ```
//!
//! where `cn(G)` is the set of pairs of distinct vertices with a common
//! neighbour; answers over `D(G')` are exactly the locally injective
//! homomorphisms. The hypergraph of `ϕ` is `G` itself (the disequalities add
//! no hyperedges), so bounded-treewidth patterns give an FPTRAS
//! (Corollary 6).

use crate::api::ApproxConfig;
use crate::engine::{Backend, EngineBuilder};
use crate::error::CoreError;
use crate::report::EstimateReport;
use cqc_data::{Structure, StructureBuilder};
use cqc_query::{Query, QueryBuilder};
use std::collections::BTreeSet;

/// A simple undirected pattern graph given by its vertex count and edge list.
#[derive(Debug, Clone)]
pub struct PatternGraph {
    /// Number of vertices (vertices are `0..n`).
    pub n: usize,
    /// Undirected edges.
    pub edges: Vec<(usize, usize)>,
}

impl PatternGraph {
    /// A path with `n` vertices.
    pub fn path(n: usize) -> Self {
        PatternGraph {
            n,
            edges: (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
        }
    }

    /// A cycle with `n ≥ 3` vertices.
    pub fn cycle(n: usize) -> Self {
        PatternGraph {
            n,
            edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        }
    }

    /// A star with `leaves` leaves (vertex 0 is the centre).
    pub fn star(leaves: usize) -> Self {
        PatternGraph {
            n: leaves + 1,
            edges: (1..=leaves).map(|i| (0, i)).collect(),
        }
    }

    /// The pairs of distinct vertices that share a common neighbour
    /// (`cn(G)` in the paper).
    pub fn common_neighbour_pairs(&self) -> Vec<(usize, usize)> {
        let mut adj = vec![BTreeSet::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u].insert(v);
            adj[v].insert(u);
        }
        let mut out = BTreeSet::new();
        for nbrs in &adj {
            let neigh: Vec<usize> = nbrs.iter().copied().collect();
            for i in 0..neigh.len() {
                for j in (i + 1)..neigh.len() {
                    out.insert((neigh[i].min(neigh[j]), neigh[i].max(neigh[j])));
                }
            }
        }
        out.into_iter().collect()
    }
}

/// Build the ECQ `ϕ(G)` of Corollary 6 for an undirected pattern graph.
/// The signature has a single binary symmetric relation `E`; one atom is
/// emitted per undirected pattern edge (the host database stores both
/// orientations, see [`host_graph_database`]).
pub fn locally_injective_query(pattern: &PatternGraph) -> Query {
    let mut b = QueryBuilder::new();
    let vars: Vec<_> = (0..pattern.n).map(|i| b.var(&format!("x{i}"))).collect();
    b.free(&vars);
    for &(u, v) in &pattern.edges {
        b.atom("E", &[vars[u], vars[v]]);
    }
    for (u, v) in pattern.common_neighbour_pairs() {
        b.disequality(vars[u], vars[v]);
    }
    b.build().expect("locally injective query is well-formed")
}

/// Build the database `D(G')` of Corollary 6 for an undirected host graph:
/// the relation `E` holds both orientations of every edge.
pub fn host_graph_database(n: usize, edges: &[(usize, usize)]) -> Structure {
    let mut b = StructureBuilder::new(n);
    b.relation("E", 2);
    for &(u, v) in edges {
        b.fact("E", &[u as u32, v as u32]).unwrap();
        b.fact("E", &[v as u32, u as u32]).unwrap();
    }
    b.build()
}

/// Approximately count the locally injective homomorphisms from `pattern`
/// into the host graph, using the FPTRAS of Theorem 5 (Corollary 6).
pub fn count_locally_injective_homomorphisms(
    pattern: &PatternGraph,
    host_n: usize,
    host_edges: &[(usize, usize)],
    config: &ApproxConfig,
) -> Result<EstimateReport, CoreError> {
    let query = locally_injective_query(pattern);
    let db = host_graph_database(host_n, host_edges);
    EngineBuilder::from_config(config.clone())
        .backend(Backend::Fptras)
        .build()?
        .prepare(&query)?
        .count(&db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_query::exact_count_answers;

    #[test]
    fn common_neighbour_pairs_of_a_star() {
        let star = PatternGraph::star(3);
        // all pairs of leaves share the centre
        assert_eq!(star.common_neighbour_pairs(), vec![(1, 2), (1, 3), (2, 3)]);
        let path = PatternGraph::path(3);
        assert_eq!(path.common_neighbour_pairs(), vec![(0, 2)]);
    }

    #[test]
    fn query_encoding_shape() {
        let q = locally_injective_query(&PatternGraph::path(4));
        assert_eq!(q.num_vars(), 4);
        assert_eq!(q.num_free_vars(), 4);
        assert_eq!(q.positive_atoms().count(), 3);
        assert_eq!(q.disequalities().len(), 2); // (0,2) and (1,3)
                                                // hypergraph is the path: treewidth 1
        let h = cqc_query::query_hypergraph(&q);
        assert_eq!(cqc_hypergraph::treewidth::treewidth_exact(&h).0, 1);
    }

    #[test]
    fn exact_counts_on_small_hosts() {
        // locally injective homs from P3 (path on 3 vertices) into a triangle:
        // middle vertex has 2 neighbours which must land on distinct vertices:
        // every injective placement works: 3 · 2 · 1 = 6... plus mappings where
        // the endpoints coincide are forbidden (they share the middle as a
        // common neighbour). Ground truth from the brute-force counter.
        let pattern = PatternGraph::path(3);
        let q = locally_injective_query(&pattern);
        let host = host_graph_database(3, &[(0, 1), (1, 2), (0, 2)]);
        let truth = exact_count_answers(&q, &host);
        assert_eq!(truth, 6);
        let cfg = ApproxConfig::new(0.2, 0.05).with_seed(31);
        let r = count_locally_injective_homomorphisms(&pattern, 3, &[(0, 1), (1, 2), (0, 2)], &cfg)
            .unwrap();
        assert!(
            (r.estimate - truth as f64).abs() <= 0.25 * truth as f64,
            "estimate {} vs truth {}",
            r.estimate,
            truth
        );
    }

    #[test]
    fn star_pattern_counts() {
        // locally injective homs from a 2-leaf star into a path 0-1-2
        // (centre must map to a vertex with ≥ 2 distinct neighbours): centre → 1,
        // leaves → {0, 2} in 2 orders.
        let pattern = PatternGraph::star(2);
        let q = locally_injective_query(&pattern);
        let host = host_graph_database(3, &[(0, 1), (1, 2)]);
        assert_eq!(exact_count_answers(&q, &host), 2);
        let cfg = ApproxConfig::new(0.25, 0.05).with_seed(32);
        let r =
            count_locally_injective_homomorphisms(&pattern, 3, &[(0, 1), (1, 2)], &cfg).unwrap();
        assert!((r.estimate - 2.0).abs() <= 1.0);
    }

    #[test]
    fn cycle_pattern_into_larger_graph() {
        let pattern = PatternGraph::cycle(4);
        let q = locally_injective_query(&pattern);
        let host_edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let host = host_graph_database(4, &host_edges);
        let truth = exact_count_answers(&q, &host) as f64;
        let cfg = ApproxConfig::new(0.25, 0.05).with_seed(33);
        let r = count_locally_injective_homomorphisms(&pattern, 4, &host_edges, &cfg).unwrap();
        assert!(
            (r.estimate - truth).abs() <= 0.3 * truth.max(1.0),
            "estimate {} vs truth {}",
            r.estimate,
            truth
        );
    }
}
