//! The Observation 10 construction: counting Hamiltonian paths as a DCQ of
//! treewidth 1.
//!
//! Given an `n`-vertex graph `G`, the query
//!
//! ```text
//! ϕ(x₁, …, x_n) = ⋀_{i<n} E(x_i, x_{i+1}) ∧ ⋀_{i<j} x_i ≠ x_j
//! ```
//!
//! has `H(ϕ)` equal to a path (treewidth 1, arity 2), yet its answers over
//! `D(G)` are exactly the Hamiltonian paths of `G`. This is the paper's proof
//! that no FPRAS exists for #DCQ even at treewidth 1 (unless NP = RP) — and
//! also a stress test for the FPTRAS, whose running time may be exponential
//! in `‖ϕ‖` (here `Θ(n²)` because of the `n(n−1)/2` disequalities) but stays
//! polynomial in `‖D‖`.

use cqc_data::{Structure, StructureBuilder};
use cqc_query::{Query, QueryBuilder};

/// Build the Hamiltonian-path query of Observation 10 for `n` vertices.
pub fn hamiltonian_path_query(n: usize) -> Query {
    assert!(n >= 2, "a Hamiltonian path needs at least two vertices");
    let mut b = QueryBuilder::new();
    let vars: Vec<_> = (0..n).map(|i| b.var(&format!("x{}", i + 1))).collect();
    b.free(&vars);
    for i in 0..n - 1 {
        b.atom("E", &[vars[i], vars[i + 1]]);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            b.disequality(vars[i], vars[j]);
        }
    }
    b.build().expect("Hamiltonian path query is well-formed")
}

/// The database `D(G)` of Observation 10 for an *undirected* graph: the
/// relation `E` holds both orientations of every edge, so each undirected
/// Hamiltonian path is counted twice (once per traversal direction).
pub fn undirected_graph_database(n: usize, edges: &[(usize, usize)]) -> Structure {
    let mut b = StructureBuilder::new(n);
    b.relation("E", 2);
    for &(u, v) in edges {
        b.fact("E", &[u as u32, v as u32]).unwrap();
        b.fact("E", &[v as u32, u as u32]).unwrap();
    }
    b.build()
}

/// The database for a *directed* graph (answers are directed Hamiltonian
/// paths).
pub fn directed_graph_database(n: usize, edges: &[(usize, usize)]) -> Structure {
    let mut b = StructureBuilder::new(n);
    b.relation("E", 2);
    for &(u, v) in edges {
        b.fact("E", &[u as u32, v as u32]).unwrap();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApproxConfig;
    use crate::engine::{Backend, EngineBuilder};
    use cqc_query::{exact_count_answers, query_hypergraph, QueryClass};

    #[test]
    fn query_shape_matches_observation_10() {
        let q = hamiltonian_path_query(5);
        assert_eq!(q.num_vars(), 5);
        assert_eq!(q.num_free_vars(), 5);
        assert_eq!(q.positive_atoms().count(), 4);
        assert_eq!(q.disequalities().len(), 10);
        assert_eq!(q.class(), QueryClass::DCQ);
        let h = query_hypergraph(&q);
        assert_eq!(h.arity(), 2);
        assert_eq!(cqc_hypergraph::treewidth::treewidth_exact(&h).0, 1);
    }

    #[test]
    fn counts_hamiltonian_paths_exactly_on_small_graphs() {
        // path graph: exactly one undirected Hamiltonian path → 2 directed answers
        let q = hamiltonian_path_query(4);
        let db = undirected_graph_database(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(exact_count_answers(&q, &db), 2);
        // complete graph K4: 4!/... every permutation is a path: 24 answers
        let k4_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let db = undirected_graph_database(4, &k4_edges);
        assert_eq!(exact_count_answers(&q, &db), 24);
        // cycle C4: undirected Hamiltonian paths = 4 (remove one edge), ×2 directions
        let c4_edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let db = undirected_graph_database(4, &c4_edges);
        assert_eq!(exact_count_answers(&q, &db), 8);
    }

    #[test]
    fn directed_graph_counts() {
        let q = hamiltonian_path_query(3);
        let db = directed_graph_database(3, &[(0, 1), (1, 2), (2, 0)]);
        // directed C3: three directed Hamiltonian paths (start anywhere)
        assert_eq!(exact_count_answers(&q, &db), 3);
    }

    #[test]
    fn fptras_estimates_hamiltonian_path_count() {
        // Small instance (n = 3, so |Δ| = 3 and the per-round colouring
        // success probability is 4⁻³ = 1/64): the FPTRAS must recover the
        // exact count. Larger n are exercised by the benchmark harness with
        // the full repetition budget — the exponential dependence on ‖ϕ‖ is
        // precisely the FPTRAS-vs-FPRAS gap the paper proves unavoidable.
        let q = hamiltonian_path_query(3);
        let db = undirected_graph_database(3, &[(0, 1), (1, 2), (2, 0)]);
        let truth = exact_count_answers(&q, &db) as f64;
        assert_eq!(truth, 6.0);
        let cfg = ApproxConfig {
            epsilon: 0.3,
            delta: 0.2,
            seed: 41,
            colour_repetitions: Some(400),
            ..Default::default()
        };
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        let r = engine.prepare(&q).unwrap().count(&db).unwrap();
        assert!(
            (r.estimate - truth).abs() <= 0.35 * truth,
            "estimate {} vs truth {}",
            r.estimate,
            truth
        );
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn degenerate_size_rejected() {
        hamiltonian_path_query(1);
    }
}
