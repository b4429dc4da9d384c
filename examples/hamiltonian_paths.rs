//! Observation 10: the Hamiltonian-path query has treewidth 1 yet encodes an
//! NP-hard counting problem — which is why the paper's positive results give
//! an FPTRAS (exponential in ‖ϕ‖) rather than an FPRAS.
//!
//! Run with `cargo run --release --example hamiltonian_paths`.

use cqcount::prelude::*;
use cqcount::query::query_hypergraph;

fn main() {
    for (name, n, edges) in [
        ("triangle", 3usize, vec![(0, 1), (1, 2), (2, 0)]),
        ("4-cycle", 4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
        (
            "K4",
            4,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        ),
    ] {
        let q = hamiltonian_path_query(n);
        let db = undirected_graph_database(n, &edges);
        let h = query_hypergraph(&q);
        let tw = cqcount::hypergraph::treewidth::treewidth_exact(&h).0;
        let exact = exact_count_answers(&q, &db);

        let cfg = ApproxConfig {
            epsilon: 0.3,
            delta: 0.1,
            seed: n as u64,
            colour_repetitions: Some(4usize.pow((n * (n - 1) / 2) as u32).min(8192)),
            ..Default::default()
        };
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        let r = engine.prepare(&q).unwrap().count(&db).unwrap();
        println!(
            "{name:9}  n = {n}, ‖ϕ‖ = {:3}, tw(H(ϕ)) = {tw}, |Δ| = {:2}   directed Hamiltonian paths: exact = {exact:3}, FPTRAS ≈ {:5.1}",
            q.size(),
            q.disequalities().len(),
            r.estimate
        );
    }
    println!("\nNote: the colour-coding budget grows as 4^|Δ| = 4^(n(n-1)/2) — the");
    println!("FPT price that Observation 10 shows cannot be avoided (no FPRAS unless NP = RP).");
}
