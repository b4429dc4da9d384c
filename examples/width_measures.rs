//! The width-measure hierarchy of Lemma 12 / Observation 34 on concrete
//! query hypergraphs, and what it implies for which algorithm applies
//! (Figure 1 of the paper).
//!
//! Run with `cargo run --release --example width_measures`.

use cqcount::hypergraph::adaptive::adaptive_width_bounds;
use cqcount::hypergraph::fwidth::{minimise_width, WidthMeasure};
use cqcount::hypergraph::treewidth::treewidth_exact;
use cqcount::prelude::*;
use cqcount::query::query_hypergraph;
use cqcount::workloads::{clique_query, footnote4_star_query, hyperchain_query, path_query};

fn main() {
    let queries: Vec<(String, Query)> = vec![
        ("path, k=3, with ≠".into(), path_query(3, true, false).query),
        (
            "footnote-4 star, k=4".into(),
            footnote4_star_query(4, false).query,
        ),
        ("clique k=4".into(), clique_query(4, true).query),
        ("ternary hyperchain".into(), hyperchain_query(3, true).query),
        ("hamiltonian n=5".into(), hamiltonian_path_query(5)),
    ];
    println!(
        "{:24} {:>4} {:>6} {:>6} {:>14}  algorithm (Figure 1)",
        "query", "tw", "hw", "fhw", "aw lo..hi"
    );
    for (name, q) in queries {
        let h = query_hypergraph(&q);
        let tw = treewidth_exact(&h).0;
        let (hw, _) = minimise_width(&h, WidthMeasure::Hypertreewidth, &Runtime::serial());
        let (fhw, _) = minimise_width(
            &h,
            WidthMeasure::FractionalHypertreewidth,
            &Runtime::serial(),
        );
        let aw = adaptive_width_bounds(&h, 1);
        let algorithm = match q.class() {
            QueryClass::CQ => "FPRAS (Thm 16) — bounded fhw",
            QueryClass::DCQ => "FPTRAS (Thm 5/13) — no FPRAS (Obs 10)",
            QueryClass::ECQ => "FPTRAS (Thm 5) — bounded tw & arity",
        };
        println!(
            "{name:24} {tw:>4} {hw:>6.1} {fhw:>6.2} {:>6.2}..{:<6.2}  {algorithm}",
            aw.lower, aw.upper
        );
    }
}
