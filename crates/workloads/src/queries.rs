//! Query families used by the experiments.

use cqc_query::{Query, QueryBuilder, Var};

/// A named query family instance, for reporting.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Human-readable name (appears in experiment tables).
    pub name: String,
    /// The query itself.
    pub query: Query,
}

/// The path query
/// `ϕ(x₀, x_k) = ∃x₁..x_{k−1} ⋀ E(x_i, x_{i+1})`
/// with optional disequalities between variables two apart and an optional
/// negated atom `¬E(x_k, x_{k−1})` ("the last step is not reciprocated").
/// The negated atom's scope coincides with an existing hyperedge, so the
/// treewidth of `H(ϕ)` stays 1 for every `k` (experiment E1).
pub fn path_query(k: usize, disequalities: bool, negation: bool) -> QuerySpec {
    assert!(k >= 1);
    let mut b = QueryBuilder::new();
    let vars: Vec<Var> = (0..=k).map(|i| b.var(&format!("x{i}"))).collect();
    b.free(&[vars[0], vars[k]]);
    for i in 0..k {
        b.atom("E", &[vars[i], vars[i + 1]]);
    }
    if disequalities {
        for i in 0..k.saturating_sub(1) {
            b.disequality(vars[i], vars[i + 2]);
        }
    }
    if negation {
        b.negated_atom("E", &[vars[k], vars[k - 1]]);
    }
    QuerySpec {
        name: format!(
            "path(k={k}{}{})",
            if disequalities { ",≠" } else { "" },
            if negation { ",¬" } else { "" }
        ),
        query: b.build().expect("path query is well-formed"),
    }
}

/// The "two distinct friends" style star query with `leaves` existential
/// leaves around a free centre, all leaves pairwise distinct:
/// `ϕ(x) = ∃y₁..y_m ⋀ E(x, y_i) ∧ ⋀_{i<j} y_i ≠ y_j`
/// (generalises query (1) of the paper's introduction).
pub fn star_query(leaves: usize, disequalities: bool) -> QuerySpec {
    assert!(leaves >= 1);
    let mut b = QueryBuilder::new();
    let x = b.var("x");
    let ys: Vec<Var> = (0..leaves).map(|i| b.var(&format!("y{i}"))).collect();
    b.free(&[x]);
    for &y in &ys {
        b.atom("E", &[x, y]);
    }
    if disequalities {
        for i in 0..leaves {
            for j in (i + 1)..leaves {
                b.disequality(ys[i], ys[j]);
            }
        }
    }
    QuerySpec {
        name: format!("star(m={leaves}{})", if disequalities { ",≠" } else { "" }),
        query: b.build().expect("star query is well-formed"),
    }
}

/// The footnote-4 query of the paper:
/// `ϕ(x₁, …, x_k) = ∃y ⋀ E(y, x_i)`, optionally with all free variables
/// pairwise distinct. Decision is trivial, exact counting is SETH-hard, and
/// approximate counting is covered by Theorem 16 (without disequalities) or
/// Theorem 5 (with them).
pub fn footnote4_star_query(k: usize, distinct: bool) -> QuerySpec {
    assert!(k >= 1);
    let mut b = QueryBuilder::new();
    let y = b.var("y");
    let xs: Vec<Var> = (0..k).map(|i| b.var(&format!("x{i}"))).collect();
    b.free(&xs);
    for &x in &xs {
        b.atom("E", &[y, x]);
    }
    if distinct {
        for i in 0..k {
            for j in (i + 1)..k {
                b.disequality(xs[i], xs[j]);
            }
        }
    }
    QuerySpec {
        name: format!("footnote4(k={k}{})", if distinct { ",≠" } else { "" }),
        query: b.build().expect("footnote-4 query is well-formed"),
    }
}

/// The clique query `ϕ(x₁..x_k) = ⋀_{i<j} E(x_i, x_j)` whose hypergraph is
/// `K_k` (treewidth `k − 1`) — the query family behind the Observation 9
/// lower bound (experiment E2).
pub fn clique_query(k: usize, existential_last: bool) -> QuerySpec {
    assert!(k >= 2);
    let mut b = QueryBuilder::new();
    let vars: Vec<Var> = (0..k).map(|i| b.var(&format!("x{i}"))).collect();
    let free: Vec<Var> = if existential_last {
        vars[..k - 1].to_vec()
    } else {
        vars.clone()
    };
    b.free(&free);
    for i in 0..k {
        for j in (i + 1)..k {
            b.atom("E", &[vars[i], vars[j]]);
        }
    }
    QuerySpec {
        name: format!("clique(k={k})"),
        query: b.build().expect("clique query is well-formed"),
    }
}

/// A chain of ternary hyperedges
/// `ϕ(x₀, x_{2k}) = ∃… ⋀ R(x_{2i}, x_{2i+1}, x_{2i+2})`
/// with optional disequalities between the chain's odd (existential)
/// positions: an unbounded-arity family of fractional hypertreewidth 1 used
/// in the Theorem 13 / Theorem 16 experiments (E5/E6).
pub fn hyperchain_query(links: usize, disequalities: bool) -> QuerySpec {
    assert!(links >= 1);
    let mut b = QueryBuilder::new();
    let vars: Vec<Var> = (0..=2 * links).map(|i| b.var(&format!("x{i}"))).collect();
    b.free(&[vars[0], vars[2 * links]]);
    for i in 0..links {
        b.atom("R", &[vars[2 * i], vars[2 * i + 1], vars[2 * i + 2]]);
    }
    if disequalities && links >= 2 {
        for i in 0..links - 1 {
            b.disequality(vars[2 * i + 1], vars[2 * i + 3]);
        }
    }
    QuerySpec {
        name: format!(
            "hyperchain(links={links}{})",
            if disequalities { ",≠" } else { "" }
        ),
        query: b.build().expect("hyperchain query is well-formed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_hypergraph::treewidth::treewidth_exact;
    use cqc_query::{query_hypergraph, QueryClass};

    #[test]
    fn path_queries_have_treewidth_one() {
        for k in 1..6 {
            for (d, n) in [(false, false), (true, false), (true, true)] {
                let spec = path_query(k, d, n);
                let h = query_hypergraph(&spec.query);
                let (tw, _) = treewidth_exact(&h);
                assert_eq!(tw, 1, "{}", spec.name);
            }
        }
    }

    #[test]
    fn star_query_generalises_equation_1() {
        let spec = star_query(2, true);
        assert_eq!(spec.query.num_free_vars(), 1);
        assert_eq!(spec.query.disequalities().len(), 1);
        assert_eq!(spec.query.class(), QueryClass::DCQ);
        let spec = star_query(4, true);
        assert_eq!(spec.query.disequalities().len(), 6);
    }

    #[test]
    fn footnote4_classes() {
        assert_eq!(footnote4_star_query(3, false).query.class(), QueryClass::CQ);
        assert_eq!(footnote4_star_query(3, true).query.class(), QueryClass::DCQ);
        let h = query_hypergraph(&footnote4_star_query(4, true).query);
        assert_eq!(treewidth_exact(&h).0, 1);
    }

    #[test]
    fn clique_query_treewidth_grows() {
        for k in 2..6 {
            let spec = clique_query(k, true);
            let h = query_hypergraph(&spec.query);
            assert_eq!(treewidth_exact(&h).0, k - 1);
            assert_eq!(spec.query.num_free_vars(), k - 1);
        }
    }

    #[test]
    fn hyperchain_has_arity_three_and_fhw_one() {
        let spec = hyperchain_query(3, true);
        let h = query_hypergraph(&spec.query);
        assert_eq!(h.arity(), 3);
        let (fhw, _) = cqc_hypergraph::fwidth::minimise_width(
            &h,
            cqc_hypergraph::fwidth::WidthMeasure::FractionalHypertreewidth,
            &cqc_runtime::Runtime::serial(),
        );
        assert!(fhw <= 1.0 + 1e-6);
        assert_eq!(spec.query.class(), QueryClass::DCQ);
        assert_eq!(hyperchain_query(2, false).query.class(), QueryClass::CQ);
    }

    #[test]
    fn negated_path_query_is_ecq() {
        let spec = path_query(3, false, true);
        assert_eq!(spec.query.class(), QueryClass::ECQ);
        assert_eq!(spec.query.num_negated(), 1);
    }
}
