//! The `classify` command: report the query class, its width measures and
//! the scheme Figure 1 of the paper assigns to it.

use crate::common::load_query;
use crate::{Args, CliError};
use cqc_hypergraph::adaptive::adaptive_width_bounds;
use cqc_hypergraph::fwidth::{minimise_width, WidthMeasure};
use cqc_hypergraph::treewidth::{treewidth_exact, treewidth_upper_bound};
use cqc_query::{query_hypergraph, Query, QueryClass};
use cqc_runtime::Runtime;
use std::fmt::Write as _;

/// Everything `classify` computes, exposed for tests and for embedding.
#[derive(Debug, Clone)]
pub struct Classification {
    /// CQ / DCQ / ECQ.
    pub class: QueryClass,
    /// ‖ϕ‖ as defined in Section 1.1.
    pub size: usize,
    /// Number of variables / free variables.
    pub vars: (usize, usize),
    /// Maximum atom arity.
    pub arity: usize,
    /// Treewidth of H(ϕ) and whether it is exact.
    pub treewidth: (usize, bool),
    /// Hypertreewidth upper bound of H(ϕ).
    pub hypertreewidth: f64,
    /// Fractional hypertreewidth upper bound of H(ϕ).
    pub fractional_hypertreewidth: f64,
    /// Adaptive-width lower and upper bounds.
    pub adaptive_width: (f64, f64),
    /// The scheme Figure 1 assigns (given the width information above).
    pub scheme: &'static str,
}

/// Classify a query (the computational part of `cqc classify`).
pub fn classify_query(query: &Query) -> Classification {
    let h = query_hypergraph(query);
    let (tw, exact_tw) = if query.num_vars() <= 13 {
        (treewidth_exact(&h).0, true)
    } else {
        (treewidth_upper_bound(&h).0, false)
    };
    let (hw, _) = minimise_width(&h, WidthMeasure::Hypertreewidth, &Runtime::serial());
    let (fhw, _) = minimise_width(
        &h,
        WidthMeasure::FractionalHypertreewidth,
        &Runtime::serial(),
    );
    let aw = adaptive_width_bounds(&h, 3);
    let class = query.class();
    let scheme = match class {
        QueryClass::CQ => "FPRAS (Theorem 16; bounded fhw) — and FPTRAS a fortiori",
        QueryClass::DCQ => "FPTRAS (Theorem 13; bounded adaptive width) — no FPRAS unless NP = RP",
        QueryClass::ECQ => {
            "FPTRAS (Theorem 5; bounded treewidth & arity) — no FPRAS unless NP = RP"
        }
    };
    Classification {
        class,
        size: query.size(),
        vars: (query.num_vars(), query.num_free_vars()),
        arity: query.max_arity(),
        treewidth: (tw, exact_tw),
        hypertreewidth: hw,
        fractional_hypertreewidth: fhw,
        adaptive_width: (aw.lower, aw.upper),
        scheme,
    }
}

/// Run `cqc classify`.
pub fn run_classify(args: &Args) -> Result<String, CliError> {
    let query = load_query(args)?;
    let c = classify_query(&query);
    let mut out = String::new();
    writeln!(out, "class                 : {:?}", c.class).unwrap();
    writeln!(out, "‖ϕ‖                   : {}", c.size).unwrap();
    writeln!(out, "variables (free)      : {} ({})", c.vars.0, c.vars.1).unwrap();
    writeln!(out, "max arity             : {}", c.arity).unwrap();
    writeln!(
        out,
        "treewidth             : {}{}",
        c.treewidth.0,
        if c.treewidth.1 { "" } else { " (upper bound)" }
    )
    .unwrap();
    writeln!(out, "hypertreewidth ≤      : {:.3}", c.hypertreewidth).unwrap();
    writeln!(
        out,
        "fractional htw ≤      : {:.3}",
        c.fractional_hypertreewidth
    )
    .unwrap();
    writeln!(
        out,
        "adaptive width        : [{:.3}, {:.3}]",
        c.adaptive_width.0, c.adaptive_width.1
    )
    .unwrap();
    writeln!(out, "scheme (Figure 1)     : {}", c.scheme).unwrap();
    // What `Engine::prepare` would select under `Backend::Auto` — fully
    // determined by the class, so no need to actually run the planner here.
    writeln!(
        out,
        "engine plan           : {}",
        cqc_core::auto_method(c.class)
    )
    .unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use cqc_query::parse_query;

    #[test]
    fn friends_query_is_a_treewidth_one_dcq() {
        let q = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
        let c = classify_query(&q);
        assert_eq!(c.class, QueryClass::DCQ);
        assert_eq!(c.treewidth, (1, true));
        assert!(c.fractional_hypertreewidth <= c.hypertreewidth + 1e-9);
        assert!(c.adaptive_width.0 <= c.adaptive_width.1 + 1e-9);
        assert!(c.scheme.contains("Theorem 13"));
    }

    #[test]
    fn plain_path_cq_gets_the_fpras() {
        let q = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let c = classify_query(&q);
        assert_eq!(c.class, QueryClass::CQ);
        assert!(c.scheme.contains("Theorem 16"));
    }

    #[test]
    fn negation_makes_an_ecq() {
        let q = parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap();
        let c = classify_query(&q);
        assert_eq!(c.class, QueryClass::ECQ);
        assert!(c.scheme.contains("Theorem 5"));
    }

    #[test]
    fn hamiltonian_style_query_keeps_treewidth_one() {
        // Observation 10: the disequalities do not enter H(ϕ).
        let q = parse_query(
            "ans(x1, x2, x3, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), \
             x1 != x2, x1 != x3, x1 != x4, x2 != x3, x2 != x4, x3 != x4",
        )
        .unwrap();
        let c = classify_query(&q);
        assert_eq!(c.treewidth, (1, true));
        assert_eq!(c.class, QueryClass::DCQ);
    }

    #[test]
    fn classify_command_renders_a_report() {
        let out = run_classify(
            &args_from(["classify", "--query", "ans(x) :- E(x, y), E(x, z), y != z"]).unwrap(),
        )
        .unwrap();
        assert!(out.contains("class"));
        assert!(out.contains("treewidth"));
        assert!(out.contains("Figure 1"));
    }
}
