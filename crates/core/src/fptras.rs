//! The FPTRAS of Theorems 5 and 13: approximate answer counting for ECQs of
//! bounded treewidth (bounded arity) and DCQs of bounded adaptive width
//! (unbounded arity).
//!
//! Pipeline (Section 3 / Section 4 / Section 5.1 of the paper):
//! `|Ans(ϕ, D)|` = number of hyperedges of `H(ϕ, D)` (Observation 25)
//! ≈ output of the Dell–Lapinskas–Meeks counter (`cqc-dlm`) run against the
//! colour-coding `EdgeFree` oracle ([`crate::AnswerOracle`]), whose `Hom`
//! queries are answered by a bounded-width engine (`cqc-hom`).

use crate::api::ApproxConfig;
use crate::error::CoreError;
use crate::oracle::AnswerOracle;
use crate::report::{CountMethod, EstimateReport, Telemetry};
use cqc_data::Structure;
use cqc_dlm::{approx_edge_count, ApproxMethod, DlmConfig, EdgeFreeOracle};
use cqc_hom::HybridDecider;
use cqc_obs::Stopwatch;
use cqc_query::colored::ColouringFamily;
use cqc_query::{build_a_hat, build_b_structure, Query};
use cqc_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The query-side plan of the FPTRAS of Theorems 5 / 13: everything that
/// depends only on `ϕ` (and the accuracy configuration), computed once by
/// [`plan_fptras`] (or [`crate::Engine::prepare`]) and reused across
/// databases.
#[derive(Debug)]
pub struct FptrasPlan {
    /// The coloured associated structure `Â(ϕ)` (Lemma 30) the oracle
    /// matches against.
    pub a_hat: Structure,
    /// Colour-coding repetitions `Q` per `EdgeFree` oracle call.
    pub repetitions: usize,
    /// Treewidth of `H(ϕ)`, computed lazily on first request (it is pure
    /// telemetry, and the exact DP is exponential in the variable count —
    /// sampling-only use of a plan must not pay for it).
    query_treewidth: std::sync::OnceLock<Option<usize>>,
}

impl FptrasPlan {
    /// Treewidth of `H(ϕ)` (the FPT parameter of Theorem 5), when it is
    /// cheap to compute. Computed on first call, cached in the plan.
    ///
    /// `query` must be the query this plan was built for (the value is
    /// cached unconditionally, so a different query returns the original
    /// query's treewidth). [`crate::PreparedQuery`] enforces the pairing;
    /// direct callers of the plan API must uphold it.
    pub fn query_treewidth(&self, query: &Query) -> Option<usize> {
        *self.query_treewidth.get_or_init(|| {
            if query.num_vars() <= 13 {
                let h = cqc_query::query_hypergraph(query);
                Some(cqc_hypergraph::treewidth::treewidth_exact(&h).0)
            } else {
                None
            }
        })
    }
}

/// Query-side planning for the FPTRAS of Theorems 5 / 13: build `Â(ϕ)` and
/// fix the colour-coding repetition budget.
pub fn plan_fptras(query: &Query, config: &ApproxConfig) -> FptrasPlan {
    let repetitions = config.colour_repetitions.unwrap_or_else(|| {
        AnswerOracle::<HybridDecider>::recommended_repetitions(query, config.delta)
    });
    FptrasPlan {
        a_hat: build_a_hat(query),
        repetitions,
        query_treewidth: std::sync::OnceLock::new(),
    }
}

/// Per-thread evaluation scratch for batch counting.
///
/// **Invariant (why reuse is sound):** everything in here is either
/// stateless across evaluations (the `Hom` decider — its only mutable state
/// is atomic telemetry counters) or a pure function of the query and the
/// database *dimensions* (the all-true relaxation colouring, which depends
/// only on `(|Δ(ϕ)|, |U(D)|)` and is revalidated against each database).
/// Reusing the scratch across the databases one worker evaluates in
/// [`crate::PreparedQuery::count_batch`] therefore cannot change any
/// estimate — it only removes per-database allocations. The scratch is
/// owned by exactly **one** worker thread (never shared), so reuse also
/// never introduces cross-thread contention.
#[derive(Default)]
pub struct EvalScratch {
    decider: HybridDecider,
    /// Cached relaxation colouring, keyed by `(|Δ(ϕ)|, |U(D)|)`: reused
    /// verbatim while consecutive databases share those dimensions.
    relaxed: Option<(usize, usize, ColouringFamily)>,
}

impl EvalScratch {
    /// A fresh scratch (one per worker thread).
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure the cached relaxation colouring matches the dimensions.
    fn ensure_relaxed(&mut self, num_diseq: usize, universe_size: usize) {
        let fits =
            matches!(&self.relaxed, Some((d, u, _)) if *d == num_diseq && *u == universe_size);
        if !fits {
            let family = ColouringFamily::from_fn(num_diseq, universe_size, |_, _| true);
            self.relaxed = Some((num_diseq, universe_size, family));
        }
    }
}

/// Data-side evaluation of a prepared FPTRAS plan against one database:
/// build `B(ϕ, D)` and run the Dell–Lapinskas–Meeks edge counter against
/// the colour-coding oracle.
///
/// `plan` must come from [`plan_fptras`] on the same `query`; the pairing
/// is not checked here (use [`crate::Engine::prepare`], which owns it).
pub fn fptras_count_with_plan(
    query: &Query,
    plan: &FptrasPlan,
    db: &Structure,
    config: &ApproxConfig,
) -> Result<EstimateReport, CoreError> {
    let mut scratch = EvalScratch::new();
    fptras_count_with_scratch(query, plan, db, config, config.runtime(), &mut scratch)
}

/// [`fptras_count_with_plan`] with an explicit runtime and a reusable
/// per-thread [`EvalScratch`] (the `count_batch` hot path).
pub fn fptras_count_with_scratch(
    query: &Query,
    plan: &FptrasPlan,
    db: &Structure,
    config: &ApproxConfig,
    runtime: Runtime,
    scratch: &mut EvalScratch,
) -> Result<EstimateReport, CoreError> {
    let start = Stopwatch::start();
    if !query.compatible_with(db.signature()) {
        return Err(CoreError::incompatible_database(
            "sig(ϕ) is not contained in sig(D)",
        ));
    }
    let b_structure = build_b_structure(query, db).map_err(CoreError::incompatible_database)?;
    scratch.ensure_relaxed(query.disequalities().len(), db.universe_size());

    let relaxed = scratch
        .relaxed
        .as_ref()
        .map(|(_, _, c)| c)
        .expect("ensured");
    let mut oracle = AnswerOracle::with_a_hat(
        query,
        b_structure,
        &plan.a_hat,
        db.universe_size(),
        &scratch.decider,
        plan.repetitions,
        config.seed,
    )
    .with_runtime(runtime)
    .with_relaxed_colouring(relaxed);

    let dlm = DlmConfig::new(config.epsilon, config.delta);
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9E37));
    let result = approx_edge_count(&mut oracle, &dlm, &mut rng);

    let exact = matches!(result.method, ApproxMethod::Exact) && query.disequalities().is_empty();
    let mut report = if exact {
        EstimateReport::exact_value(result.estimate, CountMethod::Fptras)
    } else {
        EstimateReport::approximate(
            result.estimate,
            CountMethod::Fptras,
            config.epsilon,
            config.delta,
        )
    };
    report.telemetry = Telemetry {
        oracle_calls: oracle.calls(),
        hom_calls: oracle.hom_calls(),
        colour_repetitions: plan.repetitions,
        query_treewidth: plan.query_treewidth(query),
        wall: start.elapsed(),
        threads_used: runtime.threads(),
        ..Telemetry::default()
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApproxConfig;
    use crate::engine::{Backend, EngineBuilder};
    use cqc_data::StructureBuilder;
    use cqc_query::{exact_count_answers, parse_query};

    fn config(eps: f64, delta: f64, seed: u64) -> ApproxConfig {
        ApproxConfig {
            epsilon: eps,
            delta,
            seed,
            ..ApproxConfig::default()
        }
    }

    /// Prepare `query` with the FPTRAS forced, then count it on `db`.
    fn fptras(
        query: &Query,
        db: &Structure,
        config: &ApproxConfig,
    ) -> Result<EstimateReport, CoreError> {
        EngineBuilder::from_config(config.clone())
            .backend(Backend::Fptras)
            .build()?
            .prepare(query)?
            .count(db)
    }

    fn random_graph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("F", 2);
        for &(u, v) in edges {
            b.fact("F", &[u, v]).unwrap();
        }
        b.build()
    }

    #[test]
    fn friends_query_equation_1() {
        // the paper's running example: people with ≥ 2 distinct friends
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = random_graph(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (3, 0),
                (3, 4),
                (4, 5),
                (2, 5),
                (2, 0),
            ],
        );
        let truth = exact_count_answers(&q, &db) as f64;
        let r = fptras(&q, &db, &config(0.2, 0.05, 1)).unwrap();
        assert!(
            (r.estimate - truth).abs() <= 0.25 * truth.max(1.0),
            "estimate {} vs truth {}",
            r.estimate,
            truth
        );
        assert_eq!(r.telemetry.query_treewidth, Some(1));
        assert!(r.telemetry.hom_calls > 0);
    }

    #[test]
    fn query_with_negation() {
        // pairs connected one way but not the other
        let q = parse_query("ans(x, y) :- F(x, y), !F(y, x)").unwrap();
        let db = random_graph(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 1)]);
        let truth = exact_count_answers(&q, &db) as f64;
        let r = fptras(&q, &db, &config(0.2, 0.05, 2)).unwrap();
        assert!(
            (r.estimate - truth).abs() <= 0.25 * truth.max(1.0),
            "estimate {} vs truth {}",
            r.estimate,
            truth
        );
    }

    #[test]
    fn plain_cq_is_counted_exactly_in_sparse_regime() {
        let q = parse_query("ans(x, y) :- F(x, z), F(z, y)").unwrap();
        let db = random_graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let truth = exact_count_answers(&q, &db) as f64;
        let r = fptras(&q, &db, &config(0.3, 0.1, 3)).unwrap();
        assert_eq!(r.estimate, truth);
        assert!(r.exact);
    }

    #[test]
    fn boolean_query() {
        let q = parse_query("ans() :- F(x, y), F(y, z)").unwrap();
        let db = random_graph(4, &[(0, 1), (1, 2)]);
        let r = fptras(&q, &db, &config(0.3, 0.1, 4)).unwrap();
        assert_eq!(r.estimate, 1.0);
        let empty = random_graph(4, &[(0, 1)]);
        let r = fptras(&q, &empty, &config(0.3, 0.1, 5)).unwrap();
        assert_eq!(r.estimate, 0.0);
    }

    #[test]
    fn incompatible_database_is_rejected() {
        let q = parse_query("ans(x) :- Nope(x, y)").unwrap();
        let db = random_graph(3, &[(0, 1)]);
        assert!(fptras(&q, &db, &config(0.3, 0.1, 6)).is_err());
    }

    #[test]
    fn zero_answers_with_disequalities() {
        // nobody has two distinct friends in a perfect matching
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = random_graph(6, &[(0, 1), (2, 3), (4, 5)]);
        let r = fptras(&q, &db, &config(0.3, 0.1, 7)).unwrap();
        assert_eq!(r.estimate, 0.0);
    }
}
