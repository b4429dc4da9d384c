//! The `Engine` / `PreparedQuery` API: plan once, count many.
//!
//! The paper separates expensive *query-side* analysis — class dispatch
//! (Figure 1), the fractional-hypertreewidth decomposition search
//! (Lemma 43), the tree-automaton skeleton of Lemma 52, and the
//! colour-coding repetition budget of Lemma 22 — from *data-side*
//! evaluation, whose cost depends on the database. This module exposes that
//! separation: an [`Engine`] holds the accuracy configuration and backend
//! policy, [`Engine::prepare`] performs all query-side work once, and the
//! resulting [`PreparedQuery`] evaluates against any number of databases
//! via [`PreparedQuery::count`], [`PreparedQuery::count_batch`] and
//! [`PreparedQuery::sample`].
//!
//! ```
//! use cqc_core::{Engine, EstimateReport};
//! use cqc_data::StructureBuilder;
//! use cqc_query::parse_query;
//!
//! let engine = Engine::builder().accuracy(0.25, 0.05).seed(7).build().unwrap();
//! let query = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
//! let prepared = engine.prepare(&query).unwrap();
//!
//! let mut b = StructureBuilder::new(3);
//! b.relation("E", 2);
//! b.fact("E", &[0, 1]).unwrap();
//! b.fact("E", &[0, 2]).unwrap();
//! let db = b.build();
//!
//! let report: EstimateReport = prepared.count(&db).unwrap();
//! assert_eq!(report.estimate, 1.0); // only element 0 has two distinct friends
//! ```

use crate::api::ApproxConfig;
use crate::error::CoreError;
use crate::fpras::{fpras_count_with_plan, plan_fpras_with, FprasPlan};
use crate::fptras::{
    fptras_count_with_plan, fptras_count_with_scratch, plan_fptras, EvalScratch, FptrasPlan,
};
use crate::report::{CountMethod, EstimateReport};
use crate::sampling::sample_answers_with_plan;
use cqc_data::{Structure, Val};
use cqc_obs::{split_seed, Stopwatch};
use cqc_query::{exact_count_answers, Query, QueryClass};
use std::sync::OnceLock;
use std::time::Duration;

/// Tag index deriving the `prepare` span ID from the engine seed
/// (`split_seed(seed, PREPARE_SPAN_TAG)`); any fixed constant works, it
/// only has to be stable across runs.
const PREPARE_SPAN_TAG: u64 = 0x5052_4550; // "PREP"

/// Which counting backend an [`Engine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Dispatch on the query class along Figure 1 of the paper: plain CQs →
    /// FPRAS (Theorem 16), DCQs/ECQs → FPTRAS (Theorems 5/13).
    #[default]
    Auto,
    /// Force the FPRAS of Theorem 16 (fails to prepare for DCQs/ECQs —
    /// Observation 10 rules an FPRAS out unless NP = RP).
    Fpras,
    /// Force the FPTRAS of Theorems 5 / 13 (works for every query class).
    Fptras,
    /// Exact counting via solution enumeration (the baseline `cqc exact`
    /// uses; exponential in the query size in the worst case).
    Exact,
}

/// The method [`Backend::Auto`] selects for a query class — the Figure 1
/// dispatch, shared by [`Engine::prepare`] and diagnostic frontends (e.g.
/// `cqc classify`) so the policy lives in exactly one place.
pub fn auto_method(class: QueryClass) -> CountMethod {
    match class {
        QueryClass::CQ => CountMethod::Fpras,
        QueryClass::DCQ | QueryClass::ECQ => CountMethod::Fptras,
    }
}

/// Builder for [`Engine`]: accuracy, seed, budgets, backend selection.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: ApproxConfig,
    backend: Backend,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            config: ApproxConfig::default(),
            backend: Backend::Auto,
        }
    }
}

impl EngineBuilder {
    /// Start from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from an existing [`ApproxConfig`].
    pub fn from_config(config: ApproxConfig) -> Self {
        EngineBuilder {
            config,
            backend: Backend::Auto,
        }
    }

    /// Set the accuracy parameters: relative error `ε` and failure
    /// probability `δ` (both in `(0, 1)`; validated by [`build`]).
    ///
    /// [`build`]: EngineBuilder::build
    pub fn accuracy(mut self, epsilon: f64, delta: f64) -> Self {
        self.config.epsilon = epsilon;
        self.config.delta = delta;
        self
    }

    /// Set the RNG seed; every evaluation is deterministic given the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Override the colour-coding repetition budget `Q` per `EdgeFree`
    /// oracle call (default: derived from `δ` and `|Δ(ϕ)|`).
    pub fn colour_repetitions(mut self, repetitions: usize) -> Self {
        self.config.colour_repetitions = Some(repetitions);
        self
    }

    /// Set the automaton-state budget below which the FPRAS counts the
    /// fixed shape exactly instead of sampling.
    pub fn exact_state_budget(mut self, states: usize) -> Self {
        self.config.fpras_exact_state_budget = states;
        self
    }

    /// Select the counting backend (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the number of worker threads for the parallel runtime
    /// (`0` = automatic: the `COUNTING_THREADS` environment variable, else
    /// `std::thread::available_parallelism()`). Estimates are bit-identical
    /// for any thread count — the runtime derives every RNG stream from
    /// `(seed, work-item index)`, never from scheduling order.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Dispatch the parallel runtime on the given persistent worker pool
    /// instead of the process-wide one (sized like an automatic thread
    /// count: `COUNTING_THREADS`, else the available parallelism).
    /// The pool — like the thread count — never affects estimates, only
    /// wall times; mainly useful for tests and embedders that want
    /// isolated pool sizing.
    pub fn worker_pool(mut self, pool: &'static cqc_runtime::pool::Pool) -> Self {
        self.config.worker_pool = Some(pool);
        self
    }

    /// Validate the configuration and build the engine.
    pub fn build(self) -> Result<Engine, CoreError> {
        self.config.validate()?;
        Ok(Engine {
            config: self.config,
            backend: self.backend,
        })
    }
}

/// The counting engine: accuracy configuration plus backend policy.
///
/// Cheap to construct and clone; the expensive per-query analysis lives in
/// [`PreparedQuery`], obtained from [`Engine::prepare`].
#[derive(Debug, Clone)]
pub struct Engine {
    config: ApproxConfig,
    backend: Backend,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            config: ApproxConfig::default(),
            backend: Backend::Auto,
        }
    }
}

impl Engine {
    /// An engine with the default configuration (`ε = 0.25`, `δ = 0.05`,
    /// automatic Figure 1 dispatch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start building a customised engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Wrap an existing [`ApproxConfig`] (automatic dispatch).
    pub fn from_config(config: ApproxConfig) -> Self {
        Engine {
            config,
            backend: Backend::Auto,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// The engine's backend policy.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Perform all query-side analysis for `query` once: classify it
    /// (Figure 1), and — depending on the backend — search for a fractional
    /// hypertree decomposition and build the Lemma 52 automaton skeleton
    /// (FPRAS), or build the colour-coding oracle skeleton `Â(ϕ)` and fix
    /// the repetition budget (FPTRAS). The returned [`PreparedQuery`]
    /// amortises this work across any number of databases.
    pub fn prepare(&self, query: &Query) -> Result<PreparedQuery, CoreError> {
        // `Engine::new` / `Engine::from_config` skip the builder, so the
        // accuracy guard lives here too: planning is the first fallible step.
        self.config.validate()?;
        let started = Stopwatch::start();
        let _span =
            cqc_obs::trace::Span::enter("prepare", split_seed(self.config.seed, PREPARE_SPAN_TAG));
        let class = query.class();
        // The decomposition candidate search parallelises too; the chosen
        // plan is bit-identical for any thread count. Plans never consume
        // the seed — `PreparedQuery::count_with_seed` relies on that.
        let runtime = self.config.runtime();
        let plan = match self.backend {
            Backend::Auto => match auto_method(class) {
                CountMethod::Fpras => Plan::Fpras {
                    count: Box::new(plan_fpras_with(query, &runtime)?),
                    sample: OnceLock::new(),
                },
                CountMethod::Fptras | CountMethod::Exact => {
                    Plan::Fptras(plan_fptras(query, &self.config))
                }
            },
            Backend::Fpras => Plan::Fpras {
                count: Box::new(plan_fpras_with(query, &runtime)?),
                sample: OnceLock::new(),
            },
            Backend::Fptras => Plan::Fptras(plan_fptras(query, &self.config)),
            Backend::Exact => Plan::Exact {
                sample: OnceLock::new(),
            },
        };
        Ok(PreparedQuery {
            query: query.clone(),
            class,
            config: self.config.clone(),
            plan,
            planning_time: started.elapsed(),
        })
    }
}

/// The cached query-side plan inside a [`PreparedQuery`].
///
/// The FPRAS and exact backends still need the colour-coding oracle
/// skeleton to serve [`PreparedQuery::sample`]; it is built lazily on the
/// first `sample` call and cached thereafter.
enum Plan {
    /// FPRAS counting plan, plus the lazily built sampling plan.
    Fpras {
        count: Box<FprasPlan>,
        sample: OnceLock<FptrasPlan>,
    },
    /// FPTRAS counting plan (doubles as the sampling plan).
    Fptras(FptrasPlan),
    /// Exact brute force; the lazily built oracle skeleton backs `sample`.
    Exact { sample: OnceLock<FptrasPlan> },
}

/// Summary of what [`Engine::prepare`] computed, for logging and the CLI.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// The method [`PreparedQuery::count`] will use.
    pub method: CountMethod,
    /// The query class (Figure 1 column).
    pub class: QueryClass,
    /// Fractional hypertreewidth of the cached decomposition (FPRAS plans).
    pub fhw: Option<f64>,
    /// Treewidth of `H(ϕ)` when it is exact, up to 13 variables (FPTRAS
    /// plans).
    pub query_treewidth: Option<usize>,
    /// Colour-coding repetitions per oracle call (FPTRAS plans).
    pub colour_repetitions: Option<usize>,
    /// Wall-clock time spent planning.
    pub planning_time: Duration,
}

/// A query with all query-side analysis done: classify + decompose +
/// automaton skeleton + oracle/repetition plan. Evaluate it against any
/// number of databases with [`count`], [`count_batch`] and [`sample`] —
/// none of which repeat the planning work.
///
/// [`count`]: PreparedQuery::count
/// [`count_batch`]: PreparedQuery::count_batch
/// [`sample`]: PreparedQuery::sample
pub struct PreparedQuery {
    query: Query,
    class: QueryClass,
    config: ApproxConfig,
    plan: Plan,
    planning_time: Duration,
}

impl PreparedQuery {
    /// The underlying query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The query class (Figure 1 column).
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The method [`count`](PreparedQuery::count) will use.
    pub fn method(&self) -> CountMethod {
        match &self.plan {
            Plan::Fpras { .. } => CountMethod::Fpras,
            Plan::Fptras(_) => CountMethod::Fptras,
            Plan::Exact { .. } => CountMethod::Exact,
        }
    }

    /// The configuration the plan was prepared under.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// What planning computed and how long it took.
    pub fn plan_summary(&self) -> PlanSummary {
        let (fhw, query_treewidth, colour_repetitions) = match &self.plan {
            Plan::Fpras { count, .. } => (Some(count.fhw), None, None),
            Plan::Fptras(p) => (None, p.query_treewidth(), Some(p.repetitions)),
            Plan::Exact { .. } => (None, None, None),
        };
        PlanSummary {
            method: self.method(),
            class: self.class,
            fhw,
            query_treewidth,
            colour_repetitions,
            planning_time: self.planning_time,
        }
    }

    /// Estimate `|Ans(ϕ, D)|` against one database, reusing the cached
    /// plan. Deterministic given the engine seed: repeated calls (and a
    /// fresh plan prepared under the same configuration) return
    /// bit-identical estimates.
    pub fn count(&self, db: &Structure) -> Result<EstimateReport, CoreError> {
        self.count_with_config(db, &self.config)
    }

    /// [`count`](PreparedQuery::count) with the engine seed replaced by
    /// `seed` for this one evaluation, reusing the cached plan.
    ///
    /// Plans are **seed-independent** (class dispatch, the decomposition
    /// search and the oracle skeleton never consume randomness), so
    /// `count_with_seed(db, engine_seed)` is bit-identical to `count(db)`,
    /// and evaluations under different seeds still share all query-side
    /// work. This is the primitive the sharded serving front end
    /// (`cqc-serve`) builds on: work item `i` of a request is always
    /// evaluated under `split_seed(request_seed, i)`, so any partition of
    /// the items across shards merges back — in shard-index order — to
    /// exactly the single-node answer.
    pub fn count_with_seed(&self, db: &Structure, seed: u64) -> Result<EstimateReport, CoreError> {
        if seed == self.config.seed {
            return self.count(db);
        }
        let mut config = self.config.clone();
        config.seed = seed;
        self.count_with_config(db, &config)
    }

    fn count_with_config(
        &self,
        db: &Structure,
        config: &ApproxConfig,
    ) -> Result<EstimateReport, CoreError> {
        match &self.plan {
            Plan::Fpras { count, .. } => fpras_count_with_plan(&self.query, count, db, config),
            Plan::Fptras(plan) => fptras_count_with_plan(&self.query, plan, db, config),
            Plan::Exact { .. } => {
                let started = Stopwatch::start();
                if !self.query.compatible_with(db.signature()) {
                    return Err(CoreError::incompatible_database(
                        "sig(ϕ) is not contained in sig(D)",
                    ));
                }
                let mut report = EstimateReport::exact_value(
                    exact_count_answers(&self.query, db) as f64,
                    CountMethod::Exact,
                );
                report.telemetry.wall = started.elapsed();
                Ok(report)
            }
        }
    }

    /// Evaluate against many databases with one cached plan (the amortised
    /// hot path), fanned out over the engine's parallel runtime.
    ///
    /// Deterministic: the *estimates* are bit-identical to
    /// `dbs.iter().map(|db| self.count(db))` for any thread count, because
    /// database `i`'s estimate depends only on the plan, the seed and
    /// `dbs[i]` — deliberately **not** on its batch position. The flip side
    /// of that contract is that all databases share the engine's seed, so
    /// estimation errors across a batch of near-identical snapshots are
    /// correlated; callers that want independent errors (e.g. to average
    /// across snapshots) should vary the engine seed, not rely on batch
    /// position. Each worker thread owns one [`EvalScratch`] that it reuses
    /// across all the databases it evaluates, dropping the per-database
    /// allocations the serial loop used to pay (see the invariant on
    /// [`EvalScratch`]). Telemetry may differ from the serial loop:
    /// `threads_used` records this batch's worker count, and `hom_calls`
    /// can vary with scheduling (early-exit colour rounds evaluate a
    /// scheduling-dependent number of speculative repetitions). Returns
    /// the error of the first failing database (by index) if any fail.
    pub fn count_batch(&self, dbs: &[Structure]) -> Result<Vec<EstimateReport>, CoreError> {
        let runtime = self.config.runtime();
        match &self.plan {
            // The FPTRAS path parallelises *across* databases first; any
            // worker threads the batch cannot use (fewer databases than
            // threads) are handed to the inner per-evaluation runtime so a
            // 2-database batch on an 8-thread engine still runs the colour
            // rounds 4-wide instead of stranding 6 workers.
            Plan::Fptras(plan) => {
                let chunk = dbs.len().div_ceil(runtime.threads()).max(1);
                let chunks: Vec<&[Structure]> = dbs.chunks(chunk).collect();
                let inner = runtime.with_threads((runtime.threads() / chunks.len().max(1)).max(1));
                let per_chunk: Vec<Vec<Result<EstimateReport, CoreError>>> =
                    runtime.par_map(&chunks, |_, chunk| {
                        // per-thread scratch, reused across this worker's databases
                        let mut scratch = EvalScratch::new();
                        chunk
                            .iter()
                            .map(|db| {
                                fptras_count_with_scratch(
                                    &self.query,
                                    plan,
                                    db,
                                    &self.config,
                                    inner,
                                    &mut scratch,
                                )
                                .map(|mut report| {
                                    // the evaluation itself ran serially, but
                                    // the batch ran on this many workers
                                    report.telemetry.threads_used = runtime.threads();
                                    report
                                })
                            })
                            .collect()
                    });
                per_chunk.into_iter().flatten().collect()
            }
            // The FPRAS and exact paths parallelise inside each evaluation
            // (sampling counter / decomposition reuse), so the batch loop
            // stays serial here and delegates.
            _ => dbs.iter().map(|db| self.count(db)).collect(),
        }
    }

    /// Draw `count` (approximately) uniform answers of `(ϕ, D)`
    /// (Section 6), reusing the cached oracle skeleton. Returns fewer than
    /// `count` tuples only when the query has no answers at all.
    pub fn sample(&self, db: &Structure, count: usize) -> Result<Vec<Vec<Val>>, CoreError> {
        let plan = match &self.plan {
            Plan::Fpras { sample, .. } | Plan::Exact { sample } => {
                sample.get_or_init(|| plan_fptras(&self.query, &self.config))
            }
            Plan::Fptras(plan) => plan,
        };
        sample_answers_with_plan(&self.query, plan, db, count, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanError;
    use cqc_data::StructureBuilder;
    use cqc_query::parse_query;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for &(u, v) in edges {
            b.fact("E", &[u, v]).unwrap();
        }
        b.build()
    }

    fn three_dbs() -> Vec<Structure> {
        vec![
            graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            graph(6, &[(0, 1), (0, 2), (1, 3), (3, 0), (3, 5), (4, 2)]),
            graph(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]),
        ]
    }

    #[test]
    fn builder_validates_accuracy() {
        assert!(Engine::builder().accuracy(0.0, 0.05).build().is_err());
        assert!(Engine::builder().accuracy(0.2, 1.0).build().is_err());
        let err = Engine::builder().accuracy(1.5, 0.05).build().unwrap_err();
        assert!(matches!(err, CoreError::Plan(PlanError::InvalidConfig(_))));
        let engine = Engine::builder()
            .accuracy(0.2, 0.05)
            .seed(3)
            .colour_repetitions(12)
            .exact_state_budget(100)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        assert_eq!(engine.config().seed, 3);
        assert_eq!(engine.backend(), Backend::Fptras);
    }

    #[test]
    fn negated_atom_over_the_empty_universe_counts_exactly_zero() {
        // The complement of a relation over an empty universe is empty, so
        // B(ϕ, D) is buildable and the ECQ has no answer.
        let q = parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap();
        let prepared = Engine::new().prepare(&q).unwrap();
        let report = prepared.count(&graph(0, &[])).unwrap();
        assert_eq!(report.estimate, 0.0);
        assert!(report.exact);
    }

    #[test]
    fn count_batch_equals_individual_counts() {
        let engine = Engine::builder()
            .accuracy(0.3, 0.1)
            .seed(5)
            .build()
            .unwrap();
        let q = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
        let prepared = engine.prepare(&q).unwrap();
        let dbs = three_dbs();
        let batch = prepared.count_batch(&dbs).unwrap();
        assert_eq!(batch.len(), dbs.len());
        for (db, r) in dbs.iter().zip(&batch) {
            assert_eq!(r.estimate, prepared.count(db).unwrap().estimate);
        }
    }

    #[test]
    fn sampling_works_for_cqs_through_the_fpras_plan() {
        let engine = Engine::new();
        let q = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let prepared = engine.prepare(&q).unwrap();
        assert_eq!(prepared.method(), CountMethod::Fpras);
        let db = graph(5, &[(0, 1), (1, 2), (2, 3)]);
        let samples = prepared.sample(&db, 5).unwrap();
        assert!(!samples.is_empty());
        let answers = cqc_query::enumerate_answers(&q, &db);
        for s in samples {
            assert!(answers.contains(&s));
        }
    }

    #[test]
    fn backend_policies_dispatch_as_requested() {
        let q_cq = parse_query("ans(x, y) :- E(x, y)").unwrap();
        let q_dcq = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
        let db = graph(4, &[(0, 1), (0, 2), (1, 3)]);

        let forced = Engine::builder().backend(Backend::Fptras).build().unwrap();
        assert_eq!(forced.prepare(&q_cq).unwrap().method(), CountMethod::Fptras);

        let fpras = Engine::builder().backend(Backend::Fpras).build().unwrap();
        assert!(matches!(
            fpras.prepare(&q_dcq),
            Err(CoreError::Plan(PlanError::UnsupportedQueryClass(_)))
        ));

        let exact = Engine::builder().backend(Backend::Exact).build().unwrap();
        let prepared = exact.prepare(&q_dcq).unwrap();
        let r = prepared.count(&db).unwrap();
        assert!(r.exact);
        assert_eq!(r.epsilon, 0.0);
        assert_eq!(r.estimate, 1.0); // only element 0 has two distinct out-neighbours
    }

    #[test]
    fn plan_summary_reflects_the_backend() {
        let q_cq = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let q_dcq = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
        let engine = Engine::new();

        let s = engine.prepare(&q_cq).unwrap().plan_summary();
        assert_eq!(s.method, CountMethod::Fpras);
        assert!(s.fhw.is_some());
        assert!(s.colour_repetitions.is_none());

        let s = engine.prepare(&q_dcq).unwrap().plan_summary();
        assert_eq!(s.method, CountMethod::Fptras);
        assert_eq!(s.query_treewidth, Some(1));
        assert!(s.colour_repetitions.unwrap() >= 4);
    }

    #[test]
    fn incompatible_database_is_an_eval_error() {
        let engine = Engine::new();
        let q = parse_query("ans(x) :- Nope(x, y)").unwrap();
        let prepared = engine.prepare(&q).unwrap();
        let db = graph(3, &[(0, 1)]);
        let err = prepared.count(&db).unwrap_err();
        assert!(err.is_eval());
    }
}
