//! The accuracy configuration shared by every counter.
//!
//! Counting goes through [`crate::Engine`] / [`crate::PreparedQuery`] (plan
//! once, count many); an [`ApproxConfig`] is what an engine is built from.

use crate::error::CoreError;

/// Configuration shared by all approximate counters.
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    /// Relative error `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1)`.
    pub delta: f64,
    /// RNG seed (all algorithms are deterministic given the seed).
    pub seed: u64,
    /// Override for the number of colour-coding repetitions `Q` per
    /// `EdgeFree` oracle call (default: derived from `δ` and `|Δ(ϕ)|`, see
    /// [`crate::AnswerOracle::recommended_repetitions`]).
    pub colour_repetitions: Option<usize>,
    /// The FPRAS switches from the exact fixed-shape #TA counter to the
    /// sampling counter once the automaton has more states than this.
    pub fpras_exact_state_budget: usize,
    /// Worker threads for the parallel runtime (`0` = automatic: the
    /// `COUNTING_THREADS` environment variable, else the machine's available
    /// parallelism). Thanks to deterministic seed-splitting the thread count
    /// **never** affects estimates — only wall-clock time; see `cqc-runtime`.
    pub threads: usize,
    /// Worker pool the runtime dispatches on (`None` = the process-wide
    /// pool, sized like `threads = 0`). Like the thread count, the
    /// pool and its width never affect estimates, only wall times; the
    /// determinism matrix in `tests/parallel_determinism.rs` runs engines
    /// against pools of width 1, 2 and 8 and requires bit-identical
    /// estimates.
    pub worker_pool: Option<&'static cqc_runtime::pool::Pool>,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            epsilon: 0.25,
            delta: 0.05,
            seed: 0xC0FFEE,
            colour_repetitions: None,
            fpras_exact_state_budget: 4_000,
            threads: 0,
            worker_pool: None,
        }
    }
}

impl ApproxConfig {
    /// A configuration with the given accuracy parameters and defaults
    /// elsewhere.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        ApproxConfig {
            epsilon,
            delta,
            ..Default::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The parallel runtime this configuration resolves to: `threads`
    /// workers dispatching on `worker_pool` (or the process-wide pool).
    pub fn runtime(&self) -> cqc_runtime::Runtime {
        let rt = cqc_runtime::Runtime::new(self.threads);
        match self.worker_pool {
            Some(pool) => rt.with_pool(pool),
            None => rt,
        }
    }

    /// Check that the accuracy parameters are usable: `ε, δ ∈ (0, 1)`.
    ///
    /// Called by [`crate::EngineBuilder::build`] and
    /// [`crate::Engine::prepare`], so every entry point rejects an
    /// out-of-range configuration with the same
    /// [`PlanError::InvalidConfig`](crate::PlanError::InvalidConfig) instead
    /// of running the samplers with a nonsensical budget.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0 < self.epsilon && self.epsilon < 1.0) {
            return Err(CoreError::invalid_config(format!(
                "ε must lie in (0, 1), got {}",
                self.epsilon
            )));
        }
        if !(0.0 < self.delta && self.delta < 1.0) {
            return Err(CoreError::invalid_config(format!(
                "δ must lie in (0, 1), got {}",
                self.delta
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::error::{EvalError, PlanError};
    use crate::report::CountMethod;
    use cqc_data::{Structure, StructureBuilder};
    use cqc_query::{exact_count_answers, parse_query, Query};

    fn tiny_db() -> Structure {
        let mut b = StructureBuilder::new(4);
        b.relation("E", 2);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.fact("E", &[u, v]).unwrap();
        }
        b.build()
    }

    #[test]
    fn dispatch_by_query_class() {
        let db = tiny_db();
        let engine = Engine::from_config(ApproxConfig::new(0.25, 0.1).with_seed(1));
        let count = |q: &Query| engine.prepare(q).unwrap().count(&db).unwrap();

        let cq = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let r = count(&cq);
        assert_eq!(r.method, CountMethod::Fpras);
        assert_eq!(r.estimate, exact_count_answers(&cq, &db) as f64);

        let dcq = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
        let r = count(&dcq);
        assert_eq!(r.method, CountMethod::Fptras);
        let truth = exact_count_answers(&dcq, &db) as f64;
        assert!((r.estimate - truth).abs() <= 0.3 * truth.max(1.0));

        let ecq = parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap();
        let r = count(&ecq);
        assert_eq!(r.method, CountMethod::Fptras);
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ApproxConfig::default();
        assert!(c.epsilon > 0.0 && c.epsilon < 1.0);
        assert!(c.delta > 0.0 && c.delta < 1.0);
        assert!(c.fpras_exact_state_budget > 0);
    }

    #[test]
    fn error_display() {
        let e = CoreError::unsupported_query_class("x");
        assert!(e.to_string().contains("unsupported"));
        let e = CoreError::incompatible_database("y");
        assert!(e.to_string().contains("incompatible"));
        let e = CoreError::plan_internal("z");
        assert!(e.to_string().contains("invariant"));
        // the typed hierarchy splits plan-time from eval-time failures
        assert!(matches!(
            CoreError::unsupported_query_class("x"),
            CoreError::Plan(PlanError::UnsupportedQueryClass(_))
        ));
        assert!(matches!(
            CoreError::incompatible_database("y"),
            CoreError::Eval(EvalError::IncompatibleDatabase(_))
        ));
    }
}
