//! The unified result type of every counting path.
//!
//! One [`EstimateReport`] is produced whether the estimate came from the
//! FPRAS of Theorem 16, the FPTRAS of Theorems 5/13, or an exact baseline;
//! it carries the estimate, the method, the `(ε, δ)` actually guaranteed
//! (`(0, 0)` when the value is exact), and per-run [`Telemetry`].

use std::fmt;
use std::time::Duration;

/// Which algorithm produced an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountMethod {
    /// The FPRAS of Theorem 16 (CQs of bounded fractional hypertreewidth).
    Fpras,
    /// The FPTRAS of Theorems 5 / 13 (ECQs / DCQs).
    Fptras,
    /// Exact baseline.
    Exact,
}

impl fmt::Display for CountMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountMethod::Fpras => write!(f, "FPRAS (Theorem 16)"),
            CountMethod::Fptras => write!(f, "FPTRAS (Theorems 5/13)"),
            CountMethod::Exact => write!(f, "exact"),
        }
    }
}

/// Per-run evaluation telemetry, for observability of the hot path.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// `EdgeFree` oracle calls made by the edge counter (FPTRAS path).
    pub oracle_calls: u64,
    /// `Hom` queries issued while simulating the oracle (FPTRAS path).
    pub hom_calls: u64,
    /// Colour-coding repetitions per oracle call (FPTRAS path).
    pub colour_repetitions: usize,
    /// Number of tree-automaton states (FPRAS path).
    pub automaton_states: usize,
    /// Number of tree-decomposition nodes (FPRAS path).
    pub tree_nodes: usize,
    /// Fractional hypertreewidth of the decomposition used (FPRAS path).
    pub fhw: Option<f64>,
    /// Treewidth of `H(ϕ)` when it is exact, up to 13 variables (FPTRAS
    /// path).
    pub query_treewidth: Option<usize>,
    /// Wall-clock time of the evaluation (excluding query preparation).
    pub wall: Duration,
    /// The **configured** fan-out width of the parallel runtime for this
    /// evaluation (the resolved `threads` setting). The concurrency
    /// actually achieved can be lower — the persistent pool caps helpers at
    /// its own width, a call that finds the pool busy (or is issued from a
    /// pool worker) runs inline on its caller, and small oracle calls run
    /// serially below the dispatch cutoff. Neither the configured nor the
    /// achieved width ever affects the estimate (deterministic
    /// seed-splitting), only the wall times.
    pub threads_used: usize,
}

/// The unified result of one evaluation of a prepared query against a
/// database.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The estimate of `|Ans(ϕ, D)|`.
    pub estimate: f64,
    /// The algorithm used.
    pub method: CountMethod,
    /// Whether the value is exact rather than approximate.
    pub exact: bool,
    /// The relative error actually guaranteed (`0` when exact).
    pub epsilon: f64,
    /// The failure probability actually guaranteed (`0` when exact).
    pub delta: f64,
    /// Evaluation telemetry.
    pub telemetry: Telemetry,
}

impl EstimateReport {
    /// An exact result (guaranteed `(ε, δ) = (0, 0)`).
    pub fn exact_value(estimate: f64, method: CountMethod) -> Self {
        EstimateReport {
            estimate,
            method,
            exact: true,
            epsilon: 0.0,
            delta: 0.0,
            telemetry: Telemetry::default(),
        }
    }

    /// An `(ε, δ)`-approximate result.
    pub fn approximate(estimate: f64, method: CountMethod, epsilon: f64, delta: f64) -> Self {
        EstimateReport {
            estimate,
            method,
            exact: false,
            epsilon,
            delta,
            telemetry: Telemetry::default(),
        }
    }

    /// Attach telemetry (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl fmt::Display for EstimateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.exact {
            write!(f, "{} (exact, {})", self.estimate, self.method)
        } else {
            write!(
                f,
                "{} (±{:.0}% with probability {:.0}%, {})",
                self.estimate,
                self.epsilon * 100.0,
                (1.0 - self.delta) * 100.0,
                self.method
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reports_zero_error() {
        let r = EstimateReport::exact_value(42.0, CountMethod::Fpras);
        assert!(r.exact);
        assert_eq!(r.epsilon, 0.0);
        assert_eq!(r.delta, 0.0);
        assert!(r.to_string().contains("exact"));
    }

    #[test]
    fn approximate_reports_the_guarantee() {
        let r = EstimateReport::approximate(10.0, CountMethod::Fptras, 0.25, 0.05);
        assert!(!r.exact);
        assert_eq!(r.epsilon, 0.25);
        assert!(r.to_string().contains("95%"));
        assert!(format!("{}", CountMethod::Fptras).contains("FPTRAS"));
        assert!(format!("{}", CountMethod::Exact).contains("exact"));
    }
}
