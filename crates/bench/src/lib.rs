//! # cqc-bench — benchmark harness
//!
//! Shared utilities for the report binary (`src/bin/report.rs`) that
//! regenerates the experiment tables. `report` and the repo benchmark
//! (`perfbench/`) are the workspace's only benchmark harnesses.

#![forbid(unsafe_code)]

use cqc_obs::Stopwatch;

/// Measure the wall-clock time of a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed().as_secs_f64())
}

/// Relative error of an estimate against the ground truth (0 when both are 0).
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate - truth).abs() / truth
    }
}

/// Print a table row with pipe separators (markdown-ish, easy to diff).
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a table header plus separator line.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn timed_returns_value() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
