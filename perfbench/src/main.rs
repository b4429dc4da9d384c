//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cq-fpras|dcq-ecq-fptras|serve-http> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the timed section runs whole passes
//! over a fixed op list until `--seconds` have passed. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. See `README.md` for
//! the workloads and the layer → end-to-end mapping.

mod engine;
mod gen;
mod reference;
mod serve;
mod stats;

use stats::{median, peak_rss_mb, quantile, Metrics};
use std::time::Instant;

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.parse_ms", "ms"),
    ("hypergraph.prepare_ms", "ms"),
    ("query.build_b_ms", "ms"),
    ("query.b_tuples", "count"),
    ("hom.bag_solutions_ms", "ms"),
    ("hom.bag_rows", "count"),
    ("core.lemma52_build_ms", "ms"),
    ("automata.states", "count"),
    ("automata.transitions", "count"),
    ("automata.ta_exact_ms", "ms"),
    ("automata.ta_acjr_ms", "ms"),
    ("dlm.self_ms", "ms"),
    ("dlm.oracle_calls", "count"),
    ("core.oracle_self_ms", "ms"),
    ("hom.decide_ms", "ms"),
    ("hom.decide_calls", "count"),
    ("hom.positive_ratio", "ratio"),
    ("dlm.sample_ms", "ms"),
    ("core.engine_over_exact", "ratio"),
    ("serve.handle_ms_p50", "ms"),
    ("serve.prepare_ms", "ms"),
    ("serve.evaluate_ms", "ms"),
    ("net.queue_wait_ms_p50", "ms"),
    ("net.queue_wait_ms_p99", "ms"),
    ("net.overhead_ms_p50", "ms"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("net.requests_shed", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The end-to-end metrics of a timed section, given as windows of per-op
/// latencies (ms) and wall time (s): each time metric is the median over
/// the windows of its value in a window. Also the op counts and the median
/// set-up time (s).
pub fn put_end_to_end(
    m: &mut Metrics,
    windows: &[(Vec<f64>, f64)],
    attempted: u64,
    failed: u64,
    setup_s: f64,
) {
    put_times(m, windows);
    m.put(
        "success_ratio",
        (attempted - failed) as f64 / attempted as f64,
    );
    m.put("setup_s", setup_s);
    m.put("peak_rss_mb", peak_rss_mb());
}

fn put_times(m: &mut Metrics, windows: &[(Vec<f64>, f64)]) {
    let over_windows = |f: &dyn Fn(&[f64], f64) -> f64| {
        median(
            &windows
                .iter()
                .map(|(l, wall)| f(l, *wall))
                .collect::<Vec<_>>(),
        )
    };
    m.put("ops_s", over_windows(&|l, wall| l.len() as f64 / wall));
    m.put("latency_p50_ms", over_windows(&|l, _| median(l)));
    m.put("latency_p90_ms", over_windows(&|l, _| quantile(l, 0.9)));
    m.put("latency_p99_ms", over_windows(&|l, _| quantile(l, 0.99)));
}

/// The time metrics of unscaled windows, for standard error: what the
/// reported metrics would read in wall-clock time.
pub fn wall_clock_summary(windows: &[(Vec<f64>, f64)]) -> String {
    let mut m = Metrics::default();
    put_times(&mut m, windows);
    format!(
        "wall clock: ops_s {:.3}, latency p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
        m.get("ops_s"),
        m.get("latency_p50_ms"),
        m.get("latency_p90_ms"),
        m.get("latency_p99_ms")
    )
}

/// Whether another unit of work (a pass or a round) fits into a budget of
/// `seconds` from `started`, given `done` units so far: always the first,
/// then only while the mean unit so far still fits.
pub fn fits_another(started: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    done == 0 || elapsed + elapsed / done as f64 <= seconds
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <cq-fpras|dcq-ecq-fptras|serve-http> --seed N --seconds S --trace <0|1>"
        );
        std::process::exit(2);
    });
    let outcome = if engine::is_engine_workload(&args.workload) {
        engine::run(&args.workload, args.seed, args.seconds as f64, args.trace)
    } else if args.workload == "serve-http" {
        serve::run(args.seed, args.seconds as f64, args.trace)
    } else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        outcome
            .metrics
            .result_line(table, outcome.correct, outcome.attempted, outcome.failed)
    );
}
