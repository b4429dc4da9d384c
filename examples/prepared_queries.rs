//! Plan once, count many: the `Engine` / `PreparedQuery` API.
//!
//! Prepares the paper's running example query (1) a single time, then
//! evaluates it against a growing sequence of database snapshots — the
//! shape of a production deployment where one fixed query meets millions of
//! data states. Compares the amortised per-evaluation cost against
//! re-planning on every call.
//!
//! Run with `cargo run --release --example prepared_queries`.

use cqcount::prelude::*;
use cqcount::workloads::{erdos_renyi, graph_database};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the example reports its own wall times; no estimate reads them"
)]
fn main() {
    // ϕ(x) = ∃y ∃z F(x,y) ∧ F(x,z) ∧ y ≠ z — "x has two distinct friends".
    let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();

    // Twelve snapshots of a growing social network.
    let snapshots: Vec<Database> = (0..12)
        .map(|day| {
            let n = 30 + 5 * day;
            let mut rng = StdRng::seed_from_u64(1000 + day as u64);
            let g = erdos_renyi(n, 3.0 / n as f64, &mut rng);
            graph_database(&g, "F", false)
        })
        .collect();

    let engine = Engine::builder()
        .accuracy(0.25, 0.05)
        .seed(7)
        .build()
        .unwrap();

    // Plan once...
    let t = Instant::now();
    let prepared = engine.prepare(&q).unwrap();
    let planning = t.elapsed();
    let summary = prepared.plan_summary();
    println!(
        "prepared {:?} query for {} (repetition budget {:?}) in {:.3} ms",
        summary.class,
        summary.method,
        summary.colour_repetitions,
        planning.as_secs_f64() * 1e3
    );

    // ...evaluate everywhere.
    let t = Instant::now();
    let reports = prepared.count_batch(&snapshots).unwrap();
    let prepared_time = t.elapsed();
    for (day, r) in reports.iter().enumerate() {
        println!(
            "day {day:>2}: estimate {:>7.1}   ({} oracle calls, {:.3} ms)",
            r.estimate,
            r.telemetry.oracle_calls,
            r.telemetry.wall.as_secs_f64() * 1e3
        );
    }

    // Re-planning per call gives the same estimates for more work.
    let t = Instant::now();
    for (day, db) in snapshots.iter().enumerate() {
        let fresh = engine.prepare(&q).unwrap().count(db).unwrap();
        assert_eq!(
            fresh.estimate, reports[day].estimate,
            "a fresh plan and the reused plan must agree bit-for-bit"
        );
    }
    let replanned_time = t.elapsed();

    println!(
        "\n{} evaluations: prepared {:.1} ms total (+ {:.1} ms planning, paid once) vs re-planned {:.1} ms",
        snapshots.len(),
        prepared_time.as_secs_f64() * 1e3,
        planning.as_secs_f64() * 1e3,
        replanned_time.as_secs_f64() * 1e3
    );
}
