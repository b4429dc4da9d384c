//! The `count` and `exact` commands: estimate or exactly compute
//! `|Ans(ϕ, D)|`, reporting which scheme of Figure 1 was used.
//!
//! `count` is built on the prepared-query engine: the query is planned
//! *once* (`Engine::prepare`), then evaluated against every given database
//! — the first `--db` plus any extra facts files passed as positional
//! arguments — `--repeat` times each, so the planning cost amortises across
//! the whole run exactly as in the library API.

use crate::common::{approx_config, load_database, load_facts_file, load_query};
use crate::{Args, CliError};
use cqc_core::{Backend, EngineBuilder, PreparedQuery};
use cqc_data::Structure;
use cqc_runtime::resolve_threads;
use std::fmt::Write as _;

/// Load the extra databases passed as positional facts files.
fn load_extra_databases(args: &Args) -> Result<Vec<(String, Structure)>, CliError> {
    args.positional()
        .iter()
        .map(|path| Ok((path.clone(), load_facts_file(path)?)))
        .collect()
}

fn write_plan_header(out: &mut String, prepared: &PreparedQuery) {
    let summary = prepared.plan_summary();
    writeln!(out, "scheme      : {}", summary.method).unwrap();
    if let Some(fhw) = summary.fhw {
        writeln!(out, "fhw used    : {fhw:.3}").unwrap();
    }
    if let Some(tw) = summary.query_treewidth {
        writeln!(out, "treewidth   : {tw}").unwrap();
    }
    if let Some(reps) = summary.colour_repetitions {
        writeln!(out, "repetitions : {reps}").unwrap();
    }
    writeln!(
        out,
        "planned in  : {:.3} ms",
        summary.planning_time.as_secs_f64() * 1e3
    )
    .unwrap();
}

/// Run `cqc count`.
pub fn run_count(args: &Args) -> Result<String, CliError> {
    let query = load_query(args)?;
    let first_db = load_database(args)?;
    let cfg = approx_config(args)?;
    let backend: Backend = args
        .value_of("method")
        .unwrap_or("auto")
        .parse()
        .map_err(CliError::Usage)?;
    let repeat: usize = args.get_or("repeat", 1)?;
    if repeat == 0 {
        return Err(CliError::Usage("`--repeat` must be at least 1".into()));
    }
    let quiet = args.switch("quiet");
    let extra = load_extra_databases(args)?;

    let engine = EngineBuilder::from_config(cfg.clone())
        .backend(backend)
        .build()
        .map_err(|e| CliError::Usage(e.to_string()))?;

    // Plan once; every evaluation below reuses the prepared query.
    let prepared = engine
        .prepare(&query)
        .map_err(|e| CliError::Count(e.to_string()))?;

    let mut dbs: Vec<(String, Structure)> = Vec::with_capacity(1 + extra.len());
    dbs.push((args.value_of("db").unwrap_or("db").to_string(), first_db));
    dbs.extend(extra);

    let mut out = String::new();
    if !quiet {
        writeln!(out, "query class : {:?}", query.class()).unwrap();
        writeln!(out, "‖ϕ‖         : {}", query.size()).unwrap();
        writeln!(out, "free vars   : {}", query.num_free_vars()).unwrap();
        for (name, db) in &dbs {
            writeln!(
                out,
                "database    : {name} — {} elements, {} facts",
                db.universe_size(),
                db.fact_count()
            )
            .unwrap();
        }
        writeln!(out, "ε, δ        : {}, {}", cfg.epsilon, cfg.delta).unwrap();
        writeln!(out, "threads     : {}", resolve_threads(cfg.threads)).unwrap();
        write_plan_header(&mut out, &prepared);
    }

    let mut total_eval = std::time::Duration::ZERO;
    let mut evaluations = 0usize;
    for (name, db) in &dbs {
        let mut last_report = None;
        for _ in 0..repeat {
            let report = prepared
                .count(db)
                .map_err(|e| CliError::Count(e.to_string()))?;
            total_eval += report.telemetry.wall;
            evaluations += 1;
            last_report = Some(report);
        }
        // Report once per database (repeats are deterministic duplicates,
        // run purely to demonstrate/measure plan amortisation).
        let report = last_report.as_ref().unwrap();
        if dbs.len() > 1 {
            writeln!(out, "[{name}]").unwrap();
        }
        writeln!(out, "exact?      : {}", report.exact).unwrap();
        writeln!(out, "estimate    : {}", report.estimate).unwrap();
    }

    if !quiet && (repeat > 1 || dbs.len() > 1) {
        // `threads=` is part of the scrapeable summary: bench scripts parse
        // it out of the amortised timing line.
        writeln!(
            out,
            "evaluated   : {} run(s) in {:.3} ms total ({:.3} ms/run, plan reused, threads={})",
            evaluations,
            total_eval.as_secs_f64() * 1e3,
            total_eval.as_secs_f64() * 1e3 / evaluations as f64,
            resolve_threads(cfg.threads)
        )
        .unwrap();
    }
    Ok(out)
}

/// Run `cqc exact`: the engine's exact backend, so an incompatible database
/// is refused exactly as `cqc count --method exact` refuses it.
pub fn run_exact(args: &Args) -> Result<String, CliError> {
    let query = load_query(args)?;
    let db = load_database(args)?;
    let report = EngineBuilder::new()
        .backend(Backend::Exact)
        .build()
        .and_then(|engine| engine.prepare(&query)?.count(&db))
        .map_err(|e| CliError::Count(e.to_string()))?;
    Ok(format!("{}\n", report.estimate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use std::path::PathBuf;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cqc-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    const DB: &str = "\
universe 6
relation E 2
E 0 1
E 0 2
E 1 2
E 2 3
E 3 4
E 3 5
E 5 0
";

    const DB2: &str = "\
universe 4
relation E 2
E 0 1
E 0 2
E 3 1
E 3 2
";

    #[test]
    fn method_parsing() {
        let parse = |raw: &str| raw.parse::<Backend>();
        assert_eq!(parse("auto").unwrap(), Backend::Auto);
        assert_eq!(parse("fpras").unwrap(), Backend::Fpras);
        assert_eq!(parse("fptras").unwrap(), Backend::Fptras);
        assert_eq!(parse("brute").unwrap(), Backend::Exact);
        assert_eq!(parse("bruteforce").unwrap(), Backend::Exact);
        assert_eq!(
            parse("magic").unwrap_err(),
            "unknown method `magic` (expected auto | fpras | fptras | exact)"
        );
    }

    #[test]
    fn exact_command_counts_the_friends_query() {
        let db = write_temp("exact.facts", DB);
        let out = run_exact(
            &args_from([
                "exact",
                "--db",
                db.to_str().unwrap(),
                "--query",
                "ans(x) :- E(x, y), E(x, z), y != z",
            ])
            .unwrap(),
        )
        .unwrap();
        assert_eq!(out.trim(), "2");
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn count_auto_dispatches_and_reports() {
        let db = write_temp("auto.facts", DB);
        let out = run_count(
            &args_from([
                "count",
                "--db",
                db.to_str().unwrap(),
                "--query",
                "ans(x) :- E(x, y), E(x, z), y != z",
                "--epsilon",
                "0.2",
                "--seed",
                "7",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("FPTRAS"), "{out}");
        assert!(out.contains("estimate"), "{out}");
        assert!(out.contains("planned in"), "{out}");
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn repeat_reuses_the_plan_and_reports_totals() {
        let db = write_temp("repeat.facts", DB);
        let out = run_count(
            &args_from([
                "count",
                "--db",
                db.to_str().unwrap(),
                "--query",
                "ans(x) :- E(x, y), E(x, z), y != z",
                "--repeat",
                "3",
                "--seed",
                "5",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("3 run(s)"), "{out}");
        assert!(out.contains("plan reused"), "{out}");
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn multiple_databases_share_one_plan() {
        let db1 = write_temp("multi1.facts", DB);
        let db2 = write_temp("multi2.facts", DB2);
        let out = run_count(
            &args_from([
                "count",
                "--db",
                db1.to_str().unwrap(),
                db2.to_str().unwrap(),
                "--query",
                "ans(x) :- E(x, y), E(x, z), y != z",
                "--seed",
                "9",
            ])
            .unwrap(),
        )
        .unwrap();
        // one estimate line per database, plus the amortisation summary
        assert_eq!(out.matches("estimate    :").count(), 2, "{out}");
        assert!(out.contains("2 run(s)"), "{out}");
        // DB2: elements 0 and 3 each have two distinct out-neighbours
        let last_estimate: f64 = out
            .lines()
            .rev()
            .find(|l| l.starts_with("estimate"))
            .and_then(|l| l.split(':').nth(1))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!((last_estimate - 2.0).abs() <= 1.0, "{out}");
        std::fs::remove_file(db1).ok();
        std::fs::remove_file(db2).ok();
    }

    #[test]
    fn zero_repeat_is_rejected() {
        let db = write_temp("zero.facts", DB);
        let err = run_count(
            &args_from([
                "count",
                "--db",
                db.to_str().unwrap(),
                "--query",
                "ans(x, y) :- E(x, y)",
                "--repeat",
                "0",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn fpras_is_refused_for_dcqs() {
        let db = write_temp("refuse.facts", DB);
        let err = run_count(
            &args_from([
                "count",
                "--db",
                db.to_str().unwrap(),
                "--query",
                "ans(x) :- E(x, y), E(x, z), y != z",
                "--method",
                "fpras",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("Observation 10"), "{err}");
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn missing_query_is_a_usage_error() {
        let db = write_temp("noquery.facts", DB);
        let err =
            run_count(&args_from(["count", "--db", db.to_str().unwrap()]).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn bad_epsilon_is_rejected() {
        let db = write_temp("eps.facts", DB);
        let err = run_count(
            &args_from([
                "count",
                "--db",
                db.to_str().unwrap(),
                "--query",
                "ans(x, y) :- E(x, y)",
                "--epsilon",
                "1.5",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_file(db).ok();
    }
}
