//! End-to-end tests for the command-line tool: generate a workload, write it
//! to disk, then count, sample and classify against it — the full pipeline a
//! downstream user would run.

use cqc_cli::{run, CliError};
use cqc_core::{exact_count_answers, ApproxConfig};
use cqc_data::parse_facts;
use cqc_query::parse_query;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cqc-cli-e2e-{}-{name}", std::process::id()));
    p
}

fn run_cli(parts: &[&str]) -> Result<String, CliError> {
    let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    run(&argv)
}

#[test]
fn generate_count_sample_classify_pipeline() {
    let db_path = temp_path("pipeline.facts");
    let db_str = db_path.to_str().unwrap();

    // 1. generate a small Erdős–Rényi digraph
    let out = run_cli(&[
        "generate",
        "--family",
        "erdos-renyi",
        "--n",
        "30",
        "--avg-degree",
        "3",
        "--seed",
        "42",
        "--out",
        db_str,
    ])
    .unwrap();
    assert!(out.contains("wrote"));

    // 2. approximate count of the paper's query (1), checked against the
    //    library's exact baseline on the very same file
    let query_text = "ans(x) :- E(x, y), E(x, z), y != z";
    let out = run_cli(&[
        "count",
        "--db",
        db_str,
        "--query",
        query_text,
        "--epsilon",
        "0.2",
        "--seed",
        "7",
    ])
    .unwrap();
    assert!(out.contains("FPTRAS"), "{out}");
    let estimate: f64 = out
        .lines()
        .find(|l| l.starts_with("estimate"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let db = parse_facts(&std::fs::read_to_string(&db_path).unwrap()).unwrap();
    let q = parse_query(query_text).unwrap();
    let truth = exact_count_answers(&q, &db) as f64;
    assert!(
        (estimate - truth).abs() <= 0.4 * truth.max(1.0),
        "cli estimate {estimate} vs exact {truth}"
    );

    // 3. `exact` agrees with the library baseline exactly
    let out = run_cli(&["exact", "--db", db_str, "--query", query_text]).unwrap();
    assert_eq!(out.trim().parse::<f64>().unwrap(), truth);

    // 4. samples are genuine answers
    let out = run_cli(&[
        "sample", "--db", db_str, "--query", query_text, "--count", "5", "--seed", "3",
    ])
    .unwrap();
    let cfg = ApproxConfig::new(0.3, 0.1);
    let _ = cfg; // silence unused in case sampling below changes
    let answers = cqc_query::enumerate_answers(&q, &db);
    for line in out.lines().skip(1) {
        let v: u32 = line.trim().parse().unwrap();
        assert!(
            answers.contains(&vec![cqc_data::Val(v)]),
            "sample {v} is not an answer"
        );
    }

    // 5. classify reports the DCQ / treewidth-1 cell of Figure 1
    let out = run_cli(&["classify", "--query", query_text]).unwrap();
    assert!(out.contains("DCQ"), "{out}");
    assert!(out.contains("treewidth             : 1"), "{out}");

    std::fs::remove_file(&db_path).ok();
}

#[test]
fn forced_fpras_on_a_plain_cq_tracks_exact() {
    let db_path = temp_path("fpras.facts");
    let db_str = db_path.to_str().unwrap();
    run_cli(&[
        "generate", "--family", "grid", "--rows", "5", "--cols", "5", "--out", db_str,
    ])
    .unwrap();

    let query_text = "ans(x, y) :- E(x, z), E(z, y)";
    let out = run_cli(&[
        "count",
        "--db",
        db_str,
        "--query",
        query_text,
        "--method",
        "fpras",
        "--epsilon",
        "0.2",
    ])
    .unwrap();
    assert!(out.contains("FPRAS"), "{out}");
    let estimate: f64 = out
        .lines()
        .find(|l| l.starts_with("estimate"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let db = parse_facts(&std::fs::read_to_string(&db_path).unwrap()).unwrap();
    let q = parse_query(query_text).unwrap();
    let truth = exact_count_answers(&q, &db) as f64;
    assert!(
        (estimate - truth).abs() <= 0.4 * truth.max(1.0),
        "cli estimate {estimate} vs exact {truth}"
    );
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn query_file_option_is_supported() {
    let db_path = temp_path("qfile.facts");
    let q_path = temp_path("query.txt");
    run_cli(&[
        "generate",
        "--family",
        "grid",
        "--rows",
        "3",
        "--cols",
        "3",
        "--out",
        db_path.to_str().unwrap(),
    ])
    .unwrap();
    std::fs::write(&q_path, "ans(x, y) :- E(x, y)\n").unwrap();
    let out = run_cli(&[
        "exact",
        "--db",
        db_path.to_str().unwrap(),
        "--query-file",
        q_path.to_str().unwrap(),
    ])
    .unwrap();
    // 3x3 grid: 12 undirected edges, stored in both directions
    assert_eq!(out.trim(), "24");
    std::fs::remove_file(&db_path).ok();
    std::fs::remove_file(&q_path).ok();
}

#[test]
fn malformed_inputs_produce_helpful_errors() {
    // missing database file
    let err = run_cli(&[
        "count",
        "--db",
        "/nonexistent/x.facts",
        "--query",
        "ans(x) :- E(x, y)",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Io(_)));

    // malformed facts file
    let bad = temp_path("bad.facts");
    std::fs::write(&bad, "relation E 2\nE 0 1\n").unwrap(); // missing universe
    let err = run_cli(&[
        "count",
        "--db",
        bad.to_str().unwrap(),
        "--query",
        "ans(x) :- E(x, y)",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Facts(_)));
    std::fs::remove_file(&bad).ok();

    // malformed query
    let db_path = temp_path("ok.facts");
    std::fs::write(&db_path, "universe 3\nrelation E 2\nE 0 1\n").unwrap();
    let err = run_cli(&[
        "count",
        "--db",
        db_path.to_str().unwrap(),
        "--query",
        "this is not a query",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Query(_)));

    // unknown option
    let err = run_cli(&[
        "exact",
        "--db",
        db_path.to_str().unwrap(),
        "--query",
        "ans(x, y) :- E(x, y)",
        "--epsilo",
        "0.1",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn exact_refuses_an_incompatible_database_like_count() {
    // the query negates `F`, which the database does not declare
    let db_path = temp_path("no-f.facts");
    std::fs::write(&db_path, "universe 3\nrelation E 2\nE 0 1\nE 1 2\n").unwrap();
    let db = db_path.to_str().unwrap();
    let query = "ans(x, y) :- E(x, y), !F(y, x)";
    let exact = run_cli(&["exact", "--db", db, "--query", query]).unwrap_err();
    let count = run_cli(&["count", "--db", db, "--query", query, "--method", "exact"]).unwrap_err();
    assert!(matches!(exact, CliError::Count(_)), "{exact}");
    assert_eq!(exact.to_string(), count.to_string());
    assert!(
        exact.to_string().contains("incompatible database"),
        "{exact}"
    );
    let exit = |e: CliError| cqc_cli::exit_code::<()>(&Err(e));
    assert_eq!(exit(exact), exit(count));

    // declaring `F` (with no facts) makes both commands answer
    std::fs::write(
        &db_path,
        "universe 3\nrelation E 2\nrelation F 2\nE 0 1\nE 1 2\n",
    )
    .unwrap();
    let out = run_cli(&["exact", "--db", db, "--query", query]).unwrap();
    assert_eq!(out.trim(), "2");
    std::fs::remove_file(&db_path).ok();
}
