//! End-to-end integration tests exercising the public facade across crates:
//! the paper's running examples, the dichotomy dispatch of Figure 1, and the
//! agreement of every counting path with the exact baseline.

use cqcount::prelude::*;
use cqcount::workloads::{erdos_renyi, footnote4_star_query, graph_database, star_query};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_random_db(n: usize, avg_deg: f64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = erdos_renyi(n, avg_deg / n as f64, &mut rng);
    graph_database(&g, "E", false)
}

/// Prepare `query` under `config` with the given backend, then count it on
/// `db`.
fn count_with(
    backend: Backend,
    query: &Query,
    db: &Database,
    config: &ApproxConfig,
) -> EstimateReport {
    let engine = EngineBuilder::from_config(config.clone())
        .backend(backend)
        .build()
        .unwrap();
    engine.prepare(query).unwrap().count(db).unwrap()
}

#[test]
fn figure1_dispatch_and_accuracy() {
    let db = small_random_db(25, 3.0, 1);
    let cfg = ApproxConfig::new(0.25, 0.05).with_seed(1);

    // CQ → FPRAS
    let cq = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
    let r = count_with(Backend::Auto, &cq, &db, &cfg);
    assert_eq!(r.method, CountMethod::Fpras);
    let truth = exact_count_answers(&cq, &db) as f64;
    assert!((r.estimate - truth).abs() <= 0.3 * truth.max(1.0));

    // DCQ → FPTRAS
    let dcq = parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap();
    let r = count_with(Backend::Auto, &dcq, &db, &cfg);
    assert_eq!(r.method, CountMethod::Fptras);
    let truth = exact_count_answers(&dcq, &db) as f64;
    assert!((r.estimate - truth).abs() <= 0.3 * truth.max(1.0));

    // ECQ → FPTRAS
    let ecq = parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap();
    let r = count_with(Backend::Auto, &ecq, &db, &cfg);
    assert_eq!(r.method, CountMethod::Fptras);
    let truth = exact_count_answers(&ecq, &db) as f64;
    assert!((r.estimate - truth).abs() <= 0.3 * truth.max(1.0));
}

#[test]
fn paper_query_1_on_a_social_network() {
    // equation (1): persons with at least two distinct friends
    let mut b = StructureBuilder::new(6);
    b.relation("F", 2);
    for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (5, 0)] {
        b.fact("F", &[u, v]).unwrap();
    }
    let db = b.build();
    let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
    assert_eq!(q.class(), QueryClass::DCQ);
    let truth = exact_count_answers(&q, &db) as f64;
    assert_eq!(truth, 2.0); // persons 0 and 3
    let cfg = ApproxConfig::new(0.2, 0.05).with_seed(3);
    let r = count_with(Backend::Fptras, &q, &db, &cfg);
    assert!((r.estimate - truth).abs() <= 0.25 * truth);
    // sampling returns only actual answers
    let prepared = Engine::from_config(cfg).prepare(&q).unwrap();
    let samples = prepared.sample(&db, 20).unwrap();
    for s in samples {
        assert!(s[0] == Val(0) || s[0] == Val(3));
    }
}

#[test]
fn fpras_and_fptras_agree_on_plain_cqs() {
    // Both counting pipelines must agree with the exact baseline on plain CQs.
    // The FPTRAS cost grows quickly with the number of free variables (its
    // edge counter works over an ℓ-partite hypergraph with ℓ·|U(D)| vertices),
    // so the k = 3 star is checked on a smaller database than the k = 2 star.
    let cfg = ApproxConfig::new(0.25, 0.1).with_seed(5);
    let cases = [
        (footnote4_star_query(2, false), small_random_db(20, 4.0, 5)),
        (footnote4_star_query(3, false), small_random_db(9, 2.5, 5)),
    ];
    for (spec, db) in cases {
        let truth = exact_count_answers(&spec.query, &db) as f64;
        let fpras = count_with(Backend::Fpras, &spec.query, &db, &cfg).estimate;
        let fptras = count_with(Backend::Fptras, &spec.query, &db, &cfg).estimate;
        assert!(
            (fpras - truth).abs() <= 0.3 * truth.max(1.0),
            "{}: fpras {} truth {}",
            spec.name,
            fpras,
            truth
        );
        assert!(
            (fptras - truth).abs() <= 0.3 * truth.max(1.0),
            "{}: fptras {} truth {}",
            spec.name,
            fptras,
            truth
        );
    }
}

#[test]
fn hamiltonian_paths_observation_10() {
    let q = hamiltonian_path_query(4);
    let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let db = undirected_graph_database(4, &k4);
    assert_eq!(exact_count_answers(&q, &db), 24);
    // the query hypergraph stays a path despite the quadratic disequalities
    let h = cqcount::query::query_hypergraph(&q);
    assert_eq!(cqcount::hypergraph::treewidth::treewidth_exact(&h).0, 1);
}

#[test]
fn locally_injective_homomorphisms_corollary_6() {
    use cqcount::core::lihom::PatternGraph;
    let pattern = PatternGraph::star(2);
    let host_edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
    let q = cqcount::core::locally_injective_query(&pattern);
    let db = cqcount::core::lihom::host_graph_database(4, &host_edges);
    // every vertex of C4 has exactly 2 distinct neighbours: 4 · 2 = 8
    assert_eq!(exact_count_answers(&q, &db), 8);
    let cfg = ApproxConfig::new(0.25, 0.05).with_seed(6);
    let r = count_locally_injective_homomorphisms(&pattern, 4, &host_edges, &cfg).unwrap();
    assert!((r.estimate - 8.0).abs() <= 2.0);
}

#[test]
fn union_counting_section_6() {
    let db = small_random_db(15, 3.0, 7);
    let q1 = parse_query("ans(x, y) :- E(x, y)").unwrap();
    let q2 = parse_query("ans(x, y) :- E(y, x)").unwrap();
    let queries = vec![q1.clone(), q2.clone()];
    let mut all = std::collections::BTreeSet::new();
    for q in &queries {
        all.extend(cqcount::query::enumerate_answers(q, &db));
    }
    let truth = all.len() as f64;
    let cfg = ApproxConfig::new(0.2, 0.1).with_seed(7);
    let est = count_union(&queries, &db, 400, &cfg).unwrap();
    assert!(
        (est - truth).abs() <= 0.3 * truth.max(1.0),
        "union estimate {est} vs {truth}"
    );
}

#[test]
fn star_query_scaling_smoke_test() {
    // a slightly larger instance to make sure nothing degrades pathologically
    let db = small_random_db(60, 3.0, 9);
    let spec = star_query(2, true);
    let truth = exact_count_answers(&spec.query, &db) as f64;
    let cfg = ApproxConfig::new(0.3, 0.1).with_seed(9);
    let r = count_with(Backend::Fptras, &spec.query, &db, &cfg);
    assert!(
        (r.estimate - truth).abs() <= 0.35 * truth.max(1.0),
        "estimate {} truth {}",
        r.estimate,
        truth
    );
}

// ---------------------------------------------------------------------------
// Golden-file CLI tests: the full stdout of `cqc count` / `cqc sample` /
// `cqc serve` is pinned against files under tests/golden/, so any output
// drift — estimates, dispatch lines, the `threads=` amortised summary, the
// serve response format — fails loudly. Wall-clock numbers are the only
// nondeterministic part and are normalised to `<T>`. Regenerate with
// `UPDATE_GOLDEN=1 cargo test --test end_to_end`.
// ---------------------------------------------------------------------------

/// Replace every `<float> ms` occurrence with `<T> ms` (wall times are the
/// only nondeterministic bytes in the pinned outputs).
fn normalize_times(out: &str) -> String {
    let mut text = String::with_capacity(out.len());
    let mut rest = out;
    while let Some(pos) = rest.find(" ms") {
        let (before, after) = rest.split_at(pos);
        let num_start = before
            .rfind(|c: char| !(c.is_ascii_digit() || c == '.'))
            .map(|i| i + 1)
            .unwrap_or(0);
        if num_start < before.len() && before[num_start..].contains(|c: char| c.is_ascii_digit()) {
            text.push_str(&before[..num_start]);
            text.push_str("<T>");
        } else {
            text.push_str(before);
        }
        text.push_str(" ms");
        rest = &after[3..];
    }
    text.push_str(rest);
    text
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("tests/golden/{name}");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "`{name}` drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn run_cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    cqc_cli::run(&argv).expect("cli run succeeds")
}

#[test]
fn golden_count_single_database() {
    let out = run_cli(&[
        "count",
        "--db",
        "tests/data/friends.facts",
        "--query",
        "ans(x) :- E(x, y), E(x, z), y != z",
        "--epsilon",
        "0.2",
        "--seed",
        "7",
        "--threads",
        "2",
    ]);
    check_golden("count_friends.txt", &normalize_times(&out));
}

#[test]
fn golden_count_amortised_multi_db_pins_threads_summary() {
    let out = run_cli(&[
        "count",
        "--db",
        "tests/data/friends.facts",
        "tests/data/friends2.facts",
        "--query",
        "ans(x) :- E(x, y), E(x, z), y != z",
        "--repeat",
        "3",
        "--seed",
        "9",
        "--threads",
        "2",
    ]);
    let normalized = normalize_times(&out);
    // the amortised summary (with its scrapeable threads= field) must
    // survive normalisation verbatim apart from the wall times
    assert!(
        normalized.contains("plan reused, threads=2"),
        "{normalized}"
    );
    assert!(
        normalized.contains("6 run(s) in <T> ms total"),
        "{normalized}"
    );
    check_golden("count_amortised.txt", &normalized);
}

#[test]
fn golden_sample_output_is_fully_deterministic() {
    let out = run_cli(&[
        "sample",
        "--db",
        "tests/data/friends.facts",
        "--query",
        "ans(x) :- E(x, y), E(x, z), y != z",
        "--count",
        "6",
        "--seed",
        "3",
        "--threads",
        "2",
    ]);
    // sampling output carries no wall times: pin it byte-for-byte
    check_golden("sample_friends.txt", &out);
}

#[test]
fn golden_serve_response_lines() {
    let requests = "tests/data/serve_requests.jsonl";
    let out = run_cli(&["serve", "--requests", requests, "--shards", "2"]);
    check_golden("serve_responses.txt", &out);
}

#[test]
fn normalize_times_only_touches_wall_times() {
    let s = "planned in  : 0.123 ms\nestimate    : 2\nevaluated   : 6 run(s) in 1.5 ms total (0.25 ms/run, plan reused, threads=2)\n";
    let n = normalize_times(s);
    assert_eq!(
        n,
        "planned in  : <T> ms\nestimate    : 2\nevaluated   : 6 run(s) in <T> ms total (<T> ms/run, plan reused, threads=2)\n"
    );
    // idempotent and stable on time-free text
    assert_eq!(normalize_times(&n), n);
    assert_eq!(normalize_times("estimate : 2\n"), "estimate : 2\n");
}

#[test]
fn naive_monte_carlo_baseline_runs() {
    let db = small_random_db(20, 3.0, 11);
    let q = parse_query("ans(x, y) :- E(x, y)").unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let truth = exact_count_answers(&q, &db) as f64;
    let est = naive_monte_carlo(&q, &db, 30_000, &mut rng);
    assert!((est - truth).abs() <= 0.25 * truth.max(1.0));
}
