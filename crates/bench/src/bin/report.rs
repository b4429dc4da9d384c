//! Regenerate the experiment tables.
//!
//! Usage:
//! ```text
//! cargo run --release -p cqc-bench --bin report -- <experiment> [--large]
//! cargo run --release -p cqc-bench --bin report -- all
//! ```
//! The experiment names are listed in `EXPERIMENTS`; any other name prints
//! the usage and the list to stderr and exits 2. `--large` uses the full
//! problem sizes. At the default sizes most experiments
//! take seconds (`widths` 0.2 s, `thm16` 2.5 s on a 2-vCPU VM), but `cor6`
//! and `ablation-naive`, which both count with the FPTRAS, each ran past
//! 300 s there without finishing (ROADMAP item 3), so `all` is slow.

use cqc_bench::{header, relative_error, row, timed};
use cqc_core::lihom::PatternGraph;
use cqc_core::{
    count_locally_injective_homomorphisms, count_union, exact_count_answers,
    hamiltonian_path_query, naive_monte_carlo, undirected_graph_database, ApproxConfig, Backend,
    Engine, EngineBuilder, EstimateReport,
};
use cqc_data::{Structure, StructureBuilder, Val};
use cqc_hom::{for_each_homomorphism, HomDecider, HomInstance, HybridDecider};
use cqc_hypergraph::adaptive::adaptive_width_bounds;
use cqc_hypergraph::fwidth::{minimise_width, WidthMeasure};
use cqc_hypergraph::treewidth::treewidth_exact;
use cqc_query::{enumerate_answers, query_hypergraph, Query};
use cqc_runtime::Runtime;
use cqc_workloads::graphs::random_ternary_database;
use cqc_workloads::{
    clique_query, erdos_renyi, footnote4_star_query, graph_database, hyperchain_query, path_query,
    star_query,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::ControlFlow;

/// An experiment's name and its runner, which takes the `--large` flag.
type Experiment = (&'static str, fn(bool));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("thm5", experiment_thm5),
    ("obs9", experiment_obs9),
    ("obs10", experiment_obs10),
    ("cor6", experiment_cor6),
    ("thm13", experiment_thm13),
    ("thm16", experiment_thm16),
    ("footnote4", experiment_footnote4),
    ("sampling", |_| experiment_sampling()),
    ("unions", |_| experiment_unions()),
    ("widths", |_| experiment_widths()),
    ("ablation-colour", |_| experiment_ablation_colour()),
    ("ablation-naive", |_| experiment_ablation_naive()),
    ("parallel", experiment_parallel),
    ("hom-engines", |_| experiment_hom_engines()),
    ("ablation-dlm", |_| experiment_ablation_dlm()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = args.iter().any(|a| a == "--large");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    if which != "all" && !EXPERIMENTS.iter().any(|&(name, _)| name == which) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        eprintln!("unknown experiment `{which}`");
        eprintln!("usage: report <experiment|all> [--large]");
        eprintln!("experiments: {}", names.join(", "));
        std::process::exit(2);
    }
    for &(name, experiment) in EXPERIMENTS {
        if which == "all" || which == name {
            experiment(large);
        }
    }
}

/// Run `f` `reps` times; return its last result and the mean wall time per
/// run in milliseconds.
fn mean_ms<T>(reps: u32, f: impl Fn() -> T) -> (T, f64) {
    let (last, secs) = timed(|| {
        for _ in 1..reps {
            std::hint::black_box(f());
        }
        f()
    });
    (last, secs * 1e3 / f64::from(reps))
}

/// Prepare `query` under `config` with the given backend, then count it on
/// `db` (planning included, as a one-off count pays it).
fn count_with(
    backend: Backend,
    query: &Query,
    db: &Structure,
    config: &ApproxConfig,
) -> EstimateReport {
    EngineBuilder::from_config(config.clone())
        .backend(backend)
        .build()
        .and_then(|engine| engine.prepare(query))
        .and_then(|prepared| prepared.count(db))
        .unwrap()
}

/// Parallel scaling of the deterministic runtime: repetitions/sec
/// on the Theorem 5 colour-coding workload and wall time on the Theorem 16
/// Karp–Luby workload, at 1/2/4/8 threads. The estimates are asserted
/// bit-identical across thread counts on every row.
fn experiment_parallel(large: bool) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n== Parallel scaling (deterministic runtime; host parallelism = {host}) ==");
    header(&[
        "workload", "threads", "estimate", "secs", "reps/sec", "speedup",
    ]);
    let (n_dcq, n_cq) = if large { (96, 32) } else { (48, 24) };

    let scaling_rows = |label: &str,
                        query: &Query,
                        db: &Structure,
                        configure: &dyn Fn(EngineBuilder) -> EngineBuilder,
                        show_reps: bool| {
        let mut base_secs = None;
        let mut base_hom = None;
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let engine = configure(Engine::builder().accuracy(0.3, 0.1).threads(threads))
                .build()
                .unwrap();
            let prepared = engine.prepare(query).unwrap();
            let (report, secs) = timed(|| prepared.count(db).unwrap());
            match reference {
                None => reference = Some(report.estimate),
                Some(e) => assert_eq!(
                    e.to_bits(),
                    report.estimate.to_bits(),
                    "determinism violated at {threads} threads"
                ),
            }
            let base = *base_secs.get_or_insert(secs);
            // Fixed logical budget (the 1-thread run's hom calls) over wall
            // time: per-row hom_calls would count scheduling-dependent
            // speculative rounds and overstate throughput at high thread
            // counts.
            let work = *base_hom.get_or_insert(report.telemetry.hom_calls) as f64;
            row(&[
                label.into(),
                threads.to_string(),
                format!("{}", report.estimate),
                format!("{secs:.3}"),
                if show_reps {
                    format!("{:.0}", work / secs)
                } else {
                    "-".into()
                },
                format!("{:.2}x", base / secs),
            ]);
        }
    };

    // Theorem 5 colour-coding repetitions.
    let dcq = star_query(2, true).query;
    let dcq_db = {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi(n_dcq, 3.0 / n_dcq as f64, &mut rng);
        graph_database(&g, "E", false)
    };
    scaling_rows(
        "thm5 colour",
        &dcq,
        &dcq_db,
        &|b| b.seed(11).colour_repetitions(64),
        true,
    );

    // Theorem 16 Karp–Luby union trials (sampling counter forced).
    let cq = footnote4_star_query(2, false).query;
    let cq_db = {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi(n_cq, 3.0 / n_cq as f64, &mut rng);
        graph_database(&g, "E", false)
    };
    scaling_rows(
        "thm16 union",
        &cq,
        &cq_db,
        &|b| b.seed(13).exact_state_budget(0),
        false,
    );
}

fn experiment_thm5(large: bool) {
    println!("\n== E1 (Theorem 5): FPTRAS for bounded-treewidth ECQs ==");
    header(&[
        "query",
        "n",
        "exact",
        "estimate",
        "rel.err",
        "hom calls",
        "secs",
    ]);
    let sizes: &[usize] = if large {
        &[50, 100, 200, 400]
    } else {
        &[30, 60]
    };
    let queries = vec![
        star_query(2, true),
        path_query(2, true, false),
        path_query(2, true, true),
    ];
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n, 3.0 / n as f64, &mut rng);
        let db = graph_database(&g, "E", false);
        for spec in &queries {
            let truth = exact_count_answers(&spec.query, &db) as f64;
            let cfg = ApproxConfig::new(0.25, 0.1).with_seed(n as u64);
            let (r, secs) = timed(|| count_with(Backend::Fptras, &spec.query, &db, &cfg));
            row(&[
                spec.name.clone(),
                n.to_string(),
                truth.to_string(),
                format!("{:.1}", r.estimate),
                format!("{:.3}", relative_error(r.estimate, truth)),
                r.telemetry.hom_calls.to_string(),
                format!("{secs:.2}"),
            ]);
        }
    }
}

/// E2 — Observation 9: runtime growth with query treewidth (clique queries).
fn experiment_obs9(large: bool) {
    println!("\n== E2 (Observation 9): clique queries, runtime vs treewidth ==");
    header(&["k", "tw(H(ϕ))", "estimate", "exact", "secs"]);
    let ks: &[usize] = if large { &[2, 3, 4, 5] } else { &[2, 3, 4] };
    let n = if large { 60 } else { 25 };
    let mut rng = StdRng::seed_from_u64(9);
    let g = erdos_renyi(n, 0.3, &mut rng);
    let db = graph_database(&g, "E", true);
    for &k in ks {
        let spec = clique_query(k, true);
        let h = query_hypergraph(&spec.query);
        let tw = treewidth_exact(&h).0;
        let truth = exact_count_answers(&spec.query, &db) as f64;
        let cfg = ApproxConfig::new(0.3, 0.1).with_seed(k as u64);
        let (r, secs) = timed(|| count_with(Backend::Fptras, &spec.query, &db, &cfg));
        row(&[
            k.to_string(),
            tw.to_string(),
            format!("{:.1}", r.estimate),
            truth.to_string(),
            format!("{secs:.2}"),
        ]);
    }
}

/// E3 — Observation 10: Hamiltonian paths as a treewidth-1 DCQ.
fn experiment_obs10(large: bool) {
    println!("\n== E3 (Observation 10): Hamiltonian-path DCQ ==");
    header(&["n", "‖ϕ‖", "|Δ|", "exact #paths", "estimate", "secs"]);
    let ns: &[usize] = if large { &[4, 5, 6] } else { &[3, 4] };
    for &n in ns {
        let q = hamiltonian_path_query(n);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n + 2, 0.6, &mut rng);
        let db = undirected_graph_database(n + 2, &g.undirected_edges());
        let truth = exact_count_answers(&q, &db) as f64;
        let cfg = ApproxConfig {
            epsilon: 0.3,
            delta: 0.2,
            seed: n as u64,
            // the full 4^{|Δ|} budget is what makes this FPT rather than
            // polynomial — Observation 10 is exactly about this gap
            colour_repetitions: Some(4usize.pow((n * (n - 1) / 2) as u32).min(20_000)),
            ..Default::default()
        };
        let (r, secs) = timed(|| count_with(Backend::Fptras, &q, &db, &cfg));
        row(&[
            n.to_string(),
            q.size().to_string(),
            q.disequalities().len().to_string(),
            truth.to_string(),
            format!("{:.1}", r.estimate),
            format!("{secs:.2}"),
        ]);
    }
}

/// E4 — Corollary 6: locally injective homomorphisms.
fn experiment_cor6(large: bool) {
    println!("\n== E4 (Corollary 6): locally injective homomorphisms ==");
    header(&["pattern", "host n", "exact", "estimate", "rel.err", "secs"]);
    let hosts: &[usize] = if large { &[40, 80, 160] } else { &[20, 40] };
    let patterns = vec![
        ("P3", PatternGraph::path(3)),
        ("star3", PatternGraph::star(3)),
        ("C4", PatternGraph::cycle(4)),
    ];
    for &n in hosts {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n, 4.0 / n as f64, &mut rng);
        let edges = g.undirected_edges();
        for (name, pattern) in &patterns {
            let q = cqc_core::locally_injective_query(pattern);
            let host = cqc_core::lihom::host_graph_database(n, &edges);
            let truth = exact_count_answers(&q, &host) as f64;
            let cfg = ApproxConfig::new(0.25, 0.1).with_seed(n as u64);
            let (r, secs) =
                timed(|| count_locally_injective_homomorphisms(pattern, n, &edges, &cfg).unwrap());
            row(&[
                name.to_string(),
                n.to_string(),
                truth.to_string(),
                format!("{:.1}", r.estimate),
                format!("{:.3}", relative_error(r.estimate, truth)),
                format!("{secs:.2}"),
            ]);
        }
    }
}

/// E5 — Theorem 13: DCQs over ternary relations (unbounded arity).
fn experiment_thm13(large: bool) {
    println!("\n== E5 (Theorem 13): FPTRAS for DCQs with ternary relations ==");
    header(&[
        "query", "n", "facts", "exact", "estimate", "rel.err", "secs",
    ]);
    let sizes: &[(usize, usize)] = if large {
        &[(30, 200), (60, 600), (90, 1200)]
    } else {
        &[(15, 60), (25, 120)]
    };
    for &(n, facts) in sizes {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let db = random_ternary_database(n, facts, &mut rng);
        for spec in [hyperchain_query(2, true), hyperchain_query(3, true)] {
            let truth = exact_count_answers(&spec.query, &db) as f64;
            let cfg = ApproxConfig::new(0.25, 0.1).with_seed(n as u64);
            let (r, secs) = timed(|| count_with(Backend::Fptras, &spec.query, &db, &cfg));
            row(&[
                spec.name.clone(),
                n.to_string(),
                facts.to_string(),
                truth.to_string(),
                format!("{:.1}", r.estimate),
                format!("{:.3}", relative_error(r.estimate, truth)),
                format!("{secs:.2}"),
            ]);
        }
    }
}

/// E6 — Theorem 16: FPRAS for CQs of bounded fractional hypertreewidth.
fn experiment_thm16(large: bool) {
    println!("\n== E6 (Theorem 16): FPRAS for CQs (bounded fhw) ==");
    header(&[
        "query",
        "n",
        "exact",
        "estimate",
        "rel.err",
        "fhw",
        "states",
        "exact slice",
        "secs",
    ]);
    let sizes: &[usize] = if large {
        &[50, 100, 200, 400]
    } else {
        &[30, 60]
    };
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n, 4.0 / n as f64, &mut rng);
        let db = graph_database(&g, "E", false);
        for spec in [
            path_query(3, false, false),
            footnote4_star_query(2, false),
            footnote4_star_query(3, false),
        ] {
            let truth = exact_count_answers(&spec.query, &db) as f64;
            let cfg = ApproxConfig::new(0.2, 0.1).with_seed(n as u64);
            let (r, secs) = timed(|| count_with(Backend::Fpras, &spec.query, &db, &cfg));
            row(&[
                spec.name.clone(),
                n.to_string(),
                truth.to_string(),
                format!("{:.1}", r.estimate),
                format!("{:.3}", relative_error(r.estimate, truth)),
                format!("{:.2}", r.telemetry.fhw.unwrap()),
                r.telemetry.automaton_states.to_string(),
                r.exact.to_string(),
                format!("{secs:.2}"),
            ]);
        }
    }
}

/// E7 — footnote 4: brute force vs FPRAS vs FPTRAS-with-disequalities.
fn experiment_footnote4(large: bool) {
    println!("\n== E7 (footnote 4): ∃y ⋀ E(y, xᵢ) ==");
    header(&[
        "k",
        "distinct?",
        "n",
        "exact",
        "estimate",
        "method",
        "secs(exact)",
        "secs(approx)",
    ]);
    let n = if large { 120 } else { 40 };
    let ks: &[usize] = if large { &[2, 3, 4] } else { &[2, 3] };
    let mut rng = StdRng::seed_from_u64(4);
    let g = erdos_renyi(n, 5.0 / n as f64, &mut rng);
    let db = graph_database(&g, "E", false);
    for &k in ks {
        for distinct in [false, true] {
            let spec = footnote4_star_query(k, distinct);
            let (truth, secs_exact) = timed(|| exact_count_answers(&spec.query, &db) as f64);
            let cfg = ApproxConfig::new(0.25, 0.1).with_seed(k as u64);
            let (r, secs) = timed(|| count_with(Backend::Auto, &spec.query, &db, &cfg));
            row(&[
                k.to_string(),
                distinct.to_string(),
                n.to_string(),
                truth.to_string(),
                format!("{:.1}", r.estimate),
                format!("{:?}", r.method),
                format!("{secs_exact:.2}"),
                format!("{secs:.2}"),
            ]);
        }
    }
}

/// E8 — Section 6: answer sampling uniformity.
fn experiment_sampling() {
    println!("\n== E8 (Section 6): uniformity of the answer sampler ==");
    header(&["query", "answers", "samples", "total variation distance"]);
    let mut rng = StdRng::seed_from_u64(8);
    let g = erdos_renyi(14, 0.25, &mut rng);
    let db = graph_database(&g, "F", false);
    let q = cqc_query::parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
    let answers = enumerate_answers(&q, &db);
    let cfg = ApproxConfig::new(0.3, 0.05).with_seed(8);
    let samples = 100 * answers.len().max(1);
    let prepared = Engine::from_config(cfg).prepare(&q).unwrap();
    let drawn = prepared.sample(&db, samples).unwrap();
    let mut freq: std::collections::BTreeMap<Vec<Val>, usize> = Default::default();
    for s in &drawn {
        *freq.entry(s.clone()).or_insert(0) += 1;
    }
    let uniform = 1.0 / answers.len().max(1) as f64;
    let tv: f64 = answers
        .iter()
        .map(|a| {
            let p = *freq.get(a).unwrap_or(&0) as f64 / drawn.len().max(1) as f64;
            (p - uniform).abs()
        })
        .sum::<f64>()
        / 2.0;
    row(&[
        "two-distinct-friends".into(),
        answers.len().to_string(),
        drawn.len().to_string(),
        format!("{tv:.3}"),
    ]);
}

/// E9 — Section 6: unions of queries (Karp–Luby).
fn experiment_unions() {
    println!("\n== E9 (Section 6): unions of conjunctive queries ==");
    header(&["union", "exact", "estimate", "rel.err"]);
    let mut rng = StdRng::seed_from_u64(9);
    let g = erdos_renyi(20, 0.15, &mut rng);
    let db = graph_database(&g, "E", false);
    let q1 = cqc_query::parse_query("ans(x, y) :- E(x, y)").unwrap();
    let q2 = cqc_query::parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
    let queries = vec![q1, q2];
    let mut all = std::collections::BTreeSet::new();
    for q in &queries {
        all.extend(enumerate_answers(q, &db));
    }
    let truth = all.len() as f64;
    let cfg = ApproxConfig::new(0.2, 0.1).with_seed(9);
    let est = count_union(&queries, &db, 600, &cfg).unwrap();
    row(&[
        "E ∪ E∘E".into(),
        truth.to_string(),
        format!("{est:.1}"),
        format!("{:.3}", relative_error(est, truth)),
    ]);
}

/// E10 — Lemma 12 / Observation 34: width measures across hypergraph families.
fn experiment_widths() {
    println!("\n== E10 (Lemma 12 / Obs. 34): width measures ==");
    header(&["hypergraph", "tw", "hw", "fhw", "aw (lower..upper)"]);
    let families: Vec<(String, cqc_hypergraph::Hypergraph)> = vec![
        (
            "path(6)".into(),
            cqc_hypergraph::Hypergraph::from_edges(
                6,
                &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5]],
            ),
        ),
        (
            "cycle(6)".into(),
            cqc_hypergraph::Hypergraph::from_edges(
                6,
                &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 0]],
            ),
        ),
        ("clique(5)".into(), {
            let mut h = cqc_hypergraph::Hypergraph::new(5);
            for i in 0..5 {
                for j in (i + 1)..5 {
                    h.add_edge(&[i, j]);
                }
            }
            h
        }),
        (
            "triangle-of-3-edges".into(),
            cqc_hypergraph::Hypergraph::from_edges(6, &[&[0, 1, 2], &[2, 3, 4], &[4, 5, 0]]),
        ),
        (
            "single-5-edge".into(),
            cqc_hypergraph::Hypergraph::from_edges(5, &[&[0, 1, 2, 3, 4]]),
        ),
    ];
    for (name, h) in families {
        let tw = treewidth_exact(&h).0;
        let (hw, _) = minimise_width(&h, WidthMeasure::Hypertreewidth, &Runtime::serial());
        let (fhw, _) = minimise_width(
            &h,
            WidthMeasure::FractionalHypertreewidth,
            &Runtime::serial(),
        );
        let aw = adaptive_width_bounds(&h, 2);
        row(&[
            name,
            tw.to_string(),
            format!("{hw:.1}"),
            format!("{fhw:.2}"),
            format!("{:.2}..{:.2}", aw.lower, aw.upper),
        ]);
    }
}

/// A1 — ablation: colour-coding repetitions vs estimate quality.
fn experiment_ablation_colour() {
    println!("\n== A1 (ablation): colour-coding repetitions ==");
    header(&["|Δ|", "repetitions", "exact", "estimate"]);
    let mut rng = StdRng::seed_from_u64(11);
    let g = erdos_renyi(25, 0.15, &mut rng);
    let db = graph_database(&g, "E", false);
    for leaves in [2usize, 3] {
        let spec = star_query(leaves, true);
        let truth = exact_count_answers(&spec.query, &db) as f64;
        let d = spec.query.disequalities().len();
        for reps in [1usize, 4, 16, 64, 256] {
            let cfg = ApproxConfig {
                epsilon: 0.25,
                delta: 0.1,
                seed: 11,
                colour_repetitions: Some(reps),
                ..Default::default()
            };
            let r = count_with(Backend::Fptras, &spec.query, &db, &cfg);
            row(&[
                d.to_string(),
                reps.to_string(),
                truth.to_string(),
                format!("{:.1}", r.estimate),
            ]);
        }
    }
}

/// A2 — ablation: naive Monte Carlo vs the FPTRAS on sparse answer sets.
fn experiment_ablation_naive() {
    println!("\n== A2 (ablation): naive Monte Carlo vs FPTRAS ==");
    header(&["query", "exact", "naive MC (10k samples)", "FPTRAS"]);
    let mut rng = StdRng::seed_from_u64(12);
    let g = erdos_renyi(30, 0.08, &mut rng);
    let db = graph_database(&g, "E", true);
    let q = hamiltonian_path_query(3);
    let truth = exact_count_answers(&q, &db) as f64;
    let mut mc_rng = StdRng::seed_from_u64(13);
    let naive = naive_monte_carlo(&q, &db, 10_000, &mut mc_rng);
    let cfg = ApproxConfig {
        epsilon: 0.3,
        delta: 0.1,
        seed: 12,
        colour_repetitions: Some(400),
        ..Default::default()
    };
    let r = count_with(Backend::Fptras, &q, &db, &cfg);
    row(&[
        "ham-path(3)".into(),
        truth.to_string(),
        format!("{naive:.1}"),
        format!("{:.1}", r.estimate),
    ]);
}

/// A3 — ablation: the memoised tree-decomposition decision behind the
/// FPTRAS oracle vs the plain descent (the first homomorphism in element
/// order, no memo), on a 6-cycle pattern against sparse random digraphs
/// and on an `L`-edge path against `L` layers of 4 with complete bipartite
/// edges between consecutive layers (no homomorphism: the longest path has
/// `L − 1` edges, so the plain descent walks every partial path).
fn experiment_hom_engines() {
    println!("\n== A3 (ablation): Hom decision, memoised decomposition search vs plain descent ==");
    header(&[
        "pattern",
        "target",
        "edges",
        "hom?",
        "plain descent ms",
        "memoised ms",
    ]);
    let cycle = directed_graph(6, (0..6).map(|i| (i, (i + 1) % 6)));
    for n in [20usize, 40, 80] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n, 4.0 / n as f64, &mut rng);
        let target = graph_database(&g, "E", false);
        hom_engines_row("6-cycle", &cycle, format!("G(n={n}, 4/n)"), &target, 200);
    }
    for layers in [8usize, 10, 12] {
        let path = directed_graph(layers + 1, (0..layers).map(|i| (i, i + 1)));
        let dag = directed_graph(
            4 * layers,
            (0..4 * (layers - 1)).flat_map(|u| (0..4).map(move |j| (u, (u / 4 + 1) * 4 + j))),
        );
        hom_engines_row(
            &format!("{layers}-edge path"),
            &path,
            format!("{layers} layers × 4"),
            &dag,
            3,
        );
    }
}

/// One `hom-engines` row: both searches on `pattern → target`, each timed
/// from the two structures over `reps` runs.
fn hom_engines_row(
    pattern_name: &str,
    pattern: &Structure,
    target_name: String,
    target: &Structure,
    reps: u32,
) {
    let (plain, plain_ms) = mean_ms(reps, || {
        let inst = HomInstance::new(pattern, target);
        let order: Vec<usize> = (0..inst.num_vars()).collect();
        let domains = inst.initial_domains();
        for_each_homomorphism(&inst, &order, &domains, &mut |_| ControlFlow::Break(())).is_break()
    });
    let decider = HybridDecider::new();
    let (memo, memo_ms) = mean_ms(reps, || decider.decide(pattern, target));
    assert_eq!(
        plain, memo,
        "the searches disagree on {pattern_name} → {target_name}"
    );
    row(&[
        pattern_name.into(),
        target_name,
        target.fact_count().to_string(),
        memo.to_string(),
        format!("{plain_ms:.3}"),
        format!("{memo_ms:.3}"),
    ]);
}

/// A digraph over `E` on `n` vertices.
fn directed_graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Structure {
    let mut b = StructureBuilder::new(n);
    b.relation("E", 2);
    for (u, v) in edges {
        b.fact("E", &[u as u32, v as u32]).unwrap();
    }
    b.build()
}

/// A4 — ablation: the DLM FPTRAS vs naive Monte Carlo (20k samples) wall
/// time on a sparse-answer instance, planning included as a one-off count
/// pays it (`ablation-naive` has the accuracy side).
fn experiment_ablation_dlm() {
    println!("\n== A4 (ablation): DLM FPTRAS vs naive Monte Carlo, wall time ==");
    header(&[
        "n",
        "exact",
        "FPTRAS",
        "FPTRAS ms",
        "naive MC (20k samples)",
        "naive MC ms",
    ]);
    let q = star_query(2, true).query;
    for n in [40usize, 80] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        // sparse: expected out-degree 1.5, so few vertices have two
        // distinct out-neighbours and the answers are a small fraction of U
        let g = erdos_renyi(n, 1.5 / n as f64, &mut rng);
        let db = graph_database(&g, "E", false);
        let truth = exact_count_answers(&q, &db);
        let cfg = ApproxConfig::new(0.3, 0.1).with_seed(n as u64);
        let (fptras, fptras_ms) = mean_ms(3, || count_with(Backend::Fptras, &q, &db, &cfg));
        let (naive, naive_ms) = mean_ms(3, || {
            let mut rng = StdRng::seed_from_u64(n as u64);
            naive_monte_carlo(&q, &db, 20_000, &mut rng)
        });
        row(&[
            n.to_string(),
            truth.to_string(),
            format!("{:.1}", fptras.estimate),
            format!("{fptras_ms:.1}"),
            format!("{naive:.1}"),
            format!("{naive_ms:.1}"),
        ]);
    }
}
