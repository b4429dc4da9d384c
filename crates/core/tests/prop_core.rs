//! Property-based tests for the top-level algorithms: on random small
//! databases, the FPTRAS (Theorems 5/13), the FPRAS (Theorem 16) and the
//! dispatcher must track the exact baseline, the sampler must only emit real
//! answers, and the Figure 1 dispatch must route each query class to the
//! scheme the classification allows.
//!
//! Instances are kept tiny (≤ 12-element universes, ≤ 2 free variables) so
//! the whole suite stays well under a minute; statistical tolerances are
//! twice the configured ε to keep the suite deterministic in practice.

use cqc_core::{
    count_union, exact_count_answers, naive_monte_carlo, ApproxConfig, Backend, CountMethod,
    EngineBuilder, PreparedQuery,
};
use cqc_data::{Structure, StructureBuilder, Val};
use cqc_hom::bag_partial_solutions;
use cqc_query::{
    build_a_structure, build_b_structure, enumerate_answers, parse_query, partial_solutions, Query,
    QueryClass, Var,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// A random directed graph database over the single binary relation `E`.
#[derive(Debug, Clone)]
struct RawGraph {
    n: usize,
    edges: Vec<(u32, u32)>,
}

fn raw_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = RawGraph> {
    (3usize..=max_n).prop_flat_map(move |n| {
        let m = n as u32;
        proptest::collection::vec((0..m, 0..m), 1..max_edges)
            .prop_map(move |edges| RawGraph { n, edges })
    })
}

fn graph_db(raw: &RawGraph) -> Structure {
    let mut b = StructureBuilder::new(raw.n);
    b.relation("E", 2);
    for &(u, v) in &raw.edges {
        b.fact("E", &[u, v]).unwrap();
    }
    b.build()
}

/// Prepare `query` under `config` with the given backend.
fn prepare(backend: Backend, query: &Query, config: &ApproxConfig) -> PreparedQuery {
    let engine = EngineBuilder::from_config(config.clone())
        .backend(backend)
        .build()
        .unwrap();
    engine.prepare(query).unwrap()
}

/// The fixed pool of bounded-treewidth queries the properties range over.
fn query_pool() -> Vec<(&'static str, Query)> {
    vec![
        (
            "path2",
            parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap(),
        ),
        (
            "friends",
            parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap(),
        ),
        (
            "asym",
            parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap(),
        ),
        (
            "loopless",
            parse_query("ans(x) :- E(x, y), x != y").unwrap(),
        ),
        ("boolean", parse_query("ans() :- E(x, y), E(y, z)").unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The FPTRAS tracks the exact count for every query in the pool.
    #[test]
    fn fptras_tracks_exact(raw in raw_graph(9, 18), seed in any::<u64>()) {
        let db = graph_db(&raw);
        let cfg = ApproxConfig::new(0.25, 0.02).with_seed(seed);
        for (name, q) in query_pool() {
            let truth = exact_count_answers(&q, &db) as f64;
            let r = prepare(Backend::Fptras, &q, &cfg).count(&db).unwrap();
            prop_assert!(
                (r.estimate - truth).abs() <= 0.5 * truth.max(1.0),
                "{name}: fptras {} vs exact {}",
                r.estimate,
                truth
            );
        }
    }

    /// The FPRAS (Theorem 16) tracks the exact count on plain CQs.
    #[test]
    fn fpras_tracks_exact_on_cqs(raw in raw_graph(10, 22), seed in any::<u64>()) {
        let db = graph_db(&raw);
        let cfg = ApproxConfig::new(0.25, 0.02).with_seed(seed);
        for (name, q) in query_pool() {
            if q.class() != QueryClass::CQ {
                continue;
            }
            let truth = exact_count_answers(&q, &db) as f64;
            let r = prepare(Backend::Fpras, &q, &cfg).count(&db).unwrap();
            prop_assert!(
                (r.estimate - truth).abs() <= 0.5 * truth.max(1.0),
                "{name}: fpras {} vs exact {}",
                r.estimate,
                truth
            );
        }
    }

    /// Figure 1 dispatch: plain CQs go to the FPRAS, queries with
    /// disequalities or negations go to the FPTRAS, and the estimate always
    /// tracks the exact count.
    #[test]
    fn dispatcher_routes_by_query_class(raw in raw_graph(9, 18), seed in any::<u64>()) {
        let db = graph_db(&raw);
        let cfg = ApproxConfig::new(0.25, 0.02).with_seed(seed);
        for (name, q) in query_pool() {
            let r = prepare(Backend::Auto, &q, &cfg).count(&db).unwrap();
            match q.class() {
                QueryClass::CQ => prop_assert!(
                    r.method == CountMethod::Fpras || r.method == CountMethod::Exact,
                    "{name}: CQ dispatched to {:?}",
                    r.method
                ),
                QueryClass::DCQ | QueryClass::ECQ => prop_assert!(
                    r.method == CountMethod::Fptras || r.method == CountMethod::Exact,
                    "{name}: {:?} dispatched to {:?}",
                    q.class(),
                    r.method
                ),
            }
            let truth = exact_count_answers(&q, &db) as f64;
            prop_assert!(
                (r.estimate - truth).abs() <= 0.5 * truth.max(1.0),
                "{name}: estimate {} vs exact {}",
                r.estimate,
                truth
            );
        }
    }

    /// The answer sampler only returns genuine answers, and returns nothing
    /// exactly when the answer set is empty (Section 6).
    #[test]
    fn sampler_emits_only_answers(raw in raw_graph(8, 14), seed in any::<u64>()) {
        let db = graph_db(&raw);
        let cfg = ApproxConfig::new(0.3, 0.05).with_seed(seed);
        for (name, q) in query_pool() {
            let answers = enumerate_answers(&q, &db);
            let samples = prepare(Backend::Auto, &q, &cfg).sample(&db, 8).unwrap();
            if answers.is_empty() {
                prop_assert!(samples.is_empty(), "{name}: sampled from an empty answer set");
            } else {
                prop_assert!(!samples.is_empty(), "{name}: no samples despite answers");
                for s in &samples {
                    prop_assert!(answers.contains(s), "{name}: sampled non-answer {:?}", s);
                }
            }
        }
    }

    /// Karp–Luby union counting (Section 6) tracks the exact union size and
    /// is always at least the largest individual answer set (up to the
    /// statistical tolerance) and at most the sum.
    #[test]
    fn union_counting_tracks_exact(raw in raw_graph(8, 16), seed in any::<u64>()) {
        let db = graph_db(&raw);
        let q1 = parse_query("ans(x, y) :- E(x, y)").unwrap();
        let q2 = parse_query("ans(x, y) :- E(y, x)").unwrap();
        let q3 = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let queries = vec![q1, q2, q3];
        let mut union = std::collections::BTreeSet::new();
        let mut sum = 0usize;
        for q in &queries {
            let a = enumerate_answers(q, &db);
            sum += a.len();
            union.extend(a);
        }
        let truth = union.len() as f64;
        let cfg = ApproxConfig::new(0.2, 0.02).with_seed(seed);
        let est = count_union(&queries, &db, 600, &cfg).unwrap();
        prop_assert!(
            (est - truth).abs() <= 0.4 * truth.max(1.0),
            "union estimate {est} vs exact {truth}"
        );
        prop_assert!(est <= sum as f64 + 1e-9);
    }

    /// The naive Monte-Carlo baseline is unbiased enough on dense answer
    /// sets to land near the truth with a large sample budget — and the
    /// exact baselines agree with the brute-force definition.
    #[test]
    fn baselines_are_consistent(raw in raw_graph(7, 14), seed in any::<u64>()) {
        let db = graph_db(&raw);
        let q = parse_query("ans(x, y) :- E(x, y)").unwrap();
        let truth = exact_count_answers(&q, &db) as f64;
        prop_assert_eq!(truth as usize, enumerate_answers(&q, &db).len());
        let mut rng = StdRng::seed_from_u64(seed);
        let est = naive_monte_carlo(&q, &db, 40_000, &mut rng);
        prop_assert!(
            (est - truth).abs() <= 0.35 * truth.max(1.0),
            "naive {} vs exact {}",
            est,
            truth
        );
    }

    /// Lemma 48's join kernel computes exactly the `Sol(ϕ, D, B)` relation
    /// of Definition 47 for every bag of every CQ, and emits its rows in
    /// strictly increasing lexicographic order (automaton state ids depend
    /// on that order).
    #[test]
    fn bag_partial_solutions_match_definition_47(raw in raw_graph(7, 14)) {
        let db = graph_db(&raw);
        let mut queries: Vec<Query> = query_pool()
            .into_iter()
            .map(|(_, q)| q)
            .filter(|q| q.class() == QueryClass::CQ)
            .collect();
        queries.push(parse_query("ans(x, y) :- E(x, u), E(u, v), E(v, y)").unwrap());
        for q in &queries {
            let a = build_a_structure(q);
            let b = build_b_structure(q, &db).unwrap();
            let n = q.num_vars();
            for mask in 0u32..(1 << n) {
                let bag: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                let vars: Vec<Var> = bag.iter().map(|&v| Var(v as u32)).collect();
                let rows = bag_partial_solutions(&a, &b, &bag);
                prop_assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "{q}: rows of bag {bag:?} are not strictly increasing"
                );
                let got: BTreeSet<Vec<Val>> = rows.into_iter().collect();
                prop_assert_eq!(got, partial_solutions(q, &db, &vars), "{} bag {:?}", q, bag);
            }
        }
    }
}
