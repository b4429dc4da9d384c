//! Plan-reuse guarantees of the `Engine` / `PreparedQuery` API.
//!
//! The contract the prepared-statement design rests on: plans are
//! query-side and seed-independent, so for a fixed seed a plan prepared
//! once and reused must evaluate bit-identically to a fresh
//! `Engine::prepare` per database, and forcing the backend that
//! `Backend::Auto` picks must not change a bit either — across query
//! classes (CQ / DCQ / ECQ), databases and repeated evaluations. Workloads
//! come from `cqc-workloads`.

use cqcount::prelude::*;
use cqcount::workloads::{
    erdos_renyi, footnote4_star_query, graph_database, path_query, star_query,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn snapshot(n: usize, avg_deg: f64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = erdos_renyi(n, avg_deg / n as f64, &mut rng);
    graph_database(&g, "E", false)
}

/// One query per Figure 1 column, all from the workload generators:
/// a plain CQ (FPRAS), a DCQ (FPTRAS) and an ECQ (FPTRAS).
fn workload_queries() -> Vec<(QueryClass, Query)> {
    let cq = footnote4_star_query(2, false).query;
    let dcq = star_query(2, true).query;
    let ecq = path_query(2, false, true).query;
    assert_eq!(cq.class(), QueryClass::CQ);
    assert_eq!(dcq.class(), QueryClass::DCQ);
    assert_eq!(ecq.class(), QueryClass::ECQ);
    vec![
        (QueryClass::CQ, cq),
        (QueryClass::DCQ, dcq),
        (QueryClass::ECQ, ecq),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A plan prepared once and reused returns bit-identical estimates to a
    /// fresh `Engine::prepare` per database, for every query class.
    #[test]
    fn reused_plan_count_is_bit_identical_to_fresh_plans(seed in any::<u64>(), db_seed in any::<u64>()) {
        let engine = Engine::builder().accuracy(0.25, 0.05).seed(seed).build().unwrap();
        let dbs = [
            snapshot(10, 2.5, db_seed),
            snapshot(14, 3.0, db_seed ^ 0xA5A5),
            snapshot(18, 2.0, db_seed ^ 0x5A5A),
        ];
        for (class, q) in workload_queries() {
            let reused = engine.prepare(&q).unwrap();
            for db in &dbs {
                let r = reused.count(db).unwrap();
                let fresh = engine.prepare(&q).unwrap().count(db).unwrap();
                prop_assert_eq!(
                    r.estimate.to_bits(),
                    fresh.estimate.to_bits(),
                    "{:?}: reused {} vs fresh {}",
                    class,
                    r.estimate,
                    fresh.estimate
                );
                prop_assert_eq!(r.method, fresh.method);
            }
        }
    }

    /// Forcing the scheme the Figure 1 dispatch picks — `Backend::Fpras`
    /// for CQs, `Backend::Fptras` for DCQs and ECQs — returns bit-identical
    /// estimates to `Backend::Auto`.
    #[test]
    fn forced_backend_is_bit_identical_to_auto(seed in any::<u64>(), db_seed in any::<u64>()) {
        let auto = Engine::builder().accuracy(0.25, 0.05).seed(seed).build().unwrap();
        let dbs = [snapshot(10, 2.5, db_seed), snapshot(14, 3.0, db_seed ^ 0xA5A5)];
        for (class, q) in workload_queries() {
            let backend = match class {
                QueryClass::CQ => Backend::Fpras,
                QueryClass::DCQ | QueryClass::ECQ => Backend::Fptras,
            };
            let forced = EngineBuilder::from_config(auto.config().clone())
                .backend(backend)
                .build()
                .unwrap()
                .prepare(&q)
                .unwrap();
            let dispatched = auto.prepare(&q).unwrap();
            prop_assert_eq!(forced.method(), dispatched.method());
            for db in &dbs {
                prop_assert_eq!(
                    forced.count(db).unwrap().estimate.to_bits(),
                    dispatched.count(db).unwrap().estimate.to_bits(),
                    "{:?} forced to {:?}",
                    class,
                    backend
                );
            }
        }
    }

    /// Re-counting with the same prepared plan is deterministic, and
    /// `count_batch` is exactly the fold of `count`.
    #[test]
    fn prepared_evaluation_is_deterministic(seed in any::<u64>(), db_seed in any::<u64>()) {
        let engine = Engine::builder().accuracy(0.3, 0.05).seed(seed).build().unwrap();
        let dbs = vec![
            snapshot(12, 2.5, db_seed),
            snapshot(9, 3.0, db_seed ^ 1),
            snapshot(15, 2.0, db_seed ^ 2),
        ];
        for (_, q) in workload_queries() {
            let prepared = engine.prepare(&q).unwrap();
            let batch = prepared.count_batch(&dbs).unwrap();
            prop_assert_eq!(batch.len(), dbs.len());
            for (db, r) in dbs.iter().zip(&batch) {
                let again = prepared.count(db).unwrap();
                prop_assert_eq!(r.estimate.to_bits(), again.estimate.to_bits());
            }
        }
    }

    /// Sampling with a reused plan draws exactly what a fresh plan draws
    /// for the same seed.
    #[test]
    fn reused_plan_sampling_is_bit_identical_to_fresh_plans(seed in any::<u64>()) {
        let engine = Engine::builder().accuracy(0.3, 0.05).seed(seed).build().unwrap();
        let dbs = [snapshot(12, 3.0, seed ^ 0xBEEF), snapshot(9, 2.5, seed ^ 0xF00D)];
        for (_, q) in workload_queries() {
            let reused = engine.prepare(&q).unwrap();
            for db in &dbs {
                let a = reused.sample(db, 6).unwrap();
                let b = engine.prepare(&q).unwrap().sample(db, 6).unwrap();
                prop_assert_eq!(a, b);
            }
        }
    }
}

/// The estimates the prepared path returns are not just self-consistent but
/// accurate: spot-check against the exact baseline on fixed instances.
#[test]
fn prepared_estimates_track_the_exact_count() {
    let engine = Engine::builder()
        .accuracy(0.2, 0.02)
        .seed(99)
        .build()
        .unwrap();
    for (_, q) in workload_queries() {
        let prepared = engine.prepare(&q).unwrap();
        for s in 0..3u64 {
            let db = snapshot(12, 3.0, 7 + s);
            let truth = exact_count_answers(&q, &db) as f64;
            let r = prepared.count(&db).unwrap();
            assert!(
                (r.estimate - truth).abs() <= 0.5 * truth.max(1.0),
                "{}: estimate {} vs exact {}",
                q,
                r.estimate,
                truth
            );
        }
    }
}
