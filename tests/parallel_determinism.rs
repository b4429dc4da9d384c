//! The determinism contract of the parallel runtime.
//!
//! The `runtime` crate derives every RNG stream from `(engine seed,
//! work-item index)` instead of threading one sequential stream through the
//! loops, so for a fixed seed the estimates — FPRAS, FPTRAS, batch, and
//! sampling — must be **bit-identical** for 1, 2, and 8 threads, across all
//! three query classes of Figure 1.

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

/// One query per Figure 1 column: a plain CQ (FPRAS), a DCQ (FPTRAS) and an
/// ECQ (FPTRAS).
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

fn engine_with_threads(seed: u64, threads: usize) -> Engine {
    Engine::builder()
        .accuracy(0.25, 0.05)
        .seed(seed)
        .threads(threads)
        .build()
        .unwrap()
}

/// The pool matrix: estimates must be bit-identical across persistent
/// worker pools of width 1, 2 and 8 — and identical to the serial path —
/// for all three query classes of Figure 1. The pool (like the thread
/// count) may only change scheduling, never results: every RNG stream is
/// keyed by `(seed, work-item index)` and every estimate-feeding reduction
/// folds in index order. `COUNTING_THREADS` sets the global pool's width
/// process-wide (CI runs a `COUNTING_THREADS=1` leg); this in-process
/// matrix uses explicit pools so one run covers all three widths.
#[test]
fn pool_width_matrix_is_bit_identical_to_the_serial_path() {
    let dbs = [snapshot(11, 2.5, 0xA11CE), snapshot(13, 3.0, 0xB0B)];
    let pools: Vec<&'static Pool> = [1usize, 2, 8]
        .iter()
        .map(|&w| &*Box::leak(Box::new(Pool::new(w))))
        .collect();
    for (class, q) in workload_queries() {
        // the serial reference: one thread, no pool participation at all
        let serial: Vec<u64> = {
            let prepared = engine_with_threads(0xC0FFEE, 1).prepare(&q).unwrap();
            dbs.iter()
                .map(|db| prepared.count(db).unwrap().estimate.to_bits())
                .collect()
        };
        for &pool in &pools {
            let engine = Engine::builder()
                .accuracy(0.25, 0.05)
                .seed(0xC0FFEE)
                .threads(8)
                .worker_pool(pool)
                .build()
                .unwrap();
            let prepared = engine.prepare(&q).unwrap();
            for (db, &expect) in dbs.iter().zip(&serial) {
                let r = prepared.count(db).unwrap();
                assert_eq!(
                    r.estimate.to_bits(),
                    expect,
                    "{class:?}: pool width {} diverged from the serial path ({} vs {})",
                    pool.width(),
                    r.estimate,
                    f64::from_bits(expect)
                );
            }
            // batch evaluation must agree too (same contract, batch path)
            let batch = prepared.count_batch(&dbs).unwrap();
            for (r, &expect) in batch.iter().zip(&serial) {
                assert_eq!(
                    r.estimate.to_bits(),
                    expect,
                    "{class:?}: count_batch on pool width {} diverged",
                    pool.width()
                );
            }
        }
    }
}

/// Queries sampled from the enumerated workload grammar feed the same
/// contract: for each Figure-1 class, draw a seeded suite and check that
/// estimates are bit-identical across worker-pool widths {1, 2, 8} and
/// shard counts {1, 4}. The unsharded serial run is the reference;
/// `count_sharded` keys every item's RNG stream by `(seed, item index)`,
/// so neither the pool nor the shard assignment may move a single bit.
#[test]
fn grammar_sampled_queries_are_bit_identical_across_pools_and_shards() {
    use cqcount::workloads::{suite, suite_database};
    let dbs = [suite_database(0xD15C, 24), suite_database(0xD15C ^ 1, 30)];
    for class in [QueryClass::CQ, QueryClass::DCQ, QueryClass::ECQ] {
        let drawn = suite(class, 0x5EED5, 4);
        assert_eq!(drawn.queries.len(), 4, "{class:?} suite short");
        for sq in &drawn.queries {
            // reference: one thread, no pool, a single shard
            let reference: Vec<u64> = {
                let prepared = engine_with_threads(0xC0FFEE, 1).prepare(&sq.query).unwrap();
                count_sharded(&prepared, &dbs, 0xFEED, 1, Runtime::new(1))
                    .unwrap()
                    .iter()
                    .map(|r| r.estimate.to_bits())
                    .collect()
            };
            for width in [1usize, 2, 8] {
                let pool: &'static Pool = Box::leak(Box::new(Pool::new(width)));
                let engine = Engine::builder()
                    .accuracy(0.25, 0.05)
                    .seed(0xC0FFEE)
                    .threads(8)
                    .worker_pool(pool)
                    .build()
                    .unwrap();
                let prepared = engine.prepare(&sq.query).unwrap();
                for shards in [1usize, 4] {
                    let got =
                        count_sharded(&prepared, &dbs, 0xFEED, shards, Runtime::new(8)).unwrap();
                    for (r, &expect) in got.iter().zip(&reference) {
                        assert_eq!(
                            r.estimate.to_bits(),
                            expect,
                            "{class:?} {}: pool width {width}, {shards} shard(s) diverged \
                             ({} vs {})",
                            sq.name,
                            r.estimate,
                            f64::from_bits(expect)
                        );
                    }
                }
            }
        }
    }
}

/// Sampling through the pool matrix: the drawn answers (values and order)
/// must match the serial path for every pool width.
#[test]
fn pool_width_matrix_sampling_matches_serial() {
    let db = snapshot(12, 3.0, 0xFACADE);
    for (_, q) in workload_queries() {
        let reference = engine_with_threads(99, 1)
            .prepare(&q)
            .unwrap()
            .sample(&db, 5)
            .unwrap();
        for width in [1usize, 2, 8] {
            let pool: &'static Pool = Box::leak(Box::new(Pool::new(width)));
            let samples = Engine::builder()
                .accuracy(0.25, 0.05)
                .seed(99)
                .threads(8)
                .worker_pool(pool)
                .build()
                .unwrap()
                .prepare(&q)
                .unwrap()
                .sample(&db, 5)
                .unwrap();
            assert_eq!(samples, reference, "pool width {width}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `PreparedQuery::count` returns bit-identical estimates on 1, 2 and 8
    /// threads, for every query class.
    #[test]
    fn count_is_bit_identical_across_thread_counts(seed in any::<u64>(), db_seed in any::<u64>()) {
        let dbs = [snapshot(10, 2.5, db_seed), snapshot(14, 3.0, db_seed ^ 0xA5A5)];
        for (class, q) in workload_queries() {
            let reference: Vec<u64> = {
                let prepared = engine_with_threads(seed, 1).prepare(&q).unwrap();
                dbs.iter().map(|db| prepared.count(db).unwrap().estimate.to_bits()).collect()
            };
            for threads in [2usize, 8] {
                let prepared = engine_with_threads(seed, threads).prepare(&q).unwrap();
                for (db, &expect) in dbs.iter().zip(&reference) {
                    let r = prepared.count(db).unwrap();
                    prop_assert_eq!(
                        r.estimate.to_bits(),
                        expect,
                        "{:?}: {} threads diverged ({} vs {})",
                        class,
                        threads,
                        r.estimate,
                        f64::from_bits(expect)
                    );
                    prop_assert_eq!(r.telemetry.threads_used, threads);
                }
            }
        }
    }

    /// The FPRAS *sampling* regime (Karp–Luby union trials) is also
    /// thread-count-invariant — forced by shrinking the exact-state budget
    /// to zero so the approximate counter always runs.
    #[test]
    fn fpras_sampling_regime_is_bit_identical(seed in any::<u64>(), db_seed in any::<u64>()) {
        let q = footnote4_star_query(2, false).query;
        let db = snapshot(12, 3.0, db_seed);
        let sampling_engine = |threads: usize| {
            Engine::builder()
                .accuracy(0.3, 0.1)
                .seed(seed)
                .threads(threads)
                .exact_state_budget(0)
                .build()
                .unwrap()
        };
        let reference = sampling_engine(1).prepare(&q).unwrap().count(&db).unwrap();
        prop_assert!(!reference.exact, "state budget 0 must force the sampling counter");
        for threads in [2usize, 8] {
            let r = sampling_engine(threads).prepare(&q).unwrap().count(&db).unwrap();
            prop_assert_eq!(
                r.estimate.to_bits(),
                reference.estimate.to_bits(),
                "{} threads diverged",
                threads
            );
        }
    }

    /// `count_batch` equals the serial fold of `count` — same order, same
    /// bits — for every thread count.
    #[test]
    fn count_batch_is_bit_identical_across_thread_counts(seed in any::<u64>(), db_seed in any::<u64>()) {
        let dbs = vec![
            snapshot(12, 2.5, db_seed),
            snapshot(9, 3.0, db_seed ^ 1),
            snapshot(15, 2.0, db_seed ^ 2),
            snapshot(11, 2.5, db_seed ^ 3),
        ];
        for (_, q) in workload_queries() {
            let serial: Vec<u64> = {
                let prepared = engine_with_threads(seed, 1).prepare(&q).unwrap();
                dbs.iter().map(|db| prepared.count(db).unwrap().estimate.to_bits()).collect()
            };
            for threads in [1usize, 2, 8] {
                let prepared = engine_with_threads(seed, threads).prepare(&q).unwrap();
                let batch = prepared.count_batch(&dbs).unwrap();
                prop_assert_eq!(batch.len(), dbs.len());
                for (r, &expect) in batch.iter().zip(&serial) {
                    prop_assert_eq!(r.estimate.to_bits(), expect, "{} threads", threads);
                }
            }
        }
    }

    /// Answer sampling draws the same answers in the same order for any
    /// thread count (the oracle's colour rounds parallelise inside each
    /// descent step).
    #[test]
    fn sampling_is_bit_identical_across_thread_counts(seed in any::<u64>()) {
        let db = snapshot(12, 3.0, seed ^ 0xBEEF);
        for (_, q) in workload_queries() {
            let reference = engine_with_threads(seed, 1)
                .prepare(&q)
                .unwrap()
                .sample(&db, 6)
                .unwrap();
            for threads in [2usize, 8] {
                let samples = engine_with_threads(seed, threads)
                    .prepare(&q)
                    .unwrap()
                    .sample(&db, 6)
                    .unwrap();
                prop_assert_eq!(&samples, &reference, "{} threads", threads);
            }
        }
    }
}
