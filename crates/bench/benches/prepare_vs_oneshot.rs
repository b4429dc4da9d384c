//! Plan amortisation: `Engine::prepare` + repeated `PreparedQuery::count`
//! versus re-planning on every call.
//!
//! Three benchmark axes per query class:
//! * `prepare`  — the query-side planning cost alone (paid once per query);
//! * `prepared` — data-side evaluation over 4 database snapshots with a
//!   cached plan (the hot path of a repeated-evaluation deployment);
//! * `oneshot`  — `prepare` + `count` per snapshot, which pays the
//!   planning cost on every call.

use cqc_core::Engine;
use cqc_data::Structure;
use cqc_query::{parse_query, Query};
use cqc_workloads::{erdos_renyi, graph_database};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn dbs(n: usize) -> Vec<Structure> {
    (0..4u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(100 + i);
            let g = erdos_renyi(n, 3.0 / n as f64, &mut rng);
            graph_database(&g, "E", false)
        })
        .collect()
}

fn queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "cq_path",
            parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap(),
        ),
        (
            "dcq_friends",
            parse_query("ans(x) :- E(x, y), E(x, z), y != z").unwrap(),
        ),
        (
            "ecq_asym",
            parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap(),
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("prepare_vs_oneshot");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));

    let engine = Engine::builder()
        .accuracy(0.25, 0.1)
        .seed(7)
        .build()
        .unwrap();
    let snapshots = dbs(24);

    for (name, q) in queries() {
        // Planning cost alone (what amortisation eliminates per call).
        group.bench_with_input(BenchmarkId::new("prepare", name), &q, |b, q| {
            b.iter(|| engine.prepare(q).unwrap().plan_summary())
        });

        // Hot path: evaluation only, plan cached.
        let prepared = engine.prepare(&q).unwrap();
        group.bench_with_input(BenchmarkId::new("prepared", name), &q, |b, _| {
            b.iter(|| {
                snapshots
                    .iter()
                    .map(|db| prepared.count(db).unwrap().estimate)
                    .sum::<f64>()
            })
        });

        // Plan + evaluate on every call.
        group.bench_with_input(BenchmarkId::new("oneshot", name), &q, |b, q| {
            b.iter(|| {
                snapshots
                    .iter()
                    .map(|db| engine.prepare(q).unwrap().count(db).unwrap().estimate)
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
