//! E5 (Theorem 13): FPTRAS for DCQs over ternary relations (unbounded arity).

use cqc_core::{ApproxConfig, Backend, EngineBuilder};
use cqc_workloads::graphs::random_ternary_database;
use cqc_workloads::hyperchain_query;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm13_dcq");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let spec = hyperchain_query(2, true);
    for (n, facts) in [(12usize, 50usize), (20, 90)] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let db = random_ternary_database(n, facts, &mut rng);
        let cfg = ApproxConfig::new(0.3, 0.1).with_seed(n as u64);
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            // planning is timed too, as a one-off count pays it
            b.iter(|| {
                let prepared = engine.prepare(&spec.query).unwrap();
                prepared.count(&db).unwrap().estimate
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
