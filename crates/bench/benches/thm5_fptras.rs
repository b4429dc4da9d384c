//! E1 (Theorem 5): FPTRAS for bounded-treewidth ECQs — runtime vs database size.

use cqc_core::{ApproxConfig, Backend, EngineBuilder};
use cqc_workloads::{erdos_renyi, graph_database, star_query};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm5_fptras");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let spec = star_query(2, true); // the paper's query (1)
    for n in [20usize, 40, 80] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n, 3.0 / n as f64, &mut rng);
        let db = graph_database(&g, "E", false);
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
