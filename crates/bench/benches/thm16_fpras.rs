//! E6 (Theorem 16): FPRAS for CQs of bounded fractional hypertreewidth.

use cqc_core::{ApproxConfig, Backend, EngineBuilder};
use cqc_workloads::{erdos_renyi, footnote4_star_query, graph_database};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm16_fpras");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let spec = footnote4_star_query(3, false);
    for n in [30usize, 60] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n, 4.0 / n as f64, &mut rng);
        let db = graph_database(&g, "E", false);
        let cfg = ApproxConfig::new(0.25, 0.1).with_seed(n as u64);
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fpras)
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
