//! E7 (footnote 4): brute force vs approximate counting for ∃y ⋀ E(y, xᵢ).

use cqc_core::{exact_count_answers, ApproxConfig, Engine};
use cqc_workloads::{erdos_renyi, footnote4_star_query, graph_database};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("footnote4");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let n = 40usize;
    let mut rng = StdRng::seed_from_u64(7);
    let g = erdos_renyi(n, 5.0 / n as f64, &mut rng);
    let db = graph_database(&g, "E", false);
    for k in [2usize, 3] {
        let spec = footnote4_star_query(k, false);
        let cfg = ApproxConfig::new(0.3, 0.1).with_seed(k as u64);
        let engine = Engine::from_config(cfg);
        group.bench_with_input(BenchmarkId::new("approx", k), &k, |b, _| {
            // planning is timed too, as a one-off count pays it
            b.iter(|| {
                let prepared = engine.prepare(&spec.query).unwrap();
                prepared.count(&db).unwrap().estimate
            })
        });
        group.bench_with_input(BenchmarkId::new("bruteforce", k), &k, |b, _| {
            b.iter(|| exact_count_answers(&spec.query, &db))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
