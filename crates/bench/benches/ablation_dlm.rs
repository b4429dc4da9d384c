//! A2 — Ablation: the oracle-driven DLM edge counter vs naive Monte-Carlo
//! sampling on a sparse-answer instance.
//!
//! Naive sampling needs ~N^ℓ/|Ans| draws before it sees a single answer; the
//! DLM counter locates the answers through `EdgeFree` restrictions instead.
//! This bench compares the two on the paper's query (1) over a sparse random
//! digraph, at a sample budget where the naive estimator is already slower
//! and still unreliable (see `report ablation-naive` for the accuracy side).

use cqc_core::{naive_monte_carlo, ApproxConfig, Backend, EngineBuilder};
use cqc_workloads::{erdos_renyi, graph_database, star_query};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dlm");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let spec = star_query(2, true);
    for n in [40usize, 80] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        // sparse: expected out-degree 1.5, so few vertices have ≥ 2 distinct
        // out-neighbours and the answer set is a small fraction of U(D)
        let g = erdos_renyi(n, 1.5 / n as f64, &mut rng);
        let db = graph_database(&g, "E", false);
        let cfg = ApproxConfig::new(0.3, 0.1).with_seed(n as u64);
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("dlm_fptras", n), &n, |b, _| {
            // planning is timed too, as a one-off count pays it
            b.iter(|| {
                let prepared = engine.prepare(&spec.query).unwrap();
                prepared.count(&db).unwrap().estimate
            })
        });
        group.bench_with_input(BenchmarkId::new("naive_monte_carlo", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(n as u64);
                naive_monte_carlo(&spec.query, &db, 20_000, &mut rng)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
