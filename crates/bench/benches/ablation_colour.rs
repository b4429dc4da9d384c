//! A1 — Ablation: cost of the colour-coding repetitions `Q` (Lemma 22).
//!
//! The FPTRAS simulates each `EdgeFree` oracle call by `Q` random colouring
//! collections; the paper's worst-case bound is `Q = ⌈log(2Tℓ!/δ)⌉·4^{|Δ|}`.
//! This bench measures how the FPTRAS cost scales with `Q` for the paper's
//! query (1) (one disequality), complementing the accuracy-vs-`Q` series of
//! `report ablation-colour`.

use cqc_core::{ApproxConfig, Backend, EngineBuilder};
use cqc_workloads::{erdos_renyi, graph_database, star_query};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_colour");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let spec = star_query(2, true); // |Δ| = 1
    let n = 30usize;
    let mut rng = StdRng::seed_from_u64(17);
    let g = erdos_renyi(n, 3.0 / n as f64, &mut rng);
    let db = graph_database(&g, "E", false);
    for q in [1usize, 4, 16, 64] {
        let cfg = ApproxConfig {
            epsilon: 0.3,
            delta: 0.1,
            seed: q as u64,
            colour_repetitions: Some(q),
            ..Default::default()
        };
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, _| {
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
