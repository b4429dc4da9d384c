//! E3 (Observation 10): Hamiltonian-path DCQ — FPTRAS runtime vs query size
//! (exponential in ‖ϕ‖, polynomial in ‖D‖).

use cqc_core::{
    hamiltonian_path_query, undirected_graph_database, ApproxConfig, Backend, EngineBuilder,
};
use cqc_workloads::erdos_renyi;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs10_hampath");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    // a single, small instance: the Obs. 10 construction blows up fast
    {
        let n = 3usize;
        let q = hamiltonian_path_query(n);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = erdos_renyi(n + 2, 0.6, &mut rng);
        let db = undirected_graph_database(n + 2, &g.undirected_edges());
        let cfg = ApproxConfig {
            epsilon: 0.4,
            delta: 0.25,
            seed: n as u64,
            colour_repetitions: Some(4usize.pow((n * (n - 1) / 2) as u32).min(4096)),
            ..Default::default()
        };
        let engine = EngineBuilder::from_config(cfg)
            .backend(Backend::Fptras)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            // planning is timed too, as a one-off count pays it
            b.iter(|| {
                let prepared = engine.prepare(&q).unwrap();
                prepared.count(&db).unwrap().estimate
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
