//! Parallel scaling of the deterministic runtime: repetitions/sec at
//! 1/2/4/8 threads on the Theorem 5 FPTRAS workload (colour-coding
//! repetitions fanned out per oracle call) and the Theorem 16 FPRAS
//! workload (Karp–Luby union trials fanned out per automaton node).
//!
//! The estimates are bit-identical across the thread counts (asserted
//! below on every measurement) — only the wall time may change. On
//! single-core hosts every thread count collapses to ≈ 1× by necessity;
//! the recorded `available_parallelism` makes the output interpretable.

use cqc_core::Engine;
use cqc_workloads::{erdos_renyi, footnote4_star_query, graph_database, star_query};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn db(n: usize, seed: u64) -> cqc_data::Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = erdos_renyi(n, 3.0 / n as f64, &mut rng);
    graph_database(&g, "E", false)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(4));
    println!(
        "parallel_scaling: available_parallelism = {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    // Theorem 5 colour-coding workload: a DCQ whose oracle calls each run a
    // fixed budget of Q = 64 colouring rounds — the fan-out the runtime
    // parallelises per `EdgeFree` call.
    let dcq = star_query(2, true).query;
    let dcq_db = db(48, 5);
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let engine = Engine::builder()
            .accuracy(0.3, 0.1)
            .seed(11)
            .threads(threads)
            .colour_repetitions(64)
            .build()
            .unwrap();
        let prepared = engine.prepare(&dcq).unwrap();
        let estimate = prepared.count(&dcq_db).unwrap().estimate;
        match reference {
            None => reference = Some(estimate),
            Some(e) => assert_eq!(
                e.to_bits(),
                estimate.to_bits(),
                "determinism violated at {threads} threads"
            ),
        }
        group.bench_with_input(
            BenchmarkId::new("thm5_colour_repetitions", threads),
            &threads,
            |b, _| b.iter(|| prepared.count(&dcq_db).unwrap().estimate),
        );
    }

    // Theorem 16 sampling workload: a CQ forced into the Karp–Luby counter
    // (exact-state budget 0) — the per-node union trials parallelise.
    let cq = footnote4_star_query(2, false).query;
    let cq_db = db(24, 7);
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let engine = Engine::builder()
            .accuracy(0.3, 0.1)
            .seed(13)
            .threads(threads)
            .exact_state_budget(0)
            .build()
            .unwrap();
        let prepared = engine.prepare(&cq).unwrap();
        let estimate = prepared.count(&cq_db).unwrap().estimate;
        match reference {
            None => reference = Some(estimate),
            Some(e) => assert_eq!(
                e.to_bits(),
                estimate.to_bits(),
                "determinism violated at {threads} threads"
            ),
        }
        group.bench_with_input(
            BenchmarkId::new("thm16_union_trials", threads),
            &threads,
            |b, _| b.iter(|| prepared.count(&cq_db).unwrap().estimate),
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
