//! Span-tree determinism: with a serial runtime, two same-seed runs must
//! record the **identical** span forest — same names, same deterministic
//! span IDs (every ID is `split_seed` of the seed and a structural index,
//! never scheduling state), same parentage, same child order. Timestamps
//! legitimately differ, so the comparison goes through the duration-free
//! [`SpanForest::shape`] rendering.
//!
//! Serial (`threads(1)`) is the strongest claim the tracer can make:
//! under a parallel runtime `par_any_n`'s early exit legitimately changes
//! *which* repetition spans exist between runs (the estimates still
//! match bit for bit — that is `trace_invisibility`'s job in `cqc-net`).

use cqc_core::{Backend, Engine};
use cqc_data::StructureBuilder;
use cqc_obs::trace::{build_forest, drain, set_enabled};
use cqc_query::parse_query;
use std::sync::{Mutex, MutexGuard};

/// The tracer is process-global: both tests toggle it and `drain()` every
/// thread's buffer, so they would steal each other's spans if they ran
/// concurrently. Each test holds this guard for its whole body.
static TRACER: Mutex<()> = Mutex::new(());

fn tracer_guard() -> MutexGuard<'static, ()> {
    // a failed sibling test must not cascade into this one
    TRACER.lock().unwrap_or_else(|e| e.into_inner())
}

fn graph_db() -> cqc_data::Structure {
    let mut b = StructureBuilder::new(6);
    b.relation("E", 2);
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 0)] {
        b.fact("E", &[u, v]).unwrap();
    }
    b.build()
}

/// One traced prepare + count under a serial runtime; returns the shape.
fn traced_shape(query: &str, backend: Backend, seed: u64) -> String {
    let engine = Engine::builder()
        .seed(seed)
        .threads(1)
        .backend(backend)
        .build()
        .unwrap();
    let query = parse_query(query).unwrap();
    let db = graph_db();
    set_enabled(true);
    let prepared = engine.prepare(&query).unwrap();
    let report = prepared.count(&db).unwrap();
    set_enabled(false);
    let trace = drain();
    assert!(report.estimate.is_finite());
    assert!(!trace.events.is_empty(), "a traced run must record spans");
    assert_eq!(trace.dropped, 0, "the buffer must not overflow this test");
    build_forest(&trace.events).shape()
}

#[test]
fn same_seed_serial_runs_record_identical_span_trees() {
    let _tracer = tracer_guard();
    set_enabled(false);
    let _ = drain(); // isolate from anything the harness ran before us
    for (query, backend) in [
        // CQ via the FPRAS: prepare > decompose, then the sampling count
        ("ans(x, y) :- E(x, z), E(z, y)", Backend::Fpras),
        // DCQ via the FPTRAS: oracle_call > repetition colour-coding spans
        ("ans(x) :- E(x, y), E(x, z), y != z", Backend::Fptras),
    ] {
        let first = traced_shape(query, backend, 0xC0FFEE);
        let second = traced_shape(query, backend, 0xC0FFEE);
        assert_eq!(first, second, "span tree drifted for `{query}`");
        // a different seed must yield different span IDs (same names)
        let reseeded = traced_shape(query, backend, 0xBEEF);
        assert_ne!(first, reseeded, "span IDs must derive from the seed");
        assert!(first.contains("prepare "), "{first}");
    }
}

#[test]
fn fptras_span_trees_nest_repetitions_under_oracle_calls() {
    let _tracer = tracer_guard();
    set_enabled(false);
    let _ = drain();
    let shape = traced_shape(
        "ans(x) :- E(x, y), E(x, z), y != z",
        Backend::Fptras,
        0xC0FFEE,
    );
    assert!(shape.contains("oracle_call "), "{shape}");
    assert!(shape.contains("repetition "), "{shape}");
    // repetitions are children of oracle calls: indented one level deeper
    let oracle_depth = shape
        .lines()
        .find(|l| l.trim_start().starts_with("oracle_call"))
        .map(|l| l.len() - l.trim_start().len())
        .unwrap();
    let repetition_depth = shape
        .lines()
        .find(|l| l.trim_start().starts_with("repetition"))
        .map(|l| l.len() - l.trim_start().len())
        .unwrap();
    assert_eq!(repetition_depth, oracle_depth + 2, "{shape}");
}
