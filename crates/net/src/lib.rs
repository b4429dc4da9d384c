//! # cqc-net — the std-only network front end
//!
//! Puts real traffic on the sharded counting server of `cqc-serve`: an
//! **event-driven** TCP server — non-blocking sockets on a `poll(2)`
//! readiness loop, a per-connection state machine, and bounded admission
//! of engine work onto the `cqc-runtime` pool — that speaks **HTTP/1.1**
//! (`POST /count`, a streaming-NDJSON `POST /stream`, `GET /healthz`,
//! `GET /metrics`, and the read-only introspection endpoints
//! `GET /debug/requests`, `GET /debug/flight`, `GET /debug/loop`) and the
//! **raw NDJSON** protocol of `cqc serve` on the
//! same port (first-byte sniff), plus a deterministic closed-loop **load
//! generator** that drives the server over loopback and reports throughput
//! and latency percentiles (including a connection-scaling mode,
//! [`loadgen::run_scaling`]).
//!
//! The workspace has no crates.io access, so everything here — HTTP
//! parsing, readiness polling, metrics, the client — is built on
//! `std::net` and `std::io` alone. The single `unsafe` region (the
//! `poll(2)` call in [`poll`]) carries its own
//! `#[expect(unsafe_code, reason = …)]` under this crate's
//! `#![deny(unsafe_code)]`, exactly like the worker pool's.
//!
//! The design constraint inherited from the rest of the workspace is
//! **determinism over the wire**: response bodies are byte-identical
//! regardless of connection interleaving, client concurrency, worker-pool
//! width, or shard count, because every request carries its own seed and
//! all merges are index-ordered. Admission control (connection cap,
//! dispatch-queue bound) sheds load with fixed bytes — never by silently
//! dropping a peer. `tests/wire_determinism.rs` pins the matrix;
//! `GET /metrics` exposes the observation side (latency, cache hit rates,
//! queue depth) that *is* allowed to vary.
//!
//! ```no_run
//! use cqc_net::{NetConfig, RunningServer};
//! use cqc_net::loadgen::{run_against, LoadgenOptions};
//!
//! let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
//! let report = run_against(server.addr(), &LoadgenOptions::default()).unwrap();
//! println!("{:.0} req/s, p99 {:.2} ms", report.throughput_rps, report.p99_ms);
//! server.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod conn;
pub(crate) mod dispatch;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod poll;
pub mod server;

pub use loadgen::{
    bench_json, obs_bench_json, obs_overhead, run_against, run_scaling, scaling_bench_json,
    LoadReport, LoadgenOptions, ObsOverhead, Protocol, ScalingPoint, ScalingReport,
};
pub use metrics::Metrics;
pub use server::{NetConfig, NetStats, RunningServer, ShutdownHandle};
