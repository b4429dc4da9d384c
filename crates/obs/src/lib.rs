//! # cqc-obs — the observability substrate
//!
//! Everything in this crate observes; nothing decides. The workspace-wide
//! invariant — estimates and wire transcripts are byte-identical whether
//! tracing is on or off — holds because the types here are strictly
//! write-only from the perspective of the computation: counters and
//! histograms are relaxed atomics nothing reads back on the request path,
//! spans land in per-thread buffers that only [`trace::drain`] consumes,
//! and wall-clock reads are confined to [`clock`] (the only module with
//! sanctioned `#[expect]`s for clippy's wall-clock bans), feeding
//! telemetry fields that never reach a branch or an estimate.
//!
//! The crate is the workspace's dependency root (it depends on nothing),
//! which is why [`seed::split_seed`] lives here: the runtime, the engines
//! and the tracer all derive identifiers from `(seed, work-item index)`
//! with the same SplitMix64 finaliser, and the tracer cannot depend on the
//! runtime without a cycle. `cqc-runtime` re-exports the functions, so the
//! established `cqc_runtime::split_seed` path keeps working.
//!
//! Modules:
//!
//! * [`seed`] — deterministic SplitMix64 seed/ID derivation.
//! * [`clock`] — [`Stopwatch`] and the tracer's monotonic epoch; the only
//!   sanctioned `Instant::now` in the workspace.
//! * [`metrics`] — [`Counter`]/[`Gauge`]/[`Histogram`] and the ordered
//!   [`Registry`] rendered by `GET /metrics`.
//! * [`trace`] — the structured span tracer: deterministic span IDs,
//!   per-thread ring buffers, NDJSON export, span forests and folded
//!   flame stacks.
//! * [`wide`] — wide-event request logs: one structured NDJSON record per
//!   served request, with a bounded in-memory tail and optional file sink.
//! * [`flight`] — the flight recorder: bounded per-thread rings of recent
//!   trace + wide events, snapshotted on demand or on anomaly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod flight;
pub mod metrics;
pub mod seed;
pub mod trace;
pub mod wide;

pub use clock::Stopwatch;
pub use flight::{FlightEntry, FlightSnapshot};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use seed::{split_seed, split_seed2};
pub use trace::Span;
pub use wide::{Outcome, WideEvent, WideLog};

/// Serialises the unit tests that toggle or observe a process-global (the
/// tracer, the flight recorder, the wide-event gate — the recorder mirrors
/// trace and wide events, so the three interact): each holds this guard
/// for its whole body.
#[cfg(test)]
pub(crate) fn global_state_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // a failed sibling test must not cascade into this one
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}
