//! Wide-event request logs: one structured record per served request.
//!
//! A **wide event** is the post-hoc unit of observability — everything the
//! server knew about one request flattened into a single NDJSON object:
//! protocol and endpoint, query class, queue wait, per-phase wall times,
//! outcome classification (ok / error / shed / panic), response payload
//! size, and the connection slab token that ties the record back to the
//! event loop's slot table. Aggregate counters answer "how many"; the wide
//! event answers "what happened to *this* request".
//!
//! ## Structure
//!
//! * [`WideEvent`] — the record itself, rendered by
//!   [`WideEvent::to_json_line`].
//! * [`WideLog`] — a bounded in-memory tail (drop-oldest, counted) plus an
//!   optional append-only NDJSON file sink (`cqc serve --request-log`).
//!   The tail backs `GET /debug/requests`; the file is the durable log
//!   `cqc report requests` consumes.
//! * a thread-local **phase accumulator** ([`phases_begin`] /
//!   [`note_phase`] / [`note_class`] / [`note_trace`] / [`phases_take`])
//!   that lets the serve layer annotate phase timings onto the request the
//!   current thread is executing without threading a context
//!   parameter through every call.
//!
//! ## Invisibility
//!
//! Recording is gated on one relaxed [`AtomicBool`] — off, [`WideLog::record`]
//! is a branch and [`phases_active`] a thread-local read. Nothing on the
//! request path reads wide-event state back, so estimates and wire bytes
//! are byte-identical with the log on or off (pinned by
//! `trace_invisibility.rs` in `cqc-net`).

use crate::trace::escape_json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn wide-event recording on or off process-wide. Estimates and wire
/// bytes are identical either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether wide-event recording is enabled (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How a request left the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Handled, 2xx.
    Ok,
    /// Handled, but the engine classified the request as an error (4xx).
    Error,
    /// Refused by admission control (connection cap or dispatch queue).
    Shed,
    /// The handler panicked; the peer got a 500-class response.
    Panic,
}

impl Outcome {
    /// The stable wire name of the outcome.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Shed => "shed",
            Outcome::Panic => "panic",
        }
    }
}

/// One wide event: everything known about one request, flattened.
#[derive(Debug, Clone)]
pub struct WideEvent {
    /// Log-assigned sequence number (order of admission to the log).
    pub seq: u64,
    /// Nanoseconds since the trace epoch when the record was emitted.
    pub t_ns: u64,
    /// Wire protocol: `"http"` or `"ndjson"`.
    pub protocol: &'static str,
    /// Logical endpoint: `"count"`, `"stream"` or `"line"`.
    pub endpoint: &'static str,
    /// Query class reported by the planner (empty if the request never
    /// reached planning).
    pub class: String,
    /// Outcome classification.
    pub outcome: Outcome,
    /// HTTP status (NDJSON responses borrow the same convention).
    pub status: u16,
    /// Wall time spent queued before a pool worker picked the job up.
    pub queue_ns: u64,
    /// Total handler wall time (zero for shed requests).
    pub handle_ns: u64,
    /// Planning/preparation phase wall time within the handler.
    pub prepare_ns: u64,
    /// Evaluation phase wall time within the handler.
    pub evaluate_ns: u64,
    /// Response payload bytes (body only, excluding HTTP framing).
    pub bytes: u64,
    /// Event-loop slot index of the connection.
    pub slot: usize,
    /// Slot generation at dispatch time.
    pub gen: u64,
    /// Ordinal of this request on its connection (1-based).
    pub conn_req: u64,
    /// Trace correlation id (`traceparent` header or request `trace`
    /// member), empty if absent.
    pub trace: String,
}

impl WideEvent {
    /// Render the record as one NDJSON line (without trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"type\":\"wide\",\"seq\":{},\"t_ns\":{},\"protocol\":\"{}\",\"endpoint\":\"{}\"",
            self.seq, self.t_ns, self.protocol, self.endpoint
        ));
        out.push_str(",\"class\":\"");
        escape_json(&self.class, &mut out);
        out.push_str(&format!(
            "\",\"outcome\":\"{}\",\"status\":{},\"queue_ns\":{},\"handle_ns\":{},\"prepare_ns\":{},\"evaluate_ns\":{},\"bytes\":{},\"slot\":{},\"gen\":{},\"conn_req\":{}",
            self.outcome.as_str(),
            self.status,
            self.queue_ns,
            self.handle_ns,
            self.prepare_ns,
            self.evaluate_ns,
            self.bytes,
            self.slot,
            self.gen,
            self.conn_req
        ));
        out.push_str(",\"trace\":\"");
        escape_json(&self.trace, &mut out);
        out.push_str("\"}");
        out
    }
}

struct LogState {
    next_seq: u64,
    tail: VecDeque<WideEvent>,
    cap: usize,
    dropped: u64,
    file: Option<File>,
}

/// A bounded in-memory tail of recent wide events plus an optional NDJSON
/// file sink. The tail drops oldest on overflow (counted); the file, when
/// attached, receives every record.
pub struct WideLog {
    state: Mutex<LogState>,
}

impl WideLog {
    /// Create a log whose in-memory tail holds at most `cap` events.
    pub fn new(cap: usize) -> WideLog {
        WideLog {
            state: Mutex::new(LogState {
                next_seq: 0,
                tail: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
                file: None,
            }),
        }
    }

    /// Attach an append sink: every subsequent record is also written to
    /// `file` as one NDJSON line.
    pub fn attach_file(&self, file: File) {
        lock(&self.state).file = Some(file);
    }

    /// Record one wide event (no-op when recording is [`enabled`] off).
    /// Assigns the log sequence number, appends to the bounded tail
    /// (dropping the oldest entry if full), writes the file sink if one is
    /// attached, and mirrors the record into the flight recorder.
    pub fn record(&self, mut event: WideEvent) {
        if !enabled() {
            return;
        }
        let mut state = lock(&self.state);
        event.seq = state.next_seq;
        state.next_seq += 1;
        crate::flight::record_wide(&event);
        if let Some(file) = state.file.as_mut() {
            let mut line = event.to_json_line();
            line.push('\n');
            let _ = file.write_all(line.as_bytes());
        }
        if state.tail.len() >= state.cap {
            state.tail.pop_front();
            state.dropped += 1;
        }
        state.tail.push_back(event);
    }

    /// Render the in-memory tail as NDJSON (oldest first). If any events
    /// were evicted from the tail, a final `{"type":"dropped",…}` line
    /// reports how many, so a truncated tail can never pass for complete.
    pub fn tail_ndjson(&self) -> String {
        let state = lock(&self.state);
        let mut out = String::new();
        for event in &state.tail {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        if state.dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"dropped\",\"count\":{}}}\n",
                state.dropped
            ));
        }
        out
    }

    /// Total events recorded since construction.
    pub fn recorded(&self) -> u64 {
        lock(&self.state).next_seq
    }

    /// Events evicted from the in-memory tail (they may still be in the
    /// file sink).
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }
}

/// Poison-safe lock: wide-event state is only appended to, so a panicking
/// writer leaves it consistent.
fn lock(mutex: &Mutex<LogState>) -> std::sync::MutexGuard<'_, LogState> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

// ---------------------------------------------------------------------------
// Phase accumulator: serve-layer annotations for the in-flight request.
// ---------------------------------------------------------------------------

/// Phase annotations accumulated while one request executes on a dispatch
/// worker, drained into its [`WideEvent`].
#[derive(Debug, Default, Clone)]
pub struct Phases {
    /// Planning/preparation wall time.
    pub prepare_ns: u64,
    /// Evaluation wall time.
    pub evaluate_ns: u64,
    /// Query class reported by the planner.
    pub class: String,
    /// Trace correlation id from the request body, if any.
    pub trace: String,
}

thread_local! {
    static PHASES: RefCell<Option<Phases>> = const { RefCell::new(None) };
}

/// Arm the phase accumulator for the request about to execute on this
/// thread. Called by the network front end's job before invoking the
/// handler.
pub fn phases_begin() {
    PHASES.with(|p| *p.borrow_mut() = Some(Phases::default()));
}

/// Whether a phase accumulator is armed on this thread. The serve layer
/// checks this before starting phase stopwatches, so annotation costs one
/// thread-local read when wide events are off.
#[inline]
pub fn phases_active() -> bool {
    PHASES.with(|p| p.borrow().is_some())
}

/// Add wall time to a named phase (`"prepare"` or `"evaluate"`) of the
/// in-flight request. Unknown names are ignored. No-op when no accumulator
/// is armed.
pub fn note_phase(name: &str, ns: u64) {
    PHASES.with(|p| {
        if let Some(phases) = p.borrow_mut().as_mut() {
            match name {
                "prepare" => phases.prepare_ns += ns,
                "evaluate" => phases.evaluate_ns += ns,
                _ => {}
            }
        }
    });
}

/// Record the planner's query class for the in-flight request.
pub fn note_class(class: &str) {
    PHASES.with(|p| {
        if let Some(phases) = p.borrow_mut().as_mut() {
            phases.class = class.to_string();
        }
    });
}

/// Record the request-body trace correlation id for the in-flight request.
pub fn note_trace(trace: &str) {
    PHASES.with(|p| {
        if let Some(phases) = p.borrow_mut().as_mut() {
            phases.trace = trace.to_string();
        }
    });
}

/// Take the accumulated phases for the request that just finished,
/// disarming the accumulator. Returns defaults if nothing was armed.
pub fn phases_take() -> Phases {
    PHASES.with(|p| p.borrow_mut().take().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_state_guard;

    fn event(seq_hint: u64) -> WideEvent {
        WideEvent {
            seq: seq_hint,
            t_ns: 42,
            protocol: "http",
            endpoint: "count",
            class: "Quantifier".into(),
            outcome: Outcome::Ok,
            status: 200,
            queue_ns: 1_000,
            handle_ns: 2_000,
            prepare_ns: 500,
            evaluate_ns: 1_200,
            bytes: 64,
            slot: 3,
            gen: 7,
            conn_req: 1,
            trace: "00-abc-def-01".into(),
        }
    }

    #[test]
    fn json_line_has_all_fields_and_escapes() {
        let mut e = event(9);
        e.class = "say \"hi\"".into();
        let line = e.to_json_line();
        assert!(line.starts_with("{\"type\":\"wide\",\"seq\":9,"), "{line}");
        assert!(line.contains("\"class\":\"say \\\"hi\\\"\""), "{line}");
        assert!(line.contains("\"outcome\":\"ok\""), "{line}");
        assert!(line.contains("\"queue_ns\":1000"), "{line}");
        assert!(line.contains("\"conn_req\":1"), "{line}");
        assert!(line.ends_with("\"trace\":\"00-abc-def-01\"}"), "{line}");
    }

    #[test]
    fn log_is_gated_bounded_and_counts_evictions() {
        let _global = global_state_guard();
        let log = WideLog::new(2);

        // Disabled: nothing lands.
        set_enabled(false);
        log.record(event(0));
        assert_eq!(log.recorded(), 0);
        assert_eq!(log.tail_ndjson(), "");

        set_enabled(true);
        for _ in 0..5 {
            log.record(event(0));
        }
        set_enabled(false);
        assert_eq!(log.recorded(), 5);
        assert_eq!(log.dropped(), 3);
        let tail = log.tail_ndjson();
        // Two survivors (the newest) plus the eviction marker.
        assert_eq!(tail.lines().count(), 3, "{tail}");
        assert!(tail.contains("\"seq\":3"), "{tail}");
        assert!(tail.contains("\"seq\":4"), "{tail}");
        assert!(
            tail.ends_with("{\"type\":\"dropped\",\"count\":3}\n"),
            "{tail}"
        );
    }

    #[test]
    fn file_sink_receives_every_record() {
        let _global = global_state_guard();
        let path =
            std::env::temp_dir().join(format!("cqc-widelog-test-{}.ndjson", std::process::id()));
        let log = WideLog::new(1);
        log.attach_file(File::create(&path).unwrap());
        set_enabled(true);
        for _ in 0..3 {
            log.record(event(0));
        }
        set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("\"seq\":0"), "{text}");
        assert!(text.contains("\"seq\":2"), "{text}");
    }

    #[test]
    fn phase_accumulator_is_per_thread_and_take_disarms() {
        assert!(!phases_active());
        note_phase("prepare", 10); // unarmed: ignored
        phases_begin();
        assert!(phases_active());
        note_phase("prepare", 100);
        note_phase("evaluate", 200);
        note_phase("evaluate", 50);
        note_phase("mystery", 999);
        note_class("Join");
        note_trace("t-1");
        let phases = phases_take();
        assert!(!phases_active());
        assert_eq!(phases.prepare_ns, 100);
        assert_eq!(phases.evaluate_ns, 250);
        assert_eq!(phases.class, "Join");
        assert_eq!(phases.trace, "t-1");
        // A fresh take without arming yields defaults.
        assert_eq!(phases_take().prepare_ns, 0);
    }
}
