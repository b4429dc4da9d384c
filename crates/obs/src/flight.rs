//! The flight recorder: bounded per-thread rings of recent activity.
//!
//! Where [`crate::trace`] is an opt-in exporter (enable, run, drain) and
//! [`crate::wide`] is the per-request log, the flight recorder is the
//! **always-on last-few-seconds memory** of the server: every trace event
//! and every wide event is mirrored into a small per-thread ring buffer
//! that drops its oldest entry on overflow (counted, never blocking). When
//! something anomalous happens — a handler panic, a shed burst, a request
//! over the slow threshold — the server snapshots the rings into a
//! timestamped dump file, capturing what the process was doing *just
//! before* the anomaly. `GET /debug/flight` serves the same snapshot live.
//!
//! ## Cost model
//!
//! Off (the default), mirroring is one relaxed [`AtomicBool`] load at each
//! trace/wide recording site. On, each event costs one push into a
//! thread-local ring behind an uncontended mutex (the only other lock
//! holder is [`snapshot`], which is rare). The rings are bounded at
//! [`MAX_ENTRIES_PER_THREAD`] entries, so memory is fixed regardless of
//! uptime. Nothing on the request path reads flight state back —
//! invisibility is pinned by `trace_invisibility.rs` in `cqc-net`.

use crate::clock;
use crate::trace::{render_event_line, Event, EventKind};
use crate::wide::WideEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cap on ring entries per thread; overflow drops the oldest (counted).
pub const MAX_ENTRIES_PER_THREAD: usize = 2048;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the flight recorder on or off process-wide. Estimates and wire
/// bytes are identical either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is enabled (one relaxed load — the entire
/// cost when off).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One ring entry: a mirrored trace event or a mirrored wide event.
#[derive(Debug, Clone)]
pub enum FlightEntry {
    /// A span enter/exit or instant, as recorded by the tracer.
    Trace(Event),
    /// A completed request's wide event.
    Wide(WideEvent),
}

impl FlightEntry {
    /// Timestamp of the entry (nanoseconds since the trace epoch).
    pub fn t_ns(&self) -> u64 {
        match self {
            FlightEntry::Trace(e) => e.t_ns,
            FlightEntry::Wide(w) => w.t_ns,
        }
    }
}

struct Ring {
    ordinal: u32,
    seq: u64,
    entries: VecDeque<FlightEntry>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, entry: FlightEntry) {
        if self.entries.len() >= MAX_ENTRIES_PER_THREAD {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
        self.seq += 1;
    }
}

type SharedRing = Arc<Mutex<Ring>>;

fn registry() -> &'static Mutex<Vec<SharedRing>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<SharedRing>> = const { RefCell::new(None) };
}

fn with_local_ring(f: impl FnOnce(&mut Ring)) {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let mut all = registry().lock().unwrap_or_else(|e| e.into_inner());
            let ring = Arc::new(Mutex::new(Ring {
                ordinal: all.len() as u32,
                seq: 0,
                entries: VecDeque::new(),
                dropped: 0,
            }));
            all.push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        if let Some(ring) = slot.as_ref() {
            let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut ring);
        }
    });
}

/// Mirror one trace event kind into this thread's ring. Called by the
/// tracer's recording path when the recorder is [`enabled`]; stamps the
/// ring's own thread ordinal and sequence.
pub(crate) fn record_trace(kind: EventKind) {
    with_local_ring(|ring| {
        let event = Event {
            thread: ring.ordinal,
            seq: ring.seq,
            t_ns: clock::now_nanos(),
            kind,
        };
        ring.push(FlightEntry::Trace(event));
    });
}

/// Mirror one wide event into this thread's ring. Called by
/// [`crate::wide::WideLog::record`]; a no-op when the recorder is off.
pub(crate) fn record_wide(event: &WideEvent) {
    if !enabled() {
        return;
    }
    with_local_ring(|ring| ring.push(FlightEntry::Wide(event.clone())));
}

/// A copied snapshot of every thread's ring, merged by timestamp.
#[derive(Debug, Clone, Default)]
pub struct FlightSnapshot {
    /// The merged entries, oldest first.
    pub entries: Vec<FlightEntry>,
    /// Total entries dropped from rings since the last [`reset`].
    pub dropped: u64,
}

/// Copy every ring (without draining it) and merge the entries by
/// timestamp. The rings keep recording; a snapshot never loses data.
pub fn snapshot() -> FlightSnapshot {
    let all = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = FlightSnapshot::default();
    for ring in all.iter() {
        let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        snap.entries.extend(ring.entries.iter().cloned());
        snap.dropped += ring.dropped;
    }
    snap.entries.sort_by_key(|e| e.t_ns());
    snap
}

/// Total entries dropped from the rings (overflow evictions) since the
/// last [`reset`].
pub fn dropped_total() -> u64 {
    let all = registry().lock().unwrap_or_else(|e| e.into_inner());
    all.iter()
        .map(|r| r.lock().unwrap_or_else(|e| e.into_inner()).dropped)
        .sum()
}

/// Clear every ring and its drop counter (ordinals and sequence counters
/// persist). Used by tests and by back-to-back benchmark runs.
pub fn reset() {
    let all = registry().lock().unwrap_or_else(|e| e.into_inner());
    for ring in all.iter() {
        let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.entries.clear();
        ring.dropped = 0;
    }
}

impl FlightSnapshot {
    /// Render the snapshot as NDJSON: a header line with entry and drop
    /// counts, then one line per entry (trace events in the `--trace`
    /// format, wide events in the request-log format). This is both the
    /// `GET /debug/flight` body and the anomaly dump-file format.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"flight\",\"entries\":{},\"dropped\":{}}}\n",
            self.entries.len(),
            self.dropped
        ));
        for entry in &self.entries {
            match entry {
                FlightEntry::Trace(e) => render_event_line(e, &mut out),
                FlightEntry::Wide(w) => {
                    out.push_str(&w.to_json_line());
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global state; exercise it from one test, under
    /// the crate's global-state guard, so parallel test threads cannot
    /// interleave rings.
    #[test]
    fn rings_bound_drop_oldest_and_snapshot() {
        let _global = crate::global_state_guard();
        reset();
        set_enabled(true);

        // Overflow one thread's ring: the oldest entries go, counted.
        for i in 0..(MAX_ENTRIES_PER_THREAD + 5) {
            record_trace(EventKind::Instant {
                name: "tick".into(),
                detail: format!("{i}"),
            });
        }
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.dropped >= 5, "dropped {}", snap.dropped);
        let this_thread: Vec<&FlightEntry> = snap
            .entries
            .iter()
            .filter(|e| matches!(e, FlightEntry::Trace(ev) if matches!(&ev.kind, EventKind::Instant { name, .. } if name == "tick")))
            .collect();
        assert_eq!(this_thread.len(), MAX_ENTRIES_PER_THREAD);
        // The survivor set is the newest window.
        if let FlightEntry::Trace(first) = this_thread[0] {
            if let EventKind::Instant { detail, .. } = &first.kind {
                assert_eq!(detail, "5");
            }
        }

        // Snapshot renders a header plus one line per entry.
        let ndjson = snap.to_ndjson();
        let header = ndjson.lines().next().unwrap();
        assert!(
            header.starts_with("{\"type\":\"flight\",\"entries\":"),
            "{header}"
        );
        assert_eq!(ndjson.lines().count(), 1 + snap.entries.len());

        // Disabled: nothing new lands.
        record_trace(EventKind::Instant {
            name: "quiet".into(),
            detail: String::new(),
        });
        // record_trace is pub(crate) and unconditionally pushes; the gate
        // lives at the tracer call site — but record_wide gates itself:
        let w = WideEvent {
            seq: 0,
            t_ns: 1,
            protocol: "http",
            endpoint: "count",
            class: String::new(),
            outcome: crate::wide::Outcome::Ok,
            status: 200,
            queue_ns: 0,
            handle_ns: 0,
            prepare_ns: 0,
            evaluate_ns: 0,
            bytes: 0,
            slot: 0,
            gen: 0,
            conn_req: 0,
            trace: String::new(),
        };
        record_wide(&w);
        let after = snapshot();
        assert!(!after
            .entries
            .iter()
            .any(|e| matches!(e, FlightEntry::Wide(_))));
        reset();
        assert_eq!(dropped_total(), 0);
        assert!(snapshot().entries.is_empty());
    }
}
