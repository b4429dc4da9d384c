//! Structured span tracing with deterministic identifiers.
//!
//! ## Model
//!
//! A **span** is a named interval of work with a `u64` identifier derived
//! from `(seed, work-item index)` via [`crate::seed::split_seed`] — never
//! from the wall clock or ambient randomness — so two runs with the same
//! seed produce identical span *trees* (names, IDs, parentage, counts).
//! Only the nanosecond timestamps differ between runs, which is why the
//! deterministic comparison helpers exclude them.
//!
//! Spans nest two ways:
//!
//! * [`Span::enter`] — parent is the innermost open span **on the same
//!   thread** (a thread-local stack), the common synchronous case;
//! * [`Span::child_of`] — explicit parent ID, for work dispatched to pool
//!   workers (`oracle_call → repetition`, `request → work_item`), where
//!   the parent span lives on another thread's stack.
//!
//! [`instant`] records a point event (pool dispatches, chunk steals,
//! traceparent echoes) with a free-form detail string.
//!
//! ## Invisibility
//!
//! Recording is gated on one relaxed [`AtomicBool`] load — tracing off
//! costs a branch. Enabled, events append to **per-thread** buffers
//! (bounded; overflow increments a drop counter instead of growing), so
//! the request path never contends a global lock. Nothing on the request
//! path ever *reads* trace state — the only consumer is [`drain`], called
//! by `--trace` exporters after the work — which is the structural reason
//! tracing cannot perturb estimates or wire bytes (pinned by the
//! trace-on/off byte-identity matrix in `cqc-net`).
//!
//! ## Export
//!
//! [`drain`] merges the buffers in deterministic `(thread, seq)` order.
//! [`Trace::to_ndjson`] renders one JSON object per event (the `--trace
//! FILE` format); [`build_forest`] reassembles span trees; [`fold_stacks`]
//! renders flamegraph-compatible folded stacks and [`phase_totals`] a
//! per-phase wall-time table (`cqc report flame`).

use crate::clock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cap on buffered events per thread; overflow is counted, not stored.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn tracing on or off process-wide. Estimates and wire bytes are
/// identical either way; only the buffers fill.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled (one relaxed load — the entire
/// cost of the tracer when off).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Ordinal of the recording thread (registration order, stable for the
    /// thread's lifetime).
    pub thread: u32,
    /// Per-thread sequence number (contiguous per thread).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch ([`clock::now_nanos`]).
    /// Scheduling-dependent; excluded from deterministic comparisons.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter {
        /// Span name (`request`, `prepare`, `oracle_call`, …).
        name: String,
        /// Deterministic span ID (`split_seed` of seed and coordinates).
        id: u64,
        /// Parent span ID, `0` for roots.
        parent: u64,
    },
    /// A span closed.
    Exit {
        /// Span name (matches the `Enter`).
        name: String,
        /// Span ID (matches the `Enter`).
        id: u64,
    },
    /// A point event.
    Instant {
        /// Event name (`pool_dispatch`, `steal`, `traceparent`, …).
        name: String,
        /// Free-form detail.
        detail: String,
    },
}

struct ThreadBuf {
    ordinal: u32,
    seq: u64,
    events: Vec<Event>,
    dropped: u64,
}

type SharedBuf = Arc<Mutex<ThreadBuf>>;

fn registry() -> &'static Mutex<Vec<SharedBuf>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedBuf>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_BUF: RefCell<Option<SharedBuf>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_local_buf(f: impl FnOnce(&mut ThreadBuf)) {
    LOCAL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let mut all = registry().lock().unwrap_or_else(|e| e.into_inner());
            let buf = Arc::new(Mutex::new(ThreadBuf {
                ordinal: all.len() as u32,
                seq: 0,
                events: Vec::new(),
                dropped: 0,
            }));
            all.push(Arc::clone(&buf));
            *slot = Some(buf);
        }
        if let Some(buf) = slot.as_ref() {
            let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut buf);
        }
    });
}

fn record(kind: EventKind) {
    // The flight recorder mirrors every trace event into its own bounded
    // per-thread ring, independently of whether the exporter buffers are
    // filling — `--trace` off with the recorder on still remembers the
    // last few seconds.
    if crate::flight::enabled() {
        crate::flight::record_trace(kind.clone());
    }
    if !enabled() {
        return;
    }
    with_local_buf(|buf| {
        if buf.events.len() >= MAX_EVENTS_PER_THREAD {
            buf.dropped += 1;
            return;
        }
        let event = Event {
            thread: buf.ordinal,
            seq: buf.seq,
            t_ns: clock::now_nanos(),
            kind,
        };
        buf.seq += 1;
        buf.events.push(event);
    });
}

/// The ID of the innermost open span on this thread (`0` if none). Capture
/// it *before* fanning work out to pool threads, then attach the fanned
/// spans with [`Span::child_of`].
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Record a point event (no-op when tracing is off). Format `detail`
/// behind an [`enabled`] check when it allocates.
pub fn instant(name: &'static str, detail: &str) {
    if !enabled() && !crate::flight::enabled() {
        return;
    }
    record(EventKind::Instant {
        name: name.to_string(),
        detail: detail.to_string(),
    });
}

/// An RAII span guard: records `Enter` on construction and `Exit` on drop.
/// Inert (records nothing, costs one atomic load) when tracing is off.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    name: &'static str,
    id: u64,
    recorded: bool,
}

impl Span {
    /// Open a span whose parent is the innermost open span on this thread.
    pub fn enter(name: &'static str, id: u64) -> Span {
        let parent = if enabled() || crate::flight::enabled() {
            current_span()
        } else {
            0
        };
        Span::open(name, id, parent)
    }

    /// Open a span under an explicit parent ID — for closures executing on
    /// pool workers, where the logical parent is open on another thread.
    pub fn child_of(parent: u64, name: &'static str, id: u64) -> Span {
        Span::open(name, id, parent)
    }

    fn open(name: &'static str, id: u64, parent: u64) -> Span {
        if !enabled() && !crate::flight::enabled() {
            return Span {
                name,
                id,
                recorded: false,
            };
        }
        record(EventKind::Enter {
            name: name.to_string(),
            id,
            parent,
        });
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span {
            name,
            id,
            recorded: true,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            return;
        }
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        record(EventKind::Exit {
            name: self.name.to_string(),
            id: self.id,
        });
    }
}

/// A drained trace: events in `(thread, seq)` order plus the number of
/// events lost to per-thread buffer caps (`0` in any healthy run).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The merged events.
    pub events: Vec<Event>,
    /// Events dropped because a per-thread buffer hit its cap.
    pub dropped: u64,
}

/// Drain every thread's buffer, merging in deterministic `(thread, seq)`
/// order. Buffers are emptied but stay registered (their ordinals and
/// sequence counters persist for the thread's lifetime).
pub fn drain() -> Trace {
    let all = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut trace = Trace::default();
    for buf in all.iter() {
        let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
        trace.events.append(&mut buf.events);
        trace.dropped += buf.dropped;
        buf.dropped = 0;
    }
    trace.events.sort_by_key(|e| (e.thread, e.seq));
    trace
}

/// Append `raw` to `out` as the body of a JSON string literal (no
/// surrounding quotes): quotes, backslashes and control characters are
/// escaped. The workspace's one JSON string escaper — the trace and
/// wide-event NDJSON and the serve wire format write strings through it.
pub fn escape_json(raw: &str, out: &mut String) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render one event as a single NDJSON line (with trailing newline) in the
/// `--trace FILE` format. Shared by [`Trace::to_ndjson`] and the flight
/// recorder's snapshot rendering, so both streams parse identically.
pub(crate) fn render_event_line(e: &Event, out: &mut String) {
    out.push_str(&format!(
        "{{\"type\":\"{}\",\"thread\":{},\"seq\":{},\"t_ns\":{}",
        match &e.kind {
            EventKind::Enter { .. } => "enter",
            EventKind::Exit { .. } => "exit",
            EventKind::Instant { .. } => "instant",
        },
        e.thread,
        e.seq,
        e.t_ns
    ));
    match &e.kind {
        EventKind::Enter { name, id, parent } => {
            out.push_str(",\"name\":\"");
            escape_json(name, out);
            out.push_str(&format!(
                "\",\"id\":\"{id:016x}\",\"parent\":\"{parent:016x}\""
            ));
        }
        EventKind::Exit { name, id } => {
            out.push_str(",\"name\":\"");
            escape_json(name, out);
            out.push_str(&format!("\",\"id\":\"{id:016x}\""));
        }
        EventKind::Instant { name, detail } => {
            out.push_str(",\"name\":\"");
            escape_json(name, out);
            out.push_str("\",\"detail\":\"");
            escape_json(detail, out);
            out.push('"');
        }
    }
    out.push_str("}\n");
}

impl Trace {
    /// Render the trace as NDJSON, one event object per line (the
    /// `--trace FILE` format). IDs are 16-digit hex strings — JSON numbers
    /// cannot carry a full u64. If any events were dropped, a final
    /// `{"type":"dropped",…}` line says how many, so a truncated trace can
    /// never pass for a complete one.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            render_event_line(e, &mut out);
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "{{\"type\":\"dropped\",\"count\":{}}}\n",
                self.dropped
            ));
        }
        out
    }
}

/// One reassembled span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Deterministic span ID.
    pub id: u64,
    /// Parent span ID (`0` for roots).
    pub parent: u64,
    /// Total wall time of the span in nanoseconds (`0` if its `Exit` was
    /// never recorded). Scheduling-dependent — excluded from
    /// [`SpanForest::shape`].
    pub total_ns: u64,
    /// Child node indices into [`SpanForest::nodes`], in `(thread, seq)`
    /// order of their `Enter` events.
    pub children: Vec<usize>,
}

/// Span trees reassembled from a drained (or parsed) event stream.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Every span, in `(thread, seq)` order of its `Enter` event.
    pub nodes: Vec<SpanNode>,
    /// Indices of the roots (spans whose parent was never seen).
    pub roots: Vec<usize>,
}

impl SpanForest {
    /// A duration-free rendering of the forest — names, IDs, parentage and
    /// child order only. Two same-seed runs must produce equal shapes
    /// (pinned by the span-tree determinism test); timestamps legitimately
    /// differ.
    pub fn shape(&self) -> String {
        fn walk(forest: &SpanForest, idx: usize, depth: usize, out: &mut String) {
            let node = &forest.nodes[idx];
            out.push_str(&format!(
                "{}{} id={:016x} parent={:016x}\n",
                "  ".repeat(depth),
                node.name,
                node.id,
                node.parent
            ));
            for &child in &node.children {
                walk(forest, child, depth + 1, out);
            }
        }
        let mut out = String::new();
        for &root in &self.roots {
            walk(self, root, 0, &mut out);
        }
        out
    }
}

/// Reassemble span trees from an event stream in `(thread, seq)` order.
///
/// `Enter`/`Exit` pairing is per-thread by proper nesting (spans are RAII
/// guards, so a thread's spans nest properly). Cross-thread parentage uses
/// the explicit parent ID: a child attaches to the most recently entered
/// span with that ID. Instant events do not create nodes.
pub fn build_forest(events: &[Event]) -> SpanForest {
    let mut forest = SpanForest::default();
    let mut entered_at: Vec<u64> = Vec::new(); // node idx -> enter t_ns
    let mut last_with_id: std::collections::BTreeMap<u64, usize> =
        std::collections::BTreeMap::new();
    let mut open_per_thread: std::collections::BTreeMap<u32, Vec<usize>> =
        std::collections::BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::Enter { name, id, parent } => {
                let idx = forest.nodes.len();
                forest.nodes.push(SpanNode {
                    name: name.clone(),
                    id: *id,
                    parent: *parent,
                    total_ns: 0,
                    children: Vec::new(),
                });
                entered_at.push(e.t_ns);
                match last_with_id.get(parent) {
                    Some(&p) if *parent != 0 => forest.nodes[p].children.push(idx),
                    _ => forest.roots.push(idx),
                }
                last_with_id.insert(*id, idx);
                open_per_thread.entry(e.thread).or_default().push(idx);
            }
            EventKind::Exit { id, .. } => {
                if let Some(stack) = open_per_thread.get_mut(&e.thread) {
                    // proper nesting: the top of this thread's stack is the
                    // span exiting; tolerate mismatches from partial traces
                    if let Some(pos) = stack.iter().rposition(|&i| forest.nodes[i].id == *id) {
                        let idx = stack.remove(pos);
                        forest.nodes[idx].total_ns = e.t_ns.saturating_sub(entered_at[idx]);
                    }
                }
            }
            EventKind::Instant { .. } => {}
        }
    }
    forest
}

/// Render flamegraph-compatible folded stacks: one `path;to;span value`
/// line per distinct stack, value = **self** time in microseconds (total
/// minus the children's totals). Lines are sorted by path, so the output
/// is stable for a fixed trace.
pub fn fold_stacks(forest: &SpanForest) -> Vec<(String, u64)> {
    fn walk(
        forest: &SpanForest,
        idx: usize,
        prefix: &str,
        folded: &mut std::collections::BTreeMap<String, u64>,
    ) {
        let node = &forest.nodes[idx];
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        let children_ns: u64 = node
            .children
            .iter()
            .map(|&c| forest.nodes[c].total_ns)
            .sum();
        let self_us = node.total_ns.saturating_sub(children_ns) / 1_000;
        *folded.entry(path.clone()).or_insert(0) += self_us;
        for &child in &node.children {
            walk(forest, child, &path, folded);
        }
    }
    let mut folded = std::collections::BTreeMap::new();
    for &root in &forest.roots {
        walk(forest, root, "", &mut folded);
    }
    folded.into_iter().collect()
}

/// Per-phase wall-time table: `(span name, spans, total nanoseconds)`,
/// sorted by descending total.
pub fn phase_totals(forest: &SpanForest) -> Vec<(String, u64, u64)> {
    let mut totals: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for node in &forest.nodes {
        let entry = totals.entry(&node.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += node.total_ns;
    }
    let mut rows: Vec<(String, u64, u64)> = totals
        .into_iter()
        .map(|(name, (count, ns))| (name.to_string(), count, ns))
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::split_seed;

    /// The tracer is process-global state; exercise it from one test, under
    /// the crate's global-state guard, so parallel test threads cannot
    /// interleave buffers.
    #[test]
    fn spans_nest_record_and_reassemble() {
        let _global = crate::global_state_guard();
        set_enabled(true);
        let _ = drain(); // isolate from any earlier traffic on this thread
        {
            let request = Span::enter("request", split_seed(7, 0));
            {
                let _prepare = Span::enter("prepare", split_seed(7, 1));
                instant("traceparent", "00-abc-def-01");
            }
            // a "pool worker" attaching by explicit parent ID
            let _work = Span::child_of(request.id, "work_item", split_seed(7, 2));
        }
        set_enabled(false);
        let trace = drain();
        assert_eq!(trace.dropped, 0);
        // enter request, enter prepare, instant, exit prepare,
        // enter work_item, exit work_item, exit request
        assert_eq!(trace.events.len(), 7);
        let forest = build_forest(&trace.events);
        assert_eq!(forest.roots.len(), 1);
        let shape = forest.shape();
        assert!(shape.starts_with("request "), "{shape}");
        assert!(shape.contains("\n  prepare "), "{shape}");
        assert!(shape.contains("\n  work_item "), "{shape}");

        // NDJSON renders one line per event (no drop marker)
        let ndjson = trace.to_ndjson();
        assert_eq!(ndjson.lines().count(), 7, "{ndjson}");
        assert!(ndjson.contains("\"type\":\"instant\""), "{ndjson}");
        assert!(
            ndjson.contains(&format!("\"id\":\"{:016x}\"", split_seed(7, 1))),
            "{ndjson}"
        );

        // folded stacks and the phase table see all three spans
        let folded = fold_stacks(&forest);
        let paths: Vec<&str> = folded.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            ["request", "request;prepare", "request;work_item"],
            "{folded:?}"
        );
        let phases = phase_totals(&forest);
        assert_eq!(phases.len(), 3);
        assert!(phases.iter().all(|(_, count, _)| *count == 1));

        // disabled tracing records nothing
        let _quiet = Span::enter("quiet", 1);
        drop(_quiet);
        assert!(drain().events.is_empty());
    }

    #[test]
    fn json_detail_strings_are_escaped() {
        let trace = Trace {
            events: vec![Event {
                thread: 0,
                seq: 0,
                t_ns: 5,
                kind: EventKind::Instant {
                    name: "note".into(),
                    detail: "say \"hi\"\\\n".into(),
                },
            }],
            dropped: 2,
        };
        let ndjson = trace.to_ndjson();
        assert!(ndjson.contains(r#""detail":"say \"hi\"\\\n""#), "{ndjson}");
        assert!(
            ndjson.ends_with("{\"type\":\"dropped\",\"count\":2}\n"),
            "{ndjson}"
        );
    }
}
