//! Admission control between the readiness loop and the engine.
//!
//! The event thread frames requests and hands each [`Job`] to
//! [`Dispatcher::try_enqueue`], which admits it against the configured
//! bound and runs it as a detached job on the `cqc-runtime` pool — the
//! process's only executor, whose workers also fan each request's `par_*`
//! work. A finished job pushes its fully rendered response bytes back as
//! a [`Completion`] and wakes the event thread through its wake socket.
//! The admission counter is the load-shedding point: `try_enqueue` refuses
//! work beyond the bound, and the event loop turns that refusal into a
//! load-shed response (HTTP 503 / NDJSON error line) instead of queueing
//! without limit.
//!
//! Every job runs under `catch_unwind`: a panicking handler is counted
//! (`cqc_connection_panics_total`) and answered with a 500-class response
//! rather than silently killing the connection — the
//! thread-per-connection model swallowed those panics on `JoinHandle` reap.

// The serve request path: a panic here turns one bad request into a dead
// worker or connection. A sanctioned site carries a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::http::{finish_chunks, write_chunk, write_chunked_head, write_response_with};
use crate::server::{error_body, Shared};
use cqc_obs::wide::Outcome;
use cqc_obs::{Stopwatch, WideEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies a connection slot in the event loop, with a generation
/// counter so a completion for a closed connection can never be delivered
/// to an unrelated connection that reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token {
    /// Index into the event loop's slot table.
    pub slot: usize,
    /// The slot's generation at dispatch time.
    pub gen: u64,
}

/// One dispatched request, owned by its pool job.
pub(crate) struct Job {
    /// The connection awaiting the response.
    pub token: Token,
    /// Ordinal of this request on its connection (1-based), for the wide
    /// event.
    pub conn_req: u64,
    /// Started at admission; its elapsed time when a pool worker starts
    /// the job is the wide event's queue wait.
    pub queued: Stopwatch,
    /// What to execute.
    pub kind: JobKind,
}

/// The work a job carries; each variant renders to complete response bytes.
pub(crate) enum JobKind {
    /// `POST /count`: one request line, one JSON response.
    Count {
        /// The UTF-8 request body (validated by the event loop).
        text: String,
        /// `traceparent` header to echo, if the request carried one.
        traceparent: Option<String>,
        /// Whether the response must carry `Connection: close`.
        close: bool,
    },
    /// `POST /stream`: a batch of request lines, streamed back chunked
    /// (HTTP/1.1) or length-delimited (HTTP/1.0).
    Stream {
        /// The UTF-8 request body.
        text: String,
        /// HTTP/1.0 peer: buffer the lines instead of chunking.
        http10: bool,
        /// Whether the response must carry `Connection: close`.
        close: bool,
    },
    /// One raw NDJSON request line.
    Line {
        /// The request line, without its newline.
        line: String,
    },
}

/// A finished job: the rendered response bytes for one connection.
pub(crate) struct Completion {
    /// The connection the bytes belong to.
    pub token: Token,
    /// The complete response (headers and all, for HTTP).
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes are flushed.
    pub close: bool,
}

/// What the event thread and the running jobs share.
struct DispatchState {
    /// Jobs admitted and not yet finished — the admission-control count.
    in_flight: AtomicU64,
    completions: Mutex<Vec<Completion>>,
}

/// Poison-safe lock: a handler panic is already counted and answered by
/// `catch_unwind`, so the list a poisoned lock guards is still
/// consistent — take it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The admission counter and completions list of the event loop's
/// dispatched requests.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    state: Arc<DispatchState>,
    /// Maximum `in_flight` before `try_enqueue` refuses.
    limit: u64,
}

impl Dispatcher {
    /// A dispatcher running jobs against `shared`'s serve layer, admitting
    /// at most `limit` at a time. Each finished job writes one byte to
    /// `shared`'s wake socket so the event loop's `poll` returns promptly.
    pub fn new(shared: Arc<Shared>, limit: usize) -> Dispatcher {
        Dispatcher {
            shared,
            state: Arc::new(DispatchState {
                in_flight: AtomicU64::new(0),
                completions: Mutex::new(Vec::new()),
            }),
            limit: limit.max(1) as u64,
        }
    }

    /// Admit a job unless `limit` jobs are in flight, and hand it to the
    /// runtime pool. Refusal runs nothing — the caller sheds the request.
    /// Only the event thread admits, so the check and the increment
    /// cannot race another admission.
    pub fn try_enqueue(&self, job: Job) -> bool {
        if self.state.in_flight.load(Ordering::Relaxed) >= self.limit {
            return false;
        }
        self.state.in_flight.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let state = Arc::clone(&self.state);
        cqc_runtime::pool::global().spawn(Box::new(move || run_job(&state, &shared, job)));
        true
    }

    /// Take every finished completion.
    pub fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *lock(&self.state.completions))
    }

    /// Jobs admitted and not yet finished (the `cqc_dispatch_queue_depth`
    /// gauge, sampled at scrape time). A job has recorded its metrics and
    /// wide event before it leaves this count, so once it reads zero no
    /// request is left to account for.
    pub fn depth(&self) -> u64 {
        self.state.in_flight.load(Ordering::Relaxed)
    }
}

/// Execute one admitted job on a pool worker: render its response (a 500
/// if the handler panics), release its admission slot, publish the
/// completion and wake the event loop.
fn run_job(state: &DispatchState, shared: &Shared, job: Job) {
    let token = job.token;
    // Captured before execution so a panicking handler can still be
    // answered in the right protocol framing (and classified in its
    // wide event).
    let is_http = matches!(&job.kind, JobKind::Count { .. } | JobKind::Stream { .. });
    let (protocol, endpoint): (&'static str, &'static str) = match &job.kind {
        JobKind::Count { .. } => ("http", "count"),
        JobKind::Stream { .. } => ("http", "stream"),
        JobKind::Line { .. } => ("ndjson", "line"),
    };
    let wide_ctx = WideCtx {
        token,
        conn_req: job.conn_req,
        queue_ns: if cqc_obs::wide::enabled() {
            job.queued.elapsed().as_nanos().min(u64::MAX as u128) as u64
        } else {
            0
        },
    };
    let exec = Stopwatch::start();
    let (bytes, close) =
        match catch_unwind(AssertUnwindSafe(|| execute(shared, job.kind, &wide_ctx))) {
            Ok(rendered) => rendered,
            Err(_) => {
                shared.metrics.connection_panics.inc();
                cqc_obs::trace::instant("net_panic", if is_http { "http" } else { "ndjson" });
                let body = error_body("request handler panicked");
                // The panicking request's wide event is recorded *before*
                // the flight dump below, so the dump always contains it —
                // the phase accumulator keeps whatever the handler noted
                // before unwinding.
                if cqc_obs::wide::enabled() {
                    let handle_ns = exec.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    emit_wide(
                        shared,
                        &wide_ctx,
                        protocol,
                        endpoint,
                        Outcome::Panic,
                        500,
                        handle_ns,
                        body.len(),
                        None,
                    );
                }
                shared.flight_dumps.dump("panic", true);
                let mut out = Vec::new();
                if is_http {
                    let _ = crate::http::write_response(
                        &mut out,
                        500,
                        "application/json",
                        body.as_bytes(),
                        true,
                    );
                } else {
                    out.extend_from_slice(body.as_bytes());
                    out.push(b'\n');
                }
                (out, true)
            }
        };
    state.in_flight.fetch_sub(1, Ordering::Relaxed);
    lock(&state.completions).push(Completion {
        token,
        bytes,
        close,
    });
    // Wake the event loop; WouldBlock means a wake byte is already
    // pending, which is just as good.
    shared.wake();
}

/// The wide-event coordinates of the job a worker is executing: slab
/// token, per-connection request ordinal, and the queue wait measured when
/// the job started.
pub(crate) struct WideCtx {
    /// Connection slab token.
    pub token: Token,
    /// 1-based request ordinal on the connection.
    pub conn_req: u64,
    /// Nanoseconds between admission and the job's start on a worker.
    pub queue_ns: u64,
}

/// Record the wide event for one handled request line and run the
/// slow-request trigger. Drains the phase accumulator armed before the
/// handler ran; `trace_override` (the HTTP `traceparent` header) wins over
/// a `trace` member noted from the request body.
#[expect(
    clippy::too_many_arguments,
    reason = "one wide event's fields, gathered at a single call site"
)]
fn emit_wide(
    shared: &Shared,
    ctx: &WideCtx,
    protocol: &'static str,
    endpoint: &'static str,
    outcome: Outcome,
    status: u16,
    handle_ns: u64,
    body_bytes: usize,
    trace_override: Option<&str>,
) {
    let phases = cqc_obs::wide::phases_take();
    shared.wide.record(WideEvent {
        seq: 0,
        t_ns: cqc_obs::clock::now_nanos(),
        protocol,
        endpoint,
        class: phases.class,
        outcome,
        status,
        queue_ns: ctx.queue_ns,
        handle_ns,
        prepare_ns: phases.prepare_ns,
        evaluate_ns: phases.evaluate_ns,
        bytes: body_bytes as u64,
        slot: ctx.token.slot,
        gen: ctx.token.gen,
        conn_req: ctx.conn_req,
        trace: trace_override.map(str::to_string).unwrap_or(phases.trace),
    });
}

/// One `handle_line_classified` call with its observability wrapping:
/// latency histogram, phase accumulator arm/drain, wide event, slow
/// trigger. Returns the response body and its error flag — the response
/// bytes are untouched by any of the wrapping.
fn handle_observed(
    shared: &Shared,
    ctx: &WideCtx,
    protocol: &'static str,
    endpoint: &'static str,
    line: &str,
    trace_override: Option<&str>,
) -> (String, bool) {
    let wide_on = cqc_obs::wide::enabled();
    if wide_on {
        cqc_obs::wide::phases_begin();
    }
    let start = Stopwatch::start();
    let (body, is_error) = shared.serve.handle_line_classified(line);
    let elapsed = start.elapsed();
    shared.metrics.latency.record(elapsed);
    shared.count_served();
    let handle_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
    if wide_on {
        let outcome = if is_error {
            Outcome::Error
        } else {
            Outcome::Ok
        };
        let status = if is_error { 400 } else { 200 };
        emit_wide(
            shared,
            ctx,
            protocol,
            endpoint,
            outcome,
            status,
            handle_ns,
            body.len(),
            trace_override,
        );
    }
    shared.note_handle_ns(handle_ns);
    (body, is_error)
}

/// Execute one job against the serve layer and render the full response
/// bytes. This is the exact request semantics of the thread-per-connection
/// handlers (same calls, same order, same header bytes), relocated off the
/// event thread — response bytes stay a pure function of request bytes.
fn execute(shared: &Shared, kind: JobKind, ctx: &WideCtx) -> (Vec<u8>, bool) {
    match kind {
        JobKind::Count {
            text,
            traceparent,
            close,
        } => {
            // A request carrying a `traceparent` header gets it echoed
            // back verbatim on the response — correlation across the wire.
            // The echo is a pure function of the request bytes (tracing on
            // or off never changes it), so it cannot perturb transcript
            // comparison.
            if let Some(t) = &traceparent {
                cqc_obs::trace::instant("traceparent", t);
            }
            let (body, is_error) = handle_observed(
                shared,
                ctx,
                "http",
                "count",
                text.trim(),
                traceparent.as_deref(),
            );
            let status = if is_error { 400 } else { 200 };
            shared.metrics.observe_status(status);
            let extra: Vec<(&str, &str)> = traceparent
                .as_deref()
                .map(|t| vec![("Traceparent", t)])
                .unwrap_or_default();
            let mut out = Vec::new();
            let _ = write_response_with(
                &mut out,
                status,
                "application/json",
                &extra,
                body.as_bytes(),
                close,
            );
            (out, close)
        }
        JobKind::Stream {
            text,
            http10,
            close,
        } => {
            let mut out = Vec::new();
            if http10 {
                // HTTP/1.0 predates chunked encoding: buffer the response
                // lines and send them length-delimited.
                let mut body = String::new();
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let (response, _) = handle_observed(shared, ctx, "http", "stream", line, None);
                    body.push_str(&response);
                    body.push('\n');
                }
                shared.metrics.observe_status(200);
                let _ = crate::http::write_response(
                    &mut out,
                    200,
                    "application/x-ndjson",
                    body.as_bytes(),
                    close,
                );
            } else {
                shared.metrics.observe_status(200);
                let _ = write_chunked_head(&mut out, "application/x-ndjson", close);
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let (response, _) = handle_observed(shared, ctx, "http", "stream", line, None);
                    let _ = write_chunk(&mut out, format!("{response}\n").as_bytes());
                }
                let _ = finish_chunks(&mut out);
            }
            (out, close)
        }
        JobKind::Line { line } => {
            let (response, _) = handle_observed(
                shared,
                ctx,
                "ndjson",
                "line",
                line.trim_end_matches('\n'),
                None,
            );
            let mut out = response.into_bytes();
            out.push(b'\n');
            (out, false)
        }
    }
}
