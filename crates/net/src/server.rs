//! The network front end: an event-driven TCP server that speaks HTTP/1.1
//! *and* raw newline-delimited JSON on one port, wrapping the sharded
//! counting core of `cqc_serve::Server`.
//!
//! ## Architecture: readiness loop + the runtime pool
//!
//! One **event thread** owns every socket: it polls them for readiness
//! (`poll(2)` through the std-only shim in [`crate::poll`]), accepts new
//! connections, fills per-connection read buffers, frames requests
//! (the `conn` module: read → parse), and drains write buffers. Engine work
//! never runs on the event thread — `/count`, `/stream` and NDJSON lines
//! pass the **bounded admission counter** (the `dispatch` module) and run as
//! detached jobs on the `cqc-runtime` pool, whose workers also fan each
//! request's parallel loops, and hand fully rendered response bytes back.
//! A connection with a request in flight is not read further — that
//! per-connection backpressure is what keeps responses ordered and
//! buffers bounded.
//!
//! ## Admission control
//!
//! Two explicit limits, both answered with the canonical overload bytes of
//! [`cqc_serve::overload_line`] (identical JSON across protocols):
//!
//! * [`NetConfig::max_connections`] — connections over the cap get one
//!   load-shed response (HTTP 503 / NDJSON error line) and are closed,
//!   counted by `cqc_connections_rejected_total`.
//! * [`NetConfig::dispatch_queue_limit`] — requests beyond the queue bound
//!   are shed per-request (the connection stays usable), counted by
//!   `cqc_requests_shed_total`; `cqc_dispatch_queue_depth` samples the
//!   queue at scrape time.
//!
//! ## Protocol sniffing
//!
//! The first byte of a connection decides its protocol: `{` means the peer
//! is speaking the raw NDJSON request protocol of `cqc serve` (one JSON
//! request per line, one JSON response per line); anything else is parsed
//! as HTTP/1.1. No HTTP method starts with `{`, so the sniff is exact.
//!
//! ## Endpoints
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `POST /count` | one serve-protocol JSON request in the body; JSON response (HTTP 400 for `error` responses, body identical to NDJSON mode) |
//! | `POST /stream` | NDJSON request lines in the body; chunked NDJSON response, one chunk per response line |
//! | `GET /healthz` | `{"status":"ok"}` |
//! | `GET /metrics` | Prometheus text: request/plan-cache/shard counters + latency histogram |
//!
//! ## Determinism over TCP
//!
//! Response *bodies* are byte-identical regardless of connection
//! interleaving, client concurrency, worker-pool width, or shard count:
//! every request carries its own seed, work item `i` always runs under
//! `split_seed(seed, i)`, and merges are index-ordered (see `cqc-serve`).
//! The network layer adds nothing nondeterministic around the body — HTTP
//! headers are a fixed function of the body, and which *thread* renders a
//! response (event loop for inline endpoints, a pool worker for engine
//! work) never appears on the wire. `tests/wire_determinism.rs` pins the
//! full matrix.
//!
//! ## Graceful shutdown
//!
//! [`ShutdownHandle::signal`] (or reaching `max_requests`) sets a flag and
//! writes a byte to the event thread's wake socket. The listener closes
//! immediately, in-flight requests finish and flush (bounded by a short
//! drain deadline for peers that stop reading), idle connections close,
//! the event thread exits, and [`RunningServer::wait`] /
//! [`RunningServer::shutdown`] return the total count requests served.

// The serve request path: a panic here turns one bad request into a dead
// worker or connection. A sanctioned site carries a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::conn::{Conn, HttpNext, NdjsonNext, Proto};
use crate::dispatch::{Dispatcher, Job, JobKind, Token};
use crate::http::{write_response, write_response_with, MAX_BODY_BYTES};
use crate::metrics::Metrics;
use crate::poll::{poll_fds, raw_fd, PollFd, POLLIN, POLLOUT};
use cqc_obs::wide::Outcome;
use cqc_obs::{Registry, Stopwatch, WideEvent, WideLog};
use cqc_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The event loop's poll timeout: the granularity of the idle sweep and of
/// accept-error backoff. Readiness (bytes, completions, shutdown wake)
/// interrupts it immediately.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Default cap on concurrent connections (see [`NetConfig::max_connections`]).
/// A connection now costs one descriptor plus its buffers — not an OS
/// thread — so the default is sized for thousands of keep-alive peers.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Default idle-read deadline (see [`NetConfig::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default bound on dispatched-but-unanswered requests (see
/// [`NetConfig::dispatch_queue_limit`]).
pub const DEFAULT_DISPATCH_QUEUE_LIMIT: usize = 256;

/// Cap on connections simultaneously being *rejected* (sniffing their
/// protocol to frame the 503/error bytes). Beyond it, over-cap connections
/// are closed bare — still counted — so a reject flood cannot itself pin
/// descriptors.
const MAX_REJECT_SLOTS: usize = 64;

/// Once shutdown begins, how long flushed-but-unread response bytes may
/// keep a connection open before it is closed anyway. Short enough that a
/// peer that stopped reading cannot stall shutdown noticeably.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(2);

/// Wide events kept in the in-memory tail behind `GET /debug/requests`.
const WIDE_TAIL_CAP: usize = 512;

/// Shed responses within [`SHED_BURST_WINDOW_NANOS`] that constitute a
/// burst worth a flight-recorder dump.
const SHED_BURST_THRESHOLD: u64 = 32;

/// The shed-burst counting window.
const SHED_BURST_WINDOW_NANOS: u64 = 1_000_000_000;

/// Minimum spacing between non-panic flight dumps, so a sustained anomaly
/// (every request slow, say) produces a bounded dump series instead of one
/// file per request.
const DUMP_COOLDOWN_MILLIS: u64 = 1_000;

/// Configuration of the network front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Defaults for the wrapped serving core (accuracy, seed, shards,
    /// plan-cache capacity).
    pub serve: ServerConfig,
    /// Stop accepting and shut down gracefully after this many count
    /// requests (`None` = run until signalled). Smoke tests and the CLI's
    /// `--max-requests` use this.
    pub max_requests: Option<u64>,
    /// Cap on concurrent connections (each costs a descriptor and its
    /// buffers). Excess connections receive one load-shed response (HTTP
    /// 503 / NDJSON error line, counted by
    /// `cqc_connections_rejected_total`) and are closed. `0` means the
    /// default.
    pub max_connections: usize,
    /// Close a connection when no bytes arrive for this long — idle
    /// keep-alive peers *and* slowloris-style stalled requests both
    /// expire, so the [`NetConfig::max_connections`] slots they occupy are
    /// recovered instead of being pinned until shutdown. Zero means the
    /// default.
    pub idle_timeout: Duration,
    /// Bound on requests dispatched but not yet answered (queued plus
    /// executing). Requests beyond it are shed with a 503/NDJSON error
    /// (counted by `cqc_requests_shed_total`) while the connection stays
    /// usable. `0` means the default.
    pub dispatch_queue_limit: usize,
    /// Append every wide event (one NDJSON record per request) to this
    /// file — `cqc serve --request-log FILE`. The bounded in-memory tail
    /// behind `GET /debug/requests` fills regardless; the file is the
    /// durable log `cqc report requests` consumes. Recording only happens
    /// while [`cqc_obs::wide::set_enabled`] is on.
    pub request_log: Option<PathBuf>,
    /// A request whose handler runs longer than this triggers an automatic
    /// flight-recorder dump (`cqc serve --slow-ms`). `None` disables the
    /// slow trigger.
    pub slow_ms: Option<u64>,
    /// Directory for automatic flight-recorder dumps (panic, shed burst,
    /// slow request). `None` disables dump files; `GET /debug/flight`
    /// still serves live snapshots.
    pub flight_dir: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServerConfig::default(),
            max_requests: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            dispatch_queue_limit: DEFAULT_DISPATCH_QUEUE_LIMIT,
            request_log: None,
            slow_ms: None,
            flight_dir: None,
        }
    }
}

/// Counters of the admission-control and failure paths (the same series
/// are exported via `/metrics`; this is the programmatic view for tests
/// and operational assertions).
#[derive(Debug, Clone, Copy)]
pub struct NetStats {
    /// Connections refused at the cap with a load-shed response.
    pub connections_rejected: u64,
    /// Requests answered with a load-shed response (queue bound reached).
    pub requests_shed: u64,
    /// Request handlers that panicked (answered 500-class and counted,
    /// never silently swallowed).
    pub connection_panics: u64,
    /// Transient `accept(2)` failures the event loop backed off from.
    pub accept_errors: u64,
}

/// Event-loop tick statistics maintained live by the readiness loop and
/// read only by `GET /debug/loop` (relaxed atomics — observation only).
#[derive(Debug, Default)]
pub(crate) struct LoopStats {
    /// Completed loop iterations.
    ticks: AtomicU64,
    /// Total nanoseconds spent *processing* (poll return to iteration
    /// end — the poll wait itself is idle time, not lag).
    tick_ns_total: AtomicU64,
    /// Slowest single tick.
    tick_ns_max: AtomicU64,
    /// Dispatch-queue depth high-water mark.
    queue_depth_hwm: AtomicU64,
}

impl LoopStats {
    fn note_tick(&self, tick_ns: u64, queue_depth: u64) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.tick_ns_total.fetch_add(tick_ns, Ordering::Relaxed);
        self.tick_ns_max.fetch_max(tick_ns, Ordering::Relaxed);
        self.queue_depth_hwm
            .fetch_max(queue_depth, Ordering::Relaxed);
    }
}

/// Automatic flight-recorder dumps: where they go, how many happened, and
/// the shed-burst detector. All state is relaxed atomics — a racy double
/// count widens a window by one event, nothing more.
pub(crate) struct FlightDumps {
    /// Dump directory; `None` disables dump files entirely.
    dir: Option<PathBuf>,
    /// Dumps written (also the filename ordinal).
    dumps: AtomicU64,
    /// `unix_millis` of the last dump, for the cooldown.
    last_dump_ms: AtomicU64,
    /// Start of the current shed-burst window (trace-epoch nanoseconds).
    shed_window_start_ns: AtomicU64,
    /// Shed responses inside the current window.
    shed_in_window: AtomicU64,
}

impl FlightDumps {
    fn new(dir: Option<PathBuf>) -> FlightDumps {
        FlightDumps {
            dir,
            dumps: AtomicU64::new(0),
            last_dump_ms: AtomicU64::new(0),
            shed_window_start_ns: AtomicU64::new(0),
            shed_in_window: AtomicU64::new(0),
        }
    }

    /// Count one shed response; `true` exactly when the count crosses
    /// [`SHED_BURST_THRESHOLD`] within the current window.
    pub(crate) fn note_shed(&self) -> bool {
        let now = cqc_obs::clock::now_nanos();
        let start = self.shed_window_start_ns.load(Ordering::Relaxed);
        if now.saturating_sub(start) > SHED_BURST_WINDOW_NANOS {
            self.shed_window_start_ns.store(now, Ordering::Relaxed);
            self.shed_in_window.store(1, Ordering::Relaxed);
            return SHED_BURST_THRESHOLD <= 1;
        }
        self.shed_in_window.fetch_add(1, Ordering::Relaxed) + 1 == SHED_BURST_THRESHOLD
    }

    /// Snapshot the flight recorder into a timestamped dump file. `force`
    /// (the panic path) bypasses the cooldown — a panic dump must never be
    /// suppressed. Returns the path written, `None` if dumps are disabled,
    /// on cooldown, or unwritable.
    pub(crate) fn dump(&self, reason: &str, force: bool) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let now_ms = cqc_obs::clock::unix_millis();
        if !force {
            let last = self.last_dump_ms.load(Ordering::Relaxed);
            if last != 0 && now_ms.saturating_sub(last) < DUMP_COOLDOWN_MILLIS {
                return None;
            }
        }
        self.last_dump_ms.store(now_ms.max(1), Ordering::Relaxed);
        let ordinal = self.dumps.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{now_ms:013}-{ordinal:04}-{reason}.ndjson"));
        let snapshot = cqc_obs::flight::snapshot();
        std::fs::write(&path, snapshot.to_ndjson()).ok()?;
        Some(path)
    }

    /// Dumps written so far.
    pub(crate) fn count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }
}

/// State shared by the event thread, the dispatched jobs, and the
/// shutdown handle.
pub(crate) struct Shared {
    pub(crate) serve: Server,
    pub(crate) registry: Registry,
    pub(crate) metrics: Metrics,
    /// The wide-event request log (in-memory tail + optional file sink).
    pub(crate) wide: WideLog,
    /// Slow-request dump threshold in nanoseconds, from
    /// [`NetConfig::slow_ms`].
    pub(crate) slow_ns: Option<u64>,
    /// Anomaly-triggered flight-recorder dumps.
    pub(crate) flight_dumps: FlightDumps,
    /// Event-loop tick statistics for `GET /debug/loop`.
    pub(crate) loop_stats: LoopStats,
    stopping: AtomicBool,
    served: AtomicU64,
    max_requests: Option<u64>,
    /// Write end of the event thread's wake socket: one byte unblocks the
    /// poll immediately (`WouldBlock` means a wake is already pending).
    wake: TcpStream,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    /// Set the stop flag and wake the event thread.
    fn signal(&self) {
        self.stopping.store(true, Ordering::Relaxed);
        self.wake();
    }

    /// Nudge the event thread's poll awake.
    pub(crate) fn wake(&self) {
        let mut wake: &TcpStream = &self.wake;
        let _ = wake.write(&[1]);
    }

    /// Count one served count-request; trigger shutdown at the limit.
    pub(crate) fn count_served(&self) {
        let served = self.served.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.max_requests {
            if served >= max {
                self.signal();
            }
        }
    }

    /// Slow-request trigger: a handler that ran past `--slow-ms` dumps the
    /// flight recorder (cooldown-limited).
    pub(crate) fn note_handle_ns(&self, handle_ns: u64) {
        if let Some(slow) = self.slow_ns {
            if handle_ns > slow {
                self.flight_dumps.dump("slow", false);
            }
        }
    }

    /// The `GET /debug/loop` body: event-loop tick/lag statistics plus the
    /// health counters of the observability layer itself.
    fn debug_loop_json(&self, queue_depth: u64) -> String {
        let ticks = self.loop_stats.ticks.load(Ordering::Relaxed);
        let total = self.loop_stats.tick_ns_total.load(Ordering::Relaxed);
        let mean = total.checked_div(ticks).unwrap_or(0);
        format!(
            "{{\"ticks\":{},\"tick_ns_max\":{},\"tick_ns_mean\":{},\"wakeups\":{},\"dispatch_queue_depth\":{},\"dispatch_queue_depth_hwm\":{},\"flight_dumps\":{},\"flight_dropped\":{},\"wide_recorded\":{},\"wide_dropped\":{}}}",
            ticks,
            self.loop_stats.tick_ns_max.load(Ordering::Relaxed),
            mean,
            self.metrics.event_loop_wakeups.get(),
            queue_depth,
            self.loop_stats.queue_depth_hwm.load(Ordering::Relaxed),
            self.flight_dumps.count(),
            cqc_obs::flight::dropped_total(),
            self.wide.recorded(),
            self.wide.dropped(),
        )
    }
}

/// A handle that triggers graceful shutdown from another thread (the CLI
/// wires it to a line arriving on stdin — its "signal pipe" — and tests
/// call it directly).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begin graceful shutdown: stop accepting, let in-flight requests
    /// finish, close idle keep-alive connections.
    pub fn signal(&self) {
        self.shared.signal();
    }
}

/// A bound, running network server.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the event thread.
    pub fn bind(addr: &str, config: NetConfig) -> std::io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (wake_tx, wake_rx) = wake_pair()?;
        // Register every metric series before the first connection is
        // accepted: a scrape against an idle server must see the full,
        // zero-valued document, not whatever happened to be touched.
        let serve = Server::new(config.serve);
        let registry = Registry::new();
        let metrics = Metrics::new(&registry, &serve);
        let wide = WideLog::new(WIDE_TAIL_CAP);
        if let Some(path) = &config.request_log {
            wide.attach_file(std::fs::File::create(path)?);
        }
        if let Some(dir) = &config.flight_dir {
            std::fs::create_dir_all(dir)?;
        }
        let shared = Arc::new(Shared {
            serve,
            registry,
            metrics,
            wide,
            slow_ns: config.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            flight_dumps: FlightDumps::new(config.flight_dir.clone()),
            loop_stats: LoopStats::default(),
            stopping: AtomicBool::new(false),
            served: AtomicU64::new(0),
            max_requests: config.max_requests,
            wake: wake_tx,
        });
        let queue_limit = if config.dispatch_queue_limit == 0 {
            DEFAULT_DISPATCH_QUEUE_LIMIT
        } else {
            config.dispatch_queue_limit
        };
        let dispatcher = Dispatcher::new(Arc::clone(&shared), queue_limit);
        let event_loop = EventLoop {
            shared: Arc::clone(&shared),
            dispatcher,
            listener: Some(listener),
            wake_rx,
            slots: Vec::new(),
            free: Vec::new(),
            max_connections: if config.max_connections == 0 {
                DEFAULT_MAX_CONNECTIONS
            } else {
                config.max_connections
            },
            idle_timeout: if config.idle_timeout.is_zero() {
                DEFAULT_IDLE_TIMEOUT
            } else {
                config.idle_timeout
            },
            active: 0,
            rejecting: 0,
            accept_backoff: false,
            drain: None,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the event loop owns the listener and blocks in poll(2); request work runs on the pool"
        )]
        let event = std::thread::Builder::new()
            .name("cqc-net-event".into())
            .spawn(move || event_loop.run())?;
        Ok(RunningServer {
            addr: local,
            shared,
            event: Some(event),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown handle.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Count requests served so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Number of prepared plans currently cached by the serving core.
    pub fn cached_plans(&self) -> usize {
        self.shared.serve.cached_plans()
    }

    /// A snapshot of the admission-control counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections_rejected: self.shared.metrics.connections_rejected.get(),
            requests_shed: self.shared.metrics.requests_shed.get(),
            connection_panics: self.shared.metrics.connection_panics.get(),
            accept_errors: self.shared.metrics.accept_errors.get(),
        }
    }

    /// Signal shutdown and wait for the event thread to finish (it exits
    /// only once every dispatched job has finished). Returns the total
    /// count requests served.
    pub fn shutdown(mut self) -> u64 {
        self.shared.signal();
        if let Some(handle) = self.event.take() {
            #[expect(
                clippy::expect_used,
                reason = "shutdown path, not request handling; re-raising an event-thread panic is the only sound option"
            )]
            handle.join().expect("event thread panicked");
        }
        self.served()
    }

    /// Wait until the server shuts down on its own (`max_requests`
    /// reached, or another holder of the handle signalled). Returns the
    /// total count requests served.
    pub fn wait(mut self) -> u64 {
        if let Some(handle) = self.event.take() {
            #[expect(
                clippy::expect_used,
                reason = "shutdown path, not request handling; re-raising an event-thread panic is the only sound option"
            )]
            handle.join().expect("event thread panicked");
        }
        self.served()
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if let Some(handle) = self.event.take() {
            self.shared.signal();
            let _ = handle.join();
        }
    }
}

/// A loopback socket pair serving as the event thread's wake channel: the
/// read end sits in the poll set, anyone holding the write end (shutdown
/// handles, dispatched jobs) makes the poll return by writing a byte.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true).ok();
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// How the event loop should respond to an `accept(2)` error.
#[derive(Debug, PartialEq, Eq)]
enum AcceptDisposition {
    /// Transient (aborted handshake, descriptor/buffer exhaustion): count
    /// it, skip accepting for one tick, carry on.
    Retry,
    /// The listener is broken; stop the server cleanly.
    Fatal,
}

/// Classify an accept error. Resource exhaustion (`EMFILE`, `ENFILE`,
/// `ENOBUFS`, `ENOMEM`) is transient — closing connections release
/// descriptors — as are peer-caused handshake failures; anything else
/// (e.g. `EBADF`, `EINVAL`) means the listener itself is gone.
fn classify_accept_error(error: &std::io::Error) -> AcceptDisposition {
    use std::io::ErrorKind;
    match error.kind() {
        ErrorKind::WouldBlock
        | ErrorKind::Interrupted
        | ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::TimedOut => AcceptDisposition::Retry,
        _ => match error.raw_os_error() {
            // ENOMEM(12), ENFILE(23), EMFILE(24), ENOBUFS(105)
            Some(12) | Some(23) | Some(24) | Some(105) => AcceptDisposition::Retry,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// One connection slot: the generation counter outlives the connection so
/// completions addressed to a closed connection (same index, older
/// generation) are discarded instead of delivered to a new peer.
struct Slot {
    conn: Option<Conn>,
    gen: u64,
}

/// The readiness loop: owns the listener, the wake socket, and every
/// connection.
struct EventLoop {
    shared: Arc<Shared>,
    dispatcher: Dispatcher,
    listener: Option<TcpListener>,
    wake_rx: TcpStream,
    slots: Vec<Slot>,
    free: Vec<usize>,
    max_connections: usize,
    idle_timeout: Duration,
    /// Live admitted connections (mirrored by the gauge).
    active: usize,
    /// Live over-cap connections awaiting their shed response.
    rejecting: usize,
    /// A retryable accept error happened: skip accepting for one tick.
    accept_backoff: bool,
    /// Started on the first stopping tick; bounds the final flush.
    drain: Option<Stopwatch>,
}

impl EventLoop {
    fn run(mut self) {
        loop {
            let stopping = self.shared.stopping();
            if stopping {
                // Close the port immediately: graceful shutdown stops
                // accepting before it drains.
                self.listener = None;
                if self.drain.is_none() {
                    self.drain = Some(Stopwatch::start());
                }
                if self.active == 0 && self.rejecting == 0 && self.dispatcher.depth() == 0 {
                    break;
                }
            }

            // Build the poll set: wake socket, listener, every connection.
            let mut fds = vec![PollFd::new(raw_fd(&self.wake_rx), POLLIN)];
            let listener_fd = self.listener.as_ref().and_then(|listener| {
                if self.accept_backoff {
                    None
                } else {
                    fds.push(PollFd::new(raw_fd(listener), POLLIN));
                    Some(fds.len() - 1)
                }
            });
            let mut watched: Vec<(usize, usize)> = Vec::new();
            for (idx, slot) in self.slots.iter().enumerate() {
                if let Some(conn) = &slot.conn {
                    let mut events = 0i16;
                    if conn.wants_read() {
                        events |= POLLIN;
                    }
                    if conn.wants_write() {
                        events |= POLLOUT;
                    }
                    watched.push((idx, fds.len()));
                    fds.push(PollFd::new(conn.fd(), events));
                }
            }
            if poll_fds(&mut fds, POLL_INTERVAL.as_millis() as i32).is_err() {
                // A failing poll (EINVAL from an absurd fd set, say) must
                // not busy-spin the core; tick at the poll interval.
                std::thread::sleep(POLL_INTERVAL);
            }

            // Tick timing starts when poll returns: the poll wait is idle
            // time, everything after it is the loop's processing lag.
            let tick = Stopwatch::start();

            if fds[0].ready(POLLIN) {
                self.shared.metrics.event_loop_wakeups.inc();
                drain_wake(&self.wake_rx);
            }

            // Accept phase. After a retryable error the listener sat out
            // of the poll set for one tick; try again now.
            let after_backoff = std::mem::take(&mut self.accept_backoff);
            let accept_now = !stopping
                && self.listener.is_some()
                && (after_backoff || listener_fd.is_some_and(|idx| fds[idx].ready(POLLIN)));
            if accept_now {
                self.accept_ready();
            }

            // Completions: append rendered response bytes to their
            // (still-live, same-generation) connections.
            for completion in self.dispatcher.drain_completions() {
                let Some(slot) = self.slots.get_mut(completion.token.slot) else {
                    continue;
                };
                if slot.gen != completion.token.gen {
                    continue; // the connection closed while the job ran
                }
                let Some(conn) = slot.conn.as_mut() else {
                    continue;
                };
                conn.in_flight = false;
                conn.queue(&completion.bytes);
                if completion.close {
                    conn.close_after_flush = true;
                }
            }

            // Per-connection I/O and framing.
            let mut readable = vec![false; self.slots.len()];
            for &(slot_idx, fd_idx) in &watched {
                readable[slot_idx] = fds[fd_idx].ready(POLLIN);
            }
            for idx in 0..self.slots.len() {
                self.service(idx, readable.get(idx).copied().unwrap_or(false), stopping);
            }

            // Idle sweep (in-flight connections are waiting on us, not on
            // the peer — they are exempt).
            for idx in 0..self.slots.len() {
                let expired = match &self.slots[idx].conn {
                    Some(conn) => {
                        !conn.in_flight && conn.last_activity.elapsed() > self.idle_timeout
                    }
                    None => false,
                };
                if expired {
                    self.close_slot(idx);
                }
            }

            // Shutdown drain: everything not waiting on a dispatched job
            // closes once flushed (or once the drain deadline passes).
            if stopping {
                let drain_expired = self
                    .drain
                    .as_ref()
                    .is_some_and(|drain| drain.elapsed() > SHUTDOWN_DRAIN);
                for idx in 0..self.slots.len() {
                    let close = match &mut self.slots[idx].conn {
                        Some(conn) if !conn.in_flight => {
                            let _ = conn.flush_out();
                            conn.flushed() || drain_expired
                        }
                        _ => false,
                    };
                    if close {
                        self.close_slot(idx);
                    }
                }
            }

            // Close out the tick: histogram for `/metrics`, running stats
            // for `/debug/loop`.
            let tick_ns = tick.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.shared.metrics.event_loop_tick.record_nanos(tick_ns);
            self.shared
                .loop_stats
                .note_tick(tick_ns, self.dispatcher.depth());
        }
    }

    /// Accept until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) => match classify_accept_error(&e) {
                    AcceptDisposition::Retry => {
                        self.shared.metrics.accept_errors.inc();
                        cqc_obs::trace::instant("net_accept_error", &e.kind().to_string());
                        self.accept_backoff = true;
                        return;
                    }
                    AcceptDisposition::Fatal => {
                        cqc_obs::trace::instant("net_accept_fatal", &e.to_string());
                        self.shared.signal();
                        return;
                    }
                },
            }
        }
    }

    /// Admit (or begin rejecting) one accepted connection.
    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let over_cap = self.active >= self.max_connections;
        if over_cap {
            self.shared.metrics.connections_rejected.inc();
            cqc_obs::trace::instant("net_shed", "connection");
            if self.rejecting >= MAX_REJECT_SLOTS {
                // Reject slots are themselves bounded: beyond them the
                // close is bare (the counter still records it).
                return;
            }
            self.rejecting += 1;
        } else {
            self.shared.metrics.connections.inc();
            self.shared.metrics.active_connections.inc();
            self.active += 1;
        }
        let conn = Conn::new(stream, over_cap);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { conn: None, gen: 0 });
                self.slots.len() - 1
            }
        };
        self.slots[idx].conn = Some(conn);
    }

    /// Run one connection through fill → frame/route → flush, closing it
    /// on I/O failure or once a close-after-flush completes.
    fn service(&mut self, idx: usize, can_read: bool, stopping: bool) {
        let close_now = {
            let gen = self.slots[idx].gen;
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                return;
            };
            let token = Token { slot: idx, gen };
            let mut close = false;
            if can_read && conn.wants_read() && conn.fill().is_err() {
                close = true;
            }
            if !close {
                advance_conn(conn, token, &self.dispatcher, &self.shared, stopping);
                if conn.flush_out().is_err() {
                    close = true;
                } else if conn.flushed() {
                    close = conn.close_after_flush
                        || (conn.peer_closed && !conn.in_flight && conn.buf_is_empty());
                }
            }
            close
        };
        if close_now {
            self.close_slot(idx);
        }
    }

    /// Drop a connection and recycle its slot under a new generation.
    fn close_slot(&mut self, idx: usize) {
        if let Some(conn) = self.slots[idx].conn.take() {
            if conn.reject {
                self.rejecting -= 1;
            } else {
                self.active -= 1;
                self.shared.metrics.active_connections.dec();
            }
            self.slots[idx].gen += 1;
            self.free.push(idx);
        }
    }
}

/// Drain pending wake bytes so the socket is quiet until the next wake.
fn drain_wake(wake_rx: &TcpStream) {
    let mut sink = [0u8; 256];
    let mut wake_rx: &TcpStream = wake_rx;
    loop {
        match wake_rx.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Frame and route as many buffered requests as possible on one
/// connection: dispatch engine work, answer inline endpoints, shed on a
/// full queue, and stop at one in-flight request per connection.
fn advance_conn(
    conn: &mut Conn,
    token: Token,
    dispatcher: &Dispatcher,
    shared: &Shared,
    stopping: bool,
) {
    loop {
        if conn.in_flight || conn.close_after_flush {
            return;
        }
        if stopping {
            // No new requests during shutdown: flush whatever is queued
            // (including a completion that just landed) and close.
            conn.close_after_flush = true;
            return;
        }
        conn.sniff();
        match conn.proto {
            Proto::Unknown => return, // no bytes yet
            Proto::Ndjson if conn.reject => {
                let line = cqc_serve::overload_line(cqc_serve::OVERLOAD_CONNECTION_LIMIT);
                conn.queue(line.as_bytes());
                conn.queue(b"\n");
                conn.close_after_flush = true;
                return;
            }
            Proto::Http if conn.reject => {
                let line = cqc_serve::overload_line(cqc_serve::OVERLOAD_CONNECTION_LIMIT);
                let mut out = Vec::new();
                let _ = write_response(&mut out, 503, "application/json", line.as_bytes(), true);
                conn.queue(&out);
                conn.close_after_flush = true;
                return;
            }
            Proto::Ndjson => match conn.next_ndjson_line() {
                NdjsonNext::NeedMore => {
                    if conn.peer_closed {
                        conn.close_after_flush = true;
                    }
                    return;
                }
                NdjsonNext::Line(line) => {
                    shared.metrics.ndjson_lines.inc();
                    conn.requests += 1;
                    let job = Job {
                        token,
                        conn_req: conn.requests,
                        queued: Stopwatch::start(),
                        kind: JobKind::Line { line },
                    };
                    if dispatcher.try_enqueue(job) {
                        conn.in_flight = true;
                        return;
                    }
                    shed_ndjson(conn, token, shared);
                    // connection stays usable; try the next line
                }
                NdjsonNext::TooLong => {
                    // over-long line: no way to resync on this stream —
                    // answer with a protocol error and close
                    let body = error_body(&format!("request line exceeds {MAX_BODY_BYTES} bytes"));
                    conn.queue(body.as_bytes());
                    conn.queue(b"\n");
                    conn.close_after_flush = true;
                    return;
                }
                NdjsonNext::BadUtf8 => {
                    let body = error_body("request line is not UTF-8");
                    conn.queue(body.as_bytes());
                    conn.queue(b"\n");
                    conn.close_after_flush = true;
                    return;
                }
            },
            Proto::Http => match conn.next_http_request() {
                HttpNext::NeedMore => {
                    if conn.peer_closed || conn.buf_at_cap() {
                        // EOF (or an unfinishable request) mid-request:
                        // nothing to answer, close once flushed.
                        conn.close_after_flush = true;
                    }
                    return;
                }
                HttpNext::Malformed(m) => {
                    shared.metrics.http_requests.inc();
                    let body = error_body(&m);
                    shared.metrics.observe_status(400);
                    queue_http(conn, 400, "application/json", body.as_bytes(), true);
                    return;
                }
                HttpNext::Request(request) => {
                    shared.metrics.http_requests.inc();
                    let keep_alive = request.keep_alive() && !shared.stopping();
                    let close = !keep_alive;
                    route_http(conn, token, request, close, dispatcher, shared);
                    // inline endpoints keep the pipeline moving; dispatch
                    // and close-bound responses stop this connection here
                }
            },
        }
    }
}

/// Route one parsed HTTP request: dispatch engine endpoints, answer the
/// rest inline on the event thread.
fn route_http(
    conn: &mut Conn,
    token: Token,
    request: crate::http::Request,
    close: bool,
    dispatcher: &Dispatcher,
    shared: &Shared,
) {
    let path = request.target.split('?').next().unwrap_or("").to_string();
    match (request.method.as_str(), path.as_str()) {
        ("POST", "/count") => {
            let traceparent = request.header("traceparent").map(str::to_string);
            match String::from_utf8(request.body) {
                Err(_) => {
                    let body = error_body("request body is not UTF-8");
                    shared.metrics.observe_status(400);
                    let extra: Vec<(&str, &str)> = traceparent
                        .as_deref()
                        .map(|t| vec![("Traceparent", t)])
                        .unwrap_or_default();
                    let mut out = Vec::new();
                    let _ = write_response_with(
                        &mut out,
                        400,
                        "application/json",
                        &extra,
                        body.as_bytes(),
                        close,
                    );
                    conn.queue(&out);
                    if close {
                        conn.close_after_flush = true;
                    }
                }
                Ok(text) => {
                    conn.requests += 1;
                    let job = Job {
                        token,
                        conn_req: conn.requests,
                        queued: Stopwatch::start(),
                        kind: JobKind::Count {
                            text,
                            traceparent,
                            close,
                        },
                    };
                    if dispatcher.try_enqueue(job) {
                        conn.in_flight = true;
                    } else {
                        shed_http(conn, token, close, shared);
                    }
                }
            }
        }
        ("POST", "/stream") => match String::from_utf8(request.body) {
            Err(_) => {
                let body = error_body("request body is not UTF-8");
                shared.metrics.observe_status(400);
                queue_http(conn, 400, "application/json", body.as_bytes(), close);
            }
            Ok(text) => {
                conn.requests += 1;
                let job = Job {
                    token,
                    conn_req: conn.requests,
                    queued: Stopwatch::start(),
                    kind: JobKind::Stream {
                        text,
                        http10: request.version == "HTTP/1.0",
                        close,
                    },
                };
                if dispatcher.try_enqueue(job) {
                    conn.in_flight = true;
                } else {
                    shed_http(conn, token, close, shared);
                }
            }
        },
        ("GET", "/healthz") => {
            shared.metrics.observe_status(200);
            queue_http(conn, 200, "application/json", b"{\"status\":\"ok\"}", close);
        }
        ("GET", "/metrics") => {
            // Gauges are sampled at scrape time, just before render
            // (`cqc_active_connections` is maintained live by the event
            // loop's admit/close bookkeeping).
            shared
                .metrics
                .pool_width
                .set(cqc_runtime::pool::global().width() as u64);
            shared
                .metrics
                .pool_queue_depth
                .set(cqc_runtime::pool::active_dispatches());
            shared.metrics.dispatch_queue_depth.set(dispatcher.depth());
            let text = shared.registry.render();
            shared.metrics.observe_status(200);
            queue_http(
                conn,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
                close,
            );
        }
        // The `/debug/*` endpoints are read-only introspection served
        // inline on the event thread, like `/healthz`: bounded bodies,
        // no engine work, no effect on request handling. They never emit
        // wide events themselves — a scraper polling `/debug/requests`
        // must not fill the very log it is reading.
        ("GET", "/debug/requests") => {
            let body = shared.wide.tail_ndjson();
            shared.metrics.observe_status(200);
            queue_http(conn, 200, "application/x-ndjson", body.as_bytes(), close);
        }
        ("GET", "/debug/flight") => {
            let body = cqc_obs::flight::snapshot().to_ndjson();
            shared.metrics.observe_status(200);
            queue_http(conn, 200, "application/x-ndjson", body.as_bytes(), close);
        }
        ("GET", "/debug/loop") => {
            let body = shared.debug_loop_json(dispatcher.depth());
            shared.metrics.observe_status(200);
            queue_http(conn, 200, "application/json", body.as_bytes(), close);
        }
        (
            _,
            "/count" | "/stream" | "/healthz" | "/metrics" | "/debug/requests" | "/debug/flight"
            | "/debug/loop",
        ) => {
            let body = error_body(&format!("method {} not allowed for {path}", request.method));
            shared.metrics.observe_status(405);
            queue_http(conn, 405, "application/json", body.as_bytes(), close);
        }
        _ => {
            let body = error_body(&format!("no such endpoint `{path}`"));
            shared.metrics.observe_status(404);
            queue_http(conn, 404, "application/json", body.as_bytes(), close);
        }
    }
}

/// Queue a fixed-length HTTP response built on the event thread.
fn queue_http(conn: &mut Conn, status: u16, content_type: &str, body: &[u8], close: bool) {
    let mut out = Vec::new();
    let _ = write_response(&mut out, status, content_type, body, close);
    conn.queue(&out);
    if close {
        conn.close_after_flush = true;
    }
}

/// Shed one HTTP request (dispatch queue full): 503 with the canonical
/// overload bytes, connection kept alive unless the request asked to
/// close.
fn shed_http(conn: &mut Conn, token: Token, close: bool, shared: &Shared) {
    shared.metrics.requests_shed.inc();
    cqc_obs::trace::instant("net_shed", "queue");
    let line = cqc_serve::overload_line(cqc_serve::OVERLOAD_QUEUE_FULL);
    shed_wide(shared, token, "http", "count", line.len(), conn.requests);
    queue_http(conn, 503, "application/json", line.as_bytes(), close);
}

/// Shed one NDJSON line (dispatch queue full): the canonical overload
/// line, connection kept alive.
fn shed_ndjson(conn: &mut Conn, token: Token, shared: &Shared) {
    shared.metrics.requests_shed.inc();
    cqc_obs::trace::instant("net_shed", "queue");
    let line = cqc_serve::overload_line(cqc_serve::OVERLOAD_QUEUE_FULL);
    shed_wide(shared, token, "ndjson", "line", line.len(), conn.requests);
    conn.queue(line.as_bytes());
    conn.queue(b"\n");
}

/// Record the wide event for a shed request (queue and handler times are
/// zero — the request never reached a worker) and feed the shed-burst
/// detector, dumping the flight recorder when a burst crosses the
/// threshold.
fn shed_wide(
    shared: &Shared,
    token: Token,
    protocol: &'static str,
    endpoint: &'static str,
    bytes: usize,
    conn_req: u64,
) {
    if cqc_obs::wide::enabled() {
        shared.wide.record(WideEvent {
            seq: 0,
            t_ns: cqc_obs::clock::now_nanos(),
            protocol,
            endpoint,
            class: String::new(),
            outcome: Outcome::Shed,
            status: 503,
            queue_ns: 0,
            handle_ns: 0,
            prepare_ns: 0,
            evaluate_ns: 0,
            bytes: bytes as u64,
            slot: token.slot,
            gen: token.gen,
            conn_req,
            trace: String::new(),
        });
    }
    if shared.flight_dumps.note_shed() {
        shared.flight_dumps.dump("shed-burst", false);
    }
}

/// A serve-protocol-shaped error body for transport-level failures.
pub(crate) fn error_body(message: &str) -> String {
    cqc_serve::json::Value::Obj(vec![
        ("id".to_string(), cqc_serve::json::Value::Null),
        (
            "error".to_string(),
            cqc_serve::json::Value::Str(message.to_string()),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_serve_shaped_json() {
        let body = error_body("boom \"quoted\"");
        assert_eq!(body, r#"{"id":null,"error":"boom \"quoted\""}"#);
        assert!(cqc_serve::json::parse(&body).is_ok());
    }

    #[test]
    fn flight_dumps_detect_bursts_and_honour_the_cooldown() {
        // the shed-burst detector fires exactly once, at the threshold
        // crossing, however long the burst runs on
        let dumps = FlightDumps::new(None);
        let fired = (0..SHED_BURST_THRESHOLD * 2)
            .filter(|_| dumps.note_shed())
            .count();
        assert_eq!(fired, 1);
        // no directory → dumps disabled, even forced
        assert!(dumps.dump("test", true).is_none());

        let dir = std::env::temp_dir().join(format!("cqc-flight-dumps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dumps = FlightDumps::new(Some(dir.clone()));
        let first = dumps.dump("slow", false).expect("first dump writes");
        assert!(
            first
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .contains("-slow"),
            "{first:?}"
        );
        // the cooldown suppresses an immediate unforced follow-up…
        assert!(dumps.dump("slow", false).is_none());
        // …but the panic path bypasses it — a panic dump is never lost
        let forced = dumps.dump("panic", true).expect("forced dump writes");
        assert!(forced.to_str().unwrap().contains("-panic"), "{forced:?}");
        assert_eq!(dumps.count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loop_stats_track_totals_max_and_high_water() {
        let stats = LoopStats::default();
        stats.note_tick(100, 2);
        stats.note_tick(300, 1);
        assert_eq!(stats.ticks.load(Ordering::Relaxed), 2);
        assert_eq!(stats.tick_ns_total.load(Ordering::Relaxed), 400);
        assert_eq!(stats.tick_ns_max.load(Ordering::Relaxed), 300);
        assert_eq!(stats.queue_depth_hwm.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn accept_errors_are_classified() {
        use std::io::{Error, ErrorKind};
        // Peer-caused and resource-exhaustion errors retry…
        for retryable in [
            Error::from(ErrorKind::ConnectionAborted),
            Error::from(ErrorKind::ConnectionReset),
            Error::from(ErrorKind::Interrupted),
            Error::from_raw_os_error(24),  // EMFILE
            Error::from_raw_os_error(23),  // ENFILE
            Error::from_raw_os_error(105), // ENOBUFS
        ] {
            assert_eq!(
                classify_accept_error(&retryable),
                AcceptDisposition::Retry,
                "{retryable}"
            );
        }
        // …a broken listener does not.
        for fatal in [
            Error::from_raw_os_error(9),  // EBADF
            Error::from_raw_os_error(22), // EINVAL
        ] {
            assert_eq!(
                classify_accept_error(&fatal),
                AcceptDisposition::Fatal,
                "{fatal}"
            );
        }
    }
}
