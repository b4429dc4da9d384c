//! The deterministic closed-loop load generator behind `cqc loadgen`.
//!
//! The request mix is synthesized by `cqc_workloads::mix` as a pure
//! function of `(seed, request count)`; request `i` is rendered to a
//! serve-protocol JSON line with `id = i` and its own derived counting
//! seed. Connections partition the mix round-robin (`i mod connections`)
//! and each runs a closed loop — send one request, wait for its response,
//! send the next — over HTTP/1.1 keep-alive (`POST /count`) or the raw
//! NDJSON TCP protocol.
//!
//! **The transcript is the determinism witness.** Responses are reassembled
//! in request-index order into one newline-delimited string. Because every
//! response body is a pure function of its request (the serving layer's
//! contract), the transcript is byte-identical across connection counts,
//! protocols, server worker-pool widths, and shard counts — which is
//! exactly what `tests/wire_determinism.rs` and the CI smoke leg assert.
//! Latency and throughput, the *measured* quantities, are reported
//! separately and feed `BENCH_serve.json`.

use cqc_obs::Stopwatch;
use cqc_serve::json::Value;
use cqc_workloads::enumo::{class_name, suite_request_mix};
use cqc_workloads::mix::{request_mix, RequestSpec};
use cqc_workloads::QueryClass;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Wire protocol the generator drives the server over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// `POST /count` over HTTP/1.1 with keep-alive.
    Http,
    /// Raw newline-delimited JSON over TCP (the sniffed protocol).
    Ndjson,
}

impl Protocol {
    /// The name used by `--protocol` and the bench report.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Http => "http",
            Protocol::Ndjson => "ndjson",
        }
    }

    /// Parse a `--protocol` value.
    pub fn parse(raw: &str) -> Option<Protocol> {
        match raw {
            "http" => Some(Protocol::Http),
            "ndjson" | "tcp" => Some(Protocol::Ndjson),
            _ => None,
        }
    }
}

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Total requests in the mix.
    pub requests: usize,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Mix seed (drives queries, databases, and per-request seeds).
    pub seed: u64,
    /// Optional `shards` member added to every request.
    pub shards: Option<usize>,
    /// Optional `method` member added to every request
    /// (`auto | fpras | fptras | exact`).
    pub method: Option<String>,
    /// Optional `(ε, δ)` accuracy overriding the mix's per-request
    /// defaults (the CLI wires `--epsilon`/`--delta` here when given).
    pub accuracy: Option<(f64, f64)>,
    /// Wire protocol.
    pub protocol: Protocol,
    /// Request source: `None` replays the curated mix of
    /// `cqc_workloads::mix`; `Some(class)` replays the enumerated suite
    /// mix of that Figure-1 class (`cqc_workloads::enumo`).
    pub suite: Option<QueryClass>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            requests: 100,
            connections: 4,
            seed: 0xC0FFEE,
            shards: None,
            method: None,
            accuracy: None,
            protocol: Protocol::Http,
            suite: None,
        }
    }
}

/// The outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The options the run used (echoed into the bench report).
    pub options: LoadgenOptions,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Requests per second (requests / wall).
    pub throughput_rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Responses that carried an `error` member (0 on a healthy run).
    pub errors: u64,
    /// Response-body bytes received.
    pub bytes_received: u64,
    /// Response lines in request-index order, `\n`-terminated — the
    /// byte-comparison witness.
    pub transcript: String,
}

/// Render request `spec` as one serve-protocol JSON line. The rendering is
/// deterministic (insertion-ordered members, canonical numbers), so the
/// request bytes — like the response bytes — admit transcript comparison.
pub fn render_request_line(
    spec: &RequestSpec,
    shards: Option<usize>,
    method: Option<&str>,
    accuracy: Option<(f64, f64)>,
) -> String {
    let (epsilon, delta) = accuracy.unwrap_or((spec.epsilon, spec.delta));
    let mut members = vec![
        ("id".to_string(), Value::Num(spec.index as f64)),
        ("query".to_string(), Value::Str(spec.query.to_string())),
        (
            "dbs".to_string(),
            Value::Arr(spec.dbs.iter().map(|d| Value::Str(d.clone())).collect()),
        ),
        // decimal-string form: carries the full u64 without 2^53 concerns
        ("seed".to_string(), Value::Str(spec.seed.to_string())),
        ("epsilon".to_string(), Value::Num(epsilon)),
        ("delta".to_string(), Value::Num(delta)),
    ];
    if let Some(shards) = shards {
        members.push(("shards".to_string(), Value::Num(shards as f64)));
    }
    if let Some(method) = method {
        members.push(("method".to_string(), Value::Str(method.to_string())));
    }
    Value::Obj(members).render()
}

/// How [`run_with`] drives its client fleet. [`run_against`] uses the
/// defaults; the connection-scaling mode shrinks client stacks (thousands
/// of client threads on one box), retries the connect storm, and
/// rendezvous-gates the fleet so wall-clock measures steady-state serving,
/// not connection setup.
struct DriveConfig {
    /// Client-thread stack size (`None` = platform default).
    stack_size: Option<usize>,
    /// Hold every connection at a barrier until all are connected, and
    /// start the clock at the release.
    rendezvous: bool,
    /// Connect attempts per connection (25 ms apart) before giving up.
    connect_attempts: u32,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            stack_size: None,
            rendezvous: false,
            connect_attempts: 1,
        }
    }
}

/// Client-thread stack for the scaling mode: the client only renders and
/// buffers single requests, so a small stack lets thousands of connection
/// threads coexist.
const SCALING_CLIENT_STACK: usize = 256 * 1024;

/// Connect attempts in the scaling mode: a thousands-strong connect storm
/// overflows the listen backlog transiently, so clients retry.
const SCALING_CONNECT_ATTEMPTS: u32 = 40;

/// Drive `addr` with the seeded mix and assemble the report. Fails only on
/// transport errors; application-level `error` responses are counted and
/// kept in the transcript.
pub fn run_against(addr: SocketAddr, options: &LoadgenOptions) -> std::io::Result<LoadReport> {
    run_with(addr, options, &DriveConfig::default())
}

fn run_with(
    addr: SocketAddr,
    options: &LoadgenOptions,
    config: &DriveConfig,
) -> std::io::Result<LoadReport> {
    let connections = options.connections.max(1);
    let specs = match options.suite {
        None => request_mix(options.seed, options.requests),
        Some(class) => suite_request_mix(class, options.seed, options.requests),
    };
    let lines: Vec<String> = specs
        .iter()
        .map(|s| {
            render_request_line(
                s,
                options.shards,
                options.method.as_deref(),
                options.accuracy,
            )
        })
        .collect();

    // Responses land here as (request index, response line); latencies are
    // pooled across connections (nanoseconds).
    let results: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::with_capacity(lines.len()));
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(lines.len()));
    // The barrier counts every connection thread plus the coordinator: the
    // fleet holds until everyone is connected, the coordinator restarts the
    // clock at the release, so wall measures serving — not the connect storm.
    let barrier = config
        .rendezvous
        .then(|| std::sync::Barrier::new(connections + 1));
    let mut started = Stopwatch::start();
    #[expect(
        clippy::disallowed_methods,
        reason = "one blocking client socket per connection, outside the engine; no estimate runs here"
    )]
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut workers = Vec::new();
        for c in 0..connections {
            let lines = &lines;
            let results = &results;
            let latencies = &latencies;
            let options = &options;
            let barrier = barrier.as_ref();
            let body = move || -> std::io::Result<()> {
                let owned: Vec<usize> = (c..lines.len()).step_by(connections).collect();
                if owned.is_empty() {
                    // Still rendezvous: the barrier counts every thread.
                    if let Some(b) = barrier {
                        b.wait();
                    }
                    return Ok(());
                }
                let client = Client::connect(addr, options.protocol, config.connect_attempts);
                // A failed connect must still reach the barrier, or the
                // rest of the fleet deadlocks waiting for it.
                if let Some(b) = barrier {
                    b.wait();
                }
                let mut client = client?;
                let mut local_results = Vec::with_capacity(owned.len());
                let mut local_latencies = Vec::with_capacity(owned.len());
                for i in owned {
                    let start = Stopwatch::start();
                    let response = client.roundtrip(&lines[i])?;
                    local_latencies.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    local_results.push((i, response));
                }
                results.lock().expect("results lock").extend(local_results);
                latencies
                    .lock()
                    .expect("latencies lock")
                    .extend(local_latencies);
                Ok(())
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "a connection thread with a caller-set stack size, same role as scope.spawn"
            )]
            let handle = match config.stack_size {
                None => scope.spawn(body),
                Some(stack) => std::thread::Builder::new()
                    .name(format!("cqc-loadgen-{c}"))
                    .stack_size(stack)
                    .spawn_scoped(scope, body)?,
            };
            workers.push(handle);
        }
        if let Some(b) = &barrier {
            b.wait();
            started.restart();
        }
        for worker in workers {
            worker.join().expect("loadgen connection panicked")?;
        }
        Ok(())
    })?;
    let wall = started.elapsed();

    let mut results = results.into_inner().expect("results lock");
    results.sort_unstable_by_key(|(i, _)| *i);
    let mut transcript = String::new();
    let mut errors = 0u64;
    let mut bytes_received = 0u64;
    for (_, line) in &results {
        bytes_received += line.len() as u64 + 1;
        if line.contains("\"error\":") {
            errors += 1;
        }
        transcript.push_str(line);
        transcript.push('\n');
    }
    let mut latencies = latencies.into_inner().expect("latencies lock");
    latencies.sort_unstable();
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        // nearest-rank on the sorted sample
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1] as f64 / 1e6
    };
    Ok(LoadReport {
        options: options.clone(),
        wall,
        throughput_rps: results.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: percentile(0.50),
        p95_ms: percentile(0.95),
        p99_ms: percentile(0.99),
        errors,
        bytes_received,
        transcript,
    })
}

/// FNV-1a (64-bit) of the transcript — a cheap cross-run fingerprint for
/// the bench report.
pub fn transcript_fingerprint(transcript: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in transcript.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Render the `BENCH_serve.json` document for a run. Wall-clock numbers
/// vary run to run; `transcript_fnv1a` must not (same seed, same mix).
pub fn bench_json(report: &LoadReport) -> String {
    let o = &report.options;
    Value::Obj(vec![
        ("bench".to_string(), Value::Str("serve_loadgen".to_string())),
        (
            "protocol".to_string(),
            Value::Str(o.protocol.name().to_string()),
        ),
        ("requests".to_string(), Value::Num(o.requests as f64)),
        ("connections".to_string(), Value::Num(o.connections as f64)),
        ("seed".to_string(), Value::Str(o.seed.to_string())),
        (
            "suite".to_string(),
            o.suite
                .map_or(Value::Null, |c| Value::Str(class_name(c).to_string())),
        ),
        (
            "shards".to_string(),
            o.shards.map_or(Value::Null, |s| Value::Num(s as f64)),
        ),
        (
            "method".to_string(),
            o.method
                .as_deref()
                .map_or(Value::Null, |m| Value::Str(m.to_string())),
        ),
        (
            "epsilon".to_string(),
            o.accuracy.map_or(Value::Null, |(e, _)| Value::Num(e)),
        ),
        (
            "delta".to_string(),
            o.accuracy.map_or(Value::Null, |(_, d)| Value::Num(d)),
        ),
        (
            "wall_seconds".to_string(),
            Value::Num(report.wall.as_secs_f64()),
        ),
        (
            "throughput_rps".to_string(),
            Value::Num(report.throughput_rps),
        ),
        (
            "latency_ms".to_string(),
            Value::Obj(vec![
                ("p50".to_string(), Value::Num(report.p50_ms)),
                ("p95".to_string(), Value::Num(report.p95_ms)),
                ("p99".to_string(), Value::Num(report.p99_ms)),
            ]),
        ),
        (
            "responses_with_error".to_string(),
            Value::Num(report.errors as f64),
        ),
        (
            "bytes_received".to_string(),
            Value::Num(report.bytes_received as f64),
        ),
        (
            "transcript_fnv1a".to_string(),
            Value::Str(format!(
                "{:016x}",
                transcript_fingerprint(&report.transcript)
            )),
        ),
    ])
    .render()
}

/// Summary of the per-repeat observability overhead of an `--obs-bench`
/// run (see [`obs_overhead`]).
#[derive(Debug, Clone, Copy)]
pub struct ObsOverhead {
    /// Median of the per-pair relative overheads, percent.
    pub median_pct: f64,
    /// Minimum (best-case) per-pair relative overhead, percent.
    pub min_pct: f64,
}

/// Median of `values` (mean of the two middles for even counts); `0.0` for
/// an empty slice.
fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Per-pair relative overhead (%) of each observability-on run over its
/// observability-off partner, summarised by median and min. The median —
/// not a single pair's delta — is the committed figure: back-to-back wall
/// clocks on a busy host are noisy enough that one pair regularly reports
/// a *negative* overhead when the second run wins the scheduling lottery.
pub fn obs_overhead(pairs: &[(LoadReport, LoadReport)]) -> ObsOverhead {
    let pcts: Vec<f64> = pairs
        .iter()
        .map(|(off, on)| {
            let (wall_off, wall_on) = (off.wall.as_secs_f64(), on.wall.as_secs_f64());
            if wall_off > 0.0 {
                (wall_on - wall_off) / wall_off * 100.0
            } else {
                0.0
            }
        })
        .collect();
    let min_pct = if pcts.is_empty() {
        0.0
    } else {
        pcts.iter().copied().fold(f64::INFINITY, f64::min)
    };
    ObsOverhead {
        median_pct: median_of(&pcts),
        min_pct,
    }
}

/// Render the `BENCH_obs.json` document from interleaved
/// `(observability-off, observability-on)` run pairs of the same mix
/// (`cqc loadgen --obs-bench`). The document carries median wall-clock and
/// throughput figures for each side, the median and min per-pair overhead
/// (`overhead_pct` *is* the median, kept under its historical name so CI
/// greps and downstream dashboards keep working), and the invisibility
/// witness: whether every transcript in every pair is byte-identical (it
/// must be — observability can slow a run down, never change a response
/// byte).
pub fn obs_bench_json(pairs: &[(LoadReport, LoadReport)], trace_events: u64) -> String {
    let first = pairs
        .first()
        .expect("obs_bench_json needs at least one run pair");
    let o = &first.0.options;
    let walls_off: Vec<f64> = pairs
        .iter()
        .map(|(off, _)| off.wall.as_secs_f64())
        .collect();
    let walls_on: Vec<f64> = pairs.iter().map(|(_, on)| on.wall.as_secs_f64()).collect();
    let rps_off: Vec<f64> = pairs.iter().map(|(off, _)| off.throughput_rps).collect();
    let rps_on: Vec<f64> = pairs.iter().map(|(_, on)| on.throughput_rps).collect();
    let overhead = obs_overhead(pairs);
    let identical = pairs.iter().all(|(off, on)| {
        off.transcript == first.0.transcript && on.transcript == first.0.transcript
    });
    Value::Obj(vec![
        (
            "bench".to_string(),
            Value::Str("obs_trace_overhead".to_string()),
        ),
        (
            "protocol".to_string(),
            Value::Str(o.protocol.name().to_string()),
        ),
        ("requests".to_string(), Value::Num(o.requests as f64)),
        ("connections".to_string(), Value::Num(o.connections as f64)),
        ("seed".to_string(), Value::Str(o.seed.to_string())),
        ("repeats".to_string(), Value::Num(pairs.len() as f64)),
        (
            "wall_seconds_trace_off".to_string(),
            Value::Num(median_of(&walls_off)),
        ),
        (
            "wall_seconds_trace_on".to_string(),
            Value::Num(median_of(&walls_on)),
        ),
        (
            "throughput_rps_trace_off".to_string(),
            Value::Num(median_of(&rps_off)),
        ),
        (
            "throughput_rps_trace_on".to_string(),
            Value::Num(median_of(&rps_on)),
        ),
        ("overhead_pct".to_string(), Value::Num(overhead.median_pct)),
        (
            "overhead_pct_median".to_string(),
            Value::Num(overhead.median_pct),
        ),
        ("overhead_pct_min".to_string(), Value::Num(overhead.min_pct)),
        ("trace_events".to_string(), Value::Num(trace_events as f64)),
        ("transcripts_identical".to_string(), Value::Bool(identical)),
        (
            "transcript_fnv1a".to_string(),
            Value::Str(format!(
                "{:016x}",
                transcript_fingerprint(&first.0.transcript)
            )),
        ),
    ])
    .render()
}

/// One measured point on the connection-scaling curve.
#[derive(Debug)]
pub struct ScalingPoint {
    /// Concurrent keep-alive connections at this point.
    pub connections: usize,
    /// The full load report for this point (same mix as every other point).
    pub report: LoadReport,
}

/// The outcome of a connection-scaling sweep: the **same** seeded request
/// mix replayed at each connection count, so the transcripts are comparable
/// byte-for-byte and the curve isolates the cost of concurrency alone.
#[derive(Debug)]
pub struct ScalingReport {
    /// The base options every point shares (`connections` is overridden
    /// per point; `requests` is raised to at least the largest count so
    /// every connection owns at least one request).
    pub options: LoadgenOptions,
    /// One entry per requested connection count, in the requested order.
    pub points: Vec<ScalingPoint>,
    /// Whether every point produced byte-identical transcripts — the
    /// determinism witness for the event-driven server under scale.
    pub transcripts_identical: bool,
}

/// Sweep `addr` with the same seeded mix at each of `counts` concurrent
/// keep-alive connections (`cqc loadgen --scaling`). Each point runs with
/// small client stacks, a connect-retry loop, and a start barrier so the
/// wall clock measures steady-state serving rather than the connect storm.
pub fn run_scaling(
    addr: SocketAddr,
    base: &LoadgenOptions,
    counts: &[usize],
) -> std::io::Result<ScalingReport> {
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut options = base.clone();
    // Every connection must own at least one request, or transcripts of
    // different points would cover different request subsets.
    options.requests = options.requests.max(max_count);
    let config = DriveConfig {
        stack_size: Some(SCALING_CLIENT_STACK),
        rendezvous: true,
        connect_attempts: SCALING_CONNECT_ATTEMPTS,
    };
    let mut points = Vec::with_capacity(counts.len());
    for &count in counts {
        let mut point_options = options.clone();
        point_options.connections = count.max(1);
        let report = run_with(addr, &point_options, &config)?;
        points.push(ScalingPoint {
            connections: count.max(1),
            report,
        });
    }
    let transcripts_identical = points
        .windows(2)
        .all(|w| w[0].report.transcript == w[1].report.transcript);
    Ok(ScalingReport {
        options,
        points,
        transcripts_identical,
    })
}

/// Render the `BENCH_serve.json` document for a connection-scaling sweep
/// (`bench = "serve_scaling"`): one `points` entry per connection count
/// with throughput and latency percentiles, plus the cross-point
/// determinism witness.
pub fn scaling_bench_json(report: &ScalingReport) -> String {
    let o = &report.options;
    let points = report
        .points
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("connections".to_string(), Value::Num(p.connections as f64)),
                (
                    "wall_seconds".to_string(),
                    Value::Num(p.report.wall.as_secs_f64()),
                ),
                (
                    "throughput_rps".to_string(),
                    Value::Num(p.report.throughput_rps),
                ),
                (
                    "latency_ms".to_string(),
                    Value::Obj(vec![
                        ("p50".to_string(), Value::Num(p.report.p50_ms)),
                        ("p95".to_string(), Value::Num(p.report.p95_ms)),
                        ("p99".to_string(), Value::Num(p.report.p99_ms)),
                    ]),
                ),
                (
                    "responses_with_error".to_string(),
                    Value::Num(p.report.errors as f64),
                ),
                (
                    "transcript_fnv1a".to_string(),
                    Value::Str(format!(
                        "{:016x}",
                        transcript_fingerprint(&p.report.transcript)
                    )),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("bench".to_string(), Value::Str("serve_scaling".to_string())),
        (
            "protocol".to_string(),
            Value::Str(o.protocol.name().to_string()),
        ),
        ("requests".to_string(), Value::Num(o.requests as f64)),
        ("seed".to_string(), Value::Str(o.seed.to_string())),
        (
            "suite".to_string(),
            o.suite
                .map_or(Value::Null, |c| Value::Str(class_name(c).to_string())),
        ),
        (
            "shards".to_string(),
            o.shards.map_or(Value::Null, |s| Value::Num(s as f64)),
        ),
        (
            "method".to_string(),
            o.method
                .as_deref()
                .map_or(Value::Null, |m| Value::Str(m.to_string())),
        ),
        ("points".to_string(), Value::Arr(points)),
        (
            "transcripts_identical".to_string(),
            Value::Bool(report.transcripts_identical),
        ),
        (
            "transcript_fnv1a".to_string(),
            Value::Str(format!(
                "{:016x}",
                report
                    .points
                    .first()
                    .map_or(0, |p| transcript_fingerprint(&p.report.transcript))
            )),
        ),
    ])
    .render()
}

/// One closed-loop client connection.
enum Client {
    Http {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        host: String,
    },
    Ndjson {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

impl Client {
    /// Connect, retrying up to `attempts` times 25 ms apart — connect
    /// storms at high connection counts can transiently overflow the
    /// listen backlog.
    fn connect(addr: SocketAddr, protocol: Protocol, attempts: u32) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr);
        for _ in 1..attempts.max(1) {
            if stream.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
            stream = TcpStream::connect(addr);
        }
        let stream = stream?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(match protocol {
            Protocol::Http => Client::Http {
                reader,
                writer: stream,
                host: addr.to_string(),
            },
            Protocol::Ndjson => Client::Ndjson {
                reader,
                writer: stream,
            },
        })
    }

    /// Send one request line, block for its response line.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        match self {
            Client::Ndjson { reader, writer } => {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the NDJSON connection",
                    ));
                }
                Ok(response.trim_end_matches('\n').to_string())
            }
            Client::Http {
                reader,
                writer,
                host,
            } => {
                write!(
                    writer,
                    "POST /count HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    line.len()
                )?;
                writer.write_all(line.as_bytes())?;
                writer.flush()?;
                read_http_response(reader)
            }
        }
    }
}

/// Read one fixed-length HTTP response, returning its body. Any status is
/// accepted — application errors travel in the body and are counted by the
/// caller; chunked responses are not expected from `/count`.
fn read_http_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the HTTP connection",
        ));
    }
    if !status_line.starts_with("HTTP/1.1 ") && !status_line.starts_with("HTTP/1.0 ") {
        return Err(bad(format!("bad status line `{}`", status_line.trim())));
    }
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("EOF inside response headers".to_string()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad Content-Length `{}`", value.trim())))?,
                );
            }
        }
    }
    let len = content_length.ok_or_else(|| bad("response without Content-Length".to_string()))?;
    let mut body = vec![0u8; len];
    std::io::Read::read_exact(reader, &mut body)?;
    String::from_utf8(body).map_err(|_| bad("non-UTF-8 response body".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_workloads::mix::request_spec;

    #[test]
    fn request_lines_render_deterministically() {
        let spec = request_spec(7, 3);
        let a = render_request_line(&spec, Some(4), None, None);
        let b = render_request_line(&spec, Some(4), None, None);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"id\":3,"), "{a}");
        assert!(a.contains("\"shards\":4"), "{a}");
        assert!(!a.contains("\"method\""), "{a}");
        let c = render_request_line(&spec, None, Some("exact"), None);
        // an explicit accuracy overrides the mix's per-request defaults
        let tight = render_request_line(&spec, None, None, Some((0.01, 0.02)));
        assert!(tight.contains("\"epsilon\":0.01"), "{tight}");
        assert!(tight.contains("\"delta\":0.02"), "{tight}");
        assert!(c.contains("\"method\":\"exact\""), "{c}");
        assert!(!c.contains("\"shards\""), "{c}");
        // the request line is valid JSON for the serve-side parser
        assert!(cqc_serve::json::parse(&a).is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(transcript_fingerprint(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(transcript_fingerprint("abc"), transcript_fingerprint("abc"));
        assert_ne!(transcript_fingerprint("abc"), transcript_fingerprint("abd"));
    }

    #[test]
    fn bench_json_is_valid_json() {
        let report = LoadReport {
            options: LoadgenOptions::default(),
            wall: Duration::from_millis(1234),
            throughput_rps: 81.0,
            p50_ms: 1.5,
            p95_ms: 3.0,
            p99_ms: 9.25,
            errors: 0,
            bytes_received: 4096,
            transcript: "{\"id\":0}\n".to_string(),
        };
        let text = bench_json(&report);
        let v = cqc_serve::json::parse(&text).expect("bench json parses");
        assert_eq!(
            v.get("bench").and_then(|b| b.as_str()),
            Some("serve_loadgen")
        );
        assert_eq!(v.get("requests").and_then(|r| r.as_u64()), Some(100));
        assert!(v.get("latency_ms").and_then(|l| l.get("p99")).is_some());
    }

    #[test]
    fn scaling_bench_json_carries_points_and_identity() {
        let mk = |transcript: &str| LoadReport {
            options: LoadgenOptions::default(),
            wall: Duration::from_millis(500),
            throughput_rps: 200.0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            errors: 0,
            bytes_received: 9,
            transcript: transcript.to_string(),
        };
        let report = ScalingReport {
            options: LoadgenOptions::default(),
            points: vec![
                ScalingPoint {
                    connections: 64,
                    report: mk("{\"id\":0}\n"),
                },
                ScalingPoint {
                    connections: 256,
                    report: mk("{\"id\":0}\n"),
                },
            ],
            transcripts_identical: true,
        };
        let text = scaling_bench_json(&report);
        let v = cqc_serve::json::parse(&text).expect("scaling bench json parses");
        assert_eq!(
            v.get("bench").and_then(|b| b.as_str()),
            Some("serve_scaling")
        );
        let points = match v.get("points") {
            Some(Value::Arr(points)) => points,
            other => panic!("points member missing or not an array: {other:?}"),
        };
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].get("connections").and_then(|c| c.as_u64()),
            Some(64)
        );
        assert!(points[1]
            .get("latency_ms")
            .and_then(|l| l.get("p99"))
            .is_some());
        assert!(text.contains("\"transcripts_identical\":true"));
    }

    #[test]
    fn obs_bench_json_reports_overhead_and_identity() {
        let mk = |wall_ms: u64, transcript: &str| LoadReport {
            options: LoadgenOptions::default(),
            wall: Duration::from_millis(wall_ms),
            throughput_rps: 50.0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            errors: 0,
            bytes_received: 9,
            transcript: transcript.to_string(),
        };
        // three repeats with per-pair overheads +5 %, +3 %, -1 %: the
        // committed figure is the median (+3 %), the min records the
        // best-case pair (which may be negative on a noisy host)
        let pairs = vec![
            (mk(1000, "{\"id\":0}\n"), mk(1050, "{\"id\":0}\n")),
            (mk(1000, "{\"id\":0}\n"), mk(1030, "{\"id\":0}\n")),
            (mk(1000, "{\"id\":0}\n"), mk(990, "{\"id\":0}\n")),
        ];
        let text = obs_bench_json(&pairs, 42);
        let v = cqc_serve::json::parse(&text).expect("obs bench json parses");
        assert_eq!(
            v.get("bench").and_then(|b| b.as_str()),
            Some("obs_trace_overhead")
        );
        assert_eq!(v.get("trace_events").and_then(|t| t.as_u64()), Some(42));
        assert_eq!(v.get("repeats").and_then(|r| r.as_u64()), Some(3));
        let overhead = v.get("overhead_pct").and_then(|p| p.as_f64()).unwrap();
        assert!((overhead - 3.0).abs() < 1e-9, "{overhead}");
        let med = v
            .get("overhead_pct_median")
            .and_then(|p| p.as_f64())
            .unwrap();
        assert!((med - 3.0).abs() < 1e-9, "{med}");
        let min = v.get("overhead_pct_min").and_then(|p| p.as_f64()).unwrap();
        assert!((min + 1.0).abs() < 1e-9, "{min}");
        assert_eq!(
            v.get("transcripts_identical").map(|b| b.render()),
            Some("true".to_string())
        );
        let stats = obs_overhead(&pairs);
        assert!((stats.median_pct - 3.0).abs() < 1e-9);
        assert!((stats.min_pct + 1.0).abs() < 1e-9);
        // one diverging transcript anywhere in the repeats flips the witness
        let diverged = obs_bench_json(
            &[
                (mk(1000, "{\"id\":0}\n"), mk(1030, "{\"id\":0}\n")),
                (mk(1000, "{\"id\":0}\n"), mk(1030, "{\"id\":1}\n")),
            ],
            42,
        );
        assert!(diverged.contains("\"transcripts_identical\":false"));
    }
}
