//! The `serve-http` workload: an in-process `RunningServer` with the
//! default `NetConfig`, driven by this benchmark's own closed-loop client
//! over two keep-alive connections — HTTP `POST /count` on one, raw NDJSON
//! on the other, both on the same port.

use crate::gen::{edges_for, er_facts, Rng};
use crate::stats::{estimate_ok, mean, median, ms, quantile, Fnv, Metrics};
use crate::{reference, Outcome};
use cqc_core::{exact_count_answers, Backend, Engine};
use cqc_data::parse_facts;
use cqc_net::{NetConfig, RunningServer};
use cqc_query::parse_query;
use cqc_serve::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The timed section runs in windows of this length. Each time metric is
/// the median over the windows, so a burst of interference from other
/// tenants that lasts a window or two moves it little. A window holds
/// 1700–2700 requests, so its p99 rests on 17–27 samples above it.
const WINDOW_SECONDS: f64 = 5.0;

/// Set-up (bind plus warm requests) is timed once before the timed section
/// and this many times in each gap after a window; `setup_s` is the median.
const SETUPS_PER_GAP: usize = 2;

/// Reference timings in each gap between windows (see `reference.rs`).
const REFERENCES_PER_GAP: usize = 9;

/// Warm requests of one set-up: the first four of each kind. A single warm
/// request per kind varies too much in size from seed to seed.
const WARM_REQUESTS: usize = 4 * KINDS.len();

/// Distinct requests in the fixed list the clients cycle through: about a
/// tenth of what a run at `--seconds 40` sends, enough that the cost of
/// single databases averages out.
const REQUESTS: usize = 2000;

/// Where the traced run's wide-event log goes, relative to the checkout.
const WIDE_LOG_DIR: &str = "perfbench/target";

struct Kind {
    name: &'static str,
    query: &'static str,
    method: Option<&'static str>,
    nodes: (usize, usize),
    degree: f64,
}

const PATH2: &str = "ans(x, y) :- E(x, z), E(z, y)";

const KINDS: [Kind; 5] = [
    Kind {
        name: "dcq",
        query: "ans(x) :- E(x, y), E(x, z), y != z",
        method: None,
        nodes: (6, 10),
        degree: 1.5,
    },
    Kind {
        name: "ecq",
        query: "ans(x, y) :- E(x, y), !E(y, x)",
        method: None,
        nodes: (6, 12),
        degree: 1.5,
    },
    Kind {
        name: "edge-cq",
        query: "ans(x, y) :- E(x, y)",
        method: None,
        nodes: (10, 14),
        degree: 1.5,
    },
    Kind {
        name: "2path-cq",
        query: PATH2,
        method: None,
        nodes: (4, 6),
        degree: 1.5,
    },
    Kind {
        name: "2path-exact",
        query: PATH2,
        method: Some("exact"),
        nodes: (16, 28),
        degree: 2.0,
    },
];

struct Request {
    kind: usize,
    line: String,
    db_texts: Vec<String>,
    exact: Vec<u64>,
}

fn requests(seed: u64) -> Vec<Request> {
    let mut rng = Rng::fork(seed, 0x5E);
    (0..REQUESTS)
        .map(|j| {
            let kind = j % KINDS.len();
            let k = &KINDS[kind];
            let db_texts: Vec<String> = (0..rng.range(1, 2))
                .map(|_| {
                    let n = rng.range(k.nodes.0, k.nodes.1);
                    er_facts(&mut rng, n, edges_for(n, k.degree))
                })
                .collect();
            let dbs: Vec<String> = db_texts
                .iter()
                .map(|t| format!("\"{}\"", t.replace('\n', "\\n")))
                .collect();
            let method = k
                .method
                .map(|m| format!(",\"method\":\"{m}\""))
                .unwrap_or_default();
            let line = format!(
                "{{\"id\":{j},\"query\":\"{}\",\"dbs\":[{}],\"seed\":{}{method},\"trace\":\"r{j}\"}}",
                k.query,
                dbs.join(","),
                rng.next_u64() >> 11
            );
            let query = parse_query(k.query).expect("benchmark query parses");
            let exact = db_texts
                .iter()
                .map(|t| exact_count_answers(&query, &parse_facts(t).expect("facts parse")))
                .collect();
            Request {
                kind,
                line,
                db_texts,
                exact,
            }
        })
        .collect()
}

/// One keep-alive client connection.
struct Conn {
    http: bool,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr, http: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            http,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request and block for its response: `(status, body)`.
    /// NDJSON has no status line; its responses count as 200.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<(u16, String)> {
        if !self.http {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            let mut response = String::new();
            if self.reader.read_line(&mut response)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            return Ok((200, response.trim_end().to_string()));
        }
        write!(
            self.writer,
            "POST /count HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        )?;
        read_http_response(&mut self.reader)
    }
}

fn read_http_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("EOF in headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = vec![0u8; length.ok_or_else(|| bad("no Content-Length"))?];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Value of `"key":` in a flat JSON fragment, up to the next `,` or `}`.
fn member<'a>(fragment: &'a str, key: &str) -> Option<&'a str> {
    let start = fragment.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &fragment[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// The output check of one response: HTTP 200, no error, and every item's
/// estimate within its own `(1 ± ε)` of the exact count (equal when the
/// item is reported exact).
fn response_ok(req: &Request, status: u16, body: &str) -> bool {
    if status != 200 || body.contains("\"error\":") {
        return false;
    }
    let items: Vec<&str> = body.split("{\"item\":").skip(1).collect();
    items.len() == req.exact.len()
        && items.iter().zip(&req.exact).all(|(item, &truth)| {
            let estimate = member(item, "estimate_bits")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .map(f64::from_bits);
            let exact = member(item, "exact") == Some("true");
            let epsilon = member(item, "epsilon").and_then(|e| e.parse::<f64>().ok());
            matches!((estimate, epsilon), (Some(e), Some(eps)) if estimate_ok(e, exact, eps, truth))
        })
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// `(request index, latency in ms, response body)`, in sending order.
    done: Vec<(usize, f64, String)>,
    failed: u64,
    /// Requests this client has sent in the run so far, counting earlier
    /// windows: where its next window resumes in its share of the list.
    sent: usize,
}

/// When the clients of one `drive` stop.
#[derive(Clone, Copy)]
enum Until {
    /// Each client has sent its share of one whole pass.
    OnePass,
    /// The deadline has passed; both stop within a request of it, so no
    /// window ends on one connection alone.
    Seconds(f64),
}

/// Run the two closed-loop clients over the request list, round and round,
/// resuming client `c` at request `sent[c]` of its share. Connection 0
/// speaks HTTP and takes the even requests, connection 1 raw NDJSON and
/// the odd.
fn drive(
    addr: SocketAddr,
    reqs: &[Request],
    sent: [usize; 2],
    until: Until,
) -> (Vec<ClientLog>, f64) {
    let started = Instant::now();
    let logs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr, c == 0).expect("client connects");
                    let share: Vec<usize> = (c..reqs.len()).step_by(2).collect();
                    let mut log = ClientLog {
                        sent: sent[c],
                        ..ClientLog::default()
                    };
                    loop {
                        let stop = match until {
                            Until::OnePass => log.sent - sent[c] >= share.len(),
                            Until::Seconds(s) => started.elapsed().as_secs_f64() >= s,
                        };
                        if stop {
                            break;
                        }
                        let j = share[log.sent % share.len()];
                        let first_pass = log.sent < share.len();
                        log.sent += 1;
                        let begun = Instant::now();
                        let ok = match conn.roundtrip(&reqs[j].line) {
                            Ok((status, body)) => {
                                let ok = response_ok(&reqs[j], status, &body);
                                // Only the first pass's bodies are kept (for
                                // the transcript), so the client's memory
                                // does not grow with throughput.
                                let body = if first_pass { body } else { String::new() };
                                log.done.push((j, ms(begun.elapsed()), body));
                                ok
                            }
                            Err(e) => {
                                eprintln!("request {j}: {e}");
                                conn = Conn::open(addr, c == 0).expect("client reconnects");
                                log.done.push((j, ms(begun.elapsed()), String::new()));
                                false
                            }
                        };
                        if !ok {
                            log.failed += 1;
                        }
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<ClientLog>>()
    });
    (logs, started.elapsed().as_secs_f64())
}

/// Bind the server and send the warm requests over a throwaway HTTP
/// connection; returns the server and the set-up time in seconds.
fn set_up(reqs: &[Request], config: NetConfig) -> (RunningServer, f64) {
    let started = Instant::now();
    let server = RunningServer::bind("127.0.0.1:0", config).expect("server binds");
    let mut conn = Conn::open(server.addr(), true).expect("warm-up connects");
    for req in &reqs[..WARM_REQUESTS] {
        let (status, body) = conn.roundtrip(&req.line).expect("warm-up request");
        assert!(response_ok(req, status, &body), "warm-up failed: {body}");
    }
    (server, started.elapsed().as_secs_f64())
}

fn net_config(wide_log: Option<PathBuf>) -> NetConfig {
    NetConfig {
        request_log: wide_log,
        ..NetConfig::default()
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let reqs = requests(seed);
    let wide_log = trace.then(|| {
        std::fs::create_dir_all(WIDE_LOG_DIR).expect("log directory");
        PathBuf::from(format!("{WIDE_LOG_DIR}/wide-{}.ndjson", std::process::id()))
    });
    let (server, t) = set_up(&reqs, net_config(wide_log.clone()));
    let mut setups = vec![t];
    let addr = server.addr();

    if trace {
        let path = wide_log.expect("traced runs log wide events");
        let outcome = traced(&reqs, &server, &path, seconds);
        server.shutdown();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(WIDE_LOG_DIR); // only if now empty
        return outcome;
    }

    // Whole windows until `seconds` have passed and both clients have sent
    // one pass. Set-ups are timed in the gaps between windows, so that they
    // sample the machine conditions of the whole run. The reference work is
    // timed in every gap too, while the server is idle: a window's times are
    // scaled by the reference timings of the gaps on either side of it, so
    // a change of the host's speed within a run is followed window by
    // window, and set-ups by those of the whole run.
    let share = |c: usize| (c..reqs.len()).step_by(2).len();
    let mut sent = [0, 0];
    let mut logs = Vec::new();
    let mut raw_windows = Vec::new();
    let reference_gap = || (0..REFERENCES_PER_GAP).map(|_| reference::time()).collect();
    let mut gaps: Vec<Vec<f64>> = vec![reference_gap()];
    while raw_windows.len() < (seconds / WINDOW_SECONDS).floor().max(1.0) as usize
        || sent[0] < share(0)
        || sent[1] < share(1)
    {
        let (window, wall) = drive(addr, &reqs, sent, Until::Seconds(WINDOW_SECONDS));
        sent = [window[0].sent, window[1].sent];
        let latencies: Vec<f64> = window
            .iter()
            .flat_map(|l| l.done.iter().map(|d| d.1))
            .collect();
        raw_windows.push((latencies, wall));
        logs.extend(window);
        gaps.push(reference_gap());
        for _ in 0..SETUPS_PER_GAP {
            let (spare, t) = set_up(&reqs, net_config(None));
            spare.shutdown();
            setups.push(t);
        }
    }
    let shed = server.stats().requests_shed;
    server.shutdown();
    let wall: f64 = raw_windows.iter().map(|w| w.1).sum();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    for (j, latency, _) in logs.iter().flat_map(|l| &l.done) {
        per_kind[reqs[*j].kind].push(*latency);
    }
    for (k, lat) in KINDS.iter().zip(&per_kind) {
        eprintln!(
            "kind {:<12} median {:8.3} ms over {} requests",
            k.name,
            median(lat),
            lat.len()
        );
    }
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let attempted = logs.iter().map(|l| l.done.len() as u64).sum();
    eprintln!(
        "serve-http: {attempted} requests in {wall:.3} s, {failed} failed, {shed} shed, transcript fnv1a={:016x}",
        transcript(&logs, reqs.len())
    );
    eprintln!(
        "{}; reference work median {:.4} ms",
        crate::wall_clock_summary(&raw_windows),
        median(&gaps.concat())
    );
    let windows: Vec<(Vec<f64>, f64)> = raw_windows
        .into_iter()
        .zip(gaps.windows(2))
        .map(|((l, wall), around)| {
            let scale = reference::scale(&around.concat());
            (l.iter().map(|v| v * scale).collect(), wall * scale)
        })
        .collect();
    let mut metrics = Metrics::default();
    crate::put_end_to_end(
        &mut metrics,
        &windows,
        attempted,
        failed,
        median(&setups) * reference::scale(&gaps.concat()),
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// FNV-1a over the first pass's responses in request order: the
/// determinism witness (responses are a pure function of the requests).
fn transcript(logs: &[ClientLog], n: usize) -> u64 {
    let mut first: Vec<&str> = vec![""; n];
    for (j, _, body) in logs.iter().flat_map(|l| &l.done).rev() {
        first[*j] = body;
    }
    let mut fnv = Fnv::new();
    for body in first {
        fnv.write(body.as_bytes());
        fnv.write(b"\n");
    }
    fnv.finish()
}

/// One wide event's timings, in ns.
struct Wide {
    queue: f64,
    handle: f64,
    prepare: f64,
    evaluate: f64,
}

/// The wide events in the log, by request index (from the `trace` id).
fn read_wide_log(path: &Path) -> BTreeMap<usize, Vec<Wide>> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut events: BTreeMap<usize, Vec<Wide>> = BTreeMap::new();
    for line in text.lines() {
        let num = |key| member(line, key).and_then(|v| v.parse::<f64>().ok());
        let id = member(line, "trace").and_then(|t| t.strip_prefix('r')?.parse().ok());
        if let (Some(id), Some(queue), Some(handle), Some(prepare), Some(evaluate)) = (
            id,
            num("queue_ns"),
            num("handle_ns"),
            num("prepare_ns"),
            num("evaluate_ns"),
        ) {
            events.entry(id).or_default().push(Wide {
                queue,
                handle,
                prepare,
                evaluate,
            });
        }
    }
    events
}

fn scrape_metrics(addr: SocketAddr) -> BTreeMap<String, f64> {
    let mut stream = TcpStream::connect(addr).expect("metrics connection");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("metrics request");
    let mut reader = BufReader::new(stream);
    let (_, body) = read_http_response(&mut reader).expect("metrics response");
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The traced run: rounds of an untraced and a traced pass against the
/// same server until `seconds` have passed, then the wide-event log, a
/// `/metrics` scrape and an in-process `Server::handle_line` replay.
fn traced(reqs: &[Request], server: &RunningServer, log: &Path, seconds: f64) -> Outcome {
    let started = Instant::now();
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut client_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut wire: Vec<String> = vec![String::new(); reqs.len()];
    let mut round = 0;
    while crate::fits_another(started, round, seconds) {
        // Alternate which pass goes first, so drift does not bias the
        // tracing overhead.
        let mut traced_logs = Vec::new();
        for traced_pass in [round % 2 == 1, round % 2 == 0] {
            cqc_obs::trace::set_enabled(traced_pass);
            cqc_obs::wide::set_enabled(traced_pass);
            let (logs, wall) = drive(server.addr(), reqs, [0, 0], Until::OnePass);
            cqc_obs::wide::set_enabled(false);
            cqc_obs::trace::set_enabled(false);
            drop(cqc_obs::trace::drain());
            for l in &logs {
                attempted += l.done.len() as u64;
                failed += l.failed;
            }
            if traced_pass {
                traced_wall += wall;
                traced_logs = logs;
            } else {
                untraced_wall += wall;
            }
        }
        for (j, latency, body) in traced_logs.into_iter().flat_map(|l| l.done) {
            client_ms.entry(j).or_default().push(latency);
            wire[j] = body;
        }
        round += 1;
    }
    let scraped = scrape_metrics(server.addr());
    let wide = read_wide_log(log);

    // Per traced request: client latency minus (queue wait + handler time).
    let (mut queue, mut overhead, mut prepare, mut evaluate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (j, events) in &wide {
        let latencies = client_ms.get(j).map(Vec::as_slice).unwrap_or(&[]);
        for (event, latency) in events.iter().zip(latencies) {
            queue.push(event.queue / 1e6);
            prepare.push(event.prepare / 1e6);
            evaluate.push(event.evaluate / 1e6);
            overhead.push(latency - (event.queue + event.handle) / 1e6);
        }
    }

    // In-process replay of the same lines, which must answer byte for byte
    // what the wire answered.
    let replay = Server::new(ServerConfig::default());
    for req in &reqs[..KINDS.len()] {
        replay.handle_line(&req.line);
    }
    let mut handle_ms = Vec::with_capacity(reqs.len());
    let mut mismatches = 0;
    for (req, wire) in reqs.iter().zip(&wire) {
        let begun = Instant::now();
        let response = replay.handle_line(&req.line);
        handle_ms.push(ms(begun.elapsed()));
        if &response != wire {
            mismatches += 1;
        }
    }

    let parse_ms: Vec<f64> = reqs
        .iter()
        .map(|req| {
            let begun = Instant::now();
            for text in &req.db_texts {
                std::hint::black_box(parse_facts(text).expect("facts parse"));
            }
            ms(begun.elapsed())
        })
        .collect();
    let defaults = ServerConfig::default();
    let begun = Instant::now();
    for k in &KINDS {
        let backend = match k.method {
            Some("exact") => Backend::Exact,
            _ => Backend::Auto,
        };
        let engine = Engine::builder()
            .accuracy(defaults.epsilon, defaults.delta)
            .backend(backend)
            .build()
            .expect("valid accuracy");
        std::hint::black_box(engine.prepare(&parse_query(k.query).expect("parses")).ok());
    }
    let prepare_ms = ms(begun.elapsed());

    let get = |name: &str| scraped.get(name).copied().unwrap_or(0.0);
    let hits = get("cqc_plan_cache_hits_total");
    let misses = get("cqc_plan_cache_misses_total");
    eprintln!(
        "serve-http traced: {} wide events for {} traced requests, {mismatches} replay mismatches",
        overhead.len(),
        client_ms.values().map(Vec::len).sum::<usize>()
    );
    let faithful = mismatches == 0 && !overhead.is_empty();

    let mut m = Metrics::default();
    m.put("data.parse_ms", median(&parse_ms));
    m.put("hypergraph.prepare_ms", prepare_ms);
    m.put("serve.handle_ms_p50", median(&handle_ms));
    m.put("serve.prepare_ms", mean(&prepare));
    m.put("serve.evaluate_ms", mean(&evaluate));
    m.put("net.queue_wait_ms_p50", median(&queue));
    m.put("net.queue_wait_ms_p99", quantile(&queue, 0.99));
    m.put("net.overhead_ms_p50", median(&overhead));
    m.put(
        "serve.plan_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    m.put("net.requests_shed", get("cqc_requests_shed_total"));
    m.put(
        "obs.trace_overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    Outcome {
        correct: faithful && failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}
