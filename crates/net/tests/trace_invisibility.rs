//! The observability acceptance test: tracing must be provably invisible
//! on the wire. For a seeded request mix, the transcript served with the
//! tracer **enabled** must be byte-identical to the transcript served with
//! it **disabled**, across server pool widths {1, 2, 8}, shard counts
//! {1, 4}, and both wire protocols (HTTP `POST /count` vs raw NDJSON).
//!
//! The same test pins the request-correlation echoes, which are pure
//! functions of the request bytes and therefore identical whether the
//! tracer is on or off:
//!
//! * an NDJSON request carrying a `"trace"` member gets it echoed back in
//!   the response (success and error alike);
//! * an HTTP `POST /count` carrying a `traceparent` header gets it echoed
//!   as a `Traceparent` response header.
//!
//! The same obligation extends to the rest of the observability stack:
//! with the wide-event request log (file sink attached), the flight
//! recorder, **and** a concurrent client hammering the `/debug/*`
//! endpoints throughout the run, the transcript must still match the
//! everything-off transcript byte for byte, on both protocols.
//!
//! Everything lives in one `#[test]` because the tracer and the worker cap
//! are process-global: a single body sequences them deterministically.

use cqc_net::loadgen::{run_against, LoadgenOptions, Protocol};
use cqc_net::{NetConfig, RunningServer};
use cqc_runtime::set_worker_cap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const COUNT_REQ: &str = r#"{"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z", "dbs": ["universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n"], "seed": 7, "method": "exact"}"#;

/// Run one loadgen configuration against a fresh server with the tracer
/// forced to `traced`; returns the id-ordered transcript.
fn transcript(options: &LoadgenOptions, traced: bool) -> String {
    cqc_obs::trace::set_enabled(traced);
    let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let report = run_against(server.addr(), options).expect("loadgen run");
    server.shutdown();
    cqc_obs::trace::set_enabled(false);
    assert_eq!(report.transcript.lines().count(), options.requests);
    assert_eq!(report.errors, 0, "healthy mix has no error responses");
    report.transcript
}

#[test]
fn tracing_never_changes_a_byte_on_the_wire() {
    let base = LoadgenOptions {
        requests: 12,
        connections: 2,
        seed: 0x0B5EED,
        shards: Some(1),
        method: None, // auto: the approximation engines, where an
        // observability effect on RNG or scheduling would surface
        accuracy: None,
        protocol: Protocol::Http,
        suite: None,
    };
    cqc_obs::trace::set_enabled(false);
    let _ = cqc_obs::trace::drain(); // isolate from earlier activity

    for pool_width in [1usize, 2, 8] {
        set_worker_cap(pool_width);
        for shards in [1usize, 4] {
            for protocol in [Protocol::Http, Protocol::Ndjson] {
                let options = LoadgenOptions {
                    shards: Some(shards),
                    protocol,
                    ..base.clone()
                };
                let off = transcript(&options, false);
                assert_eq!(
                    cqc_obs::trace::drain().events.len(),
                    0,
                    "a disabled tracer must record nothing"
                );
                let on = transcript(&options, true);
                let trace = cqc_obs::trace::drain();
                assert_eq!(
                    off, on,
                    "tracing changed wire bytes at pool={pool_width} shards={shards} {protocol:?}"
                );
                assert!(
                    !trace.events.is_empty(),
                    "the enabled tracer saw no events — the invariant test is vacuous"
                );
                let ndjson = trace.to_ndjson();
                assert!(ndjson.contains("\"name\":\"request\""), "{ndjson}");
                assert!(ndjson.contains("\"name\":\"work_item\""), "{ndjson}");
            }
        }
    }
    // The whole stack on — tracer, wide-event log with a file sink, flight
    // recorder — plus a concurrent /debug scraper: still not a byte of
    // difference on the wire, on either protocol.
    set_worker_cap(2);
    for protocol in [Protocol::Http, Protocol::Ndjson] {
        let options = LoadgenOptions {
            shards: Some(2),
            protocol,
            ..base.clone()
        };
        let off = transcript(&options, false);

        cqc_obs::trace::set_enabled(true);
        cqc_obs::wide::set_enabled(true);
        cqc_obs::flight::set_enabled(true);
        let log_path = std::env::temp_dir().join(format!(
            "cqc-invis-widelog-{}-{protocol:?}.ndjson",
            std::process::id()
        ));
        let server = RunningServer::bind(
            "127.0.0.1:0",
            NetConfig {
                request_log: Some(log_path.clone()),
                ..NetConfig::default()
            },
        )
        .expect("bind");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        #[expect(
            clippy::disallowed_methods,
            reason = "a test scraper that must run beside the server's own threads"
        )]
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    for path in ["/debug/requests", "/debug/flight", "/debug/loop"] {
                        let mut stream = TcpStream::connect(addr).expect("scraper connect");
                        stream
                            .write_all(
                                format!(
                                    "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                                )
                                .as_bytes(),
                            )
                            .expect("scraper write");
                        let mut raw = String::new();
                        stream.read_to_string(&mut raw).expect("scraper read");
                        assert!(raw.starts_with("HTTP/1.1 200"), "{path}: {raw}");
                        scrapes += 1;
                    }
                }
                scrapes
            })
        };
        let report = run_against(addr, &options).expect("loadgen run");
        stop.store(true, Ordering::Relaxed);
        let scrapes = scraper.join().expect("scraper thread");
        server.shutdown();
        cqc_obs::trace::set_enabled(false);
        cqc_obs::wide::set_enabled(false);
        cqc_obs::flight::set_enabled(false);
        let _ = cqc_obs::trace::drain();
        cqc_obs::flight::reset();

        assert!(scrapes > 0, "the debug scraper never got a response in");
        assert_eq!(
            off, report.transcript,
            "wide log + flight recorder + /debug scraping changed wire bytes ({protocol:?})"
        );
        // the request log captured exactly one wide record per request,
        // and none for the scraper's own /debug traffic
        let log_text = std::fs::read_to_string(&log_path).expect("request log written");
        let wide_lines = log_text
            .lines()
            .filter(|l| l.contains("\"type\":\"wide\""))
            .count();
        assert_eq!(wide_lines, options.requests, "{log_text}");
        assert!(!log_text.contains("\"endpoint\":\"debug"), "{log_text}");
        std::fs::remove_file(&log_path).ok();
    }
    set_worker_cap(0); // restore auto for other tests in this process

    // correlation echoes: byte-identical with the tracer on and off
    for traced in [false, true] {
        cqc_obs::trace::set_enabled(traced);
        let server = RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");

        // NDJSON: the `"trace"` member round-trips on success and error
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let tagged = COUNT_REQ.replace("\"id\": 1", "\"id\": 1, \"trace\": \"00-feedc0de-01\"");
        stream.write_all(tagged.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("\"estimate\":2,"), "{response}");
        assert!(
            response.contains("\"trace\":\"00-feedc0de-01\""),
            "{response}"
        );
        let bad = r#"{"id": 2, "trace": "00-feedc0de-02"}"#;
        stream.write_all(bad.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("\"error\""), "{response}");
        assert!(
            response.contains("\"trace\":\"00-feedc0de-02\""),
            "{response}"
        );
        drop(reader);
        drop(stream);

        // HTTP: the `traceparent` header echoes as a response header
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let request = format!(
            "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             traceparent: 00-feedc0de-03\r\nConnection: close\r\n\r\n{COUNT_REQ}",
            COUNT_REQ.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.contains("\r\nTraceparent: 00-feedc0de-03\r\n"), "{raw}");
        // an un-tagged request gets no Traceparent header
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let request = format!(
            "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{COUNT_REQ}",
            COUNT_REQ.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut plain = String::new();
        stream.read_to_string(&mut plain).unwrap();
        assert!(!plain.contains("Traceparent:"), "{plain}");

        server.shutdown();
        cqc_obs::trace::set_enabled(false);
        let _ = cqc_obs::trace::drain();
    }
}
