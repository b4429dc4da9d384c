//! Endpoint behaviour of the network front end over real loopback TCP:
//! health and metrics endpoints, count responses and HTTP status mapping,
//! keep-alive, protocol sniffing, streaming NDJSON, and graceful shutdown.

use cqc_net::{NetConfig, RunningServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const COUNT_REQ: &str = r#"{"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z", "dbs": ["universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n"], "seed": 7, "method": "exact"}"#;

fn start() -> RunningServer {
    RunningServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind ephemeral port")
}

/// One HTTP exchange on a fresh connection; returns (status, body).
fn http(server: &RunningServer, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    http_response(&mut BufReader::new(stream))
}

/// Read one fixed-length or chunked HTTP response; returns (status, body).
fn http_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = Some(v.trim().parse().unwrap());
            }
            if k.eq_ignore_ascii_case("transfer-encoding") && v.trim() == "chunked" {
                chunked = true;
            }
        }
    }
    if chunked {
        let mut body = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            let mut chunk = vec![0u8; size + 2]; // chunk + CRLF
            reader.read_exact(&mut chunk).unwrap();
            if size == 0 {
                break;
            }
            body.push_str(std::str::from_utf8(&chunk[..size]).unwrap());
        }
        (status, body)
    } else {
        let mut body = vec![0u8; content_length.expect("length-delimited response")];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn healthz_reports_ok() {
    let server = start();
    let (status, body) = http(&server, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");
    server.shutdown();
}

#[test]
fn count_endpoint_answers_and_maps_errors_to_400() {
    let server = start();
    let (status, body) = http(&server, &post("/count", COUNT_REQ));
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"id\":1,"), "{body}");
    assert!(body.contains("\"estimate\":2,"), "{body}");
    assert!(body.contains("\"exact\":true"), "{body}");
    // an application-level error keeps the serve-protocol body, status 400
    let (status, body) = http(&server, &post("/count", "{\"id\": 2}"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"error\""), "{body}");
    assert!(body.starts_with("{\"id\":2,"), "{body}");
    server.shutdown();
}

#[test]
fn unknown_paths_and_methods_are_rejected() {
    let server = start();
    let (status, body) = http(&server, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.contains("no such endpoint"), "{body}");
    let (status, body) = http(&server, "GET /count HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert!(body.contains("not allowed"), "{body}");
    let (status, _) = http(&server, "BAD-REQUEST-LINE\r\n\r\n");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let request = format!(
        "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{COUNT_REQ}",
        COUNT_REQ.len()
    );
    let mut bodies = Vec::new();
    for _ in 0..3 {
        stream.write_all(request.as_bytes()).unwrap();
        let (status, body) = http_response(&mut reader);
        assert_eq!(status, 200);
        bodies.push(body);
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[0], bodies[2]);
    server.shutdown();
}

#[test]
fn stream_endpoint_answers_ndjson_lines_in_order() {
    let server = start();
    let two_lines = format!(
        "{COUNT_REQ}\n{}\n",
        COUNT_REQ.replace("\"id\": 1", "\"id\": 2")
    );
    let (status, body) = http(&server, &post("/stream", &two_lines));
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "{body}");
    assert!(lines[0].starts_with("{\"id\":1,"), "{body}");
    assert!(lines[1].starts_with("{\"id\":2,"), "{body}");
    server.shutdown();
}

#[test]
fn raw_ndjson_protocol_is_sniffed_on_the_same_port() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for id in [1u32, 2] {
        let line = COUNT_REQ.replace("\"id\": 1", &format!("\"id\": {id}"));
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.starts_with(&format!("{{\"id\":{id},")),
            "{response}"
        );
        assert!(response.contains("\"estimate\":2,"), "{response}");
    }
    // the NDJSON body equals the HTTP /count body byte for byte
    let (_, http_body) = http(&server, &post("/count", COUNT_REQ));
    stream.write_all(COUNT_REQ.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut ndjson_body = String::new();
    reader.read_line(&mut ndjson_body).unwrap();
    assert_eq!(http_body, ndjson_body.trim_end(), "protocols must agree");
    server.shutdown();
}

#[test]
fn metrics_expose_request_cache_and_latency_counters() {
    let server = start();
    for _ in 0..2 {
        http(&server, &post("/count", COUNT_REQ));
    }
    http(&server, &post("/count", "{\"id\": 9}")); // error response
    let (status, text) = http(&server, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    for needle in [
        "cqc_serve_requests_total 3",
        "cqc_serve_request_errors_total 1",
        "cqc_plan_cache_hits_total 1",
        "cqc_plan_cache_misses_total 1",
        "cqc_plan_cache_evictions_total 0",
        "cqc_shard_work_items_total 2",
        "cqc_http_responses_2xx_total 2",
        "cqc_request_latency_seconds_count 3",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    assert!(server.served() == 3);
    server.shutdown();
}

#[test]
fn graceful_shutdown_stops_accepting_and_joins_connections() {
    let server = start();
    let addr = server.addr();
    // an idle keep-alive connection is open while we shut down
    let idle = TcpStream::connect(addr).unwrap();
    let served = server.shutdown();
    assert_eq!(served, 0);
    // the port no longer accepts (give the OS a moment to tear down)
    std::thread::sleep(std::time::Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200));
    assert!(refused.is_err(), "listener still accepting after shutdown");
    drop(idle);
}

#[test]
fn shutdown_is_not_blocked_by_a_stalled_mid_request_peer() {
    let server = start();
    // a peer sends half a request line, then parks with the socket open
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(b"POST /count HT").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let started = cqc_obs::Stopwatch::start();
    let served = server.shutdown();
    assert_eq!(served, 0);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "shutdown hung on the stalled connection ({:?})",
        started.elapsed()
    );
    drop(stalled);
}

#[test]
fn http_1_0_stream_requests_get_a_length_delimited_body() {
    let server = start();
    let request = format!(
        "POST /stream HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{COUNT_REQ}",
        COUNT_REQ.len()
    );
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let raw = {
        use std::io::Read as _;
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        buf
    };
    assert!(!raw.contains("Transfer-Encoding"), "{raw}");
    assert!(raw.contains("Content-Length:"), "{raw}");
    assert!(raw.contains("\"estimate\":2,"), "{raw}");
    server.shutdown();
}

#[test]
fn excess_connections_beyond_the_cap_get_a_503_not_a_silent_close() {
    let server = RunningServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    // the first connection occupies the only slot (parked in the sniff)
    let held = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    // the second is over the cap: instead of the old silent close it gets
    // a well-formed 503 with the pinned overload body, then the close
    let mut second = TcpStream::connect(server.addr()).unwrap();
    second
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    use std::io::Read as _;
    second.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{raw}"
    );
    assert!(raw.contains("Connection: close\r\n"), "{raw}");
    assert!(
        raw.ends_with("{\"id\":null,\"error\":\"server overloaded: connection limit reached\"}"),
        "{raw}"
    );
    assert_eq!(server.stats().connections_rejected, 1);
    drop(held);
    server.shutdown();
}

#[test]
fn idle_connections_expire_and_release_their_cap_slot() {
    let server = RunningServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_connections: 1,
            idle_timeout: std::time::Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .unwrap();
    // an idle peer occupies the only slot…
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    // …until the idle deadline expires it (observed as EOF client-side)
    let mut buf = [0u8; 1];
    use std::io::Read as _;
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    assert_eq!(idle.read(&mut buf).unwrap_or(0), 0, "idle peer expired");
    // give the server a moment to retire the connection thread, then the
    // slot is free again: a fresh connection is served normally
    std::thread::sleep(std::time::Duration::from_millis(150));
    let (status, body) = http(&server, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn max_requests_triggers_self_shutdown() {
    let server = RunningServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_requests: Some(2),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    #[expect(
        clippy::disallowed_methods,
        reason = "a test client that must run beside the server's own threads"
    )]
    let t = std::thread::spawn(move || {
        for _ in 0..2 {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = format!(
                "POST /count HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{COUNT_REQ}",
                COUNT_REQ.len()
            );
            stream.write_all(req.as_bytes()).unwrap();
            let (status, _) = http_response(&mut BufReader::new(stream));
            assert_eq!(status, 200);
        }
    });
    let served = server.wait();
    t.join().unwrap();
    assert_eq!(served, 2);
}
