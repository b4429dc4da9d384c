//! The `serve` command: a sharded counting front end over newline-delimited
//! JSON requests (see `cqc-serve`).
//!
//! Requests are read from `--requests PATH` (or standard input when the
//! option is absent) and answered one JSON line per request:
//!
//! ```text
//! {"id": 1, "query": "ans(x) :- E(x, y), E(x, z), y != z",
//!  "db_files": ["monday.facts", "tuesday.facts"], "seed": 7, "shards": 4}
//! ```
//!
//! `db_files` entries are relative paths that must resolve, symlinks
//! followed, to files under the server's working directory; any other path
//! is refused with one fixed `bad request` message.
//!
//! Work item `i` of a request always runs under the derived seed
//! `split_seed(seed, i)`, so responses are byte-identical for every shard
//! count and thread count — `--shards`/`--threads` tune wall time only.

use crate::common::approx_config;
use crate::{Args, CliError};
use cqc_net::{NetConfig, RunningServer};
use cqc_serve::{Server, ServerConfig};

/// Run `cqc serve`.
pub fn run_serve(args: &Args) -> Result<String, CliError> {
    let cfg = approx_config(args)?;
    let shards: usize = args.get_or("shards", 1)?;
    if shards == 0 {
        return Err(CliError::Usage("`--shards` must be at least 1".into()));
    }
    let plan_cache: usize = args.get_or("plan-cache", 64)?;
    if plan_cache == 0 {
        return Err(CliError::Usage("`--plan-cache` must be at least 1".into()));
    }
    let server_config = ServerConfig {
        shards,
        threads: cfg.threads,
        epsilon: cfg.epsilon,
        delta: cfg.delta,
        seed: cfg.seed,
        plan_cache_capacity: plan_cache,
        // The fail-injection hooks are for test harnesses driving library
        // servers; the CLI never honours them.
        fail_injection: false,
    };
    if let Some(listen) = args.value_of("listen") {
        return run_listen(args, listen, server_config);
    }
    let server = Server::new(server_config);

    let mut text;
    let served = match args.value_of("requests") {
        Some(path) => {
            let requests = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
            let mut out = Vec::new();
            let served = server
                .serve_lines(std::io::BufReader::new(requests.as_bytes()), &mut out)
                .map_err(|e| CliError::Count(e.to_string()))?;
            text = String::from_utf8(out).expect("responses are UTF-8");
            served
        }
        None => {
            // Interactive mode: stream each response to stdout as soon as
            // its request line arrives (serve_lines flushes per line), so a
            // client that waits for an answer before sending the next
            // request never deadlocks on run()'s buffered return value.
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            text = String::new();
            server
                .serve_lines(stdin.lock(), &mut lock)
                .map_err(|e| CliError::Count(e.to_string()))?
        }
    };
    if !args.switch("quiet") {
        text.push_str(&format!(
            "served      : {served} request(s), {} cached plan(s), shards={shards}\n",
            server.cached_plans()
        ));
    }
    Ok(text)
}

/// Parse an optional numeric flag; `None` when absent.
fn parse_flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    match args.value_of(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| CliError::Usage(format!("invalid value `{raw}` for `--{name}`: {e}"))),
    }
}

/// `cqc serve --listen ADDR`: the TCP front end (HTTP/1.1 + raw NDJSON on
/// one port, see `cqc-net`). Blocks until a *line* arrives on stdin — the
/// command's "signal pipe": interactive users press Enter, supervisors
/// `echo stop > the-fifo` — or until `--max-requests` is reached; either
/// way the shutdown is graceful (in-flight requests finish). Plain EOF is
/// deliberately not a signal, so a detached server with stdin closed
/// (`< /dev/null`) keeps running until killed.
fn run_listen(args: &Args, listen: &str, server_config: ServerConfig) -> Result<String, CliError> {
    let max_requests = match args.value_of("max-requests") {
        None => None,
        Some(raw) => {
            let n: u64 = raw.parse().map_err(|e| {
                CliError::Usage(format!("invalid value `{raw}` for `--max-requests`: {e}"))
            })?;
            if n == 0 {
                return Err(CliError::Usage(
                    "`--max-requests` must be at least 1".into(),
                ));
            }
            Some(n)
        }
    };
    let addr_file = args.value_of("addr-file").map(str::to_string);
    let mut net_config = NetConfig {
        serve: server_config,
        max_requests,
        ..NetConfig::default()
    };
    if let Some(n) = parse_flag::<usize>(args, "max-connections")? {
        if n == 0 {
            return Err(CliError::Usage(
                "`--max-connections` must be at least 1".into(),
            ));
        }
        net_config.max_connections = n;
    }
    if let Some(n) = parse_flag::<usize>(args, "queue-limit")? {
        if n == 0 {
            return Err(CliError::Usage("`--queue-limit` must be at least 1".into()));
        }
        net_config.dispatch_queue_limit = n;
    }
    // Post-hoc observability: the wide-event request log (`--request-log`),
    // the slow-request dump threshold (`--slow-ms`) and the flight-dump
    // directory (`--flight-dir`). The flight recorder and wide-event
    // recording are always on in listen mode — they are bounded, invisible
    // to response bytes, and what makes `/debug/*` useful without advance
    // warning; the file sinks remain opt-in.
    net_config.request_log = args.value_of("request-log").map(std::path::PathBuf::from);
    if let Some(ms) = parse_flag::<u64>(args, "slow-ms")? {
        if ms == 0 {
            return Err(CliError::Usage("`--slow-ms` must be at least 1".into()));
        }
        net_config.slow_ms = Some(ms);
    }
    net_config.flight_dir = args.value_of("flight-dir").map(std::path::PathBuf::from);
    cqc_obs::wide::set_enabled(true);
    cqc_obs::flight::set_enabled(true);
    let server = RunningServer::bind(listen, net_config)
        .map_err(|e| CliError::Io(format!("cannot listen on `{listen}`: {e}")))?;
    let addr = server.addr();
    if let Some(path) = addr_file {
        std::fs::write(&path, format!("{addr}\n"))
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    // The readiness line goes to stderr immediately (stdout carries the
    // final report only after shutdown).
    eprintln!("cqc serve: listening on {addr} (http + ndjson); send a line to stdin to shut down");
    let handle = server.handle();
    // The signal pipe: a detached reader signals graceful shutdown when a
    // line arrives on stdin (`echo stop > the-fifo`). Plain EOF — a closed
    // stdin, e.g. `< /dev/null` on a detached server — is deliberately
    // *not* a signal, so daemonised servers run until killed or until
    // `--max-requests` fires (in which case the process exits and takes
    // this thread with it).
    #[expect(
        clippy::disallowed_methods,
        reason = "the signal pipe blocks on stdin for the server's life; a pool worker would be lost to it"
    )]
    std::thread::Builder::new()
        .name("cqc-serve-signal-pipe".into())
        .spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) | Err(_) => {} // EOF/unreadable: park, never signal
                Ok(_) => handle.signal(),
            }
        })
        .map_err(|e| CliError::Io(format!("cannot spawn the signal-pipe thread: {e}")))?;
    let served = server.wait();
    let mut text = String::new();
    if !args.switch("quiet") {
        text.push_str(&format!(
            "served      : {served} request(s) on {addr} (http + ndjson)\n"
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use std::path::PathBuf;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cqc-cli-serve-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    const DB: &str = "\
universe 6
relation E 2
E 0 1
E 0 2
E 1 2
E 2 3
E 3 4
E 3 5
E 5 0
";

    fn request_line(db_path: &str, shards: usize) -> String {
        format!(
            r#"{{"id": 9, "query": "ans(x) :- E(x, y), E(x, z), y != z", "db_files": ["{db_path}"], "seed": 5, "shards": {shards}}}"#
        )
    }

    #[test]
    fn serve_answers_requests_from_a_file() {
        // `db_files` entries must lie under the server's working directory
        // (the crate directory under `cargo test`), so the database is
        // written there and named by a relative path.
        let db = format!("cqc-cli-serve-{}-db.facts", std::process::id());
        std::fs::write(&db, DB).unwrap();
        let requests = write_temp(
            "reqs.jsonl",
            &format!("{}\n{}\n", request_line(&db, 1), request_line(&db, 2)),
        );
        let out =
            run_serve(&args_from(["serve", "--requests", requests.to_str().unwrap()]).unwrap())
                .unwrap();
        assert_eq!(out.matches("\"results\":").count(), 2, "{out}");
        assert!(
            out.contains("served      : 2 request(s), 1 cached plan(s)"),
            "{out}"
        );
        // unsharded and 2-way sharded responses agree byte-for-byte
        // (modulo the echoed shard count)
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0].replace("\"shards\":1", "\"shards\":N"),
            lines[1].replace("\"shards\":2", "\"shards\":N")
        );
        std::fs::remove_file(db).ok();
        std::fs::remove_file(requests).ok();
    }

    #[test]
    fn serve_reports_errors_inline_and_keeps_going() {
        let requests = write_temp("bad.jsonl", "{\"id\": 1}\nnot json\n");
        let out = run_serve(
            &args_from(["serve", "--requests", requests.to_str().unwrap(), "--quiet"]).unwrap(),
        )
        .unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        for line in out.lines() {
            assert!(line.contains("\"error\""), "{line}");
        }
        std::fs::remove_file(requests).ok();
    }

    #[test]
    fn zero_shards_is_a_usage_error() {
        let err = run_serve(&args_from(["serve", "--shards", "0"]).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_serve(&args_from(["serve", "--plan-cache", "0"]).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_serve(
            &args_from(["serve", "--listen", "127.0.0.1:0", "--max-requests", "0"]).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        for flag in ["--max-connections", "--queue-limit"] {
            let err =
                run_serve(&args_from(["serve", "--listen", "127.0.0.1:0", flag, "0"]).unwrap())
                    .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag}");
        }
        let err = run_serve(
            &args_from(["serve", "--listen", "127.0.0.1:0", "--queue-limit", "lots"]).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn listen_mode_serves_tcp_and_honours_max_requests() {
        use std::io::{BufRead, BufReader, Write};

        let addr_file = {
            let mut p = std::env::temp_dir();
            p.push(format!("cqc-cli-serve-listen-{}.addr", std::process::id()));
            p
        };
        std::fs::remove_file(&addr_file).ok();
        let addr_file_arg = addr_file.to_str().unwrap().to_string();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test drives a blocking server from its own thread"
        )]
        let server = std::thread::spawn(move || {
            run_serve(
                &args_from([
                    "serve",
                    "--listen",
                    "127.0.0.1:0",
                    "--max-requests",
                    "2",
                    "--addr-file",
                    &addr_file_arg,
                ])
                .unwrap(),
            )
            .unwrap()
        });
        // wait (bounded) for the readiness file, then drive the server
        // over raw NDJSON; the deadline turns a wedged server thread into
        // a test failure instead of a suite hang
        let waited = cqc_obs::Stopwatch::start();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    break text.trim().to_string();
                }
            }
            assert!(
                waited.elapsed() < std::time::Duration::from_secs(30),
                "server never wrote its addr file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for id in [1u32, 2] {
            let line = format!(
                r#"{{"id": {id}, "query": "ans(x) :- E(x, y), E(x, z), y != z", "dbs": ["universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n"], "seed": 7, "method": "exact"}}"#
            );
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(response.contains("\"estimate\":2,"), "{response}");
        }
        // --max-requests 2 reached: the server shuts down by itself
        let out = server.join().unwrap();
        assert!(out.contains("served      : 2 request(s)"), "{out}");
        std::fs::remove_file(&addr_file).ok();
    }

    #[test]
    fn missing_requests_file_is_an_io_error() {
        let err =
            run_serve(&args_from(["serve", "--requests", "/nonexistent/requests.jsonl"]).unwrap())
                .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
