//! The `loadgen` command: a deterministic closed-loop load generator for
//! the TCP serving front end (see `cqc-net`).
//!
//! By default the command self-hosts a server on an ephemeral loopback
//! port, drives it with the seeded request mix of `cqc_workloads::mix`,
//! shuts it down gracefully, and reports throughput plus latency
//! percentiles, writing the machine-readable report to `BENCH_serve.json`.
//! `--connect ADDR` drives an already-running server instead.
//!
//! The per-run transcript (response lines in request order) is the
//! determinism witness: two runs with the same `--seed` produce
//! byte-identical transcripts whatever `--connections`, `--threads`,
//! `--shards` or `--protocol` say. `--transcript PATH` saves it for
//! comparison; CI diffs two runs on every push.

use crate::common::approx_config;
use crate::{Args, CliError};
use cqc_net::loadgen::{
    bench_json, obs_bench_json, obs_overhead, run_against, run_scaling, scaling_bench_json,
    transcript_fingerprint, LoadgenOptions, Protocol,
};
use cqc_net::{NetConfig, RunningServer};
use cqc_serve::ServerConfig;
use std::net::{SocketAddr, ToSocketAddrs};

/// Measured `(observability-off, observability-on)` pairs an `--obs-bench`
/// run produces, in repeat order. A single back-to-back pair is too noisy
/// to commit — scheduler jitter regularly makes the *second* run of a pair
/// faster, reporting a nonsensical negative overhead — so the bench runs
/// several interleaved pairs and reports the median.
const OBS_BENCH_REPEATS: usize = 5;

/// The extra measurements of an `--obs-bench` run: every measured
/// `(off, on)` pair and the merged trace of the observability-on runs.
struct ObsRun {
    pairs: Vec<(cqc_net::LoadReport, cqc_net::LoadReport)>,
    trace: cqc_obs::trace::Trace,
}

/// Flip every observability recorder — tracer, wide-event log, flight
/// recorder — together. The obs bench measures the whole stack, not just
/// the tracer.
fn set_observability(on: bool) {
    cqc_obs::trace::set_enabled(on);
    cqc_obs::wide::set_enabled(on);
    cqc_obs::flight::set_enabled(on);
}

/// Drive `addr` with the mix. Plain runs honour `trace` (tracing on for
/// the run, drained by the caller). `--obs-bench` runs measure the full
/// observability stack: a discarded warm-up (plan cache, pool spin-up),
/// then [`OBS_BENCH_REPEATS`] interleaved `(off, on)` pairs — same server,
/// same mix — summarised by their median overhead.
fn execute(
    addr: SocketAddr,
    options: &LoadgenOptions,
    obs_bench: bool,
    trace: bool,
) -> std::io::Result<(cqc_net::LoadReport, Option<ObsRun>)> {
    if !obs_bench {
        cqc_obs::trace::set_enabled(trace);
        let report = run_against(addr, options);
        cqc_obs::trace::set_enabled(false);
        return Ok((report?, None));
    }
    set_observability(false);
    let _ = cqc_obs::trace::drain(); // isolate from earlier traffic
    cqc_obs::flight::reset();
    run_against(addr, options)?; // warm-up, discarded
    let mut pairs = Vec::with_capacity(OBS_BENCH_REPEATS);
    let mut events = Vec::new();
    let mut dropped = 0;
    for _ in 0..OBS_BENCH_REPEATS {
        let off = run_against(addr, options)?;
        set_observability(true);
        let on = run_against(addr, options);
        set_observability(false);
        let mut t = cqc_obs::trace::drain();
        events.append(&mut t.events);
        dropped += t.dropped;
        cqc_obs::flight::reset(); // each pair starts with empty rings
        pairs.push((off, on?));
    }
    let trace = cqc_obs::trace::Trace { events, dropped };
    let first_off = pairs[0].0.clone();
    Ok((first_off, Some(ObsRun { pairs, trace })))
}

/// Run `cqc loadgen`.
pub fn run_loadgen(args: &Args) -> Result<String, CliError> {
    let cfg = approx_config(args)?;
    let requests: usize = args.get_or("requests", 100)?;
    if requests == 0 {
        return Err(CliError::Usage("`--requests` must be at least 1".into()));
    }
    let connections: usize = args.get_or("connections", 4)?;
    if connections == 0 {
        return Err(CliError::Usage("`--connections` must be at least 1".into()));
    }
    let protocol = match args.value_of("protocol") {
        None => Protocol::Http,
        Some(raw) => Protocol::parse(raw).ok_or_else(|| {
            CliError::Usage(format!("unknown protocol `{raw}` (expected http | ndjson)"))
        })?,
    };
    let shards: Option<usize> =
        match args.value_of("shards") {
            None => None,
            Some(raw) => Some(raw.parse().map_err(|e| {
                CliError::Usage(format!("invalid value `{raw}` for `--shards`: {e}"))
            })?),
        };
    if shards == Some(0) {
        return Err(CliError::Usage("`--shards` must be at least 1".into()));
    }
    let method = args.value_of("method").map(str::to_string);
    // `--suite <class>` swaps the curated mix for the enumerated suite of
    // one Figure-1 class; unknown class names are structured usage errors
    // (exit code 2), not silent fallbacks.
    let suite = match args.value_of("suite") {
        None => None,
        Some(raw) => Some(cqc_workloads::parse_class(raw).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown suite class `{raw}` (expected cq | dcq | ecq)"
            ))
        })?),
    };
    // The mix carries its own per-request accuracy defaults; explicit
    // `--epsilon`/`--delta` override them for every request (passing the
    // validated values through `approx_config`).
    let accuracy = if args.value_of("epsilon").is_some() || args.value_of("delta").is_some() {
        Some((cfg.epsilon, cfg.delta))
    } else {
        None
    };
    let options = LoadgenOptions {
        requests,
        connections,
        seed: cfg.seed,
        shards,
        method,
        accuracy,
        protocol,
        suite,
    };

    // Tracing and the tracing-overhead bench are managed here, not in
    // `run()`: `--obs-bench` needs a tracing-off run before the tracing-on
    // one, against one shared server.
    let trace_path = args.value_of("trace").map(str::to_string);
    let obs_bench_path = args.value_of("obs-bench").map(str::to_string);

    // `--scaling 64,256,1024` sweeps the same mix across connection
    // counts; it has its own report shape and exits early.
    if let Some(raw) = args.value_of("scaling") {
        if obs_bench_path.is_some() || trace_path.is_some() {
            return Err(CliError::Usage(
                "`--scaling` cannot be combined with `--obs-bench` or `--trace`".into(),
            ));
        }
        let raw = raw.to_string();
        return run_scaling_sweep(args, &raw, &options, &cfg);
    }

    // Self-host unless `--connect` points at a running server.
    let (report, obs, hosted) = match args.value_of("connect") {
        Some(raw) => {
            let addr = raw
                .to_socket_addrs()
                .map_err(|e| CliError::Usage(format!("cannot resolve `{raw}`: {e}")))?
                .next()
                .ok_or_else(|| CliError::Usage(format!("`{raw}` resolves to no address")))?;
            let (report, obs) = execute(
                addr,
                &options,
                obs_bench_path.is_some(),
                trace_path.is_some(),
            )
            .map_err(|e| CliError::Io(format!("loadgen against {addr}: {e}")))?;
            (report, obs, None)
        }
        None => {
            let server = RunningServer::bind(
                "127.0.0.1:0",
                NetConfig {
                    serve: ServerConfig {
                        threads: cfg.threads,
                        epsilon: cfg.epsilon,
                        delta: cfg.delta,
                        ..ServerConfig::default()
                    },
                    max_requests: None,
                    ..NetConfig::default()
                },
            )
            .map_err(|e| CliError::Io(format!("cannot bind loopback server: {e}")))?;
            let addr = server.addr();
            let (report, obs) = execute(
                addr,
                &options,
                obs_bench_path.is_some(),
                trace_path.is_some(),
            )
            .map_err(|e| CliError::Io(format!("loadgen against {addr}: {e}")))?;
            let served = server.shutdown();
            (report, obs, Some((addr, served)))
        }
    };

    let bench_path = args.get_or("bench-out", "BENCH_serve.json".to_string())?;
    std::fs::write(&bench_path, format!("{}\n", bench_json(&report)))
        .map_err(|e| CliError::Io(format!("cannot write `{bench_path}`: {e}")))?;
    let transcript_path = args.value_of("transcript").map(str::to_string);
    if let Some(path) = &transcript_path {
        std::fs::write(path, &report.transcript)
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    if let (Some(path), Some(obs)) = (&obs_bench_path, &obs) {
        let doc = obs_bench_json(&obs.pairs, obs.trace.events.len() as u64);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    let mut trace_events = None;
    if let Some(path) = &trace_path {
        // With `--obs-bench` the trace of the tracing-on run was already
        // drained by `execute`; a plain traced run drains here.
        let trace = match &obs {
            Some(obs) => obs.trace.clone(),
            None => cqc_obs::trace::drain(),
        };
        trace_events = Some(trace.events.len() as u64);
        std::fs::write(path, trace.to_ndjson())
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }

    let mut text = String::new();
    if !args.switch("quiet") {
        match hosted {
            Some((addr, served)) => text.push_str(&format!(
                "server      : self-hosted on {addr}, served {served} request(s)\n"
            )),
            None => text.push_str("server      : external (--connect)\n"),
        }
        text.push_str(&format!(
            "loadgen     : {requests} request(s), {connections} connection(s), protocol={}, mix={}, seed={}, shards={}, method={}\n",
            options.protocol.name(),
            options
                .suite
                .map_or("curated".to_string(), |c| {
                    format!("suite:{}", cqc_workloads::class_name(c))
                }),
            options.seed,
            options
                .shards
                .map_or("request-default".to_string(), |s| s.to_string()),
            options.method.as_deref().unwrap_or("auto"),
        ));
        text.push_str(&format!(
            "throughput  : {:.1} req/s over {:.3} s\n",
            report.throughput_rps,
            report.wall.as_secs_f64()
        ));
        text.push_str(&format!(
            "latency_ms  : p50={:.3} p95={:.3} p99={:.3}\n",
            report.p50_ms, report.p95_ms, report.p99_ms
        ));
        text.push_str(&format!(
            "responses   : {} error(s), {} byte(s), transcript fnv1a {:016x}\n",
            report.errors,
            report.bytes_received,
            transcript_fingerprint(&report.transcript)
        ));
        text.push_str(&format!("bench       : wrote {bench_path}\n"));
        if let Some(path) = &transcript_path {
            text.push_str(&format!("transcript  : wrote {path}\n"));
        }
        if let (Some(path), Some(obs)) = (&obs_bench_path, &obs) {
            let stats = obs_overhead(&obs.pairs);
            let identical = obs.pairs.iter().all(|(off, on)| {
                off.transcript == report.transcript && on.transcript == report.transcript
            });
            text.push_str(&format!(
                "obs bench   : wrote {path} ({} repeat(s), median overhead {:+.2}%, min {:+.2}%, {} event(s), transcripts identical: {})\n",
                obs.pairs.len(),
                stats.median_pct,
                stats.min_pct,
                obs.trace.events.len(),
                identical,
            ));
        }
        if let (Some(path), Some(events)) = (&trace_path, trace_events) {
            text.push_str(&format!(
                "trace       : wrote {events} event(s) to {path}\n"
            ));
        }
    }
    Ok(text)
}

/// `cqc loadgen --scaling C1,C2,…`: replay the same mix at each connection
/// count (see `cqc_net::loadgen::run_scaling`) and write the
/// `serve_scaling` bench document. Transcript divergence across points is
/// a hard error (non-zero exit) — determinism under concurrency is the
/// contract the sweep exists to witness.
fn run_scaling_sweep(
    args: &Args,
    raw_counts: &str,
    options: &LoadgenOptions,
    cfg: &cqc_core::ApproxConfig,
) -> Result<String, CliError> {
    let counts: Vec<usize> = raw_counts
        .split(',')
        .map(|part| {
            let n: usize = part.trim().parse().map_err(|e| {
                CliError::Usage(format!("invalid `--scaling` count `{}`: {e}", part.trim()))
            })?;
            if n == 0 {
                return Err(CliError::Usage(
                    "`--scaling` counts must be at least 1".into(),
                ));
            }
            Ok(n)
        })
        .collect::<Result<_, _>>()?;
    if counts.is_empty() {
        return Err(CliError::Usage(
            "`--scaling` needs at least one connection count".into(),
        ));
    }
    let max_count = counts.iter().copied().max().unwrap_or(1);

    // Self-host unless `--connect` points at a running server; the hosted
    // server's admission caps are raised above the largest point, so the
    // sweep measures the curve instead of tripping its own load shedding.
    let (report, hosted) = match args.value_of("connect") {
        Some(raw) => {
            let addr = raw
                .to_socket_addrs()
                .map_err(|e| CliError::Usage(format!("cannot resolve `{raw}`: {e}")))?
                .next()
                .ok_or_else(|| CliError::Usage(format!("`{raw}` resolves to no address")))?;
            let report = run_scaling(addr, options, &counts)
                .map_err(|e| CliError::Io(format!("scaling sweep against {addr}: {e}")))?;
            (report, None)
        }
        None => {
            let server = RunningServer::bind(
                "127.0.0.1:0",
                NetConfig {
                    serve: ServerConfig {
                        threads: cfg.threads,
                        epsilon: cfg.epsilon,
                        delta: cfg.delta,
                        ..ServerConfig::default()
                    },
                    max_requests: None,
                    max_connections: max_count + 16,
                    dispatch_queue_limit: max_count.max(256),
                    ..NetConfig::default()
                },
            )
            .map_err(|e| CliError::Io(format!("cannot bind loopback server: {e}")))?;
            let addr = server.addr();
            let report = run_scaling(addr, options, &counts)
                .map_err(|e| CliError::Io(format!("scaling sweep against {addr}: {e}")))?;
            let served = server.shutdown();
            (report, Some((addr, served)))
        }
    };

    // The bench document is written before the divergence check, so a
    // failing sweep still leaves the evidence on disk.
    let bench_path = args.get_or("bench-out", "BENCH_serve.json".to_string())?;
    std::fs::write(&bench_path, format!("{}\n", scaling_bench_json(&report)))
        .map_err(|e| CliError::Io(format!("cannot write `{bench_path}`: {e}")))?;
    if let Some(path) = args.value_of("transcript") {
        let transcript = report
            .points
            .first()
            .map_or("", |p| p.report.transcript.as_str());
        std::fs::write(path, transcript)
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    }
    if !report.transcripts_identical {
        return Err(CliError::Count(format!(
            "connection-scaling transcripts diverged across {:?} connections (seed {}): \
             responses depended on concurrency",
            counts, report.options.seed
        )));
    }

    let mut text = String::new();
    if !args.switch("quiet") {
        match hosted {
            Some((addr, served)) => text.push_str(&format!(
                "server      : self-hosted on {addr}, served {served} request(s)\n"
            )),
            None => text.push_str("server      : external (--connect)\n"),
        }
        text.push_str(&format!(
            "scaling     : {} request(s)/point, protocol={}, seed={}, method={}, {} point(s)\n",
            report.options.requests,
            report.options.protocol.name(),
            report.options.seed,
            report.options.method.as_deref().unwrap_or("auto"),
            report.points.len(),
        ));
        for point in &report.points {
            text.push_str(&format!(
                "  c={:<6}: {:8.1} req/s  p50={:.3} p95={:.3} p99={:.3} ms  {} error(s)\n",
                point.connections,
                point.report.throughput_rps,
                point.report.p50_ms,
                point.report.p95_ms,
                point.report.p99_ms,
                point.report.errors,
            ));
        }
        text.push_str("transcripts : identical across all points\n");
        text.push_str(&format!("bench       : wrote {bench_path}\n"));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args_from;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cqc-cli-loadgen-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn loadgen_self_hosts_and_writes_reports() {
        let bench = temp("bench.json");
        let transcript = temp("transcript.ndjson");
        let out = run_loadgen(
            &args_from([
                "loadgen",
                "--requests",
                "6",
                "--connections",
                "2",
                "--seed",
                "11",
                "--method",
                "exact",
                "--bench-out",
                bench.to_str().unwrap(),
                "--transcript",
                transcript.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("loadgen     : 6 request(s)"), "{out}");
        assert!(out.contains("responses   : 0 error(s)"), "{out}");
        let bench_text = std::fs::read_to_string(&bench).unwrap();
        assert!(
            cqc_serve::json::parse(bench_text.trim()).is_ok(),
            "{bench_text}"
        );
        let lines = std::fs::read_to_string(&transcript).unwrap();
        assert_eq!(lines.lines().count(), 6);
        std::fs::remove_file(bench).ok();
        std::fs::remove_file(transcript).ok();
    }

    #[test]
    fn same_seed_same_transcript_different_concurrency() {
        let runs: Vec<String> = [("1", "a"), ("3", "b")]
            .into_iter()
            .map(|(connections, tag)| {
                let transcript = temp(&format!("det-{tag}.ndjson"));
                let bench = temp(&format!("det-{tag}-bench.json"));
                run_loadgen(
                    &args_from([
                        "loadgen",
                        "--requests",
                        "8",
                        "--connections",
                        connections,
                        "--seed",
                        "99",
                        "--method",
                        "exact",
                        "--protocol",
                        if tag == "a" { "http" } else { "ndjson" },
                        "--bench-out",
                        bench.to_str().unwrap(),
                        "--transcript",
                        transcript.to_str().unwrap(),
                        "--quiet",
                    ])
                    .unwrap(),
                )
                .unwrap();
                let text = std::fs::read_to_string(&transcript).unwrap();
                std::fs::remove_file(&transcript).ok();
                std::fs::remove_file(&bench).ok();
                text
            })
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "transcripts drifted across connections/protocol"
        );
    }

    #[test]
    fn obs_bench_measures_overhead_without_changing_bytes() {
        let bench = temp("obs-bench.json");
        let trace = temp("obs-trace.ndjson");
        let out = run_loadgen(
            &args_from([
                "loadgen",
                "--requests",
                "6",
                "--connections",
                "2",
                "--seed",
                "5",
                "--method",
                "exact",
                "--bench-out",
                temp("obs-serve-bench.json").to_str().unwrap(),
                "--obs-bench",
                bench.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("transcripts identical: true"), "{out}");
        let doc = std::fs::read_to_string(&bench).unwrap();
        let v = cqc_serve::json::parse(doc.trim()).unwrap();
        assert_eq!(
            v.get("bench").and_then(|b| b.as_str()),
            Some("obs_trace_overhead")
        );
        assert_eq!(
            v.get("repeats").and_then(|r| r.as_u64()),
            Some(OBS_BENCH_REPEATS as u64)
        );
        assert!(v.get("overhead_pct_median").is_some(), "{doc}");
        assert!(v.get("overhead_pct_min").is_some(), "{doc}");
        assert!(doc.contains("\"transcripts_identical\":true"), "{doc}");
        // the tracing-on run recorded request/work_item spans
        let ndjson = std::fs::read_to_string(&trace).unwrap();
        assert!(ndjson.contains("\"name\":\"request\""), "{ndjson}");
        assert!(ndjson.contains("\"name\":\"work_item\""), "{ndjson}");
        std::fs::remove_file(&bench).ok();
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(temp("obs-serve-bench.json")).ok();
    }

    #[test]
    fn invalid_options_are_usage_errors() {
        for bad in [
            vec!["loadgen", "--requests", "0"],
            vec!["loadgen", "--connections", "0"],
            vec!["loadgen", "--protocol", "smoke-signals"],
            vec!["loadgen", "--shards", "0"],
            vec!["loadgen", "--connect", "not-an-address"],
            vec!["loadgen", "--suite", "xcq"],
            vec!["loadgen", "--suite", ""],
        ] {
            let err = run_loadgen(&args_from(bad.clone()).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
        }
        // the exit-code convention: usage errors (unknown suite included)
        // exit 2, success exits 0
        let result = crate::run(&[
            "loadgen".to_string(),
            "--suite".to_string(),
            "xcq".to_string(),
        ]);
        assert_eq!(crate::exit_code(&result), 2);
    }

    #[test]
    fn scaling_sweep_writes_the_curve_and_checks_determinism() {
        let bench = temp("scaling-bench.json");
        let out = run_loadgen(
            &args_from([
                "loadgen",
                "--requests",
                "12",
                "--seed",
                "17",
                "--method",
                "exact",
                "--scaling",
                "2,6",
                "--bench-out",
                bench.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("scaling     : 12 request(s)/point"), "{out}");
        assert!(out.contains("c=2"), "{out}");
        assert!(out.contains("c=6"), "{out}");
        assert!(
            out.contains("transcripts : identical across all points"),
            "{out}"
        );
        let doc = std::fs::read_to_string(&bench).unwrap();
        let v = cqc_serve::json::parse(doc.trim()).unwrap();
        assert_eq!(
            v.get("bench").and_then(|b| b.as_str()),
            Some("serve_scaling")
        );
        assert!(doc.contains("\"transcripts_identical\":true"), "{doc}");
        std::fs::remove_file(&bench).ok();
    }

    #[test]
    fn scaling_rejects_malformed_counts_and_obs_bench() {
        for bad in [
            vec!["loadgen", "--scaling", ""],
            vec!["loadgen", "--scaling", "0"],
            vec!["loadgen", "--scaling", "4,x"],
            vec!["loadgen", "--scaling", "4", "--obs-bench", "x.json"],
            vec!["loadgen", "--scaling", "4", "--trace", "x.ndjson"],
        ] {
            let err = run_loadgen(&args_from(bad.clone()).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn suite_mix_drives_an_enumerated_class() {
        let bench = temp("suite-bench.json");
        let out = run_loadgen(
            &args_from([
                "loadgen",
                "--requests",
                "4",
                "--connections",
                "2",
                "--seed",
                "21",
                "--suite",
                "dcq",
                "--method",
                "exact",
                "--bench-out",
                bench.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("mix=suite:DCQ"), "{out}");
        assert!(out.contains("responses   : 0 error(s)"), "{out}");
        let doc = std::fs::read_to_string(&bench).unwrap();
        let v = cqc_serve::json::parse(doc.trim()).unwrap();
        assert_eq!(v.get("suite").and_then(|s| s.as_str()), Some("DCQ"));
        std::fs::remove_file(&bench).ok();
    }
}
