//! # cqc-cli — command-line interface for `cqcount`
//!
//! A small tool exposing the library's counting, sampling and classification
//! machinery on databases stored in the textual facts-file format of
//! [`cqc_data::io`]:
//!
//! ```text
//! cqc generate --family erdos-renyi --n 200 --avg-degree 3 --out social.facts
//! cqc count    --db social.facts --query "ans(x) :- E(x, y), E(x, z), y != z"
//! cqc sample   --db social.facts --query "ans(x) :- E(x, y), E(x, z), y != z" --count 5
//! cqc classify --query "ans(x1, x2) :- E(y, x1), E(y, x2), x1 != x2"
//! cqc exact    --db social.facts --query "ans(x, y) :- E(x, z), E(z, y)"
//! ```
//!
//! Every command is implemented as a library function returning its output as
//! a `String`, so the test suite can exercise the tool end to end without
//! spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod classify;
pub mod count;
pub mod generate;
pub mod loadgen;
pub mod report;
pub mod sample;
pub mod serve;
pub mod suite;

use std::fmt;

pub use args::{args_from, Args};

/// Errors surfaced by the command-line tool.
#[derive(Debug, Clone)]
pub enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// The query text could not be parsed.
    Query(String),
    /// A facts file could not be read or written.
    Io(String),
    /// The database file is malformed.
    Facts(String),
    /// The counting algorithm rejected the instance.
    Count(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Query(m) => write!(f, "query error: {m}"),
            CliError::Io(m) => write!(f, "io error: {m}"),
            CliError::Facts(m) => write!(f, "facts file error: {m}"),
            CliError::Count(m) => write!(f, "counting error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text printed by `cqc help` (and on usage errors).
pub const USAGE: &str = "\
cqc — approximately counting answers to conjunctive queries with disequalities and negations

USAGE:
    cqc <COMMAND> [OPTIONS]

COMMANDS:
    count      Estimate |Ans(ϕ, D)| (plan once with the engine, then evaluate;
               FPRAS / FPTRAS / exact dispatched per Figure 1)
    exact      Count |Ans(ϕ, D)| exactly (enumerate solutions with a join,
               then project; the floor every scheme is measured against)
    sample     Draw approximately uniform answers (Section 6)
    serve      Answer newline-delimited JSON count requests, sharding each
               request's databases across the persistent worker pool —
               responses are byte-identical for every shard count; with
               --listen, serve HTTP/1.1 + raw NDJSON over TCP
    loadgen    Drive the TCP front end with a seeded, deterministic request
               mix (closed loop); report throughput and latency percentiles
               and write BENCH_serve.json
    classify   Report the query class and its width measures (Figure 1 column)
    generate   Generate a workload database and write it as a facts file
    suite      Run the enumerated workload suites (CQ/DCQ/ECQ) end to end —
               engine phase (count/count_batch/sample) plus serve phase over
               TCP — and write the BENCH_workloads.json trajectory point;
               `suite manifest` prints the golden enumeration manifest
    report     Summarise a --trace NDJSON file offline (`report flame`:
               folded flame stacks + a per-phase wall-time table), render
               a BENCH_workloads.json table and diff it against the committed
               baseline (`report bench`), or analyse a wide-event request
               log: slowest requests, per-class latency, shed timeline
               (`report requests`)
    help       Show this message

COMMON OPTIONS:
    --query TEXT          query in textual syntax, e.g. \"ans(x) :- E(x, y), E(x, z), y != z\"
    --query-file PATH     read the query text from a file instead
    --db PATH             database in facts-file format; `count` accepts extra
                          facts files as positional arguments and evaluates the
                          single prepared plan against each of them
    --epsilon E           relative error (default 0.25)
    --delta D             failure probability (default 0.05)
    --seed S              RNG seed (default 0xC0FFEE)
    --threads N           worker threads; 0 = auto (COUNTING_THREADS env, else
                          available parallelism). Estimates are bit-identical
                          for any thread count (deterministic seed-splitting).
                          With --listen it also sizes the pool that runs
                          requests (at least 2 workers)
    --method M            auto | fpras | fptras | exact   (count only, default auto)
    --repeat N            evaluate each database N times reusing the prepared
                          plan, reporting amortised timings (count only, default 1)
    --count N             number of samples                (sample only, default 10)
    --names               print element names instead of indices (sample only)
    --trace PATH          record structured trace events (spans with
                          deterministic seed-derived IDs) and write them as
                          NDJSON; never changes estimates or response bytes
                          (count, exact, sample, serve, loadgen)

SERVE OPTIONS:
    --requests PATH       newline-delimited JSON request file (default: stdin)
    --shards K            simulated shards per request (default 1); responses
                          are byte-identical for every K (seed splitting)
    --listen ADDR         serve over TCP instead (HTTP/1.1 POST /count,
                          POST /stream, GET /healthz, GET /metrics, plus the
                          read-only GET /debug/requests, /debug/flight and
                          /debug/loop introspection endpoints — plus raw
                          NDJSON sniffed on the same port); stdin is the
                          signal pipe: any line triggers graceful shutdown
                          (EOF alone is ignored so detached servers keep
                          running)
    --max-requests N      with --listen: shut down after N count requests
    --max-connections N   with --listen: admission cap on concurrent
                          connections (default 4096); connections over the
                          cap get a load-shed response (HTTP 503 / NDJSON
                          error line), never a silent close
    --queue-limit N       with --listen: bound on dispatched requests
                          queued or executing (default 256); requests over
                          the bound are shed per-request with the same
                          overload bytes while the connection stays usable
    --addr-file PATH      with --listen: write the bound address to PATH
                          (useful with `--listen 127.0.0.1:0`)
    --request-log PATH    with --listen: append one wide NDJSON record per
                          request (id, class, queue/handle/phase times,
                          outcome) to PATH; `cqc report requests` consumes it
    --slow-ms N           with --listen: dump the flight recorder when a
                          request's handling exceeds N ms (needs --flight-dir)
    --flight-dir DIR      with --listen: write flight-recorder snapshots
                          (recent trace + wide events) into DIR on handler
                          panics, shed bursts and --slow-ms requests
    --plan-cache N        LRU capacity of the prepared-plan cache (default 64)
    --quiet               omit the trailing served/plans summary line

LOADGEN OPTIONS:
    --requests N          size of the deterministic request mix (default 100)
    --connections C       concurrent closed-loop connections (default 4)
    --protocol P          http | ndjson                      (default http)
    --shards K            add a `shards` member to every request
    --method M            add a `method` member to every request
    --epsilon E --delta D override the mix's per-request accuracy defaults
    --suite CLASS         replay the enumerated suite mix of one Figure-1
                          class (cq | dcq | ecq) instead of the curated mix
    --connect ADDR        drive a running server instead of self-hosting
    --scaling C1,C2,…     sweep the same mix at each connection count and
                          write a `serve_scaling` curve (throughput + p99
                          per point) instead of a single-point report; the
                          self-hosted server's admission caps are raised
                          above the largest point, and transcript
                          divergence across points is a hard error
    --bench-out PATH      machine-readable report (default BENCH_serve.json)
    --transcript PATH     write the id-ordered response transcript; two runs
                          with one seed are byte-identical whatever the
                          concurrency, pool width, shard count or protocol
    --obs-bench PATH      measure observability overhead: warm up, then run
                          several interleaved (off, on) repeats of the mix —
                          tracer, wide-event log and flight recorder toggled
                          together — and write the comparison (median/min
                          overhead_pct and the transcripts_identical
                          invisibility witness)
    --quiet               omit the human-readable summary

SUITE OPTIONS:
    --mode M              kick-tires | full (default kick-tires): presets for
                          queries/class, tuples/db, requests/class and (ε, δ)
    --seed S              suite sampling + request-mix seed (default 0xC0FFEE)
    --per-class N         queries sampled per class (engine phase)
    --tuples T            tuple budget per generated database
    --requests N          serve-phase requests per class
    --connections C       serve-phase closed-loop connections (default 4)
    --epsilon E --delta D engine-phase accuracy (mode-dependent defaults)
    --out PATH            trajectory document (default BENCH_workloads.json)
    --quiet               omit the rendered metrics registry

REPORT OPTIONS (cqc report flame):
    --trace PATH          the NDJSON trace file to analyse (from `--trace`)
    --folded-out PATH     also write the raw folded stacks to PATH, one
                          `path;to;span microseconds` line per stack, for
                          flamegraph tooling

REPORT OPTIONS (cqc report bench):
    --current PATH        the fresh suite run (default BENCH_workloads.json)
    --baseline PATH       the previously committed JSON to diff against;
                          throughput drops beyond 25% are flagged

REPORT OPTIONS (cqc report requests):
    --log PATH            the wide-event NDJSON file to analyse (from
                          `cqc serve --request-log`, a `/debug/requests`
                          scrape, or a flight dump)
    --top N               slowest requests to list (default 10)

GENERATE OPTIONS:
    --family F            erdos-renyi | grid | regular | ternary
    --n N                 number of vertices / universe size
    --avg-degree D        expected out-degree (erdos-renyi)
    --degree D            out-degree (regular)
    --rows R --cols C     grid dimensions
    --facts M             number of facts (ternary)
    --relation NAME       relation name (default E; ignored for ternary)
    --symmetric           also add every reversed edge
    --out PATH            output file (default: stdout)
";

/// Run the tool on the given raw arguments (excluding the program name) and
/// return the textual report it would print.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    let command = args.command.clone().unwrap_or_else(|| "help".to_string());
    // `--trace PATH` turns the tracer on for the traceable commands before
    // dispatch, so spans opened anywhere in the run are captured; the
    // drained NDJSON is written after the command returns. (`loadgen`
    // manages the tracer itself — its `--obs-bench` needs a tracing-off
    // run first.)
    let traced = matches!(command.as_str(), "count" | "exact" | "sample" | "serve")
        .then(|| args.value_of("trace").map(str::to_string))
        .flatten();
    if traced.is_some() {
        cqc_obs::trace::set_enabled(true);
    }
    let mut out = match command.as_str() {
        "count" => count::run_count(&args)?,
        "exact" => count::run_exact(&args)?,
        "sample" => sample::run_sample(&args)?,
        "serve" => serve::run_serve(&args)?,
        "loadgen" => loadgen::run_loadgen(&args)?,
        "classify" => classify::run_classify(&args)?,
        "generate" => generate::run_generate(&args)?,
        "report" => report::run_report(&args)?,
        "suite" => suite::run_suite(&args)?,
        "help" | "--help" | "-h" => USAGE.to_string(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`; run `cqc help`"
            )))
        }
    };
    if let Some(path) = traced {
        let events = common::write_trace(&path)?;
        if !args.switch("quiet") {
            out.push_str(&format!(
                "trace       : wrote {events} event(s) to {path}\n"
            ));
        }
    }
    args.reject_unknown()?;
    Ok(out)
}

/// The process exit code for a [`run`] result: 0 on success, 2 for every
/// error (usage, io, …).
pub fn exit_code<T>(result: &Result<T, CliError>) -> i32 {
    if result.is_ok() {
        0
    } else {
        2
    }
}

/// Shared helpers used by the individual commands.
pub(crate) mod common {
    use super::CliError;
    use crate::Args;
    use cqc_core::ApproxConfig;
    use cqc_data::{parse_facts, Structure};
    use cqc_query::{parse_query, Query};

    /// Load the query from `--query` or `--query-file`.
    pub fn load_query(args: &Args) -> Result<Query, CliError> {
        let text = if let Some(q) = args.value_of("query") {
            q.to_string()
        } else if let Some(path) = args.value_of("query-file") {
            std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?
        } else {
            return Err(CliError::Usage(
                "provide the query with `--query` or `--query-file`".into(),
            ));
        };
        parse_query(text.trim()).map_err(|e| CliError::Query(e.to_string()))
    }

    /// Load a facts file from disk.
    pub fn load_facts_file(path: &str) -> Result<Structure, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
        parse_facts(&text).map_err(|e| CliError::Facts(e.to_string()))
    }

    /// Load the database from `--db`.
    pub fn load_database(args: &Args) -> Result<Structure, CliError> {
        load_facts_file(args.require("db")?)
    }

    /// Disable the tracer, drain every thread's span buffer, and write the
    /// events as NDJSON to `path`. Returns the number of events written.
    pub fn write_trace(path: &str) -> Result<u64, CliError> {
        cqc_obs::trace::set_enabled(false);
        let trace = cqc_obs::trace::drain();
        let events = trace.events.len() as u64;
        std::fs::write(path, trace.to_ndjson())
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
        Ok(events)
    }

    /// Build the approximation configuration from the common options.
    pub fn approx_config(args: &Args) -> Result<ApproxConfig, CliError> {
        let epsilon: f64 = args.get_or("epsilon", 0.25)?;
        let delta: f64 = args.get_or("delta", 0.05)?;
        if !(0.0 < epsilon && epsilon < 1.0) {
            return Err(CliError::Usage("`--epsilon` must lie in (0, 1)".into()));
        }
        if !(0.0 < delta && delta < 1.0) {
            return Err(CliError::Usage("`--delta` must lie in (0, 1)".into()));
        }
        let seed: u64 = args.get_or("seed", 0xC0FFEE)?;
        // 0 = auto (COUNTING_THREADS env, else available parallelism); the
        // thread count never changes estimates, only wall times.
        let threads: usize = args.get_or("threads", 0)?;
        let mut cfg = ApproxConfig::new(epsilon, delta).with_seed(seed);
        cfg.threads = threads;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_is_returned_for_no_command_and_help() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        let out = run(&["help".to_string()]).unwrap();
        assert!(out.contains("classify"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn error_display_variants() {
        assert!(CliError::Query("x".into()).to_string().contains("query"));
        assert!(CliError::Io("x".into()).to_string().contains("io"));
        assert!(CliError::Facts("x".into()).to_string().contains("facts"));
        assert!(CliError::Count("x".into()).to_string().contains("counting"));
    }
}
