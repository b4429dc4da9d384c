//! The sharded counting server.
//!
//! ## Sharding contract
//!
//! A request carries a query, a list of databases (the *work items*) and a
//! request seed. Work item `i` is **always** evaluated under the derived
//! seed `split_seed(request_seed, i)` — regardless of which shard, thread
//! or machine evaluates it. This is the `(seed, work-item index)` scheme of
//! `cqc-runtime` lifted to the serving layer: because an item's estimate is
//! a pure function of `(plan, item seed, database)`, *any* partition of the
//! items across shards merges back — in shard-index order — to exactly the
//! answer a single unsharded node computes. The shard-equivalence tests
//! pin this down to the byte: responses rendered for 1, 2 and 4 shards are
//! identical.
//!
//! Shards here are *simulated*: each shard's slice of items is evaluated by
//! a participant of the persistent worker pool (`cqc_runtime::pool`). A
//! distributed deployment would place each shard on its own machine and
//! merge partials the same way; nothing in the contract changes, which is
//! the point of deriving item seeds instead of threading one RNG stream
//! through the request.

// The serve request path: a panic here turns one bad request into a dead
// worker or connection. A sanctioned site carries a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::json::{parse, Value};
use cqc_core::{Backend, CoreError, Engine, EngineBuilder, EstimateReport, PreparedQuery};
use cqc_data::{parse_facts, Structure};
use cqc_obs::{Counter, Histogram, Registry, Stopwatch};
use cqc_query::parse_query;
use cqc_runtime::{split_seed, Runtime};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tag index deriving a request's span ID from its seed
/// (`split_seed(request_seed, REQUEST_SPAN_TAG)`); work-item spans hang off
/// it with per-item IDs `split_seed(request_seed, item)`.
const REQUEST_SPAN_TAG: u64 = 0x5245_5154; // "REQT"

/// Errors surfaced by the serving front end (rendered into `error`
/// responses by the request loop).
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request line is not valid JSON or misses required members.
    Request(String),
    /// The query text could not be parsed.
    Query(String),
    /// A database could not be parsed or read.
    Database(String),
    /// Planning or evaluation failed.
    Count(String),
    /// Writing a response failed.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Request(m) => write!(f, "bad request: {m}"),
            ServeError::Query(m) => write!(f, "query error: {m}"),
            ServeError::Database(m) => write!(f, "database error: {m}"),
            ServeError::Count(m) => write!(f, "counting error: {m}"),
            ServeError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Server-wide defaults; individual requests may override the accuracy,
/// seed and shard count per request.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated shards a request's work items are partitioned across
    /// (requests may override with a `"shards"` member). The shard count
    /// never affects results — only which pool participant computes what.
    pub shards: usize,
    /// Worker threads for each shard's inner evaluations (`0` = auto).
    pub threads: usize,
    /// Default relative error `ε`.
    pub epsilon: f64,
    /// Default failure probability `δ`.
    pub delta: f64,
    /// Default request seed.
    pub seed: u64,
    /// Maximum number of prepared plans kept in the LRU cache (clamped to
    /// at least 1). Plans are bounded-size but not small — a long-running
    /// server facing many distinct (query, accuracy) keys must not grow
    /// without limit. Evictions are counted in [`StatsSnapshot`].
    pub plan_cache_capacity: usize,
    /// Honour the deliberate failure hooks in requests (a `"panic": true`
    /// member makes the handler panic). **Test harnesses only** — crash
    /// paths (panic containment, flight-recorder dumps) cannot be
    /// exercised end-to-end without a way to make a real handler fail. The
    /// CLI never sets this, so the member is inert in production.
    pub fail_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            threads: 0,
            epsilon: 0.25,
            delta: 0.05,
            seed: 0xC0FFEE,
            plan_cache_capacity: 64,
            fail_injection: false,
        }
    }
}

/// Per-request `workers` values above this are rejected as absurd: no
/// deployment has tens of thousands of cores, and a typo'd huge width
/// would otherwise ask the runtime for that many scoped threads.
pub const MAX_REQUEST_WORKERS: u64 = 4096;

/// A request may ask for at most this many shards **per work item** —
/// beyond that every extra shard is guaranteed empty and the request is
/// almost certainly malformed (e.g. `shards` confused with a size).
pub const MAX_SHARDS_PER_ITEM: usize = 16;

/// Monotonic serving counters, updated by [`Server::handle_line`] and the
/// plan cache. All counters are shared `cqc-obs` series (relaxed atomics)
/// — they feed the `/metrics` endpoint of `cqc-net` via
/// [`Server::register_metrics`] and never influence results.
#[derive(Debug)]
struct ServerCounters {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    work_items: Arc<Counter>,
    plan_cache_hits: Arc<Counter>,
    plan_cache_misses: Arc<Counter>,
    plan_cache_evictions: Arc<Counter>,
    oracle_calls: Arc<Counter>,
    colour_repetitions: Arc<Counter>,
    shard_merge: Arc<Histogram>,
}

impl Default for ServerCounters {
    fn default() -> Self {
        ServerCounters {
            requests: Arc::new(Counter::new()),
            errors: Arc::new(Counter::new()),
            work_items: Arc::new(Counter::new()),
            plan_cache_hits: Arc::new(Counter::new()),
            plan_cache_misses: Arc::new(Counter::new()),
            plan_cache_evictions: Arc::new(Counter::new()),
            oracle_calls: Arc::new(Counter::new()),
            colour_repetitions: Arc::new(Counter::new()),
            shard_merge: Arc::new(Histogram::default()),
        }
    }
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Request lines handled (including ones answered with an error).
    pub requests: u64,
    /// Requests answered with an `error` response.
    pub errors: u64,
    /// Work items (databases) evaluated across all requests.
    pub work_items: u64,
    /// Requests whose plan was already cached.
    pub plan_cache_hits: u64,
    /// Requests that had to prepare a plan.
    pub plan_cache_misses: u64,
    /// Plans evicted by the LRU bound ([`ServerConfig::plan_cache_capacity`]).
    pub plan_cache_evictions: u64,
}

/// The bounded LRU plan cache: a `BTreeMap` keyed by [`PlanKey`] with a
/// logical-clock `last_used` stamp per entry. Capacity is small (default
/// 64), so eviction scans for the stalest entry instead of maintaining an
/// intrusive list.
struct PlanCache {
    entries: BTreeMap<PlanKey, (Arc<PreparedQuery>, u64)>,
    tick: u64,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            entries: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Look up a plan, refreshing its recency stamp.
    fn get(&mut self, key: &PlanKey) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(plan, used)| {
            *used = tick;
            Arc::clone(plan)
        })
    }

    /// Insert a freshly prepared plan (a racing earlier insert wins and is
    /// returned instead), then evict least-recently-used entries down to
    /// capacity. Returns the canonical plan and the number of evictions.
    fn insert(&mut self, key: PlanKey, plan: Arc<PreparedQuery>) -> (Arc<PreparedQuery>, u64) {
        self.tick += 1;
        let tick = self.tick;
        let canonical = {
            let entry = self
                .entries
                .entry(key)
                .and_modify(|(_, used)| *used = tick)
                .or_insert((plan, tick));
            Arc::clone(&entry.0)
        };
        let mut evicted = 0u64;
        while self.entries.len() > self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "the eviction loop runs only while len() > capacity ≥ 0, so the cache is non-empty"
            )]
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity is non-empty");
            self.entries.remove(&stalest);
            evicted += 1;
        }
        (canonical, evicted)
    }
}

/// Key of the prepared-plan cache: everything query-side that shapes a
/// plan. Seeds and shard counts are deliberately absent — plans are
/// seed-independent, which is what lets one cached plan serve every seed
/// and every shard layout with bit-identical results.
type PlanKey = (String, u64, u64, u8);

/// The sharded counting server: caches prepared plans per (query,
/// accuracy, backend) and answers count requests by fanning work items
/// across simulated shards on the persistent worker pool.
pub struct Server {
    config: ServerConfig,
    plans: Mutex<PlanCache>,
    counters: ServerCounters,
}

impl Server {
    /// A server with the given defaults.
    pub fn new(config: ServerConfig) -> Self {
        let cache = PlanCache::new(config.plan_cache_capacity);
        Server {
            config,
            plans: Mutex::new(cache),
            counters: ServerCounters::default(),
        }
    }

    /// The server's defaults.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of distinct prepared plans currently cached.
    #[expect(
        clippy::expect_used,
        reason = "lock poisoning means a worker already panicked; aborting is the right response, not error recovery"
    )]
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().expect("plan cache lock").entries.len()
    }

    /// A point-in-time copy of the serving counters (requests, errors,
    /// work items, plan-cache hits/misses/evictions).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.counters.requests.get(),
            errors: self.counters.errors.get(),
            work_items: self.counters.work_items.get(),
            plan_cache_hits: self.counters.plan_cache_hits.get(),
            plan_cache_misses: self.counters.plan_cache_misses.get(),
            plan_cache_evictions: self.counters.plan_cache_evictions.get(),
        }
    }

    /// Register the server's historical counters in a shared metrics
    /// registry, in the order `/metrics` has always rendered them. The
    /// network layer calls this (after its own counters, before the
    /// latency histogram) so the byte prefix of the endpoint is unchanged
    /// from the pre-registry implementation.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "cqc_serve_requests_total",
            "count requests handled by the serving core",
            Arc::clone(&self.counters.requests),
        );
        registry.register_counter(
            "cqc_serve_request_errors_total",
            "count requests answered with an error",
            Arc::clone(&self.counters.errors),
        );
        registry.register_counter(
            "cqc_shard_work_items_total",
            "work items (databases) evaluated across all requests",
            Arc::clone(&self.counters.work_items),
        );
        registry.register_counter(
            "cqc_plan_cache_hits_total",
            "requests served from the prepared-plan cache",
            Arc::clone(&self.counters.plan_cache_hits),
        );
        registry.register_counter(
            "cqc_plan_cache_misses_total",
            "requests that prepared a new plan",
            Arc::clone(&self.counters.plan_cache_misses),
        );
        registry.register_counter(
            "cqc_plan_cache_evictions_total",
            "plans evicted by the LRU capacity bound",
            Arc::clone(&self.counters.plan_cache_evictions),
        );
    }

    /// Register the series added with the unified registry (oracle-call and
    /// colour-repetition totals, the shard-merge histogram). Kept separate
    /// from [`Server::register_metrics`] so the network layer can place
    /// them *after* the historical series — `/metrics` stays a byte-stable
    /// prefix plus strictly appended lines.
    pub fn register_extended_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "cqc_oracle_calls_total",
            "EdgeFree oracle calls issued while answering count requests",
            Arc::clone(&self.counters.oracle_calls),
        );
        registry.register_counter(
            "cqc_colour_repetitions_total",
            "colour-coding repetitions budgeted across evaluated work items",
            Arc::clone(&self.counters.colour_repetitions),
        );
        registry.register_histogram(
            "cqc_shard_merge_seconds",
            Arc::clone(&self.counters.shard_merge),
        );
    }

    /// Fetch or build the prepared plan for a (query, accuracy, backend)
    /// triple. Concurrent first requests for a key may prepare redundantly
    /// (the lock is not held across the expensive `prepare`); the first
    /// insert wins and every caller — including the redundant preparers —
    /// returns the cached [`PreparedQuery`], so later requests always
    /// share one plan. Redundant preparation is harmless beyond the wasted
    /// work: plans are seed-independent and deterministic.
    fn plan_for(
        &self,
        query_text: &str,
        epsilon: f64,
        delta: f64,
        backend: Backend,
    ) -> Result<Arc<PreparedQuery>, ServeError> {
        let key: PlanKey = (
            query_text.to_string(),
            epsilon.to_bits(),
            delta.to_bits(),
            backend_tag(backend),
        );
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning means a worker already panicked; aborting is the right response, not error recovery"
        )]
        if let Some(plan) = self.plans.lock().expect("plan cache lock").get(&key) {
            self.counters.plan_cache_hits.inc();
            return Ok(plan);
        }
        self.counters.plan_cache_misses.inc();
        let query = parse_query(query_text).map_err(|e| ServeError::Query(e.to_string()))?;
        let engine: Engine = EngineBuilder::new()
            .accuracy(epsilon, delta)
            .threads(self.config.threads)
            .backend(backend)
            .build()
            .map_err(|e| ServeError::Count(e.to_string()))?;
        let prepared = engine
            .prepare(&query)
            .map_err(|e| ServeError::Count(e.to_string()))?;
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning means a worker already panicked; aborting is the right response, not error recovery"
        )]
        let (canonical, evicted) = self
            .plans
            .lock()
            .expect("plan cache lock")
            .insert(key, Arc::new(prepared));
        if evicted > 0 {
            self.counters.plan_cache_evictions.add(evicted);
        }
        Ok(canonical)
    }

    /// Handle one request line, returning the response line (always valid
    /// JSON; failures become `{"id":…,"error":…}` responses).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_classified(line).0
    }

    /// Like [`Server::handle_line`], additionally reporting whether the
    /// response is an `error` response. The network front end maps errors
    /// to an HTTP `400` while keeping the body bytes identical.
    pub fn handle_line_classified(&self, line: &str) -> (String, bool) {
        self.counters.requests.inc();
        let (id, trace_id, result) = match parse(line) {
            Err(e) => (Value::Null, None, Err(ServeError::Request(e.to_string()))),
            Ok(req) => {
                let id = req.get("id").cloned().unwrap_or(Value::Null);
                // An optional client correlation ID ("trace"): echoed back
                // verbatim whether tracing is on or off — a pure function
                // of the request bytes, so it cannot break byte identity.
                let trace_id = req
                    .get("trace")
                    .and_then(Value::as_str)
                    .map(|t| t.to_string());
                if let Some(t) = &trace_id {
                    cqc_obs::trace::instant("traceparent", t);
                    // Correlate the request's wide event with the client's
                    // trace id (the HTTP front end's `traceparent` header,
                    // when present, overrides this at emission).
                    if cqc_obs::wide::phases_active() {
                        cqc_obs::wide::note_trace(t);
                    }
                }
                (id.clone(), trace_id, self.handle(&req))
            }
        };
        match result {
            Ok(mut members) => {
                members.insert(0, ("id".to_string(), id));
                if let Some(t) = trace_id {
                    members.push(("trace".to_string(), Value::Str(t)));
                }
                (Value::Obj(members).render(), false)
            }
            Err(e) => {
                self.counters.errors.inc();
                let mut members = vec![
                    ("id".to_string(), id),
                    ("error".to_string(), Value::Str(e.to_string())),
                ];
                if let Some(t) = trace_id {
                    members.push(("trace".to_string(), Value::Str(t)));
                }
                (Value::Obj(members).render(), true)
            }
        }
    }

    /// Handle a parsed request, returning the response members (without
    /// the echoed `id`, which [`Server::handle_line`] prepends).
    fn handle(&self, req: &Value) -> Result<Vec<(String, Value)>, ServeError> {
        let query_text = req
            .get("query")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Request("missing string member `query`".into()))?;
        let epsilon = member_f64(req, "epsilon", self.config.epsilon)?;
        let delta = member_f64(req, "delta", self.config.delta)?;
        // Seeds are accepted as JSON numbers only up to 2⁵³ (the exact-f64
        // range); larger u64 seeds must be sent as decimal strings, never
        // silently rounded — reproducibility is the whole contract.
        let seed = match req.get("seed") {
            None => self.config.seed,
            Some(Value::Str(raw)) => raw
                .parse::<u64>()
                .map_err(|_| ServeError::Request("`seed` string must be a decimal u64".into()))?,
            Some(v) => v.as_u64().ok_or_else(|| {
                ServeError::Request(
                    "`seed` must be a non-negative integer below 2^53 (use a decimal \
                     string for larger seeds)"
                        .into(),
                )
            })?,
        };
        let (shards, shards_explicit) = match req.get("shards") {
            None => (self.config.shards, false),
            Some(v) => (
                v.as_u64().filter(|&s| s >= 1).ok_or_else(|| {
                    ServeError::Request("`shards` must be a positive integer".into())
                })? as usize,
                true,
            ),
        };
        // Optional per-request worker width for the inner evaluations.
        // Width never changes results, but `0` would mean "auto" by
        // accident and absurd widths would ask for that many threads, so
        // both are rejected up front.
        let workers = match req.get("workers") {
            None => self.config.threads,
            Some(v) => v
                .as_u64()
                .filter(|&w| (1..=MAX_REQUEST_WORKERS).contains(&w))
                .ok_or_else(|| {
                    ServeError::Request(format!(
                        "`workers` must be a positive integer at most {MAX_REQUEST_WORKERS}"
                    ))
                })? as usize,
        };
        let backend = match req.get("method") {
            None => Backend::Auto,
            Some(v) => v
                .as_str()
                .ok_or_else(|| ServeError::Request("`method` must be a string".into()))?
                .parse()
                .map_err(ServeError::Request)?,
        };
        let dbs = load_request_databases(req)?;
        // Beyond MAX_SHARDS_PER_ITEM × items every additional shard is
        // provably empty; a *request* asking for that is a malformed
        // client and gets a structured error. A high server-side default
        // (`--shards K` with a small request) is operator configuration,
        // not a client bug: it is applied as-is — extra shards are empty
        // and the response bytes are unchanged by the equivalence
        // contract.
        let max_shards = dbs.len().saturating_mul(MAX_SHARDS_PER_ITEM);
        if shards_explicit && shards > max_shards {
            return Err(ServeError::Request(format!(
                "`shards` = {shards} is out of range for {} work item(s) \
                 (at most {MAX_SHARDS_PER_ITEM} shards per item, i.e. {max_shards})",
                dbs.len()
            )));
        }
        self.counters.work_items.add(dbs.len() as u64);

        let _span = cqc_obs::trace::Span::enter("request", split_seed(seed, REQUEST_SPAN_TAG));
        // Deliberate failure hook for crash-path testing, inert unless the
        // operator opted in (see [`ServerConfig::fail_injection`]).
        #[expect(
            clippy::panic,
            reason = "the deliberate fail-injection hook, reachable only when ServerConfig::fail_injection is set"
        )]
        if self.config.fail_injection && matches!(req.get("panic"), Some(Value::Bool(true))) {
            panic!("fail injection: request carried `\"panic\": true`");
        }
        // Phase annotations for the request's wide event: armed by the
        // network front end's dispatched job, drained at emission. The
        // stopwatches run only when an accumulator is armed, and their
        // readings land in telemetry only — never in a result.
        let annotate = cqc_obs::wide::phases_active();
        let prepare_timer = annotate.then(Stopwatch::start);
        let prepared = self.plan_for(query_text, epsilon, delta, backend)?;
        if let Some(timer) = prepare_timer {
            cqc_obs::wide::note_phase(
                "prepare",
                timer.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
            cqc_obs::wide::note_class(&format!("{:?}", prepared.class()));
        }
        let runtime = Runtime::new(workers);
        let evaluate_timer = annotate.then(Stopwatch::start);
        let reports = count_sharded_observed(
            &prepared,
            &dbs,
            seed,
            shards,
            runtime,
            Some(&self.counters.shard_merge),
        )
        .map_err(|e| ServeError::Count(e.to_string()))?;
        if let Some(timer) = evaluate_timer {
            cqc_obs::wide::note_phase(
                "evaluate",
                timer.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        // Telemetry roll-up into the unified registry. Oracle-call and
        // repetition counts are deterministic per item (unlike hom_calls,
        // which early exits make scheduling-dependent).
        self.counters
            .oracle_calls
            .add(reports.iter().map(|r| r.telemetry.oracle_calls).sum());
        self.counters.colour_repetitions.add(
            reports
                .iter()
                .map(|r| r.telemetry.colour_repetitions as u64)
                .sum(),
        );

        // Only deterministic fields go on the wire: estimates (value +
        // exact bits), the guarantee, and the per-item derived seed.
        // Telemetry (wall times, scheduling-dependent hom-call counts)
        // stays out so responses are byte-identical across shard layouts
        // and runs — the shard-equivalence tests depend on it.
        let results: Vec<Value> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| render_result(i, split_seed(seed, i as u64), r))
            .collect();
        Ok(vec![
            ("shards".to_string(), Value::Num(shards as f64)),
            (
                "class".to_string(),
                Value::Str(format!("{:?}", prepared.class())),
            ),
            (
                "method".to_string(),
                Value::Str(prepared.method().to_string()),
            ),
            ("results".to_string(), Value::Arr(results)),
        ])
    }

    /// The request loop: read newline-delimited JSON requests, write one
    /// JSON response line per request. Blank lines are skipped; the loop
    /// ends at EOF. Responses are flushed per line so interactive clients
    /// see them immediately.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: &mut W,
    ) -> Result<usize, ServeError> {
        let mut served = 0usize;
        for line in reader.lines() {
            let line = line.map_err(|e| ServeError::Io(e.to_string()))?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            writeln!(writer, "{response}").map_err(|e| ServeError::Io(e.to_string()))?;
            writer.flush().map_err(|e| ServeError::Io(e.to_string()))?;
            served += 1;
        }
        Ok(served)
    }
}

/// Reason fragment for a connection refused at the concurrent-connection
/// cap (see [`overload_line`]).
pub const OVERLOAD_CONNECTION_LIMIT: &str = "connection limit reached";

/// Reason fragment for a request shed because the dispatch queue is at its
/// bound (see [`overload_line`]).
pub const OVERLOAD_QUEUE_FULL: &str = "dispatch queue full";

/// The canonical load-shed response line: `{"id":null,"error":"server
/// overloaded: <reason>"}`. Front ends must serve these bytes verbatim —
/// as an HTTP 503 body and as a raw NDJSON error line (plus `\n`) — so
/// clients parse one shape on every protocol and the shed path stays a
/// pure function of the overload reason.
pub fn overload_line(reason: &str) -> String {
    Value::Obj(vec![
        ("id".to_string(), Value::Null),
        (
            "error".to_string(),
            Value::Str(format!("server overloaded: {reason}")),
        ),
    ])
    .render()
}

/// Evaluate `dbs` through `shards` simulated shards: shard `s` owns the
/// items `i ≡ s (mod shards)`, every item `i` is evaluated under the
/// derived seed `split_seed(seed, i)`, and partial results are merged in
/// shard-index order back into item order.
///
/// **Equivalence guarantee:** the returned estimates are bit-identical for
/// every shard count (including `1`, the unsharded single-node run) and
/// every pool width, because item `i`'s estimate depends only on the plan,
/// `dbs[i]` and `split_seed(seed, i)` — never on which shard computed it.
/// On a failure the error of the first failing item (by index) is
/// returned, matching `PreparedQuery::count_batch`.
pub fn count_sharded(
    prepared: &PreparedQuery,
    dbs: &[Structure],
    seed: u64,
    shards: usize,
    runtime: Runtime,
) -> Result<Vec<EstimateReport>, CoreError> {
    count_sharded_observed(prepared, dbs, seed, shards, runtime, None)
}

/// [`count_sharded`] with the merge phase optionally timed into a shared
/// histogram ([`Server::handle`] passes its `cqc_shard_merge_seconds`
/// series; the public wrapper passes `None`). Observation-only: the merged
/// results are identical either way.
fn count_sharded_observed(
    prepared: &PreparedQuery,
    dbs: &[Structure],
    seed: u64,
    shards: usize,
    runtime: Runtime,
    merge_hist: Option<&Histogram>,
) -> Result<Vec<EstimateReport>, CoreError> {
    let k = shards.max(1);
    let n = dbs.len();
    // Work-item spans may open on pool workers; capture the logical parent
    // (the request span, if any) on the dispatching thread.
    let parent_span = cqc_obs::trace::current_span();
    // Round-robin shard ownership: shard s evaluates items s, s+k, s+2k, …
    let assignments: Vec<Vec<usize>> = (0..k).map(|s| (s..n).step_by(k).collect()).collect();
    let partials: Vec<Vec<(usize, Result<EstimateReport, CoreError>)>> =
        runtime.par_map(&assignments, |_, items| {
            items
                .iter()
                .map(|&i| {
                    let item_seed = split_seed(seed, i as u64);
                    let _span = cqc_obs::trace::Span::child_of(parent_span, "work_item", item_seed);
                    (i, prepared.count_with_seed(&dbs[i], item_seed))
                })
                .collect()
        });
    // Merge in shard-index order: iterate shards 0..k, placing each partial
    // at its global item index. The merge is a pure reshuffle — estimates
    // were fixed per item above — so shard layout cannot change any byte.
    let merge_start = Stopwatch::start();
    let mut merged: Vec<Option<Result<EstimateReport, CoreError>>> = (0..n).map(|_| None).collect();
    for shard in partials {
        for (i, r) in shard {
            merged[i] = Some(r);
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "shard_indices partitions 0..n, so exactly one shard filled every slot"
    )]
    let out = merged
        .into_iter()
        .map(|r| r.expect("every item owned by exactly one shard"))
        .collect();
    if let Some(hist) = merge_hist {
        hist.record(merge_start.elapsed());
    }
    out
}

fn render_result(item: usize, item_seed: u64, report: &EstimateReport) -> Value {
    Value::Obj(vec![
        ("item".to_string(), Value::Num(item as f64)),
        ("estimate".to_string(), Value::Num(report.estimate)),
        (
            "estimate_bits".to_string(),
            Value::Str(format!("{:016x}", report.estimate.to_bits())),
        ),
        ("exact".to_string(), Value::Bool(report.exact)),
        ("epsilon".to_string(), Value::Num(report.epsilon)),
        ("delta".to_string(), Value::Num(report.delta)),
        (
            "item_seed".to_string(),
            Value::Str(format!("{item_seed:016x}")),
        ),
    ])
}

fn member_f64(req: &Value, key: &str, default: f64) -> Result<f64, ServeError> {
    match req.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ServeError::Request(format!("`{key}` must be a number"))),
    }
}

fn backend_tag(backend: Backend) -> u8 {
    match backend {
        Backend::Auto => 0,
        Backend::Fpras => 1,
        Backend::Fptras => 2,
        Backend::Exact => 3,
    }
}

/// The one refusal of a `db_files` entry that does not name a file under
/// the server's working directory (rendered as `bad request: …`).
const DB_FILE_OUTSIDE_ROOT: &str =
    "`db_files` entries must be relative paths to files inside the server's working directory";

/// Resolve a `db_files` entry against the server's working directory, the
/// root every request's files must lie under. The entry must be a relative
/// path of normal components (no `/`, `..`, `.` or prefix), and its
/// canonical path, with every symlink followed, must stay under the
/// canonical root; anything else is refused with [`DB_FILE_OUTSIDE_ROOT`].
fn confined_db_file(path: &str) -> Result<PathBuf, ServeError> {
    let refused = || ServeError::Request(DB_FILE_OUTSIDE_ROOT.to_string());
    let relative = Path::new(path);
    let normal = relative
        .components()
        .all(|c| matches!(c, Component::Normal(_)));
    if path.is_empty() || !normal {
        return Err(refused());
    }
    let root = std::env::current_dir()
        .and_then(|dir| dir.canonicalize())
        .map_err(|_| refused())?;
    let resolved = root
        .join(relative)
        .canonicalize()
        .map_err(|e| ServeError::Database(format!("cannot read `{path}`: {e}")))?;
    if resolved.starts_with(&root) {
        Ok(resolved)
    } else {
        Err(refused())
    }
}

/// Load the request's databases: inline facts texts (`"dbs"`) and/or facts
/// files (`"db_files"`, confined by [`confined_db_file`]), in that order.
fn load_request_databases(req: &Value) -> Result<Vec<Structure>, ServeError> {
    let mut dbs = Vec::new();
    if let Some(items) = req.get("dbs") {
        let items = items
            .as_arr()
            .ok_or_else(|| ServeError::Request("`dbs` must be an array of facts texts".into()))?;
        for (i, item) in items.iter().enumerate() {
            let text = item.as_str().ok_or_else(|| {
                ServeError::Request(format!("`dbs[{i}]` must be a facts-file string"))
            })?;
            dbs.push(
                parse_facts(text).map_err(|e| ServeError::Database(format!("dbs[{i}]: {e}")))?,
            );
        }
    }
    if let Some(items) = req.get("db_files") {
        let items = items
            .as_arr()
            .ok_or_else(|| ServeError::Request("`db_files` must be an array of paths".into()))?;
        for item in items {
            let path = item
                .as_str()
                .ok_or_else(|| ServeError::Request("`db_files` entries must be strings".into()))?;
            let text = std::fs::read_to_string(confined_db_file(path)?)
                .map_err(|e| ServeError::Database(format!("cannot read `{path}`: {e}")))?;
            dbs.push(parse_facts(&text).map_err(|e| ServeError::Database(format!("{path}: {e}")))?);
        }
    }
    if dbs.is_empty() {
        return Err(ServeError::Request(
            "provide at least one database via `dbs` (inline facts) or `db_files` (paths)".into(),
        ));
    }
    Ok(dbs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_line_bytes_are_pinned() {
        assert_eq!(
            overload_line(OVERLOAD_CONNECTION_LIMIT),
            r#"{"id":null,"error":"server overloaded: connection limit reached"}"#
        );
        assert_eq!(
            overload_line(OVERLOAD_QUEUE_FULL),
            r#"{"id":null,"error":"server overloaded: dispatch queue full"}"#
        );
    }

    const FACTS: &str =
        "universe 6\nrelation E 2\nE 0 1\nE 0 2\nE 1 2\nE 2 3\nE 3 4\nE 3 5\nE 5 0\n";
    const FACTS2: &str = "universe 4\nrelation E 2\nE 0 1\nE 0 2\nE 3 1\nE 3 2\n";
    const DCQ: &str = "ans(x) :- E(x, y), E(x, z), y != z";

    fn request(shards: usize) -> String {
        Value::Obj(vec![
            ("id".into(), Value::Num(1.0)),
            ("query".into(), Value::Str(DCQ.into())),
            (
                "dbs".into(),
                Value::Arr(vec![
                    Value::Str(FACTS.into()),
                    Value::Str(FACTS2.into()),
                    Value::Str(FACTS.into()),
                ]),
            ),
            ("seed".into(), Value::Num(7.0)),
            ("shards".into(), Value::Num(shards as f64)),
        ])
        .render()
    }

    #[test]
    fn responses_are_bytes_equal_across_shard_counts() {
        let server = Server::new(ServerConfig::default());
        let unsharded = server.handle_line(&request(1));
        assert!(unsharded.contains("\"estimate\""), "{unsharded}");
        for shards in [2usize, 4] {
            let sharded = server.handle_line(&request(shards));
            // normalise the echoed shard count, then demand byte equality
            let a = unsharded.replace("\"shards\":1", "\"shards\":N");
            let b = sharded.replace(&format!("\"shards\":{shards}"), "\"shards\":N");
            assert_eq!(a, b, "sharding changed a result byte");
        }
    }

    #[test]
    fn plan_cache_is_shared_across_requests() {
        let server = Server::new(ServerConfig::default());
        assert_eq!(server.cached_plans(), 0);
        server.handle_line(&request(1));
        assert_eq!(server.cached_plans(), 1);
        server.handle_line(&request(4)); // same query/accuracy: cache hit
        assert_eq!(server.cached_plans(), 1);
    }

    #[test]
    fn malformed_requests_become_error_responses() {
        let server = Server::new(ServerConfig::default());
        for (bad, needle) in [
            ("{nope", "json error"),
            ("{}", "missing string member `query`"),
            (r#"{"query": 5}"#, "missing string member `query`"),
            (r#"{"query": "ans(x) :- E(x, y)"}"#, "at least one database"),
            (
                r#"{"query": "ans(x) :-", "dbs": ["universe 1\n"]}"#,
                "query error",
            ),
            (
                r#"{"query": "ans(x) :- E(x, y)", "dbs": ["nonsense"]}"#,
                "database error",
            ),
            (
                r#"{"query": "ans(x) :- E(x, y)", "dbs": ["universe 1\nrelation E 2\n"], "shards": 0}"#,
                "`shards` must be a positive integer",
            ),
        ] {
            let out = server.handle_line(bad);
            assert!(out.contains("\"error\""), "{bad} -> {out}");
            assert!(out.contains(needle), "{bad} -> {out}");
        }
    }

    #[test]
    fn serve_lines_round_trips_requests() {
        let server = Server::new(ServerConfig::default());
        let input = format!("{}\n\n{}\n", request(2), request(4));
        let mut out = Vec::new();
        let served = server
            .serve_lines(std::io::BufReader::new(input.as_bytes()), &mut out)
            .unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(parse(line).is_ok(), "response is not valid JSON: {line}");
            assert!(line.starts_with("{\"id\":1,"), "{line}");
        }
    }

    #[test]
    fn large_seeds_are_rejected_as_numbers_and_accepted_as_strings() {
        let server = Server::new(ServerConfig::default());
        let req = |seed: &str| {
            format!(
                r#"{{"id": 1, "query": "{DCQ}", "dbs": ["universe 3\nrelation E 2\nE 0 1\nE 0 2\n"], "seed": {seed}}}"#
            )
        };
        // 2^53 + 1 is not exactly representable as f64: must error, never
        // silently evaluate under a rounded seed
        let out = server.handle_line(&req("9007199254740993"));
        assert!(out.contains("\"error\""), "{out}");
        assert!(out.contains("2^53"), "{out}");
        // the same seed as a decimal string is accepted
        let out = server.handle_line(&req("\"9007199254740993\""));
        assert!(out.contains("\"estimate\""), "{out}");
        // and a string seed in the exact range matches the number form
        let a = server.handle_line(&req("12345"));
        let b = server.handle_line(&req("\"12345\""));
        assert_eq!(a, b);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used_beyond_capacity() {
        let server = Server::new(ServerConfig {
            plan_cache_capacity: 2,
            ..ServerConfig::default()
        });
        let req = |query: &str| {
            Value::Obj(vec![
                ("query".into(), Value::Str(query.into())),
                ("dbs".into(), Value::Arr(vec![Value::Str(FACTS2.into())])),
                ("method".into(), Value::Str("exact".into())),
            ])
            .render()
        };
        let (a, b, c) = (
            "ans(x) :- E(x, y)",
            "ans(y) :- E(x, y)",
            "ans(x, y) :- E(x, y)",
        );
        server.handle_line(&req(a)); // cache: {a}
        server.handle_line(&req(b)); // cache: {a, b}
        server.handle_line(&req(a)); // refresh a; b is now stalest
        server.handle_line(&req(c)); // evicts b
        assert_eq!(server.cached_plans(), 2);
        let stats = server.stats();
        assert_eq!(stats.plan_cache_evictions, 1);
        assert_eq!(stats.plan_cache_misses, 3);
        assert_eq!(stats.plan_cache_hits, 1);
        // a survived the eviction (b was least recently used), so a fourth
        // request for it is a hit…
        server.handle_line(&req(a));
        assert_eq!(server.stats().plan_cache_hits, 2);
        // …while b was evicted and must be prepared again
        server.handle_line(&req(b));
        assert_eq!(server.stats().plan_cache_misses, 4);
    }

    #[test]
    fn stats_count_requests_errors_and_work_items() {
        let server = Server::new(ServerConfig::default());
        server.handle_line(&request(2)); // 3 work items
        server.handle_line("{not json");
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.work_items, 3);
    }

    #[test]
    fn absurd_shard_counts_are_rejected() {
        let server = Server::new(ServerConfig::default());
        // 3 work items allow at most 48 shards; 49 is rejected…
        let mut req = request(3 * MAX_SHARDS_PER_ITEM + 1);
        let out = server.handle_line(&req);
        assert!(out.contains("\"error\""), "{out}");
        assert!(out.contains("out of range for 3 work item(s)"), "{out}");
        // …while exactly 48 (most shards empty) still answers normally
        req = request(3 * MAX_SHARDS_PER_ITEM);
        let out = server.handle_line(&req);
        assert!(out.contains("\"estimate\""), "{out}");
        // a high server-side default is operator configuration, not a
        // malformed client: requests without a `shards` member still work
        let configured = Server::new(ServerConfig {
            shards: 100,
            ..ServerConfig::default()
        });
        let line = Value::Obj(vec![
            ("query".into(), Value::Str(DCQ.into())),
            ("dbs".into(), Value::Arr(vec![Value::Str(FACTS2.into())])),
            ("method".into(), Value::Str("exact".into())),
        ])
        .render();
        let out = configured.handle_line(&line);
        assert!(out.contains("\"estimate\""), "{out}");
        assert!(out.contains("\"shards\":100"), "{out}");
    }

    #[test]
    fn request_workers_are_validated_and_never_change_bytes() {
        let server = Server::new(ServerConfig::default());
        let req = |workers: &str| {
            format!(
                r#"{{"id": 1, "query": "{DCQ}", "dbs": ["{}"], "seed": 3, "workers": {workers}}}"#,
                "universe 4\\nrelation E 2\\nE 0 1\\nE 0 2\\nE 3 1\\nE 3 2\\n"
            )
        };
        for bad in ["0", "-1", "1.5", "\"four\"", "4097"] {
            let out = server.handle_line(&req(bad));
            assert!(out.contains("\"error\""), "{bad} -> {out}");
            assert!(out.contains("`workers` must be"), "{bad} -> {out}");
        }
        let narrow = server.handle_line(&req("1"));
        let wide = server.handle_line(&req("8"));
        assert!(narrow.contains("\"estimate\""), "{narrow}");
        assert_eq!(narrow, wide, "worker width changed a response byte");
    }

    #[test]
    fn exact_method_reports_exact_results() {
        let server = Server::new(ServerConfig::default());
        let req = Value::Obj(vec![
            ("id".into(), Value::Str("e".into())),
            ("query".into(), Value::Str(DCQ.into())),
            ("dbs".into(), Value::Arr(vec![Value::Str(FACTS2.into())])),
            ("method".into(), Value::Str("exact".into())),
        ])
        .render();
        let out = server.handle_line(&req);
        // elements 0 and 3 each have two distinct out-neighbours
        assert!(out.contains("\"estimate\":2,"), "{out}");
        assert!(out.contains("\"exact\":true"), "{out}");
    }
}
