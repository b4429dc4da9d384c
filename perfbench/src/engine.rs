//! The engine workloads: `cq-fpras` (Theorem 16 FPRAS) and
//! `dcq-ecq-fptras` (Theorems 5/13 FPTRAS plus sampling), driven through
//! `Engine`/`PreparedQuery` at runtime width 1, and replayed layer by layer
//! through the crates' public functions in the traced run.

use crate::gen::{edges_for, er_facts, Rng};
use crate::stats::{estimate_ok, median, ms, Fnv, Metrics};
use crate::{reference, Outcome};
use cqc_automata::{approx_count_fixed_shape_seeded, count_labelings_fixed_shape, TaApproxConfig};
use cqc_core::fpras::build_lemma52_automaton_with;
use cqc_core::{
    exact_count_answers, plan_fpras_with, plan_fptras, AnswerOracle, CountMethod, Engine,
    EstimateReport, FprasPlan, FptrasPlan, PreparedQuery,
};
use cqc_data::{parse_facts, Structure, Val};
use cqc_dlm::{approx_edge_count, DlmConfig, EdgeFreeOracle};
use cqc_hom::{bag_partial_solutions, HomDecider, HomStats, HybridDecider};
use cqc_query::colored::ColouringFamily;
use cqc_query::{build_b_structure, enumerate_answers, parse_query, Query};
use cqc_runtime::split_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Accuracy every engine plan is prepared with (the library defaults).
const EPSILON: f64 = 0.25;
const DELTA: f64 = 0.05;

/// Set-up (parse every DB, prepare every plan) is timed once before the
/// timed section and again after every `SETUP_EVERY` rounds of it, outside
/// the ops' wall time, so the median (`setup_s`) samples the same machine
/// conditions as the ops. The traced run times `TRACED_SETUPS` set-ups up
/// front for the parse and prepare layers.
const SETUP_EVERY: usize = 8;
const TRACED_SETUPS: usize = 15;

/// Every run completes at least this many rounds; the fingerprint printed
/// as the determinism witness covers exactly these.
const FINGERPRINT_ROUNDS: usize = 16;

/// One query kind of a workload: a query, the plan it is prepared with, and
/// the size of the `G(n, m)` graphs it runs on. Sizes are fixed per kind
/// (not drawn from a range) so that op costs vary little across seeds, and
/// chosen so that every kind's median op time is within 2× of the others.
struct Kind {
    name: &'static str,
    query: &'static str,
    /// Prepare the plan with `exact_state_budget(0)`, which forces the
    /// ACJR sampling counter instead of the exact #TA DP.
    acjr: bool,
    nodes: usize,
    /// Average out-degree: every graph has `round(nodes · degree)` edges.
    degree: f64,
}

struct Spec {
    kinds: Vec<Kind>,
    /// More databases than a run at `--seconds 40` gets through, so that a
    /// run's ops are all distinct and the cost of single graphs averages out.
    dbs_per_kind: usize,
    /// Every `n`-th op is `sample(db, 1)` instead of `count(db)`.
    sample_every: Option<usize>,
}

fn spec(workload: &str) -> Option<Spec> {
    let kind = |name, query, acjr, nodes, degree| Kind {
        name,
        query,
        acjr,
        nodes,
        degree,
    };
    const PATH2: &str = "ans(x, y) :- E(x, z), E(z, y)";
    const PATH3_1: &str = "ans(x) :- E(x, y), E(y, z), E(z, w)";
    const PATH3_2: &str = "ans(x, w) :- E(x, y), E(y, z), E(z, w)";
    const TRIANGLE: &str = "ans(x, y) :- E(x, y), E(y, z), E(z, x)";
    const TWO_FRIENDS: &str = "ans(x) :- E(x, y), E(x, z), y != z";
    const PATH2_NEQ: &str = "ans(x, y) :- E(x, z), E(z, y), x != y";
    const ONE_WAY: &str = "ans(x, y) :- E(x, y), !E(y, x)";
    const NON_TRANSITIVE: &str = "ans(x, z) :- E(x, y), E(y, z), !E(x, z)";
    match workload {
        "cq-fpras" => Some(Spec {
            kinds: vec![
                kind("2path/exact", PATH2, false, 9, 2.5),
                kind("2path/acjr", PATH2, true, 10, 2.5),
                kind("3path1/exact", PATH3_1, false, 22, 2.5),
                kind("3path2/exact", PATH3_2, false, 10, 2.5),
                kind("triangle/exact", TRIANGLE, false, 20, 3.0),
                kind("triangle/acjr", TRIANGLE, true, 20, 3.0),
            ],
            dbs_per_kind: 384,
            sample_every: None,
        }),
        "dcq-ecq-fptras" => Some(Spec {
            kinds: vec![
                kind("two-friends", TWO_FRIENDS, false, 40, 1.5),
                kind("2path-neq", PATH2_NEQ, false, 17, 1.5),
                kind("one-way", ONE_WAY, false, 33, 1.5),
                kind("non-transitive", NON_TRANSITIVE, false, 22, 1.5),
            ],
            dbs_per_kind: 288,
            sample_every: Some(4),
        }),
        _ => None,
    }
}

pub fn is_engine_workload(name: &str) -> bool {
    spec(name).is_some()
}

#[derive(Clone, Copy, PartialEq)]
enum Call {
    Count,
    Sample,
}

#[derive(Clone, Copy)]
struct Op {
    kind: usize,
    db: usize,
    call: Call,
}

/// The fixed op list of one pass, in rounds: round `i` counts database `i`
/// of every kind, so any whole number of rounds keeps the kinds balanced.
/// With `sample_every = k`, every `k`-th op samples from the database the
/// previous op counted.
fn op_rounds(spec: &Spec) -> Vec<Vec<Op>> {
    let mut emitted = 0;
    (0..spec.dbs_per_kind)
        .map(|db| {
            let mut round = Vec::new();
            for kind in 0..spec.kinds.len() {
                round.push(Op {
                    kind,
                    db,
                    call: Call::Count,
                });
                emitted += 1;
                if let Some(k) = spec.sample_every {
                    if emitted % k == k - 1 {
                        round.push(Op {
                            kind,
                            db,
                            call: Call::Sample,
                        });
                        emitted += 1;
                    }
                }
            }
            round
        })
        .collect()
}

struct Prepared {
    dbs: Vec<Vec<Structure>>,
    plans: Vec<PreparedQuery>,
    parse: Duration,
    prepare: Duration,
}

/// The timings of every set-up of a run: total (s), parse and prepare (ms).
#[derive(Default)]
struct SetUpTimes {
    total: Vec<f64>,
    parse_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
}

impl SetUpTimes {
    fn time(&mut self, p: Prepared) -> Prepared {
        self.total.push((p.parse + p.prepare).as_secs_f64());
        self.parse_ms.push(ms(p.parse));
        self.prepare_ms.push(ms(p.prepare));
        p
    }
}

fn engine_for(kind: &Kind, seed: u64) -> Engine {
    let mut builder = Engine::builder()
        .accuracy(EPSILON, DELTA)
        .seed(seed)
        .threads(1);
    if kind.acjr {
        builder = builder.exact_state_budget(0);
    }
    builder.build().expect("valid accuracy")
}

/// The timed set-up: `parse_facts` of every DB and `Engine::prepare` of
/// every plan.
fn set_up(spec: &Spec, queries: &[Query], texts: &[Vec<String>], seed: u64) -> Prepared {
    let started = Instant::now();
    let dbs: Vec<Vec<Structure>> = texts
        .iter()
        .map(|kind| {
            kind.iter()
                .map(|t| parse_facts(t).expect("generated facts parse"))
                .collect()
        })
        .collect();
    let parse = started.elapsed();
    let started = Instant::now();
    let plans = spec
        .kinds
        .iter()
        .zip(queries)
        .map(|(kind, q)| engine_for(kind, seed).prepare(q).expect("query prepares"))
        .collect();
    Prepared {
        dbs,
        plans,
        parse,
        prepare: started.elapsed(),
    }
}

/// The outcome of one engine op.
enum Answer {
    Count(EstimateReport),
    Sample(Vec<Vec<Val>>),
}

fn execute(p: &Prepared, op: Op) -> Answer {
    let db = &p.dbs[op.kind][op.db];
    let plan = &p.plans[op.kind];
    match op.call {
        Call::Count => Answer::Count(plan.count(db).expect("count succeeds")),
        Call::Sample => Answer::Sample(plan.sample(db, 1).expect("sample succeeds")),
    }
}

/// Ground truth for the output check, computed before any timing.
struct Truth {
    counts: Vec<Vec<u64>>,
    /// Answer sets of the databases that sample ops draw from.
    answers: Vec<Vec<Option<BTreeSet<Vec<Val>>>>>,
}

fn truth(p: &Prepared, queries: &[Query], ops: &[Op]) -> Truth {
    let counts = queries
        .iter()
        .zip(&p.dbs)
        .map(|(q, dbs)| dbs.iter().map(|db| exact_count_answers(q, db)).collect())
        .collect();
    let mut answers: Vec<Vec<Option<BTreeSet<Vec<Val>>>>> =
        p.dbs.iter().map(|dbs| vec![None; dbs.len()]).collect();
    for op in ops.iter().filter(|op| op.call == Call::Sample) {
        answers[op.kind][op.db]
            .get_or_insert_with(|| enumerate_answers(&queries[op.kind], &p.dbs[op.kind][op.db]));
    }
    Truth { counts, answers }
}

fn check(truth: &Truth, op: Op, answer: &Answer) -> bool {
    let exact = truth.counts[op.kind][op.db];
    match answer {
        Answer::Count(r) => estimate_ok(r.estimate, r.exact, r.epsilon, exact),
        Answer::Sample(tuples) => {
            let answers = truth.answers[op.kind][op.db]
                .as_ref()
                .expect("answer set computed for sample ops");
            if exact == 0 {
                tuples.is_empty()
            } else {
                tuples.len() == 1 && answers.contains(&tuples[0])
            }
        }
    }
}

/// Output-check outcomes of a run. An exact answer (a report flagged
/// exact, or a sample) must always pass. An approximate estimate may miss
/// its `(1 ± ε)` with probability `δ`, so the run is correct while its
/// misses stay within `δ` of its approximate estimates; every miss still
/// counts as failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    approximate: u64,
    approximate_misses: u64,
}

impl Tally {
    fn record(&mut self, truth: &Truth, op: Op, answer: &Answer) -> bool {
        let ok = check(truth, op, answer);
        let approximate = matches!(answer, Answer::Count(r) if !r.exact);
        self.attempted += 1;
        self.approximate += u64::from(approximate);
        if !ok {
            self.failed += 1;
            self.approximate_misses += u64::from(approximate);
        }
        ok
    }

    fn correct(&self) -> bool {
        self.failed == self.approximate_misses
            && self.approximate_misses as f64 <= DELTA * self.approximate as f64
    }
}

fn fingerprint(fnv: &mut Fnv, answer: &Answer) {
    match answer {
        Answer::Count(r) => fnv.write(&r.estimate.to_bits().to_le_bytes()),
        Answer::Sample(tuples) => {
            for v in tuples.iter().flatten() {
                fnv.write(&v.0.to_le_bytes());
            }
            fnv.write(b";");
        }
    }
}

/// Run one op: its latency in ms and its answer.
fn timed(p: &Prepared, op: Op) -> (f64, Answer) {
    let started = Instant::now();
    let answer = std::hint::black_box(execute(p, op));
    (ms(started.elapsed()), answer)
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let spec = spec(workload).expect("engine workload");
    let queries: Vec<Query> = spec
        .kinds
        .iter()
        .map(|k| parse_query(k.query).expect("benchmark query parses"))
        .collect();
    let texts: Vec<Vec<String>> = spec
        .kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut rng = Rng::fork(seed, i as u64);
            (0..spec.dbs_per_kind)
                .map(|_| er_facts(&mut rng, kind.nodes, edges_for(kind.nodes, kind.degree)))
                .collect()
        })
        .collect();
    let rounds = op_rounds(&spec);
    let engine_seed = split_seed(seed, 0xE6);

    let mut setups = SetUpTimes::default();
    let timed_set_up =
        |times: &mut SetUpTimes| times.time(set_up(&spec, &queries, &texts, engine_seed));
    let p = timed_set_up(&mut setups);
    let truth = truth(&p, &queries, &rounds.concat());

    // Warm-up: one untimed op per kind.
    for kind in 0..spec.kinds.len() {
        execute(
            &p,
            Op {
                kind,
                db: 0,
                call: Call::Count,
            },
        );
    }

    let mut metrics = Metrics::default();
    if trace {
        while setups.total.len() < TRACED_SETUPS {
            timed_set_up(&mut setups);
        }
        let layers = traced(&spec, &queries, &p, &rounds, &truth, seconds);
        layers.report(
            &mut metrics,
            median(&setups.parse_ms),
            median(&setups.prepare_ms),
        );
        return Outcome {
            correct: layers.faithful && layers.tally.correct(),
            attempted: layers.tally.attempted,
            failed: layers.tally.failed,
            metrics,
        };
    }

    let mut latencies = Vec::new();
    let mut refs = Vec::new();
    let mut kinds = Vec::new();
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let mut fnv = Fnv::new();
    let started = Instant::now();
    let mut done = 0;
    // Whole rounds while the budget allows, at least `FINGERPRINT_ROUNDS`.
    while done < FINGERPRINT_ROUNDS || crate::fits_another(started, done, seconds) {
        for &op in &rounds[done % rounds.len()] {
            refs.push(reference::time());
            let (latency, answer) = timed(&p, op);
            if done < FINGERPRINT_ROUNDS {
                fingerprint(&mut fnv, &answer);
            }
            kinds.push(op.kind);
            latencies.push(latency);
            if !tally.record(&truth, op, &answer) {
                // later passes repeat the same deterministic answers
                if done < rounds.len() {
                    failures.push((op, answer));
                }
            }
        }
        done += 1;
        if done % SETUP_EVERY == 0 {
            timed_set_up(&mut setups);
        }
    }
    // One factor per run, not one per op: a reference timed right after a
    // large op runs in the cache and allocator state that op left, and
    // per-op factors spread the percentiles more than they steadied them.
    let scale = reference::scale(&refs);
    let scaled: Vec<f64> = latencies.iter().map(|l| l * scale).collect();

    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); spec.kinds.len()];
    for (&kind, &latency) in kinds.iter().zip(&scaled) {
        per_kind[kind].push(latency);
    }
    for (kind, lat) in spec.kinds.iter().zip(&per_kind) {
        eprintln!(
            "kind {:<16} median {:8.3} reference ms over {} ops",
            kind.name,
            median(lat),
            lat.len()
        );
    }
    let raw_seconds = latencies.iter().sum::<f64>() / 1e3;
    eprintln!(
        "{}; reference work median {:.4} ms",
        crate::wall_clock_summary(&[(latencies.clone(), raw_seconds)]),
        median(&refs)
    );
    for (op, answer) in &failures {
        let got = match answer {
            Answer::Count(r) => format!("count: estimate {} (exact flag {})", r.estimate, r.exact),
            Answer::Sample(t) => format!("sample: {t:?}"),
        };
        eprintln!(
            "FAILED {} db {} {got}, exact count {}",
            spec.kinds[op.kind].name, op.db, truth.counts[op.kind][op.db]
        );
    }
    eprintln!(
        "{workload}: {} ops in {done} rounds (a pass is {}), fingerprint of the first {FINGERPRINT_ROUNDS} rounds fnv1a={:016x}",
        latencies.len(),
        rounds.len(),
        fnv.finish()
    );

    // One window: a 5 s window would hold too few ops for a p99. Ops run
    // one after another, so the time they took is the sum of latencies.
    let op_seconds = scaled.iter().sum::<f64>() / 1e3;
    crate::put_end_to_end(
        &mut metrics,
        &[(scaled, op_seconds)],
        tally.attempted,
        tally.failed,
        median(&setups.total) * scale,
    );
    Outcome {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

// ---------------------------------------------------------------------------
// Traced run: layer attribution by replay through the public functions.
// ---------------------------------------------------------------------------

/// A `Hom` decider that times every decision of the decider the engine uses.
struct TimedDecider {
    inner: HybridDecider,
    nanos: AtomicU64,
}

impl HomDecider for TimedDecider {
    fn decide(&self, a: &Structure, b: &Structure) -> bool {
        let started = Instant::now();
        let answer = self.inner.decide(a, b);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        answer
    }

    fn stats(&self) -> HomStats {
        self.inner.stats()
    }
}

/// An `EdgeFree` oracle that times every call into the wrapped oracle.
struct TimedOracle<O> {
    inner: O,
    time: Duration,
}

impl<O: EdgeFreeOracle> EdgeFreeOracle for TimedOracle<O> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn class_size(&self, i: usize) -> usize {
        self.inner.class_size(i)
    }

    fn edge_free(&mut self, parts: &[BTreeSet<usize>]) -> bool {
        let started = Instant::now();
        let answer = self.inner.edge_free(parts);
        self.time += started.elapsed();
        answer
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }
}

/// Per-layer sums over the replayed ops (times in ms).
#[derive(Default)]
struct Layers {
    count_ops: usize,
    sample_ops: usize,
    build_b: f64,
    b_tuples: f64,
    bag_solutions: f64,
    bag_rows: f64,
    lemma52_self: f64,
    states: f64,
    transitions: f64,
    ta_exact: f64,
    ta_acjr: f64,
    dlm_self: f64,
    oracle_calls: f64,
    oracle_self: f64,
    decide: f64,
    decide_calls: f64,
    decide_positive: f64,
    sample: f64,
    /// Wall time of the count ops: traced engine, untraced engine, and
    /// `exact_count_answers` on the same databases.
    engine_ms: f64,
    untraced_ms: f64,
    exact_ms: f64,
    faithful: bool,
    tally: Tally,
}

impl Layers {
    fn covered_ms(&self) -> f64 {
        self.build_b
            + self.bag_solutions
            + self.lemma52_self
            + self.ta_exact
            + self.ta_acjr
            + self.dlm_self
            + self.oracle_self
            + self.decide
    }

    fn report(&self, m: &mut Metrics, parse_ms: f64, prepare_ms: f64) {
        let per_op = |v: f64| v / self.count_ops.max(1) as f64;
        m.put("data.parse_ms", parse_ms);
        m.put("hypergraph.prepare_ms", prepare_ms);
        m.put("query.build_b_ms", per_op(self.build_b));
        m.put("query.b_tuples", per_op(self.b_tuples));
        m.put("hom.bag_solutions_ms", per_op(self.bag_solutions));
        m.put("hom.bag_rows", per_op(self.bag_rows));
        m.put("core.lemma52_build_ms", per_op(self.lemma52_self));
        m.put("automata.states", per_op(self.states));
        m.put("automata.transitions", per_op(self.transitions));
        m.put("automata.ta_exact_ms", per_op(self.ta_exact));
        m.put("automata.ta_acjr_ms", per_op(self.ta_acjr));
        m.put("dlm.self_ms", per_op(self.dlm_self));
        m.put("dlm.oracle_calls", per_op(self.oracle_calls));
        m.put("core.oracle_self_ms", per_op(self.oracle_self));
        m.put("hom.decide_ms", per_op(self.decide));
        m.put("hom.decide_calls", per_op(self.decide_calls));
        if self.decide_calls > 0.0 {
            m.put(
                "hom.positive_ratio",
                self.decide_positive / self.decide_calls,
            );
        }
        if self.sample_ops > 0 {
            m.put("dlm.sample_ms", self.sample / self.sample_ops as f64);
        }
        m.put("core.engine_over_exact", self.untraced_ms / self.exact_ms);
        m.put(
            "obs.trace_overhead_pct",
            (self.engine_ms / self.untraced_ms - 1.0) * 100.0,
        );
    }
}

/// The query-side plan the replay needs, rebuilt through the public
/// planning functions (plans are deterministic, so it equals the engine's).
enum ReplayPlan {
    Fpras(FprasPlan),
    Fptras(FptrasPlan),
}

fn replay_plan(prepared: &PreparedQuery) -> ReplayPlan {
    let config = prepared.config();
    match prepared.method() {
        CountMethod::Fpras => ReplayPlan::Fpras(
            plan_fpras_with(prepared.query(), &config.runtime()).expect("CQ plans"),
        ),
        _ => ReplayPlan::Fptras(plan_fptras(prepared.query(), config)),
    }
}

/// Replay one count op through the layer functions in the order
/// `fpras_count_with_plan` / `fptras_count_with_plan` call them, adding the
/// layer times to `layers`. Returns the estimate and the counters that must
/// equal the engine's telemetry.
fn replay_count(
    prepared: &PreparedQuery,
    plan: &ReplayPlan,
    db: &Structure,
    layers: &mut Layers,
) -> (f64, Vec<u64>) {
    let query = prepared.query();
    let config = prepared.config();
    let started = Instant::now();
    let b = build_b_structure(query, db).expect("compatible database");
    let build_b = ms(started.elapsed());
    layers.build_b += build_b;
    layers.b_tuples += b.fact_count() as f64;
    match plan {
        ReplayPlan::Fpras(plan) => {
            let started = Instant::now();
            let rows: usize = plan
                .bags
                .iter()
                .map(|bag| bag_partial_solutions(&plan.a_structure, &b, bag).len())
                .sum();
            let bag_solutions = ms(started.elapsed());
            layers.bag_solutions += bag_solutions;
            layers.bag_rows += rows as f64;

            let started = Instant::now();
            let built = build_lemma52_automaton_with(query, &plan.a_structure, db, &plan.nice)
                .expect("automaton builds");
            layers.lemma52_self += ms(started.elapsed()) - build_b - bag_solutions;
            layers.states += built.states as f64;
            layers.transitions += built.automaton.transitions().len() as f64;

            let started = Instant::now();
            let estimate = if built.states <= config.fpras_exact_state_budget {
                let e = count_labelings_fixed_shape(&built.automaton, &plan.shape) as f64;
                layers.ta_exact += ms(started.elapsed());
                e
            } else {
                let e = approx_count_fixed_shape_seeded(
                    &built.automaton,
                    &plan.shape,
                    &TaApproxConfig::new(config.epsilon, config.delta),
                    split_seed(config.seed, 0x51CE),
                    &config.runtime(),
                );
                layers.ta_acjr += ms(started.elapsed());
                e
            };
            (estimate, vec![built.states as u64])
        }
        ReplayPlan::Fptras(plan) => {
            let started = Instant::now();
            let relaxed = ColouringFamily::from_fn(
                query.disequalities().len(),
                db.universe_size(),
                |_, _| true,
            );
            let decider = TimedDecider {
                inner: HybridDecider::new(),
                nanos: AtomicU64::new(0),
            };
            let oracle = AnswerOracle::with_a_hat(
                query,
                b,
                &plan.a_hat,
                db.universe_size(),
                &decider,
                plan.repetitions,
                config.seed,
            )
            .with_runtime(config.runtime())
            .with_relaxed_colouring(&relaxed);
            let mut timed = TimedOracle {
                inner: oracle,
                time: Duration::ZERO,
            };
            let oracle_setup = ms(started.elapsed());
            let started = Instant::now();
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9E37));
            let result = approx_edge_count(
                &mut timed,
                &DlmConfig::new(config.epsilon, config.delta),
                &mut rng,
            );
            let dlm = ms(started.elapsed());
            let oracle = ms(timed.time);
            let decide = decider.nanos.load(Ordering::Relaxed) as f64 / 1e6;
            let stats = decider.stats();
            layers.dlm_self += dlm - oracle;
            layers.oracle_self += oracle - decide + oracle_setup;
            layers.decide += decide;
            layers.oracle_calls += timed.calls() as f64;
            layers.decide_calls += stats.calls as f64;
            layers.decide_positive += stats.positive as f64;
            (
                result.estimate,
                vec![timed.calls(), timed.inner.hom_calls()],
            )
        }
    }
}

fn engine_counters(report: &EstimateReport) -> Vec<u64> {
    match report.method {
        CountMethod::Fpras => vec![report.telemetry.automaton_states as u64],
        _ => vec![report.telemetry.oracle_calls, report.telemetry.hom_calls],
    }
}

/// The traced run, round by round while the budget allows (at least one):
/// every op of the round untraced, then every op traced and replayed, then
/// `exact_count_answers` on the round's databases.
fn traced(
    spec: &Spec,
    queries: &[Query],
    p: &Prepared,
    rounds: &[Vec<Op>],
    truth: &Truth,
    seconds: f64,
) -> Layers {
    let plans: Vec<ReplayPlan> = p.plans.iter().map(replay_plan).collect();
    let mut layers = Layers {
        faithful: true,
        ..Layers::default()
    };
    let mut mismatches = 0usize;
    let started = Instant::now();
    let mut done = 0;
    while crate::fits_another(started, done, seconds) {
        let round = &rounds[done % rounds.len()];
        let untraced: Vec<f64> = round.iter().map(|&op| timed(p, op).0).collect();
        cqc_obs::trace::set_enabled(true);
        cqc_obs::wide::set_enabled(true);
        // Each traced engine op is replayed right after it runs, so both
        // see the same machine conditions.
        for (&op, untraced_ms) in round.iter().zip(untraced) {
            let (traced_ms, answer) = timed(p, op);
            drop(cqc_obs::trace::drain());
            layers.tally.record(truth, op, &answer);
            let report = match answer {
                Answer::Count(report) => report,
                Answer::Sample(_) => {
                    layers.sample += traced_ms;
                    layers.sample_ops += 1;
                    continue;
                }
            };
            let prepared = &p.plans[op.kind];
            let (estimate, counters) = replay_count(
                prepared,
                &plans[op.kind],
                &p.dbs[op.kind][op.db],
                &mut layers,
            );
            drop(cqc_obs::trace::drain());
            if estimate.to_bits() != report.estimate.to_bits()
                || counters != engine_counters(&report)
            {
                mismatches += 1;
                eprintln!(
                    "replay mismatch on {} db {}: estimate {} vs {}, counters {:?} vs {:?}",
                    spec.kinds[op.kind].name,
                    op.db,
                    estimate,
                    report.estimate,
                    counters,
                    engine_counters(&report)
                );
            }
            layers.count_ops += 1;
            layers.engine_ms += traced_ms;
            layers.untraced_ms += untraced_ms;
        }
        cqc_obs::trace::set_enabled(false);
        cqc_obs::wide::set_enabled(false);
        for &op in round.iter().filter(|op| op.call == Call::Count) {
            let begun = Instant::now();
            std::hint::black_box(exact_count_answers(
                &queries[op.kind],
                &p.dbs[op.kind][op.db],
            ));
            layers.exact_ms += ms(begun.elapsed());
        }
        done += 1;
    }
    let coverage = layers.covered_ms() / layers.engine_ms;
    eprintln!(
        "replay: {} count ops, {} sample ops, coverage {:.2}% of engine wall, {} counter mismatches",
        layers.count_ops,
        layers.sample_ops,
        coverage * 100.0,
        mismatches
    );
    if mismatches > 0 || coverage < 0.95 {
        eprintln!("replay is not faithful: the traced run fails");
        layers.faithful = false;
    }
    layers
}
