//! A small workload-enumeration grammar in the spirit of Ruler's `enumo`:
//! [`Workload`] values are built from textual *sketches* containing `$HOLE`
//! tokens, composed with [`Workload::plug`] (Cartesian substitution),
//! deduplicated up to variable renaming and literal order with
//! [`Workload::canon`], and thinned with [`Workload::filter`] over
//! structural [`Metric`]s and the engine's own Figure-1 class assignment.
//!
//! The grammar is the workload *source of truth* for the artifact-style
//! bench harness (`scripts/kick-tires.sh`, `scripts/full.sh`): per class of
//! Figure 1 (CQ / DCQ / ECQ), [`enumerate_class`] deterministically derives
//! the full query family, [`suite`] draws a seeded sample from it,
//! [`suite_database`] scales seeded instances by tuple count, and
//! [`suite_request_mix`] turns the sample into a serve-protocol request
//! stream for the load generator. Everything is a pure function of seeds —
//! no wall time, no ambient RNG — so suites are byte-stable across runs,
//! machines and thread counts, which is what lets the golden manifest
//! (`tests/golden/workload_suites.txt`) pin the enumeration in review.

use crate::graphs::erdos_renyi;
use crate::mix::{split_seed, RequestSpec};
use cqc_data::{write_facts, Structure, StructureBuilder};
use cqc_hypergraph::Treewidth;
use cqc_query::{parse_query, query_hypergraph, Query, QueryClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// A set of query sketches (texts that may contain `$HOLE` tokens), the
/// unit of composition of the enumeration grammar. Order is significant and
/// deterministic: `plug` expands options in left-to-right sketch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    sketches: Vec<String>,
}

impl Workload {
    /// A workload from literal sketches.
    pub fn new<I, S>(items: I) -> Workload
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Workload {
            sketches: items.into_iter().map(Into::into).collect(),
        }
    }

    /// The sketches, in enumeration order.
    pub fn sketches(&self) -> &[String] {
        &self.sketches
    }

    /// Number of sketches.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Concatenate two workloads.
    pub fn append(mut self, other: Workload) -> Workload {
        self.sketches.extend(other.sketches);
        self
    }

    /// Substitute every occurrence of `hole` in every sketch by every
    /// sketch of `options` — the full Cartesian product over occurrences,
    /// so `"$A, $A"` plugged with `n` atoms yields `n²` sketches.
    /// Replacement texts are never re-expanded (substitution recurses on
    /// the suffix only). Hole names must not be prefixes of one another.
    pub fn plug(&self, hole: &str, options: &Workload) -> Workload {
        let mut out = Vec::new();
        for sketch in &self.sketches {
            plug_one(sketch, hole, &options.sketches, &mut out);
        }
        Workload { sketches: out }
    }

    /// Parse every sketch (holes must all be plugged by now — `$` is not a
    /// legal query character) and keep the ones that parse *and* satisfy
    /// `filter`. Unparseable sketches are dropped deterministically.
    pub fn filter(&self, filter: &Filter) -> Workload {
        Workload {
            sketches: self
                .sketches
                .iter()
                .filter(|s| match parse_query(s) {
                    Ok(q) => filter.accepts(&q),
                    Err(_) => false,
                })
                .cloned()
                .collect(),
        }
    }

    /// Deduplicate up to variable renaming and literal/disequality order
    /// (first occurrence wins; unparseable sketches are dropped).
    pub fn canon(&self) -> Workload {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for sketch in &self.sketches {
            if let Ok(q) = parse_query(sketch) {
                if seen.insert(canonical_key(&q)) {
                    out.push(sketch.clone());
                }
            }
        }
        Workload { sketches: out }
    }

    /// The parseable sketches, each paired with its parsed [`Query`].
    pub fn queries(&self) -> Vec<(String, Query)> {
        self.sketches
            .iter()
            .filter_map(|s| parse_query(s).ok().map(|q| (s.clone(), q)))
            .collect()
    }
}

/// Expand one sketch: substitute the leftmost occurrence of `hole` by each
/// option, recursing on the remaining suffix.
fn plug_one(sketch: &str, hole: &str, options: &[String], out: &mut Vec<String>) {
    match sketch.find(hole) {
        None => out.push(sketch.to_string()),
        Some(at) => {
            let prefix = &sketch[..at];
            let mut tails = Vec::new();
            plug_one(&sketch[at + hole.len()..], hole, options, &mut tails);
            for option in options {
                for tail in &tails {
                    out.push(format!("{prefix}{option}{tail}"));
                }
            }
        }
    }
}

/// Structural measurements a [`Filter`] can bound — the "measure" half of
/// the enumeration DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Number of literals (positive and negated atoms).
    Atoms,
    /// Number of negated atoms.
    NegatedAtoms,
    /// Number of (normalized, deduplicated) disequalities.
    Disequalities,
    /// Number of variables.
    Vars,
    /// Number of free (head) variables.
    FreeVars,
    /// Number of existentially quantified variables.
    ExistentialVars,
    /// Maximum atom arity.
    Arity,
    /// `‖ϕ‖` as defined in Section 1.1 of the paper.
    Size,
    /// Treewidth of `H(ϕ)` ([`Treewidth::of`]: exact for ≤ 13 variables, an
    /// upper bound above), the depth/fhw proxy used to keep enumerated
    /// suites inside the tractable regimes.
    Treewidth,
}

/// Measure one metric on a parsed query.
pub fn measure(query: &Query, metric: Metric) -> usize {
    match metric {
        Metric::Atoms => query.literals().len(),
        Metric::NegatedAtoms => query.num_negated(),
        Metric::Disequalities => query.disequalities().len(),
        Metric::Vars => query.num_vars(),
        Metric::FreeVars => query.num_free_vars(),
        Metric::ExistentialVars => query.num_vars() - query.num_free_vars(),
        Metric::Arity => query.max_arity(),
        Metric::Size => query.size(),
        Metric::Treewidth => Treewidth::of(&query_hypergraph(query)).width,
    }
}

/// A predicate over parsed queries, composed from metric bounds, the
/// Figure-1 class assignment, and boolean combinators.
#[derive(Debug, Clone)]
pub enum Filter {
    /// `measure(q, metric) == value`.
    MetricEq(Metric, usize),
    /// `measure(q, metric) <= bound`.
    MetricLe(Metric, usize),
    /// The engine's Figure-1 class assignment equals `class`.
    Class(QueryClass),
    /// Every variable occurs in at least one **positive** atom — the
    /// safety condition that guarantees `Engine::prepare` accepts the
    /// query (negated atoms and disequalities alone don't ground a
    /// variable).
    Safe,
    /// All sub-filters accept.
    And(Vec<Filter>),
    /// The sub-filter rejects.
    Not(Box<Filter>),
}

impl Filter {
    /// Whether the query satisfies this filter.
    pub fn accepts(&self, query: &Query) -> bool {
        match self {
            Filter::MetricEq(metric, value) => measure(query, *metric) == *value,
            Filter::MetricLe(metric, bound) => measure(query, *metric) <= *bound,
            Filter::Class(class) => query.class() == *class,
            Filter::Safe => {
                let mut grounded = vec![false; query.num_vars()];
                for atom in query.positive_atoms() {
                    for v in &atom.vars {
                        grounded[v.index()] = true;
                    }
                }
                grounded.into_iter().all(|g| g)
            }
            Filter::And(filters) => filters.iter().all(|f| f.accepts(query)),
            Filter::Not(inner) => !inner.accepts(query),
        }
    }
}

/// Canonical key of a query up to variable renaming and literal /
/// disequality order: variables are relabelled in first-occurrence order
/// (head first, then literals, then disequalities), literal and
/// disequality renderings are sorted. Two queries with equal keys are the
/// same query modulo bound-variable names and body order.
pub fn canonical_key(query: &Query) -> String {
    let mut order: Vec<Option<usize>> = vec![None; query.num_vars()];
    let mut next = 0usize;
    let mut visit = |order: &mut Vec<Option<usize>>, v: cqc_query::Var| {
        if order[v.index()].is_none() {
            order[v.index()] = Some(next);
            next += 1;
        }
    };
    for &v in query.free_vars() {
        visit(&mut order, v);
    }
    for literal in query.literals() {
        for &v in &literal.atom().vars {
            visit(&mut order, v);
        }
    }
    for &(u, v) in query.disequalities() {
        visit(&mut order, u);
        visit(&mut order, v);
    }
    let label = |v: cqc_query::Var| format!("v{}", order[v.index()].unwrap_or(usize::MAX));
    let head: Vec<String> = query.free_vars().iter().map(|&v| label(v)).collect();
    let mut literals: Vec<String> = query
        .literals()
        .iter()
        .map(|l| {
            let a = l.atom();
            let vars: Vec<String> = a.vars.iter().map(|&v| label(v)).collect();
            format!(
                "{}{}({})",
                if l.is_negated() { "!" } else { "" },
                a.relation,
                vars.join(",")
            )
        })
        .collect();
    literals.sort();
    let mut diseqs: Vec<String> = query
        .disequalities()
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (label(u), label(v));
            if a <= b {
                format!("{a}!={b}")
            } else {
                format!("{b}!={a}")
            }
        })
        .collect();
    diseqs.sort();
    format!(
        "({})<-{};{}",
        head.join(","),
        literals.join(","),
        diseqs.join(",")
    )
}

/// The display name of a class (`CQ` / `DCQ` / `ECQ`).
pub fn class_name(class: QueryClass) -> &'static str {
    match class {
        QueryClass::CQ => "CQ",
        QueryClass::DCQ => "DCQ",
        QueryClass::ECQ => "ECQ",
    }
}

/// Parse a class name as accepted by `--suite` (case-insensitive).
pub fn parse_class(raw: &str) -> Option<QueryClass> {
    match raw.to_ascii_lowercase().as_str() {
        "cq" => Some(QueryClass::CQ),
        "dcq" => Some(QueryClass::DCQ),
        "ecq" => Some(QueryClass::ECQ),
        _ => None,
    }
}

/// All three classes, in Figure-1 order.
pub const ALL_CLASSES: [QueryClass; 3] = [QueryClass::CQ, QueryClass::DCQ, QueryClass::ECQ];

fn class_tag(class: QueryClass) -> u64 {
    match class {
        QueryClass::CQ => 0,
        QueryClass::DCQ => 1,
        QueryClass::ECQ => 2,
    }
}

/// The variable alphabet of the grammar (4 variables keeps every
/// enumerated query inside the exact-treewidth regime and the engine's
/// cheap planning range).
fn grammar_vars() -> Workload {
    Workload::new(["x", "y", "z", "w"])
}

/// All binary atoms `E(·, ·)` over the variable alphabet.
fn binary_atoms() -> Workload {
    Workload::new(["E($V, $W)"])
        .plug("$V", &grammar_vars())
        .plug("$W", &grammar_vars())
}

/// All ternary atoms `R(·, ·, ·)` over the variable alphabet.
fn ternary_atoms() -> Workload {
    Workload::new(["R($V, $W, $U)"])
        .plug("$V", &grammar_vars())
        .plug("$W", &grammar_vars())
        .plug("$U", &grammar_vars())
}

/// All disequality tails over the variable alphabet (reflexive ones are
/// rejected later, at parse time).
fn disequalities() -> Workload {
    Workload::new(["$V != $W"])
        .plug("$V", &grammar_vars())
        .plug("$W", &grammar_vars())
}

/// The six distinct unordered disequalities (used where a Cartesian
/// product over the full 16 would explode the grammar).
fn distinct_disequalities() -> Workload {
    Workload::new(["x != y", "x != z", "x != w", "y != z", "y != w", "z != w"])
}

/// All negated binary atoms over the variable alphabet.
fn negated_atoms() -> Workload {
    Workload::new(["!E($V, $W)"])
        .plug("$V", &grammar_vars())
        .plug("$W", &grammar_vars())
}

/// Positive bodies with 1–2 atoms (binary and ternary mixed).
fn small_bodies() -> Workload {
    let atoms = binary_atoms().append(ternary_atoms());
    Workload::new(["$A", "$A, $A"]).plug("$A", &atoms)
}

/// Positive bodies with 1–3 atoms (3-atom bodies binary-only, to keep the
/// enumeration in the tens of thousands).
fn cq_bodies() -> Workload {
    small_bodies().append(Workload::new(["$A, $A, $A"]).plug("$A", &binary_atoms()))
}

/// Positive bodies used as the base of the DCQ/ECQ grammars: all 1-atom
/// bodies plus binary 2-atom bodies.
fn tail_bodies() -> Workload {
    binary_atoms()
        .append(ternary_atoms())
        .append(Workload::new(["$A, $A"]).plug("$A", &binary_atoms()))
}

/// Wrap bodies in heads with one and two free variables.
fn with_heads(bodies: &Workload) -> Workload {
    Workload::new(["ans(x) :- $B", "ans(x, y) :- $B"]).plug("$B", bodies)
}

/// The raw (pre-filter) grammar of a class.
fn class_grammar(class: QueryClass) -> Workload {
    match class {
        QueryClass::CQ => with_heads(&cq_bodies()),
        QueryClass::DCQ => {
            let single = with_heads(&Workload::new(["$B, $D"]).plug("$B", &tail_bodies()))
                .plug("$D", &disequalities());
            let double = Workload::new(["ans(x) :- $B, $D, $D"])
                .plug("$B", &Workload::new(["$A, $A"]).plug("$A", &binary_atoms()))
                .plug("$D", &distinct_disequalities());
            single.append(double)
        }
        QueryClass::ECQ => {
            let single = with_heads(&Workload::new(["$B, $N"]).plug("$B", &tail_bodies()))
                .plug("$N", &negated_atoms());
            let mixed = Workload::new(["ans(x) :- $B, $D, $N"])
                .plug("$B", &Workload::new(["$A, $A"]).plug("$A", &binary_atoms()))
                .plug("$D", &distinct_disequalities())
                .plug("$N", &negated_atoms());
            single.append(mixed)
        }
    }
}

/// The filter every enumerated query must pass, plus the class assignment:
/// safe (preparable), at most 2 free variables, treewidth ≤ 2 (keeps both
/// approximation schemes cheap), and `query.class() == class` — so a DCQ
/// sketch whose disequality collapsed at parse time is *not* counted as a
/// DCQ.
fn class_filter(class: QueryClass) -> Filter {
    Filter::And(vec![
        Filter::Safe,
        Filter::MetricLe(Metric::FreeVars, 2),
        Filter::MetricLe(Metric::Treewidth, 2),
        Filter::Class(class),
    ])
}

/// One enumerated query of a class suite.
#[derive(Debug, Clone)]
pub struct SuiteQuery {
    /// Stable name, `cq-012`-style (index into the full enumeration).
    pub name: String,
    /// The query text (round-trips through `parse_query`).
    pub text: String,
    /// The parsed query.
    pub query: Query,
}

static CQ_CACHE: OnceLock<Vec<SuiteQuery>> = OnceLock::new();
static DCQ_CACHE: OnceLock<Vec<SuiteQuery>> = OnceLock::new();
static ECQ_CACHE: OnceLock<Vec<SuiteQuery>> = OnceLock::new();

/// Deterministically enumerate the full query family of a class: grammar →
/// canonical dedup → class filter, sorted by `(‖ϕ‖, text)` and named by
/// enumeration index. The result is cached per process (the grammar is a
/// few tens of thousands of parses).
pub fn enumerate_class(class: QueryClass) -> &'static [SuiteQuery] {
    let cache = match class {
        QueryClass::CQ => &CQ_CACHE,
        QueryClass::DCQ => &DCQ_CACHE,
        QueryClass::ECQ => &ECQ_CACHE,
    };
    cache.get_or_init(|| {
        let kept = class_grammar(class).canon().filter(&class_filter(class));
        // normalize each sketch to the parser's own rendering so suite
        // texts round-trip bit-exactly through `parse_query`/`Display`
        let mut queries: Vec<(String, Query)> = kept
            .queries()
            .into_iter()
            .map(|(_, q)| (q.to_string(), q))
            .collect();
        queries.sort_by_key(|(text, q)| (q.size(), text.clone()));
        let prefix = class_name(class).to_ascii_lowercase();
        queries
            .into_iter()
            .enumerate()
            .map(|(i, (text, query))| SuiteQuery {
                name: format!("{prefix}-{i:03}"),
                text,
                query,
            })
            .collect()
    })
}

/// A seeded sample of one class's enumeration.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The class the suite targets.
    pub class: QueryClass,
    /// The sampling seed.
    pub seed: u64,
    /// The sampled queries, in draw order.
    pub queries: Vec<SuiteQuery>,
}

/// Draw `count` queries (without replacement; clamped to the enumeration
/// size) from the class's full enumeration, seeded by
/// `split_seed(seed, class)` — a pure function of its arguments.
pub fn suite(class: QueryClass, seed: u64, count: usize) -> Suite {
    let all = enumerate_class(class);
    let mut rng = StdRng::seed_from_u64(split_seed(seed, class_tag(class)));
    let mut indices: Vec<usize> = (0..all.len()).collect();
    let count = count.min(all.len());
    // partial Fisher–Yates: the first `count` slots are the sample
    for i in 0..count {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    Suite {
        class,
        seed,
        queries: indices[..count].iter().map(|&i| all[i].clone()).collect(),
    }
}

/// Render the byte-stable suite manifest for a seed: per class, the
/// enumeration size and the sampled queries. This is the golden text of
/// `tests/golden/workload_suites.txt` and what CI diffs on every push.
pub fn manifest(seed: u64, per_class: usize) -> String {
    let mut out = format!("# workload suite manifest — seed {seed}, {per_class} per class\n");
    for class in ALL_CLASSES {
        let all = enumerate_class(class);
        let s = suite(class, seed, per_class);
        out.push_str(&format!(
            "class {}: enumerated={} sampled={}\n",
            class_name(class),
            all.len(),
            s.queries.len()
        ));
        for q in &s.queries {
            out.push_str(&format!("  {:<9} {}\n", q.name, q.text));
        }
    }
    out
}

/// A seeded database scaled by tuple count, covering both relations the
/// grammar uses: a sparse random digraph `E` (≈ 2/3 of the tuples) plus
/// uniform ternary facts `R` (≈ 1/3). Universe size grows with the tuple
/// budget so instances stay sparse.
pub fn suite_database(seed: u64, tuples: usize) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (tuples / 3).clamp(4, 64);
    let e_facts = (tuples * 2) / 3;
    let r_facts = tuples - e_facts;
    // E as an Erdős–Rényi digraph with expected e_facts edges
    let p = (e_facts as f64 / (n * (n - 1)) as f64).min(1.0);
    let graph = erdos_renyi(n, p, &mut rng);
    let mut b = StructureBuilder::new(n);
    b.relation("E", 2);
    b.relation("R", 3);
    for &(u, v) in &graph.edges {
        b.fact("E", &[u as u32, v as u32]).expect("binary fact");
    }
    for _ in 0..r_facts {
        let t = [
            rng.gen_range(0..n as u32),
            rng.gen_range(0..n as u32),
            rng.gen_range(0..n as u32),
        ];
        b.fact("R", &t).expect("ternary fact");
    }
    b.build()
}

/// Synthesize a serve-protocol request mix over one class's enumeration:
/// request `i` is a pure function of `split_seed(split_seed(mix_seed,
/// class), i)`, mirroring the curated mix's determinism contract —
/// identical however many connections replay it.
pub fn suite_request_mix(class: QueryClass, mix_seed: u64, n: usize) -> Vec<RequestSpec> {
    (0..n as u64)
        .map(|i| suite_request_spec(class, mix_seed, i))
        .collect()
}

/// Synthesize request `index` of a class mix (see [`suite_request_mix`]).
pub fn suite_request_spec(class: QueryClass, mix_seed: u64, index: u64) -> RequestSpec {
    let stream = split_seed(split_seed(mix_seed, class_tag(class)), index);
    let mut rng = StdRng::seed_from_u64(stream);
    let all = enumerate_class(class);
    let q = &all[rng.gen_range(0..all.len())];
    let items = rng.gen_range(1..=2usize);
    let dbs = (0..items as u64)
        .map(|i| {
            let tuples = rng.gen_range(12..=30usize);
            write_facts(&suite_database(split_seed(stream, 2 + i), tuples))
        })
        .collect();
    RequestSpec {
        index,
        query_name: q.name.clone(),
        query: q.text.clone(),
        dbs,
        // looser than the curated mix: enumerated queries are richer, and
        // the suites measure trajectory, not tight estimates
        seed: split_seed(stream, 1),
        epsilon: 0.5,
        delta: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plug_expands_the_cartesian_product_in_order() {
        let w = Workload::new(["$A, $A"]).plug("$A", &Workload::new(["p", "q"]));
        assert_eq!(w.sketches(), ["p, p", "p, q", "q, p", "q, q"]);
        // un-plugged sketches survive untouched
        let w = Workload::new(["ans(x) :- $B"]).plug("$C", &Workload::new(["p"]));
        assert_eq!(w.sketches(), ["ans(x) :- $B"]);
    }

    #[test]
    fn filter_drops_unparseable_and_bounds_metrics() {
        let w = Workload::new([
            "ans(x) :- E(x, y)",
            "ans(x) :- E(x, y), E(y, z)",
            "ans(x) :- $HOLE",           // never plugged: dropped
            "ans(x) :- E(x, x), x != x", // reflexive: dropped at parse
        ]);
        let small = w.filter(&Filter::MetricLe(Metric::Atoms, 1));
        assert_eq!(small.sketches(), ["ans(x) :- E(x, y)"]);
        let eq = w.filter(&Filter::MetricEq(Metric::Vars, 3));
        assert_eq!(eq.sketches(), ["ans(x) :- E(x, y), E(y, z)"]);
        let none = w.filter(&Filter::Not(Box::new(Filter::Safe)));
        assert!(none.is_empty());
    }

    #[test]
    fn canon_identifies_renamings_and_reorderings() {
        let w = Workload::new([
            "ans(x) :- E(x, y), E(x, z), y != z",
            "ans(a) :- E(a, b), E(a, c), b != c", // renaming of the first
            "ans(x) :- E(x, z), E(x, y), z != y", // reordering of the first
            "ans(x) :- E(y, x), E(x, z), y != z", // genuinely different
        ]);
        let c = w.canon();
        assert_eq!(c.len(), 2, "{:?}", c.sketches());
        assert_eq!(c.sketches()[0], "ans(x) :- E(x, y), E(x, z), y != z");
    }

    #[test]
    fn safe_filter_requires_positive_grounding() {
        let only_negated = parse_query("ans(x) :- E(x, x), !E(x, y)").unwrap();
        assert!(!Filter::Safe.accepts(&only_negated));
        let grounded = parse_query("ans(x) :- E(x, y), !E(y, x)").unwrap();
        assert!(Filter::Safe.accepts(&grounded));
    }

    #[test]
    fn enumerations_are_sizeable_and_class_pure() {
        for class in ALL_CLASSES {
            let all = enumerate_class(class);
            assert!(
                all.len() >= 100,
                "{} enumerates only {} queries",
                class_name(class),
                all.len()
            );
            for q in all.iter() {
                assert_eq!(q.query.class(), class, "{}", q.text);
                // names are stable indices
                assert!(q.name.starts_with(&class_name(class).to_ascii_lowercase()));
                // texts round-trip
                assert_eq!(parse_query(&q.text).unwrap().to_string(), q.text);
            }
        }
    }

    #[test]
    fn suites_are_seeded_samples_without_replacement() {
        let a = suite(QueryClass::DCQ, 7, 12);
        let b = suite(QueryClass::DCQ, 7, 12);
        assert_eq!(
            a.queries.iter().map(|q| &q.name).collect::<Vec<_>>(),
            b.queries.iter().map(|q| &q.name).collect::<Vec<_>>()
        );
        let names: std::collections::BTreeSet<_> = a.queries.iter().map(|q| &q.name).collect();
        assert_eq!(names.len(), 12, "sample drew a duplicate");
        let other = suite(QueryClass::DCQ, 8, 12);
        assert_ne!(
            a.queries.iter().map(|q| &q.name).collect::<Vec<_>>(),
            other.queries.iter().map(|q| &q.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn manifest_is_deterministic() {
        let m = manifest(0xC0FFEE, 4);
        assert_eq!(m, manifest(0xC0FFEE, 4));
        for class in ["class CQ:", "class DCQ:", "class ECQ:"] {
            assert!(m.contains(class), "{m}");
        }
    }

    #[test]
    fn suite_databases_scale_with_tuples_and_cover_both_relations() {
        let db = suite_database(42, 30);
        assert_eq!(write_facts(&db), write_facts(&suite_database(42, 30)));
        let r = db.signature().symbol("R").expect("ternary relation");
        assert_eq!(db.signature().arity(r), 3);
        assert!(db.signature().symbol("E").is_some());
        assert!(db.fact_count() > 0);
        let bigger = suite_database(42, 120);
        assert!(bigger.universe_size() > db.universe_size());
    }

    #[test]
    fn suite_request_mix_is_index_stable() {
        let a = suite_request_mix(QueryClass::ECQ, 0xFEED, 6);
        let longer = suite_request_mix(QueryClass::ECQ, 0xFEED, 12);
        assert_eq!(a[3].query, longer[3].query);
        assert_eq!(a[3].dbs, longer[3].dbs);
        assert_eq!(a[3].seed, longer[3].seed);
        for spec in &a {
            assert!(spec.query.starts_with("ans("), "{}", spec.query);
            for facts in &spec.dbs {
                cqc_data::parse_facts(facts).expect("suite facts parse back");
            }
        }
    }
}
