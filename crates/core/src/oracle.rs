//! The colour-coding `EdgeFree` oracle for the answer hypergraph `H(ϕ, D)`
//! (Section 3 of the paper: Definition 24, Lemma 30 and the simulation inside
//! Lemma 22).
//!
//! The oracle answers queries "does `H(ϕ, D)[V₁, …, V_ℓ]` contain a
//! hyperedge?", i.e. "is there an answer whose `i`-th free variable lies in
//! `V_i` for every `i`?", by
//!
//! 1. a *relaxation check*: one `Hom(Â(ϕ), B̂_relaxed)` query in which every
//!    element carries both colours — if even this fails there is certainly no
//!    answer in the region and the oracle reports edge-free with a single
//!    `Hom` call;
//! 2. otherwise `Q` rounds of colour coding: draw a colouring family `f`
//!    uniformly at random and ask `Hom(Â(ϕ), B̂(ϕ, D, V₁..V_ℓ, f))`; any
//!    positive round certifies a hyperedge (Lemma 30, forward direction),
//!    while `Q` negative rounds make a missed hyperedge exponentially
//!    unlikely (reverse direction plus the `4^{-|Δ|}` colouring-success
//!    probability of Lemma 22).

use cqc_data::{Structure, Val};
use cqc_dlm::EdgeFreeOracle;
use cqc_hom::HomDecider;
use cqc_query::colored::{build_a_hat, build_b_hat, ColouringFamily, PartiteSets};
use cqc_query::Query;
use cqc_runtime::{split_seed, Runtime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// The `EdgeFree` oracle for `H(ϕ, D)` used by the FPTRAS of Theorems 5
/// and 13.
pub struct AnswerOracle<'a, H: HomDecider> {
    query: &'a Query,
    b_structure: Structure,
    a_hat: Cow<'a, Structure>,
    decider: &'a H,
    /// Number of colour-coding repetitions `Q` per oracle call.
    repetitions: usize,
    universe_size: usize,
    /// Root of the oracle's seed tree. Repetition `r` of oracle call `c`
    /// draws its colouring from the stream `split_seed2(seed, c, r)` —
    /// never from a shared sequential stream — so the oracle's answers are
    /// bit-identical for any thread count (see `cqc-runtime`).
    seed: u64,
    runtime: Runtime,
    /// The all-true colouring used by the relaxation check; constant across
    /// calls, so it is built lazily on the first relaxation query (or
    /// borrowed from a batch scratch and never allocated here at all).
    relaxed_colouring: Option<Cow<'a, ColouringFamily>>,
    hom_calls: u64,
    oracle_calls: u64,
}

impl<'a, H: HomDecider> AnswerOracle<'a, H> {
    /// Create the oracle.
    ///
    /// `b_structure` must be `B(ϕ, D)` as produced by
    /// [`cqc_query::build_b_structure`]. `repetitions` is the number `Q` of
    /// colouring rounds per `EdgeFree` query; pass the value returned by
    /// [`AnswerOracle::recommended_repetitions`] (or the paper-faithful
    /// `⌈log(2Tℓ!/δ)⌉·4^{|Δ|}` if oracle-call-exact fidelity matters more
    /// than speed).
    pub fn new(
        query: &'a Query,
        b_structure: Structure,
        universe_size: usize,
        decider: &'a H,
        repetitions: usize,
        seed: u64,
    ) -> Self {
        let a_hat = Cow::Owned(build_a_hat(query));
        Self::with_cow_a_hat(
            query,
            b_structure,
            a_hat,
            universe_size,
            decider,
            repetitions,
            seed,
        )
    }

    /// Create the oracle from a pre-built `Â(ϕ)` (the prepared-plan hot
    /// path: `Â(ϕ)` is query-side, cached in
    /// [`crate::fptras::FptrasPlan`], and only ever read — so it is
    /// borrowed, not cloned, per evaluation).
    pub fn with_a_hat(
        query: &'a Query,
        b_structure: Structure,
        a_hat: &'a Structure,
        universe_size: usize,
        decider: &'a H,
        repetitions: usize,
        seed: u64,
    ) -> Self {
        Self::with_cow_a_hat(
            query,
            b_structure,
            Cow::Borrowed(a_hat),
            universe_size,
            decider,
            repetitions,
            seed,
        )
    }

    fn with_cow_a_hat(
        query: &'a Query,
        b_structure: Structure,
        a_hat: Cow<'a, Structure>,
        universe_size: usize,
        decider: &'a H,
        repetitions: usize,
        seed: u64,
    ) -> Self {
        AnswerOracle {
            query,
            b_structure,
            a_hat,
            decider,
            repetitions: repetitions.max(1),
            universe_size,
            seed,
            runtime: Runtime::serial(),
            relaxed_colouring: None,
            hom_calls: 0,
            oracle_calls: 0,
        }
    }

    /// Run the colour-coding repetitions of each `EdgeFree` call on the
    /// given runtime (default: serial). Bit-identical answers for any
    /// thread count — each repetition has its own seed-split RNG stream.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Borrow a pre-built all-true relaxation colouring instead of
    /// allocating one (the per-thread batch scratch shares it across the
    /// databases of a `count_batch` run; dimensions must match
    /// `(|Δ(ϕ)|, |U(D)|)`).
    pub fn with_relaxed_colouring(mut self, colouring: &'a ColouringFamily) -> Self {
        debug_assert_eq!(colouring.red.len(), self.query.disequalities().len());
        debug_assert!(colouring
            .red
            .first()
            .map(|r| r.len() == self.universe_size)
            .unwrap_or(true));
        self.relaxed_colouring = Some(Cow::Borrowed(colouring));
        self
    }

    /// A practical default for the number of colouring rounds: with `|Δ|`
    /// disequalities a fixed witnessing solution is correctly coloured with
    /// probability `4^{-|Δ|}`, so `Q = ⌈4^{|Δ|} · (ln(1/δ) + 3)⌉` keeps the
    /// per-call failure probability below `e^{-(ln(1/δ)+3)} < δ/20`.
    pub fn recommended_repetitions(query: &Query, delta: f64) -> usize {
        let d = query.disequalities().len() as u32;
        let base = 4f64.powi(d as i32);
        ((base * ((1.0 / delta).ln() + 3.0)).ceil() as usize).clamp(1, 500_000)
    }

    /// Total `Hom` oracle queries issued so far.
    pub fn hom_calls(&self) -> u64 {
        self.hom_calls
    }

    /// Convert a per-class vertex subset into a [`PartiteSets`] value.
    fn to_partite_sets(&self, parts: &[BTreeSet<usize>]) -> PartiteSets {
        PartiteSets {
            sets: parts
                .iter()
                .map(|p| p.iter().map(|&v| Val(v as u32)).collect())
                .collect(),
        }
    }

    /// One `Hom(Â, B̂)` query for the given colouring.
    fn hom_query(&mut self, parts: &PartiteSets, colouring: &ColouringFamily) -> bool {
        let (b_hat, _) = build_b_hat(self.query, &self.b_structure, parts, colouring);
        self.hom_calls += 1;
        self.decider.decide(&self.a_hat, &b_hat)
    }

    /// The relaxation check: colour relations are replaced by full relations,
    /// so the query asks only for a solution ignoring the disequalities
    /// within the restricted region. A negative answer soundly certifies
    /// edge-freeness.
    fn relaxed_hom_query(&mut self, parts: &PartiteSets) -> bool {
        let colouring = self.relaxed_colouring.get_or_insert_with(|| {
            Cow::Owned(ColouringFamily::from_fn(
                self.query.disequalities().len(),
                self.universe_size,
                |_, _| true,
            ))
        });
        let (mut b_hat, decode) = build_b_hat(self.query, &self.b_structure, parts, colouring);
        // make every element carry *both* colours
        for d in 0..self.query.disequalities().len() {
            let blue = b_hat
                .signature()
                .symbol(&format!("Bd{d}"))
                .expect("colour relation present");
            for id in 0..decode.len() {
                b_hat
                    .insert_fact(blue, &[Val(id as u32)])
                    .expect("in range");
            }
        }
        self.hom_calls += 1;
        self.decider.decide(&self.a_hat, &b_hat)
    }
}

impl<'a, H: HomDecider + Sync> EdgeFreeOracle for AnswerOracle<'a, H> {
    fn num_classes(&self) -> usize {
        self.query.num_free_vars()
    }

    fn class_size(&self, _i: usize) -> usize {
        self.universe_size
    }

    fn edge_free(&mut self, parts: &[BTreeSet<usize>]) -> bool {
        self.oracle_calls += 1;
        // The call's span ID doubles as the root of its repetition seed
        // tree: both are `split_seed(seed, call_index)`.
        let call_seed = split_seed(self.seed, self.oracle_calls);
        let _span = cqc_obs::trace::Span::enter("oracle_call", call_seed);
        let partite = self.to_partite_sets(parts);
        if partite.sets.iter().any(|s| s.is_empty()) {
            return true;
        }
        let num_diseq = self.query.disequalities().len();
        if num_diseq == 0 {
            // No colours needed: Lemma 30 degenerates to a single Hom query.
            return !self.hom_query(&partite, &ColouringFamily::empty());
        }
        // Relaxation: no solution even ignoring disequalities ⇒ edge-free.
        if !self.relaxed_hom_query(&partite) {
            return true;
        }
        // Colour-coding rounds, fanned out over the runtime. Repetition `r`
        // of this call draws its colouring from the private RNG stream
        // `split_seed2(seed, call, r)`, so the *set* of colourings is a pure
        // function of the seed and the call index. "Some round sees a
        // homomorphism" is an order-insensitive ∃ over that fixed set, hence
        // the answer is bit-identical for 1, 2, or N threads — only the
        // number of rounds actually evaluated (after a witness is found)
        // varies with scheduling, which is why `hom_calls` is telemetry, not
        // part of the determinism contract.
        let (query, b_structure, a_hat, decider) =
            (self.query, &self.b_structure, &*self.a_hat, self.decider);
        let universe_size = self.universe_size;
        // Fanning out pays a pool dispatch (a mutex lock and a wakeup) per
        // oracle call; when a call's total work is tiny (few rounds over a
        // small `B̂`), the dispatch exceeds the parallelised work, so small
        // instances run serially. A call issued from inside a pool worker
        // (count_batch / serve shards) runs inline on that worker whatever
        // the cutoff. The cutoff cannot affect the answer — the set of
        // colourings and hence the ∃ outcome is the same either way.
        let work_proxy = self.repetitions * (universe_size + self.b_structure.fact_count());
        let runtime = if work_proxy >= 256 {
            self.runtime
        } else {
            Runtime::serial()
        };
        let rounds_evaluated = AtomicU64::new(0);
        let witnessed = runtime.par_any_n(self.repetitions, |r| {
            let rep_seed = split_seed(call_seed, r as u64);
            // repetitions may run on pool workers: attach to the call's
            // span by explicit parent ID, not the worker's (empty) stack
            let _rep = cqc_obs::trace::Span::child_of(call_seed, "repetition", rep_seed);
            let mut rng = StdRng::seed_from_u64(rep_seed);
            let colouring =
                ColouringFamily::from_fn(num_diseq, universe_size, |_, _| rng.gen::<bool>());
            let (b_hat, _) = build_b_hat(query, b_structure, &partite, &colouring);
            rounds_evaluated.fetch_add(1, Ordering::Relaxed);
            decider.decide(a_hat, &b_hat)
        });
        self.hom_calls += rounds_evaluated.load(Ordering::Relaxed);
        !witnessed
    }

    fn calls(&self) -> u64 {
        self.oracle_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;
    use cqc_hom::HybridDecider;
    use cqc_query::{build_b_structure, enumerate_answers, parse_query};

    fn friends_db() -> Structure {
        let mut b = StructureBuilder::new(5);
        b.relation("F", 2);
        b.fact("F", &[0, 1]).unwrap();
        b.fact("F", &[0, 2]).unwrap();
        b.fact("F", &[3, 0]).unwrap();
        b.fact("F", &[3, 4]).unwrap();
        b.build()
    }

    #[test]
    fn oracle_agrees_with_ground_truth_on_singletons() {
        // ϕ(x) = ∃y∃z F(x,y) ∧ F(x,z) ∧ y ≠ z — answers are exactly the
        // vertices with ≥ 2 distinct out-neighbours: {0, 3}.
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let decider = HybridDecider::new();
        let mut oracle = AnswerOracle::new(&q, b, db.universe_size(), &decider, 24, 7);
        let answers = enumerate_answers(&q, &db);
        for v in 0..db.universe_size() {
            let parts = vec![[v].into_iter().collect::<BTreeSet<usize>>()];
            let expected_edge = answers.contains(&vec![Val(v as u32)]);
            assert_eq!(
                !oracle.edge_free(&parts),
                expected_edge,
                "vertex {v} misclassified"
            );
        }
        assert!(oracle.calls() >= 5);
        assert!(oracle.hom_calls() >= 5);
    }

    #[test]
    fn oracle_without_disequalities_is_exact() {
        let q = parse_query("ans(x, y) :- F(x, z), F(z, y)").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let decider = HybridDecider::new();
        let mut oracle = AnswerOracle::new(&q, b, db.universe_size(), &decider, 1, 11);
        let answers = enumerate_answers(&q, &db);
        for x in 0..db.universe_size() {
            for y in 0..db.universe_size() {
                let parts = vec![
                    [x].into_iter().collect::<BTreeSet<usize>>(),
                    [y].into_iter().collect::<BTreeSet<usize>>(),
                ];
                let expected = answers.contains(&vec![Val(x as u32), Val(y as u32)]);
                assert_eq!(!oracle.edge_free(&parts), expected, "pair ({x},{y})");
            }
        }
    }

    #[test]
    fn empty_part_is_always_edge_free() {
        let q = parse_query("ans(x) :- F(x, y)").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let decider = HybridDecider::new();
        let mut oracle = AnswerOracle::new(&q, b, db.universe_size(), &decider, 4, 3);
        assert!(oracle.edge_free(&[BTreeSet::new()]));
    }

    #[test]
    fn boolean_query_oracle() {
        let q = parse_query("ans() :- F(x, y), F(y, z)").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let decider = HybridDecider::new();
        let mut oracle = AnswerOracle::new(&q, b, db.universe_size(), &decider, 4, 5);
        // 3 → 0 → 1 is a two-step path, so the (empty) answer exists
        assert!(!oracle.edge_free(&[]));
    }

    #[test]
    fn recommended_repetitions_scale_with_disequalities() {
        let q0 = parse_query("ans(x) :- F(x, y)").unwrap();
        let q1 = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let r0 = AnswerOracle::<HybridDecider>::recommended_repetitions(&q0, 0.05);
        let r1 = AnswerOracle::<HybridDecider>::recommended_repetitions(&q1, 0.05);
        assert!(r1 >= 4 * r0 - 4);
        assert!(r0 >= 1);
    }
}
