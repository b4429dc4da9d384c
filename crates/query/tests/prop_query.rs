//! Property-based tests for the query layer: random ECQs over random
//! databases, checked against the definitions of Section 1.1 and Section 2.2
//! of the paper (solutions vs answers, the size measure ‖ϕ‖, the associated
//! structures A(ϕ) and B(ϕ, D) of Definitions 18/20 and Observations 19/21,
//! and the hypergraph H(ϕ) of Definition 3).

use cqc_data::{Structure, StructureBuilder, Val};
use cqc_query::{
    build_a_structure, build_b_structure, count_answers_bruteforce, enumerate_answers,
    enumerate_solutions, exact_count_answers, is_answer, is_solution, parse_query,
    query_hypergraph, QueryBuilder, QueryClass,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Description of one random literal over `num_vars` variables.
#[derive(Debug, Clone)]
enum RawLiteral {
    Positive(Vec<usize>),
    Negated(Vec<usize>),
    Disequality(usize, usize),
}

/// A raw random ECQ: how many variables, how many of them are free, and the
/// list of literals (variable indices are taken modulo `num_vars`).
#[derive(Debug, Clone)]
struct RawQuery {
    num_vars: usize,
    num_free: usize,
    literals: Vec<RawLiteral>,
}

fn raw_literal(num_vars: usize) -> impl Strategy<Value = RawLiteral> {
    let positive = proptest::collection::vec(0..num_vars, 1..=2).prop_map(RawLiteral::Positive);
    let negated = proptest::collection::vec(0..num_vars, 1..=2).prop_map(RawLiteral::Negated);
    let diseq = (0..num_vars, 0..num_vars).prop_map(|(u, v)| RawLiteral::Disequality(u, v));
    prop_oneof![4 => positive, 1 => negated, 2 => diseq]
}

fn raw_query() -> impl Strategy<Value = RawQuery> {
    (2usize..=4).prop_flat_map(|num_vars| {
        (
            Just(num_vars),
            1usize..=num_vars,
            proptest::collection::vec(raw_literal(num_vars), 1..5),
        )
            .prop_map(|(num_vars, num_free, literals)| RawQuery {
                num_vars,
                num_free,
                literals,
            })
    })
}

/// Materialise a raw query through [`QueryBuilder`]. Returns `None` when the
/// raw description is degenerate (e.g. a variable occurs only in
/// disequalities, or a disequality relates a variable with itself).
fn build_query(raw: &RawQuery) -> Option<cqc_query::Query> {
    let mut b = QueryBuilder::new();
    let vars: Vec<_> = (0..raw.num_vars).map(|i| b.var(&format!("v{i}"))).collect();
    b.free(&vars[0..raw.num_free]);
    let mut used = vec![false; raw.num_vars];
    let mut has_atom = false;
    for lit in &raw.literals {
        match lit {
            RawLiteral::Positive(ixs) => {
                let vs: Vec<_> = ixs.iter().map(|&i| vars[i]).collect();
                let name = format!("R{}", ixs.len());
                b.atom(&name, &vs);
                ixs.iter().for_each(|&i| used[i] = true);
                has_atom = true;
            }
            RawLiteral::Negated(ixs) => {
                let vs: Vec<_> = ixs.iter().map(|&i| vars[i]).collect();
                let name = format!("N{}", ixs.len());
                b.negated_atom(&name, &vs);
                ixs.iter().for_each(|&i| used[i] = true);
                has_atom = true;
            }
            RawLiteral::Disequality(u, v) => {
                if u == v {
                    return None;
                }
                b.disequality(vars[*u], vars[*v]);
            }
        }
    }
    if !has_atom || used.iter().any(|u| !u) {
        // Ensure every variable occurs in at least one atom by adding a
        // harmless unary atom per unused variable.
        for (i, &u) in used.iter().enumerate() {
            if !u {
                b.atom("U1", &[vars[i]]);
            }
        }
        if !has_atom && raw.num_vars == 0 {
            return None;
        }
    }
    b.build().ok()
}

/// A random database over all the relation names the generator can emit.
fn random_db(universe: usize, seed: &[u8]) -> Structure {
    let mut b = StructureBuilder::new(universe);
    b.relation("R1", 1);
    b.relation("R2", 2);
    b.relation("N1", 1);
    b.relation("N2", 2);
    b.relation("U1", 1);
    // Deterministic pseudo-random fill derived from the seed bytes.
    let mut state = 0x9E3779B97F4A7C15u64;
    for &byte in seed {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(byte as u64 + 1);
    }
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = universe as u64;
    for _ in 0..(2 * universe) {
        let u = (next() % n) as u32;
        let v = (next() % n) as u32;
        if next() % 2 == 0 {
            b.fact("R2", &[u, v]).unwrap();
        }
        if next() % 3 == 0 {
            b.fact("N2", &[v, u]).unwrap();
        }
        if next() % 3 == 0 {
            b.fact("R1", &[u]).unwrap();
        }
        if next() % 4 == 0 {
            b.fact("N1", &[v]).unwrap();
        }
        if next() % 2 == 0 {
            b.fact("U1", &[u]).unwrap();
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The exact count (the join's solutions, projected) agrees with the
    /// definitional brute force over every full assignment, and both agree
    /// with the size of the enumerated answer set.
    #[test]
    fn exact_counters_agree(raw in raw_query(), universe in 2usize..5, seed in proptest::collection::vec(any::<u8>(), 4)) {
        let Some(q) = build_query(&raw) else { return Ok(()); };
        let db = random_db(universe, &seed);
        let brute = count_answers_bruteforce(&q, &db);
        let via_join = exact_count_answers(&q, &db);
        let enumerated = enumerate_answers(&q, &db);
        prop_assert_eq!(brute, via_join);
        prop_assert_eq!(brute as usize, enumerated.len());
    }

    /// Definition 2: τ is an answer iff some solution projects onto it, and
    /// every enumerated solution satisfies every literal (Definition 1);
    /// `is_answer` accepts exactly the answers.
    #[test]
    fn answers_are_projections_of_solutions(raw in raw_query(), universe in 2usize..4, seed in proptest::collection::vec(any::<u8>(), 4)) {
        let Some(q) = build_query(&raw) else { return Ok(()); };
        let db = random_db(universe, &seed);
        let solutions = enumerate_solutions(&q, &db);
        for s in &solutions {
            prop_assert!(is_solution(&q, &db, s));
        }
        let projected: BTreeSet<Vec<Val>> = solutions
            .iter()
            .map(|s| q.free_vars().iter().map(|v| s[v.index()]).collect())
            .collect();
        let answers = enumerate_answers(&q, &db);
        prop_assert_eq!(&projected, &answers);
        // is_answer agrees with the answer set on every τ ∈ U^ℓ
        let ell = q.num_free_vars() as u32;
        for code in 0..(universe as u32).pow(ell) {
            let tau: Vec<Val> = (0..ell)
                .map(|i| Val(code / (universe as u32).pow(i) % universe as u32))
                .collect();
            prop_assert_eq!(is_answer(&q, &db, &tau), answers.contains(&tau), "τ = {:?}", tau);
        }
    }

    /// ‖ϕ‖ (Section 1.1) is |vars(ϕ)| plus the summed arities of all atoms
    /// (counting disequalities as arity-2 atoms), and the class of the query
    /// reflects exactly which extensions it uses.
    #[test]
    fn size_and_class(raw in raw_query()) {
        let Some(q) = build_query(&raw) else { return Ok(()); };
        let atom_arities: usize = q.literals().iter().map(|l| l.atom().arity()).sum();
        let expected = q.num_vars() + atom_arities + 2 * q.disequalities().len();
        prop_assert_eq!(q.size(), expected);

        let has_neg = q.num_negated() > 0;
        let has_diseq = !q.disequalities().is_empty();
        let class = q.class();
        match (has_neg, has_diseq) {
            (true, _) => prop_assert_eq!(class, QueryClass::ECQ),
            (false, true) => prop_assert_eq!(class, QueryClass::DCQ),
            (false, false) => prop_assert_eq!(class, QueryClass::CQ),
        }
    }

    /// Observation 19: ‖A(ϕ)‖ ≤ |sig(ϕ)| + ν + ‖ϕ‖ ≤ 3‖ϕ‖.
    #[test]
    fn observation_19_size_of_a(raw in raw_query()) {
        let Some(q) = build_query(&raw) else { return Ok(()); };
        let a = build_a_structure(&q);
        let nu = q.num_negated();
        let sig_size = q.signature().len();
        prop_assert!(a.size() <= sig_size + nu + q.size());
        prop_assert!(a.size() <= 3 * q.size());
        // A(ϕ)'s universe is vars(ϕ).
        prop_assert_eq!(a.universe_size(), q.num_vars());
    }

    /// Observation 21: ‖B(ϕ, D)‖ ≤ 2‖ϕ‖(‖D‖ + ν·|U(D)|^a), and B's universe
    /// is the universe of D.
    #[test]
    fn observation_21_size_of_b(raw in raw_query(), universe in 2usize..4, seed in proptest::collection::vec(any::<u8>(), 4)) {
        let Some(q) = build_query(&raw) else { return Ok(()); };
        let db = random_db(universe, &seed);
        let b = build_b_structure(&q, &db).unwrap();
        prop_assert_eq!(b.universe_size(), db.universe_size());
        let nu = q.num_negated();
        let a = q.max_arity().max(1);
        let bound = 2 * q.size() * (db.size() + nu * universe.pow(a as u32));
        prop_assert!(b.size() <= bound, "‖B‖ = {} > bound {}", b.size(), bound);
    }

    /// Definition 3: H(ϕ) has one vertex per variable, a hyperedge per
    /// (negated) atom, and *no* hyperedges for disequalities.
    #[test]
    fn query_hypergraph_definition_3(raw in raw_query()) {
        let Some(q) = build_query(&raw) else { return Ok(()); };
        let h = query_hypergraph(&q);
        prop_assert_eq!(h.num_vertices(), q.num_vars());
        // every hyperedge corresponds to the variable set of some literal
        for e in h.edges() {
            let found = q.literals().iter().any(|l| {
                let vs: BTreeSet<usize> = l.atom().vars.iter().map(|v| v.index()).collect();
                &vs == e
            });
            prop_assert!(found, "hyperedge {:?} comes from no literal", e);
        }
        // every literal's variable set is inside some hyperedge (it may be a
        // strict subset only if another literal has the same variable set —
        // hyperedges are deduplicated)
        for l in q.literals() {
            let vs: BTreeSet<usize> = l.atom().vars.iter().map(|v| v.index()).collect();
            prop_assert!(h.edges().iter().any(|e| e == &vs));
        }
        // arity of the hypergraph ≤ max arity of the query
        prop_assert!(h.arity() <= q.max_arity().max(1));
    }

    /// Adding a disequality can only remove answers; dropping all
    /// disequalities can only add them (monotonicity used implicitly
    /// throughout Section 1.2's examples).
    #[test]
    fn disequalities_shrink_answer_sets(universe in 2usize..5, seed in proptest::collection::vec(any::<u8>(), 4)) {
        let db = random_db(universe, &seed);
        let with = parse_query("ans(x, y) :- R2(x, z), R2(z, y), x != y").unwrap();
        let without = parse_query("ans(x, y) :- R2(x, z), R2(z, y)").unwrap();
        let a_with = enumerate_answers(&with, &db);
        let a_without = enumerate_answers(&without, &db);
        prop_assert!(a_with.is_subset(&a_without));
        for a in &a_with {
            prop_assert!(a[0] != a[1]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The textual parser and the programmatic builder produce the same
    /// query for star-shaped DCQs of every size.
    #[test]
    fn parser_matches_builder_on_stars(k in 1usize..5, universe in 2usize..5, seed in proptest::collection::vec(any::<u8>(), 4)) {
        // parse "ans(x1, ..) :- R2(x1, y), .., xi != xj .."
        let mut text = String::from("ans(");
        let free: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
        text.push_str(&free.join(", "));
        text.push_str(") :- ");
        let mut parts: Vec<String> = (0..k).map(|i| format!("R2(y, x{i})")).collect();
        for i in 0..k {
            for j in (i + 1)..k {
                parts.push(format!("x{i} != x{j}"));
            }
        }
        text.push_str(&parts.join(", "));
        let parsed = parse_query(&text).unwrap();

        let mut b = QueryBuilder::new();
        let y = b.var("y");
        let xs: Vec<_> = (0..k).map(|i| b.var(&format!("x{i}"))).collect();
        b.free(&xs);
        for &x in &xs {
            b.atom("R2", &[y, x]);
        }
        for i in 0..k {
            for j in (i + 1)..k {
                b.disequality(xs[i], xs[j]);
            }
        }
        let built = b.build().unwrap();

        prop_assert_eq!(parsed.num_vars(), built.num_vars());
        prop_assert_eq!(parsed.num_free_vars(), built.num_free_vars());
        prop_assert_eq!(parsed.disequalities().len(), built.disequalities().len());
        prop_assert_eq!(parsed.class(), built.class());
        prop_assert_eq!(parsed.size(), built.size());

        // and they have the same answers on a random database
        let db = random_db(universe, &seed);
        prop_assert_eq!(
            exact_count_answers(&parsed, &db),
            exact_count_answers(&built, &db)
        );
    }

    /// Equalities are rewritten away at build time (Section 1.1): a query
    /// with `y = x` behaves exactly like the query with `y` substituted by
    /// `x`, the merged query has one variable fewer, and equating two *free*
    /// variables is rejected (it would silently change the answer arity).
    #[test]
    fn equalities_are_rewritten_away(universe in 2usize..5, seed in proptest::collection::vec(any::<u8>(), 4)) {
        let db = random_db(universe, &seed);

        // Equate the free variable x with the existential variable y.
        let mut b = QueryBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.free(&[x]);
        b.atom("R2", &[x, z]);
        b.atom("R2", &[z, y]);
        b.equality(x, y);
        let with_eq = b.build().unwrap();
        prop_assert_eq!(with_eq.num_vars(), 2); // y merged into x

        // the paper's rewriting: replace y by x everywhere
        let reference = {
            let q = parse_query("ans(x) :- R2(x, z), R2(z, x)").unwrap();
            exact_count_answers(&q, &db)
        };
        prop_assert_eq!(exact_count_answers(&with_eq, &db), reference);

        // Equating two free variables must be rejected.
        let mut b2 = QueryBuilder::new();
        let x2 = b2.var("x");
        let y2 = b2.var("y");
        b2.free(&[x2, y2]);
        b2.atom("R2", &[x2, y2]);
        b2.equality(x2, y2);
        prop_assert!(b2.build().is_err());
    }
}
