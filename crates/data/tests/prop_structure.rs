//! Property-based tests for the relational substrate: builder round trips,
//! the size measure ‖D‖ of Section 1.1, relation indices and complements, and
//! the singleton "constant" relations discussed below the problem definition.

use cqc_data::{Relation, Signature, Structure, StructureBuilder, Tuple, Val};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A small random database over a single binary relation `E` plus a unary
/// relation `L`, described by the raw fact lists.
#[derive(Debug, Clone)]
struct RawDb {
    universe: usize,
    binary_facts: Vec<(u32, u32)>,
    unary_facts: Vec<u32>,
}

fn raw_db() -> impl Strategy<Value = RawDb> {
    (2usize..8).prop_flat_map(|universe| {
        let n = universe as u32;
        let binary = proptest::collection::vec((0..n, 0..n), 0..20);
        let unary = proptest::collection::vec(0..n, 0..8);
        (binary, unary).prop_map(move |(binary_facts, unary_facts)| RawDb {
            universe,
            binary_facts,
            unary_facts,
        })
    })
}

fn build(raw: &RawDb) -> Structure {
    let mut b = StructureBuilder::new(raw.universe);
    b.relation("E", 2);
    b.relation("L", 1);
    for &(u, v) in &raw.binary_facts {
        b.fact("E", &[u, v]).unwrap();
    }
    for &u in &raw.unary_facts {
        b.fact("L", &[u]).unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every inserted fact holds, and nothing else does.
    #[test]
    fn builder_round_trip(raw in raw_db()) {
        let db = build(&raw);
        let e = db.signature().symbol("E").unwrap();
        let l = db.signature().symbol("L").unwrap();
        let distinct_e: BTreeSet<(u32, u32)> = raw.binary_facts.iter().copied().collect();
        let distinct_l: BTreeSet<u32> = raw.unary_facts.iter().copied().collect();
        prop_assert_eq!(db.relation(e).len(), distinct_e.len());
        prop_assert_eq!(db.relation(l).len(), distinct_l.len());
        prop_assert_eq!(db.fact_count(), distinct_e.len() + distinct_l.len());
        for u in 0..raw.universe as u32 {
            for v in 0..raw.universe as u32 {
                prop_assert_eq!(
                    db.holds(e, &[Val(u), Val(v)]),
                    distinct_e.contains(&(u, v))
                );
            }
            prop_assert_eq!(db.holds(l, &[Val(u)]), distinct_l.contains(&u));
        }
    }

    /// ‖D‖ = |sig(D)| + |U(D)| + Σ_R |R^D|·ar(R), exactly as in Section 1.1.
    #[test]
    fn size_measure_formula(raw in raw_db()) {
        let db = build(&raw);
        let distinct_e: BTreeSet<(u32, u32)> = raw.binary_facts.iter().copied().collect();
        let distinct_l: BTreeSet<u32> = raw.unary_facts.iter().copied().collect();
        let expected = 2 + raw.universe + 2 * distinct_e.len() + distinct_l.len();
        prop_assert_eq!(db.size(), expected);
    }

    /// Inserting a duplicate fact is a no-op and reports `false`.
    #[test]
    fn duplicate_insert_is_noop(raw in raw_db()) {
        prop_assume!(!raw.binary_facts.is_empty());
        let mut db = build(&raw);
        let e = db.signature().symbol("E").unwrap();
        let before = db.relation(e).len();
        let (u, v) = raw.binary_facts[0];
        let inserted = db.insert_fact(e, &[Val(u), Val(v)]).unwrap();
        prop_assert!(!inserted);
        prop_assert_eq!(db.relation(e).len(), before);
    }

    /// The per-column index (`matching`) agrees with a linear scan.
    #[test]
    fn relation_select_matches_scan(raw in raw_db(), pos in 0usize..2, value in 0u32..8) {
        let db = build(&raw);
        let e = db.signature().symbol("E").unwrap();
        let rel = db.relation(e);
        prop_assume!((value as usize) < raw.universe);
        let selected: BTreeSet<Vec<Val>> = rel
            .matching(pos, Val(value))
            .iter()
            .map(|t| t.values().to_vec())
            .collect();
        let scanned: BTreeSet<Vec<Val>> = rel
            .iter()
            .filter(|t| t.get(pos) == Val(value))
            .map(|t| t.values().to_vec())
            .collect();
        prop_assert_eq!(selected, scanned);
    }

    /// The complement relation partitions `U(D)^ar(R)` together with the
    /// original relation (this is how negated predicates are materialised in
    /// `B(ϕ, D)`, Definition 20).
    #[test]
    fn complement_partitions_tuple_space(raw in raw_db()) {
        let db = build(&raw);
        let e = db.signature().symbol("E").unwrap();
        let rel = db.relation(e);
        let comp = rel.complement(raw.universe);
        prop_assert_eq!(rel.len() + comp.len(), raw.universe * raw.universe);
        for t in rel.iter() {
            prop_assert!(!comp.contains(t));
        }
        for t in comp.iter() {
            prop_assert!(!rel.contains(t));
        }
    }

    /// Adding all singleton "constant" relations (the R_v of Section 1.1)
    /// adds exactly one unary singleton per universe element.
    #[test]
    fn constant_relations_are_singletons(raw in raw_db()) {
        let mut db = build(&raw);
        let sig_before = db.signature().len();
        let map = db.add_constant_relations().unwrap();
        prop_assert_eq!(map.len(), raw.universe);
        prop_assert_eq!(db.signature().len(), sig_before + raw.universe);
        for (v, sym) in &map {
            let rel = db.relation(*sym);
            prop_assert_eq!(rel.len(), 1);
            prop_assert!(rel.contains_values(&[*v]));
        }
    }

    /// The active domain of a relation is exactly the set of values that
    /// appear in some tuple.
    #[test]
    fn active_domain_is_union_of_tuples(raw in raw_db()) {
        let db = build(&raw);
        let e = db.signature().symbol("E").unwrap();
        let rel = db.relation(e);
        let expected: BTreeSet<Val> = rel
            .iter()
            .flat_map(|t| t.values().iter().copied())
            .collect();
        prop_assert_eq!(rel.active_domain(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Signatures reject duplicate declarations with a different arity but
    /// tolerate re-declaration with the same arity through `StructureBuilder`.
    #[test]
    fn signature_declare_and_lookup(names in proptest::collection::vec("[A-Z][a-z]{0,3}", 1..6)) {
        let mut sig = Signature::new();
        let mut declared: Vec<(String, usize)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            if declared.iter().any(|(n, _)| n == name) {
                continue;
            }
            let arity = 1 + (i % 3);
            sig.declare(name, arity).unwrap();
            declared.push((name.clone(), arity));
        }
        prop_assert_eq!(sig.len(), declared.len());
        for (name, arity) in &declared {
            let id = sig.symbol(name).unwrap();
            prop_assert_eq!(sig.arity(id), *arity);
            prop_assert_eq!(sig.name(id), name.as_str());
        }
        if let Some(max) = declared.iter().map(|(_, a)| *a).max() {
            prop_assert_eq!(sig.max_arity(), max);
        }
    }

    /// A signature extended with extra symbols contains the original one.
    #[test]
    fn subsignature_check(extra in proptest::collection::vec(("[A-Z][a-z]{0,3}", 1usize..4), 0..4)) {
        let mut sig = Signature::new();
        sig.declare("E", 2).unwrap();
        // deduplicate by name: re-declaring a symbol with a different arity is
        // (correctly) rejected and is not what this property is about
        let mut pairs: Vec<(&str, usize)> = Vec::new();
        for (n, a) in &extra {
            if n != "E" && !pairs.iter().any(|(seen, _)| *seen == n.as_str()) {
                pairs.push((n.as_str(), *a));
            }
        }
        let bigger = sig.extend_with(&pairs).unwrap();
        prop_assert!(sig.is_subsignature_of(&bigger));
        prop_assert!(bigger.len() >= sig.len());
    }

    /// Tuples preserve their values and arity.
    #[test]
    fn tuple_round_trip(values in proptest::collection::vec(0u32..100, 1..5)) {
        let vals: Vec<Val> = values.iter().map(|&v| Val(v)).collect();
        let t = Tuple::new(&vals);
        prop_assert_eq!(t.arity(), vals.len());
        prop_assert_eq!(t.values(), &vals[..]);
        let t2 = Tuple::from_raw(&values);
        prop_assert_eq!(t, t2);
    }

    /// `Relation::insert` reports whether the tuple is new, and `len`
    /// counts distinct tuples only.
    #[test]
    fn relation_insert_dedups(tuples in proptest::collection::vec((0u32..5, 0u32..5), 0..25)) {
        let mut rel = Relation::new(2);
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        for &(u, v) in &tuples {
            let fresh = rel.insert(Tuple::new(&[Val(u), Val(v)]));
            prop_assert_eq!(fresh, seen.insert((u, v)));
        }
        prop_assert_eq!(rel.len(), seen.len());
    }
}
