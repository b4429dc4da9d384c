//! Property-based tests for the relational substrate: builder round trips,
//! the size measure ‖D‖ of Section 1.1, and the immutable relation (sorted
//! rows, column index, complement) checked against a naive set model.

use cqc_data::{Relation, Signature, Structure, StructureBuilder, Val};
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

    /// The per-column index (`matching`) agrees with a linear scan.
    #[test]
    fn relation_select_matches_scan(raw in raw_db(), pos in 0usize..2, value in 0u32..8) {
        let db = build(&raw);
        let e = db.signature().symbol("E").unwrap();
        let rel = db.relation(e);
        prop_assume!((value as usize) < raw.universe);
        let selected: BTreeSet<Vec<Val>> = rel
            .matching(pos, Val(value))
            .map(<[Val]>::to_vec)
            .collect();
        let scanned: BTreeSet<Vec<Val>> = rel
            .iter()
            .filter(|t| t[pos] == Val(value))
            .map(<[Val]>::to_vec)
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

    /// `Relation::new` keeps each distinct row once, however often it is
    /// given.
    #[test]
    fn relation_new_dedups(tuples in proptest::collection::vec((0u32..5, 0u32..5), 0..25)) {
        let values = tuples.iter().flat_map(|&(u, v)| [Val(u), Val(v)]).collect();
        let rel = Relation::new(2, values);
        let seen: BTreeSet<(u32, u32)> = tuples.iter().copied().collect();
        prop_assert_eq!(rel.len(), seen.len());
    }
}

/// Rows of arity 1–3 over a universe of 0–5 elements, duplicates likely.
fn raw_relation() -> impl Strategy<Value = (usize, usize, Vec<Vec<u32>>)> {
    (1usize..4, 0usize..6).prop_flat_map(|(arity, universe)| {
        // an empty universe admits no row at all
        let rows = if universe == 0 { 0..1 } else { 0..30 };
        let row = proptest::collection::vec(0..universe.max(1) as u32, arity);
        proptest::collection::vec(row, rows).prop_map(move |rows| (arity, universe, rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The immutable relation behaves exactly like a `BTreeSet` of rows:
    /// iteration order, `len`, `contains`, `matching` at every position and
    /// value, and `complement`.
    #[test]
    fn relation_matches_a_btreeset_model(raw in raw_relation()) {
        let (arity, universe, rows) = raw;
        let model: BTreeSet<Vec<Val>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| Val(v)).collect())
            .collect();
        let rel = Relation::new(arity, rows.iter().flatten().map(|&v| Val(v)).collect());
        prop_assert_eq!(rel.arity(), arity);
        prop_assert_eq!(rel.len(), model.len());
        prop_assert_eq!(rel.is_empty(), model.is_empty());
        prop_assert_eq!(rel.encoding_size(), model.len() * arity);
        let listed: Vec<Vec<Val>> = rel.iter().map(<[Val]>::to_vec).collect();
        prop_assert_eq!(&listed, &model.iter().cloned().collect::<Vec<_>>());

        // every row of U^arity (and one of the wrong length) against `contains`
        let space: Vec<Vec<Val>> = (0..universe.pow(arity as u32))
            .map(|mut code| {
                let mut row = vec![Val(0); arity];
                for slot in row.iter_mut().rev() {
                    *slot = Val((code % universe) as u32);
                    code /= universe;
                }
                row
            })
            .collect();
        for row in &space {
            prop_assert_eq!(rel.contains(row), model.contains(row));
        }
        if let Some(row) = model.iter().next() {
            prop_assert!(!rel.contains(&row[1..]));
        }

        for pos in 0..arity {
            for v in 0..=universe as u32 {
                let matched: Vec<Vec<Val>> =
                    rel.matching(pos, Val(v)).map(<[Val]>::to_vec).collect();
                let expected: Vec<Vec<Val>> =
                    model.iter().filter(|r| r[pos] == Val(v)).cloned().collect();
                prop_assert_eq!(rel.matching(pos, Val(v)).len(), expected.len());
                prop_assert_eq!(matched, expected);
            }
        }

        let complement: Vec<Vec<Val>> =
            rel.complement(universe).iter().map(<[Val]>::to_vec).collect();
        let expected: Vec<Vec<Val>> =
            space.into_iter().filter(|r| !model.contains(r)).collect();
        prop_assert_eq!(complement, expected);
    }
}
