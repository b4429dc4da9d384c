//! Property-based tests for the homomorphism engines: the backtracking
//! solver, the bounded-treewidth dynamic program of Theorem 31 and the hybrid
//! dispatcher must all agree with a brute-force existence check, and the
//! exact counter must agree with brute-force enumeration.

use cqc_data::{Structure, StructureBuilder, Val};
use cqc_hom::{
    count_homomorphisms, BacktrackingDecider, DecompositionDecider, HomDecider, HomInstance,
    HybridDecider,
};
use proptest::prelude::*;

/// A raw instance: a small pattern structure A over one binary and one unary
/// relation, and a small target structure B over the same signature.
#[derive(Debug, Clone)]
struct RawInstance {
    a_vars: usize,
    a_binary: Vec<(u32, u32)>,
    a_unary: Vec<u32>,
    b_size: usize,
    b_binary: Vec<(u32, u32)>,
    b_unary: Vec<u32>,
}

fn raw_instance() -> impl Strategy<Value = RawInstance> {
    (2usize..=4, 2usize..=4).prop_flat_map(|(a_vars, b_size)| {
        let an = a_vars as u32;
        let bn = b_size as u32;
        (
            proptest::collection::vec((0..an, 0..an), 1..5),
            proptest::collection::vec(0..an, 0..3),
            proptest::collection::vec((0..bn, 0..bn), 0..10),
            proptest::collection::vec(0..bn, 0..4),
        )
            .prop_map(move |(a_binary, a_unary, b_binary, b_unary)| RawInstance {
                a_vars,
                a_binary,
                a_unary,
                b_size,
                b_binary,
                b_unary,
            })
    })
}

fn build_pair(raw: &RawInstance) -> (Structure, Structure) {
    let mut a = StructureBuilder::new(raw.a_vars);
    a.relation("E", 2);
    a.relation("L", 1);
    for &(u, v) in &raw.a_binary {
        a.fact("E", &[u, v]).unwrap();
    }
    for &u in &raw.a_unary {
        a.fact("L", &[u]).unwrap();
    }
    let mut b = StructureBuilder::new(raw.b_size);
    b.relation("E", 2);
    b.relation("L", 1);
    for &(u, v) in &raw.b_binary {
        b.fact("E", &[u, v]).unwrap();
    }
    for &u in &raw.b_unary {
        b.fact("L", &[u]).unwrap();
    }
    (a.build(), b.build())
}

/// Brute force over all |U(B)|^|U(A)| assignments.
fn bruteforce_homomorphisms(a: &Structure, b: &Structure) -> Vec<Vec<Val>> {
    let inst = HomInstance::new(a, b);
    let n = a.universe_size();
    let m = b.universe_size();
    let mut found = Vec::new();
    let total = (m as u64).pow(n as u32);
    for code in 0..total {
        let mut c = code;
        let assignment: Vec<Val> = (0..n)
            .map(|_| {
                let v = Val((c % m as u64) as u32);
                c /= m as u64;
                v
            })
            .collect();
        if inst.is_homomorphism(&assignment) {
            found.push(assignment);
        }
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three deciders agree with brute force on homomorphism existence.
    #[test]
    fn deciders_agree_with_bruteforce(raw in raw_instance()) {
        let (a, b) = build_pair(&raw);
        let truth = !bruteforce_homomorphisms(&a, &b).is_empty();
        prop_assert_eq!(BacktrackingDecider::new().decide(&a, &b), truth);
        prop_assert_eq!(DecompositionDecider::new().decide(&a, &b), truth);
        prop_assert_eq!(HybridDecider::new().decide(&a, &b), truth);
    }

    /// The exact homomorphism counter (Dalmau–Jonsson-style DP) agrees with
    /// brute-force enumeration, and `find`/`enumerate` of the backtracking
    /// engine return genuine homomorphisms.
    #[test]
    fn counting_and_enumeration_agree(raw in raw_instance()) {
        let (a, b) = build_pair(&raw);
        let brute = bruteforce_homomorphisms(&a, &b);
        prop_assert_eq!(count_homomorphisms(&a, &b), brute.len() as u128);

        let bt = BacktrackingDecider::new();
        let inst = HomInstance::new(&a, &b);
        match bt.find(&a, &b) {
            Some(h) => prop_assert!(inst.is_homomorphism(&h)),
            None => prop_assert!(brute.is_empty()),
        }
        let mut enumerated = bt.enumerate(&a, &b);
        let mut expected = brute.clone();
        enumerated.sort();
        expected.sort();
        prop_assert_eq!(enumerated, expected);
    }

    /// Homomorphisms compose with target extension: adding facts to B can
    /// only create homomorphisms, never destroy them (monotonicity of the
    /// positive fragment).
    #[test]
    fn adding_target_facts_is_monotone(raw in raw_instance(), extra in proptest::collection::vec((0u32..4, 0u32..4), 0..5)) {
        let (a, b) = build_pair(&raw);
        let before = count_homomorphisms(&a, &b);
        let mut b_ext = b.clone();
        let e = b_ext.signature().symbol("E").unwrap();
        for &(u, v) in &extra {
            if (u as usize) < b_ext.universe_size() && (v as usize) < b_ext.universe_size() {
                b_ext.insert_fact(e, &[Val(u), Val(v)]).unwrap();
            }
        }
        let after = count_homomorphisms(&a, &b_ext);
        prop_assert!(after >= before, "adding facts removed homomorphisms: {before} -> {after}");
        prop_assert_eq!(BacktrackingDecider::new().decide(&a, &b), before > 0);
    }

    /// The identity map is always a homomorphism from a structure to itself.
    #[test]
    fn identity_is_a_homomorphism(raw in raw_instance()) {
        let (a, _) = build_pair(&raw);
        let inst = HomInstance::new(&a, &a);
        let id: Vec<Val> = (0..a.universe_size() as u32).map(Val).collect();
        prop_assert!(inst.is_homomorphism(&id));
        prop_assert!(HybridDecider::new().decide(&a, &a));
        prop_assert!(count_homomorphisms(&a, &a) >= 1);
    }

    /// A pattern with an `L`-labelled variable has no homomorphism into a
    /// target whose `L` relation is empty.
    #[test]
    fn empty_unary_target_blocks(raw in raw_instance()) {
        prop_assume!(!raw.a_unary.is_empty());
        let mut raw2 = raw.clone();
        raw2.b_unary.clear();
        let (a, b) = build_pair(&raw2);
        prop_assert!(!HybridDecider::new().decide(&a, &b));
        prop_assert_eq!(count_homomorphisms(&a, &b), 0);
    }
}
