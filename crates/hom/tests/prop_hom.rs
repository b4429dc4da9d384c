//! Property-based tests for the homomorphism search: the memoised
//! tree-decomposition decision must agree with a brute-force existence
//! check, on small patterns and on patterns large enough to get a heuristic
//! decomposition, and the enumeration must list exactly the brute-force
//! homomorphisms.

use cqc_data::{Structure, StructureBuilder, Val};
use cqc_hom::{for_each_homomorphism, HomDecider, HomInstance, HybridDecider};
use proptest::prelude::*;
use std::ops::ControlFlow;

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

/// 14–16-element patterns (above the decider's exact-treewidth limit of
/// 13, so they get a heuristic decomposition) over a 2-element target.
fn large_instance() -> impl Strategy<Value = RawInstance> {
    (14usize..=16).prop_flat_map(|a_vars| {
        let an = a_vars as u32;
        (
            proptest::collection::vec((0..an, 0..an), 8..24),
            proptest::collection::vec(0..an, 0..3),
            proptest::collection::vec((0u32..2, 0u32..2), 0..4),
            proptest::collection::vec(0u32..2, 0..2),
        )
            .prop_map(move |(a_binary, a_unary, b_binary, b_unary)| RawInstance {
                a_vars,
                a_binary,
                a_unary,
                b_size: 2,
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

/// Every assignment `U(A) → U(B)`, in lexicographic order (element 0
/// most significant).
fn assignments(a: &Structure, b: &Structure) -> impl Iterator<Item = Vec<Val>> {
    let (n, m) = (a.universe_size(), b.universe_size() as u64);
    (0..m.pow(n as u32)).map(move |code| {
        (0..n)
            .map(|i| Val((code / m.pow((n - 1 - i) as u32) % m) as u32))
            .collect()
    })
}

/// Brute force: the homomorphisms among all |U(B)|^|U(A)| assignments.
fn bruteforce_homomorphisms(a: &Structure, b: &Structure) -> Vec<Vec<Val>> {
    let inst = HomInstance::new(a, b);
    assignments(a, b)
        .filter(|h| inst.is_homomorphism(h))
        .collect()
}

/// Brute force existence, stopping at the first homomorphism.
fn bruteforce_exists(a: &Structure, b: &Structure) -> bool {
    let inst = HomInstance::new(a, b);
    assignments(a, b).any(|h| inst.is_homomorphism(&h))
}

/// Every homomorphism the descent emits with elements assigned in `order`.
fn enumerate(a: &Structure, b: &Structure, order: &[usize]) -> Vec<Vec<Val>> {
    let inst = HomInstance::new(a, b);
    let mut homs = Vec::new();
    let _ = for_each_homomorphism(&inst, order, &inst.initial_domains(), &mut |h| {
        homs.push(h.to_vec());
        ControlFlow::Continue(())
    });
    homs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The decider agrees with brute force on homomorphism existence.
    #[test]
    fn decider_agrees_with_bruteforce(raw in raw_instance()) {
        let (a, b) = build_pair(&raw);
        prop_assert_eq!(HybridDecider::new().decide(&a, &b), bruteforce_exists(&a, &b));
    }

    /// The descent enumerates exactly the brute-force homomorphisms, in
    /// lexicographic order of the given variable order, whatever that order.
    #[test]
    fn enumeration_agrees_with_bruteforce(raw in raw_instance()) {
        let (a, b) = build_pair(&raw);
        let brute = bruteforce_homomorphisms(&a, &b);
        let forward: Vec<usize> = (0..a.universe_size()).collect();
        prop_assert_eq!(&enumerate(&a, &b, &forward), &brute);
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        let mut homs = enumerate(&a, &b, &backward);
        prop_assert!(homs.windows(2).all(|w| {
            backward.iter().map(|&v| w[0][v]).lt(backward.iter().map(|&v| w[1][v]))
        }));
        homs.sort();
        prop_assert_eq!(homs, brute);
    }

    /// Homomorphisms compose with target extension: adding facts to B can
    /// only create homomorphisms, never destroy them (monotonicity of the
    /// positive fragment).
    #[test]
    fn adding_target_facts_is_monotone(raw in raw_instance(), extra in proptest::collection::vec((0u32..4, 0u32..4), 0..5)) {
        let (a, b) = build_pair(&raw);
        let order: Vec<usize> = (0..a.universe_size()).collect();
        let before = enumerate(&a, &b, &order);
        let mut raw_ext = raw.clone();
        raw_ext.b_binary.extend(
            extra
                .iter()
                .filter(|&&(u, v)| (u as usize) < raw.b_size && (v as usize) < raw.b_size),
        );
        let (_, b_ext) = build_pair(&raw_ext);
        let after = enumerate(&a, &b_ext, &order);
        prop_assert!(
            before.iter().all(|h| after.contains(h)),
            "adding facts removed homomorphisms: {} -> {}", before.len(), after.len()
        );
        prop_assert_eq!(HybridDecider::new().decide(&a, &b), !before.is_empty());
        prop_assert_eq!(HybridDecider::new().decide(&a, &b_ext), !after.is_empty());
    }

    /// The identity map is always a homomorphism from a structure to itself.
    #[test]
    fn identity_is_a_homomorphism(raw in raw_instance()) {
        let (a, _) = build_pair(&raw);
        let inst = HomInstance::new(&a, &a);
        let id: Vec<Val> = (0..a.universe_size() as u32).map(Val).collect();
        prop_assert!(inst.is_homomorphism(&id));
        prop_assert!(HybridDecider::new().decide(&a, &a));
        let order: Vec<usize> = (0..a.universe_size()).collect();
        prop_assert!(enumerate(&a, &a, &order).contains(&id));
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
        let order: Vec<usize> = (0..a.universe_size()).collect();
        prop_assert!(enumerate(&a, &b, &order).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On 14–16-element patterns (heuristic decompositions) the decider
    /// still agrees with brute force over all ≤ 2^16 assignments.
    #[test]
    fn decider_agrees_with_bruteforce_on_large_patterns(raw in large_instance()) {
        let (a, b) = build_pair(&raw);
        prop_assert_eq!(HybridDecider::new().decide(&a, &b), bruteforce_exists(&a, &b));
    }
}
