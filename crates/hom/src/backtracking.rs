//! Backtracking homomorphism search.
//!
//! The search is the crate's one descent ([`for_each_homomorphism`]) over
//! every element of `A`: each variable only tries the values that all its
//! constraints still support given the earlier variables, so dead branches
//! are never entered.

use crate::bag_solutions::for_each_homomorphism;
use crate::instance::HomInstance;
use cqc_data::{Structure, Val};
use std::ops::ControlFlow;

/// A complete backtracking solver for `Hom(A, B)`.
///
/// Variable order: minimum remaining values (static, based on unary-filtered
/// domains), then by number of constraints. Worst-case exponential in
/// `|U(A)|`, but complete for arbitrary structures — this is the fallback
/// engine of [`crate::HybridDecider`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BacktrackingDecider;

impl BacktrackingDecider {
    /// The solver.
    pub fn new() -> Self {
        BacktrackingDecider
    }

    /// Decide whether a homomorphism `A → B` exists.
    pub fn decide(&self, a: &Structure, b: &Structure) -> bool {
        self.find(a, b).is_some()
    }

    /// Find one homomorphism if it exists (as a value per element of `A`).
    pub fn find(&self, a: &Structure, b: &Structure) -> Option<Vec<Val>> {
        first_homomorphism(&HomInstance::new(a, b))
    }

    /// Enumerate all homomorphisms, in lexicographic order (used in tests
    /// and small baselines).
    pub fn enumerate(&self, a: &Structure, b: &Structure) -> Vec<Vec<Val>> {
        let inst = HomInstance::new(a, b);
        let vars: Vec<usize> = (0..inst.num_vars()).collect();
        let mut out = Vec::new();
        let _ = for_each_homomorphism(&inst, &vars, &inst.initial_domains(), &mut |h| {
            out.push(h.to_vec());
            ControlFlow::Continue(())
        });
        out
    }
}

/// The first homomorphism of `inst` in minimum-remaining-values order.
pub(crate) fn first_homomorphism(inst: &HomInstance<'_>) -> Option<Vec<Val>> {
    let domains = inst.initial_domains();
    let constraint_count = |v: usize| {
        inst.constraints
            .iter()
            .filter(|c| c.vars.contains(&v))
            .count()
    };
    let mut order: Vec<usize> = (0..inst.num_vars()).collect();
    order.sort_by_key(|&v| (domains[v].len(), usize::MAX - constraint_count(v)));
    let mut found = None;
    let _ = for_each_homomorphism(inst, &order, &domains, &mut |h| {
        found = Some(h.to_vec());
        ControlFlow::Break(())
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;

    fn path_pattern(k: usize) -> Structure {
        // directed path with k edges: x0 → x1 → ... → xk
        let mut b = StructureBuilder::new(k + 1);
        b.relation("E", 2);
        for i in 0..k {
            b.fact("E", &[i as u32, (i + 1) as u32]).unwrap();
        }
        b.build()
    }

    fn cycle_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n {
            b.fact("E", &[i as u32, ((i + 1) % n) as u32]).unwrap();
        }
        b.build()
    }

    fn clique_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    b.fact("E", &[i, j]).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn path_into_cycle() {
        let solver = BacktrackingDecider::new();
        assert!(solver.decide(&path_pattern(3), &cycle_graph(5)));
        let h = solver.find(&path_pattern(3), &cycle_graph(5)).unwrap();
        assert_eq!(h.len(), 4);
        // verify it is a homomorphism
        let a = path_pattern(3);
        let b = cycle_graph(5);
        let inst = HomInstance::new(&a, &b);
        assert!(inst.is_homomorphism(&h));
    }

    #[test]
    fn odd_cycle_into_even_cycle_fails() {
        // C5 → C4 requires an odd closed walk in C4: impossible.
        let solver = BacktrackingDecider::new();
        assert!(!solver.decide(&cycle_graph(5), &cycle_graph(4)));
        // but C4 → C4 works
        assert!(solver.decide(&cycle_graph(4), &cycle_graph(4)));
        // and C6 → C3 works (wrap twice)
        assert!(solver.decide(&cycle_graph(6), &cycle_graph(3)));
    }

    #[test]
    fn clique_pattern_needs_large_clique() {
        let solver = BacktrackingDecider::new();
        assert!(solver.decide(&clique_graph(3), &clique_graph(4)));
        assert!(!solver.decide(&clique_graph(4), &clique_graph(3)));
    }

    #[test]
    fn enumerate_counts_homomorphisms() {
        let solver = BacktrackingDecider::new();
        // homs from a single edge into K3: ordered pairs of distinct vertices = 6
        let homs = solver.enumerate(&path_pattern(1), &clique_graph(3));
        assert_eq!(homs.len(), 6);
        // homs from a path with 2 edges into K3: 3 * 2 * 2 = 12
        let homs = solver.enumerate(&path_pattern(2), &clique_graph(3));
        assert_eq!(homs.len(), 12);
    }

    #[test]
    fn empty_pattern() {
        let solver = BacktrackingDecider::new();
        let a = StructureBuilder::new(0).build();
        let b = cycle_graph(3);
        assert!(solver.decide(&a, &b));
        assert_eq!(solver.enumerate(&a, &b).len(), 1);
    }

    #[test]
    fn empty_target_with_nonempty_pattern() {
        let solver = BacktrackingDecider::new();
        let a = path_pattern(1);
        let mut bb = StructureBuilder::new(0);
        bb.relation("E", 2);
        let b = bb.build();
        assert!(!solver.decide(&a, &b));
    }

    #[test]
    fn unary_relations_guide_the_search() {
        // pattern: x with Mark(x), edge x→y; target: only vertex 2 is marked
        let mut ab = StructureBuilder::new(2);
        ab.relation("E", 2);
        ab.relation("Mark", 1);
        ab.fact("E", &[0, 1]).unwrap();
        ab.fact("Mark", &[0]).unwrap();
        let a = ab.build();
        let mut bb = StructureBuilder::new(4);
        bb.relation("E", 2);
        bb.relation("Mark", 1);
        bb.fact("E", &[0, 1]).unwrap();
        bb.fact("E", &[2, 3]).unwrap();
        bb.fact("Mark", &[2]).unwrap();
        let b = bb.build();
        let solver = BacktrackingDecider::new();
        let h = solver.find(&a, &b).unwrap();
        assert_eq!(h[0], Val(2));
        assert_eq!(h[1], Val(3));
    }
}
