//! The bounded-treewidth homomorphism algorithm (Theorem 31).
//!
//! The decision runs the crate's one tree-decomposition dynamic program
//! (`count.rs`) with existence weights: for each bag, in postorder, the
//! locally consistent assignments ([`crate::bag_solutions()`]) are
//! semijoined with the children's surviving assignments, and a
//! homomorphism exists iff no table runs empty. The running time is
//! `poly(‖A‖, ‖B‖) · |U(B)|^{w+1}` for a decomposition of width `w`, i.e.
//! polynomial for every fixed treewidth, exactly as required by Theorem 31
//! (Dalmau, Kolaitis, Vardi).

use crate::count::{decompose, tree_dp};
use crate::instance::HomInstance;
use cqc_data::Structure;

/// The decomposition-based decider.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecompositionDecider;

impl DecompositionDecider {
    /// The decider.
    pub fn new() -> Self {
        DecompositionDecider
    }

    /// Decide whether a homomorphism `A → B` exists.
    pub fn decide(&self, a: &Structure, b: &Structure) -> bool {
        let inst = HomInstance::new(a, b);
        tree_dp::<()>(&inst, &decompose(&inst)).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtracking::BacktrackingDecider;
    use cqc_data::StructureBuilder;

    fn cycle_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n {
            b.fact("E", &[i as u32, ((i + 1) % n) as u32]).unwrap();
        }
        b.build()
    }

    fn path_pattern(k: usize) -> Structure {
        let mut b = StructureBuilder::new(k + 1);
        b.relation("E", 2);
        for i in 0..k {
            b.fact("E", &[i as u32, (i + 1) as u32]).unwrap();
        }
        b.build()
    }

    fn grid_graph(rows: usize, cols: usize) -> Structure {
        let mut b = StructureBuilder::new(rows * cols);
        b.relation("E", 2);
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.fact("E", &[id(r, c), id(r, c + 1)]).unwrap();
                    b.fact("E", &[id(r, c + 1), id(r, c)]).unwrap();
                }
                if r + 1 < rows {
                    b.fact("E", &[id(r, c), id(r + 1, c)]).unwrap();
                    b.fact("E", &[id(r + 1, c), id(r, c)]).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn agrees_with_backtracking_on_cycles() {
        let dp = DecompositionDecider::new();
        let bt = BacktrackingDecider::new();
        for pattern_len in [3usize, 4, 5, 6] {
            for target_len in [3usize, 4, 5] {
                let a = cycle_graph(pattern_len);
                let b = cycle_graph(target_len);
                assert_eq!(
                    dp.decide(&a, &b),
                    bt.decide(&a, &b),
                    "C{pattern_len} → C{target_len}"
                );
            }
        }
    }

    #[test]
    fn paths_into_everything() {
        let dp = DecompositionDecider::new();
        assert!(dp.decide(&path_pattern(4), &cycle_graph(3)));
        assert!(dp.decide(&path_pattern(6), &grid_graph(3, 3)));
    }

    #[test]
    fn no_hom_when_target_has_no_edges() {
        let dp = DecompositionDecider::new();
        let a = path_pattern(1);
        let mut bb = StructureBuilder::new(3);
        bb.relation("E", 2);
        let b = bb.build();
        assert!(!dp.decide(&a, &b));
    }

    #[test]
    fn empty_pattern_always_maps() {
        let dp = DecompositionDecider::new();
        let a = StructureBuilder::new(0).build();
        let b = cycle_graph(4);
        assert!(dp.decide(&a, &b));
    }

    #[test]
    fn unary_marks_force_specific_images() {
        // pattern path x0 → x1 with Start(x0), End(x1)
        let mut ab = StructureBuilder::new(2);
        ab.relation("E", 2);
        ab.relation("Start", 1);
        ab.relation("End", 1);
        ab.fact("E", &[0, 1]).unwrap();
        ab.fact("Start", &[0]).unwrap();
        ab.fact("End", &[1]).unwrap();
        let a = ab.build();
        // target: 0 → 1 → 2 with Start = {0}, End = {2}: no single edge works
        let mut bb = StructureBuilder::new(3);
        bb.relation("E", 2);
        bb.relation("Start", 1);
        bb.relation("End", 1);
        bb.fact("E", &[0, 1]).unwrap();
        bb.fact("E", &[1, 2]).unwrap();
        bb.fact("Start", &[0]).unwrap();
        bb.fact("End", &[2]).unwrap();
        let b = bb.build();
        let dp = DecompositionDecider::new();
        assert!(!dp.decide(&a, &b));
        // add the shortcut edge 0 → 2 and it becomes satisfiable
        let mut bb = StructureBuilder::new(3);
        bb.relation("E", 2);
        bb.relation("Start", 1);
        bb.relation("End", 1);
        bb.fact("E", &[0, 1]).unwrap();
        bb.fact("E", &[1, 2]).unwrap();
        bb.fact("E", &[0, 2]).unwrap();
        bb.fact("Start", &[0]).unwrap();
        bb.fact("End", &[2]).unwrap();
        let b = bb.build();
        assert!(dp.decide(&a, &b));
    }

    #[test]
    fn disconnected_patterns() {
        // two independent edges as pattern; target has only one edge → still a hom
        // (both pattern edges can map to the same target edge)
        let mut ab = StructureBuilder::new(4);
        ab.relation("E", 2);
        ab.fact("E", &[0, 1]).unwrap();
        ab.fact("E", &[2, 3]).unwrap();
        let a = ab.build();
        let mut bb = StructureBuilder::new(2);
        bb.relation("E", 2);
        bb.fact("E", &[0, 1]).unwrap();
        let b = bb.build();
        let dp = DecompositionDecider::new();
        assert!(dp.decide(&a, &b));
    }

    #[test]
    fn agrees_with_backtracking_on_random_like_instances() {
        // deterministic pseudo-random instances
        let dp = DecompositionDecider::new();
        let bt = BacktrackingDecider::new();
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            // pattern: tree-like structure on 5 vertices
            let mut ab = StructureBuilder::new(5);
            ab.relation("E", 2);
            for v in 1..5u32 {
                let parent = (next() % v as u64) as u32;
                ab.fact("E", &[parent, v]).unwrap();
            }
            let a = ab.build();
            // target: sparse digraph on 6 vertices
            let mut bb = StructureBuilder::new(6);
            bb.relation("E", 2);
            for _ in 0..7 {
                let u = (next() % 6) as u32;
                let v = (next() % 6) as u32;
                bb.fact("E", &[u, v]).unwrap();
            }
            let b = bb.build();
            assert_eq!(dp.decide(&a, &b), bt.decide(&a, &b), "trial {trial}");
        }
    }
}
