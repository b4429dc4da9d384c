//! Homomorphism instances viewed as constraint networks.

use cqc_data::{Structure, SymbolId, Val};
use cqc_hypergraph::Hypergraph;

/// A single constraint: the image of the (ordered) element tuple `vars` of
/// `A` must be a tuple of the relation `sym` of `B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The relation symbol (shared between `A` and `B`).
    pub sym: SymbolId,
    /// The constrained elements of `A`, in relation-argument order
    /// (repetitions allowed, e.g. for a tuple `R(x, x)`).
    pub vars: Vec<usize>,
}

/// A homomorphism instance `(A, B)` presented as a constraint network over
/// the elements of `A` with domains in `U(B)`.
#[derive(Debug, Clone)]
pub struct HomInstance<'a> {
    /// The left-hand structure (pattern).
    pub a: &'a Structure,
    /// The right-hand structure (data).
    pub b: &'a Structure,
    /// One constraint per fact of `A`.
    pub constraints: Vec<Constraint>,
}

impl<'a> HomInstance<'a> {
    /// Build the constraint network for `Hom(A, B)`.
    ///
    /// # Panics
    /// Panics if `sig(A) ⊄ sig(B)` (the caller is expected to construct the
    /// two structures against a shared signature, as
    /// `cqc-query::build_a_structure` / `build_b_structure` do).
    pub fn new(a: &'a Structure, b: &'a Structure) -> Self {
        assert!(
            a.signature_contained_in(b),
            "sig(A) must be contained in sig(B)"
        );
        let mut constraints = Vec::new();
        for (sym, _, _) in a.signature().iter() {
            for t in a.relation(sym).iter() {
                constraints.push(Constraint {
                    sym,
                    vars: t.iter().map(|v| v.index()).collect(),
                });
            }
        }
        HomInstance { a, b, constraints }
    }

    /// The number of variables (= elements of `A`).
    pub fn num_vars(&self) -> usize {
        self.a.universe_size()
    }

    /// Initial domains: for each element of `A`, the values of `U(B)` allowed
    /// by all *unary* constraints on that element. (Non-unary constraints are
    /// handled during search / DP.)
    pub fn initial_domains(&self) -> Vec<Vec<Val>> {
        let n = self.num_vars();
        let m = self.b.universe_size();
        let mut domains: Vec<Vec<Val>> = Vec::with_capacity(n);
        for var in 0..n {
            let mut dom: Vec<Val> = (0..m as u32).map(Val).collect();
            for c in &self.constraints {
                if c.vars.len() == 1 && c.vars[0] == var {
                    let rel = self.b.relation(c.sym);
                    dom.retain(|&v| rel.contains(&[v]));
                }
            }
            domains.push(dom);
        }
        domains
    }

    /// Does the partial assignment admit, for this constraint, at least one
    /// tuple of `B` consistent with the already-assigned positions?
    /// (Support check; returns `true` when nothing is assigned yet.)
    pub fn constraint_supported(&self, c: &Constraint, assignment: &[Option<Val>]) -> bool {
        let bound: Vec<(usize, Val)> = c
            .vars
            .iter()
            .enumerate()
            .filter_map(|(pos, &var)| assignment[var].map(|v| (pos, v)))
            .collect();
        if bound.is_empty() {
            return !self.b.relation(c.sym).is_empty();
        }
        if bound.len() == c.vars.len() {
            let image: Vec<Val> = c.vars.iter().map(|&var| assignment[var].unwrap()).collect();
            return self.b.holds(c.sym, &image);
        }
        // Scan only the tuples the per-column index gives for one bound
        // position.
        let (pos0, val0) = bound[0];
        self.b
            .relation(c.sym)
            .matching(pos0, val0)
            .any(|t| bound.iter().all(|&(pos, val)| t[pos] == val))
    }

    /// Check a *full* assignment against every constraint.
    pub fn is_homomorphism(&self, assignment: &[Val]) -> bool {
        assert_eq!(assignment.len(), self.num_vars());
        self.constraints.iter().all(|c| {
            let image: Vec<Val> = c.vars.iter().map(|&var| assignment[var]).collect();
            self.b.holds(c.sym, &image)
        })
    }

    /// The hypergraph of `A` (one hyperedge per constraint scope); its
    /// treewidth is the parameter governing [`crate::DecompositionDecider`].
    pub fn pattern_hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new(self.num_vars());
        for c in &self.constraints {
            let mut scope: Vec<usize> = c.vars.clone();
            scope.sort_unstable();
            scope.dedup();
            h.add_edge(&scope);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;

    fn pattern_edge() -> Structure {
        // A: a single directed edge x → y
        let mut b = StructureBuilder::new(2);
        b.relation("E", 2);
        b.fact("E", &[0, 1]).unwrap();
        b.build()
    }

    fn triangle() -> Structure {
        let mut b = StructureBuilder::new(3);
        b.relation("E", 2);
        b.fact("E", &[0, 1]).unwrap();
        b.fact("E", &[1, 2]).unwrap();
        b.fact("E", &[2, 0]).unwrap();
        b.build()
    }

    #[test]
    fn instance_construction() {
        let a = pattern_edge();
        let b = triangle();
        let inst = HomInstance::new(&a, &b);
        assert_eq!(inst.num_vars(), 2);
        assert_eq!(inst.constraints.len(), 1);
        assert_eq!(inst.constraints[0].vars, vec![0, 1]);
        let h = inst.pattern_hypergraph();
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn full_assignment_check() {
        let a = pattern_edge();
        let b = triangle();
        let inst = HomInstance::new(&a, &b);
        assert!(inst.is_homomorphism(&[Val(0), Val(1)]));
        assert!(inst.is_homomorphism(&[Val(2), Val(0)]));
        assert!(!inst.is_homomorphism(&[Val(0), Val(2)]));
    }

    #[test]
    fn support_check_partial() {
        let a = pattern_edge();
        let b = triangle();
        let inst = HomInstance::new(&a, &b);
        let c = &inst.constraints[0];
        // nothing assigned: supported because E is non-empty
        assert!(inst.constraint_supported(c, &[None, None]));
        // x = 0: supported (0 → 1)
        assert!(inst.constraint_supported(c, &[Some(Val(0)), None]));
        // y = 0: supported (2 → 0)
        assert!(inst.constraint_supported(c, &[None, Some(Val(0))]));
        // x = 0, y = 2: not supported
        assert!(!inst.constraint_supported(c, &[Some(Val(0)), Some(Val(2))]));
    }

    #[test]
    fn unary_constraints_restrict_domains() {
        let mut ab = StructureBuilder::new(2);
        ab.relation("E", 2);
        ab.relation("Mark", 1);
        ab.fact("E", &[0, 1]).unwrap();
        ab.fact("Mark", &[0]).unwrap();
        let a = ab.build();
        let mut bb = StructureBuilder::new(3);
        bb.relation("E", 2);
        bb.relation("Mark", 1);
        bb.fact("E", &[0, 1]).unwrap();
        bb.fact("E", &[1, 2]).unwrap();
        bb.fact("Mark", &[1]).unwrap();
        let b = bb.build();
        let inst = HomInstance::new(&a, &b);
        let dom = inst.initial_domains();
        assert_eq!(dom[0], vec![Val(1)]);
        assert_eq!(dom[1].len(), 3);
    }

    #[test]
    fn repeated_variable_in_tuple() {
        // A has a loop E(x, x); B has no loops → no homomorphism image tuple exists
        let mut ab = StructureBuilder::new(1);
        ab.relation("E", 2);
        ab.fact("E", &[0, 0]).unwrap();
        let a = ab.build();
        let b = triangle();
        let inst = HomInstance::new(&a, &b);
        assert_eq!(inst.constraints[0].vars, vec![0, 0]);
        for v in 0..3u32 {
            assert!(!inst.is_homomorphism(&[Val(v)]));
        }
    }

    #[test]
    #[should_panic(expected = "sig(A) must be contained")]
    fn signature_mismatch_panics() {
        let mut ab = StructureBuilder::new(1);
        ab.relation("R", 1);
        ab.fact("R", &[0]).unwrap();
        let a = ab.build();
        let b = triangle();
        let _ = HomInstance::new(&a, &b);
    }
}
