//! The crate's one search: a generic-join style descent over a
//! [`HomInstance`], and the per-bag solution relations built on it.
//!
//! `descend` assigns variables in a given order; the candidates for a
//! variable are the values every watched constraint mentioning it still
//! supports, so no dead branch is entered. Every other engine of the crate
//! calls it:
//!
//! * [`bag_solutions()`] — assignments of the bag variables satisfying every
//!   constraint whose scope lies **inside** the bag; this is the local
//!   relation of the tree-decomposition dynamic programming
//!   ([`crate::count_homomorphisms`], [`crate::DecompositionDecider`]).
//! * [`bag_partial_solutions`] — the `Sol(ϕ, D, B)` semantics of
//!   Definition 47 / Lemma 48: assignments of the bag variables such that
//!   **every** constraint, individually, still has a supporting tuple. For a
//!   bag of bounded fractional edge cover number the output size is bounded
//!   by the AGM bound `‖D‖^{fcn(H[B])}` and the join-style enumeration below
//!   runs in input + output polynomial time, which is what the Theorem 16
//!   pipeline needs.
//! * [`crate::BacktrackingDecider`] — all variables in minimum-remaining-values
//!   order, stopping at the first solution.

use crate::instance::HomInstance;
use cqc_data::{Structure, Val};
use std::ops::ControlFlow;

/// Assignments (in `bag` order) of the bag variables that satisfy every
/// constraint of the instance whose scope is contained in `bag`.
/// `domains[v]` (sorted ascending) bounds the values considered for `v`.
/// Rows come out in lexicographic bag order.
pub fn bag_solutions(inst: &HomInstance<'_>, bag: &[usize], domains: &[Vec<Val>]) -> Vec<Vec<Val>> {
    let local: Vec<usize> = (0..inst.constraints.len())
        .filter(|&ci| inst.constraints[ci].vars.iter().all(|v| bag.contains(v)))
        .collect();
    collect_rows(inst, bag, &local, domains)
}

/// The `Sol(ϕ, D, B)` relation of Definition 47 computed for the pattern
/// structure `a` over the data structure `b`: assignments of the elements in
/// `bag` (a subset of `U(a)`) such that every fact of `a`, taken
/// individually, still has a supporting tuple in `b` consistent with the
/// assignment. Rows come out in lexicographic bag order.
pub fn bag_partial_solutions(a: &Structure, b: &Structure, bag: &[usize]) -> Vec<Vec<Val>> {
    let inst = HomInstance::new(a, b);
    let all: Vec<usize> = (0..inst.constraints.len()).collect();
    collect_rows(&inst, bag, &all, &inst.initial_domains())
}

/// Every assignment [`descend`] reaches, projected onto `order`.
fn collect_rows(
    inst: &HomInstance<'_>,
    order: &[usize],
    watched: &[usize],
    domains: &[Vec<Val>],
) -> Vec<Vec<Val>> {
    let mut rows = Vec::new();
    let _ = descend(inst, order, watched, domains, &mut |asg| {
        rows.push(order.iter().map(|&v| asg[v].expect("assigned")).collect());
        ControlFlow::Continue(())
    });
    rows
}

/// A watched constraint that mentions the variable assigned at one level of
/// the descent.
struct Step {
    /// Index into `inst.constraints`.
    ci: usize,
    /// The positions of the level's variable in the constraint.
    at: Vec<usize>,
    /// The positions holding variables assigned at earlier levels.
    bound: Vec<usize>,
}

/// Assign `order` one variable at a time and call `emit` with every complete
/// assignment (indexed by variable; variables outside `order` stay `None`)
/// whose every watched constraint keeps a supporting tuple of `B`.
///
/// The candidates for a variable are the intersection, over the watched
/// constraints containing it, of the values those constraints support given
/// the earlier levels (generic join), intersected with the variable's domain
/// (`domains[v]`, sorted ascending). Candidates are tried in ascending
/// order, so assignments are emitted in lexicographic `order` order. `emit`
/// returns [`ControlFlow::Break`] to stop the descent, which then returns
/// `Break` too.
pub(crate) fn descend(
    inst: &HomInstance<'_>,
    order: &[usize],
    watched: &[usize],
    domains: &[Vec<Val>],
    emit: &mut dyn FnMut(&[Option<Val>]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut assignment: Vec<Option<Val>> = vec![None; inst.num_vars()];
    // A watched constraint disjoint from `order` only needs some tuple at all
    // (Definition 47 requires every atom to be individually extendable).
    let untouched_supported = watched.iter().all(|&ci| {
        let c = &inst.constraints[ci];
        c.vars.iter().any(|v| order.contains(v)) || inst.constraint_supported(c, &assignment)
    });
    if !untouched_supported {
        return ControlFlow::Continue(());
    }
    let steps: Vec<Vec<Step>> = order
        .iter()
        .enumerate()
        .map(|(level, var)| {
            let earlier = &order[..level];
            watched
                .iter()
                .filter_map(|&ci| {
                    let vars = &inst.constraints[ci].vars;
                    let at: Vec<usize> = (0..vars.len()).filter(|&p| vars[p] == *var).collect();
                    (!at.is_empty()).then(|| Step {
                        ci,
                        at,
                        bound: (0..vars.len())
                            .filter(|&p| earlier.contains(&vars[p]))
                            .collect(),
                    })
                })
                .collect()
        })
        .collect();
    descend_from(inst, order, &steps, domains, 0, &mut assignment, emit)
}

fn descend_from(
    inst: &HomInstance<'_>,
    order: &[usize],
    steps: &[Vec<Step>],
    domains: &[Vec<Val>],
    level: usize,
    assignment: &mut [Option<Val>],
    emit: &mut dyn FnMut(&[Option<Val>]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some(&var) = order.get(level) else {
        return emit(assignment);
    };
    for val in candidates(inst, &steps[level], &domains[var], assignment) {
        assignment[var] = Some(val);
        descend_from(inst, order, steps, domains, level + 1, assignment, emit)?;
    }
    assignment[var] = None;
    ControlFlow::Continue(())
}

/// The values of `domain` (ascending) that every step's constraint supports
/// for its level's variable under `assignment`.
fn candidates(
    inst: &HomInstance<'_>,
    steps: &[Step],
    domain: &[Val],
    assignment: &[Option<Val>],
) -> Vec<Val> {
    let mut cands: Option<Vec<Val>> = None;
    for step in steps {
        let c = &inst.constraints[step.ci];
        let rel = inst.b.relation(c.sym);
        let key: Vec<(usize, Val)> = step
            .bound
            .iter()
            .map(|&p| (p, assignment[c.vars[p]].expect("bound at an earlier level")))
            .collect();
        let mut supported: Vec<Val> = Vec::new();
        let mut visit = |t: &[Val]| {
            // the same value must occur at every position of the variable
            let first = t[step.at[0]];
            if key.iter().all(|&(p, v)| t[p] == v) && step.at.iter().all(|&p| t[p] == first) {
                supported.push(first);
            }
        };
        // Scan the shortest index list of a bound position, or the whole
        // relation when nothing is bound yet.
        match key
            .iter()
            .map(|&(p, v)| rel.matching(p, v))
            .min_by_key(ExactSizeIterator::len)
        {
            Some(rows) => rows.for_each(&mut visit),
            None => rel.iter().for_each(&mut visit),
        }
        supported.sort_unstable();
        supported.dedup();
        let next = match cands {
            None => supported,
            Some(prev) => prev
                .into_iter()
                .filter(|v| supported.binary_search(v).is_ok())
                .collect(),
        };
        if next.is_empty() {
            return next;
        }
        cands = Some(next);
    }
    match cands {
        None => domain.to_vec(),
        Some(mut cands) => {
            cands.retain(|v| domain.binary_search(v).is_ok());
            cands
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;

    fn path_pattern(k: usize) -> Structure {
        let mut b = StructureBuilder::new(k + 1);
        b.relation("E", 2);
        for i in 0..k {
            b.fact("E", &[i as u32, (i + 1) as u32]).unwrap();
        }
        b.build()
    }

    fn path_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n - 1 {
            b.fact("E", &[i as u32, (i + 1) as u32]).unwrap();
        }
        b.build()
    }

    #[test]
    fn bag_solutions_of_an_edge() {
        let a = path_pattern(2); // x0 → x1 → x2
        let b = path_graph(4);
        let inst = HomInstance::new(&a, &b);
        let domains = inst.initial_domains();
        // bag {0, 1}: only the constraint E(0,1) lies inside
        let sols = bag_solutions(&inst, &[0, 1], &domains);
        assert_eq!(sols.len(), 3); // edges (0,1), (1,2), (2,3)
                                   // bag {0, 2}: no constraint inside → full cross product of domains
        let sols = bag_solutions(&inst, &[0, 2], &domains);
        assert_eq!(sols.len(), 16);
        // bag {0,1,2}: both constraints inside → paths of length 2
        let sols = bag_solutions(&inst, &[0, 1, 2], &domains);
        assert_eq!(sols.len(), 2); // 0→1→2, 1→2→3
    }

    #[test]
    fn bag_partial_solutions_match_definition_47() {
        // pattern: E(x0,x1), E(x1,x2) over the 4-path; Sol(ϕ, D, {x0, x1})
        // requires E(x0,x1) to hold and x1 to have an outgoing edge.
        let a = path_pattern(2);
        let b = path_graph(4);
        let sols = bag_partial_solutions(&a, &b, &[0, 1]);
        assert_eq!(sols.len(), 2); // (0,1), (1,2) — (2,3) fails: 3 has no out-edge
        assert!(sols.contains(&vec![Val(0), Val(1)]));
        assert!(sols.contains(&vec![Val(1), Val(2)]));
    }

    #[test]
    fn bag_partial_solutions_on_single_variable() {
        let a = path_pattern(2);
        let b = path_graph(4);
        // x1 must have an in-edge (for E(x0,x1)) and an out-edge (for E(x1,x2)):
        // values 1, 2
        let sols = bag_partial_solutions(&a, &b, &[1]);
        assert_eq!(sols.len(), 2);
        // x0 only needs an out-edge — Definition 47 checks each atom
        // *individually*, so the second atom does not constrain x0: values 0, 1, 2
        let sols = bag_partial_solutions(&a, &b, &[0]);
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn bag_partial_solutions_empty_bag() {
        let a = path_pattern(1);
        let b = path_graph(3);
        let sols = bag_partial_solutions(&a, &b, &[]);
        assert_eq!(sols.len(), 1); // the empty assignment, since E is non-empty
        let empty_b = {
            let mut bb = StructureBuilder::new(2);
            bb.relation("E", 2);
            bb.build()
        };
        let sols = bag_partial_solutions(&a, &empty_b, &[]);
        assert!(sols.is_empty());
    }

    #[test]
    fn repeated_variable_constraints() {
        // pattern with a loop E(x, x); data has one loop at vertex 1
        let mut ab = StructureBuilder::new(2);
        ab.relation("E", 2);
        ab.fact("E", &[0, 0]).unwrap();
        ab.fact("E", &[0, 1]).unwrap();
        let a = ab.build();
        let mut bb = StructureBuilder::new(3);
        bb.relation("E", 2);
        bb.fact("E", &[1, 1]).unwrap();
        bb.fact("E", &[1, 2]).unwrap();
        bb.fact("E", &[0, 2]).unwrap();
        let b = bb.build();
        let inst = HomInstance::new(&a, &b);
        let domains = inst.initial_domains();
        let sols = bag_solutions(&inst, &[0, 1], &domains);
        // x0 must carry the loop (value 1), x1 any out-neighbour of x0: (1,1), (1,2)
        assert_eq!(sols.len(), 2);
        assert!(sols.contains(&vec![Val(1), Val(1)]));
        assert!(sols.contains(&vec![Val(1), Val(2)]));
    }

    #[test]
    fn ternary_relation_bags() {
        let mut ab = StructureBuilder::new(3);
        ab.relation("R", 3);
        ab.fact("R", &[0, 1, 2]).unwrap();
        let a = ab.build();
        let mut bb = StructureBuilder::new(4);
        bb.relation("R", 3);
        bb.fact("R", &[0, 1, 2]).unwrap();
        bb.fact("R", &[1, 2, 3]).unwrap();
        bb.fact("R", &[0, 0, 0]).unwrap();
        let b = bb.build();
        let inst = HomInstance::new(&a, &b);
        let domains = inst.initial_domains();
        let sols = bag_solutions(&inst, &[0, 1, 2], &domains);
        assert_eq!(sols.len(), 3);
        let partial = bag_partial_solutions(&a, &b, &[1]);
        // middle positions of R tuples: {1, 2, 0}
        assert_eq!(partial.len(), 3);
    }
}
