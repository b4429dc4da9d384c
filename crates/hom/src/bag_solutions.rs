//! The crate's one search: a generic-join style descent over a
//! [`HomInstance`], and the per-bag solution relations built on it.
//!
//! `descend` assigns variables in a given order; the candidates for a
//! variable are the values every watched constraint mentioning it still
//! supports, so no dead branch is entered. Every engine of the crate calls
//! it:
//!
//! * [`bag_partial_solutions`] — the `Sol(ϕ, D, B)` semantics of
//!   Definition 47 / Lemma 48: assignments of the bag variables such that
//!   **every** constraint, individually, still has a supporting tuple. For a
//!   bag of bounded fractional edge cover number the output size is bounded
//!   by the AGM bound `‖D‖^{fcn(H[B])}` and the join-style enumeration below
//!   runs in input + output polynomial time, which is what the Theorem 16
//!   pipeline needs.
//! * [`for_each_homomorphism`] — every element of `A` in a caller-given
//!   order under caller-given domains. `cqc-query` runs it over the positive
//!   atoms of a query to enumerate exact solutions and answers
//!   (Equation (2)).
//! * [`crate::HybridDecider`] — one descent per tree-decomposition node over
//!   the node's new variables, its separator already assigned (`extend`).

use crate::instance::HomInstance;
use cqc_data::{Structure, SymbolId, Val};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::ops::ControlFlow;
use std::rc::Rc;

/// The `Sol(ϕ, D, B)` relation of Definition 47 computed for the pattern
/// structure `a` over the data structure `b`: assignments of the elements in
/// `bag` (a subset of `U(a)`) such that every fact of `a`, taken
/// individually, still has a supporting tuple in `b` consistent with the
/// assignment. Rows come out in lexicographic bag order.
pub fn bag_partial_solutions(a: &Structure, b: &Structure, bag: &[usize]) -> Vec<Vec<Val>> {
    let inst = HomInstance::new(a, b);
    let all: Vec<usize> = (0..inst.constraints.len()).collect();
    let mut rows = Vec::new();
    let _ = descend(&inst, bag, &all, &inst.initial_domains(), &mut |asg| {
        rows.push(bag.iter().map(|&v| asg[v].expect("assigned")).collect());
        ControlFlow::Continue(())
    });
    rows
}

/// Call `emit` with every homomorphism `A → B` of `inst` (a value per element
/// of `A`) that maps each element `v` into `domains[v]` (sorted ascending).
/// `order` lists every element of `A` once: the search assigns them in that
/// order, so homomorphisms come out in lexicographic `order` order. `emit`
/// returns [`ControlFlow::Break`] to stop the search, which then returns
/// `Break` too.
pub fn for_each_homomorphism(
    inst: &HomInstance<'_>,
    order: &[usize],
    domains: &[Vec<Val>],
    emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    assert_eq!(order.len(), inst.num_vars());
    let all: Vec<usize> = (0..inst.constraints.len()).collect();
    let mut h = Vec::with_capacity(order.len());
    descend(inst, order, &all, domains, &mut |asg| {
        h.clear();
        h.extend(asg.iter().map(|v| v.expect("every element is ordered")));
        emit(&h)
    })
}

/// A watched constraint that mentions the variable assigned at one level of
/// the descent.
pub(crate) struct Step {
    /// Index into `inst.constraints`.
    ci: usize,
    /// The positions of the level's variable in the constraint.
    at: Vec<usize>,
    /// The positions holding variables bound before the level: seeded ones
    /// or those of earlier levels.
    bound: Vec<usize>,
    /// With no position bound, the values the constraint supports depend
    /// only on its symbol and `at`: the entry of [`Projections`] that every
    /// such step shares, computed on first use.
    unbound: Option<Rc<OnceCell<Vec<Val>>>>,
}

/// The values a symbol's relation supports at a set of positions (equal
/// there), by symbol and positions; shared by the steps with nothing bound.
pub(crate) type Projections = Vec<(SymbolId, Vec<usize>, Rc<OnceCell<Vec<Val>>>)>;

/// The step table of a descent over `order` that starts from an assignment
/// binding the `seeded` variables: for each level, the watched constraints
/// that mention its variable. Steps with nothing bound take their cached
/// values from `projections`.
pub(crate) fn steps(
    inst: &HomInstance<'_>,
    order: &[usize],
    watched: &[usize],
    seeded: &[usize],
    projections: &mut Projections,
) -> Vec<Vec<Step>> {
    order
        .iter()
        .enumerate()
        .map(|(level, var)| {
            let earlier = &order[..level];
            watched
                .iter()
                .filter_map(|&ci| {
                    let c = &inst.constraints[ci];
                    let at: Vec<usize> = (0..c.vars.len()).filter(|&p| c.vars[p] == *var).collect();
                    if at.is_empty() {
                        return None;
                    }
                    let bound: Vec<usize> = (0..c.vars.len())
                        .filter(|&p| earlier.contains(&c.vars[p]) || seeded.contains(&c.vars[p]))
                        .collect();
                    let unbound = bound.is_empty().then(|| {
                        match projections
                            .iter()
                            .find(|(sym, p, _)| *sym == c.sym && *p == at)
                        {
                            Some((_, _, cell)) => cell.clone(),
                            None => {
                                let cell = Rc::default();
                                projections.push((c.sym, at.clone(), Rc::clone(&cell)));
                                cell
                            }
                        }
                    });
                    Some(Step {
                        ci,
                        at,
                        bound,
                        unbound,
                    })
                })
                .collect()
        })
        .collect()
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
fn descend(
    inst: &HomInstance<'_>,
    order: &[usize],
    watched: &[usize],
    domains: &[Vec<Val>],
    emit: &mut dyn FnMut(&mut [Option<Val>]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // A watched constraint disjoint from `order` only needs some tuple at all
    // (Definition 47 requires every atom to be individually extendable).
    let untouched_supported = watched.iter().all(|&ci| {
        let c = &inst.constraints[ci];
        c.vars.iter().any(|v| order.contains(v)) || !inst.b.relation(c.sym).is_empty()
    });
    if !untouched_supported {
        return ControlFlow::Continue(());
    }
    let steps = steps(inst, order, watched, &[], &mut Projections::new());
    let mut assignment: Vec<Option<Val>> = vec![None; inst.num_vars()];
    extend(inst, order, &steps, domains, &mut assignment, emit)
}

/// The descent over `order` with the step table `steps` (built by [`steps`]
/// for the variables `assignment` already binds), from `assignment`. It
/// emits like `descend`; `emit` may assign variables outside `order` and
/// the seeded ones (the decision's child descents do). The variables of
/// `order` are unassigned again on return, unless `emit` breaks.
pub(crate) fn extend(
    inst: &HomInstance<'_>,
    order: &[usize],
    steps: &[Vec<Step>],
    domains: &[Vec<Val>],
    assignment: &mut [Option<Val>],
    emit: &mut dyn FnMut(&mut [Option<Val>]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((&var, rest)) = order.split_first() else {
        return emit(assignment);
    };
    for val in candidates(inst, &steps[0], &domains[var], assignment) {
        assignment[var] = Some(val);
        extend(inst, rest, &steps[1..], domains, assignment, emit)?;
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
    let mut lists: Vec<Cow<'_, [Val]>> = Vec::with_capacity(steps.len());
    for step in steps {
        let list = match &step.unbound {
            Some(cell) => Cow::Borrowed(
                cell.get_or_init(|| supported(inst, step, assignment))
                    .as_slice(),
            ),
            None => Cow::Owned(supported(inst, step, assignment)),
        };
        if list.is_empty() {
            return Vec::new();
        }
        lists.push(list);
    }
    // Filter the shortest list, so a cached whole-relation list is only
    // walked when nothing narrower constrains the variable.
    let Some(shortest) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return domain.to_vec();
    };
    let mut cands = lists.swap_remove(shortest).into_owned();
    cands.retain(|v| {
        domain.binary_search(v).is_ok() && lists.iter().all(|l| l.binary_search(v).is_ok())
    });
    cands
}

/// The values (ascending, deduplicated) that `step`'s constraint supports for
/// its variable given the values `assignment` binds at its bound positions.
fn supported(inst: &HomInstance<'_>, step: &Step, assignment: &[Option<Val>]) -> Vec<Val> {
    let c = &inst.constraints[step.ci];
    let rel = inst.b.relation(c.sym);
    let key: Vec<(usize, Val)> = step
        .bound
        .iter()
        .map(|&p| (p, assignment[c.vars[p]].expect("bound before the level")))
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
    supported
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_data::StructureBuilder;

    fn structure(n: usize, facts: &[(&str, &[u32])]) -> Structure {
        let mut b = StructureBuilder::new(n);
        for (rel, t) in facts {
            b.fact(rel, t).unwrap();
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

    fn path_graph(n: usize) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for i in 0..n - 1 {
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
            for j in (0..n as u32).filter(|&j| j != i) {
                b.fact("E", &[i, j]).unwrap();
            }
        }
        b.build()
    }

    /// Every homomorphism `a → b`, elements assigned in index order.
    fn homomorphisms(a: &Structure, b: &Structure) -> Vec<Vec<Val>> {
        let inst = HomInstance::new(a, b);
        let order: Vec<usize> = (0..a.universe_size()).collect();
        let mut homs = Vec::new();
        let _ = for_each_homomorphism(&inst, &order, &inst.initial_domains(), &mut |h| {
            homs.push(h.to_vec());
            ControlFlow::Continue(())
        });
        homs
    }

    #[test]
    fn homomorphism_counts_match_closed_forms() {
        let two_edges = structure(4, &[("E", &[0, 1]), ("E", &[2, 3])]);
        let edge_and_isolated = structure(3, &[("E", &[0, 1])]);
        let cases: Vec<(&str, Structure, Structure, usize)> = vec![
            // a k-edge path into K_n: n(n-1)^k
            ("P1 → K2", path_pattern(1), clique_graph(2), 2),
            ("P1 → K5", path_pattern(1), clique_graph(5), 20),
            ("P2 → K3", path_pattern(2), clique_graph(3), 12),
            ("P3 → K3", path_pattern(3), clique_graph(3), 24),
            ("P2 → K4", path_pattern(2), clique_graph(4), 36),
            ("P4 → K3", path_pattern(4), clique_graph(3), 48),
            // a path into a directed n-cycle starts anywhere: n
            ("P2 → C4", path_pattern(2), cycle_graph(4), 4),
            ("P5 → C3", path_pattern(5), cycle_graph(3), 3),
            ("C5 → C4", cycle_graph(5), cycle_graph(4), 0),
            ("K4 → K3", clique_graph(4), clique_graph(3), 0),
            (
                "∅ → K3",
                StructureBuilder::new(0).build(),
                clique_graph(3),
                1,
            ),
            // components multiply, an isolated element takes any value
            (
                "edge + isolated → K3",
                edge_and_isolated,
                clique_graph(3),
                18,
            ),
            ("two edges → K3", two_edges, clique_graph(3), 36),
        ];
        for (name, a, b, expected) in cases {
            let homs = homomorphisms(&a, &b);
            assert_eq!(homs.len(), expected, "{name}");
            let inst = HomInstance::new(&a, &b);
            assert!(homs.iter().all(|h| inst.is_homomorphism(h)), "{name}");
            assert!(
                homs.windows(2).all(|w| w[0] < w[1]),
                "{name}: not ascending"
            );
        }
    }

    #[test]
    fn repeated_variable_constraints() {
        // pattern E(x, x), E(x, y); the data has one loop, at vertex 1:
        // x must carry the loop, y any out-neighbour of x
        let a = structure(2, &[("E", &[0, 0]), ("E", &[0, 1])]);
        let b = structure(3, &[("E", &[1, 1]), ("E", &[1, 2]), ("E", &[0, 2])]);
        assert_eq!(
            homomorphisms(&a, &b),
            vec![vec![Val(1), Val(1)], vec![Val(1), Val(2)]]
        );
    }

    #[test]
    fn unary_marks_force_images() {
        // Mark(x), E(x, y) into 0 → 1, 2 → 3 with only 2 marked
        let a = structure(2, &[("E", &[0, 1]), ("Mark", &[0])]);
        let b = structure(4, &[("E", &[0, 1]), ("E", &[2, 3]), ("Mark", &[2])]);
        assert_eq!(homomorphisms(&a, &b), vec![vec![Val(2), Val(3)]]);
    }

    #[test]
    fn ternary_relation() {
        let a = structure(3, &[("R", &[0, 1, 2])]);
        let b = structure(
            4,
            &[("R", &[0, 1, 2]), ("R", &[1, 2, 3]), ("R", &[0, 0, 0])],
        );
        assert_eq!(homomorphisms(&a, &b).len(), 3);
        // middle positions of R tuples: {1, 2, 0}
        assert_eq!(bag_partial_solutions(&a, &b, &[1]).len(), 3);
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
        // the whole pattern: its homomorphisms, 0→1→2 and 1→2→3
        assert_eq!(bag_partial_solutions(&a, &b, &[0, 1, 2]).len(), 2);
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
}
