//! Exact semantics: solutions (Definition 1), answers (Definition 2) and
//! partial solutions `Sol(ϕ, D, B)` (Definition 47).
//!
//! Solutions are found as Equation (2) describes them: the homomorphisms
//! from `A⁺` — the positive atoms of `ϕ` over the universe `vars(ϕ)` — into
//! `D`, enumerated by `cqc-hom`'s descent (a generic join: every variable
//! only tries the values all its positive atoms still support), and kept
//! when they satisfy the negated atoms and the disequalities.
//! [`enumerate_solutions`], [`enumerate_answers`], [`is_answer`] and
//! [`exact_count_answers`] are built on that one search; its cost follows
//! the solutions, not `|U(D)|^{|vars(ϕ)|}`.
//!
//! [`count_answers_bruteforce`] and [`partial_solutions`] are the
//! definitional oracles the tests check against: they walk every
//! assignment and test the definitions directly, exponentially in the
//! query size (the `‖D‖^{O(‖ϕ‖)}` brute force of Section 1.1).

use crate::ast::{Atom, Literal, Query, Var};
use cqc_data::{Structure, StructureBuilder, SymbolId, Val};
use cqc_hom::{for_each_homomorphism, HomInstance};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Check whether a *full* assignment (one value per variable, in variable
/// index order) is a solution of `(ϕ, D)` (Definition 1).
pub fn is_solution(q: &Query, db: &Structure, assignment: &[Val]) -> bool {
    assert_eq!(assignment.len(), q.num_vars());
    for lit in q.literals() {
        let atom = lit.atom();
        let sym = match db.signature().symbol(&atom.relation) {
            Some(s) => s,
            None => return false,
        };
        let image: Vec<Val> = atom.vars.iter().map(|v| assignment[v.index()]).collect();
        let holds = db.holds(sym, &image);
        match lit {
            Literal::Positive(_) if !holds => return false,
            Literal::Negated(_) if holds => return false,
            _ => {}
        }
    }
    for &(u, v) in q.disequalities() {
        if assignment[u.index()] == assignment[v.index()] {
            return false;
        }
    }
    true
}

/// Enumerate all solutions of `(ϕ, D)` (full assignments, Definition 1).
pub fn enumerate_solutions(q: &Query, db: &Structure) -> Vec<Vec<Val>> {
    let mut out = Vec::new();
    for_each_solution(q, db, None, &mut |s| {
        out.push(s.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// Enumerate the set of answers `Ans(ϕ, D)` (Definition 2): the projections
/// of solutions onto the free variables, in head order.
pub fn enumerate_answers(q: &Query, db: &Structure) -> BTreeSet<Vec<Val>> {
    let mut out = BTreeSet::new();
    for_each_solution(q, db, None, &mut |s| {
        out.insert(q.free_vars().iter().map(|v| s[v.index()]).collect());
        ControlFlow::Continue(())
    });
    out
}

/// Check whether `tau` (values for the free variables, in head order) is an
/// answer of `(ϕ, D)`, i.e. extends to a solution (Definition 2). The search
/// fixes the free variables to `tau` and stops at the first witness.
pub fn is_answer(q: &Query, db: &Structure, tau: &[Val]) -> bool {
    assert_eq!(tau.len(), q.num_free_vars());
    let mut found = false;
    for_each_solution(q, db, Some(tau), &mut |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// `|Ans(ϕ, D)|`, exactly: the number of distinct projections of the
/// enumerated solutions.
pub fn exact_count_answers(q: &Query, db: &Structure) -> u64 {
    enumerate_answers(q, db).len() as u64
}

/// The paper's brute force (Section 1.1), kept as the definitional oracle:
/// walk all `|U(D)|^{|vars(ϕ)|}` full assignments, test Definition 1 on each
/// and count the distinct projections onto the free variables.
pub fn count_answers_bruteforce(q: &Query, db: &Structure) -> u64 {
    let mut answers = BTreeSet::new();
    for_each_assignment(q.num_vars(), db.universe_size(), |a| {
        if is_solution(q, db, a) {
            answers.insert(
                q.free_vars()
                    .iter()
                    .map(|v| a[v.index()])
                    .collect::<Vec<_>>(),
            );
        }
    });
    answers.len() as u64
}

/// Partial solutions `Sol(ϕ, D, B)` (Definition 47): assignments `α : B →
/// U(D)` such that **for every atom individually** there is an extension of
/// `α` to all variables placing the atom's image in the corresponding
/// relation. Used by the Theorem 16 pipeline (per-bag solution sets of the
/// tree decomposition); defined for CQs (positive atoms only) — negated atoms
/// and disequalities of the query are ignored here, matching the paper's use.
pub fn partial_solutions(q: &Query, db: &Structure, bag: &[Var]) -> BTreeSet<Vec<Val>> {
    let mut out = BTreeSet::new();
    for_each_assignment(bag.len(), db.universe_size(), |values| {
        let value = |v: &Var| bag.iter().position(|b| b == v).map(|i| values[i]);
        // every positive atom, on its own, has a tuple agreeing with `bag ↦ values`
        let consistent = q.positive_atoms().all(|atom| {
            db.signature().symbol(&atom.relation).is_some_and(|sym| {
                db.relation(sym).iter().any(|t| {
                    (atom.vars.iter().zip(t)).all(|(v, x)| value(v).is_none_or(|val| val == *x))
                })
            })
        });
        if consistent {
            out.insert(values.to_vec());
        }
    });
    out
}

/// Call `visit` with each of the `n^k` assignments of values in `0..n` to
/// `k` positions (one, the empty one, when `k = 0`).
fn for_each_assignment(k: usize, n: usize, mut visit: impl FnMut(&[Val])) {
    if n == 0 && k > 0 {
        return;
    }
    let mut values = vec![Val(0); k];
    loop {
        visit(&values);
        // advance the odometer; the last assignment has every digit at n - 1
        let Some(i) = values.iter().position(|v| v.0 as usize + 1 < n) else {
            return;
        };
        values[i] = Val(values[i].0 + 1);
        values[..i].fill(Val(0));
    }
}

/// Call `emit` with every solution of `(ϕ, D)` (a value per variable) whose
/// free variables take the values `tau` (in head order) when given; `emit`
/// returns [`ControlFlow::Break`] to stop. A query whose signature is not
/// contained in `sig(D)` has no solutions.
fn for_each_solution(
    q: &Query,
    db: &Structure,
    tau: Option<&[Val]>,
    emit: &mut dyn FnMut(&[Val]) -> ControlFlow<()>,
) {
    if !q.compatible_with(db.signature()) {
        return;
    }
    let symbol = |atom: &Atom| -> SymbolId {
        db.signature()
            .symbol(&atom.relation)
            .expect("sig(ϕ) ⊆ sig(D)")
    };
    // A⁺: the positive atoms of ϕ over the universe vars(ϕ), in sig(D)
    let mut a_plus = StructureBuilder::with_signature(db.signature().clone(), q.num_vars());
    for atom in q.positive_atoms() {
        let row: Vec<Val> = atom.vars.iter().map(|v| Val(v.0)).collect();
        a_plus.row(symbol(atom), &row).expect("arities match");
    }
    let a_plus = a_plus.build();
    let negated: Vec<(SymbolId, &[Var])> = q
        .negated_atoms()
        .map(|atom| (symbol(atom), atom.vars.as_slice()))
        .collect();
    let inst = HomInstance::new(&a_plus, db);
    let mut domains = inst.initial_domains();
    for (v, t) in q.free_vars().iter().zip(tau.unwrap_or_default()) {
        domains[v.index()].retain(|d| d == t);
    }
    let mut image = Vec::new();
    let _ = for_each_homomorphism(&inst, &connected_order(q), &domains, &mut |h| {
        let violated = q
            .disequalities()
            .iter()
            .any(|&(u, v)| h[u.index()] == h[v.index()])
            || negated.iter().any(|&(sym, vars)| {
                image.clear();
                image.extend(vars.iter().map(|v| h[v.index()]));
                db.holds(sym, &image)
            });
        if violated {
            ControlFlow::Continue(())
        } else {
            emit(h)
        }
    });
}

/// The variables in a connected order: the lowest-index variable first, then
/// each time the lowest-index variable that shares a positive atom with an
/// ordered one (the lowest-index unordered variable when none does), so
/// every join step after the first is bound by an earlier variable.
fn connected_order(q: &Query) -> Vec<usize> {
    let n = q.num_vars();
    let mut ordered = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let unordered = || (0..n).filter(|&v| !ordered[v]);
        let next = unordered()
            .find(|&v| {
                q.positive_atoms().any(|atom| {
                    atom.vars.iter().any(|u| u.index() == v)
                        && atom.vars.iter().any(|u| ordered[u.index()])
                })
            })
            .or_else(|| unordered().next())
            .expect("a variable is left to order");
        ordered[next] = true;
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn friends_db() -> Structure {
        // 0 is friends with 1, 2; 3 is friends with 0 only; 4 isolated
        let mut b = StructureBuilder::new(5);
        b.relation("F", 2);
        b.fact("F", &[0, 1]).unwrap();
        b.fact("F", &[0, 2]).unwrap();
        b.fact("F", &[3, 0]).unwrap();
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
    fn friends_query_answers() {
        // paper equation (1): people with at least two distinct friends
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        let ans = enumerate_answers(&q, &db);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Val(0)]));
        assert_eq!(count_answers_bruteforce(&q, &db), 1);
        assert_eq!(exact_count_answers(&q, &db), 1);
    }

    #[test]
    fn without_disequality_more_answers() {
        let q = parse_query("ans(x) :- F(x, y), F(x, z)").unwrap();
        let db = friends_db();
        // now a single friend suffices (y = z allowed): answers {0, 3}
        assert_eq!(count_answers_bruteforce(&q, &db), 2);
    }

    #[test]
    fn solutions_vs_answers() {
        let q = parse_query("ans(x) :- F(x, y), F(x, z)").unwrap();
        let db = friends_db();
        let sols = enumerate_solutions(&q, &db);
        // solutions: (0,1,1), (0,1,2), (0,2,1), (0,2,2), (3,0,0) = 5
        assert_eq!(sols.len(), 5);
        assert!(sols.iter().all(|s| is_solution(&q, &db, s)));
        assert_eq!(enumerate_answers(&q, &db).len(), 2);
    }

    #[test]
    fn negation_semantics() {
        // pairs (x, y) with an F-edge x→y but no F-edge y→x
        let q = parse_query("ans(x, y) :- F(x, y), !F(y, x)").unwrap();
        let db = friends_db();
        let ans = enumerate_answers(&q, &db);
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&vec![Val(0), Val(1)]));
        assert!(ans.contains(&vec![Val(0), Val(2)]));
        assert!(ans.contains(&vec![Val(3), Val(0)]));
    }

    #[test]
    fn boolean_query() {
        let q = parse_query("ans() :- F(x, y), F(y, z)").unwrap();
        let db = friends_db();
        // 3 → 0 → 1 exists
        assert_eq!(count_answers_bruteforce(&q, &db), 1);
        assert!(is_answer(&q, &db, &[]));
        // a query that cannot be satisfied
        let q = parse_query("ans() :- F(x, x)").unwrap();
        assert_eq!(count_answers_bruteforce(&q, &db), 0);
    }

    #[test]
    fn hamiltonian_paths_on_path_graph() {
        // Observation 10 construction on an (undirected-as-directed) path of
        // 4 vertices: the directed path graph has exactly one Hamiltonian
        // path 0→1→2→3.
        let q = parse_query(
            "ans(x1, x2, x3, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), \
             x1 != x2, x1 != x3, x1 != x4, x2 != x3, x2 != x4, x3 != x4",
        )
        .unwrap();
        let db = path_graph(4);
        assert_eq!(exact_count_answers(&q, &db), 1);
    }

    #[test]
    fn footnote_4_star_query() {
        // ϕ(x1, x2) = ∃y E(y,x1) ∧ E(y,x2): pairs with a common in-neighbour
        let q = parse_query("ans(x1, x2) :- E(y, x1), E(y, x2)").unwrap();
        let db = path_graph(4);
        // each vertex y has out-neighbourhood {y+1}: only pairs (y+1, y+1)
        assert_eq!(count_answers_bruteforce(&q, &db), 3);
    }

    #[test]
    fn is_answer_matches_enumeration() {
        let q = parse_query("ans(x, y) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        let ans = enumerate_answers(&q, &db);
        for a in 0..db.universe_size() as u32 {
            for b in 0..db.universe_size() as u32 {
                let tau = vec![Val(a), Val(b)];
                assert_eq!(is_answer(&q, &db, &tau), ans.contains(&tau));
            }
        }
    }

    #[test]
    fn partial_solutions_of_a_bag() {
        let q = parse_query("ans(x) :- E(x, y), E(y, z)").unwrap();
        let db = path_graph(4);
        let x = q.variable("x").unwrap();
        let y = q.variable("y").unwrap();
        // Sol(ϕ, D, {x, y}): pairs (a, b) with E(a,b) and b having an out-edge
        let sols = partial_solutions(&q, &db, &[x, y]);
        assert_eq!(sols.len(), 2); // (0,1), (1,2) — (2,3) fails because 3 has no out-edge
        assert!(sols.contains(&vec![Val(0), Val(1)]));
        assert!(sols.contains(&vec![Val(1), Val(2)]));
        // Sol(ϕ, D, ∅) is the singleton empty assignment (both atoms non-empty)
        let sols = partial_solutions(&q, &db, &[]);
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn partial_solutions_empty_when_some_relation_is_empty() {
        let q = parse_query("ans(x) :- E(x, y), Z(y)").unwrap();
        let mut b = StructureBuilder::new(3);
        b.relation("E", 2);
        b.relation("Z", 1);
        b.fact("E", &[0, 1]).unwrap();
        let db = b.build();
        let x = q.variable("x").unwrap();
        assert!(partial_solutions(&q, &db, &[x]).is_empty());
        assert!(partial_solutions(&q, &db, &[]).is_empty());
    }

    #[test]
    fn is_solution_rejects_violations() {
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        assert!(is_solution(&q, &db, &[Val(0), Val(1), Val(2)]));
        assert!(!is_solution(&q, &db, &[Val(0), Val(1), Val(1)])); // disequality
        assert!(!is_solution(&q, &db, &[Val(1), Val(0), Val(2)])); // F(1,0) missing
    }

    #[test]
    fn larger_database_counts_agree() {
        // cross-check the two exact counters on a slightly larger instance
        let q = parse_query("ans(x, y) :- E(x, z), E(z, y)").unwrap();
        let mut b = StructureBuilder::new(6);
        b.relation("E", 2);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)] {
            b.fact("E", &[u, v]).unwrap();
        }
        let db = b.build();
        assert_eq!(
            count_answers_bruteforce(&q, &db),
            exact_count_answers(&q, &db)
        );
    }

    #[test]
    fn empty_universe_has_no_answers() {
        // the only assignment candidates are out of range: no solution, no answer
        let q = parse_query("ans(x) :- !E(x, x)").unwrap();
        let mut b = StructureBuilder::new(0);
        b.relation("E", 2);
        let db = b.build();
        assert_eq!(count_answers_bruteforce(&q, &db), 0);
        assert_eq!(exact_count_answers(&q, &db), 0);
        assert!(enumerate_solutions(&q, &db).is_empty());
    }

    #[test]
    fn variable_only_in_a_negated_atom() {
        // y occurs only under the negation: every value without an F-edge x→y
        let q = parse_query("ans(x, y) :- F(x, z), !F(x, y)").unwrap();
        let db = friends_db();
        // x = 0: y ∈ {0, 3, 4}; x = 3: y ∈ {1, 2, 3, 4}
        assert_eq!(exact_count_answers(&q, &db), 7);
        assert_eq!(count_answers_bruteforce(&q, &db), 7);
        assert!(is_answer(&q, &db, &[Val(0), Val(4)]));
        assert!(!is_answer(&q, &db, &[Val(0), Val(1)]));
        assert!(!is_answer(&q, &db, &[Val(4), Val(0)]));
    }

    #[test]
    fn relation_missing_from_the_database() {
        let db = friends_db();
        for text in ["ans(x) :- F(x, y), G(y)", "ans(x, y) :- F(x, y), !G(y, x)"] {
            let q = parse_query(text).unwrap();
            assert_eq!(exact_count_answers(&q, &db), 0, "{text}");
            assert_eq!(count_answers_bruteforce(&q, &db), 0, "{text}");
            assert!(enumerate_solutions(&q, &db).is_empty(), "{text}");
            assert!(
                !is_answer(&q, &db, &vec![Val(0); q.num_free_vars()]),
                "{text}"
            );
        }
    }
}
