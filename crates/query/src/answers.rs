//! Brute-force semantics: solutions (Definition 1), answers (Definition 2)
//! and partial solutions `Sol(ϕ, D, B)` (Definition 47).
//!
//! Everything in this module is *exact* and exponential in the query size;
//! it serves as the ground truth for tests and as the brute-force baseline
//! (`‖D‖^{O(‖ϕ‖)}`, Section 1.1) in the experiments.

use crate::ast::{Literal, Query, Var};
use cqc_data::{Structure, Val};
use std::collections::BTreeSet;

/// A (partial) assignment of database values to query variables, indexed by
/// variable index; `None` means unassigned.
pub type Assignment = Vec<Option<Val>>;

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

/// Enumerate all solutions of `(ϕ, D)` (full assignments, Definition 1) by
/// backtracking with constraint propagation on fully-assigned literals.
pub fn enumerate_solutions(q: &Query, db: &Structure) -> Vec<Vec<Val>> {
    let mut out = Vec::new();
    let mut assignment: Assignment = vec![None; q.num_vars()];
    let order: Vec<Var> = q.vars().collect();
    backtrack_all(q, db, &order, 0, &mut assignment, &mut |a| {
        out.push(a.iter().map(|v| v.expect("full")).collect());
        true
    });
    out
}

/// Enumerate the set of answers `Ans(ϕ, D)` (Definition 2): the projections
/// of solutions onto the free variables, in head order.
pub fn enumerate_answers(q: &Query, db: &Structure) -> BTreeSet<Vec<Val>> {
    let mut out = BTreeSet::new();
    let mut assignment: Assignment = vec![None; q.num_vars()];
    let order: Vec<Var> = q.vars().collect();
    backtrack_all(q, db, &order, 0, &mut assignment, &mut |a| {
        let tau: Vec<Val> = q
            .free_vars()
            .iter()
            .map(|v| a[v.index()].expect("full"))
            .collect();
        out.insert(tau);
        true
    });
    out
}

/// Check whether `tau` (values for the free variables, in head order) is an
/// answer of `(ϕ, D)`, i.e. extends to a solution (Definition 2). Uses
/// backtracking over the existential variables.
pub fn is_answer(q: &Query, db: &Structure, tau: &[Val]) -> bool {
    assert_eq!(tau.len(), q.num_free_vars());
    let mut assignment: Assignment = vec![None; q.num_vars()];
    for (v, &val) in q.free_vars().iter().zip(tau) {
        assignment[v.index()] = Some(val);
    }
    // quick reject: constraints already violated by tau alone
    if violates_partial(q, db, &assignment) {
        return false;
    }
    let order: Vec<Var> = q.existential_vars();
    let mut found = false;
    backtrack_all(q, db, &order, 0, &mut assignment, &mut |_| {
        found = true;
        false // stop at the first witness
    });
    found
}

/// The paper's brute-force algorithm (Section 1.1): iterate over all
/// `|U(D)|^ℓ` assignments of the free variables and test extendability.
/// Exact but exponential in the number of free variables.
pub fn count_answers_bruteforce(q: &Query, db: &Structure) -> u64 {
    let ell = q.num_free_vars();
    let n = db.universe_size();
    if ell == 0 {
        return if is_answer(q, db, &[]) { 1 } else { 0 };
    }
    let mut tau = vec![Val(0); ell];
    let mut count = 0u64;
    loop {
        if is_answer(q, db, &tau) {
            count += 1;
        }
        // advance odometer
        let mut i = 0;
        loop {
            if i == ell {
                return count;
            }
            tau[i] = Val(tau[i].0 + 1);
            if (tau[i].0 as usize) < n {
                break;
            }
            tau[i] = Val(0);
            i += 1;
        }
    }
}

/// Exact answer count computed by enumerating solutions and projecting
/// (faster than [`count_answers_bruteforce`] when solutions are sparse).
pub fn count_answers_via_solutions(q: &Query, db: &Structure) -> u64 {
    enumerate_answers(q, db).len() as u64
}

/// Partial solutions `Sol(ϕ, D, B)` (Definition 47): assignments `α : B →
/// U(D)` such that **for every atom individually** there is an extension of
/// `α` to all variables placing the atom's image in the corresponding
/// relation. Used by the Theorem 16 pipeline (per-bag solution sets of the
/// tree decomposition); defined for CQs (positive atoms only) — negated atoms
/// and disequalities of the query are ignored here, matching the paper's use.
pub fn partial_solutions(q: &Query, db: &Structure, bag: &[Var]) -> BTreeSet<Vec<Val>> {
    let mut out = BTreeSet::new();
    let k = bag.len();
    if k == 0 {
        // the empty assignment is a partial solution iff every atom has at
        // least one matching tuple
        let ok = q.positive_atoms().all(|atom| {
            db.signature()
                .symbol(&atom.relation)
                .map(|sym| !db.relation(sym).is_empty())
                .unwrap_or(false)
        });
        if ok {
            out.insert(vec![]);
        }
        return out;
    }
    let n = db.universe_size();
    let mut values = vec![Val(0); k];
    'outer: loop {
        if bag_assignment_locally_consistent(q, db, bag, &values) {
            out.insert(values.clone());
        }
        let mut i = 0;
        loop {
            if i == k {
                break 'outer;
            }
            values[i] = Val(values[i].0 + 1);
            if (values[i].0 as usize) < n {
                break;
            }
            values[i] = Val(0);
            i += 1;
        }
    }
    out
}

/// Is the assignment `bag ↦ values` consistent with every positive atom in
/// the per-atom (semijoin) sense of Definition 47?
pub fn bag_assignment_locally_consistent(
    q: &Query,
    db: &Structure,
    bag: &[Var],
    values: &[Val],
) -> bool {
    let lookup = |v: Var| -> Option<Val> { bag.iter().position(|&b| b == v).map(|i| values[i]) };
    for atom in q.positive_atoms() {
        let sym = match db.signature().symbol(&atom.relation) {
            Some(s) => s,
            None => return false,
        };
        let constrained: Vec<(usize, Val)> = atom
            .vars
            .iter()
            .enumerate()
            .filter_map(|(pos, v)| lookup(*v).map(|val| (pos, val)))
            .collect();
        let witness = db
            .relation(sym)
            .iter()
            .any(|t| constrained.iter().all(|&(pos, val)| t[pos] == val));
        if !witness {
            return false;
        }
    }
    true
}

/// Backtracking over `order[level..]`, invoking `on_solution` for every full
/// solution; `on_solution` returns `false` to stop the search early.
fn backtrack_all(
    q: &Query,
    db: &Structure,
    order: &[Var],
    level: usize,
    assignment: &mut Assignment,
    on_solution: &mut dyn FnMut(&Assignment) -> bool,
) -> bool {
    if level == order.len() {
        // all variables in `order` assigned; if `order` covers all variables,
        // the constraint checks below have already validated everything.
        return on_solution(assignment);
    }
    let var = order[level];
    let n = db.universe_size();
    for val in 0..n as u32 {
        assignment[var.index()] = Some(Val(val));
        if !violates_partial(q, db, assignment)
            && !backtrack_all(q, db, order, level + 1, assignment, on_solution)
        {
            assignment[var.index()] = None;
            return false;
        }
    }
    assignment[var.index()] = None;
    true
}

/// Does the partial assignment already violate a fully-assigned constraint?
fn violates_partial(q: &Query, db: &Structure, assignment: &Assignment) -> bool {
    for lit in q.literals() {
        let atom = lit.atom();
        let mut image = Vec::with_capacity(atom.vars.len());
        let mut complete = true;
        for v in &atom.vars {
            match assignment[v.index()] {
                Some(val) => image.push(val),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            continue;
        }
        let sym = match db.signature().symbol(&atom.relation) {
            Some(s) => s,
            None => return true,
        };
        let holds = db.holds(sym, &image);
        match lit {
            Literal::Positive(_) if !holds => return true,
            Literal::Negated(_) if holds => return true,
            _ => {}
        }
    }
    for &(u, v) in q.disequalities() {
        if let (Some(a), Some(b)) = (assignment[u.index()], assignment[v.index()]) {
            if a == b {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use cqc_data::StructureBuilder;

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
        assert_eq!(count_answers_via_solutions(&q, &db), 1);
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
        assert_eq!(count_answers_via_solutions(&q, &db), 1);
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
            count_answers_via_solutions(&q, &db)
        );
    }
}
