//! The coloured structures `Â(ϕ)` (Definition 26) and
//! `B̂(ϕ, D, V₁..V_ℓ, f)` (Definition 28).
//!
//! These are the structures used by the colour-coding simulation of the
//! `EdgeFree` oracle (Lemma 22 / Lemma 30): for an ℓ-partite subset
//! `(V₁, …, V_ℓ)` of the answer hypergraph's vertex set and a family `f` of
//! colouring functions (one per disequality), the induced subhypergraph
//! `H(ϕ, D)[V₁..V_ℓ]` has a hyperedge **iff** there exists a colouring `f`
//! and a homomorphism `Â(ϕ) → B̂(ϕ, D, V₁..V_ℓ, f)`.

use crate::ast::{Query, Var};
use crate::structures::{a_signature, add_atoms};
use cqc_data::{Signature, Structure, StructureBuilder, SymbolId, Val};
use std::collections::{BTreeSet, HashMap};

/// The variable enumeration `x₁, …, x_{ℓ+k}` used by Definitions 24–28: the
/// free variables first (in head order), then the existential variables (in
/// index order).
pub fn variable_enumeration(q: &Query) -> Vec<Var> {
    let mut order: Vec<Var> = q.free_vars().to_vec();
    order.extend(q.existential_vars());
    order
}

/// An ℓ-partite subset `(V₁, …, V_ℓ)` of `V(H(ϕ, D)) = ⋃ U_i(D)`
/// (Definition 24). `sets[i]` is the set of database values allowed for the
/// `i`-th free variable (0-based position in [`variable_enumeration`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartiteSets {
    /// One value set per free variable position.
    pub sets: Vec<BTreeSet<Val>>,
}

impl PartiteSets {
    /// The full ℓ-partite set `V_i = U(D)` for every free variable, i.e. no
    /// restriction.
    pub fn full(num_free: usize, universe_size: usize) -> Self {
        let all: BTreeSet<Val> = (0..universe_size as u32).map(Val).collect();
        PartiteSets {
            sets: vec![all; num_free],
        }
    }

    /// Number of free-variable classes `ℓ`.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether there are no classes (a Boolean query).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// A collection `f = {f_η}` of colouring functions, one per disequality
/// `η ∈ Δ(ϕ)`, each mapping `U(D) → {red, blue}` (Definition 28).
///
/// `red[d][u]` is `true` when `f_{η_d}(u) = red`, where `η_d` is the `d`-th
/// disequality of the query (in [`Query::disequalities`] order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColouringFamily {
    /// Per-disequality, per-universe-element colour flags (`true` = red).
    pub red: Vec<Vec<bool>>,
}

impl ColouringFamily {
    /// The empty family (for queries without disequalities).
    pub fn empty() -> Self {
        ColouringFamily { red: vec![] }
    }

    /// Build a family by drawing each colour from the provided closure
    /// (the FPTRAS uses a fair coin, Lemma 22's simulation).
    pub fn from_fn<F: FnMut(usize, usize) -> bool>(
        num_disequalities: usize,
        universe_size: usize,
        mut is_red: F,
    ) -> Self {
        let red = (0..num_disequalities)
            .map(|d| (0..universe_size).map(|u| is_red(d, u)).collect())
            .collect();
        ColouringFamily { red }
    }

    /// Is element `u` red under the colouring of disequality `d`?
    pub fn is_red(&self, d: usize, u: Val) -> bool {
        self.red[d][u.index()]
    }
}

/// The symbols of the shared signature of `Â(ϕ)` and `B̂(ϕ, D, …)`:
/// `sig(A(ϕ))` followed by one `P_i` per variable position and a pair
/// `(Rd_d, Bd_d)` per disequality (Definition 26). Deterministic order so the
/// two structures end up with identical signatures, and symbol ids shared
/// with `B(ϕ, D)` for the symbols of `sig(A(ϕ))`.
struct HatSymbols {
    /// The symbol of each literal, in [`Query::literals`] order.
    literals: Vec<SymbolId>,
    /// `P_i` for each variable position `i` in enumeration order.
    positions: Vec<SymbolId>,
    /// `(Rd_d, Bd_d)` for each disequality `d`.
    colours: Vec<(SymbolId, SymbolId)>,
}

/// The shared signature of `Â(ϕ)` and `B̂(ϕ, D, …)` and its symbols.
fn hat_signature(q: &Query) -> (Signature, HatSymbols) {
    let (mut sig, literals) = a_signature(q);
    let mut unary = |name: String| sig.declare(&name, 1).expect("fresh names");
    let positions = (0..q.num_vars()).map(|i| unary(format!("P{i}"))).collect();
    let colours = (0..q.disequalities().len())
        .map(|d| (unary(format!("Rd{d}")), unary(format!("Bd{d}"))))
        .collect();
    let symbols = HatSymbols {
        literals,
        positions,
        colours,
    };
    (sig, symbols)
}

/// Build `Â(ϕ)` (Definition 26): `A(ϕ)` plus
/// * a unary relation `P_i = {x_i}` for every variable position `i`, and
/// * unary relations `Rd_d = {x_i}`, `Bd_d = {x_j}` for every disequality
///   `η_d = {x_i, x_j}` with `i < j` in enumeration order.
///
/// By Observation 27, `‖Â(ϕ)‖ ≤ 5‖ϕ‖²`.
pub fn build_a_hat(q: &Query) -> Structure {
    let order = variable_enumeration(q);
    let position: HashMap<Var, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let (sig, syms) = hat_signature(q);
    let mut a = StructureBuilder::with_signature(sig, q.num_vars());
    // Relational atoms, exactly as in A(ϕ). Universe elements of Â are the
    // variables indexed by their *original* Var index (not enumeration
    // position); the P_i relations are keyed by enumeration position.
    add_atoms(q, &syms.literals, &mut a);
    // P_i = {x_i} where i is the enumeration position of the variable.
    for (v, &sym) in order.iter().zip(&syms.positions) {
        a.row(sym, &[Val(v.0)]).expect("unary");
    }
    // Per-disequality colour markers; the paper orders each disequality by
    // enumeration position (i < j).
    for (&(u, v), &(r, b)) in q.disequalities().iter().zip(&syms.colours) {
        let (first, second) = if position[&u] < position[&v] {
            (u, v)
        } else {
            (v, u)
        };
        a.row(r, &[Val(first.0)]).expect("unary");
        a.row(b, &[Val(second.0)]).expect("unary");
    }
    let mut a = a.build();
    a.set_element_names(q.variable_names().to_vec());
    a
}

/// Build `B̂(ϕ, D, V₁..V_ℓ, f)` (Definition 28) from the already-constructed
/// `B(ϕ, D)` structure (see [`crate::build_b_structure`]).
///
/// The universe consists of pairs `(w, i)` where `i` is a variable position
/// in enumeration order and `w ∈ S_i` with `S_i = V_i` for free positions and
/// `S_i = U(D)` for existential positions. The returned decode table maps the
/// dense universe ids of the new structure back to `(position, value)` pairs.
///
/// One deliberate optimisation relative to the verbatim Definition 28: for a
/// relation symbol `R`, tuples are only materialised for the index patterns
/// `(i₁, …, i_a)` that actually occur as argument-position patterns of an
/// `R`-atom of `ϕ`. Tuples with other index patterns can never be the image
/// of an `R`-tuple of `Â(ϕ)` (the `P_i` relations pin every variable to its
/// own class), so `Hom(Â(ϕ) → B̂)` is unaffected while the structure stays
/// small (`|R^B| · #atoms` instead of `|R^B| · (ℓ+k)^a`).
pub fn build_b_hat(
    q: &Query,
    b: &Structure,
    parts: &PartiteSets,
    colouring: &ColouringFamily,
) -> (Structure, Vec<(usize, Val)>) {
    b_hat(q, b, parts, colouring, false)
}

/// [`build_b_hat`] for the relaxation check of the `EdgeFree` oracle: the
/// `Rd_d` relations follow `colouring` as usual, but every element is also
/// in every `Bd_d`. With the all-red colouring every element carries both
/// colours, so the disequalities place no constraint within the region.
pub fn build_b_hat_relaxed(
    q: &Query,
    b: &Structure,
    parts: &PartiteSets,
    colouring: &ColouringFamily,
) -> (Structure, Vec<(usize, Val)>) {
    b_hat(q, b, parts, colouring, true)
}

fn b_hat(
    q: &Query,
    b: &Structure,
    parts: &PartiteSets,
    colouring: &ColouringFamily,
    all_blue: bool,
) -> (Structure, Vec<(usize, Val)>) {
    let order = variable_enumeration(q);
    let position: HashMap<Var, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let ell = q.num_free_vars();
    assert_eq!(parts.len(), ell, "one partite set per free variable");
    assert_eq!(
        colouring.red.len(),
        q.disequalities().len(),
        "one colouring per disequality"
    );
    let n = b.universe_size();

    // S_i per position.
    let full: BTreeSet<Val> = (0..n as u32).map(Val).collect();
    let s: Vec<BTreeSet<Val>> = (0..order.len())
        .map(|i| {
            if i < ell {
                parts.sets[i].clone()
            } else {
                full.clone()
            }
        })
        .collect();

    // Dense universe: (position, value) pairs.
    let mut decode: Vec<(usize, Val)> = Vec::new();
    let mut encode: HashMap<(usize, Val), u32> = HashMap::new();
    for (i, si) in s.iter().enumerate() {
        for &w in si {
            encode.insert((i, w), decode.len() as u32);
            decode.push((i, w));
        }
    }

    let (sig, syms) = hat_signature(q);
    debug_assert!(
        b.signature().is_subsignature_of(&sig),
        "B(ϕ, D) shares the symbols of sig(A(ϕ))"
    );
    let mut bh = StructureBuilder::with_signature(sig, decode.len());

    // Relational tuples, restricted to the index patterns of actual atoms.
    for (lit, &sym) in q.literals().iter().zip(&syms.literals) {
        let pattern: Vec<usize> = lit.atom().vars.iter().map(|v| position[v]).collect();
        for t in b.relation(sym).iter() {
            // map each value through its class; skip if any value is not in S_i
            let mapped: Option<Vec<Val>> = pattern
                .iter()
                .zip(t)
                .map(|(pos, &w)| encode.get(&(*pos, w)).map(|&id| Val(id)))
                .collect();
            if let Some(mapped) = mapped {
                bh.row(sym, &mapped).expect("in range");
            }
        }
    }

    // P_i = S_i.
    for ((i, si), &sym) in s.iter().enumerate().zip(&syms.positions) {
        for &w in si {
            bh.row(sym, &[Val(encode[&(i, w)])]).expect("unary");
        }
    }

    // Colour relations: Rd_d = {(w, j) | f_d(w) = red}, Bd_d likewise for
    // blue (or every element, for the relaxation check).
    for (d, &(r, bl)) in syms.colours.iter().enumerate() {
        for (id, &(_, w)) in decode.iter().enumerate() {
            let id = [Val(id as u32)];
            let red = colouring.is_red(d, w);
            if red {
                bh.row(r, &id).expect("unary");
            }
            if all_blue || !red {
                bh.row(bl, &id).expect("unary");
            }
        }
    }

    (bh.build(), decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::enumerate_answers;
    use crate::parse_query;
    use crate::structures::build_b_structure;
    use cqc_data::StructureBuilder;

    /// Brute-force homomorphism existence check (test oracle only).
    fn hom_exists(a: &Structure, b: &Structure) -> bool {
        let n = a.universe_size();
        let m = b.universe_size();
        if n == 0 {
            return true;
        }
        if m == 0 {
            return false;
        }
        let mut assignment = vec![0u32; n];
        loop {
            let ok = a.signature().iter().all(|(sym, _, ar)| {
                a.relation(sym).iter().all(|t| {
                    let image: Vec<Val> = t.iter().map(|v| Val(assignment[v.index()])).collect();
                    debug_assert_eq!(image.len(), ar);
                    b.holds(sym, &image)
                })
            });
            if ok {
                return true;
            }
            // next assignment
            let mut i = 0;
            loop {
                if i == n {
                    return false;
                }
                assignment[i] += 1;
                if (assignment[i] as usize) < m {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }

    fn friends_db() -> Structure {
        // person 0 has friends 1 and 2; person 3 has only friend 0
        let mut b = StructureBuilder::new(4);
        b.relation("F", 2);
        b.fact("F", &[0, 1]).unwrap();
        b.fact("F", &[0, 2]).unwrap();
        b.fact("F", &[3, 0]).unwrap();
        b.build()
    }

    #[test]
    fn a_hat_size_bound_observation_27() {
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let a_hat = build_a_hat(&q);
        assert!(a_hat.size() <= 5 * q.size() * q.size());
        // P relations: one per variable; colour relations: two per disequality
        assert!(a_hat.signature().symbol("P0").is_some());
        assert!(a_hat.signature().symbol("P2").is_some());
        assert!(a_hat.signature().symbol("Rd0").is_some());
        assert!(a_hat.signature().symbol("Bd0").is_some());
    }

    #[test]
    fn enumeration_puts_free_variables_first() {
        let q = parse_query("ans(z) :- F(x, z), F(z, y)").unwrap();
        let order = variable_enumeration(&q);
        assert_eq!(order[0], q.variable("z").unwrap());
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn lemma_30_forward_direction() {
        // If the restricted answer hypergraph has an edge, some colouring
        // admits a homomorphism Â → B̂.
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let a_hat = build_a_hat(&q);

        // answers: x = 0 only (needs two distinct friends)
        let answers = enumerate_answers(&q, &db);
        assert_eq!(answers.len(), 1);

        // V_1 = {0}: contains the answer, so an edge exists.
        let parts = PartiteSets {
            sets: vec![[Val(0)].into_iter().collect()],
        };
        // Find some colouring admitting a homomorphism: colour 1 red, 2 blue.
        let col = ColouringFamily::from_fn(1, db.universe_size(), |_, u| u == 1);
        let (b_hat, _) = build_b_hat(&q, &b, &parts, &col);
        assert!(hom_exists(&a_hat, &b_hat));
    }

    #[test]
    fn lemma_30_reverse_direction() {
        // If the restricted hypergraph has no edge, *no* colouring admits a
        // homomorphism.
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let a_hat = build_a_hat(&q);

        // V_1 = {3}: person 3 has only one friend, so no answer in there.
        let parts = PartiteSets {
            sets: vec![[Val(3)].into_iter().collect()],
        };
        // exhaust all 2^4 colourings of the single disequality
        for mask in 0u32..16 {
            let col = ColouringFamily::from_fn(1, 4, |_, u| (mask >> u) & 1 == 1);
            let (b_hat, _) = build_b_hat(&q, &b, &parts, &col);
            assert!(
                !hom_exists(&a_hat, &b_hat),
                "unexpected homomorphism for colouring mask {mask}"
            );
        }
    }

    #[test]
    fn colouring_must_separate_disequal_values() {
        // With both friends coloured the same, the disequality relations make
        // the homomorphism impossible even though an answer exists.
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let a_hat = build_a_hat(&q);
        let parts = PartiteSets {
            sets: vec![[Val(0)].into_iter().collect()],
        };
        // all-red colouring: y and z would both need to be red and blue — impossible
        let col = ColouringFamily::from_fn(1, 4, |_, _| true);
        let (b_hat, _) = build_b_hat(&q, &b, &parts, &col);
        assert!(!hom_exists(&a_hat, &b_hat));
        // the relaxation makes every element blue as well, so it admits one
        let (relaxed, decode) = build_b_hat_relaxed(&q, &b, &parts, &col);
        let bd0 = relaxed.signature().symbol("Bd0").unwrap();
        assert_eq!(relaxed.relation(bd0).len(), decode.len());
        assert!(hom_exists(&a_hat, &relaxed));
    }

    #[test]
    fn empty_partite_set_blocks_homomorphism() {
        let q = parse_query("ans(x) :- F(x, y)").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let a_hat = build_a_hat(&q);
        let parts = PartiteSets {
            sets: vec![BTreeSet::new()],
        };
        let (b_hat, _) = build_b_hat(&q, &b, &parts, &ColouringFamily::empty());
        assert!(!hom_exists(&a_hat, &b_hat));
    }

    #[test]
    fn full_partite_sets_and_no_disequalities() {
        let q = parse_query("ans(x) :- F(x, y)").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let a_hat = build_a_hat(&q);
        let parts = PartiteSets::full(1, db.universe_size());
        let (b_hat, decode) = build_b_hat(&q, &b, &parts, &ColouringFamily::empty());
        assert!(hom_exists(&a_hat, &b_hat));
        // decode table covers position 0 (free, 4 values) and position 1 (existential, 4 values)
        assert_eq!(decode.len(), 8);
        assert!(decode.iter().any(|&(p, _)| p == 1));
    }

    #[test]
    fn negated_atoms_are_respected_in_b_hat() {
        let q = parse_query("ans(x, y) :- F(x, y), !F(y, x)").unwrap();
        let db = friends_db();
        let b = build_b_structure(&q, &db).unwrap();
        let a_hat = build_a_hat(&q);
        let parts = PartiteSets::full(2, db.universe_size());
        let (b_hat, _) = build_b_hat(&q, &b, &parts, &ColouringFamily::empty());
        // (0,1) is an answer because F(0,1) holds and F(1,0) does not
        assert!(hom_exists(&a_hat, &b_hat));
    }
}
