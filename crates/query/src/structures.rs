//! The associated structures `A(ϕ)` (Definition 18) and `B(ϕ, D)`
//! (Definition 20).
//!
//! These recast query answering as homomorphism finding: by Equation (2) of
//! the paper,
//!
//! ```text
//! Sol(ϕ, D) = { h ∈ Hom(A(ϕ) → B(ϕ, D)) : h satisfies all disequalities }
//! Ans(ϕ, D) = projections of Sol(ϕ, D) onto free(ϕ)
//! ```

use crate::ast::{Literal, Query};
use cqc_data::{Signature, Structure, StructureBuilder, SymbolId, Val};

/// The relation-symbol name used for the negated copy `R̄` of a relation `R`
/// in `sig(A(ϕ))` (Definition 18).
pub fn negated_symbol_name(relation: &str) -> String {
    format!("~{relation}")
}

/// Both associated structures of a query/database pair, sharing a signature.
#[derive(Debug, Clone)]
pub struct QueryStructures {
    /// The query structure `A(ϕ)` (universe = variables of `ϕ`).
    pub a: Structure,
    /// The database structure `B(ϕ, D)` (universe = `U(D)`, negated
    /// relations materialised as complements).
    pub b: Structure,
}

/// Build the shared signature `sig(A(ϕ))`: a symbol `R` for every relation
/// appearing in a positive atom and a symbol `~R` for every relation
/// appearing in a negated atom. Also returns the symbol of each literal, in
/// [`Query::literals`] order.
pub(crate) fn a_signature(q: &Query) -> (Signature, Vec<SymbolId>) {
    let mut sig = Signature::new();
    let symbols = q
        .literals()
        .iter()
        .map(|lit| {
            let atom = lit.atom();
            let name = match lit {
                Literal::Positive(_) => atom.relation.clone(),
                Literal::Negated(_) => negated_symbol_name(&atom.relation),
            };
            sig.declare(&name, atom.arity())
                .expect("query builder enforces consistent arities")
        })
        .collect();
    (sig, symbols)
}

/// Add the argument tuple of every literal of `q` to `b`: the relational
/// facts shared by `A(ϕ)` and `Â(ϕ)`, whose universe elements are the
/// variables (by [`crate::Var`] index).
pub(crate) fn add_atoms(q: &Query, symbols: &[SymbolId], b: &mut StructureBuilder) {
    for (lit, &sym) in q.literals().iter().zip(symbols) {
        let tuple: Vec<Val> = lit.atom().vars.iter().map(|v| Val(v.0)).collect();
        b.row(sym, &tuple).expect("arities match");
    }
}

/// Build `A(ϕ)` (Definition 18): the universe is `vars(ϕ)`, `R^{A(ϕ)}`
/// contains the argument tuples of the positive `R`-atoms and `~R^{A(ϕ)}`
/// those of the negated `R`-atoms.
pub fn build_a_structure(q: &Query) -> Structure {
    let (sig, symbols) = a_signature(q);
    let mut a = StructureBuilder::with_signature(sig, q.num_vars());
    add_atoms(q, &symbols, &mut a);
    let mut a = a.build();
    a.set_element_names(q.variable_names().to_vec());
    a
}

/// Build `B(ϕ, D)` (Definition 20) over the signature of `A(ϕ)`:
/// positive symbols copy the database relation, negated symbols are
/// materialised as complements `U(D)^{ar(R)} ∖ R^D`.
///
/// Returns an error if `sig(ϕ) ⊄ sig(D)` (a relation of the query is missing
/// from the database or has the wrong arity).
///
/// The size of the result is bounded as in Observation 21:
/// `‖B(ϕ,D)‖ ≤ ‖D‖ + ν + ν·a·|U(D)|^a` for `ν` negated predicates of arity
/// ≤ `a`, i.e. complement materialisation is the dominating cost.
pub fn build_b_structure(q: &Query, db: &Structure) -> Result<Structure, String> {
    if !q.compatible_with(db.signature()) {
        return Err(format!(
            "query relations {:?} are not contained in the database signature",
            q.signature()
                .iter()
                .map(|(_, n, a)| format!("{n}/{a}"))
                .collect::<Vec<_>>()
        ));
    }
    let (sig, _) = a_signature(q);
    let n = db.universe_size();
    let relations = sig
        .iter()
        .map(|(_, name, _)| {
            // a negated copy is the complement of the database relation
            let (base, negated) = match name.strip_prefix('~') {
                Some(base) => (base, true),
                None => (name, false),
            };
            let dbsym = db
                .signature()
                .symbol(base)
                .ok_or_else(|| format!("relation `{base}` missing from database"))?;
            let rel = db.relation(dbsym);
            Ok(if negated {
                rel.complement(n)
            } else {
                rel.clone()
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Structure::new(sig, n, relations).expect("database relations are in range"))
}

/// Build both structures at once.
pub fn query_structures(q: &Query, db: &Structure) -> Result<QueryStructures, String> {
    Ok(QueryStructures {
        a: build_a_structure(q),
        b: build_b_structure(q, db)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn triangle_db() -> Structure {
        // directed triangle 0→1→2→0 plus a self-loop-free F relation
        let mut b = StructureBuilder::new(3);
        b.relation("E", 2);
        b.relation("F", 2);
        b.fact("E", &[0, 1]).unwrap();
        b.fact("E", &[1, 2]).unwrap();
        b.fact("E", &[2, 0]).unwrap();
        b.fact("F", &[0, 1]).unwrap();
        b.build()
    }

    #[test]
    fn a_structure_of_friends_query() {
        let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
        let a = build_a_structure(&q);
        assert_eq!(a.universe_size(), 3);
        let f = a.signature().symbol("F").unwrap();
        assert_eq!(a.relation(f).len(), 2);
        // Observation 19: ‖A(ϕ)‖ ≤ 3‖ϕ‖
        assert!(a.size() <= 3 * q.size());
    }

    #[test]
    fn a_structure_with_negation_has_negated_symbol() {
        let q = parse_query("ans(x, y) :- E(x, y), !F(x, y)").unwrap();
        let a = build_a_structure(&q);
        assert!(a.signature().symbol("E").is_some());
        assert!(a.signature().symbol("~F").is_some());
        assert!(a.signature().symbol("F").is_none());
        let nf = a.signature().symbol("~F").unwrap();
        assert_eq!(a.relation(nf).len(), 1);
    }

    #[test]
    fn b_structure_copies_positive_relations() {
        let q = parse_query("ans(x) :- E(x, y)").unwrap();
        let db = triangle_db();
        let b = build_b_structure(&q, &db).unwrap();
        let e = b.signature().symbol("E").unwrap();
        assert_eq!(b.relation(e).len(), 3);
        assert_eq!(b.universe_size(), 3);
        // F is not used by the query, so it is absent from B(ϕ, D)
        assert!(b.signature().symbol("F").is_none());
    }

    #[test]
    fn b_structure_complements_negated_relations() {
        let q = parse_query("ans(x, y) :- E(x, y), !F(x, y)").unwrap();
        let db = triangle_db();
        let b = build_b_structure(&q, &db).unwrap();
        let nf = b.signature().symbol("~F").unwrap();
        // |U|^2 - |F| = 9 - 1 = 8
        assert_eq!(b.relation(nf).len(), 8);
        assert!(!b.holds(nf, &[Val(0), Val(1)]));
        assert!(b.holds(nf, &[Val(1), Val(0)]));
        // Observation 21-style size bound
        let nu = q.num_negated();
        let a_max = q.max_arity();
        assert!(b.size() <= 2 * q.size() * (db.size() + nu * db.universe_size().pow(a_max as u32)));
    }

    #[test]
    fn relation_used_both_positively_and_negatively() {
        let q = parse_query("ans(x, y) :- E(x, y), !E(y, x)").unwrap();
        let db = triangle_db();
        let a = build_a_structure(&q);
        assert!(a.signature().symbol("E").is_some());
        assert!(a.signature().symbol("~E").is_some());
        let b = build_b_structure(&q, &db).unwrap();
        let e = b.signature().symbol("E").unwrap();
        let ne = b.signature().symbol("~E").unwrap();
        assert_eq!(b.relation(e).len() + b.relation(ne).len(), 9);
    }

    #[test]
    fn shared_signature_allows_homomorphism_semantics() {
        let q = parse_query("ans(x) :- E(x, y)").unwrap();
        let db = triangle_db();
        let s = query_structures(&q, &db).unwrap();
        assert!(s.a.signature_contained_in(&s.b));
        assert_eq!(s.a.signature(), s.b.signature());
    }

    #[test]
    fn incompatible_database_is_rejected() {
        let q = parse_query("ans(x) :- Missing(x, y)").unwrap();
        let db = triangle_db();
        assert!(build_b_structure(&q, &db).is_err());
        // wrong arity
        let q = parse_query("ans(x) :- E(x, y, z)").unwrap();
        assert!(build_b_structure(&q, &db).is_err());
    }

    #[test]
    fn unary_negated_relation() {
        let mut builder = StructureBuilder::new(4);
        builder.relation("V", 1);
        builder.relation("E", 2);
        builder.fact("V", &[0]).unwrap();
        builder.fact("E", &[0, 1]).unwrap();
        let db = builder.build();
        let q = parse_query("ans(x) :- E(x, y), !V(y)").unwrap();
        let b = build_b_structure(&q, &db).unwrap();
        let nv = b.signature().symbol("~V").unwrap();
        assert_eq!(b.relation(nv).len(), 3);
    }
}
