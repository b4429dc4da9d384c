//! Relational structures (databases).

use crate::{DataError, Relation, Result, Signature, SymbolId, Tuple, Val};
use std::collections::BTreeMap;
use std::fmt;

/// A relational structure `A` (equivalently, a database `D`):
/// a finite universe `U(A)` together with, for each relation symbol
/// `R ∈ sig(A)`, a relation `R^A ⊆ U(A)^{ar(R)}` (paper, Sections 1.1 / 2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Structure {
    signature: Signature,
    universe_size: usize,
    relations: Vec<Relation>,
    /// Optional element names, for display only.
    element_names: Option<Vec<String>>,
}

/// The documented public name for a database `D`.
///
/// Databases *are* relational structures — the paper uses the two terms
/// interchangeably (Section 1.1) — so this is an alias of [`Structure`].
/// Application code and the facade prelude use `Database` for data-side
/// values (what you evaluate a prepared query against) and `Structure` for
/// query-side associated structures such as `A(ϕ)` and `B(ϕ, D)`.
pub type Database = Structure;

impl Structure {
    /// Create a structure with the given signature and universe size, with
    /// every relation empty.
    pub fn empty(signature: Signature, universe_size: usize) -> Self {
        let relations = signature
            .iter()
            .map(|(_, _, ar)| Relation::new(ar))
            .collect();
        Structure {
            signature,
            universe_size,
            relations,
            element_names: None,
        }
    }

    /// The signature `sig(A)`.
    #[inline]
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The size of the universe `|U(A)|`.
    #[inline]
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Iterate over the universe elements `U(A)`.
    pub fn universe(&self) -> impl Iterator<Item = Val> + '_ {
        (0..self.universe_size as u32).map(Val)
    }

    /// The relation `R^A` of a symbol.
    #[inline]
    pub fn relation(&self, sym: SymbolId) -> &Relation {
        &self.relations[sym.index()]
    }

    /// Mutable access to `R^A`.
    #[inline]
    pub fn relation_mut(&mut self, sym: SymbolId) -> &mut Relation {
        &mut self.relations[sym.index()]
    }

    /// Attach human-readable element names (display only).
    pub fn set_element_names(&mut self, names: Vec<String>) {
        assert_eq!(names.len(), self.universe_size);
        self.element_names = Some(names);
    }

    /// The display name of an element (its numeric id if no names were set).
    pub fn element_name(&self, v: Val) -> String {
        match &self.element_names {
            Some(names) => names[v.index()].clone(),
            None => v.to_string(),
        }
    }

    /// Insert a fact, validating arity and range.
    pub fn insert_fact(&mut self, sym: SymbolId, values: &[Val]) -> Result<bool> {
        let ar = self.signature.arity(sym);
        if values.len() != ar {
            return Err(DataError::ArityMismatch {
                symbol: self.signature.name(sym).to_string(),
                expected: ar,
                got: values.len(),
            });
        }
        for v in values {
            if v.index() >= self.universe_size {
                return Err(DataError::ValueOutOfRange {
                    value: v.0,
                    universe: self.universe_size,
                });
            }
        }
        Ok(self.relations[sym.index()].insert(Tuple::new(values)))
    }

    /// Insert a fact given raw `u32` values.
    pub fn insert_fact_raw(&mut self, sym: SymbolId, values: &[u32]) -> Result<bool> {
        let vals: Vec<Val> = values.iter().map(|&v| Val(v)).collect();
        self.insert_fact(sym, &vals)
    }

    /// Test whether a fact holds.
    pub fn holds(&self, sym: SymbolId, values: &[Val]) -> bool {
        self.relations[sym.index()].contains_values(values)
    }

    /// The number of facts over all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// The size `‖A‖ = |sig(A)| + |U(A)| + Σ_R |R^A| · ar(R)` of the
    /// structure (paper, Sections 1.1 and 2.2).
    pub fn size(&self) -> usize {
        self.signature.len()
            + self.universe_size
            + self
                .relations
                .iter()
                .map(Relation::encoding_size)
                .sum::<usize>()
    }

    /// Extend this structure's signature with additional (empty) relations,
    /// returning the new symbol ids in order. Existing symbol ids remain
    /// valid.
    pub fn extend_signature(&mut self, extra: &[(&str, usize)]) -> Result<Vec<SymbolId>> {
        let mut ids = Vec::with_capacity(extra.len());
        for (name, ar) in extra {
            let before = self.signature.len();
            let id = self.signature.declare(name, *ar)?;
            if id.index() == before {
                // freshly declared: add an empty relation for it
                self.relations.push(Relation::new(*ar));
            }
            ids.push(id);
        }
        Ok(ids)
    }

    /// Add, for every universe element `v`, a fresh singleton unary relation
    /// `Const_v = {v}` and return the mapping `v → SymbolId`.
    ///
    /// The paper (Section 1.1) notes that singleton unary relations implement
    /// *constants* in queries; this is the device used by the self-reducible
    /// answer sampler of Section 6.
    /// The mapping is a sorted `BTreeMap` so that callers may iterate it
    /// without tying the iteration order (and hence anything downstream,
    /// such as sampler branching) to hash state (cqc-audit `hash-iter`).
    pub fn add_constant_relations(&mut self) -> Result<BTreeMap<Val, SymbolId>> {
        let mut map = BTreeMap::new();
        for v in 0..self.universe_size as u32 {
            let name = format!("@const_{v}");
            let ids = self.extend_signature(&[(&name, 1)])?;
            let id = ids[0];
            self.insert_fact(id, &[Val(v)])?;
            map.insert(Val(v), id);
        }
        Ok(map)
    }

    /// Whether `sig(self) ⊆ sig(other)` in the sense required for
    /// homomorphisms (same ids, names and arities for shared symbols).
    pub fn signature_contained_in(&self, other: &Structure) -> bool {
        self.signature.is_subsignature_of(&other.signature)
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "structure: |U| = {}, {} relation(s), ‖·‖ = {}",
            self.universe_size,
            self.signature.len(),
            self.size()
        )?;
        for (id, name, ar) in self.signature.iter() {
            writeln!(
                f,
                "  {name}/{ar}: {} fact(s)",
                self.relations[id.index()].len()
            )?;
        }
        Ok(())
    }
}

/// A convenient, validated builder for structures.
///
/// ```
/// use cqc_data::StructureBuilder;
/// let mut b = StructureBuilder::new(4);
/// b.relation("E", 2);
/// b.fact("E", &[0, 1]).unwrap();
/// b.fact("E", &[1, 2]).unwrap();
/// let db = b.build();
/// assert_eq!(db.universe_size(), 4);
/// assert_eq!(db.fact_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StructureBuilder {
    signature: Signature,
    universe_size: usize,
    pending: Vec<(SymbolId, Vec<Val>)>,
    element_names: Option<Vec<String>>,
}

impl StructureBuilder {
    /// Start building a structure over a universe of the given size.
    pub fn new(universe_size: usize) -> Self {
        StructureBuilder {
            signature: Signature::new(),
            universe_size,
            pending: Vec::new(),
            element_names: None,
        }
    }

    /// Declare a relation symbol (idempotent), returning its id.
    pub fn relation(&mut self, name: &str, arity: usize) -> SymbolId {
        self.signature
            .declare(name, arity)
            .expect("conflicting relation declaration")
    }

    /// Add a fact for a (previously declared or auto-declared) relation.
    ///
    /// If the relation name is unknown it is declared with the arity of the
    /// provided tuple.
    pub fn fact(&mut self, name: &str, values: &[u32]) -> Result<&mut Self> {
        let sym = match self.signature.symbol(name) {
            Some(s) => s,
            None => self.signature.declare(name, values.len())?,
        };
        let ar = self.signature.arity(sym);
        if ar != values.len() {
            return Err(DataError::ArityMismatch {
                symbol: name.to_string(),
                expected: ar,
                got: values.len(),
            });
        }
        for &v in values {
            if (v as usize) >= self.universe_size {
                return Err(DataError::ValueOutOfRange {
                    value: v,
                    universe: self.universe_size,
                });
            }
        }
        self.pending
            .push((sym, values.iter().map(|&v| Val(v)).collect()));
        Ok(self)
    }

    /// Attach element names (display only).
    pub fn element_names(&mut self, names: &[&str]) -> &mut Self {
        assert_eq!(names.len(), self.universe_size);
        self.element_names = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Finish building.
    pub fn build(self) -> Structure {
        let mut s = Structure::empty(self.signature, self.universe_size);
        for (sym, vals) in self.pending {
            s.insert_fact(sym, &vals).expect("validated at insertion");
        }
        if let Some(names) = self.element_names {
            s.set_element_names(names);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_db(n: usize, edges: &[(u32, u32)]) -> Structure {
        let mut b = StructureBuilder::new(n);
        b.relation("E", 2);
        for &(u, v) in edges {
            b.fact("E", &[u, v]).unwrap();
        }
        b.build()
    }

    #[test]
    fn build_and_query() {
        let db = graph_db(3, &[(0, 1), (1, 2)]);
        let e = db.signature().symbol("E").unwrap();
        assert!(db.holds(e, &[Val(0), Val(1)]));
        assert!(!db.holds(e, &[Val(1), Val(0)]));
        assert_eq!(db.fact_count(), 2);
        assert_eq!(db.universe().count(), 3);
    }

    #[test]
    fn size_formula() {
        // ‖D‖ = |sig| + |U| + Σ |R|·ar(R) = 1 + 3 + 2·2 = 8
        let db = graph_db(3, &[(0, 1), (1, 2)]);
        assert_eq!(db.size(), 8);
    }

    #[test]
    fn insert_fact_validation() {
        let mut db = graph_db(3, &[]);
        let e = db.signature().symbol("E").unwrap();
        assert!(matches!(
            db.insert_fact(e, &[Val(0)]).unwrap_err(),
            DataError::ArityMismatch { .. }
        ));
        assert!(matches!(
            db.insert_fact(e, &[Val(0), Val(7)]).unwrap_err(),
            DataError::ValueOutOfRange { .. }
        ));
        assert!(db.insert_fact(e, &[Val(0), Val(2)]).unwrap());
        assert!(!db.insert_fact(e, &[Val(0), Val(2)]).unwrap());
    }

    #[test]
    fn builder_rejects_bad_facts() {
        let mut b = StructureBuilder::new(2);
        b.relation("E", 2);
        assert!(b.fact("E", &[0, 5]).is_err());
        assert!(b.fact("E", &[0]).is_err());
        assert!(b.fact("E", &[0, 1]).is_ok());
    }

    #[test]
    fn builder_autodeclares_relations() {
        let mut b = StructureBuilder::new(2);
        b.fact("R", &[0, 1, 1]).unwrap();
        let db = b.build();
        let r = db.signature().symbol("R").unwrap();
        assert_eq!(db.signature().arity(r), 3);
        assert_eq!(db.relation(r).len(), 1);
    }

    #[test]
    fn extend_signature_keeps_existing_ids() {
        let mut db = graph_db(3, &[(0, 1)]);
        let e = db.signature().symbol("E").unwrap();
        let ids = db.extend_signature(&[("E_neg", 2), ("P", 1)]).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(db.signature().symbol("E"), Some(e));
        assert!(db.relation(ids[0]).is_empty());
        // extending with an existing symbol is idempotent
        let again = db.extend_signature(&[("P", 1)]).unwrap();
        assert_eq!(again[0], ids[1]);
    }

    #[test]
    fn constant_relations() {
        let mut db = graph_db(3, &[(0, 1)]);
        let consts = db.add_constant_relations().unwrap();
        assert_eq!(consts.len(), 3);
        for (v, sym) in &consts {
            assert_eq!(db.relation(*sym).len(), 1);
            assert!(db.holds(*sym, &[*v]));
        }
    }

    #[test]
    fn constant_relations_iterate_in_value_order() {
        // Regression for the cqc-audit `hash-iter` conversion: the map is
        // sorted, so callers (the sampler's constant machinery) may iterate
        // it without picking up hash state.
        let mut db = graph_db(5, &[(0, 1)]);
        let consts = db.add_constant_relations().unwrap();
        let keys: Vec<Val> = consts.keys().copied().collect();
        assert_eq!(keys, (0..5).map(Val).collect::<Vec<_>>());
        // ids were assigned in the same ascending pass
        let ids: Vec<_> = consts.values().map(|s| s.index()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn element_names_display() {
        let mut b = StructureBuilder::new(2);
        b.relation("E", 2);
        b.element_names(&["alice", "bob"]);
        let db = b.build();
        assert_eq!(db.element_name(Val(0)), "alice");
        assert_eq!(db.element_name(Val(1)), "bob");
        let plain = graph_db(1, &[]);
        assert_eq!(plain.element_name(Val(0)), "0");
    }

    #[test]
    fn signature_containment_between_structures() {
        let db = graph_db(3, &[(0, 1)]);
        let mut bigger = graph_db(5, &[(0, 1)]);
        bigger.extend_signature(&[("F", 2)]).unwrap();
        assert!(db.signature_contained_in(&bigger));
        assert!(!bigger.signature_contained_in(&db));
    }

    #[test]
    fn display_contains_relation_names() {
        let db = graph_db(3, &[(0, 1)]);
        let s = format!("{db}");
        assert!(s.contains("E/2"));
        assert!(s.contains("1 fact"));
    }
}
