//! Relational structures (databases).

use crate::{DataError, Relation, Result, Signature, SymbolId, Val};
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
    /// Assemble a structure from one relation per symbol of `signature`, in
    /// symbol order, checking each relation's arity and that every value
    /// lies in the universe `{0, .., universe_size-1}`.
    ///
    /// # Panics
    /// Panics if the number of relations differs from `|signature|`.
    pub fn new(
        signature: Signature,
        universe_size: usize,
        relations: Vec<Relation>,
    ) -> Result<Self> {
        assert_eq!(relations.len(), signature.len(), "one relation per symbol");
        for ((_, name, ar), rel) in signature.iter().zip(&relations) {
            if rel.arity() != ar {
                return Err(DataError::ArityMismatch {
                    symbol: name.to_string(),
                    expected: ar,
                    got: rel.arity(),
                });
            }
            if let Some(v) = rel.iter().flatten().find(|v| v.index() >= universe_size) {
                return Err(DataError::ValueOutOfRange {
                    value: v.0,
                    universe: universe_size,
                });
            }
        }
        Ok(Structure {
            signature,
            universe_size,
            relations,
            element_names: None,
        })
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

    /// Test whether a fact holds.
    pub fn holds(&self, sym: SymbolId, values: &[Val]) -> bool {
        self.relations[sym.index()].contains(values)
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

/// The validated way to assemble a structure fact by fact.
///
/// Facts are checked (arity and range) as they are added and buffered per
/// relation; [`StructureBuilder::build`] then builds each [`Relation`] once.
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
    /// Row-major values per symbol, in symbol order.
    rows: Vec<Vec<Val>>,
    element_names: Option<Vec<String>>,
}

impl StructureBuilder {
    /// Start building a structure over a universe of the given size.
    pub fn new(universe_size: usize) -> Self {
        Self::with_signature(Signature::new(), universe_size)
    }

    /// Start building a structure over a universe of the given size with
    /// every symbol of `signature` already declared.
    pub fn with_signature(signature: Signature, universe_size: usize) -> Self {
        StructureBuilder {
            rows: vec![Vec::new(); signature.len()],
            signature,
            universe_size,
            element_names: None,
        }
    }

    /// Declare a relation symbol (idempotent), returning its id.
    pub fn relation(&mut self, name: &str, arity: usize) -> SymbolId {
        self.declare(name, arity)
            .expect("conflicting relation declaration")
    }

    /// Add a fact for a (previously declared or auto-declared) relation.
    ///
    /// If the relation name is unknown it is declared with the arity of the
    /// provided tuple.
    pub fn fact(&mut self, name: &str, values: &[u32]) -> Result<&mut Self> {
        let sym = match self.signature.symbol(name) {
            Some(s) => s,
            None => self.declare(name, values.len())?,
        };
        self.push(sym, values.iter().map(|&v| Val(v)))
    }

    /// Add a fact for a declared symbol, validating arity and range.
    pub fn row(&mut self, sym: SymbolId, values: &[Val]) -> Result<&mut Self> {
        self.push(sym, values.iter().copied())
    }

    /// Attach element names (display only).
    pub fn element_names(&mut self, names: &[&str]) -> &mut Self {
        assert_eq!(names.len(), self.universe_size);
        self.element_names = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Finish building: each relation is sorted and indexed once.
    pub fn build(self) -> Structure {
        let relations = self
            .signature
            .iter()
            .zip(self.rows)
            .map(|((_, _, ar), rows)| Relation::new(ar, rows))
            .collect();
        Structure {
            signature: self.signature,
            universe_size: self.universe_size,
            relations,
            element_names: self.element_names,
        }
    }

    fn declare(&mut self, name: &str, arity: usize) -> Result<SymbolId> {
        let sym = self.signature.declare(name, arity)?;
        if sym.index() == self.rows.len() {
            self.rows.push(Vec::new());
        }
        Ok(sym)
    }

    fn push(
        &mut self,
        sym: SymbolId,
        values: impl ExactSizeIterator<Item = Val> + Clone,
    ) -> Result<&mut Self> {
        let ar = self.signature.arity(sym);
        if values.len() != ar {
            return Err(DataError::ArityMismatch {
                symbol: self.signature.name(sym).to_string(),
                expected: ar,
                got: values.len(),
            });
        }
        if let Some(v) = values.clone().find(|v| v.index() >= self.universe_size) {
            return Err(DataError::ValueOutOfRange {
                value: v.0,
                universe: self.universe_size,
            });
        }
        self.rows[sym.index()].extend(values);
        Ok(self)
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
    fn new_validates_arity_and_range() {
        let mut sig = Signature::new();
        sig.declare("E", 2).unwrap();
        let edge = |u: u32, v: u32| Relation::new(2, vec![Val(u), Val(v)]);
        assert!(matches!(
            Structure::new(sig.clone(), 3, vec![Relation::new(1, vec![Val(0)])]).unwrap_err(),
            DataError::ArityMismatch { .. }
        ));
        assert!(matches!(
            Structure::new(sig.clone(), 3, vec![edge(0, 7)]).unwrap_err(),
            DataError::ValueOutOfRange { value: 7, .. }
        ));
        let db = Structure::new(sig, 3, vec![edge(0, 2)]).unwrap();
        assert_eq!(db, graph_db(3, &[(0, 2)]));
    }

    #[test]
    fn builder_rows_by_symbol_id() {
        let mut b = StructureBuilder::new(3);
        let e = b.relation("E", 2);
        assert!(matches!(
            b.row(e, &[Val(0)]).unwrap_err(),
            DataError::ArityMismatch { .. }
        ));
        assert!(matches!(
            b.row(e, &[Val(0), Val(7)]).unwrap_err(),
            DataError::ValueOutOfRange { .. }
        ));
        b.row(e, &[Val(1), Val(2)]).unwrap();
        b.row(e, &[Val(0), Val(2)]).unwrap();
        b.row(e, &[Val(1), Val(2)]).unwrap();
        let db = b.build();
        let rows: Vec<&[Val]> = db.relation(e).iter().collect();
        assert_eq!(rows, [[Val(0), Val(2)], [Val(1), Val(2)]]);
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
        let mut b = StructureBuilder::new(5);
        b.relation("E", 2);
        b.relation("F", 2);
        let bigger = b.build();
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
