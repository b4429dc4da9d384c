//! Signatures: finite sets of relation symbols with positive arities.

use crate::{DataError, Result};
use std::collections::HashMap;
use std::fmt;

/// An interned relation symbol.
///
/// Symbols are dense indices into a [`Signature`]; two structures share
/// symbol identities only if they were built against the same signature (or a
/// signature extension, see [`Signature::extend_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A signature `σ`: a finite set of relation symbols with specified positive
/// arities (paper, Section 1.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signature {
    names: Vec<String>,
    arities: Vec<usize>,
    by_name: HashMap<String, SymbolId>,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a relation symbol with the given arity, returning its id.
    ///
    /// Declaring the same name twice with the same arity is idempotent;
    /// declaring it with a different arity is an error. Arity 0 is rejected,
    /// matching the paper's requirement of *positive* arities.
    pub fn declare(&mut self, name: &str, arity: usize) -> Result<SymbolId> {
        if arity == 0 {
            return Err(DataError::ZeroArity(name.to_string()));
        }
        if let Some(&id) = self.by_name.get(name) {
            let existing = self.arities[id.index()];
            if existing != arity {
                return Err(DataError::ConflictingArity {
                    symbol: name.to_string(),
                    first: existing,
                    second: arity,
                });
            }
            return Ok(id);
        }
        let id = SymbolId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.arities.push(arity);
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Look up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// Look up a symbol by name, or return an error.
    pub fn require(&self, name: &str) -> Result<SymbolId> {
        self.symbol(name)
            .ok_or_else(|| DataError::UnknownSymbol(name.to_string()))
    }

    /// The arity `ar(R)` of a symbol.
    #[inline]
    pub fn arity(&self, id: SymbolId) -> usize {
        self.arities[id.index()]
    }

    /// The name of a symbol.
    #[inline]
    pub fn name(&self, id: SymbolId) -> &str {
        &self.names[id.index()]
    }

    /// The number of declared symbols, `|σ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the signature is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The maximum arity `ar(σ)` over all symbols; 0 for an empty signature.
    pub fn max_arity(&self) -> usize {
        self.arities.iter().copied().max().unwrap_or(0)
    }

    /// Iterate over `(SymbolId, name, arity)` triples in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, &str, usize)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (SymbolId(i as u32), n.as_str(), self.arities[i]))
    }

    /// Returns `true` if every symbol of `self` appears in `other` with the
    /// same name and arity. Symbol *ids* must also agree, which holds when
    /// `other` was produced from `self` by [`Signature::extend_with`] or by
    /// further `declare` calls on a clone.
    pub fn is_subsignature_of(&self, other: &Signature) -> bool {
        if self.len() > other.len() {
            return false;
        }
        self.iter().all(|(id, name, ar)| {
            other.names.get(id.index()).map(String::as_str) == Some(name)
                && other.arities.get(id.index()).copied() == Some(ar)
        })
    }

    /// Produce a new signature containing every symbol of `self` followed by
    /// the declarations of `extra` (name, arity). Useful for constructing the
    /// signatures of `A(ϕ)` / `B(ϕ, D)` which extend `sig(ϕ)` with negated
    /// copies `R̄` and unary marker relations.
    pub fn extend_with(&self, extra: &[(&str, usize)]) -> Result<Signature> {
        let mut s = self.clone();
        for (name, ar) in extra {
            s.declare(name, *ar)?;
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut sig = Signature::new();
        let e = sig.declare("E", 2).unwrap();
        let r = sig.declare("R", 3).unwrap();
        assert_ne!(e, r);
        assert_eq!(sig.symbol("E"), Some(e));
        assert_eq!(sig.arity(e), 2);
        assert_eq!(sig.arity(r), 3);
        assert_eq!(sig.name(r), "R");
        assert_eq!(sig.len(), 2);
        assert_eq!(sig.max_arity(), 3);
        assert!(!sig.is_empty());
    }

    #[test]
    fn redeclare_same_arity_is_idempotent() {
        let mut sig = Signature::new();
        let a = sig.declare("E", 2).unwrap();
        let b = sig.declare("E", 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(sig.len(), 1);
    }

    #[test]
    fn conflicting_arity_is_rejected() {
        let mut sig = Signature::new();
        sig.declare("E", 2).unwrap();
        let err = sig.declare("E", 3).unwrap_err();
        assert!(matches!(err, DataError::ConflictingArity { .. }));
    }

    #[test]
    fn zero_arity_is_rejected() {
        let mut sig = Signature::new();
        assert!(matches!(
            sig.declare("Z", 0).unwrap_err(),
            DataError::ZeroArity(_)
        ));
    }

    #[test]
    fn require_unknown_symbol() {
        let sig = Signature::new();
        assert!(matches!(
            sig.require("E").unwrap_err(),
            DataError::UnknownSymbol(_)
        ));
    }

    #[test]
    fn subsignature_and_extension() {
        let mut sig = Signature::new();
        sig.declare("E", 2).unwrap();
        let ext = sig.extend_with(&[("E_neg", 2), ("P0", 1)]).unwrap();
        assert!(sig.is_subsignature_of(&ext));
        assert!(!ext.is_subsignature_of(&sig));
        assert_eq!(ext.len(), 3);
        // ids of shared symbols agree
        assert_eq!(sig.symbol("E"), ext.symbol("E"));
    }

    #[test]
    fn iteration_order_is_declaration_order() {
        let mut sig = Signature::new();
        sig.declare("A", 1).unwrap();
        sig.declare("B", 2).unwrap();
        let names: Vec<&str> = sig.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn empty_signature_max_arity_is_zero() {
        let sig = Signature::new();
        assert_eq!(sig.max_arity(), 0);
        assert!(sig.is_empty());
        assert!(sig.is_subsignature_of(&Signature::new()));
    }
}
