//! # cqc-data — relational database / structure substrate
//!
//! This crate implements the relational substrate that the paper
//! *Approximately Counting Answers to Conjunctive Queries with Disequalities
//! and Negations* (PODS 2022) assumes: finite signatures, relational
//! structures (databases), facts, and the size measure `‖D‖` used throughout
//! the paper (Section 1.1 and Section 2.2).
//!
//! The central types are:
//!
//! * [`Signature`] — a finite set of relation symbols with specified positive
//!   arities (interned via [`SymbolId`]).
//! * [`Relation`] — an immutable finite set of rows over the universe,
//!   built once: row-major values sorted lexicographically and
//!   deduplicated, plus an eager per-column row-id index, so membership and
//!   the per-position selections of joins and homomorphism search
//!   ([`Relation::matching`]) are binary searches.
//! * [`Structure`] — a finite universe together with one relation per symbol.
//!   The paper's *database* `D` and the structures `A(ϕ)`, `B(ϕ, D)`,
//!   `Â(ϕ)`, `B̂(ϕ, D, V₁..V_ℓ, f)` of Sections 2 and 3 are all values of
//!   this type.
//! * [`StructureBuilder`] — the validated way to assemble a structure fact
//!   by fact; [`Structure::new`] assembles one from finished relations.
//!
//! Structures are never modified after they are built: every relation is
//! sorted and indexed exactly once, by [`Relation::new`].
//!
//! Universe elements are dense `u32` identifiers ([`Val`]); a fact is a
//! `&[Val]` row. Optional human-readable element names can be attached for
//! debugging and examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod io;
pub mod relation;
pub mod signature;
pub mod structure;
pub mod val;

pub use error::DataError;
pub use io::{parse_facts, write_facts, FactsError};
pub use relation::Relation;
pub use signature::{Signature, SymbolId};
pub use structure::{Database, Structure, StructureBuilder};
pub use val::Val;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
