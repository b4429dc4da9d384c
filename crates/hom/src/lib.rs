//! # cqc-hom — homomorphism search and the `Hom` decision oracle
//!
//! The algorithms of the paper (Theorems 5 and 13) reduce approximate answer
//! counting to *decision* oracles for the homomorphism problem `Hom`:
//! given structures `A`, `B` with `sig(A) ⊆ sig(B)`, is there a homomorphism
//! `A → B`? This crate provides that oracle and the per-bag solution
//! relations of the Theorem 16 pipeline, all built on one search:
//!
//! * one descent (`bag_solutions::descend`): a generic-join style search
//!   over a [`HomInstance`] in which every variable only tries the values
//!   all its constraints still support. It yields
//!   [`bag_partial_solutions`], the `Sol(ϕ, D, B_t)` computation of
//!   Lemma 48 (Grohe–Marx fractional-cover join), and
//!   [`for_each_homomorphism`], which runs it over all of `A` in a given
//!   order under given domains; `cqc-query` calls the latter over the
//!   positive atoms of a query for exact solutions, answers and answer
//!   counts.
//! * [`HybridDecider`], the one `Hom` decision: the descent run top-down
//!   over a tree decomposition of `A`, memoising each (node, separator
//!   assignment). It keeps the `|U(B)|^{w+1}` bound of the bounded-treewidth
//!   algorithm of Dalmau, Kolaitis and Vardi (Theorem 31 in the paper) for a
//!   decomposition of width `w`, and stops at the first homomorphism like
//!   backtracking does; see `docs/ARCHITECTURE.md`, Substitutions.
//!
//! Neither has options.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag_solutions;
pub mod instance;
pub mod oracle;

pub use bag_solutions::{bag_partial_solutions, for_each_homomorphism};
pub use instance::HomInstance;
pub use oracle::{HomDecider, HomStats, HybridDecider};
