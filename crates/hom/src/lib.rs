//! # cqc-hom — homomorphism decision and counting engines
//!
//! The algorithms of the paper (Theorems 5 and 13) reduce approximate answer
//! counting to *decision* oracles for the homomorphism problem `Hom`:
//! given structures `A`, `B` with `sig(A) ⊆ sig(B)`, is there a homomorphism
//! `A → B`? This crate provides those oracles, built from one search and
//! one dynamic program:
//!
//! * one descent (`bag_solutions::descend`): a generic-join style search
//!   over a [`HomInstance`] in which every variable only tries the values
//!   all its constraints still support. It yields
//!   [`bag_solutions()`] / [`bag_partial_solutions`], the per-bag (partial)
//!   solution relations; the latter is the `Sol(ϕ, D, B_t)` computation of
//!   Lemma 48 (Grohe–Marx fractional-cover join) used by the Theorem 16
//!   pipeline. [`for_each_homomorphism`] runs it over all of `A` in a given
//!   order under given domains: [`BacktrackingDecider`] calls it in
//!   minimum-remaining-values order and stops at the first solution
//!   (complete for every instance, exponential in the worst case), and
//!   `cqc-query` calls it over the positive atoms of a query for exact
//!   solutions, answers and answer counts.
//! * one tree-decomposition DP (`count.rs`), generic over the row weight:
//!   [`count_homomorphisms`] counts homomorphisms exactly (Dalmau–Jonsson,
//!   a baseline), and [`DecompositionDecider`] decides `Hom` with it — the
//!   bounded-treewidth algorithm of Dalmau, Kolaitis and Vardi (Theorem 31
//!   in the paper), polynomial for every fixed treewidth.
//! * [`HybridDecider`] — the DP when `A` decomposes with width at most 4,
//!   backtracking otherwise (the practical stand-in for Marx's
//!   adaptive-width algorithm, Theorem 36; see `docs/ARCHITECTURE.md`,
//!   Substitutions).
//!
//! None of the engines has options.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backtracking;
pub mod bag_solutions;
pub mod count;
pub mod decomposition_dp;
pub mod instance;
pub mod oracle;

pub use backtracking::BacktrackingDecider;
pub use bag_solutions::{bag_partial_solutions, bag_solutions, for_each_homomorphism};
pub use count::count_homomorphisms;
pub use decomposition_dp::DecompositionDecider;
pub use instance::HomInstance;
pub use oracle::{HomDecider, HomStats, HybridDecider};
