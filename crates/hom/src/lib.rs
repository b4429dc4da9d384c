//! # cqc-hom — homomorphism decision and counting engines
//!
//! The algorithms of the paper (Theorems 5 and 13) reduce approximate answer
//! counting to *decision* oracles for the homomorphism problem `Hom`:
//! given structures `A`, `B` with `sig(A) ⊆ sig(B)`, is there a homomorphism
//! `A → B`? This crate provides those oracles:
//!
//! * [`BacktrackingDecider`] — a general-purpose backtracking solver with
//!   support-based pruning and minimum-remaining-values ordering; complete for
//!   every instance, exponential in the worst case.
//! * [`DecompositionDecider`] — the bounded-treewidth algorithm of
//!   Dalmau, Kolaitis and Vardi (Theorem 31 in the paper): dynamic programming
//!   over a tree decomposition of `A`, polynomial for every fixed treewidth.
//! * [`HybridDecider`] — picks the decomposition engine when a low-width
//!   decomposition of `A` is found and falls back to backtracking otherwise
//!   (the practical stand-in for Marx's adaptive-width algorithm, Theorem 36;
//!   see `docs/ARCHITECTURE.md`, Substitutions).
//! * [`count_homomorphisms`] — exact homomorphism counting by DP over a tree
//!   decomposition (Dalmau–Jonsson), used as a baseline.
//! * [`bag_solutions()`] / [`bag_partial_solutions`] — per-bag (partial)
//!   solution relations computed by a generic-join style algorithm; the
//!   latter implements the `Sol(ϕ, D, B_t)` computation of Lemma 48
//!   (Grohe–Marx fractional-cover join) used by the Theorem 16 pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backtracking;
pub mod bag_solutions;
pub mod count;
pub mod decomposition_dp;
pub mod instance;
pub mod oracle;

pub use backtracking::BacktrackingDecider;
pub use bag_solutions::{bag_partial_solutions, bag_solutions};
pub use count::count_homomorphisms;
pub use decomposition_dp::DecompositionDecider;
pub use instance::HomInstance;
pub use oracle::{HomDecider, HomStats, HybridDecider};
