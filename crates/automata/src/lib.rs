//! # cqc-automata — tree automata over binary trees and #TA counting
//!
//! Implements the machinery of Section 5.2.3 of the paper:
//!
//! * [`TreeAutomaton`] — nondeterministic tree automata `(S, Σ, Δ, s₀)` over
//!   `Trees₂[Σ]` (Definitions 49–50), with transitions to zero, one or two
//!   children.
//! * [`LabeledTree`] / [`TreeShape`] — labelled binary trees and bare shapes.
//! * Acceptance checking (bottom-up reachable-state computation).
//! * Exact `N`-slice counting: brute force over all shapes and labelings for
//!   tiny `N` (the specification of the #TA problem), and an exact
//!   fixed-shape counter via a dynamic program over reachable state sets
//!   (the Theorem 16 FPRAS runs it on small Lemma 52 automata, which force
//!   the tree shape).
//! * [`approx_count_fixed_shape_seeded`] — a sampling-based approximate
//!   counter in the style of Arenas–Croquevielle–Jayaram–Riveros (Lemma 51):
//!   bottom-up per-(node, state) estimates with Karp–Luby union estimation
//!   and self-reducible sampling. See `docs/ARCHITECTURE.md` (Substitutions)
//!   for how this relates to the original ACJR algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod automaton;
pub mod exact;
pub mod tree;

pub use approx::{approx_count_fixed_shape_seeded, TaApproxConfig};
pub use automaton::{TransitionTarget, TreeAutomaton};
pub use exact::{count_labelings_fixed_shape, count_slice_bruteforce};
pub use tree::{LabeledTree, TreeShape};
