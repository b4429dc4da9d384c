//! # cqc-hypergraph — hypergraphs, tree decompositions and width measures
//!
//! This crate provides the hypergraph machinery used throughout the paper
//! *Approximately Counting Answers to Conjunctive Queries with Disequalities
//! and Negations* (PODS 2022):
//!
//! * [`Hypergraph`] — finite hypergraphs `H = (V(H), E(H))` (Definition 3 uses
//!   these as the hypergraphs `H(ϕ)` of queries).
//! * [`TreeDecomposition`] — tree decompositions `(T, B)` (Definition 4),
//!   including validation and *nice* tree decompositions (Definition 42).
//! * Width measures:
//!   - treewidth `tw(H)` (Definition 4): [`Treewidth::of`] is the one rule
//!     every caller uses — the exact subset DP ([`treewidth_exact`]) up to
//!     13 vertices, the better of min-degree and min-fill
//!     ([`treewidth_upper_bound`]) above,
//!   - generic `f`-width (Definition 32), minimised over elimination orders
//!     by [`fwidth::minimise_f_width`] (every order up to 8 vertices,
//!     heuristic and random orders above),
//!   - fractional edge covers and `fcn(H[X])` (Definition 39) via an in-crate
//!     simplex LP solver,
//!   - fractional hypertreewidth `fhw(H)` (Definition 41),
//!   - hypertreewidth `hw(H)` (Definition 37, guard computation by exact
//!     small set cover + greedy),
//!   - adaptive width `aw(H)` (Definition 33): exact-for-small via LP-based
//!     alternating optimisation, plus the general bounds `aw ≤ fhw` and
//!     Observation 34 (`tw ≤ a·aw − 1`).
//!
//! Every decomposition the crate searches comes from an elimination order
//! run through one fill-in elimination pass over the primal graph
//! ([`EliminationOrder`]). Each vertex gets a bag of its own, so isolated
//! vertices (variables occurring only in disequalities) are always covered,
//! as the proofs of Theorem 5 and Lemma 35 require.
//!
//! No external hypergraph or LP crate is used; everything is implemented here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod decomposition;
pub mod fractional;
pub mod fwidth;
pub mod hypergraph;
pub mod hypertree;
pub mod lp;
pub mod treewidth;

pub use decomposition::{NiceTreeDecomposition, TreeDecomposition};
pub use fractional::{fractional_cover_number, fractional_edge_cover, FractionalCover};
pub use fwidth::{f_width_of_decomposition, WidthMeasure};
pub use hypergraph::Hypergraph;
pub use hypertree::hypertree_width_of_decomposition;
pub use lp::{LinearProgram, LpError, LpSolution};
pub use treewidth::{treewidth_exact, treewidth_upper_bound, EliminationOrder, Treewidth};
