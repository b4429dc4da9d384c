//! # cqc-dlm — approximate edge counting with an `EdgeFree` decision oracle
//!
//! This crate implements the framework of Dell, Lapinskas and Meeks
//! ("Approximately counting and sampling small witnesses using a colourful
//! decision oracle", SODA 2020) in the form used by the paper's Theorem 17:
//! an algorithm that, given an `ℓ`-partite `ℓ`-uniform hypergraph `H` about
//! which it can only ask *"does the induced sub-hypergraph
//! `H[V₁, …, V_ℓ]` contain a hyperedge?"*, computes an `(ε, δ)`-approximation
//! of `|E(H)|`.
//!
//! The concrete algorithm differs from the one in the DLM paper (see
//! `docs/ARCHITECTURE.md`, Substitutions) but lives in exactly the same
//! access model:
//!
//! * [`EdgeFreeOracle`] — the oracle interface (class-aligned ℓ-partite
//!   queries), plus [`PermutationOracle`] which lifts a class-aligned oracle
//!   to arbitrary ℓ-partite vertex subsets via the `ℓ!`-permutation argument
//!   of Lemma 22.
//! * [`exact_edge_count`] — exact counting by recursive halving, using
//!   `O(|E| · ℓ · log N)` oracle calls; used below a threshold and on its own
//!   for ground truth.
//! * [`approx_edge_count`] — the `(ε, δ)` approximation: exact counting below
//!   a threshold, otherwise vertex subsampling with a doubling search for the
//!   sampling rate and median-of-means amplification.
//! * [`sample_edge`] — an (approximately) uniform hyperedge sampler by
//!   self-reducible descent, the ingredient for the sampling extension of
//!   Section 6.
//! * [`ExplicitHypergraph`] — an explicit ℓ-partite hypergraph with a built-in
//!   oracle, used to test the framework independently of query answering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod exact;
pub mod explicit;
pub mod oracle;
pub mod sampler;

pub use approx::{approx_edge_count, ApproxCountResult, ApproxMethod, DlmConfig};
pub use exact::{exact_edge_count, exact_edge_count_with_budget};
pub use explicit::ExplicitHypergraph;
pub use oracle::{CountingOracle, EdgeFreeOracle, PermutationOracle};
pub use sampler::sample_edge;
