//! # cqc-query — conjunctive queries with disequalities and negations
//!
//! Implements the query language of the paper *Approximately Counting Answers
//! to Conjunctive Queries with Disequalities and Negations* (PODS 2022):
//!
//! * [`Query`] — extended conjunctive queries (ECQs, Section 1.1): positive
//!   atoms, negated atoms, disequalities; equalities are eliminated at build
//!   time by merging variables, exactly as the paper assumes.
//! * [`QueryClass`] — the CQ / DCQ / ECQ classification used by the
//!   dichotomies of Figure 1.
//! * [`parse_query`] — a small textual syntax
//!   (`ans(x, y) :- E(x, z), E(z, y), x != y, !F(x, y)`).
//! * [`query_hypergraph`] — the hypergraph `H(ϕ)` of Definition 3
//!   (no hyperedges for disequalities).
//! * [`build_a_structure`] / [`build_b_structure`] — the associated
//!   structures `A(ϕ)` (Definition 18) and `B(ϕ, D)` (Definition 20) that
//!   recast answers as homomorphisms (Equation (2)).
//! * [`build_a_hat`] / [`build_b_hat`] — the coloured structures `Â(ϕ)`
//!   (Definition 26) and `B̂(ϕ, D, V₁..V_ℓ, f)` (Definition 28) used by the
//!   colour-coding oracle simulation of Lemma 22 / Lemma 30.
//! * [`answers`] — exact solutions, answers and answer counts
//!   (Definitions 1, 2), enumerated as homomorphisms `A(ϕ) → B(ϕ, D)`
//!   (Equation (2)) by `cqc-hom`'s join; plus the definitional brute-force
//!   oracles (answer counts, partial solutions `Sol(ϕ, D, B)` of
//!   Definition 47) that tests check against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod ast;
pub mod builder;
pub mod colored;
pub mod hypergraph;
pub mod parser;
pub mod structures;

pub use answers::{
    count_answers_bruteforce, enumerate_answers, enumerate_solutions, exact_count_answers,
    is_answer, is_solution, partial_solutions,
};
pub use ast::{Atom, Literal, Query, QueryClass, QueryError, Var};
pub use builder::QueryBuilder;
pub use colored::{build_a_hat, build_b_hat, ColouringFamily, PartiteSets};
pub use hypergraph::query_hypergraph;
pub use parser::parse_query;
pub use structures::{build_a_structure, build_b_structure, negated_symbol_name, QueryStructures};
