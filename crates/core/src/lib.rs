//! # cqc-core — approximately counting answers to conjunctive queries with
//! disequalities and negations
//!
//! The public API of the reproduction of Focke, Goldberg, Roth and Živný,
//! *Approximately Counting Answers to Conjunctive Queries with Disequalities
//! and Negations* (PODS 2022).
//!
//! ## The engine API (plan once, count many)
//!
//! The primary entry point is [`Engine`]: configure accuracy, seed and
//! backend with [`EngineBuilder`], run the expensive query-side analysis
//! once with [`Engine::prepare`], then evaluate the resulting
//! [`PreparedQuery`] against any number of databases:
//!
//! * [`PreparedQuery::count`] — one database, returning the unified
//!   [`EstimateReport`] (estimate, method, guaranteed `(ε, δ)`, telemetry);
//! * [`PreparedQuery::count_batch`] — many databases, one plan;
//! * [`PreparedQuery::sample`] — approximately uniform answers (Section 6).
//!
//! Errors split into query-side [`PlanError`]s and data-side [`EvalError`]s
//! under the [`CoreError`] umbrella.
//!
//! ## The schemes behind the engine
//!
//! * [`Backend::Fptras`] — the FPTRAS of Theorems 5 and 13: the
//!   Dell–Lapinskas–Meeks edge counter driven by a colour-coding `EdgeFree`
//!   oracle simulated through `Hom` queries (Section 3, Lemmas 22 and 30).
//! * [`Backend::Fpras`] — the FPRAS of Theorem 16 for CQs of bounded
//!   fractional hypertreewidth: nice tree decomposition → per-bag solutions
//!   (Lemma 48) → tree automaton (Lemma 52) → #TA counting (Lemma 51).
//! * [`Backend::Auto`] — the Figure 1 dispatch between the two.
//! * [`Backend::Exact`], [`exact_count_answers`] and [`naive_monte_carlo`] —
//!   baselines.
//!
//! Beside the engine:
//!
//! * [`count_union`] — Karp–Luby counting for unions of queries (Section 6).
//! * [`count_locally_injective_homomorphisms`] — Corollary 6.
//! * [`hamiltonian_path_query`] — the Observation 10 construction.
//!
//! The per-scheme plan functions ([`plan_fpras_with`], [`plan_fptras`] and
//! their `*_with_plan` evaluators) stay public for layer-by-layer
//! benchmarking; [`Engine::prepare`] owns the pairing of plan and query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod baseline;
pub mod engine;
pub mod error;
pub mod fpras;
pub mod fptras;
pub mod hamiltonian;
pub mod lihom;
pub mod oracle;
pub mod report;
pub mod sampling;
pub mod unions;

pub use api::ApproxConfig;
pub use baseline::naive_monte_carlo;
pub use cqc_query::exact_count_answers;
pub use engine::{auto_method, Backend, Engine, EngineBuilder, PlanSummary, PreparedQuery};
pub use error::{CoreError, EvalError, PlanError};
pub use fpras::{fpras_count_with_plan, plan_fpras_with, FprasPlan};
pub use fptras::{
    fptras_count_with_plan, fptras_count_with_scratch, plan_fptras, EvalScratch, FptrasPlan,
};
pub use hamiltonian::{hamiltonian_path_query, undirected_graph_database};
pub use lihom::{count_locally_injective_homomorphisms, locally_injective_query};
pub use oracle::AnswerOracle;
pub use report::{CountMethod, EstimateReport, Telemetry};
pub use sampling::sample_answers_with_plan;
pub use unions::count_union;
