//! # cqcount — approximately counting answers to conjunctive queries with
//! disequalities and negations
//!
//! A from-scratch Rust implementation of the PODS 2022 paper by Focke,
//! Goldberg, Roth and Živný, including every substrate it builds on. This
//! facade crate re-exports the workspace crates under stable names:
//!
//! * [`data`] — relational databases ([`prelude::Database`], the documented
//!   alias of `Structure`; the paper uses the two terms interchangeably),
//! * [`hypergraph`] — hypergraphs, tree decompositions, width measures,
//! * [`query`] — CQ / DCQ / ECQ queries, parsing, associated structures,
//! * [`hom`] — homomorphism decision and counting engines,
//! * [`dlm`] — oracle-based approximate edge counting
//!   (Dell–Lapinskas–Meeks framework),
//! * [`automata`] — tree automata and #TA counting,
//! * [`core`] — the paper's algorithms behind the [`prelude::Engine`] /
//!   [`prelude::PreparedQuery`] API (FPTRAS, FPRAS, sampling, unions,
//!   locally injective homomorphisms, the Observation 10 construction),
//! * [`runtime`] — the deterministic parallel runtime (std-only persistent
//!   worker pool, seed-splitting; estimates are bit-identical for any
//!   thread count and pool width),
//! * [`serve`] — the sharded serving front end (JSON request loop; sharded
//!   responses are byte-identical to single-node runs),
//! * [`workloads`] — generators used by the examples and benchmarks.
//!
//! ## Quick start: plan once, count many
//!
//! Query-side analysis (class dispatch, decomposition search, oracle
//! construction) is expensive; data-side evaluation is the hot path. The
//! [`prelude::Engine`] separates the two — prepare a query once, then
//! evaluate it against any number of databases:
//!
//! ```
//! use cqcount::prelude::*;
//!
//! // A small social network: F(a, b) means "a counts b as a friend".
//! fn network(edges: &[(u32, u32)]) -> Database {
//!     let mut b = StructureBuilder::new(6);
//!     b.relation("F", 2);
//!     for &(u, v) in edges {
//!         b.fact("F", &[u, v]).unwrap();
//!     }
//!     b.build()
//! }
//! let monday = network(&[(0, 1), (0, 2), (1, 3), (3, 0), (3, 4)]);
//! let tuesday = network(&[(0, 1), (0, 2), (1, 3), (3, 0), (3, 4), (4, 5), (4, 0)]);
//!
//! // The paper's query (1): people with at least two *distinct* friends.
//! let q = parse_query("ans(x) :- F(x, y), F(x, z), y != z").unwrap();
//!
//! // Plan once...
//! let engine = Engine::builder().accuracy(0.25, 0.05).seed(42).build().unwrap();
//! let prepared = engine.prepare(&q).unwrap();
//!
//! // ...then count against each day's snapshot with the same plan.
//! let reports = prepared.count_batch(&[monday, tuesday]).unwrap();
//! assert_eq!(reports[0].estimate, 2.0); // persons 0 and 3
//! assert_eq!(reports[1].estimate, 3.0); // person 4 now qualifies too
//!
//! // Every report says what it guarantees and what it cost.
//! assert!(reports[0].method == CountMethod::Fptras);
//! assert!(reports[0].telemetry.oracle_calls > 0);
//! ```
//!
//! Counting and sampling always go through a prepared query; a one-off
//! count is `engine.prepare(&q)?.count(&db)?`. Pick the scheme with
//! [`prelude::Backend`] (the default, `Auto`, is the Figure 1 dispatch).

#![forbid(unsafe_code)]

pub use cqc_automata as automata;
pub use cqc_core as core;
pub use cqc_data as data;
pub use cqc_dlm as dlm;
pub use cqc_hom as hom;
pub use cqc_hypergraph as hypergraph;
pub use cqc_query as query;
pub use cqc_runtime as runtime;
pub use cqc_serve as serve;
pub use cqc_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use cqc_core::{
        count_locally_injective_homomorphisms, count_union, exact_count_answers,
        hamiltonian_path_query, naive_monte_carlo, undirected_graph_database, ApproxConfig,
        Backend, CoreError, CountMethod, Engine, EngineBuilder, EstimateReport, EvalError,
        PlanError, PlanSummary, PreparedQuery, Telemetry,
    };
    pub use cqc_data::{Database, Structure, StructureBuilder, Val};
    pub use cqc_query::{parse_query, Query, QueryBuilder, QueryClass};
    pub use cqc_runtime::pool::Pool;
    pub use cqc_runtime::{resolve_threads, split_seed, split_seed2, Runtime};
    pub use cqc_serve::{count_sharded, Server, ServerConfig};
}
