//! # cqc-workloads — workload generators for the experiments
//!
//! Random graphs and databases, plus the query families used throughout the
//! paper's discussion and in the experiment `report` binary of `cqc-bench`:
//! path/star/clique queries, the
//! footnote-4 quantified-star query, the Hamiltonian-path DCQ of
//! Observation 10, locally-injective-homomorphism encodings (Corollary 6) and
//! higher-arity families for the unbounded-arity results (Theorems 13/16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumo;
pub mod graphs;
pub mod mix;
pub mod queries;

pub use cqc_query::QueryClass;
pub use enumo::{
    class_name, enumerate_class, manifest, measure, parse_class, suite, suite_database,
    suite_request_mix, suite_request_spec, Filter, Metric, Suite, SuiteQuery, Workload,
    ALL_CLASSES,
};
pub use graphs::{erdos_renyi, graph_database, grid_graph, random_regularish, GraphSpec};
pub use mix::{request_mix, request_spec, RequestSpec, MIX_QUERIES};
pub use queries::{
    clique_query, footnote4_star_query, hyperchain_query, path_query, star_query, QuerySpec,
};
