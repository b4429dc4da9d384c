//! # cqc-serve — the sharded serving front end
//!
//! A std-only serving layer over the `Engine` / `PreparedQuery` API: a
//! newline-delimited JSON request loop ([`Server::serve_lines`]) that plans
//! each distinct query once, then fans a request's work items (databases)
//! across **simulated shards** executed by the persistent worker pool of
//! `cqc-runtime`.
//!
//! The layer's load-bearing property is the **shard-equivalence
//! guarantee**: work item `i` of a request is always evaluated under the
//! derived seed `split_seed(request_seed, i)` (plans are seed-independent,
//! see `PreparedQuery::count_with_seed`), and shard partials are merged in
//! shard-index order back into item order. Estimates — and the rendered
//! response bytes — are therefore identical whether a request runs
//! unsharded, 2-way, or 4-way sharded, on any pool width. See
//! [`count_sharded`] and the module docs of [`server`] for the argument,
//! and `tests/shard_equivalence.rs` for the pinned matrix.
//!
//! The wire format is handled by the crate's own minimal [`json`] module.
//!
//! ```
//! use cqc_serve::{Server, ServerConfig};
//!
//! let server = Server::new(ServerConfig::default());
//! let response = server.handle_line(
//!     r#"{"id": 1,
//!         "query": "ans(x) :- E(x, y), E(x, z), y != z",
//!         "dbs": ["universe 3\nrelation E 2\nE 0 1\nE 0 2\n"],
//!         "seed": 7, "shards": 2}"#,
//! );
//! assert!(response.contains("\"estimate\":1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serve request path: a panic here turns one bad request into a dead
// worker or connection. A sanctioned site carries a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod json;
pub mod server;

pub use server::{
    count_sharded, overload_line, ServeError, Server, ServerConfig, StatsSnapshot,
    MAX_REQUEST_WORKERS, MAX_SHARDS_PER_ITEM, OVERLOAD_CONNECTION_LIMIT, OVERLOAD_QUEUE_FULL,
};
