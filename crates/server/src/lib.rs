//! # owql-server — a networked query front-end
//!
//! A dependency-free HTTP/1.1 server over an [`owql_store::Store`],
//! built on a raw epoll event loop ([`sys`]) and the workspace's own
//! crates: the parser for request bodies, the unified
//! `QueryRequest → QueryOutcome` API for evaluation, and owql-obs's
//! hand-rolled JSON for responses.
//!
//! ## Endpoints
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /v1/query` | `{"pattern": "...", "opts": {...}}` | mappings as JSON (+ profile when `trace`) |
//! | `POST /v1/explain` | `{"pattern": "...", "opts": {...}}` | EXPLAIN ANALYZE plan |
//! | `POST /v1/lint` | `{"pattern": "..."}` | static analysis with diagnostics |
//! | `GET /v1/healthz` | — | liveness; `?ready=1` = readiness probe (`503` until serving) |
//! | `GET /metrics` | — | Prometheus text (or `?format=json`) |
//!
//! `"opts"` keys: `mode` (`"seq"`/`"parallel"`), `trace`, `cache`,
//! `optimize` (booleans), `deadline_ms`, `slow_ms`
//! (integers), `max_class` (complexity-class name, tighten-only).
//! That table is the whole surface: any other path is a `404`, and
//! every non-2xx answer — routed, shed, or a wire-level failure —
//! carries the one envelope
//! `{"error": {"code", "message", "span"?, "retry_after"?}}`.
//!
//! ## Design
//!
//! - **Epoll front-end.** One event-loop thread multiplexes every
//!   connection through non-blocking sockets and
//!   [`sys::Epoll`] — HTTP/1.1 keep-alive, pipelining (responses in
//!   request order), and chunked transfer-encoding for large result
//!   sets, with no async runtime and no `libc` crate.
//! - **Bounded dispatch, one execution shape.** Parsed requests enter
//!   a bounded job queue drained by a fixed worker pool; evaluation
//!   never runs on the event-loop thread, so a full queue sheds with
//!   `429` + `Retry-After` written inline — without costing a worker
//!   or the connection — and `GET` probes answer while a query runs.
//!   Pipelining is bounded per connection, and a panicking request
//!   handler becomes a `500` and a counter, not a dead worker.
//! - **One parallelism mechanism.** Each worker owns an evaluation
//!   pool of [`ServerConfig::pool_threads`] threads; a parallel-mode
//!   request fans its UNION disjuncts and the rows of a wide AND-spine
//!   step out over it, all against the request's one snapshot.
//! - **Per-request deadlines.** `deadline_ms` (or the configured
//!   default) becomes [`owql_eval::ExecOpts::deadline`]; the engine's
//!   cooperative budget unwinds evaluation and the server answers
//!   `504`. Workers survive timeouts — nothing is poisoned.
//! - **Snapshot isolation.** Every request pins one store snapshot;
//!   the response carries the epoch it is consistent with, so clients
//!   can reason about read-your-writes across requests.
//! - **Graceful shutdown.** [`Server::shutdown`] stops accepting,
//!   drains in-flight and pipelined requests, and joins all threads.
//!
//! ```no_run
//! use owql_server::{Server, ServerConfig};
//! use owql_store::Store;
//! use std::sync::Arc;
//!
//! let store = Arc::new(Store::new());
//! let config = ServerConfig::builder().pool_threads(2).build();
//! let server = Server::start(store, config).unwrap();
//! println!("listening on {}", server.addr());
//! server.shutdown();
//! ```

mod config;
mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;
mod pool;
mod render;
mod reply;
mod route;
pub mod server;
pub mod sys;

pub use http::{decode_chunked, Request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
pub use metrics::ServerMetrics;
pub use server::{Server, ServerConfig, ServerConfigBuilder};
