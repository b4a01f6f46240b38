//! # owql-obs
//!
//! The observability layer of the workspace: query tracing, a
//! per-operator metrics taxonomy, and JSON-serializable profile
//! reports — dependency-free, like `owql-exec`, so every other crate
//! can report into it.
//!
//! The stack before this crate was a black box: a parallel benchmark
//! showed the `spine` workload *regressing* under parallelism and
//! nothing could say why — no tracing, no per-operator timing, and the
//! only metrics (`StoreMetrics`, `CacheStats`) were siloed per crate.
//! This crate closes that gap with three pieces:
//!
//! * [`Recorder`] — a thread-safe span/event sink: atomic counters for
//!   the cheap event streams (NS pruning, pool chunk/steal counts) and
//!   a mutex-guarded buffer of finished [`Span`]s. A **disabled**
//!   recorder ([`Recorder::disabled`]) records nothing and skips all
//!   clock reads, so an instrumented code path carrying one costs a
//!   handful of predictable branches — measured to stay within noise of
//!   the uninstrumented path (see `tests/integration_obs.rs`).
//! * [`OpKind`] — the operator taxonomy mirroring the NS–SPARQL
//!   algebra (`AND`/`UNION`/`OPT`/`FILTER`/`SELECT`/`NS`/`MINUS`, plus
//!   `SCAN` for individual index nested-loop steps), the unit of
//!   per-operator accounting. Pérez/Arenas/Gutierrez and Mengel/Skritek
//!   show SPARQL cost is dominated by operator shape — this is the
//!   granularity every perf PR needs to see.
//! * [`Profile`] — the unified snapshot: operator totals, the span
//!   tree, NS pruning ratios, pool worker stats, and (optionally) the
//!   store/cache counters folded in by `owql-store`, serialized to JSON
//!   by a small hand-rolled writer ([`json`]).
//!
//! Beyond per-query tracing, the crate is the stack's metrics layer:
//!
//! * [`Histogram`] — fixed-boundary log2 latency histograms with
//!   lock-free atomic buckets, shared by the server, the store's
//!   query/WAL/checkpoint paths and the `/metrics` exposition, so every
//!   percentile in the repo buckets identically.
//! * [`MetricsHub`] — the per-store accumulator: query latency,
//!   per-operator wall time, WAL fsync and checkpoint histograms,
//!   an evaluator-run counter, and a ring-buffer [`SlowQuery`]
//!   log.
//! * [`prometheus`] — text-format (0.0.4) exposition writers backing
//!   the server's `GET /metrics`.
//!
//! Producers: `Engine::run` with traced `ExecOpts` (and
//! `Engine::explain_analyze`) in `owql-eval` — including the columnar
//! id-batch engine, which records spans with `estimated_rows` seeded
//! from `IdRuns` cardinality — `Pool::map_profiled` in `owql-exec`,
//! and a traced `Store::query_request` in `owql-store` (which stitches
//! all three into one report). Demo: `cargo run --release --example
//! profile_query`.

pub mod histogram;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod prometheus;
pub mod recorder;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{MetricsHub, ShardMetrics, SlowQuery, MAX_SHARDS};
pub use profile::{
    ColumnarObs, NsObs, OperatorTotals, PersistObs, PoolObs, Profile, PruneObs, StoreObs,
    WorkerStat,
};
pub use recorder::{OpKind, Recorder, Span, SpanId, SpanTimer};
