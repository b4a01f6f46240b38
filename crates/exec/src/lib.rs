//! # owql-exec
//!
//! A dependency-free, scoped, work-stealing thread pool — the execution
//! substrate of the parallel evaluation engine (`Engine::run` with
//! `ExecOpts::parallel()` in `owql-eval` and the same options behind
//! `Store::query_request` in `owql-store`).
//!
//! The build environment is fully offline, so this crate hand-rolls the
//! small slice of a task scheduler the engine actually needs instead of
//! pulling in rayon:
//!
//! * **Scoped** — workers are spawned inside [`std::thread::scope`] per
//!   [`Pool::map`] call, so tasks may borrow the caller's stack (graph
//!   snapshots, pattern trees, candidate vectors) with no `'static`
//!   gymnastics and no idle resident threads between queries.
//! * **Chunked deques** — the input index space is cut into contiguous
//!   chunks ([`chunk_ranges`]), dealt round-robin onto one
//!   `Mutex<VecDeque>` per worker. Owners pop from the front, thieves
//!   steal from the back, so a steal transfers the largest contiguous
//!   block of untouched work and false sharing across workers stays
//!   minimal.
//! * **Deterministic results** — results are reassembled by input
//!   index, so `map` output order never depends on scheduling, and a
//!   1-thread pool executes the exact sequential iteration. The
//!   differential test suites in `owql-eval` and `tests/
//!   integration_parallel.rs` hold the parallel engine to exact
//!   (`==`) agreement with the sequential one at every width.
//! * **Nested-call flattening** — a `map` issued from inside a worker
//!   runs inline, bounding the thread count at `threads + 1` however
//!   deeply pattern evaluation recurses.
//!
//! Width selection: [`Pool::from_env`] honours `OWQL_THREADS` (the knob
//! the CI determinism job sweeps) and otherwise uses
//! [`std::thread::available_parallelism`].

mod chunk;
mod pool;

pub use chunk::chunk_ranges;
pub use pool::Pool;
