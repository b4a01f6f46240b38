//! # owql-eval
//!
//! Evaluation engines for NS–SPARQL graph patterns and CONSTRUCT
//! queries.
//!
//! The semantics `⟦·⟧G` is implemented exactly twice:
//!
//! * [`reference::evaluate`] — the *reference evaluator*, a literal
//!   transcription of the paper's recursive semantics (Sections 2.1,
//!   5.1). Triple patterns scan the whole graph; every operator calls
//!   the corresponding [`owql_algebra::MappingSet`] operation. It is
//!   deliberately unoptimized: it *is* the spec, and the tests use it
//!   as the differential oracle.
//! * [`engine::Engine`] — the production engine, one columnar walker
//!   over dictionary-encoded id tables: triple patterns are
//!   binary-searched ranges of id-sorted SPO/POS/OSP runs, `AND`-spines
//!   are greedy selectivity-ordered joins with bindings propagating
//!   into later scans, and terms are decoded once at the result
//!   boundary. A run plans once ([`plan::Plan`]: frame, id-compiled
//!   patterns, step order and estimates) and then executes that plan;
//!   [`Engine::explain`] returns the plan without executing it. The
//!   same walk serves sequential, pool-parallel and traced runs. Its
//!   results are cross-validated against the
//!   reference evaluator by a large randomized test suite (and the
//!   engine ablation of experiment E12 measures the gap).
//!
//! CONSTRUCT evaluation (Section 6.1) lives in [`mod@construct`].
//!
//! The single entry point of the engine is [`Engine::run`]: an
//! [`ExecOpts`] value selects sequential vs pool-parallel scheduling,
//! span tracing (the outcome then carries an [`owql_obs::Profile`]),
//! the static optimizer, and a cooperative deadline enforced by an
//! [`EvalBudget`] (exceeded budgets surface as [`EvalError::Timeout`]).
//! [`Engine::explain_analyze`] renders observed row counts and wall
//! times as an [`plan::AnnotatedPlan`].

pub(crate) mod columnar;
pub mod construct;
pub mod engine;
pub mod optimize;
pub mod plan;
pub mod reference;
pub mod run;

pub use construct::construct;
pub use engine::Engine;
pub use optimize::{optimize, optimize_with_stats};
pub use plan::{AnnotatedNode, AnnotatedPlan, Plan, Spine, Step};
pub use reference::evaluate;
pub use run::{
    check_admission, EvalBudget, EvalError, ExecMode, ExecOpts, ExecOptsBuilder, RunOutcome,
};
