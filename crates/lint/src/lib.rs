//! # owql-lint
//!
//! A span-aware static analyzer for NS–SPARQL patterns. Three passes
//! over a parsed pattern produce one [`Analysis`]:
//!
//! 1. **Classification** ([`classify()`]): the most specific of the
//!    paper's query languages the pattern belongs to (`SPARQL[AF]` …
//!    USP–SPARQL … full NS–SPARQL), mapped to the complexity class of
//!    its evaluation problem (`P`, `NP`, `coNP`, `DP`, `BH₂ₖ`,
//!    `P^NP_par`, `PSPACE`). The classes are ranked so the server can
//!    enforce an admission ceiling ("shed anything above DP").
//! 2. **Well-designedness** ([`well_designedness`] and the WD001/WD002
//!    diagnostics): Definition 3.4 checked per OPT subtree, with each
//!    violation anchored at the offending subtree's byte span.
//! 3. **Semantic dataflow** ([`dataflow::Bindings`]): the
//!    certainly-bound / possibly-bound variable lattice, computed
//!    bottom-up and consumed by every rule that reasons about
//!    bindings — and by the optimizer's certified pruning rewrites.
//! 4. **Lints**: statically always-false/always-true filters (FL001/2),
//!    unsatisfiable filter conjunctions by constraint propagation
//!    (FL003, [`sat`]), dead projection, duplicate and subsumed UNION
//!    branches (UN001/UN002, [`subsume`]), collapsible OPTs (BD001),
//!    redundant or opaque `NS`.
//!
//! Diagnostics carry stable rule codes (`WD001`, `FL001`, …) and byte
//! spans into the source (when analyzed via [`analyze_source`]) or into
//! the pattern's canonical rendering (via [`analyze_pattern`]).
//!
//! ```
//! use owql_lint::{analyze_source, ComplexityClass, Fragment};
//!
//! let a = analyze_source("(NS((?x, a, b)) UNION NS((?x, c, ?y)))").unwrap();
//! assert_eq!(a.fragment, Fragment::UspSparql { disjuncts: 2 });
//! assert_eq!(a.complexity, ComplexityClass::Bh(4));
//! assert_eq!(a.diagnostics[0].rule.code(), "FR001");
//! ```
//!
//! The crate deliberately depends only on `owql-algebra` and
//! `owql-parser`, so both the evaluator (plan hints) and the server
//! (admission policy, `POST /lint`) can consume it without cycles.

pub mod analyze;
pub mod classify;
pub mod dataflow;
pub mod diagnostics;
pub mod sat;
pub mod subsume;

pub use analyze::{
    analyze, analyze_pattern, analyze_source, well_designedness, Analysis, WellDesignedVerdict,
};
pub use classify::{classify, ComplexityClass, Fragment};
pub use dataflow::{fold_condition, must_bind, Bindings, Tri};
pub use diagnostics::{Diagnostic, RuleId, Severity};
pub use sat::{filter_satisfiable, Satisfiability};
pub use subsume::{branch_subsumes, conjunctive, subsumes, ConjunctiveBranch};
