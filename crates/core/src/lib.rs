//! # owql — an open-world query language for RDF
//!
//! A from-scratch Rust implementation of the query-language design of
//! Marcelo Arenas & Martín Ugarte, *"Designing a Query Language for
//! RDF: Marrying Open and Closed Worlds"* (PODS 2016): SPARQL with the
//! **not-subsumed (NS) operator**, the weakly-monotone fragments
//! **SP–SPARQL** and **USP–SPARQL**, the monotone CONSTRUCT fragment
//! **CONSTRUCT\[AUF\]**, and the full theory toolkit around them
//! (well-designedness, normal forms, FO translation, semantic
//! checkers, expressiveness translations, and the Section 7 complexity
//! reductions).
//!
//! ## Quick start
//!
//! ```
//! use owql::prelude::*;
//!
//! // An RDF graph (Figure 2 of the paper).
//! let mut g = Graph::new();
//! g.insert(Triple::new("Juan", "was_born_in", "Chile"));
//! g.insert(Triple::new("Juan", "email", "juan@puc.cl"));
//!
//! // The open-world way to ask for optional info: NS instead of OPT.
//! let p = parse_pattern(
//!     "NS(((?X, was_born_in, Chile) UNION \
//!         ((?X, was_born_in, Chile) AND (?X, email, ?E))))",
//! ).unwrap();
//!
//! let out = Engine::new(&g)
//!     .run(&p, &ExecOpts::seq(), &Pool::sequential())
//!     .unwrap();
//! let answers = out.mappings;
//! assert_eq!(answers.len(), 1);
//! assert!(answers.contains(&Mapping::from_str_pairs(&[
//!     ("X", "Juan"), ("E", "juan@puc.cl"),
//! ])));
//!
//! // The pattern is weakly monotone — safe under the open-world
//! // semantics of RDF (bounded-exhaustively checked):
//! assert!(owql::theory::checks::weakly_monotone(
//!     &p, &owql::theory::checks::CheckOptions::default()).holds());
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`rdf`] | `owql-rdf` | IRIs, triples, graphs, indexes, N-Triples I/O, workload generators |
//! | [`algebra`] | `owql-algebra` | mappings, mapping-set algebra, patterns (incl. NS/MINUS), fragments, well-designedness, normal forms, CONSTRUCT |
//! | [`parser`] | `owql-parser` | surface syntax, byte-span tracking, line:column locations |
//! | [`lint`] | `owql-lint` | span-aware static analyzer: fragment/complexity classification, well-designedness and filter/projection/union diagnostics, admission vocabulary |
//! | [`eval`] | `owql-eval` | reference + indexed engines, CONSTRUCT evaluation |
//! | [`logic`] | `owql-logic` | propositional logic, DPLL, cardinality, coloring (substrate of §7) |
//! | [`theory`] | `owql-theory` | FO translation, rewrites, checkers, witnesses, reductions, synthesis |
//! | [`store`] | `owql-store` | versioned concurrent triple store: epochs, snapshots, delta compaction, epoch-keyed query cache |
//! | [`exec`] | `owql-exec` | scoped work-stealing thread pool behind parallel evaluation |
//! | [`obs`] | `owql-obs` | span tracing, per-operator metrics, unified JSON profiles, EXPLAIN ANALYZE plumbing |
//! | [`server`] | `owql-server` | dependency-free HTTP/1.1 query server: bounded admission, per-request deadlines, snapshot isolation |

pub use owql_algebra as algebra;
pub use owql_eval as eval;
pub use owql_exec as exec;
pub use owql_lint as lint;
pub use owql_logic as logic;
pub use owql_obs as obs;
pub use owql_parser as parser;
pub use owql_rdf as rdf;
pub use owql_server as server;
pub use owql_store as store;
pub use owql_theory as theory;

/// The most common imports, bundled.
pub mod prelude {
    pub use owql_algebra::analysis::Operators;
    pub use owql_algebra::condition::Condition;
    pub use owql_algebra::pattern::{tp, Pattern, TriplePattern};
    pub use owql_algebra::{ConstructQuery, Mapping, MappingSet, Variable};
    pub use owql_eval::{
        construct, evaluate, AnnotatedPlan, Engine, EvalError, ExecMode, ExecOpts, RunOutcome,
    };
    pub use owql_exec::Pool;
    pub use owql_lint::{analyze_pattern, analyze_source, Analysis, ComplexityClass, Fragment};
    pub use owql_obs::{Profile, Recorder};
    pub use owql_parser::{parse_construct, parse_pattern, parse_pattern_spanned};
    pub use owql_rdf::{
        Graph, IdRuns, IdView, Iri, SnapshotIndex, TermDict, TermId, Triple, NO_TERM,
    };
    pub use owql_server::{Server, ServerConfig};
    pub use owql_store::{QueryOutcome, QueryRequest, Snapshot, Store, StoreOptions};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_basics() {
        let g: Graph = [Triple::new("a", "p", "b")].into_iter().collect();
        let p = parse_pattern("(?x, p, ?y)").unwrap();
        assert_eq!(evaluate(&p, &g).len(), 1);
        let out = Engine::new(&g)
            .run(&p, &ExecOpts::seq(), &Pool::sequential())
            .unwrap();
        assert_eq!(out.mappings.len(), 1);
    }
}
