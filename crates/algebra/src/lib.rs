//! # owql-algebra
//!
//! The SPARQL algebra of Arenas & Ugarte (PODS 2016), Sections 2.1, 5.1
//! and 6.1, implemented over the RDF substrate of `owql-rdf`.
//!
//! The crate defines:
//!
//! * [`Variable`] — interned query variables (`?X`),
//! * [`Mapping`] — partial functions `µ : V → I` (solution mappings) with
//!   compatibility (`µ₁ ∼ µ₂`) and subsumption (`µ₁ ⪯ µ₂`),
//! * [`MappingSet`] — finite sets of mappings with the paper's four
//!   operations `⋈`, `∪`, `∖`, and left-outer-join, plus the
//!   maximal-answer operation underlying the **NS** operator and the
//!   set-subsumption relation `Ω₁ ⊑ Ω₂`,
//! * [`Condition`] — SPARQL built-in conditions (`bound`, `?X = c`,
//!   `?X = ?Y`, `¬`, `∧`, `∨`),
//! * [`Pattern`] — the graph-pattern AST with `AND`, `UNION`, `OPT`,
//!   `FILTER`, `SELECT`, the paper's new `NS` operator, and the derived
//!   `MINUS` operator of Appendix D,
//! * [`ConstructQuery`] — `CONSTRUCT H WHERE P` queries (Section 6),
//! * fragment analysis ([`analysis`]), well-designedness
//!   ([`well_designed`]), the UNION / fixed-domain normal forms of
//!   Appendix D ([`normal_form`]), and the OPT normal form with the
//!   Proposition 5.6 pattern-tree translation ([`pattern_tree`]) — the
//!   one copy the optimizer and the theory toolkit share.

pub mod analysis;
pub mod condition;
pub mod construct;
pub mod display;
pub mod equivalence;
pub mod id_mapping;
pub mod mapping;
pub mod mapping_set;
pub mod normal_form;
pub mod pattern;
pub mod pattern_tree;
pub mod random;
pub mod variable;
pub mod well_designed;

pub use condition::Condition;
pub use construct::ConstructQuery;
pub use id_mapping::{IdMapping, IdMappingSet, VarFrame};
pub use mapping::Mapping;
pub use mapping_set::MappingSet;
pub use owql_rdf::Iri;
pub use pattern::{Pattern, TermPattern, TriplePattern};
pub use variable::Variable;
