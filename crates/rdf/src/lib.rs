//! # owql-rdf
//!
//! The RDF substrate of the OWQL project: an implementation of the data
//! model of Arenas & Ugarte, *"Designing a Query Language for RDF:
//! Marrying Open and Closed Worlds"* (PODS 2016), Section 2.
//!
//! Following the paper, an RDF **triple** is an element of `I × I × I`
//! where `I` is an infinite set of IRIs, and an RDF **graph** is a finite
//! set of triples. Constant values and existential (blank) nodes are
//! intentionally *not* modelled — the paper disallows them because none of
//! its results are affected by their presence. Also following the paper,
//! every string may be used as an IRI.
//!
//! The crate provides:
//!
//! * [`Iri`] — globally interned identifiers with `O(1)` equality/hash,
//! * [`Triple`] — a subject/predicate/object record,
//! * [`Graph`] — a finite set of triples with set-algebra helpers,
//! * [`TermDict`], [`IdRuns`] and [`SnapshotIndex`] — the term
//!   dictionary, the id-encoded SPO/POS/OSP runs every pattern shape is
//!   a range of, and the one triple index built from them,
//! * [`ntriples`] — a line-oriented reader/writer for an N-Triples-like
//!   exchange format,
//! * [`generate`] — seeded synthetic workload generators used by the
//!   benchmark harness,
//! * [`datasets`] — the concrete graphs of Figures 1–3 of the paper.

pub mod datasets;
pub mod dict;
pub mod fx;
pub mod generate;
pub mod graph;
pub mod index;
pub mod ntriples;
pub mod stats;
pub mod term;
pub mod turtle;

pub use dict::{IdRuns, IdSpaceFull, IdView, RunOrder, TermDict, TermId, NO_TERM};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use graph::Graph;
pub use index::{BatchPlan, SnapshotIndex};
pub use term::{Iri, Triple};
