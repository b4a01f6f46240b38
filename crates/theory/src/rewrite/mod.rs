//! The constructive pattern transformations of Sections 5–6 and
//! Appendices D–F.
//!
//! * [`opt_to_ns`] — replaces every `OPT` by the NS simulation
//!   `P₁ OPT P₂ ≡s NS(P₁ UNION (P₁ AND P₂))` (Section 5.1). The
//!   rewrite preserves subsumption equivalence on every graph and plain
//!   equivalence whenever the left operand is subsumption-free; the
//!   module documents (and tests) a counterexample to *plain*
//!   equivalence in the general case.
//! * [`ns_elimination`] — Theorem 5.1 / Lemma D.3: compiles any
//!   NS–SPARQL pattern into an equivalent SPARQL pattern, at a
//!   (necessarily) explosive size cost — the blowup is measured by
//!   experiment E7.
//! * [`select_free`] — Definition F.1 / Proposition 6.7: the
//!   SELECT-free version `P_sf` with the Lemma F.2 correspondence, and
//!   the CONSTRUCT-level equivalence that removes SELECT from
//!   `CONSTRUCT[AUFS]`.
//! * [`construct_core`] — Lemma 6.3 (`CONSTRUCT H WHERE P ≡
//!   CONSTRUCT H WHERE NS(P)`) and the Lemma 6.5 construction that
//!   rewrites any CONSTRUCT query into one whose pattern is weakly
//!   monotone, preserving equivalence whenever the query is monotone.
//!
//! The Proposition 5.6 translation of well-designed patterns into
//! simple patterns (`wd_to_simple`) lives beside well-designedness in
//! `owql_algebra::pattern_tree`, where the optimizer shares its OPT
//! normal form.

pub mod construct_core;
pub mod ns_elimination;
pub mod opt_to_ns;
pub mod select_free;
