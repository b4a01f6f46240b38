//! # owql-theory
//!
//! The theory toolkit of Arenas & Ugarte (PODS 2016): every
//! construction, translation, checker, and reduction the paper defines,
//! as executable (and executed) code.
//!
//! * [`fo`] — the SPARQL→first-order translation of Lemmas C.1/C.2
//!   (Section 4), with a model checker for the structures
//!   `G^P_FO` of Definition C.5. Used to cross-validate the evaluation
//!   engines against an independent semantics (experiment E6).
//! * [`rewrite`] — the constructive transformations: `OPT → NS`
//!   (Section 5.1), NS-elimination (Theorem 5.1 / Lemma D.3), the
//!   SELECT-free version (Definition F.1 / Proposition 6.7), and the
//!   weakly-monotone-core construction for monotone CONSTRUCT queries
//!   (Lemma 6.5). Well-designed pattern trees and the
//!   `wd → SP–SPARQL` translation (Proposition 5.6) live in
//!   `owql_algebra::pattern_tree`.
//! * [`fragments`] — the AUFS → USP–SPARQL construction of
//!   Proposition 5.8. The language classifier is `owql_lint::classify`.
//! * [`checks`] — bounded-exhaustive and randomized semantic checkers
//!   for weak monotonicity, monotonicity, subsumption-freeness, and
//!   CONSTRUCT monotonicity. The properties are undecidable in general
//!   (Section 1); the checkers are exhaustive over a bounded universe
//!   (sound refutation, bounded confirmation — see DESIGN.md).
//! * [`witness`] — the counterexample patterns of Theorems 3.5 and 3.6
//!   with machine-checked versions of every evaluation claim in their
//!   proofs (Appendices A/B).
//! * [`reduction`] — the complexity reductions of Section 7 /
//!   Appendices G–I: SAT gadgets, SAT-UNSAT → Eval(SP–SPARQL)
//!   (Theorem 7.1), the disjoint-combination lemma (Lemma H.1),
//!   chromatic-number instances (Theorem 7.2), MAX-ODD-SAT
//!   (Theorem 7.3), and SAT → Eval(CONSTRUCT\[AUF\]) (Theorem 7.4) — all
//!   verified end-to-end against the DPLL oracle.
//! * [`synthesis`] — a bounded search realizing the *statement* of
//!   Theorem 4.1 on small inputs: given a weakly-monotone pattern, find
//!   a subsumption-equivalent `SPARQL[AUFS]` pattern (the theorem's
//!   interpolation proof is non-constructive; see DESIGN.md).

pub mod checks;
pub mod fo;
pub mod fragments;
pub mod reduction;
pub mod rewrite;
pub mod synthesis;
pub mod witness;
