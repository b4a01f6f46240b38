//! The counterexample witnesses of Theorems 3.5 and 3.6, with every
//! evaluation claim of their proofs machine-checked (Appendices A/B).
//!
//! Both theorems separate weak monotonicity from well designedness:
//!
//! * **Theorem 3.5** exhibits a weakly-monotone `SPARQL[AOF]` pattern
//!   not equivalent to any well-designed `SPARQL[AOF]` pattern;
//! * **Theorem 3.6** exhibits a weakly-monotone `SPARQL[AUOF]` pattern
//!   not equivalent to any *union* of well-designed patterns.
//!
//! Inexpressibility itself cannot be confirmed by testing (it
//! quantifies over all patterns), but every *step* of each proof is a
//! concrete, checkable claim about specific graphs; the functions and
//! tests here reproduce all of them (experiments E4/E5).

use owql_algebra::condition::Condition;
use owql_algebra::pattern::Pattern;
use owql_rdf::graph::graph_from;
use owql_rdf::Graph;

/// The Theorem 3.5 witness:
///
/// ```text
/// P = (((a,b,c) OPT (?X,d,e)) OPT (?Y,f,g))
///       FILTER (bound(?X) ∨ bound(?Y))
/// ```
///
/// Weakly monotone (the FILTER only ever *keeps* answers whose
/// subsumption successors also pass it), but not equivalent to any
/// well-designed pattern: the filter mentions the optional variables
/// outside their OPTs, and Propositions A.1/A.2 show a well-designed
/// pattern cannot produce answers over `{(a,b,c), (ℓ,d,e)}` and
/// `{(a,b,c), (ℓ,f,g)}` with incomparable domains `{?X}` / `{?Y}` while
/// producing none over `{(a,b,c)}`.
pub fn theorem_3_5_pattern() -> Pattern {
    Pattern::t("a", "b", "c")
        .opt(Pattern::t("?X", "d", "e"))
        .opt(Pattern::t("?Y", "f", "g"))
        .filter(Condition::bound("X").or(Condition::bound("Y")))
}

/// `G₁ = {(a,b,c), (ℓ,d,e)}`: here `⟦P⟧G₁ = {[?X → ℓ]}`.
///
/// (The appendix prints the pair as `(ℓ,e,f)`/`(ℓ,g,h)` — a typo for
/// the triples matching `(?X,d,e)` and `(?Y,f,g)`; we use the triples
/// that realize the proof's stated evaluations.)
pub fn theorem_3_5_g1() -> Graph {
    graph_from(&[("a", "b", "c"), ("l", "d", "e")])
}

/// `G₂ = {(a,b,c), (ℓ,f,g)}`: here `⟦P⟧G₂ = {[?Y → ℓ]}`.
pub fn theorem_3_5_g2() -> Graph {
    graph_from(&[("a", "b", "c"), ("l", "f", "g")])
}

/// `G = {(a,b,c)}`: here `⟦P⟧G = ∅` — the pivot of the contradiction
/// in the proof (a well-designed candidate would have to answer
/// non-emptily here).
pub fn theorem_3_5_g() -> Graph {
    graph_from(&[("a", "b", "c")])
}

/// The Theorem 3.6 witness:
///
/// ```text
/// P = (?X, a, b) OPT ((?X, c, ?Y) UNION (?X, d, ?Z))
/// ```
///
/// Weakly monotone (both OPT sides are monotone), but over `G₄` it
/// outputs two *compatible* mappings — which Proposition B.1 forbids
/// for every `SPARQL[AOF]` pattern — and the weak monotonicity of a
/// candidate disjunct pins both outputs onto a single disjunct.
pub fn theorem_3_6_pattern() -> Pattern {
    Pattern::t("?X", "a", "b").opt(Pattern::t("?X", "c", "?Y").union(Pattern::t("?X", "d", "?Z")))
}

/// The four graphs of the Theorem 3.6 proof (Appendix B):
/// `G₁ = {(1,a,b)}`, `G₂ = G₁ ∪ {(1,c,2)}`, `G₃ = G₁ ∪ {(1,d,3)}`,
/// `G₄ = G₁ ∪ {(1,c,2), (1,d,3)}`.
pub fn theorem_3_6_graphs() -> [Graph; 4] {
    [
        graph_from(&[("1", "a", "b")]),
        graph_from(&[("1", "a", "b"), ("1", "c", "2")]),
        graph_from(&[("1", "a", "b"), ("1", "d", "3")]),
        graph_from(&[("1", "a", "b"), ("1", "c", "2"), ("1", "d", "3")]),
    ]
}

/// An SP–SPARQL pattern *exactly* equivalent to the Theorem 3.5
/// witness — the Corollary 5.5 phenomenon made concrete: the pattern
/// escapes every well-designed pattern, yet a single `NS` over an
/// `SPARQL[AUF]` union captures it:
///
/// ```text
/// NS( ((a,b,c) AND (?X,d,e))
///   UNION ((a,b,c) AND (?Y,f,g))
///   UNION ((a,b,c) AND (?X,d,e) AND (?Y,f,g)) )
/// ```
///
/// (The bare `(a,b,c)` branch is deliberately absent: the FILTER of
/// the witness discards the binding-free answer, and NS-maximality
/// makes the remaining branches behave exactly like the nested OPTs.)
pub fn theorem_3_5_sp_equivalent() -> Pattern {
    let abc = Pattern::t("a", "b", "c");
    let xde = Pattern::t("?X", "d", "e");
    let yfg = Pattern::t("?Y", "f", "g");
    abc.clone()
        .and(xde.clone())
        .union(abc.clone().and(yfg.clone()))
        .union(abc.and(xde).and(yfg))
        .ns()
}

/// An SP–SPARQL pattern exactly equivalent to the Theorem 3.6 witness:
/// `NS(t₁ UNION (t₁ AND t₂) UNION (t₁ AND t₃))`. The witness escapes
/// every *union of well-designed* patterns, but is itself a *single*
/// simple pattern — the strictness of Proposition 5.6/5.8 from the
/// other side.
pub fn theorem_3_6_sp_equivalent() -> Pattern {
    let t1 = Pattern::t("?X", "a", "b");
    let t2 = Pattern::t("?X", "c", "?Y");
    let t3 = Pattern::t("?X", "d", "?Z");
    t1.clone().union(t1.clone().and(t2)).union(t1.and(t3)).ns()
}

/// A Proposition 5.8 separation witness: a USP–SPARQL pattern whose
/// behaviour rules out membership in *either* smaller language:
///
/// ```text
/// P = NS((?x, a, b)) UNION NS((?x, a, b) AND (?x, c, ?y))
/// ```
///
/// * over `{(1,a,b), (1,c,2)}` it outputs the properly-subsumed pair
///   `{[x→1], [x→1,y→2]}` — impossible for any SP–SPARQL pattern
///   (simple patterns are subsumption-free by construction);
/// * it is not monotone — impossible for any `SPARQL[AUFS]` pattern
///   (that fragment is monotone)... in fact this particular witness
///   *is* monotone; non-monotonicity is witnessed by its companion
///   [`proposition_5_8_nonmonotone_disjunct`].
///
/// Together the two mechanisms show why USP–SPARQL sits strictly above
/// both languages (the full inexpressibility statement quantifies over
/// all patterns and is proof-level; the tests check the mechanisms).
pub fn proposition_5_8_witness() -> Pattern {
    let t1 = Pattern::t("?x", "a", "b");
    let t2 = Pattern::t("?x", "c", "?y");
    t1.clone().ns().union(t1.and(t2).ns())
}

/// The non-monotone USP ingredient of the Prop 5.8 separation: a
/// simple pattern with a genuinely optional extension,
/// `NS(t₁ ∪ (t₁ AND t₂))`, loses the bare answer `[x→1]` when `t₂`
/// starts matching — weakly monotone, not monotone, hence not
/// subsumption-equivalent... to any *monotone* AUFS pattern under
/// plain equivalence.
pub fn proposition_5_8_nonmonotone_disjunct() -> Pattern {
    let t1 = Pattern::t("?x", "a", "b");
    let t2 = Pattern::t("?x", "c", "?y");
    t1.clone().union(t1.and(t2)).ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{self, CheckOptions};
    use owql_algebra::mapping_set::mapping_set;
    use owql_algebra::well_designed::well_designed_aof;
    use owql_eval::reference::evaluate;

    #[test]
    fn theorem_3_5_pattern_is_not_well_designed() {
        assert!(well_designed_aof(&theorem_3_5_pattern()).is_err());
    }

    #[test]
    fn theorem_3_5_is_weakly_monotone_bounded() {
        let r = checks::weakly_monotone(&theorem_3_5_pattern(), &CheckOptions::default());
        assert!(r.holds(), "refuted: {r:?}");
    }

    #[test]
    fn theorem_3_5_proof_evaluations() {
        let p = theorem_3_5_pattern();
        assert_eq!(
            evaluate(&p, &theorem_3_5_g1()),
            mapping_set(&[&[("X", "l")]])
        );
        assert_eq!(
            evaluate(&p, &theorem_3_5_g2()),
            mapping_set(&[&[("Y", "l")]])
        );
        assert!(evaluate(&p, &theorem_3_5_g()).is_empty());
    }

    #[test]
    fn theorem_3_5_base_pattern_without_filter_is_well_designed() {
        // The FILTER is what breaks well designedness.
        let base = Pattern::t("a", "b", "c")
            .opt(Pattern::t("?X", "d", "e"))
            .opt(Pattern::t("?Y", "f", "g"));
        assert!(well_designed_aof(&base).is_ok());
    }

    #[test]
    fn theorem_3_6_proof_evaluations() {
        let p = theorem_3_6_pattern();
        let [g1, g2, g3, g4] = theorem_3_6_graphs();
        assert_eq!(evaluate(&p, &g1), mapping_set(&[&[("X", "1")]]));
        assert_eq!(evaluate(&p, &g2), mapping_set(&[&[("X", "1"), ("Y", "2")]]));
        assert_eq!(evaluate(&p, &g3), mapping_set(&[&[("X", "1"), ("Z", "3")]]));
        assert_eq!(
            evaluate(&p, &g4),
            mapping_set(&[&[("X", "1"), ("Y", "2")], &[("X", "1"), ("Z", "3")]])
        );
    }

    #[test]
    fn theorem_3_6_is_weakly_monotone_bounded() {
        let r = checks::weakly_monotone(&theorem_3_6_pattern(), &CheckOptions::default());
        assert!(r.holds(), "refuted: {r:?}");
    }

    #[test]
    fn theorem_3_6_output_violates_prop_b_1_over_g4() {
        // The two answers over G4 are compatible — impossible for any
        // SPARQL[AOF] pattern by Proposition B.1.
        let p = theorem_3_6_pattern();
        let [_, _, _, g4] = theorem_3_6_graphs();
        assert!(!checks::answers_pairwise_incompatible(&p, &g4));
    }

    /// Corollary 5.5 in action: the Theorem 3.5 witness has an exact
    /// SP–SPARQL equivalent, verified on a bounded-exhaustive +
    /// randomized graph family through the public equivalence API.
    #[test]
    fn theorem_3_5_has_sp_sparql_equivalent() {
        use owql_algebra::equivalence::{check_relation, EquivalenceOptions, Relation};
        let p = theorem_3_5_pattern();
        let sp = theorem_3_5_sp_equivalent();
        assert_eq!(owql_lint::classify(&sp), owql_lint::Fragment::SpSparql);
        let r = check_relation(
            &p,
            &sp,
            Relation::Equivalent,
            &|p, g| evaluate(p, g),
            &EquivalenceOptions::default(),
        );
        assert!(r.holds(), "{r:?}");
        // Spot-check the proof graphs too.
        for g in [theorem_3_5_g1(), theorem_3_5_g2(), theorem_3_5_g()] {
            assert_eq!(evaluate(&p, &g), evaluate(&sp, &g));
        }
    }

    /// The Theorem 3.6 witness — inexpressible as any union of
    /// well-designed patterns — is exactly one simple pattern.
    #[test]
    fn theorem_3_6_has_sp_sparql_equivalent() {
        use owql_algebra::equivalence::{check_relation, EquivalenceOptions, Relation};
        let p = theorem_3_6_pattern();
        let sp = theorem_3_6_sp_equivalent();
        assert_eq!(owql_lint::classify(&sp), owql_lint::Fragment::SpSparql);
        let r = check_relation(
            &p,
            &sp,
            Relation::Equivalent,
            &|p, g| evaluate(p, g),
            &EquivalenceOptions::default(),
        );
        assert!(r.holds(), "{r:?}");
        let [g1, g2, g3, g4] = theorem_3_6_graphs();
        for g in [g1, g2, g3, g4] {
            assert_eq!(evaluate(&p, &g), evaluate(&sp, &g));
        }
    }

    #[test]
    fn proposition_5_8_witness_outputs_subsumed_pair() {
        // No SP–SPARQL pattern can do this: simple patterns are
        // subsumption-free.
        let p = proposition_5_8_witness();
        assert!(matches!(
            owql_lint::classify(&p),
            owql_lint::Fragment::UspSparql { .. }
        ));
        let g = graph_from(&[("1", "a", "b"), ("1", "c", "2")]);
        let out = evaluate(&p, &g);
        assert_eq!(out.len(), 2);
        assert!(!out.is_subsumption_free());
        // Still weakly monotone (it is USP–SPARQL).
        assert!(checks::weakly_monotone(&p, &CheckOptions::default()).holds());
    }

    #[test]
    fn proposition_5_8_disjunct_is_not_monotone() {
        // No SPARQL[AUFS] pattern can do this: that fragment is
        // monotone.
        let p = proposition_5_8_nonmonotone_disjunct();
        assert_eq!(owql_lint::classify(&p), owql_lint::Fragment::SpSparql);
        let r = checks::monotone(&p, &CheckOptions::default());
        assert!(!r.holds());
        assert!(checks::weakly_monotone(&p, &CheckOptions::default()).holds());
        // Concrete loss: the bare answer disappears when the optional
        // part starts matching.
        let g1 = graph_from(&[("1", "a", "b")]);
        let g2 = graph_from(&[("1", "a", "b"), ("1", "c", "2")]);
        assert!(evaluate(&p, &g1).contains(&owql_algebra::Mapping::from_str_pairs(&[("x", "1")])));
        assert!(!evaluate(&p, &g2).contains(&owql_algebra::Mapping::from_str_pairs(&[("x", "1")])));
    }

    #[test]
    fn theorem_3_6_graph_inclusions() {
        let [g1, g2, g3, g4] = theorem_3_6_graphs();
        assert!(g1.is_subgraph_of(&g2) && g1.is_subgraph_of(&g3));
        assert!(g2.is_subgraph_of(&g4) && g3.is_subgraph_of(&g4));
    }
}
