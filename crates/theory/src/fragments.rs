//! The paper's named query languages (Definitions 5.3 and 5.7, plus
//! the Section 8 projection extension): the constructions between
//! them.
//!
//! * a **simple pattern** (Definition 5.3) is `NS(P)` with
//!   `P ∈ SPARQL[AUFS]` — the language SP–SPARQL;
//! * an **ns-pattern** (Definition 5.7) is
//!   `P₁ UNION ⋯ UNION Pₙ` with every `Pᵢ` simple — the language
//!   USP–SPARQL (`USP–SPARQLₖ` bounds the number of disjuncts by `k`,
//!   the parameter of Theorem 7.2);
//! * the Section 8 **projection extension** closes ns-patterns under a
//!   top-level `SELECT`; the paper notes this preserves weak
//!   monotonicity (checked by the `projected_usp_is_weakly_monotone` test).
//!
//! Every pattern in these languages is weakly monotone by construction
//! (Corollary 5.9 territory). The classifier that places a pattern
//! into the most specific language is `owql_lint::classify`; this
//! module holds [`aufs_to_usp`], the constructive half of
//! Proposition 5.8.

use owql_algebra::analysis::{in_fragment, Operators};
use owql_algebra::pattern::Pattern;

/// The containment half of Proposition 5.8, constructively:
/// every `SPARQL[AUFS]` pattern is *equivalent* (plain `≡`, not just
/// `≡s`) to a USP–SPARQL pattern.
///
/// Construction: put `P` into the fixed-domain normal form of
/// Lemma D.2 (`AUFS` patterns have no `OPT`, so the normal form
/// introduces no `MINUS` and every disjunct `Dᵢ` stays in `AUFS`);
/// each `Dᵢ` produces answers over one fixed domain, hence is
/// subsumption-free, hence `NS(Dᵢ) ≡ Dᵢ`; so
/// `P ≡ NS(D₁) UNION ⋯ UNION NS(Dₙ)` — an ns-pattern.
pub fn aufs_to_usp(p: &Pattern) -> Result<Pattern, owql_algebra::normal_form::NormalFormError> {
    assert!(
        in_fragment(p, Operators::AUFS),
        "aufs_to_usp expects a SPARQL[AUFS] pattern"
    );
    let disjuncts = owql_algebra::normal_form::fixed_domain_normal_form(p)?;
    if disjuncts.is_empty() {
        // Can only happen when domain analysis proves emptiness; an
        // always-empty simple pattern works.
        return Ok(p.clone().filter(owql_algebra::Condition::False).ns());
    }
    Ok(Pattern::union_all(
        disjuncts.into_iter().map(|d| d.pattern.ns()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{self, CheckOptions};
    use owql_lint::{classify, Fragment};
    use owql_parser::parse_pattern;

    fn q(text: &str) -> Pattern {
        parse_pattern(text).unwrap()
    }

    /// An ns-pattern: SP–SPARQL (one disjunct) or USP–SPARQL.
    fn is_ns_pattern(p: &Pattern) -> bool {
        matches!(classify(p), Fragment::SpSparql | Fragment::UspSparql { .. })
    }

    #[test]
    fn simple_pattern_recognition() {
        assert_eq!(classify(&q("NS((?x, a, b))")), Fragment::SpSparql);
        assert_eq!(
            classify(&q(
                "NS(((?x, a, b) UNION (SELECT {?x} WHERE ((?x, a, b) AND (?x, c, ?y)))))"
            )),
            Fragment::SpSparql
        );
        // OPT inside the NS body disqualifies.
        assert_eq!(
            classify(&q("NS(((?x, a, b) OPT (?x, c, ?y)))")),
            Fragment::NsSparql
        );
        // No NS at the root disqualifies.
        assert_eq!(classify(&q("(?x, a, b)")), Fragment::Af);
        // Nested NS disqualifies (body must be AUFS).
        assert_eq!(classify(&q("NS(NS((?x, a, b)))")), Fragment::NsSparql);
    }

    #[test]
    fn ns_pattern_recognition() {
        assert_eq!(
            classify(&q("(NS((?x, a, b)) UNION NS((?x, c, ?y)))")),
            Fragment::UspSparql { disjuncts: 2 }
        );
        // A single simple pattern is an ns-pattern with n = 1; the
        // classifier reports the more specific SP–SPARQL.
        assert!(is_ns_pattern(&q("NS((?x, a, b))")));
        assert_eq!(
            classify(&q("((?x, a, b) UNION NS((?x, c, ?y)))")),
            Fragment::NsSparql
        );
    }

    #[test]
    fn projection_extension_recognition() {
        assert_eq!(
            classify(&q(
                "(SELECT {?x} WHERE (NS((?x, a, ?y)) UNION NS((?x, b, ?z))))"
            )),
            Fragment::ProjectedUspSparql { disjuncts: 2 }
        );
        assert_eq!(
            classify(&q("(SELECT {?x} WHERE ((?x, a, ?y) OPT (?y, b, ?z)))")),
            Fragment::Sparql
        );
    }

    #[test]
    fn weak_monotonicity_guarantee_flags() {
        assert!(Fragment::SpSparql.guarantees_weak_monotonicity());
        assert!(Fragment::WellDesignedAof.guarantees_weak_monotonicity());
        assert!(!Fragment::Sparql.guarantees_weak_monotonicity());
    }

    /// Every language with the guarantee flag actually passes the
    /// bounded weak-monotonicity checker on samples.
    #[test]
    fn guaranteed_languages_pass_bounded_check() {
        let opts = CheckOptions {
            universe_size: 6,
            random_graphs: 8,
            random_graph_size: 8,
            ..CheckOptions::default()
        };
        let samples = [
            "((?x, a, b) AND (?x, c, ?y))",
            "NS(((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y))))",
            "(NS((?x, a, b)) UNION NS(((?x, c, ?y) AND (?y, d, ?z))))",
            "((?x, a, b) OPT (?x, c, ?y))",
        ];
        for text in samples {
            let p = q(text);
            assert!(classify(&p).guarantees_weak_monotonicity(), "{text}");
            assert!(checks::weakly_monotone(&p, &opts).holds(), "{text}");
        }
    }

    /// Proposition 5.8's containment half: AUFS embeds into USP under
    /// plain equivalence, on samples including a pattern with subsumed
    /// answers.
    #[test]
    fn aufs_embeds_into_usp() {
        use owql_eval::reference::evaluate;
        let samples = [
            // Produces subsumed answer pairs — the interesting case.
            "((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y)))",
            "((?x, a, ?y) AND (?y, b, ?z))",
            "(SELECT {?x} WHERE ((?x, a, ?y) UNION (?x, b, ?y)))",
            "(((?x, a, ?y) FILTER bound(?x)) UNION (?z, c, d))",
        ];
        for text in samples {
            let p = parse_pattern(text).unwrap();
            let usp = aufs_to_usp(&p).unwrap();
            assert!(is_ns_pattern(&usp), "{text} -> {usp}");
            for seed in 0..6u64 {
                let g = owql_rdf::generate::uniform(15, 3, 3, 3, seed).union(
                    &owql_rdf::graph::graph_from(&[
                        ("1", "a", "b"),
                        ("1", "c", "2"),
                        ("i0", "i1", "i2"),
                    ]),
                );
                assert_eq!(evaluate(&p, &g), evaluate(&usp, &g), "{text} seed {seed}");
            }
        }
    }

    /// The embedding preserves even the subsumed answers (plain ≡, the
    /// point of fixed domains).
    #[test]
    fn aufs_embedding_keeps_subsumed_answers() {
        use owql_eval::reference::evaluate;
        let p = parse_pattern("((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y)))").unwrap();
        let usp = aufs_to_usp(&p).unwrap();
        let g = owql_rdf::graph::graph_from(&[("1", "a", "b"), ("1", "c", "2")]);
        let out = evaluate(&usp, &g);
        assert_eq!(out.len(), 2);
        assert!(!out.is_subsumption_free());
    }

    /// The Section 8 claim: projection on top of ns-patterns preserves
    /// weak monotonicity (bounded-checked).
    #[test]
    fn projected_usp_is_weakly_monotone() {
        let opts = CheckOptions {
            universe_size: 6,
            random_graphs: 8,
            random_graph_size: 8,
            ..CheckOptions::default()
        };
        let p = q(
            "(SELECT {?x} WHERE (NS(((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y)))) \
                   UNION NS((?x, d, ?z))))",
        );
        assert!(matches!(classify(&p), Fragment::ProjectedUspSparql { .. }));
        assert!(checks::weakly_monotone(&p, &opts).holds());
    }
}
