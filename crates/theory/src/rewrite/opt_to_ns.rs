//! The `OPT → NS` simulation of Section 5.1.
//!
//! The paper observes that `(P₁ OPT P₂)` "is equivalent to"
//! `NS(P₁ UNION (P₁ AND P₂))`, positioning NS as the open-world
//! replacement for OPT. Taken as *plain* equivalence the claim needs a
//! caveat: when `⟦P₁⟧G` itself contains a properly subsumed mapping
//! that is incompatible with every `⟦P₂⟧G` mapping, `OPT` keeps it but
//! `NS` removes it (see `plain_equivalence_counterexample` below). The
//! two sides are always **subsumption-equivalent** (`≡s`), and coincide
//! whenever `⟦P₁⟧G` is subsumption-free — in particular on all of
//! `SPARQL[AOF]` (Proposition B.1 territory), which is where OPT
//! normally lives.
//!
//! Proof of `≡s` (both directions of `⊑`, for any `G`):
//! every OPT answer lies in `Ω₁ ∪ (Ω₁ ⋈ Ω₂)` and is thus subsumed by a
//! maximal element of it; conversely every maximal element of
//! `Ω₁ ∪ (Ω₁ ⋈ Ω₂)` is itself an OPT answer (a maximal `µ ∈ Ω₁`
//! compatible with some `µ₂ ∈ Ω₂` satisfies `µ ∪ µ₂ = µ` by
//! maximality, so it is in the join; otherwise it is in the
//! difference).

use owql_algebra::pattern::Pattern;

/// Replaces every `OPT` node by `NS(left UNION (left AND right))`,
/// recursively. The result is OPT-free and subsumption-equivalent to
/// the input on every graph; the left operand is duplicated, so the
/// output can be exponentially larger in the OPT-nesting depth
/// (experiment E12 times OPT against its NS phrasing).
pub fn opt_to_ns(p: &Pattern) -> Pattern {
    match p {
        Pattern::Triple(t) => Pattern::Triple(*t),
        Pattern::Opt(a, b) => {
            let a = opt_to_ns(a);
            let b = opt_to_ns(b);
            a.clone().union(a.and(b)).ns()
        }
        Pattern::And(a, b) => opt_to_ns(a).and(opt_to_ns(b)),
        Pattern::Union(a, b) => opt_to_ns(a).union(opt_to_ns(b)),
        Pattern::Minus(a, b) => opt_to_ns(a).minus(opt_to_ns(b)),
        Pattern::Filter(q, r) => opt_to_ns(q).filter(r.clone()),
        Pattern::Select(v, q) => Pattern::Select(v.clone(), Box::new(opt_to_ns(q))),
        Pattern::Ns(q) => opt_to_ns(q).ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_algebra::analysis::{operators, Operators};
    use owql_algebra::random::{random_pattern, PatternConfig};
    use owql_eval::reference::evaluate;
    use owql_rdf::graph::graph_from;

    #[test]
    fn result_is_opt_free() {
        let p = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y").opt(Pattern::t("?y", "d", "?z")));
        let q = opt_to_ns(&p);
        assert!(!operators(&q).contains(Operators::OPT));
        assert!(operators(&q).contains(Operators::NS));
    }

    #[test]
    fn example_3_1_exact_equivalence() {
        // The mandatory side is a single triple pattern (subsumption
        // free), so OPT and its NS simulation agree exactly.
        let p = Pattern::t("?X", "was_born_in", "Chile").opt(Pattern::t("?X", "email", "?Y"));
        let q = opt_to_ns(&p);
        for g in [
            owql_rdf::datasets::figure_2_g1(),
            owql_rdf::datasets::figure_2_g2(),
            owql_rdf::Graph::new(),
        ] {
            assert_eq!(evaluate(&p, &g), evaluate(&q, &g));
        }
    }

    /// The caveat documented in the module: plain equivalence can fail
    /// when the mandatory side already carries subsumed answers.
    #[test]
    fn plain_equivalence_counterexample() {
        // P₁ = (?x,a,b) UNION ((?x,a,b) AND (?x,c,?y)) produces the
        // subsumed pair {[x→1], [x→1,y→2]}; P₂ matches nothing.
        let p1 = Pattern::t("?x", "a", "b")
            .union(Pattern::t("?x", "a", "b").and(Pattern::t("?x", "c", "?y")));
        let p2 = Pattern::t("?z", "never", "matches");
        let opt = p1.clone().opt(p2.clone());
        let ns = opt_to_ns(&opt);
        let g = graph_from(&[("1", "a", "b"), ("1", "c", "2")]);
        let out_opt = evaluate(&opt, &g);
        let out_ns = evaluate(&ns, &g);
        assert_ne!(out_opt, out_ns, "plain equivalence fails here by design");
        assert_eq!(out_opt.len(), 2);
        assert_eq!(out_ns.len(), 1);
        // ... but subsumption equivalence holds.
        assert!(out_opt.subsumed_by(&out_ns));
        assert!(out_ns.subsumed_by(&out_opt));
    }

    /// Randomized ≡s check: on random patterns and graphs, the rewrite
    /// is subsumption-equivalent (both ⊑ directions).
    #[test]
    fn random_subsumption_equivalence() {
        let cfg = PatternConfig {
            allowed: Operators::SPARQL,
            max_depth: 3,
            ..PatternConfig::standard(3, 4)
        };
        for seed in 0..150u64 {
            let p = random_pattern(&cfg, seed);
            let q = opt_to_ns(&p);
            let g = owql_rdf::generate::uniform(25, 4, 4, 4, seed ^ 0xAB).union(&graph_from(&[
                ("i0", "i1", "i2"),
                ("i1", "i2", "i3"),
                ("i3", "i0", "i0"),
            ]));
            let out_p = evaluate(&p, &g);
            let out_q = evaluate(&q, &g);
            assert!(
                out_p.subsumed_by(&out_q) && out_q.subsumed_by(&out_p),
                "seed {seed}: {p} vs {q}"
            );
        }
    }

    /// On well-designed (hence AOF, hence subsumption-free-operand)
    /// patterns the rewrite preserves plain equivalence.
    #[test]
    fn exact_on_well_designed_patterns() {
        let cfg = PatternConfig {
            allowed: Operators::AOF,
            max_depth: 3,
            ..PatternConfig::standard(3, 4)
        };
        let mut tested = 0;
        for seed in 0..300u64 {
            let p = random_pattern(&cfg, seed);
            if owql_algebra::well_designed::well_designed_aof(&p).is_err() {
                continue;
            }
            tested += 1;
            let q = opt_to_ns(&p);
            let g = owql_rdf::generate::uniform(20, 4, 4, 4, seed)
                .union(&graph_from(&[("i0", "i1", "i2"), ("i2", "i3", "i0")]));
            assert_eq!(evaluate(&p, &g), evaluate(&q, &g), "seed {seed}: {p}");
        }
        assert!(tested > 20, "too few well-designed samples: {tested}");
    }
}
