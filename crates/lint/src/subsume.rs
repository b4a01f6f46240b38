//! Fragment-bounded containment between UNION branches.
//!
//! Full pattern containment is undecidable as soon as OPT is involved
//! (Kaminski & Kostylev prove it already for weakly well-designed
//! patterns), so this module draws the line exactly where decidability
//! is easy and the proof is one paragraph: branches restricted to the
//! **AND/FILTER fragment** (conjunctions of triple patterns plus
//! filter conditions). [`conjunctive`] flattens such a branch to a
//! canonical [`ConjunctiveBranch`]; any other operator — OPT, UNION,
//! MINUS, SELECT, NS — makes it return `None` and the analyzer stays
//! silent. No sampling, no heuristics: [`subsumes`] is a sound
//! syntactic criterion.
//!
//! **Soundness.** Let `a`, `b` be conjunctive branches with
//! `var(a.triples) = var(b.triples)`, `a.triples ⊆ b.triples`, and
//! `a.filters ⊆ b.filters` (as canonicalized conjunct sets). Take any
//! graph `G` and `µ ∈ ⟦b⟧G`. Then `dom(µ) = var(b.triples)` and `µ`
//! maps every triple of `b` into `G`; since `a`'s triples are a subset,
//! `µ` maps every triple of `a` into `G`, and the variable-set equality
//! gives `dom(µ) = var(a.triples)`. Every filter conjunct of `a` is
//! also a conjunct of `b`, all satisfied by `µ`. Hence `µ ∈ ⟦a⟧G`, so
//! `⟦b⟧G ⊆ ⟦a⟧G`: dropping `b` from `a UNION b` changes nothing —
//! the answer **sets** are equal, which keeps the rewrite sound in any
//! context, including under NS and MINUS.

use owql_algebra::condition::Condition;
use owql_algebra::pattern::{Pattern, TriplePattern};
use owql_algebra::variable::Variable;
use std::collections::BTreeSet;

/// A UNION branch flattened to the AND/FILTER fragment: a set of
/// triple patterns plus a canonicalized set of filter conjuncts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConjunctiveBranch {
    /// The triple patterns joined by the branch's AND spine.
    pub triples: BTreeSet<TriplePattern>,
    /// Canonical renderings of the filter conjuncts (`?X = ?Y`
    /// operands sorted, trivial `true` conjuncts dropped).
    pub filters: BTreeSet<String>,
    /// `var(triples)` — the domain of every answer of the branch.
    pub vars: BTreeSet<Variable>,
}

/// Flattens `p` into a [`ConjunctiveBranch`] iff it lies in the
/// AND/FILTER fragment. Returns `None` on any OPT, UNION, MINUS,
/// SELECT, or NS — the operators for which containment is undecidable
/// or (SELECT/NS) would need a genuinely different criterion.
pub fn conjunctive(p: &Pattern) -> Option<ConjunctiveBranch> {
    let mut triples = BTreeSet::new();
    let mut filters = BTreeSet::new();
    flatten(p, &mut triples, &mut filters)?;
    let vars = triples.iter().flat_map(|t| t.vars()).collect();
    Some(ConjunctiveBranch {
        triples,
        filters,
        vars,
    })
}

fn flatten(
    p: &Pattern,
    triples: &mut BTreeSet<TriplePattern>,
    filters: &mut BTreeSet<String>,
) -> Option<()> {
    match p {
        Pattern::Triple(t) => {
            triples.insert(*t);
            Some(())
        }
        Pattern::And(a, b) => {
            flatten(a, triples, filters)?;
            flatten(b, triples, filters)
        }
        Pattern::Filter(q, r) => {
            collect_conjuncts(r, filters);
            flatten(q, triples, filters)
        }
        // Outside the decidable fragment: refuse.
        Pattern::Union(..)
        | Pattern::Opt(..)
        | Pattern::Minus(..)
        | Pattern::Select(..)
        | Pattern::Ns(..) => None,
    }
}

/// Splits a condition on top-level `∧` and records each conjunct's
/// canonical rendering.
fn collect_conjuncts(r: &Condition, out: &mut BTreeSet<String>) {
    match r {
        Condition::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        Condition::True => {}
        other => {
            out.insert(canonical(other));
        }
    }
}

/// Canonical rendering: `?X = ?Y` orders its operands, everything else
/// renders recursively through `Display`.
fn canonical(r: &Condition) -> String {
    match r {
        Condition::EqVar(v, w) if w < v => Condition::EqVar(*w, *v).to_string(),
        Condition::Not(inner) => format!("!({})", canonical(inner)),
        Condition::And(a, b) => format!("({} && {})", canonical(a), canonical(b)),
        Condition::Or(a, b) => format!("({} || {})", canonical(a), canonical(b)),
        other => other.to_string(),
    }
}

/// `true` iff `⟦b⟧G ⊆ ⟦a⟧G` on every graph `G`, by the syntactic
/// criterion proven sound in the module docs: equal triple-variable
/// sets, `a`'s triples a subset of `b`'s, and `a`'s filter conjuncts a
/// subset of `b`'s.
pub fn subsumes(a: &ConjunctiveBranch, b: &ConjunctiveBranch) -> bool {
    a.vars == b.vars && a.triples.is_subset(&b.triples) && a.filters.is_subset(&b.filters)
}

/// Pattern-level convenience: `true` iff both patterns flatten to the
/// AND/FILTER fragment and the branch `a` subsumes the branch `b`
/// (every answer of `b` is an answer of `a`, on every graph).
pub fn branch_subsumes(a: &Pattern, b: &Pattern) -> bool {
    match (conjunctive(a), conjunctive(b)) {
        (Some(a), Some(b)) => subsumes(&a, &b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broader_branch_subsumes_the_refinement() {
        let a = Pattern::t("?x", "p", "?y");
        let b = Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "q", "?x"));
        // b's answers bind exactly {x, y} and satisfy a's only triple.
        assert!(branch_subsumes(&a, &b));
        assert!(!branch_subsumes(&b, &a));
    }

    #[test]
    fn variable_set_mismatch_blocks_subsumption() {
        // Domains differ ({x} vs {x, y}): mappings of b are not
        // answers of a even though a's triples ⊆ b's.
        let a = Pattern::t("?x", "p", "c");
        let b = Pattern::t("?x", "p", "c").and(Pattern::t("?x", "q", "?y"));
        assert!(!branch_subsumes(&a, &b));
    }

    #[test]
    fn filter_conjuncts_compare_canonically() {
        let a = Pattern::t("?x", "p", "?y").filter(Condition::eq_var("x", "y"));
        let b = Pattern::t("?x", "p", "?y")
            .filter(Condition::eq_var("y", "x").and(Condition::bound("x")));
        // a's conjunct {?x = ?y} ⊆ b's {?x = ?y, bound(?x)} after
        // operand sorting.
        assert!(branch_subsumes(&a, &b));
        assert!(!branch_subsumes(&b, &a));
        // Identical branches subsume both ways.
        assert!(branch_subsumes(&a, &a));
    }

    #[test]
    fn opt_and_friends_are_refused() {
        let conj = Pattern::t("?x", "p", "?y");
        let opt = Pattern::t("?x", "p", "?y").opt(Pattern::t("?x", "q", "?z"));
        assert!(conjunctive(&opt).is_none());
        assert!(!branch_subsumes(&conj, &opt));
        assert!(!branch_subsumes(&opt, &conj));
        assert!(conjunctive(&Pattern::t("?x", "p", "?y").ns()).is_none());
        assert!(conjunctive(&Pattern::t("?x", "p", "?y").select(["?x"])).is_none());
        assert!(
            conjunctive(&Pattern::t("?x", "p", "?y").minus(Pattern::t("?x", "q", "b"))).is_none()
        );
        assert!(
            conjunctive(&Pattern::t("?x", "p", "?y").union(Pattern::t("?x", "q", "?y"))).is_none()
        );
    }
}
