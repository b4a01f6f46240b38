//! A static, semantics-preserving pattern optimizer.
//!
//! The rewrite rules are all justified by facts established in the
//! paper or by the algebra's definitions, and every rule is
//! property-tested for exact equivalence against the reference
//! evaluator:
//!
//! 1. **Condition folding** — boolean simplification of FILTER
//!    conditions (`¬true → false`, `R ∧ true → R`, ...).
//! 2. **Filter fusion** — `((P FILTER R₁) FILTER R₂) →
//!    (P FILTER R₁ ∧ R₂)`.
//! 3. *(reserved — filter/UNION distribution lives in the normal-form
//!    module, Prop D.1: it grows the tree, so the optimizer skips it).
//! 4. **Filter pushdown** — `(P₁ AND P₂) FILTER R → (P₁ FILTER R) AND
//!    P₂` when `var(R)` is *certainly bound* by `P₁`
//!    ([`owql_lint::Bindings::of`]), shrinking join inputs before the
//!    join. When `P₁` is a triple `t` and `var(R) ⊆ var(t)`, the plan
//!    runs the pushed FILTER on `t`'s scan step, after the steps that
//!    bind `t`'s shared columns (`crate::plan`); otherwise `P₁ FILTER
//!    R` is a subpattern that seeds the spine.
//! 5. **Projection fusion** — `SELECT V (SELECT W P) → SELECT (V∩W) P`;
//!    `SELECT V P → P` when `var(P) ⊆ V`.
//! 6. **NS idempotence** — `NS(NS(P)) → NS(P)` (maximality is
//!    idempotent).
//! 7. **NS elision on subsumption-free fragments** — `NS(P) → P` when
//!    `P ∈ SPARQL[AOF]` or `P ∈ SPARQL[AFS]`: Section 5.2 of the paper
//!    establishes that every pattern in these fragments is
//!    subsumption-free, so taking maximal answers is the identity.
//! 8. **OPT normal form** — `(P₁ OPT P₂) AND P₃ → (P₁ AND P₃) OPT P₂`
//!    and `P₁ AND (P₂ OPT P₃) → (P₁ AND P₂) OPT P₃` lift OPTs above
//!    ANDs, so the AND-spine flattening of the engine sees the full
//!    join spine; `(P₁ OPT P₂) FILTER R → (P₁ FILTER R) OPT P₂` floats
//!    a FILTER to the mandatory core when the core's triples bind
//!    `var(R)`. These equivalences hold only on *well-designed*
//!    patterns (Pérez, Arenas, Gutierrez, TODS 2009). The rule is
//!    [`owql_algebra::pattern_tree::opt_normal_form`], applied to each
//!    top-level UNION disjunct; a disjunct it refuses (not
//!    well-designed, or a FILTER over optional variables) is kept
//!    unchanged.
//!
//! On top of the shrink rules, [`optimize_with_stats`] runs one
//! **certified pruning** pass driven by the `owql-lint`
//! semantic dataflow analysis — the analyzer verdicts consumed as
//! proofs rather than hints:
//!
//! * **FL003 / unsatisfiable filter** — a `FILTER` whose condition the
//!   constraint-propagation check ([`owql_lint::filter_satisfiable`])
//!   refutes against the binding lattice denotes `∅` on every graph;
//!   the subtree is replaced by an always-empty marker.
//! * **UN002 / subsumed branch** — a UNION branch whose answers are
//!   contained in a sibling's on every graph
//!   ([`owql_lint::branch_subsumes`], AND/FILTER fragment only) is
//!   dropped from the union spine.
//! * **BD001 / collapsible OPT** — `(P₁ OPT P₂) FILTER R` collapses to
//!   `(P₁ AND P₂) FILTER R` when `R` requires a binding that only the
//!   optional side can certainly supply: rows where the OPT degraded
//!   to `P₁` alone cannot satisfy `R`, so the outer join is a join.
//!
//! Each prune is an exact answer-set equality (not mere containment),
//! so the rewrites stay sound under any enclosing context — including
//! non-monotone `NS` and `MINUS`. Provable emptiness propagates
//! upward through the algebra (`∅ AND P → ∅`, `P OPT ∅ → P`,
//! `P MINUS ∅ → P`, a UNION drops empty branches, …). The counts of
//! applied prunes surface in [`owql_obs::PruneObs`] and flow into
//! query profiles, the metrics hub, and Prometheus
//! `owql_lint_prunes_total`.
//!
//! The optimizer is purely syntactic and terminates: each pass either
//! strictly shrinks the tree or is applied once bottom-up (rule 8 is a
//! single recursive pass).

use owql_algebra::analysis::{in_fragment, pattern_vars, triple_patterns, Operators};
use owql_algebra::condition::Condition;
use owql_algebra::pattern::Pattern;
use owql_algebra::pattern_tree::opt_normal_form;
use owql_lint::{branch_subsumes, filter_satisfiable, must_bind, Bindings, Satisfiability};
use owql_obs::PruneObs;

/// Simplifies a FILTER condition by constant folding.
pub fn simplify_condition(r: &Condition) -> Condition {
    match r {
        Condition::Not(inner) => match simplify_condition(inner) {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Not(doubly) => *doubly,
            other => other.not(),
        },
        Condition::And(a, b) => match (simplify_condition(a), simplify_condition(b)) {
            (Condition::False, _) | (_, Condition::False) => Condition::False,
            (Condition::True, other) | (other, Condition::True) => other,
            (a, b) => a.and(b),
        },
        Condition::Or(a, b) => match (simplify_condition(a), simplify_condition(b)) {
            (Condition::True, _) | (_, Condition::True) => Condition::True,
            (Condition::False, other) | (other, Condition::False) => other,
            (a, b) => a.or(b),
        },
        Condition::EqVar(v, w) if v == w => Condition::Bound(*v),
        atom => atom.clone(),
    }
}

/// One bottom-up optimization pass.
fn pass(p: &Pattern) -> Pattern {
    match p {
        Pattern::Triple(t) => Pattern::Triple(*t),
        Pattern::And(a, b) => pass(a).and(pass(b)),
        Pattern::Union(a, b) => pass(a).union(pass(b)),
        Pattern::Opt(a, b) => pass(a).opt(pass(b)),
        Pattern::Minus(a, b) => pass(a).minus(pass(b)),
        Pattern::Filter(q, r) => {
            let q = pass(q);
            let r = simplify_condition(r);
            match (q, r) {
                // Rule 1: trivially-true filter disappears.
                (q, Condition::True) => q,
                // Rule 2: fuse stacked filters.
                (Pattern::Filter(inner, r1), r2) => {
                    pass(&Pattern::Filter(inner, r1).filter(r2).fuse_filters())
                }
                // Rule 4: push below AND when safe. Certain bindings
                // come from the lint dataflow lattice — strictly
                // richer than the old syntactic certainly-bound set
                // (it sees through FILTERs that force bindings), and
                // still an under-approximation, so the push stays
                // sound: joined rows agree with the pushed-side row on
                // every certainly-bound variable.
                (Pattern::And(a, b), r) => {
                    if r.vars().is_subset(&Bindings::of(&a).certain) {
                        pass(&a.filter(r).and(*b))
                    } else if r.vars().is_subset(&Bindings::of(&b).certain) {
                        pass(&a.and(b.filter(r)))
                    } else {
                        Pattern::And(a, b).filter(r)
                    }
                }
                (q, r) => q.filter(r),
            }
        }
        Pattern::Select(v, q) => {
            let q = pass(q);
            match q {
                // Rule 5a: fuse stacked projections.
                Pattern::Select(w, inner) => {
                    let vw = v.intersection(&w).copied().collect();
                    pass(&Pattern::Select(vw, inner))
                }
                // Rule 5b: drop a projection that keeps everything.
                q if pattern_vars(&q).is_subset(v) => q,
                q => Pattern::Select(v.clone(), Box::new(q)),
            }
        }
        Pattern::Ns(q) => {
            let q = pass(q);
            match q {
                // Rule 6: NS is idempotent.
                Pattern::Ns(inner) => Pattern::Ns(inner),
                // Rule 7: Section 5.2 — SPARQL[AOF] and SPARQL[AFS]
                // patterns are subsumption-free, so NS is the identity.
                q if in_fragment(&q, Operators::AOF) || in_fragment(&q, Operators::AFS) => q,
                q => q.ns(),
            }
        }
    }
}

/// Helper used by rule 2: `(P FILTER R₁) FILTER R₂ → P FILTER R₁∧R₂`.
trait FuseFilters {
    fn fuse_filters(self) -> Pattern;
}

impl FuseFilters for Pattern {
    fn fuse_filters(self) -> Pattern {
        if let Pattern::Filter(outer, r2) = self {
            if let Pattern::Filter(inner, r1) = *outer {
                return inner.filter(simplify_condition(&r1.and(r2)));
            }
            return outer.filter(r2);
        }
        self
    }
}

/// Rule 8: OPT normal form per top-level UNION disjunct. A disjunct
/// [`opt_normal_form`] refuses is returned unchanged.
fn opt_normal_form_per_disjunct(p: &Pattern) -> Pattern {
    match p {
        Pattern::Union(a, b) => {
            opt_normal_form_per_disjunct(a).union(opt_normal_form_per_disjunct(b))
        }
        other => opt_normal_form(other).unwrap_or_else(|_| other.clone()),
    }
}

/// The shrink rules (1–7) to a fixpoint (bounded number of passes;
/// each pass is linear in the tree).
fn shrink_fixpoint(p: &Pattern) -> Pattern {
    let mut current = p.clone();
    for _ in 0..8 {
        let next = pass(&current);
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// A pruned subtree: its rewritten pattern, and whether the analyzer
/// proved it denotes `∅` on every graph.
struct Pruned {
    pattern: Pattern,
    empty: bool,
}

impl Pruned {
    fn keep(pattern: Pattern) -> Pruned {
        Pruned {
            pattern,
            empty: false,
        }
    }

    /// Marks a subtree provably empty. The carried pattern is an
    /// always-empty placeholder ([`empty_marker`]) in case emptiness
    /// cannot be absorbed by the enclosing operator (e.g. at the
    /// root): it evaluates to `∅` on every graph, cheaply.
    fn empty(original: &Pattern) -> Pruned {
        Pruned {
            pattern: empty_marker(original),
            empty: true,
        }
    }
}

/// `t₀ FILTER false` for the most-constant triple pattern `t₀` of the
/// pruned subtree — denotes `∅` on every graph, and the engine's scan
/// over the most-selective access path keeps even the degenerate
/// evaluation cheap.
fn empty_marker(original: &Pattern) -> Pattern {
    let t = triple_patterns(original)
        .into_iter()
        .min_by_key(|t| t.vars().len())
        .expect("every pattern contains a triple");
    Pattern::Triple(t).filter(Condition::False)
}

/// One bottom-up certified-pruning pass. Every rewrite is an exact
/// answer-set equality proven by the `owql-lint` semantic dataflow
/// analysis (see the module docs), so the pass is sound in any
/// enclosing context, including `NS` and `MINUS`. Counts each applied
/// prune in `obs`; emptiness discovered below propagates upward
/// through the algebra without further counting.
fn prune(p: &Pattern, obs: &mut PruneObs) -> Pruned {
    match p {
        Pattern::Triple(t) => Pruned::keep(Pattern::Triple(*t)),
        // ⟦P₁ AND P₂⟧ = ⟦P₁⟧ ⋈ ⟦P₂⟧: a join with ∅ is ∅.
        Pattern::And(a, b) => {
            let a = prune(a, obs);
            let b = prune(b, obs);
            if a.empty || b.empty {
                Pruned::empty(p)
            } else {
                Pruned::keep(a.pattern.and(b.pattern))
            }
        }
        // A UNION spine drops provably-empty and subsumed branches.
        Pattern::Union(_, _) => {
            let mut kept: Vec<Pattern> = Vec::new();
            for branch in p.disjuncts() {
                let pruned = prune(branch, obs);
                if pruned.empty {
                    continue;
                }
                let branch = pruned.pattern;
                // UN002: a branch whose answers a kept sibling already
                // contains (on every graph) adds nothing to the union.
                if kept
                    .iter()
                    .any(|k| k == &branch || branch_subsumes(k, &branch))
                {
                    obs.subsumed_branches += 1;
                    continue;
                }
                // ... and a new branch can retroactively subsume
                // earlier kept ones (strictly: the reverse direction
                // was just checked).
                kept.retain(|k| {
                    if branch_subsumes(&branch, k) {
                        obs.subsumed_branches += 1;
                        false
                    } else {
                        true
                    }
                });
                kept.push(branch);
            }
            match kept.into_iter().reduce(|acc, b| acc.union(b)) {
                Some(pattern) => Pruned::keep(pattern),
                None => Pruned::empty(p),
            }
        }
        // ⟦P₁ OPT P₂⟧ = (⟦P₁⟧ ⋈ ⟦P₂⟧) ∪ (⟦P₁⟧ ∖ ⟦P₂⟧): with ⟦P₂⟧ = ∅
        // the join side vanishes and the difference is ⟦P₁⟧; with
        // ⟦P₁⟧ = ∅ both sides vanish.
        Pattern::Opt(a, b) => {
            let a = prune(a, obs);
            let b = prune(b, obs);
            if a.empty {
                Pruned::empty(p)
            } else if b.empty {
                a
            } else {
                Pruned::keep(a.pattern.opt(b.pattern))
            }
        }
        // ⟦P₁ MINUS P₂⟧ ⊆ ⟦P₁⟧, and `P MINUS ∅ = P`.
        Pattern::Minus(a, b) => {
            let a = prune(a, obs);
            let b = prune(b, obs);
            if a.empty {
                Pruned::empty(p)
            } else if b.empty {
                a
            } else {
                Pruned::keep(a.pattern.minus(b.pattern))
            }
        }
        Pattern::Filter(q, r) => {
            let q = prune(q, obs);
            if q.empty {
                return Pruned::empty(p);
            }
            let mut q = q.pattern;
            // BD001: `(P₁ OPT P₂) FILTER R` where R requires a
            // variable that P₂ certainly binds and P₁ cannot bind at
            // all. Rows from the no-match side of the OPT leave the
            // variable unbound, so R rejects them — only joined rows
            // survive, and the outer join is a plain join.
            if let Pattern::Opt(a, b) = &q {
                let ba = Bindings::of(a);
                let bb = Bindings::of(b);
                if must_bind(r)
                    .iter()
                    .any(|v| bb.certain.contains(v) && !ba.possible.contains(v))
                {
                    obs.opt_collapses += 1;
                    q = a.clone().and((**b).clone());
                }
            }
            // FL003: a condition the constraint propagation refutes
            // against the binding lattice rejects every mapping.
            if filter_satisfiable(r, &Bindings::of(&q)) == Satisfiability::Unsat {
                obs.unsat_filters += 1;
                return Pruned::empty(p);
            }
            Pruned::keep(q.filter(r.clone()))
        }
        // ⟦SELECT V P⟧ and ⟦NS(P)⟧ are projections/maximal subsets of
        // images of ⟦P⟧ — empty iff ⟦P⟧ is.
        Pattern::Select(v, q) => {
            let q = prune(q, obs);
            if q.empty {
                Pruned::empty(p)
            } else {
                Pruned::keep(Pattern::Select(v.clone(), Box::new(q.pattern)))
            }
        }
        Pattern::Ns(q) => {
            let q = prune(q, obs);
            if q.empty {
                Pruned::empty(p)
            } else {
                Pruned::keep(q.pattern.ns())
            }
        }
    }
}

/// Optimizes a pattern and reports which certified prunes fired.
///
/// Pass order: shrink rules to a fixpoint (so the prune analysis sees
/// folded conditions and fused filters), one certified-pruning pass,
/// shrink again (pruning may expose new shrink opportunities, e.g. a
/// UNION reduced to one branch under an elidable NS), then the OPT
/// normal form (rule 8) followed, if it changed anything, by a final
/// shrink of the rewritten tree.
pub fn optimize_with_stats(p: &Pattern) -> (Pattern, PruneObs) {
    let mut obs = PruneObs::default();
    let mut current = shrink_fixpoint(p);
    current = prune(&current, &mut obs).pattern;
    current = shrink_fixpoint(&current);
    let normal = opt_normal_form_per_disjunct(&current);
    if normal != current {
        current = shrink_fixpoint(&normal);
    }
    (current, obs)
}

/// Optimizes a pattern to a fixpoint (bounded number of passes; each
/// pass is linear in the tree). Shorthand for [`optimize_with_stats`]
/// discarding the prune counters.
pub fn optimize(p: &Pattern) -> Pattern {
    optimize_with_stats(p).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::evaluate;
    use owql_algebra::analysis::operators;
    use owql_algebra::random::{random_pattern, PatternConfig};
    use owql_algebra::well_designed::well_designed_aof;
    use owql_rdf::graph::graph_from;

    #[test]
    fn condition_folding() {
        let r = Condition::True.and(Condition::bound("x"));
        assert_eq!(simplify_condition(&r), Condition::bound("x"));
        assert_eq!(
            simplify_condition(&Condition::False.or(Condition::bound("x"))),
            Condition::bound("x")
        );
        assert_eq!(simplify_condition(&Condition::True.not()), Condition::False);
        assert_eq!(
            simplify_condition(&Condition::bound("x").not().not()),
            Condition::bound("x")
        );
        assert_eq!(
            simplify_condition(&Condition::eq_var("x", "x")),
            Condition::bound("x")
        );
        assert_eq!(
            simplify_condition(&Condition::False.and(Condition::bound("x"))),
            Condition::False
        );
    }

    #[test]
    fn trivial_filter_removed() {
        let p = Pattern::t("?x", "a", "b").filter(Condition::True);
        assert_eq!(optimize(&p), Pattern::t("?x", "a", "b"));
    }

    #[test]
    fn stacked_filters_fuse() {
        let p = Pattern::t("?x", "a", "?y")
            .filter(Condition::bound("x"))
            .filter(Condition::bound("y"));
        let o = optimize(&p);
        // One filter node left.
        let mut filter_count = 0;
        fn count(p: &Pattern, n: &mut usize) {
            match p {
                Pattern::Filter(q, _) => {
                    *n += 1;
                    count(q, n);
                }
                Pattern::And(a, b)
                | Pattern::Union(a, b)
                | Pattern::Opt(a, b)
                | Pattern::Minus(a, b) => {
                    count(a, n);
                    count(b, n);
                }
                Pattern::Select(_, q) | Pattern::Ns(q) => count(q, n),
                Pattern::Triple(_) => {}
            }
        }
        count(&o, &mut filter_count);
        assert_eq!(filter_count, 1);
    }

    #[test]
    fn filter_pushes_into_and() {
        let p = Pattern::t("?x", "a", "?y")
            .and(Pattern::t("?y", "b", "?z"))
            .filter(Condition::eq_const("x", "k"));
        let o = optimize(&p);
        // The filter should now sit on the left conjunct.
        match o {
            Pattern::And(left, _) => assert!(matches!(*left, Pattern::Filter(..))),
            other => panic!("expected AND at root, got {other}"),
        }
    }

    #[test]
    fn filter_not_pushed_when_unsafe() {
        // (bound(?z) || bound(?x)) must stay above the OPT: neither
        // variable is required (must_bind of a disjunction is the
        // intersection), so the OPT cannot collapse, and the filter
        // cannot move below the outer join.
        let p = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?z"))
            .filter(Condition::bound("z").or(Condition::bound("x")));
        assert_eq!(optimize(&p), p);
    }

    #[test]
    fn collapsible_opt_filter_becomes_join() {
        // BD001: bound(?z) is required, ?z is certain on the optional
        // side and impossible on the left — the OPT is a join, and the
        // filter then pushes onto the right conjunct.
        let t1 = Pattern::t("?x", "a", "b");
        let t2 = Pattern::t("?x", "c", "?z");
        let p = t1.clone().opt(t2.clone()).filter(Condition::bound("z"));
        let (o, obs) = optimize_with_stats(&p);
        assert_eq!(obs.opt_collapses, 1);
        assert_eq!(obs.total(), 1);
        assert_eq!(o, t1.and(t2.filter(Condition::bound("z"))));
        let g = graph_from(&[("1", "a", "b"), ("1", "c", "2"), ("3", "a", "b")]);
        assert_eq!(evaluate(&p, &g), evaluate(&o, &g));
    }

    #[test]
    fn unsatisfiable_filter_prunes_to_empty_marker() {
        // ?y cannot equal two distinct constants at once.
        let p = Pattern::t("?x", "a", "?y")
            .filter(Condition::eq_const("y", "c1").and(Condition::eq_const("y", "c2")));
        let (o, obs) = optimize_with_stats(&p);
        assert_eq!(obs.unsat_filters, 1);
        assert_eq!(o, Pattern::t("?x", "a", "?y").filter(Condition::False));
        let g = graph_from(&[("1", "a", "c1"), ("2", "a", "c2")]);
        assert!(evaluate(&o, &g).is_empty());
        assert_eq!(evaluate(&p, &g), evaluate(&o, &g));
    }

    #[test]
    fn emptiness_propagates_through_the_algebra() {
        let empty = Pattern::t("?x", "a", "?y")
            .filter(Condition::eq_const("y", "c1").and(Condition::eq_const("y", "c2")));
        let t = Pattern::t("?u", "b", "?v");
        // P OPT ∅ → P and P MINUS ∅ → P.
        let (o, obs) = optimize_with_stats(&t.clone().opt(empty.clone()));
        assert_eq!((o, obs.unsat_filters), (t.clone(), 1));
        let (o, _) = optimize_with_stats(&t.clone().minus(empty.clone()));
        assert_eq!(o, t.clone());
        // ∅ AND P → ∅ (the marker cites the pruned subtree's most
        // constant triple), and a UNION drops the empty branch.
        let (o, _) = optimize_with_stats(&empty.clone().and(t.clone()));
        assert_eq!(o, Pattern::t("?x", "a", "?y").filter(Condition::False));
        let (o, _) = optimize_with_stats(&empty.clone().union(t.clone()));
        assert_eq!(o, t.clone());
        // NS(∅) and SELECT over ∅ stay empty.
        let (o, _) = optimize_with_stats(&empty.clone().ns().select(["?x"]));
        assert_eq!(o, Pattern::t("?x", "a", "?y").filter(Condition::False));
    }

    #[test]
    fn subsumed_union_branch_is_dropped() {
        // ⟦broad AND extra⟧ ⊆ ⟦broad⟧ on every graph (equal variable
        // sets, superset of triples) — the refined branch is dropped
        // whichever side of the UNION it sits on.
        let broad = Pattern::t("?x", "a", "?y");
        let refined = broad.clone().and(Pattern::t("?y", "b", "?x"));
        let (o, obs) = optimize_with_stats(&broad.clone().union(refined.clone()));
        assert_eq!(obs.subsumed_branches, 1);
        assert_eq!(o, broad);
        let (o, obs) = optimize_with_stats(&refined.clone().union(broad.clone()));
        assert_eq!(obs.subsumed_branches, 1);
        assert_eq!(o, broad);
        let g = graph_from(&[("1", "a", "2"), ("2", "b", "1"), ("3", "a", "4")]);
        assert_eq!(
            evaluate(&broad.clone().union(refined), &g),
            evaluate(&o, &g)
        );
        // Distinct variable sets must block subsumption: OPT-like
        // unions of different shapes keep both branches.
        let other = Pattern::t("?x", "a", "?z");
        let (o, obs) = optimize_with_stats(&broad.clone().union(other.clone()));
        assert_eq!(obs.subsumed_branches, 0);
        assert_eq!(o, broad.union(other));
    }

    #[test]
    fn projection_rules() {
        let p = Pattern::t("?x", "a", "?y").select(["?x", "?y"]);
        assert_eq!(optimize(&p), Pattern::t("?x", "a", "?y"));
        let nested = Pattern::t("?x", "a", "?y")
            .select(["?x", "?y"])
            .select(["?x"]);
        assert_eq!(
            optimize(&nested),
            Pattern::t("?x", "a", "?y").select(["?x"])
        );
    }

    #[test]
    fn ns_idempotence_and_elision() {
        let aof = Pattern::t("?x", "a", "b").opt(Pattern::t("?x", "c", "?y"));
        assert_eq!(optimize(&aof.clone().ns()), aof);
        assert_eq!(optimize(&aof.clone().ns().ns()), aof);
        // NS over a UNION (not subsumption-free in general) is kept.
        let u = Pattern::t("?x", "a", "b")
            .union(Pattern::t("?x", "a", "b").and(Pattern::t("?x", "c", "?y")));
        assert!(matches!(optimize(&u.ns()), Pattern::Ns(_)));
    }

    #[test]
    fn ns_elision_preserves_answers() {
        let aof = Pattern::t("?x", "a", "b").opt(Pattern::t("?x", "c", "?y"));
        let g = graph_from(&[("1", "a", "b"), ("1", "c", "2"), ("3", "a", "b")]);
        assert_eq!(
            evaluate(&aof.clone().ns(), &g),
            evaluate(&optimize(&aof.ns()), &g)
        );
    }

    #[test]
    fn opt_normal_form_lifts_opt_above_and_when_well_designed() {
        // ((t₁ OPT t₂) AND t₃) → ((t₁ AND t₃) OPT t₂): the engine then
        // sees a two-triple AND-spine instead of a one-triple one.
        let t1 = Pattern::t("?x", "a", "b");
        let t2 = Pattern::t("?x", "c", "?y");
        let t3 = Pattern::t("?x", "d", "?z");
        let p = t1.clone().opt(t2.clone()).and(t3.clone());
        assert_eq!(optimize(&p), t1.clone().and(t3.clone()).opt(t2.clone()));
        // The mirror orientation lifts too.
        let q = t3.clone().and(t1.clone().opt(t2.clone()));
        assert_eq!(optimize(&q), t3.and(t1).opt(t2));
        // Example 3.3's non-well-designed shape is left exactly alone.
        let bad = Pattern::t("?X", "a", "Chile")
            .and(Pattern::t("?Y", "a", "Chile").opt(Pattern::t("?Y", "b", "?X")));
        assert_eq!(optimize(&bad), bad);
    }

    #[test]
    fn opt_normal_form_applies_per_union_disjunct() {
        let t1 = Pattern::t("?x", "a", "b");
        let t2 = Pattern::t("?x", "c", "?y");
        let t3 = Pattern::t("?x", "d", "?z");
        let disjunct = t1.clone().opt(t2.clone()).and(t3.clone());
        let other = Pattern::t("?u", "e", "?v");
        let p = disjunct.union(other.clone());
        assert_eq!(optimize(&p), t1.and(t3).opt(t2).union(other));
    }

    #[test]
    fn filter_floats_past_opt_to_the_mandatory_core() {
        // ((?x,a,?w) OPT (?x,c,?y)) FILTER (?w = b) →
        // ((?x,a,?w) FILTER (?w = b)) OPT (?x,c,?y): the core's triple
        // binds ?w, so the filter may run before the outer join.
        let core = Pattern::t("?x", "a", "?w");
        let optional = Pattern::t("?x", "c", "?y");
        let r = Condition::eq_const("w", "b");
        let p = core.clone().opt(optional.clone()).filter(r.clone());
        let o = optimize(&p);
        assert_eq!(o, core.filter(r).opt(optional));
        let g = graph_from(&[
            ("1", "a", "b"),
            ("1", "c", "2"),
            ("2", "a", "z"),
            ("3", "a", "b"),
        ]);
        assert_eq!(evaluate(&p, &g), evaluate(&o, &g));
    }

    #[test]
    fn refused_disjunct_is_kept_unchanged() {
        // Example 3.3's shape is not well designed, so `opt_normal_form`
        // refuses it and the optimizer keeps it exactly; the
        // well-designed sibling disjunct is still normalized.
        let bad = Pattern::t("?X", "a", "Chile")
            .and(Pattern::t("?Y", "a", "Chile").opt(Pattern::t("?Y", "b", "?X")));
        assert!(opt_normal_form(&bad).is_err());
        let t1 = Pattern::t("?x", "a", "b");
        let t2 = Pattern::t("?x", "c", "?y");
        let t3 = Pattern::t("?x", "d", "?z");
        let good = t1.clone().opt(t2.clone()).and(t3.clone());
        let p = bad.clone().union(good);
        let o = optimize(&p);
        assert_eq!(o, bad.union(t1.and(t3).opt(t2)));
        let g = graph_from(&[
            ("1", "a", "Chile"),
            ("2", "a", "Chile"),
            ("2", "b", "1"),
            ("1", "a", "b"),
            ("1", "d", "4"),
        ]);
        assert_eq!(evaluate(&p, &g), evaluate(&o, &g));
    }

    /// Rule 8 on random well-designed AOF patterns: semantics are
    /// preserved exactly and the result stays well-designed.
    #[test]
    fn opt_normal_form_preserves_semantics_on_well_designed_patterns() {
        let cfg = PatternConfig {
            allowed: Operators::AOF,
            max_depth: 4,
            ..PatternConfig::standard(4, 4)
        };
        let mut checked = 0;
        for seed in 0..400u64 {
            let p = random_pattern(&cfg, seed);
            if well_designed_aof(&p).is_err() {
                continue;
            }
            let o = optimize(&p);
            assert!(well_designed_aof(&o).is_ok(), "seed {seed}: {p} -> {o}");
            let g = owql_rdf::generate::uniform(30, 4, 4, 4, seed).union(&graph_from(&[
                ("i0", "i1", "i2"),
                ("i2", "i3", "i0"),
                ("i1", "i1", "i1"),
            ]));
            assert_eq!(
                evaluate(&p, &g),
                evaluate(&o, &g),
                "seed {seed}: {p}  ~/~  {o}"
            );
            checked += 1;
        }
        assert!(checked >= 100, "only {checked} well-designed seeds");
    }

    /// The global property: optimization preserves exact semantics on
    /// random NS–SPARQL patterns and graphs.
    #[test]
    fn optimization_is_semantics_preserving() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            max_depth: 4,
            ..PatternConfig::standard(4, 4)
        };
        for seed in 0..250u64 {
            let p = random_pattern(&cfg, seed);
            let o = optimize(&p);
            let g = owql_rdf::generate::uniform(30, 4, 4, 4, seed).union(&graph_from(&[
                ("i0", "i1", "i2"),
                ("i2", "i3", "i0"),
                ("i1", "i1", "i1"),
            ]));
            assert_eq!(
                evaluate(&p, &g),
                evaluate(&o, &g),
                "seed {seed}: {p}  ~/~  {o}"
            );
        }
    }

    /// The optimizer never grows the pattern.
    #[test]
    fn optimization_never_grows() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL,
            max_depth: 4,
            ..PatternConfig::standard(4, 4)
        };
        for seed in 0..250u64 {
            let p = random_pattern(&cfg, seed);
            let o = optimize(&p);
            assert!(o.size() <= p.size(), "seed {seed}: {p} grew to {o}");
            // And the result uses no operator the input didn't — except
            // AND, which the BD001 collapse may introduce in place of
            // an OPT.
            assert!(operators(&o).within(operators(&p).with(Operators::AND)));
        }
    }
}
