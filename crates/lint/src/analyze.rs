//! The multi-pass analyzer.
//!
//! [`analyze`] walks a pattern together with its [`SpanNode`] tree and
//! produces an [`Analysis`]: the fragment/complexity classification, a
//! well-designedness verdict, and a list of span-carrying
//! [`Diagnostic`]s. The well-designedness walk recomputes the same
//! "outside variables" sets as `owql_algebra::well_designed::check`,
//! but keeps going after the first violation so every offending OPT and
//! FILTER gets its own diagnostic, anchored at the offending subtree's
//! span.
//!
//! Everything here is *conservative*: subsumption between NS operands
//! is undecidable (Kaminski & Kostylev), so rules that would need it
//! (NS002) report at `Info` severity and never claim more than the
//! paper's syntactic fragments justify.

use crate::classify::{classify, ComplexityClass, Fragment};
use crate::dataflow::{fold_condition, must_bind, Bindings, Tri};
use crate::diagnostics::{Diagnostic, RuleId, Severity};
use crate::sat::{filter_satisfiable, Satisfiability};
use crate::subsume::branch_subsumes;
use owql_algebra::analysis::{in_fragment, pattern_vars, Operators};
use owql_algebra::pattern::Pattern;
use owql_algebra::variable::Variable;
use owql_algebra::well_designed::{well_designed_aof, well_designed_auof};
use owql_obs::json;
use owql_parser::{parse_pattern_spanned, ParseError, SpanNode};
use std::collections::BTreeSet;
use std::fmt;

/// Outcome of the well-designedness check, as consumed by the
/// optimizer's OPT-normal-form rewrite and the server's `/lint`
/// endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WellDesignedVerdict {
    /// The pattern is a well-designed `SPARQL[AOF]` pattern.
    Aof,
    /// The pattern is a union of well-designed `SPARQL[AOF]` patterns.
    Auof,
    /// The pattern is in `SPARQL[AOF]`/`AUOF` but violates
    /// Definition 3.4.
    Violated,
    /// The pattern uses operators outside `SPARQL[AUOF]`, so the
    /// notion does not apply.
    NotApplicable,
}

impl WellDesignedVerdict {
    /// Stable lowercase name used in JSON payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            WellDesignedVerdict::Aof => "aof",
            WellDesignedVerdict::Auof => "auof",
            WellDesignedVerdict::Violated => "violated",
            WellDesignedVerdict::NotApplicable => "not-applicable",
        }
    }
}

impl fmt::Display for WellDesignedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Classifies `p`'s well-designedness (Definition 3.4), trying the
/// plain AOF check before the union-of-AOF one.
pub fn well_designedness(p: &Pattern) -> WellDesignedVerdict {
    let ops = owql_algebra::analysis::operators(p);
    if ops.within(Operators::AOF) {
        match well_designed_aof(p) {
            Ok(()) => WellDesignedVerdict::Aof,
            Err(_) => WellDesignedVerdict::Violated,
        }
    } else if ops.within(Operators::AUOF) {
        match well_designed_auof(p) {
            Ok(()) => WellDesignedVerdict::Auof,
            Err(_) => WellDesignedVerdict::Violated,
        }
    } else {
        WellDesignedVerdict::NotApplicable
    }
}

/// Everything the analyzer knows about one pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    /// Most specific paper fragment the pattern belongs to.
    pub fragment: Fragment,
    /// Complexity class of the fragment's evaluation problem.
    pub complexity: ComplexityClass,
    /// Well-designedness verdict.
    pub well_designed: WellDesignedVerdict,
    /// The root's binding lattice: which variables every answer
    /// certainly binds, and which it may bind at all.
    pub bindings: Bindings,
    /// All findings, root classification (FR001) first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// The highest severity among the diagnostics, if any fired beyond
    /// the always-present FR001 classification note.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// One JSON object — fragment, complexity, well-designedness, the
    /// root binding lattice, and the diagnostics located in `input`:
    /// the server's `/v1/lint` body and each entry of the CLI's
    /// `--format json` output.
    pub fn to_json(&self, input: &str) -> String {
        let vars = |vars: &BTreeSet<Variable>| {
            let rendered: Vec<String> = vars.iter().map(|v| json::string(&v.to_string())).collect();
            rendered.join(", ")
        };
        let diagnostics: Vec<String> = self.diagnostics.iter().map(|d| d.to_json(input)).collect();
        format!(
            "{{\"fragment\": {}, \"complexity\": {}, \"well_designed\": {}, \
             \"bindings\": {{\"certain\": [{}], \"possible\": [{}]}}, \
             \"count\": {}, \"diagnostics\": [{}]}}",
            json::string(&self.fragment.to_string()),
            json::string(&self.complexity.to_string()),
            json::string(self.well_designed.as_str()),
            vars(&self.bindings.certain),
            vars(&self.bindings.possible),
            self.diagnostics.len(),
            diagnostics.join(", "),
        )
    }
}

/// Analyzes source text: parses it (with spans) and runs [`analyze`],
/// so diagnostics point into `input` itself.
pub fn analyze_source(input: &str) -> Result<Analysis, ParseError> {
    let (pattern, spans) = parse_pattern_spanned(input)?;
    Ok(analyze(&pattern, &spans))
}

/// Analyzes an in-memory pattern; spans refer to the pattern's
/// canonical `Display` rendering.
pub fn analyze_pattern(p: &Pattern) -> Analysis {
    analyze(p, &SpanNode::synthesize(p))
}

/// Runs every pass over `p` with `spans` as the span tree. If `spans`
/// does not match `p`'s shape, the analyzer falls back to synthesized
/// spans rather than panicking, so it is total on any input pair.
pub fn analyze(p: &Pattern, spans: &SpanNode) -> Analysis {
    let synthesized;
    let spans = if congruent(p, spans) {
        spans
    } else {
        synthesized = SpanNode::synthesize(p);
        &synthesized
    };

    let fragment = classify(p);
    let complexity = fragment.complexity();
    let well_designed = well_designedness(p);

    let mut diagnostics = Vec::new();
    let monotone = if fragment.guarantees_weak_monotonicity() {
        "membership guarantees weak monotonicity"
    } else {
        "weak monotonicity is not guaranteed by shape"
    };
    diagnostics.push(Diagnostic::new(
        RuleId::Fragment,
        spans.span,
        format!("classified as {fragment}: evaluation is in {complexity}; {monotone}"),
    ));
    walk(p, spans, &BTreeSet::new(), false, &mut diagnostics);

    Analysis {
        fragment,
        complexity,
        well_designed,
        bindings: Bindings::of(p),
        diagnostics,
    }
}

/// `true` iff the span tree has exactly the pattern's shape.
fn congruent(p: &Pattern, node: &SpanNode) -> bool {
    let children: Vec<&Pattern> = match p {
        Pattern::Triple(_) => Vec::new(),
        Pattern::And(a, b) | Pattern::Union(a, b) | Pattern::Opt(a, b) | Pattern::Minus(a, b) => {
            vec![a, b]
        }
        Pattern::Filter(q, _) | Pattern::Select(_, q) | Pattern::Ns(q) => vec![q],
    };
    children.len() == node.children.len()
        && children
            .iter()
            .zip(&node.children)
            .all(|(c, n)| congruent(c, n))
}

/// The well-designedness / filter / projection / union / NS walk.
/// `outside` is the set of variables occurring in the pattern outside
/// the current subtree (the `check` invariant of
/// `owql_algebra::well_designed`); `in_union_spine` suppresses
/// re-collecting UNION branches at nested spine nodes.
fn walk(
    p: &Pattern,
    node: &SpanNode,
    outside: &BTreeSet<Variable>,
    in_union_spine: bool,
    diags: &mut Vec<Diagnostic>,
) {
    match p {
        Pattern::Triple(_) => {}
        Pattern::And(a, b) | Pattern::Minus(a, b) => {
            let out_a: BTreeSet<Variable> = outside.union(&pattern_vars(b)).cloned().collect();
            let out_b: BTreeSet<Variable> = outside.union(&pattern_vars(a)).cloned().collect();
            walk(a, &node.children[0], &out_a, false, diags);
            walk(b, &node.children[1], &out_b, false, diags);
        }
        Pattern::Union(a, b) => {
            if !in_union_spine {
                check_duplicate_branches(p, node, diags);
            }
            let out_a: BTreeSet<Variable> = outside.union(&pattern_vars(b)).cloned().collect();
            let out_b: BTreeSet<Variable> = outside.union(&pattern_vars(a)).cloned().collect();
            walk(a, &node.children[0], &out_a, true, diags);
            walk(b, &node.children[1], &out_b, true, diags);
        }
        Pattern::Opt(a, b) => {
            let va = pattern_vars(a);
            for x in pattern_vars(b) {
                if outside.contains(&x) && !va.contains(&x) {
                    diags.push(Diagnostic::new(
                        RuleId::BadOptVariable,
                        node.span,
                        format!(
                            "OPT right-hand side mentions {x}, which occurs outside this OPT \
                             but not on its left-hand side (violates well-designedness, \
                             Definition 3.4)"
                        ),
                    ));
                }
            }
            let out_a: BTreeSet<Variable> = outside.union(&pattern_vars(b)).cloned().collect();
            let out_b: BTreeSet<Variable> = outside.union(&va).cloned().collect();
            walk(a, &node.children[0], &out_a, false, diags);
            walk(b, &node.children[1], &out_b, false, diags);
        }
        Pattern::Filter(q, r) => {
            let b = Bindings::of(q);
            for x in r.vars() {
                if !b.possible.contains(&x) {
                    diags.push(Diagnostic::new(
                        RuleId::UnsafeFilter,
                        node.span,
                        format!(
                            "FILTER condition mentions {x}, which its operand can never bind \
                             (the condition is unsafe)"
                        ),
                    ));
                }
            }
            match fold_condition(r, &b) {
                Tri::False => diags.push(Diagnostic::new(
                    RuleId::AlwaysFalseFilter,
                    node.span,
                    "FILTER condition is statically always false; this subpattern has no answers"
                        .to_string(),
                )),
                Tri::True => diags.push(Diagnostic::new(
                    RuleId::AlwaysTrueFilter,
                    node.span,
                    "FILTER condition is statically always true and can be dropped".to_string(),
                )),
                Tri::Unknown => {
                    // The Kleene fold gave up atom-by-atom; constraint
                    // propagation across the conjunction may still
                    // prove the filter empty (FL003).
                    if filter_satisfiable(r, &b) == Satisfiability::Unsat {
                        diags.push(Diagnostic::new(
                            RuleId::UnsatisfiableConjunction,
                            node.span,
                            "FILTER conjunction is unsatisfiable (constant-equality closure); \
                             this subpattern has no answers and the optimizer prunes it"
                                .to_string(),
                        ));
                    }
                }
            }
            // BD001: a filter that forces a variable only the optional
            // side of an OPT can bind turns the OPT into an AND.
            if let Pattern::Opt(a, opt_side) = q.as_ref() {
                let ba = Bindings::of(a);
                let bb = Bindings::of(opt_side);
                if let Some(v) = must_bind(r)
                    .iter()
                    .find(|v| bb.certain.contains(v) && !ba.possible.contains(v))
                {
                    diags.push(Diagnostic::new(
                        RuleId::OptCollapsible,
                        node.span,
                        format!(
                            "FILTER forces {v}, which only the optional side can bind (and \
                             certainly binds): the OPT behaves as AND and the optimizer \
                             collapses it"
                        ),
                    ));
                }
            }
            let out_q: BTreeSet<Variable> = outside.union(&r.vars()).cloned().collect();
            walk(q, &node.children[0], &out_q, false, diags);
        }
        Pattern::Select(vars, q) => {
            let b = Bindings::of(q);
            for v in vars {
                if !b.possible.contains(v) {
                    diags.push(Diagnostic::new(
                        RuleId::DeadProjection,
                        node.span,
                        format!("SELECT projects {v}, which its operand can never bind"),
                    ));
                }
            }
            walk(q, &node.children[0], outside, false, diags);
        }
        Pattern::Ns(q) => {
            if in_fragment(q, Operators::AOF) || in_fragment(q, Operators::AFS) {
                diags.push(Diagnostic::new(
                    RuleId::RedundantNs,
                    node.span,
                    "NS over a UNION-free weakly monotone operand is a no-op (the optimizer \
                     elides it)"
                        .to_string(),
                ));
            } else {
                diags.push(Diagnostic::new(
                    RuleId::OpaqueNs,
                    node.span,
                    "NS effect is not statically decidable here (subsumption between operands \
                     is undecidable); classification is conservative"
                        .to_string(),
                ));
            }
            walk(q, &node.children[0], outside, false, diags);
        }
    }
}

/// Collects the branches of a maximal UNION spine (pattern + span
/// pairs), reports later branches that duplicate an earlier one
/// (UN001), and reports branches subsumed by a sibling under the
/// AND/FILTER containment criterion of [`crate::subsume`] (UN002).
fn check_duplicate_branches(p: &Pattern, node: &SpanNode, diags: &mut Vec<Diagnostic>) {
    fn branches<'a>(
        p: &'a Pattern,
        node: &'a SpanNode,
        out: &mut Vec<(&'a Pattern, &'a SpanNode)>,
    ) {
        if let Pattern::Union(a, b) = p {
            branches(a, &node.children[0], out);
            branches(b, &node.children[1], out);
        } else {
            out.push((p, node));
        }
    }
    let mut all = Vec::new();
    branches(p, node, &mut all);
    for j in 0..all.len() {
        if j > 0 && all[..j].iter().any(|(earlier, _)| *earlier == all[j].0) {
            diags.push(Diagnostic::new(
                RuleId::DuplicateUnionBranch,
                all[j].1.span,
                "UNION branch duplicates an earlier branch and contributes no answers".to_string(),
            ));
            continue;
        }
        // UN002: a strictly-subsuming sibling (or a mutually-subsuming
        // earlier sibling) makes this branch redundant. Exact
        // duplicates are UN001's job, handled above.
        let subsumed_by_sibling = all.iter().enumerate().any(|(i, (other, _))| {
            i != j
                && *other != all[j].0
                && branch_subsumes(other, all[j].0)
                && (!branch_subsumes(all[j].0, other) || i < j)
        });
        if subsumed_by_sibling {
            diags.push(Diagnostic::new(
                RuleId::SubsumedBranch,
                all[j].1.span,
                "UNION branch is subsumed by a sibling branch (every answer it produces is \
                 already produced there); the optimizer drops it"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.rule.code()).collect()
    }

    fn analyze_text(text: &str) -> Analysis {
        analyze_source(text).unwrap()
    }

    #[test]
    fn clean_pattern_gets_only_the_classification_note() {
        let a = analyze_text("((?x, a, b) AND (?x, c, ?y))");
        assert_eq!(codes(&a), vec!["FR001"]);
        assert_eq!(a.fragment, Fragment::Af);
        assert_eq!(a.complexity, ComplexityClass::P);
        assert_eq!(a.well_designed, WellDesignedVerdict::Aof);
        assert_eq!(a.worst_severity(), Some(Severity::Info));
        assert_eq!(a.diagnostics[0].span.start, 0);
        assert_eq!(a.diagnostics[0].span.end, 28);
    }

    #[test]
    fn example_3_3_non_well_designed_opt_is_flagged_with_its_span() {
        // Example 3.3's shape: ?X occurs in the OPT's right-hand side
        // and outside the OPT, but not on the left-hand side.
        let text = "((?X, a, Chile) AND ((?Y, a, Chile) OPT (?Y, b, ?X)))";
        let a = analyze_text(text);
        assert_eq!(a.well_designed, WellDesignedVerdict::Violated);
        let wd: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::BadOptVariable)
            .collect();
        assert_eq!(wd.len(), 1);
        assert_eq!(
            &text[wd[0].span.start..wd[0].span.end],
            "((?Y, a, Chile) OPT (?Y, b, ?X))"
        );
        assert!(wd[0].message.contains("?X"));
        assert_eq!(a.worst_severity(), Some(Severity::Warn));
    }

    #[test]
    fn unsafe_and_always_false_filters_are_flagged() {
        let a = analyze_text("((?x, a, b) FILTER bound(?z))");
        let got = codes(&a);
        assert!(got.contains(&"WD002"), "{got:?}");
        assert!(got.contains(&"FL001"), "{got:?}");
        assert_eq!(a.worst_severity(), Some(Severity::Error));

        // ?y may be bound (OPT side) but is not certain: no verdict.
        let b = analyze_text("(((?x, a, b) OPT (?x, c, ?y)) FILTER bound(?y))");
        assert!(!codes(&b).contains(&"FL001"));
        assert!(!codes(&b).contains(&"FL002"));

        // A certainly-bound variable makes bound(?x) definite.
        let c = analyze_text("((?x, a, b) FILTER bound(?x))");
        assert!(codes(&c).contains(&"FL002"));
    }

    #[test]
    fn dead_projection_and_duplicate_union_are_flagged() {
        let a = analyze_text("(SELECT {?x, ?z} WHERE (?x, a, ?y))");
        assert!(codes(&a).contains(&"PJ001"));

        let text = "(((?x, a, b) UNION (?x, c, d)) UNION (?x, a, b))";
        let b = analyze_text(text);
        let dup: Vec<_> = b
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::DuplicateUnionBranch)
            .collect();
        assert_eq!(dup.len(), 1);
        assert_eq!(&text[dup[0].span.start..dup[0].span.end], "(?x, a, b)");
    }

    #[test]
    fn ns_rules_mirror_the_optimizer_elision_condition() {
        let a = analyze_text("NS(((?x, a, b) OPT (?x, c, ?y)))");
        assert!(codes(&a).contains(&"NS001"));
        let b = analyze_text("NS(((?x, a, b) UNION ((?x, c, d) OPT (?x, e, ?y))))");
        assert!(codes(&b).contains(&"NS002"));
    }

    #[test]
    fn unsatisfiable_conjunction_is_flagged_without_fl001() {
        // No single atom is false, but the closure is: ?y = c1 ∧ ?y = c2.
        let text = "((?x, a, ?y) FILTER ((?y = c1) && (?y = c2)))";
        let a = analyze_text(text);
        let got = codes(&a);
        assert!(got.contains(&"FL003"), "{got:?}");
        assert!(!got.contains(&"FL001"), "{got:?}");
        assert_eq!(a.worst_severity(), Some(Severity::Error));
        // The fold-decidable case stays FL001, never FL003.
        let b = analyze_text("((?x, a, b) FILTER bound(?z))");
        let got = codes(&b);
        assert!(got.contains(&"FL001"), "{got:?}");
        assert!(!got.contains(&"FL003"), "{got:?}");
        // A satisfiable conjunction fires neither.
        let c = analyze_text("((?x, a, ?y) FILTER ((?y = c1) && bound(?x)))");
        let got = codes(&c);
        assert!(!got.contains(&"FL001"), "{got:?}");
        assert!(!got.contains(&"FL003"), "{got:?}");
    }

    #[test]
    fn subsumed_union_branch_is_flagged_with_its_span() {
        // Right branch refines the left with an extra triple over the
        // same variables: subsumed, not duplicate.
        let text = "((?x, p, ?y) UNION ((?x, p, ?y) AND (?y, q, ?x)))";
        let a = analyze_text(text);
        let un2: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::SubsumedBranch)
            .collect();
        assert_eq!(un2.len(), 1, "{:?}", codes(&a));
        assert_eq!(
            &text[un2[0].span.start..un2[0].span.end],
            "((?x, p, ?y) AND (?y, q, ?x))"
        );
        assert!(!codes(&a).contains(&"UN001"));
        // Branches with different domains are not subsumed.
        let b = analyze_text("((?x, p, ?y) UNION (?x, p, c))");
        assert!(!codes(&b).contains(&"UN002"));
        // OPT branches are refused, never flagged.
        let c = analyze_text("((?x, p, ?y) UNION ((?x, p, ?y) OPT (?y, q, ?z)))");
        assert!(!codes(&c).contains(&"UN002"));
    }

    #[test]
    fn collapsible_opt_is_flagged() {
        // bound(?y) forces the optional side: OPT ≡ AND here.
        let a = analyze_text("(((?x, a, b) OPT (?x, c, ?y)) FILTER bound(?y))");
        assert!(codes(&a).contains(&"BD001"), "{:?}", codes(&a));
        // ?y possible on the left too: no verdict.
        let b = analyze_text("(((?x, a, ?y) OPT (?x, c, ?y)) FILTER bound(?y))");
        assert!(!codes(&b).contains(&"BD001"));
        // A negated atom forces nothing.
        let c = analyze_text("(((?x, a, b) OPT (?x, c, ?y)) FILTER !(bound(?y)))");
        assert!(!codes(&c).contains(&"BD001"));
    }

    #[test]
    fn analysis_exposes_the_root_binding_lattice() {
        let a = analyze_text("((?x, a, b) OPT (?x, c, ?y))");
        let vars = |s: &BTreeSet<Variable>| s.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        assert_eq!(vars(&a.bindings.certain), vec!["?x"]);
        assert_eq!(vars(&a.bindings.possible), vec!["?x", "?y"]);
    }

    #[test]
    fn analyze_is_total_on_mismatched_span_trees() {
        let p = owql_parser::parse_pattern("((?x, a, b) AND (?x, c, ?y))").unwrap();
        let bogus = SpanNode {
            span: owql_parser::Span::new(0, 1),
            children: Vec::new(),
        };
        let a = analyze(&p, &bogus);
        // Fallback to synthesized spans: the root span covers the
        // canonical rendering.
        assert_eq!(a.diagnostics[0].span.end, p.to_string().len());
    }
}
