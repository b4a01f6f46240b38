//! OPT normal form, well-designed pattern trees and the Proposition 5.6
//! translation.
//!
//! Proposition 5.6 states that well-designed `SPARQL[AOF]` patterns
//! are *strictly less* expressive than SP–SPARQL; the interesting
//! constructive half is that every well-designed pattern — however
//! deeply its `OPT`s nest — translates into a **simple pattern**: one
//! `NS` applied to a `UNION` of AND/FILTER branches.
//!
//! The pipeline (following the pattern-tree normal form of Letelier,
//! Pérez, Pichler & Skritek):
//!
//! 1. [`opt_normal_form`] rewrites the well-designed input with the
//!    equivalences (valid on well-designed patterns; Pérez, Arenas &
//!    Gutierrez)
//!    * `(P₁ OPT P₂) AND P₃  ≡  (P₁ AND P₃) OPT P₂`
//!    * `P₁ AND (P₂ OPT P₃)  ≡  (P₁ AND P₂) OPT P₃`
//!    * `(P₁ OPT P₂) FILTER R ≡ (P₁ FILTER R) OPT P₂`
//!      (applied only when `var(R)` ⊆ the triple variables of the
//!      OPT-free core `P₁`)
//!
//!    until `AND`/`FILTER` apply to OPT-free operands only. The
//!    optimizer's rule 8 (`owql_eval::optimize`) is this function,
//!    applied per top-level UNION disjunct;
//! 2. a private reader turns the result into a tree whose nodes are
//!    OPT-free `SPARQL[AF]` patterns;
//! 3. [`wd_to_simple`] emits `NS(⋃_R AND(R))` over all upward-closed
//!    subtrees `R` containing the root — a mapping is a well-designed
//!    answer iff it is a ⪯-maximal match of such a subtree.

use crate::analysis::{operators, triple_patterns, Operators};
use crate::pattern::Pattern;
use crate::well_designed::{well_designed_aof, Violation};
use std::collections::BTreeSet;
use std::fmt;

/// Why the translation could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The input is not a well-designed `SPARQL[AOF]` pattern.
    NotWellDesigned(Violation),
    /// A `FILTER` sits above an `OPT` and mentions optional variables;
    /// such filters cannot be attached to a single tree node.
    FilterOverOptional,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NotWellDesigned(v) => write!(f, "not well designed: {v}"),
            TreeError::FilterOverOptional => {
                write!(
                    f,
                    "FILTER above OPT mentions optional variables; not tree-shaped"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A well-designed pattern tree: each node is an OPT-free
/// `SPARQL[AF]` pattern; children are optional extensions.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PatternTree {
    node: Pattern,
    children: Vec<PatternTree>,
}

/// Rewrites a well-designed pattern into OPT normal form
/// (`N ::= AF | N OPT N`).
pub fn opt_normal_form(p: &Pattern) -> Result<Pattern, TreeError> {
    well_designed_aof(p).map_err(TreeError::NotWellDesigned)?;
    normalize(p)
}

fn normalize(p: &Pattern) -> Result<Pattern, TreeError> {
    match p {
        Pattern::Triple(t) => Ok(Pattern::Triple(*t)),
        Pattern::Opt(a, b) => Ok(normalize(a)?.opt(normalize(b)?)),
        Pattern::And(a, b) => Ok(push_and(normalize(a)?, normalize(b)?)),
        Pattern::Filter(q, r) => {
            // Float the filter down the OPT spine to the mandatory core.
            let mut spine = Vec::new();
            let mut core = normalize(q)?;
            while let Pattern::Opt(l, rgt) = core {
                spine.push(*rgt);
                core = *l;
            }
            // Floating is sound only if the condition's variables are
            // *certainly bound* by the core. The core is OPT-free, so
            // its certain variables are those of its triple patterns:
            // a variable occurring only inside a filter of the core is
            // never bound, and the OPT extension could bind it,
            // changing the condition's value.
            let core_bound: BTreeSet<_> = triple_patterns(&core)
                .iter()
                .flat_map(|t| t.vars())
                .collect();
            if !r.vars().is_subset(&core_bound) {
                return Err(TreeError::FilterOverOptional);
            }
            let mut out = core.filter(r.clone());
            for rgt in spine.into_iter().rev() {
                out = out.opt(rgt);
            }
            Ok(out)
        }
        _ => unreachable!("well-designed AOF patterns contain no other operators"),
    }
}

/// `a AND b` where both are in OPT normal form: float the OPT spines
/// of both sides above the AND.
fn push_and(a: Pattern, b: Pattern) -> Pattern {
    if let Pattern::Opt(a1, a2) = a {
        return push_and(*a1, b).opt(*a2);
    }
    if let Pattern::Opt(b1, b2) = b {
        return push_and(a, *b1).opt(*b2);
    }
    a.and(b)
}

/// Reads an OPT-normal-form pattern as a pattern tree.
fn to_pattern_tree(p: &Pattern) -> PatternTree {
    match p {
        Pattern::Opt(a, b) => {
            let mut tree = to_pattern_tree(a);
            tree.children.push(to_pattern_tree(b));
            tree
        }
        other => {
            debug_assert!(!operators(other).contains(Operators::OPT));
            PatternTree {
                node: other.clone(),
                children: Vec::new(),
            }
        }
    }
}

/// Enumerates the conjunctions `AND(R)` over all upward-closed
/// subtrees `R` containing the root.
fn subtree_conjunctions(tree: &PatternTree) -> Vec<Pattern> {
    // For each child, the options are: absent, or present with one of
    // its own subtree conjunctions. Combine with the node pattern.
    let mut combos: Vec<Pattern> = vec![tree.node.clone()];
    for child in &tree.children {
        let child_options = subtree_conjunctions(child);
        let mut next = Vec::with_capacity(combos.len() * (child_options.len() + 1));
        for c in &combos {
            next.push(c.clone()); // child absent
            for opt in &child_options {
                next.push(c.clone().and(opt.clone()));
            }
        }
        combos = next;
    }
    combos
}

/// Proposition 5.6: translates a well-designed `SPARQL[AOF]` pattern
/// into an equivalent *simple* pattern `NS(D₁ UNION ⋯ UNION Dₙ)` with
/// every `Dᵢ` in `SPARQL[AF]`.
pub fn wd_to_simple(p: &Pattern) -> Result<Pattern, TreeError> {
    let tree = to_pattern_tree(&opt_normal_form(p)?);
    Ok(Pattern::union_all(subtree_conjunctions(&tree)).ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::in_fragment;
    use crate::condition::Condition;

    fn size(tree: &PatternTree) -> usize {
        1 + tree.children.iter().map(size).sum::<usize>()
    }

    fn tree_of(p: &Pattern) -> PatternTree {
        to_pattern_tree(&opt_normal_form(p).unwrap())
    }

    #[test]
    fn simple_opt_translates_to_known_form() {
        // t1 OPT t2 → NS(t1 UNION (t1 AND t2)).
        let t1 = Pattern::t("?x", "a", "b");
        let t2 = Pattern::t("?x", "c", "?y");
        let p = t1.clone().opt(t2.clone());
        let simple = wd_to_simple(&p).unwrap();
        assert_eq!(simple, t1.clone().union(t1.and(t2)).ns());
    }

    #[test]
    fn and_under_opt_normalizes() {
        // (t1 OPT t2) AND t3 → (t1 AND t3) OPT t2, and the mirror
        // orientation t3 AND (t1 OPT t2) → (t3 AND t1) OPT t2.
        let t1 = Pattern::t("?x", "a", "b");
        let t2 = Pattern::t("?x", "c", "?y");
        let t3 = Pattern::t("?x", "d", "e");
        let p = t1.clone().opt(t2.clone()).and(t3.clone());
        assert_eq!(
            opt_normal_form(&p).unwrap(),
            t1.clone().and(t3.clone()).opt(t2.clone())
        );
        let q = t3.clone().and(t1.clone().opt(t2.clone()));
        assert_eq!(opt_normal_form(&q).unwrap(), t3.and(t1).opt(t2));
    }

    #[test]
    fn tree_shape_of_nested_opts() {
        // (t1 OPT t2) OPT t3: root with two children.
        let p = Pattern::t("a", "b", "c")
            .opt(Pattern::t("?X", "d", "e"))
            .opt(Pattern::t("?Y", "f", "g"));
        let tree = tree_of(&p);
        assert_eq!(tree.children.len(), 2);
        assert_eq!(size(&tree), 3);
        // t1 OPT (t2 OPT t3): a chain.
        let q = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y").opt(Pattern::t("?y", "d", "?z")));
        let tq = tree_of(&q);
        assert_eq!(tq.children.len(), 1);
        assert_eq!(tq.children[0].children.len(), 1);
    }

    #[test]
    fn subtree_enumeration_counts() {
        // Chain of depth 2: 3 upward-closed subtrees.
        let q = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y").opt(Pattern::t("?y", "d", "?z")));
        assert_eq!(subtree_conjunctions(&tree_of(&q)).len(), 3);
        // Root with two children: 4 subtrees.
        let p = Pattern::t("a", "b", "c")
            .opt(Pattern::t("?X", "d", "e"))
            .opt(Pattern::t("?Y", "f", "g"));
        assert_eq!(subtree_conjunctions(&tree_of(&p)).len(), 4);
    }

    #[test]
    fn filter_floats_to_mandatory_core() {
        // The answers agree under the reference evaluator: see the
        // optimizer's rule-8 tests and `random_wd_equivalence`.
        let core = Pattern::t("?x", "a", "?w");
        let optional = Pattern::t("?x", "c", "?y");
        let r = Condition::eq_const("w", "b");
        let p = core.clone().opt(optional.clone()).filter(r.clone());
        assert_eq!(
            opt_normal_form(&p).unwrap(),
            core.clone().filter(r.clone()).opt(optional.clone())
        );
        assert_eq!(
            wd_to_simple(&p).unwrap(),
            core.clone()
                .filter(r.clone())
                .union(core.filter(r).and(optional))
                .ns()
        );
    }

    #[test]
    fn filter_over_optional_variables_rejected() {
        // A FILTER mentioning an optional variable from outside its OPT
        // is itself a well-designedness violation (this is exactly the
        // Theorem 3.5 mechanism), so the pipeline rejects the pattern
        // at the well-designedness gate.
        let p = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y"))
            .filter(Condition::bound("y"));
        assert!(matches!(
            opt_normal_form(&p),
            Err(TreeError::NotWellDesigned(_))
        ));
        // Past the gate, the float test itself refuses the same shape.
        assert_eq!(normalize(&p), Err(TreeError::FilterOverOptional));
    }

    #[test]
    fn non_well_designed_rejected() {
        let p = Pattern::t("?X", "was_born_in", "Chile")
            .and(Pattern::t("?Y", "was_born_in", "Chile").opt(Pattern::t("?Y", "email", "?X")));
        assert!(matches!(
            wd_to_simple(&p),
            Err(TreeError::NotWellDesigned(_))
        ));
    }

    /// The result is always a simple pattern: NS over AF disjuncts.
    #[test]
    fn output_is_simple_pattern() {
        let p = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y"))
            .opt(Pattern::t("?x", "d", "?z").opt(Pattern::t("?z", "e", "?w")));
        let simple = wd_to_simple(&p).unwrap();
        let Pattern::Ns(inner) = &simple else {
            panic!("not NS-rooted")
        };
        for d in inner.disjuncts() {
            assert!(in_fragment(d, Operators::AF));
        }
        // 1 root · (1+1) · (1 + (1·(1+1))) = 6 subtrees.
        assert_eq!(inner.disjuncts().len(), 6);
    }
}
