//! The binding-certainty dataflow lattice.
//!
//! For every pattern `P` the analyzer needs two variable sets:
//!
//! * [`Bindings::certain`] — variables bound in **every** answer of
//!   `P`, over every graph (a sound under-approximation), and
//! * [`Bindings::possible`] — variables bound in **some** answer of
//!   `P`, over some graph (a sound over-approximation).
//!
//! [`Bindings::of`] is the single definition the analyzer and the
//! optimizer consume, and it is more precise than the purely
//! syntactic sets on both ends:
//!
//! * `possible` only contains variables a triple pattern or projection
//!   can actually *bind* — a variable mentioned solely inside a FILTER
//!   condition or a SELECT set is not in `possible`, whereas the
//!   paper's `var(P)` includes it.
//! * `certain` additionally exploits FILTER conditions: a top-level
//!   conjunct `bound(?X)`, `?X = c`, or `?X = ?Y` forces the variable
//!   to be bound in every surviving answer (equality on an unbound
//!   variable is false under the two-valued `satisfied_by` of
//!   Section 2.1), so `FILTER` nodes *grow* the certain set.
//!
//! The lattice is computed bottom-up in one pass:
//!
//! | node            | `certain`                           | `possible` |
//! |-----------------|-------------------------------------|------------|
//! | triple `t`      | `var(t)`                            | `var(t)`   |
//! | `AND`           | `c(a) ∪ c(b)`                       | `p(a) ∪ p(b)` |
//! | `UNION`         | `c(a) ∩ c(b)`                       | `p(a) ∪ p(b)` |
//! | `OPT`           | `c(a)`                              | `p(a) ∪ p(b)` |
//! | `MINUS`         | `c(a)`                              | `p(a)`     |
//! | `FILTER R`      | `c(q) ∪ (must_bind(R) ∩ p(q))`      | `p(q)`     |
//! | `SELECT V`      | `c(q) ∩ V`                          | `p(q) ∩ V` |
//! | `NS`            | `c(q)`                              | `p(q)`     |
//!
//! The invariant `certain ⊆ possible` holds by construction; the
//! `FILTER` row intersects with `possible` precisely to preserve it
//! (an unsatisfiable filter over a variable the operand can never
//! bind yields an *empty* answer set, for which any certain set is
//! vacuously sound).

use owql_algebra::condition::Condition;
use owql_algebra::pattern::Pattern;
use owql_algebra::variable::Variable;
use std::collections::BTreeSet;

/// The certainly-bound / possibly-bound variable sets of one pattern
/// node — the lattice value computed by [`Bindings::of`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bindings {
    /// Variables bound in every answer, over every graph.
    pub certain: BTreeSet<Variable>,
    /// Variables bound in at least one answer, over some graph.
    pub possible: BTreeSet<Variable>,
}

impl Bindings {
    /// Computes the lattice value for `p` bottom-up.
    pub fn of(p: &Pattern) -> Bindings {
        match p {
            Pattern::Triple(t) => {
                let vars = t.vars();
                Bindings {
                    certain: vars.clone(),
                    possible: vars,
                }
            }
            Pattern::And(a, b) => {
                let (mut a, b) = (Bindings::of(a), Bindings::of(b));
                a.certain.extend(b.certain);
                a.possible.extend(b.possible);
                a
            }
            Pattern::Union(a, b) => {
                let (a, b) = (Bindings::of(a), Bindings::of(b));
                Bindings {
                    certain: a.certain.intersection(&b.certain).copied().collect(),
                    possible: a.possible.union(&b.possible).copied().collect(),
                }
            }
            Pattern::Opt(a, b) => {
                let (mut a, b) = (Bindings::of(a), Bindings::of(b));
                a.possible.extend(b.possible);
                a
            }
            Pattern::Minus(a, _) => Bindings::of(a),
            Pattern::Filter(q, r) => {
                let mut q = Bindings::of(q);
                for v in must_bind(r) {
                    if q.possible.contains(&v) {
                        q.certain.insert(v);
                    }
                }
                q
            }
            Pattern::Select(vs, q) => {
                let q = Bindings::of(q);
                Bindings {
                    certain: q.certain.intersection(vs).copied().collect(),
                    possible: q.possible.intersection(vs).copied().collect(),
                }
            }
            Pattern::Ns(q) => Bindings::of(q),
        }
    }
}

/// Variables a condition forces to be bound in every mapping that
/// satisfies it: `bound(?X)`, `?X = c`, and `?X = ?Y` atoms reached
/// through conjunctions force their variables (equality on an unbound
/// variable is false), and a disjunction forces the variables forced
/// by *both* disjuncts.
pub fn must_bind(r: &Condition) -> BTreeSet<Variable> {
    match r {
        Condition::True | Condition::False | Condition::Not(_) => BTreeSet::new(),
        Condition::Bound(v) => [*v].into_iter().collect(),
        Condition::EqConst(v, _) => [*v].into_iter().collect(),
        Condition::EqVar(v, w) => [*v, *w].into_iter().collect(),
        Condition::And(a, b) => {
            let mut out = must_bind(a);
            out.extend(must_bind(b));
            out
        }
        Condition::Or(a, b) => must_bind(a).intersection(&must_bind(b)).copied().collect(),
    }
}

/// Three-valued static truth value of a FILTER condition, as produced
/// by [`fold_condition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tri {
    /// Satisfied by every answer of the operand, on every graph.
    True,
    /// Satisfied by no answer of the operand, on any graph.
    False,
    /// Not statically decided.
    Unknown,
}

/// Kleene fold of `r` over the operand's binding lattice. A variable
/// in `b.certain` makes `bound(?X)` definite-true; a variable outside
/// `b.possible` makes every atom mentioning it definite-false
/// (equalities on unbound variables are false under `satisfied_by`).
pub fn fold_condition(r: &Condition, b: &Bindings) -> Tri {
    match r {
        Condition::True => Tri::True,
        Condition::False => Tri::False,
        Condition::Bound(v) => {
            if b.certain.contains(v) {
                Tri::True
            } else if !b.possible.contains(v) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::EqConst(v, _) => {
            if !b.possible.contains(v) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::EqVar(v, w) => {
            if v == w {
                // `?X = ?X` holds exactly when `?X` is bound.
                if b.certain.contains(v) {
                    Tri::True
                } else if !b.possible.contains(v) {
                    Tri::False
                } else {
                    Tri::Unknown
                }
            } else if !b.possible.contains(v) || !b.possible.contains(w) {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Condition::Not(inner) => match fold_condition(inner, b) {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        },
        Condition::And(x, y) => match (fold_condition(x, b), fold_condition(y, b)) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        },
        Condition::Or(x, y) => match (fold_condition(x, b), fold_condition(y, b)) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vset(names: &[&str]) -> BTreeSet<Variable> {
        names.iter().map(|n| Variable::new(n)).collect()
    }

    #[test]
    fn lattice_matches_the_table() {
        // OPT: left certain, both possible.
        let p = Pattern::t("?x", "a", "b").opt(Pattern::t("?x", "c", "?y"));
        let b = Bindings::of(&p);
        assert_eq!(b.certain, vset(&["x"]));
        assert_eq!(b.possible, vset(&["x", "y"]));
        // UNION: intersection / union.
        let u = Pattern::t("?x", "a", "?y").union(Pattern::t("?x", "c", "?z"));
        let b = Bindings::of(&u);
        assert_eq!(b.certain, vset(&["x"]));
        assert_eq!(b.possible, vset(&["x", "y", "z"]));
        // MINUS: left side only on both ends.
        let m = Pattern::t("?x", "a", "b").minus(Pattern::t("?x", "c", "?y"));
        let b = Bindings::of(&m);
        assert_eq!(b.possible, vset(&["x"]));
        // SELECT: intersected with the projection on both ends.
        let s = Pattern::t("?x", "a", "?y").select(["?y"]);
        let b = Bindings::of(&s);
        assert_eq!(b.certain, vset(&["y"]));
        assert_eq!(b.possible, vset(&["y"]));
        // AND: union of both sides on both ends.
        let a = Pattern::t("?x", "a", "b").and(Pattern::t("?y", "c", "d"));
        let b = Bindings::of(&a);
        assert_eq!(b.certain, vset(&["x", "y"]));
        assert_eq!(b.possible, vset(&["x", "y"]));
    }

    #[test]
    fn possible_excludes_filter_only_variables() {
        // `?z` occurs only in the condition: `pattern_vars` has it,
        // `possible` must not.
        let p = Pattern::t("?x", "a", "b").filter(Condition::bound("z"));
        let b = Bindings::of(&p);
        assert_eq!(b.possible, vset(&["x"]));
        assert!(owql_algebra::analysis::pattern_vars(&p).contains(&Variable::new("z")));
    }

    #[test]
    fn filter_grows_certain_within_possible() {
        // bound(?y) above an OPT promotes ?y to certain.
        let p = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y"))
            .filter(Condition::bound("y"));
        let b = Bindings::of(&p);
        assert_eq!(b.certain, vset(&["x", "y"]));
        // ...but a variable outside possible stays out of certain.
        let q = Pattern::t("?x", "a", "b").filter(Condition::bound("z"));
        let b = Bindings::of(&q);
        assert_eq!(b.certain, vset(&["x"]));
        assert!(b.certain.is_subset(&b.possible));
    }

    #[test]
    fn must_bind_handles_disjunction_conservatively() {
        // Forced by both disjuncts → forced.
        let r = Condition::bound("x")
            .and(Condition::eq_const("y", "c"))
            .or(Condition::eq_var("x", "y"));
        assert_eq!(must_bind(&r), vset(&["x", "y"]));
        // Forced by only one disjunct → not forced.
        let r = Condition::bound("x").or(Condition::bound("y"));
        assert_eq!(must_bind(&r), vset(&[]));
        // Negation forces nothing.
        assert_eq!(must_bind(&Condition::bound("x").not()), vset(&[]));
    }

    #[test]
    fn fold_uses_both_ends_of_the_lattice() {
        let b = Bindings {
            certain: vset(&["x"]),
            possible: vset(&["x", "y"]),
        };
        assert_eq!(fold_condition(&Condition::bound("x"), &b), Tri::True);
        assert_eq!(fold_condition(&Condition::bound("y"), &b), Tri::Unknown);
        assert_eq!(fold_condition(&Condition::bound("z"), &b), Tri::False);
        assert_eq!(fold_condition(&Condition::eq_var("x", "z"), &b), Tri::False);
        assert_eq!(fold_condition(&Condition::eq_var("x", "x"), &b), Tri::True);
        assert_eq!(fold_condition(&Condition::bound("z").not(), &b), Tri::True);
    }

    /// `certain ⊆ possible ⊆ pattern_vars` on random patterns: the
    /// lattice never claims a binding the paper's `var(P)` lacks.
    #[test]
    fn lattice_refines_the_ad_hoc_sets_on_random_patterns() {
        use owql_algebra::analysis::{pattern_vars, Operators};
        use owql_algebra::random::{random_pattern, PatternConfig};
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            max_depth: 4,
            ..PatternConfig::standard(4, 4)
        };
        for seed in 0..300u64 {
            let p = random_pattern(&cfg, seed);
            let b = Bindings::of(&p);
            assert!(b.certain.is_subset(&b.possible), "seed {seed}: {p}");
            assert!(b.possible.is_subset(&pattern_vars(&p)), "seed {seed}: {p}");
        }
    }
}
