//! Static analysis of graph patterns: variables, IRIs, operator
//! fragments, fresh-variable generation, and possible answer domains.
//!
//! The paper names fragments of SPARQL by the first letter of the
//! allowed operators — `SPARQL[AUF]`, `SPARQL[AUFS]`, `SPARQL[AOF]`,
//! etc. (Section 2.1). [`Operators`] is the corresponding bit-set and
//! [`operators`]/[`in_fragment`] classify an AST.
//!
//! [`possible_domains`] over-approximates the set of domains
//! `{dom(µ) : µ ∈ ⟦P⟧G, G any graph}` — the key ingredient of the
//! fixed-domain normal form of Lemma D.2, where the naive construction
//! would enumerate all `2^|var(P)|` subsets.

use crate::condition::Condition;
use crate::pattern::{Pattern, TriplePattern};
use crate::variable::Variable;
use owql_rdf::Iri;
use std::collections::BTreeSet;
use std::fmt;

/// A set of SPARQL operators, used to name fragments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Operators {
    bits: u8,
}

impl Operators {
    /// `AND` (A).
    pub const AND: Operators = Operators { bits: 1 };
    /// `UNION` (U).
    pub const UNION: Operators = Operators { bits: 2 };
    /// `OPT` (O).
    pub const OPT: Operators = Operators { bits: 4 };
    /// `FILTER` (F).
    pub const FILTER: Operators = Operators { bits: 8 };
    /// `SELECT` (S).
    pub const SELECT: Operators = Operators { bits: 16 };
    /// `NS` (N) — the paper's new operator.
    pub const NS: Operators = Operators { bits: 32 };
    /// `MINUS` (M) — derived operator of Appendix D.
    pub const MINUS: Operators = Operators { bits: 64 };

    /// The empty operator set (triple patterns only).
    pub const NONE: Operators = Operators { bits: 0 };

    /// `SPARQL[AF]`.
    pub const AF: Operators = Operators { bits: 1 | 8 };
    /// `SPARQL[AUF]` — the fragment characterizing monotone CONSTRUCT
    /// queries (Corollary 6.8).
    pub const AUF: Operators = Operators { bits: 1 | 2 | 8 };
    /// `SPARQL[AFS]`.
    pub const AFS: Operators = Operators { bits: 1 | 8 | 16 };
    /// `SPARQL[AUFS]` — the interpolation target fragment (Theorem 4.1).
    pub const AUFS: Operators = Operators {
        bits: 1 | 2 | 8 | 16,
    };
    /// `SPARQL[AOF]` — the home of well-designedness (Definition 3.4).
    pub const AOF: Operators = Operators { bits: 1 | 4 | 8 };
    /// `SPARQL[AUOF]`.
    pub const AUOF: Operators = Operators {
        bits: 1 | 2 | 4 | 8,
    };
    /// Full SPARQL (no NS, no MINUS).
    pub const SPARQL: Operators = Operators {
        bits: 1 | 2 | 4 | 8 | 16,
    };
    /// Full NS–SPARQL.
    pub const NS_SPARQL: Operators = Operators {
        bits: 1 | 2 | 4 | 8 | 16 | 32,
    };

    /// Union of two operator sets.
    pub fn with(self, other: Operators) -> Operators {
        Operators {
            bits: self.bits | other.bits,
        }
    }

    /// `true` iff `self` is contained in `allowed`.
    pub fn within(self, allowed: Operators) -> bool {
        self.bits & !allowed.bits == 0
    }

    /// `true` iff `op` is present.
    pub fn contains(self, op: Operators) -> bool {
        self.bits & op.bits == op.bits
    }
}

impl fmt::Debug for Operators {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Operators::AND, 'A'),
            (Operators::UNION, 'U'),
            (Operators::OPT, 'O'),
            (Operators::FILTER, 'F'),
            (Operators::SELECT, 'S'),
            (Operators::NS, 'N'),
            (Operators::MINUS, 'M'),
        ];
        write!(f, "[")?;
        for (op, c) in names {
            if self.contains(op) {
                write!(f, "{c}")?;
            }
        }
        write!(f, "]")
    }
}

/// The operators used by a pattern.
pub fn operators(p: &Pattern) -> Operators {
    match p {
        Pattern::Triple(_) => Operators::NONE,
        Pattern::And(a, b) => Operators::AND.with(operators(a)).with(operators(b)),
        Pattern::Union(a, b) => Operators::UNION.with(operators(a)).with(operators(b)),
        Pattern::Opt(a, b) => Operators::OPT.with(operators(a)).with(operators(b)),
        Pattern::Minus(a, b) => Operators::MINUS.with(operators(a)).with(operators(b)),
        Pattern::Filter(q, _) => Operators::FILTER.with(operators(q)),
        Pattern::Select(_, q) => Operators::SELECT.with(operators(q)),
        Pattern::Ns(q) => Operators::NS.with(operators(q)),
    }
}

/// `true` iff `p` only uses operators from `allowed` — e.g.
/// `in_fragment(p, Operators::AUFS)` tests membership in
/// `SPARQL[AUFS]`.
pub fn in_fragment(p: &Pattern, allowed: Operators) -> bool {
    operators(p).within(allowed)
}

/// `var(P)`: every variable mentioned in the pattern, including filter
/// conditions and `SELECT` sets (the paper's `var(·)`).
pub fn pattern_vars(p: &Pattern) -> BTreeSet<Variable> {
    let mut out = BTreeSet::new();
    collect_vars(p, &mut out);
    out
}

fn collect_vars(p: &Pattern, out: &mut BTreeSet<Variable>) {
    match p {
        Pattern::Triple(t) => out.extend(t.vars()),
        Pattern::And(a, b) | Pattern::Union(a, b) | Pattern::Opt(a, b) | Pattern::Minus(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        Pattern::Filter(q, r) => {
            collect_vars(q, out);
            out.extend(r.vars());
        }
        Pattern::Select(vs, q) => {
            out.extend(vs.iter().copied());
            collect_vars(q, out);
        }
        Pattern::Ns(q) => collect_vars(q, out),
    }
}

/// `I(P)`: every IRI mentioned in the pattern (triple patterns and
/// filter constants).
pub fn pattern_iris(p: &Pattern) -> BTreeSet<Iri> {
    let mut out = BTreeSet::new();
    collect_iris(p, &mut out);
    out
}

fn collect_iris(p: &Pattern, out: &mut BTreeSet<Iri>) {
    match p {
        Pattern::Triple(t) => out.extend(t.iris()),
        Pattern::And(a, b) | Pattern::Union(a, b) | Pattern::Opt(a, b) | Pattern::Minus(a, b) => {
            collect_iris(a, out);
            collect_iris(b, out);
        }
        Pattern::Filter(q, r) => {
            collect_iris(q, out);
            out.extend(r.iris());
        }
        Pattern::Select(_, q) | Pattern::Ns(q) => collect_iris(q, out),
    }
}

/// All triple patterns occurring in `p` (in syntactic order).
pub fn triple_patterns(p: &Pattern) -> Vec<TriplePattern> {
    let mut out = Vec::new();
    fn walk(p: &Pattern, out: &mut Vec<TriplePattern>) {
        match p {
            Pattern::Triple(t) => out.push(*t),
            Pattern::And(a, b)
            | Pattern::Union(a, b)
            | Pattern::Opt(a, b)
            | Pattern::Minus(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Pattern::Filter(q, _) | Pattern::Select(_, q) | Pattern::Ns(q) => walk(q, out),
        }
    }
    walk(p, &mut out);
    out
}

/// `true` iff the pattern contains a triple pattern whose three
/// positions are all variables — the condition excluded by Lemma G.2.
pub fn has_variable_only_triple(p: &Pattern) -> bool {
    triple_patterns(p).iter().any(|t| t.is_variable_only())
}

/// A generator of variables guaranteed fresh with respect to a set of
/// patterns, used by every renaming construction in Appendices D–F.
#[derive(Debug)]
pub struct FreshVars {
    taken: BTreeSet<Variable>,
    prefix: String,
    counter: usize,
}

impl FreshVars {
    /// Creates a generator avoiding every variable of `patterns`.
    pub fn avoiding<'a>(patterns: impl IntoIterator<Item = &'a Pattern>) -> FreshVars {
        let mut taken = BTreeSet::new();
        for p in patterns {
            taken.extend(pattern_vars(p));
        }
        FreshVars {
            taken,
            prefix: "f".to_owned(),
            counter: 0,
        }
    }

    /// Sets the name prefix of generated variables (cosmetic).
    pub fn with_prefix(mut self, prefix: &str) -> FreshVars {
        self.prefix = prefix.to_owned();
        self
    }

    /// Marks more variables as taken.
    pub fn also_avoid(&mut self, vars: impl IntoIterator<Item = Variable>) {
        self.taken.extend(vars);
    }

    /// Produces the next fresh variable.
    pub fn fresh(&mut self) -> Variable {
        loop {
            let v = Variable::new(&format!("__{}{}", self.prefix, self.counter));
            self.counter += 1;
            if self.taken.insert(v) {
                return v;
            }
        }
    }
}

/// Over-approximation of the possible answer domains of `p`:
/// a set `D` of variable sets such that for every graph `G` and every
/// `µ ∈ ⟦P⟧G`, `dom(µ) ∈ D`.
///
/// * triple `t` → `{var(t)}`
/// * `AND` → pairwise unions
/// * `UNION` → set union
/// * `OPT` → pairwise unions plus the left domains
/// * `MINUS` → left domains
/// * `FILTER` → left domains (bound-condition pruning applied: a domain
///   that falsifies a *top-level conjunct* `bound(?X)` / `¬bound(?X)` of
///   the condition is dropped)
/// * `SELECT V` → domains intersected with `V`
/// * `NS` → inner domains
///
/// The result size is bounded by `2^|var(P)|` but is typically tiny;
/// an internal cap keeps pathological patterns from exploding — beyond
/// the cap the full power set would be returned by the caller instead
/// (see [`possible_domains`] return value documentation in
/// `normal_form`).
pub fn possible_domains(p: &Pattern) -> BTreeSet<BTreeSet<Variable>> {
    const CAP: usize = 4096;
    match p {
        Pattern::Triple(t) => [t.vars()].into_iter().collect(),
        Pattern::And(a, b) => {
            let da = possible_domains(a);
            let db = possible_domains(b);
            let mut out = BTreeSet::new();
            for x in &da {
                for y in &db {
                    out.insert(x.union(y).copied().collect());
                    if out.len() > CAP {
                        return power_set_of_vars(p);
                    }
                }
            }
            out
        }
        Pattern::Union(a, b) => {
            let mut out = possible_domains(a);
            out.extend(possible_domains(b));
            out
        }
        Pattern::Opt(a, b) => {
            let da = possible_domains(a);
            let db = possible_domains(b);
            let mut out = da.clone();
            for x in &da {
                for y in &db {
                    out.insert(x.union(y).copied().collect());
                    if out.len() > CAP {
                        return power_set_of_vars(p);
                    }
                }
            }
            out
        }
        Pattern::Minus(a, _) => possible_domains(a),
        Pattern::Filter(q, r) => {
            let dq = possible_domains(q);
            let (must, must_not) = bound_literals(r);
            dq.into_iter()
                .filter(|d| {
                    must.iter().all(|v| d.contains(v)) && must_not.iter().all(|v| !d.contains(v))
                })
                .collect()
        }
        Pattern::Select(vs, q) => possible_domains(q)
            .into_iter()
            .map(|d| d.intersection(vs).copied().collect())
            .collect(),
        Pattern::Ns(q) => possible_domains(q),
    }
}

/// Fallback for [`possible_domains`]: the full power set of `var(P)`.
fn power_set_of_vars(p: &Pattern) -> BTreeSet<BTreeSet<Variable>> {
    let vars: Vec<Variable> = pattern_vars(p).into_iter().collect();
    assert!(
        vars.len() <= 20,
        "domain analysis exploded on a pattern with {} variables",
        vars.len()
    );
    let mut out = BTreeSet::new();
    for mask in 0u32..(1 << vars.len()) {
        out.insert(
            vars.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect(),
        );
    }
    out
}

/// Extracts the `bound(?X)` (first set) and `¬bound(?X)` (second set)
/// atoms appearing as top-level conjuncts of a condition.
fn bound_literals(r: &Condition) -> (BTreeSet<Variable>, BTreeSet<Variable>) {
    let mut must = BTreeSet::new();
    let mut must_not = BTreeSet::new();
    fn walk(r: &Condition, must: &mut BTreeSet<Variable>, must_not: &mut BTreeSet<Variable>) {
        match r {
            Condition::And(a, b) => {
                walk(a, must, must_not);
                walk(b, must, must_not);
            }
            Condition::Bound(v) => {
                must.insert(*v);
            }
            Condition::Not(inner) => {
                if let Condition::Bound(v) = inner.as_ref() {
                    must_not.insert(*v);
                }
            }
            // Equality atoms entail boundness too.
            Condition::EqConst(v, _) => {
                must.insert(*v);
            }
            Condition::EqVar(v, w) => {
                must.insert(*v);
                must.insert(*w);
            }
            _ => {}
        }
    }
    walk(r, &mut must, &mut must_not);
    (must, must_not)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;

    fn vset(names: &[&str]) -> BTreeSet<Variable> {
        names.iter().map(|n| Variable::new(n)).collect()
    }

    #[test]
    fn operator_collection() {
        let p = Pattern::t("?x", "a", "b")
            .and(Pattern::t("?y", "c", "d"))
            .union(Pattern::t("?z", "e", "f"))
            .filter(Condition::bound("x"));
        let ops = operators(&p);
        assert!(ops.contains(Operators::AND));
        assert!(ops.contains(Operators::UNION));
        assert!(ops.contains(Operators::FILTER));
        assert!(!ops.contains(Operators::OPT));
        assert!(in_fragment(&p, Operators::AUF));
        assert!(in_fragment(&p, Operators::AUFS));
        assert!(!in_fragment(&p, Operators::AF));
        assert_eq!(format!("{ops:?}"), "[AUF]");
    }

    #[test]
    fn fragment_constants_nest() {
        assert!(Operators::AUF.within(Operators::AUFS));
        assert!(Operators::AUFS.within(Operators::SPARQL));
        assert!(Operators::SPARQL.within(Operators::NS_SPARQL));
        assert!(!Operators::AOF.within(Operators::AUF));
    }

    #[test]
    fn vars_include_filter_and_select() {
        let p = Pattern::t("?x", "a", "?y")
            .filter(Condition::bound("z"))
            .select(["?w"]);
        assert_eq!(pattern_vars(&p), vset(&["x", "y", "z", "w"]));
    }

    #[test]
    fn iris_include_filter_constants() {
        let p = Pattern::t("?x", "pred", "obj").filter(Condition::eq_const("x", "konst"));
        let iris: Vec<&str> = pattern_iris(&p).iter().map(|i| i.as_str()).collect();
        assert_eq!(iris, vec!["konst", "obj", "pred"]);
    }

    #[test]
    fn triple_pattern_listing() {
        let p = Pattern::t("?x", "a", "b").and(Pattern::t("?y", "c", "d").ns());
        assert_eq!(triple_patterns(&p).len(), 2);
        assert!(!has_variable_only_triple(&p));
        assert!(has_variable_only_triple(&Pattern::t("?a", "?b", "?c")));
    }

    #[test]
    fn fresh_vars_avoid_existing() {
        let p = Pattern::t("?__f0", "a", "?x");
        let mut f = FreshVars::avoiding([&p]);
        let v = f.fresh();
        assert_ne!(v, Variable::new("__f0"));
        let w = f.fresh();
        assert_ne!(v, w);
    }

    #[test]
    fn domains_triple_and_and() {
        let p = Pattern::t("?x", "a", "?y").and(Pattern::t("?y", "b", "?z"));
        let d = possible_domains(&p);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&vset(&["x", "y", "z"])));
    }

    #[test]
    fn domains_union_and_opt() {
        let p = Pattern::t("?x", "a", "b").opt(Pattern::t("?x", "c", "?y"));
        let d = possible_domains(&p);
        assert_eq!(d.len(), 2);
        assert!(d.contains(&vset(&["x"])));
        assert!(d.contains(&vset(&["x", "y"])));

        let u = Pattern::t("?x", "a", "b").union(Pattern::t("?y", "c", "d"));
        let du = possible_domains(&u);
        assert_eq!(du.len(), 2);
    }

    #[test]
    fn domains_select_intersects() {
        let p = Pattern::t("?x", "a", "?y").select(["?x"]);
        let d = possible_domains(&p);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&vset(&["x"])));
    }

    #[test]
    fn domains_filter_prunes_by_bound() {
        let p = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y"))
            .filter(Condition::bound("y"));
        let d = possible_domains(&p);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&vset(&["x", "y"])));

        let q = Pattern::t("?x", "a", "b")
            .opt(Pattern::t("?x", "c", "?y"))
            .filter(Condition::bound("y").not());
        let dq = possible_domains(&q);
        assert_eq!(dq.len(), 1);
        assert!(dq.contains(&vset(&["x"])));
    }

    #[test]
    fn domains_minus_keeps_left() {
        let p = Pattern::t("?x", "a", "b").minus(Pattern::t("?x", "c", "?y"));
        let d = possible_domains(&p);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&vset(&["x"])));
    }
}
