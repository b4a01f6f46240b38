//! Query plans: a static EXPLAIN for the indexed engine.
//!
//! [`Engine::explain`](crate::engine::Engine) renders the strategy the
//! engine will take for a pattern: flattened `AND`-spines with the
//! greedy join order and per-step index access paths and cardinality
//! estimates, and the operator tree above them. Purely informational —
//! the engine re-derives the order at run time with live binding
//! information — but estimates come from the same index, so the
//! printed order matches the executed one on constant-only statistics.

use owql_algebra::pattern::{Pattern, TriplePattern};
use owql_algebra::Variable;
use owql_rdf::TripleLookup;
use std::collections::BTreeSet;
use std::fmt;

/// A node of a query plan.
#[derive(Clone, Debug)]
pub enum Plan {
    /// One step of an index nested-loop join.
    TripleScan {
        /// The triple pattern scanned.
        pattern: TriplePattern,
        /// The index access path chosen when only constants are known.
        access_path: &'static str,
        /// Constant-only cardinality estimate from the index.
        estimated_rows: usize,
    },
    /// A flattened `AND`-spine: `steps` in execution order, then
    /// `others` (non-triple conjuncts) hash-joined in.
    IndexJoin {
        /// Triple-scan steps in the greedy order.
        steps: Vec<Plan>,
        /// Recursively planned non-triple conjuncts.
        others: Vec<Plan>,
    },
    /// Left-outer-join (`OPT`).
    LeftOuterJoin(Box<Plan>, Box<Plan>),
    /// Union.
    Union(Box<Plan>, Box<Plan>),
    /// Difference (`MINUS`).
    Difference(Box<Plan>, Box<Plan>),
    /// Filter.
    Filter(Box<Plan>, String),
    /// Projection.
    Project(Box<Plan>, Vec<Variable>),
    /// Maximal answers (`NS`).
    MaximalAnswers(Box<Plan>),
}

impl Plan {
    fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        for _ in 0..depth {
            write!(f, "  ")?;
        }
        Ok(())
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        Plan::indent(f, depth)?;
        match self {
            Plan::TripleScan {
                pattern,
                access_path,
                estimated_rows,
            } => writeln!(
                f,
                "scan {pattern} via {access_path} (~{estimated_rows} rows)"
            ),
            Plan::IndexJoin { steps, others } => {
                writeln!(f, "index nested-loop join")?;
                for s in steps {
                    s.fmt_at(f, depth + 1)?;
                }
                for o in others {
                    Plan::indent(f, depth + 1)?;
                    writeln!(f, "hash-join with:")?;
                    o.fmt_at(f, depth + 2)?;
                }
                Ok(())
            }
            Plan::LeftOuterJoin(a, b) => {
                writeln!(f, "left outer join (OPT)")?;
                a.fmt_at(f, depth + 1)?;
                b.fmt_at(f, depth + 1)
            }
            Plan::Union(a, b) => {
                writeln!(f, "union")?;
                a.fmt_at(f, depth + 1)?;
                b.fmt_at(f, depth + 1)
            }
            Plan::Difference(a, b) => {
                writeln!(f, "difference (MINUS)")?;
                a.fmt_at(f, depth + 1)?;
                b.fmt_at(f, depth + 1)
            }
            Plan::Filter(p, cond) => {
                writeln!(f, "filter {cond}")?;
                p.fmt_at(f, depth + 1)
            }
            Plan::Project(p, vars) => {
                write!(f, "project {{")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                writeln!(f, "}}")?;
                p.fmt_at(f, depth + 1)
            }
            Plan::MaximalAnswers(p) => {
                writeln!(f, "maximal answers (NS)")?;
                p.fmt_at(f, depth + 1)
            }
        }
    }

    /// Number of plan nodes.
    pub fn size(&self) -> usize {
        match self {
            Plan::TripleScan { .. } => 1,
            Plan::IndexJoin { steps, others } => {
                1 + steps.iter().map(Plan::size).sum::<usize>()
                    + others.iter().map(Plan::size).sum::<usize>()
            }
            Plan::LeftOuterJoin(a, b) | Plan::Union(a, b) | Plan::Difference(a, b) => {
                1 + a.size() + b.size()
            }
            Plan::Filter(p, _) | Plan::Project(p, _) | Plan::MaximalAnswers(p) => 1 + p.size(),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, 0)
    }
}

pub(crate) fn access_path(t: TriplePattern) -> &'static str {
    match (
        t.s.as_iri().is_some(),
        t.p.as_iri().is_some(),
        t.o.as_iri().is_some(),
    ) {
        (true, true, true) => "SPO (point)",
        (true, true, false) => "SP index",
        (false, true, true) => "PO index",
        (true, false, true) => "SO index",
        (true, false, false) => "S index",
        (false, true, false) => "P index",
        (false, false, true) => "O index",
        (false, false, false) => "full scan",
    }
}

/// Builds the plan for `pattern` against `index` — the logic mirrors
/// the engine's spine flattening and greedy ordering. Works against any
/// [`TripleLookup`] backend (a full [`owql_rdf::GraphIndex`] or a store
/// snapshot's delta overlay).
pub fn plan<I: TripleLookup>(pattern: &Pattern, index: &I) -> Plan {
    match pattern {
        Pattern::Triple(_) | Pattern::And(..) => {
            let mut triples = Vec::new();
            let mut others = Vec::new();
            flatten(pattern, &mut triples, &mut others);
            // Replay the greedy order statically.
            let mut bound: BTreeSet<Variable> = BTreeSet::new();
            let mut steps = Vec::new();
            while !triples.is_empty() {
                let mut best = 0;
                let mut best_key = (usize::MAX, usize::MAX);
                for (i, t) in triples.iter().enumerate() {
                    let unbound = t.vars().iter().filter(|v| !bound.contains(v)).count();
                    let card = index.cardinality(t.s.as_iri(), t.p.as_iri(), t.o.as_iri());
                    if (unbound, card) < best_key {
                        best_key = (unbound, card);
                        best = i;
                    }
                }
                let t = triples.swap_remove(best);
                bound.extend(t.vars());
                steps.push(Plan::TripleScan {
                    pattern: t,
                    access_path: access_path(t),
                    estimated_rows: index.cardinality(t.s.as_iri(), t.p.as_iri(), t.o.as_iri()),
                });
            }
            let others = others.into_iter().map(|p| plan(p, index)).collect();
            Plan::IndexJoin { steps, others }
        }
        Pattern::Opt(a, b) => {
            Plan::LeftOuterJoin(Box::new(plan(a, index)), Box::new(plan(b, index)))
        }
        Pattern::Union(a, b) => Plan::Union(Box::new(plan(a, index)), Box::new(plan(b, index))),
        Pattern::Minus(a, b) => {
            Plan::Difference(Box::new(plan(a, index)), Box::new(plan(b, index)))
        }
        Pattern::Filter(p, r) => Plan::Filter(Box::new(plan(p, index)), r.to_string()),
        Pattern::Select(v, p) => {
            Plan::Project(Box::new(plan(p, index)), v.iter().copied().collect())
        }
        Pattern::Ns(p) => Plan::MaximalAnswers(Box::new(plan(p, index))),
    }
}

/// One node of an EXPLAIN ANALYZE tree: the *observed* counterpart of
/// [`Plan`], rebuilt from the spans an instrumented run recorded.
#[derive(Clone, Debug)]
pub struct AnnotatedNode {
    /// Operator kind (obs taxonomy; index nested-loop steps are `SCAN`).
    pub kind: owql_obs::OpKind,
    /// Human-readable operator label (e.g. `"filter bound(?x)"`).
    pub label: String,
    /// Observed input cardinality, where the operator has one.
    pub rows_in: Option<u64>,
    /// Observed output cardinality.
    pub rows_out: u64,
    /// Observed wall time.
    pub elapsed_ns: u64,
    /// Child operators, in evaluation order.
    pub children: Vec<AnnotatedNode>,
}

impl AnnotatedNode {
    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(AnnotatedNode::size).sum::<usize>()
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        Plan::indent(f, depth)?;
        write!(f, "{} {}", self.kind, self.label)?;
        match self.rows_in {
            Some(rows_in) => write!(f, "  [rows: {} -> {}", rows_in, self.rows_out)?,
            None => write!(f, "  [rows: {}", self.rows_out)?,
        }
        writeln!(f, ", {:.3} ms]", self.elapsed_ns as f64 / 1e6)?;
        for c in &self.children {
            c.fmt_at(f, depth + 1)?;
        }
        Ok(())
    }
}

/// An EXPLAIN ANALYZE report: the operator tree with observed row
/// counts and wall times per node, as returned by
/// [`Engine::explain_analyze`](crate::engine::Engine::explain_analyze).
///
/// Where [`Plan`] prints *estimated* cardinalities from the index, this
/// prints what the run actually produced — the tool for spotting a join
/// step that exploded or an NS filter that pruned nothing.
#[derive(Clone, Debug)]
pub struct AnnotatedPlan {
    /// Final answer count of the profiled run.
    pub answers: usize,
    /// Total wall time across the top-level operators.
    pub total_ns: u64,
    /// Top-level operators (one for a single query pattern).
    pub roots: Vec<AnnotatedNode>,
}

impl AnnotatedPlan {
    /// Number of operator nodes in the tree.
    pub fn size(&self) -> usize {
        self.roots.iter().map(AnnotatedNode::size).sum()
    }
}

impl fmt::Display for AnnotatedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXPLAIN ANALYZE  [answers: {}, {:.3} ms]",
            self.answers,
            self.total_ns as f64 / 1e6
        )?;
        for r in &self.roots {
            r.fmt_at(f, 0)?;
        }
        Ok(())
    }
}

/// Rebuilds the operator tree from the flat span list a [`Recorder`]
/// collected. Span ids are allocated pre-order (a parent's id precedes
/// its children's), so sorting each sibling list by id restores the
/// evaluation order even though spans complete — and are recorded —
/// post-order.
///
/// [`Recorder`]: owql_obs::Recorder
pub fn annotate(spans: &[owql_obs::Span], answers: usize) -> AnnotatedPlan {
    use std::collections::BTreeMap;
    // Sort spans by id so children attach in evaluation order.
    let mut ordered: Vec<&owql_obs::Span> = spans.iter().collect();
    ordered.sort_by_key(|s| s.id.0);

    // Build children bottom-up: iterating ids in *descending* order
    // guarantees every child is finished before its parent is taken.
    let mut pending: BTreeMap<u64, Vec<AnnotatedNode>> = BTreeMap::new();
    for s in ordered.iter().rev() {
        let node = AnnotatedNode {
            kind: s.kind,
            label: s.label.clone(),
            rows_in: s.rows_in,
            rows_out: s.rows_out,
            elapsed_ns: s.elapsed_ns,
            children: pending.remove(&s.id.0).unwrap_or_default(),
        };
        pending.entry(s.parent.0).or_default().insert(0, node);
    }
    let roots = pending
        .remove(&owql_obs::SpanId::ROOT.0)
        .unwrap_or_default();
    let total_ns = roots.iter().map(|r| r.elapsed_ns).sum();
    AnnotatedPlan {
        answers,
        total_ns,
        roots,
    }
}

fn flatten<'a>(p: &'a Pattern, triples: &mut Vec<TriplePattern>, others: &mut Vec<&'a Pattern>) {
    match p {
        Pattern::And(a, b) => {
            flatten(a, triples, others);
            flatten(b, triples, others);
        }
        Pattern::Triple(t) => triples.push(*t),
        other => others.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use owql_parser::parse_pattern;
    use owql_rdf::generate;

    #[test]
    fn plan_orders_selective_scan_first() {
        // One selective pattern (constant subject) and one broad one.
        let g = generate::star("hub", "spoke", 50);
        let engine = Engine::new(&g);
        let p = parse_pattern("((?x, spoke, ?y) AND (hub, spoke, ?x))").unwrap();
        let plan = engine.explain(&p);
        match &plan {
            Plan::IndexJoin { steps, others } => {
                assert!(others.is_empty());
                assert_eq!(steps.len(), 2);
                // The constant-subject scan goes first (fewer unbound vars).
                match &steps[0] {
                    Plan::TripleScan { access_path, .. } => {
                        assert_eq!(*access_path, "SP index")
                    }
                    other => panic!("expected scan, got {other:?}"),
                }
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn plan_renders_all_operators() {
        let g = generate::uniform(20, 4, 4, 4, 1);
        let engine = Engine::new(&g);
        let p = parse_pattern(
            "NS((SELECT {?x} WHERE ((((?x, p0, ?y) OPT (?y, p1, ?z)) UNION \
              ((?x, p2, ?w) MINUS (?w, p3, ?v))) FILTER bound(?x))))",
        )
        .unwrap();
        let text = engine.explain(&p).to_string();
        for needle in [
            "maximal answers (NS)",
            "project {?x}",
            "filter bound(?x)",
            "union",
            "left outer join (OPT)",
            "difference (MINUS)",
            "scan",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn estimates_match_index() {
        let g = generate::star("hub", "spoke", 10);
        let engine = Engine::new(&g);
        let p = parse_pattern("(hub, spoke, ?x)").unwrap();
        match engine.explain(&p) {
            Plan::IndexJoin { steps, .. } => match &steps[0] {
                Plan::TripleScan { estimated_rows, .. } => assert_eq!(*estimated_rows, 10),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_analyze_annotates_observed_rows() {
        let g = generate::star("hub", "spoke", 10);
        let engine = Engine::new(&g);
        let p = parse_pattern("((hub, spoke, ?x) AND (hub, spoke, ?y))").unwrap();
        let analyzed = engine.explain_analyze(&p).expect("narrow pattern");
        assert_eq!(analyzed.answers, 100);
        assert_eq!(analyzed.roots.len(), 1);
        let root = &analyzed.roots[0];
        assert_eq!(root.kind, owql_obs::OpKind::And);
        assert_eq!(root.rows_out, 100);
        // Two SCAN children in evaluation order: 1 -> 10 -> 100.
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].rows_in, Some(1));
        assert_eq!(root.children[0].rows_out, 10);
        assert_eq!(root.children[1].rows_in, Some(10));
        assert_eq!(root.children[1].rows_out, 100);
        let text = analyzed.to_string();
        for needle in [
            "EXPLAIN ANALYZE",
            "answers: 100",
            "SCAN",
            "rows: 10 -> 100",
            "ms]",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn explain_analyze_renders_operator_tree() {
        let g = generate::uniform(20, 4, 4, 4, 1);
        let engine = Engine::new(&g);
        let p = parse_pattern(
            "NS((SELECT {?x} WHERE ((((?x, p0, ?y) OPT (?y, p1, ?z)) UNION \
              ((?x, p2, ?w) MINUS (?w, p3, ?v))) FILTER bound(?x))))",
        )
        .unwrap();
        let analyzed = engine.explain_analyze(&p).expect("narrow pattern");
        let text = analyzed.to_string();
        for needle in ["NS", "SELECT", "FILTER", "UNION", "OPT", "MINUS", "SCAN"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(
            analyzed.answers as u64,
            analyzed.roots.iter().map(|r| r.rows_out).sum::<u64>()
        );
    }

    #[test]
    fn plan_size() {
        let g = generate::uniform(10, 3, 3, 3, 2);
        let engine = Engine::new(&g);
        let p = parse_pattern("((?a, p0, ?b) AND (?b, p1, ?c))").unwrap();
        assert_eq!(engine.explain(&p).size(), 3); // join + 2 scans
    }
}
