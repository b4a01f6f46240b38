//! Query plans: the plan phase of the columnar walker.
//!
//! [`Plan`] is built once per query, before any row is touched. Building
//! it fixes the variable frame (refusing more than [`WIDTH_LIMIT`]
//! variables), compiles every triple pattern and FILTER condition to
//! term ids against the snapshot's dictionary, orders each `AND`-spine's
//! scan steps greedily — fewest columns not yet bound, then the smallest
//! estimate — and records each step's access path (the run its
//! constants and the columns bound before it select) and estimate, the
//! [`IdView::cardinality_upper`] of its constants. A conjunct
//! `t FILTER R` with `vars(R) ⊆ vars(t)` is a scan step that carries
//! `R`, so it is ordered like any other triple. The execute phase
//! (`columnar.rs`) walks this plan, never the pattern, and every `SCAN`
//! span it records carries the label and estimate of the step it runs.
//! [`Engine::explain`](crate::Engine::explain) stops after this phase,
//! so EXPLAIN prints the plan that runs.
//!
//! A spine's starting bound set is static: the columns its non-triple
//! conjuncts certainly bind ([`owql_lint::Bindings`]). One choice is
//! left to run time — those conjuncts are joined into the spine's seed
//! smallest-first by their actual sizes — and the rendered plan says so.
//!
//! `P1 OPT P2` whose right side is a spine of (possibly filtered) triple
//! steps *probes* from its left side when that is selective: P2 is
//! planned with the columns P1 certainly binds and P2 mentions already
//! bound, and runs seeded by the left table's distinct projection onto
//! them. The rule (`PROBE_RATIO`, columnar.rs) is fixed here, and the
//! join's label names the probe columns.

use crate::columnar::PROBE_RATIO;
use crate::run::EvalError;
use owql_algebra::analysis::pattern_vars;
use owql_algebra::id_mapping::{VarFrame, WIDTH_LIMIT};
use owql_algebra::normal_form::union_spine;
use owql_algebra::pattern::{Pattern, TermPattern, TriplePattern};
use owql_algebra::{Condition, Variable};
use owql_obs::OpKind;
use owql_rdf::{IdView, TermId, NO_TERM};
use std::fmt;

/// One triple-pattern position, id-compiled against the frame and
/// dictionary.
#[derive(Clone, Copy, Debug)]
pub(crate) enum IdPos {
    /// A constant that is interned — matches exactly this id.
    Const(TermId),
    /// A constant absent from the dictionary — matches nothing.
    Missing,
    /// A variable at this frame column.
    Var(usize),
}

/// An id-compiled triple pattern.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdTriple {
    pub(crate) pos: [IdPos; 3],
}

impl IdTriple {
    /// `true` iff some constant cannot match (the pattern is empty).
    fn unsatisfiable(&self) -> bool {
        self.pos.iter().any(|p| matches!(p, IdPos::Missing))
    }

    /// Bitmask of the frame columns this pattern's variables occupy.
    fn var_mask(&self) -> u64 {
        self.pos.iter().fold(0u64, |m, p| match p {
            IdPos::Var(c) => m | (1 << c),
            _ => m,
        })
    }
}

/// A [`Condition`] compiled onto frame columns and term ids.
#[derive(Clone, Debug)]
pub(crate) enum IdCond {
    Always,
    Never,
    Bound(usize),
    EqConst(usize, TermId),
    EqVar(usize, usize),
    Not(Box<IdCond>),
    And(Box<IdCond>, Box<IdCond>),
    Or(Box<IdCond>, Box<IdCond>),
}

impl IdCond {
    pub(crate) fn satisfied_by(&self, row: &[TermId]) -> bool {
        match self {
            IdCond::Always => true,
            IdCond::Never => false,
            IdCond::Bound(c) => row[*c] != NO_TERM,
            // An unbound slot is 0 and real ids start at 1, so the
            // plain compare also encodes "bound and equal".
            IdCond::EqConst(c, id) => row[*c] == *id,
            IdCond::EqVar(a, b) => row[*a] != NO_TERM && row[*a] == row[*b],
            IdCond::Not(r) => !r.satisfied_by(row),
            IdCond::And(a, b) => a.satisfied_by(row) && b.satisfied_by(row),
            IdCond::Or(a, b) => a.satisfied_by(row) || b.satisfied_by(row),
        }
    }
}

/// One scan step of an `AND`-spine: planned here, run as one `SCAN`
/// span that carries this step's [`Step::label`] and `estimated_rows`.
#[derive(Clone, Debug)]
pub struct Step {
    /// The triple pattern scanned.
    pub pattern: TriplePattern,
    /// The index access path the step scans: the run its constants
    /// and the columns bound before it in the spine select.
    pub access_path: &'static str,
    /// Upper bound on the rows the pattern matches: the constant-only
    /// run cardinality of base plus add tier, deletions not subtracted
    /// (0 when a constant is not in the dictionary).
    pub estimated_rows: usize,
    pub(crate) ids: IdTriple,
    /// The condition of a `t FILTER R` conjunct, as written and
    /// id-compiled: the step keeps only the rows that satisfy it.
    pub(crate) filter: Option<(Condition, IdCond)>,
}

impl Step {
    /// The label of the `SCAN` span that runs this step.
    pub fn label(&self) -> String {
        match self.filter() {
            Some(r) => format!("{} via {} filter ({r})", self.pattern, self.access_path),
            None => format!("{} via {}", self.pattern, self.access_path),
        }
    }

    /// The FILTER condition this step applies to its rows, if any.
    pub fn filter(&self) -> Option<&Condition> {
        self.filter.as_ref().map(|(r, _)| r)
    }
}

/// A flattened `AND`-spine: the non-triple conjuncts that seed it, then
/// its scan steps in run order.
#[derive(Clone, Debug)]
pub struct Spine {
    pub(crate) others: Vec<Node>,
    /// The scan steps, in the order they run.
    pub steps: Vec<Step>,
    /// Some step has a constant the dictionary has never seen, so the
    /// spine matches nothing: neither its steps nor its (unplanned)
    /// non-triple conjuncts run.
    pub(crate) unsatisfiable: bool,
}

/// One operator of a [`Plan`].
#[derive(Clone, Debug)]
pub(crate) enum Node {
    Spine(Spine),
    /// `P1 OPT P2`; with probe columns (a per-column mask), the right
    /// spine runs seeded by the left table's projection onto them.
    LeftOuterJoin(Box<Node>, Box<Node>, Option<Vec<bool>>),
    /// The disjuncts of a `UNION` spine, in pattern order.
    Union(Vec<Node>),
    Difference(Box<Node>, Box<Node>),
    /// The condition as written (for labels) and id-compiled.
    Filter(Box<Node>, Condition, IdCond),
    /// The kept frame columns.
    Project(Box<Node>, Vec<bool>),
    MaximalAnswers(Box<Node>),
}

impl Node {
    /// The obs taxonomy kind of this operator's span.
    pub(crate) fn kind(&self) -> OpKind {
        match self {
            Node::Spine(_) => OpKind::And,
            Node::Union(_) => OpKind::Union,
            Node::LeftOuterJoin(..) => OpKind::Opt,
            Node::Difference(..) => OpKind::Minus,
            Node::Filter(..) => OpKind::Filter,
            Node::Project(..) => OpKind::Select,
            Node::MaximalAnswers(_) => OpKind::Ns,
        }
    }

    /// The label of this operator's span.
    pub(crate) fn label(&self, frame: &VarFrame) -> String {
        match self {
            Node::Spine(s) => match s.others.len() {
                0 => format!("index join: {} steps", s.steps.len()),
                m => format!("index join: {} steps + {m} subpatterns", s.steps.len()),
            },
            Node::Union(ds) => format!("union of {} disjuncts", ds.len()),
            Node::LeftOuterJoin(_, _, None) => "left outer join".to_owned(),
            Node::LeftOuterJoin(_, _, Some(keep)) => {
                format!("left outer join (probe on {})", var_set(frame, keep))
            }
            Node::Difference(..) => "difference".to_owned(),
            Node::Filter(_, r, _) => format!("filter {r}"),
            Node::Project(_, keep) => format!("project {}", var_set(frame, keep)),
            Node::MaximalAnswers(_) => "maximal answers".to_owned(),
        }
    }

    fn children(&self) -> Vec<&Node> {
        match self {
            Node::Spine(s) => s.others.iter().collect(),
            Node::Union(ds) => ds.iter().collect(),
            Node::LeftOuterJoin(a, b, _) | Node::Difference(a, b) => vec![a.as_ref(), b.as_ref()],
            Node::Filter(p, ..) | Node::Project(p, _) | Node::MaximalAnswers(p) => vec![p.as_ref()],
        }
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, frame: &VarFrame, depth: usize) -> fmt::Result {
        indent(f, depth)?;
        writeln!(f, "{}", self.label(frame))?;
        let Node::Spine(spine) = self else {
            return self
                .children()
                .iter()
                .try_for_each(|c| c.fmt_at(f, frame, depth + 1));
        };
        if spine.unsatisfiable {
            indent(f, depth + 1)?;
            writeln!(f, "matches nothing: a constant is not in the dictionary")?;
        }
        if !spine.others.is_empty() {
            indent(f, depth + 1)?;
            writeln!(f, "seed, joined smallest first at run time:")?;
        }
        for o in &spine.others {
            o.fmt_at(f, frame, depth + 2)?;
        }
        for s in &spine.steps {
            indent(f, depth + 1)?;
            writeln!(f, "scan {} (~{} rows)", s.label(), s.estimated_rows)?;
        }
        Ok(())
    }
}

/// The plan of one query: the output of the plan phase and the input
/// of the execute phase. `Display` renders it (EXPLAIN); nothing else
/// formats it.
#[derive(Clone, Debug)]
pub struct Plan {
    pattern: Pattern,
    pub(crate) frame: VarFrame,
    pub(crate) root: Node,
}

impl Plan {
    /// The plan phase: plans `pattern` against `view`, whose dictionary
    /// the compiled ids and whose runs the estimates come from. Fails
    /// only on a pattern with more than [`WIDTH_LIMIT`] variables.
    pub(crate) fn build(pattern: Pattern, view: IdView<'_>) -> Result<Plan, EvalError> {
        let vars = pattern_vars(&pattern);
        let count = vars.len();
        let frame = VarFrame::new(vars).ok_or(EvalError::TooManyVariables {
            count,
            limit: WIDTH_LIMIT,
        })?;
        let root = Planner {
            view,
            frame: &frame,
        }
        .node(&pattern);
        Ok(Plan {
            pattern,
            frame,
            root,
        })
    }

    /// The pattern this plan evaluates (the optimized one when the run
    /// asked for the optimizer).
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Every `AND`-spine, in the pre-order the sequential walk starts
    /// them (a spine before its seed's spines, operands left to right).
    pub fn spines(&self) -> Vec<&Spine> {
        fn walk<'a>(node: &'a Node, out: &mut Vec<&'a Spine>) {
            if let Node::Spine(s) = node {
                out.push(s);
            }
            for c in node.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Number of plan nodes (operators plus scan steps).
    pub fn size(&self) -> usize {
        fn size(node: &Node) -> usize {
            let steps = match node {
                Node::Spine(s) => s.steps.len(),
                _ => 0,
            };
            1 + steps + node.children().into_iter().map(size).sum::<usize>()
        }
        size(&self.root)
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root.fmt_at(f, &self.frame, 0)
    }
}

/// The frame variables a column mask keeps, as `{?a, ?b}`.
fn var_set(frame: &VarFrame, keep: &[bool]) -> String {
    let names: Vec<String> = frame
        .vars()
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(v, _)| v.to_string())
        .collect();
    format!("{{{}}}", names.join(", "))
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    Ok(())
}

/// The plan phase's compile context.
struct Planner<'a> {
    view: IdView<'a>,
    frame: &'a VarFrame,
}

impl Planner<'_> {
    fn node(&self, p: &Pattern) -> Node {
        let node = |q: &Pattern| Box::new(self.node(q));
        match p {
            Pattern::Triple(_) | Pattern::And(..) => Node::Spine(self.spine(p, 0)),
            Pattern::Opt(a, b) => {
                let left = self.node(a);
                let (right, probe) = self.opt_right(a, b, &left);
                Node::LeftOuterJoin(Box::new(left), Box::new(right), probe)
            }
            Pattern::Union(..) => {
                Node::Union(union_spine(p).into_iter().map(|d| self.node(d)).collect())
            }
            Pattern::Minus(a, b) => Node::Difference(node(a), node(b)),
            Pattern::Filter(q, r) => Node::Filter(node(q), r.clone(), self.cond(r)),
            Pattern::Select(vars, q) => {
                let keep = (0..self.frame.width().max(1))
                    .map(|c| self.frame.vars().get(c).is_some_and(|v| vars.contains(v)))
                    .collect();
                Node::Project(node(q), keep)
            }
            Pattern::Ns(q) => Node::MaximalAnswers(node(q)),
        }
    }

    /// Plans the right operand of `a OPT b`, whose left operand planned
    /// as `left`. It probes — `b` is planned with the probe columns
    /// bound and the mask is returned — iff `b` is a satisfiable spine
    /// of triple steps sharing columns that `a` certainly binds, and
    /// the left side is selective: its estimate times [`PROBE_RATIO`]
    /// is at most the estimate of `b`'s unseeded first step.
    ///
    /// Sound because every probe column is bound in every left row and
    /// in every right row: a right row outside the semi-join agrees
    /// with no left row there, so it is compatible with none.
    fn opt_right(&self, a: &Pattern, b: &Pattern, left: &Node) -> (Node, Option<Vec<bool>>) {
        let unseeded = self.node(b);
        let Node::Spine(spine) = &unseeded else {
            return (unseeded, None);
        };
        let right_vars = spine.steps.iter().fold(0, |m, s| m | s.ids.var_mask());
        let shared = self.certain_mask(a) & right_vars;
        let selective = match (left_estimate(left), spine.steps.first()) {
            (Some(l), Some(first)) => l.saturating_mul(PROBE_RATIO) <= first.estimated_rows,
            _ => false,
        };
        if shared == 0 || !spine.others.is_empty() || spine.unsatisfiable || !selective {
            return (unseeded, None);
        }
        let keep = (0..self.frame.width())
            .map(|c| shared & (1 << c) != 0)
            .collect();
        (Node::Spine(self.spine(b, shared)), Some(keep))
    }

    /// The frame columns `p` certainly binds, as a bitmask.
    fn certain_mask(&self, p: &Pattern) -> u64 {
        owql_lint::Bindings::of(p)
            .certain
            .iter()
            .filter_map(|v| self.frame.col(*v))
            .fold(0, |m, c| m | (1 << c))
    }

    /// Orders the spine's steps greedily from `bound` (the probe
    /// columns, when it is seeded by an OPT's left side) and the
    /// columns its non-triple conjuncts certainly bind: fewest columns
    /// not yet bound, ties broken by the smaller estimate, then by
    /// pattern order.
    fn spine(&self, p: &Pattern, bound: u64) -> Spine {
        let (mut triples, mut others) = (Vec::new(), Vec::new());
        spine_parts(p, &mut triples, &mut others);
        let mut remaining: Vec<Step> = triples.into_iter().map(|(t, r)| self.step(t, r)).collect();
        if remaining.iter().any(|s| s.ids.unsatisfiable()) {
            return Spine {
                others: Vec::new(),
                steps: remaining,
                unsatisfiable: true,
            };
        }
        let mut bound = others.iter().fold(bound, |m, o| m | self.certain_mask(o));
        let mut steps = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let key = |s: &Step| ((s.ids.var_mask() & !bound).count_ones(), s.estimated_rows);
            // `min_by_key` keeps the first of equal keys.
            let next = (0..remaining.len())
                .min_by_key(|&i| key(&remaining[i]))
                .unwrap_or(0);
            let mut step = remaining.swap_remove(next);
            step.access_path = access_path(&step.ids, bound);
            bound |= step.ids.var_mask();
            steps.push(step);
        }
        Spine {
            others: others.into_iter().map(|o| self.node(o)).collect(),
            steps,
            unsatisfiable: false,
        }
    }

    fn step(&self, t: TriplePattern, filter: Option<&Condition>) -> Step {
        let compile = |tp: TermPattern| match tp {
            TermPattern::Iri(iri) => self
                .view
                .dict
                .lookup(iri)
                .map_or(IdPos::Missing, IdPos::Const),
            TermPattern::Var(v) => IdPos::Var(self.col(v)),
        };
        let ids = IdTriple {
            pos: [compile(t.s), compile(t.p), compile(t.o)],
        };
        let [s, p, o] = ids.pos.map(|p| match p {
            IdPos::Const(id) => Some(id),
            _ => None,
        });
        Step {
            pattern: t,
            access_path: access_path(&ids, 0),
            estimated_rows: if ids.unsatisfiable() {
                0
            } else {
                self.view.cardinality_upper(s, p, o)
            },
            ids,
            filter: filter.map(|r| (r.clone(), self.cond(r))),
        }
    }

    fn cond(&self, r: &Condition) -> IdCond {
        match r {
            Condition::True => IdCond::Always,
            Condition::False => IdCond::Never,
            Condition::Bound(v) => IdCond::Bound(self.col(*v)),
            // A never-interned constant equals no binding.
            Condition::EqConst(v, c) => self
                .view
                .dict
                .lookup(*c)
                .map_or(IdCond::Never, |id| IdCond::EqConst(self.col(*v), id)),
            Condition::EqVar(a, b) => IdCond::EqVar(self.col(*a), self.col(*b)),
            Condition::Not(r) => IdCond::Not(Box::new(self.cond(r))),
            Condition::And(a, b) => IdCond::And(Box::new(self.cond(a)), Box::new(self.cond(b))),
            Condition::Or(a, b) => IdCond::Or(Box::new(self.cond(a)), Box::new(self.cond(b))),
        }
    }

    fn col(&self, v: Variable) -> usize {
        self.frame
            .col(v)
            .expect("frame covers every pattern variable")
    }
}

/// The run a step scans when the columns in `bound` are bound: each
/// position is bound by a constant or by a bound variable's column.
fn access_path(ids: &IdTriple, bound: u64) -> &'static str {
    let [s, p, o] = ids.pos.map(|pos| match pos {
        IdPos::Var(c) => bound & (1 << c) != 0,
        IdPos::Const(_) | IdPos::Missing => true,
    });
    match (s, p, o) {
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

/// The estimate of a left operand: the first step of its leftmost
/// spine of triple steps alone (`None` without one). OPT, MINUS,
/// FILTER, SELECT and NS keep or extend their left operand's rows, so
/// the descent follows that operand.
fn left_estimate(node: &Node) -> Option<usize> {
    match node {
        Node::Spine(s) if s.others.is_empty() => s.steps.first().map(|s| s.estimated_rows),
        Node::LeftOuterJoin(a, ..)
        | Node::Difference(a, _)
        | Node::Filter(a, ..)
        | Node::Project(a, _)
        | Node::MaximalAnswers(a) => left_estimate(a),
        Node::Spine(_) | Node::Union(_) => None,
    }
}

/// Splits an `AND`-spine into its triple-pattern leaves — a conjunct
/// `t FILTER R` with `vars(R) ⊆ vars(t)` is a leaf carrying `R` — and
/// the other conjunct sub-patterns. A condition over a variable outside
/// `t` stays a sub-pattern: on a joined row it would read bindings `t`
/// does not supply.
fn spine_parts<'a>(
    p: &'a Pattern,
    triples: &mut Vec<(TriplePattern, Option<&'a Condition>)>,
    others: &mut Vec<&'a Pattern>,
) {
    match p {
        Pattern::And(a, b) => {
            spine_parts(a, triples, others);
            spine_parts(b, triples, others);
        }
        Pattern::Triple(t) => triples.push((*t, None)),
        Pattern::Filter(q, r) => match **q {
            Pattern::Triple(t) if r.vars().is_subset(&t.vars()) => triples.push((t, Some(r))),
            _ => others.push(p),
        },
        other => others.push(other),
    }
}

/// One node of an EXPLAIN ANALYZE tree: the *observed* counterpart of
/// a [`Plan`] operator, rebuilt from the spans an instrumented run
/// recorded.
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
    /// The plan's estimate, on scan steps.
    pub estimated_rows: Option<u64>,
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
        indent(f, depth)?;
        write!(f, "{} {}", self.kind, self.label)?;
        match self.rows_in {
            Some(rows_in) => write!(f, "  [rows: {} -> {}", rows_in, self.rows_out)?,
            None => write!(f, "  [rows: {}", self.rows_out)?,
        }
        if let Some(est) = self.estimated_rows {
            write!(f, " (~{est} est.)")?;
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
/// Where [`Plan`] prints the estimates the plan was ordered by, this
/// prints what the run actually produced next to them — the tool for
/// spotting a join step that exploded or an NS filter that pruned
/// nothing.
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
            estimated_rows: s.estimated_rows,
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

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use owql_parser::parse_pattern;
    use owql_rdf::generate;

    #[test]
    fn plan_orders_selective_scan_first() {
        // One selective pattern (constant subject) and one broad one.
        let g = generate::star("hub", "spoke", 50);
        let engine = Engine::new(&g);
        let p = parse_pattern("((?x, spoke, ?y) AND (hub, spoke, ?x))").unwrap();
        let plan = engine.explain(&p).expect("narrow pattern");
        let spines = plan.spines();
        assert_eq!(spines.len(), 1);
        assert!(spines[0].others.is_empty());
        let steps = &spines[0].steps;
        assert_eq!(steps.len(), 2);
        // The constant-subject scan goes first (fewer unbound vars).
        assert_eq!(steps[0].access_path, "SP index");
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
        let text = engine.explain(&p).expect("narrow pattern").to_string();
        for needle in [
            "maximal answers",
            "project {?x}",
            "filter bound(?x)",
            "union of 2 disjuncts",
            "left outer join",
            "difference",
            "scan (?x, p0, ?y) via P index",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn estimates_match_index() {
        let g = generate::star("hub", "spoke", 10);
        let engine = Engine::new(&g);
        let p = parse_pattern("(hub, spoke, ?x)").unwrap();
        let plan = engine.explain(&p).expect("narrow pattern");
        assert_eq!(plan.spines()[0].steps[0].estimated_rows, 10);
        assert!(plan.to_string().contains("(~10 rows)"), "{plan}");
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
        assert_eq!(root.children[1].estimated_rows, Some(10));
        let text = analyzed.to_string();
        for needle in [
            "EXPLAIN ANALYZE",
            "answers: 100",
            "SCAN",
            "rows: 10 -> 100 (~10 est.)",
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
        // join + 2 scans
        assert_eq!(engine.explain(&p).expect("narrow pattern").size(), 3);
    }
}
