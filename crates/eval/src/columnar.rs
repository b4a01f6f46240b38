//! The evaluator: one columnar, dictionary-encoded walker for `⟦P⟧G`.
//!
//! Every [`TripleLookup`] backend serves an [`IdView`] (a term
//! dictionary plus id-encoded SPO/POS/OSP sorted runs, for a store
//! snapshot overlaid with an add tier and a deletion set), and [`run`]
//! evaluates the whole pattern over [`IdMappingSet`] tables:
//! binary-searched run scans, id-merge AND-spine joins, word-compare
//! compatibility for `OPT`/`MINUS`, and bitmask-grouped NS maximality.
//! Terms are decoded exactly once, at the result boundary.
//!
//! This is the only production implementation of the semantics.
//! Sequential, pool-parallel, traced and sharded runs are all the same
//! [`Columnar::eval`] walk; answer-set equality with
//! [`crate::reference::evaluate`] — the paper's §2.1/§5.1 definition,
//! kept as the oracle — is the contract, held by the differential
//! suites (`#[cfg(test)]` below, `tests/integration_columnar.rs`,
//! `tests/integration_sharded.rs`, `tests/integration_prune.rs`).
//!
//! **Totality.** A fully ground pattern has an empty variable frame;
//! its tables are padded to one never-bound column, so the answer is
//! the one-row table (`{µ∅}`) or the empty one (`∅`) and no operator
//! needs a special case. The one input the walker refuses is a pattern
//! with more than [`WIDTH_LIMIT`] distinct variables (domain masks are
//! single words): [`run`] returns [`EvalError::TooManyVariables`]
//! before touching the index.
//!
//! **Native tracing.** The evaluator carries an [`owql_obs::Recorder`]
//! seam: every operator records one span (kind, label, observed
//! input/output rows), every spine step records a `SCAN` span whose
//! `estimated_rows` is seeded from the constant-only [`IdView`] run
//! cardinality (the same statistic the greedy join order uses — the
//! estimated-vs-observed feed for the future cost-based planner), and
//! the event counters — galloping-scan hint hits/misses, dict decode
//! rows, `Repr::Distinct` results, homogeneous-domain dedup skips —
//! flow through the recorder's columnar atomics. A *disabled* recorder
//! short-circuits before any label formatting or clock read, so the
//! untraced hot path pays only a predictable branch per operator.
//!
//! **Sharding is a scan source.** With a [`ShardSet`] — `N` disjoint
//! subject-hash partitions of the *same* snapshot's live rows
//! ([`owql_rdf::shard::shard_rows`]) and one [`Pool`] per shard — two
//! steps of the walk fan out, and nothing else changes:
//!
//! * **AND spines** scatter their *first* scan: the coordinator picks
//!   the first triple pattern with the usual greedy heuristic, then
//!   every shard extends the seed table against its **shard-local**
//!   runs only. Because the shards partition the live rows disjointly
//!   by subject id, the per-shard partial tables are disjoint; each
//!   shard then continues the remaining join chain against the
//!   **global** view on its own pool, and the coordinator merges by
//!   concatenation + sort/dedup. Only the first scan is partitioned, so
//!   no cross-shard join pair is ever lost.
//! * **UNION spines** fan their disjuncts out round-robin across the
//!   shard pools (each disjunct evaluated whole against the global
//!   view), merged with set semantics at the coordinator.
//!
//! Every other operator — NS maximality included, which needs the
//! complete candidate set — combines its gathered children at the
//! coordinator exactly as on one node. The shard runs, the view and
//! the deletion mask all derive from one [`IdView`], so a scatter
//! never mixes epochs.

use crate::run::{EvalBudget, EvalError, BUDGET_CHECK_STRIDE};
use owql_algebra::analysis::pattern_vars;
use owql_algebra::id_mapping::{IdMapping, IdMappingSet, VarFrame, WIDTH_LIMIT};
use owql_algebra::normal_form::union_spine;
use owql_algebra::{Condition, MappingSet, Pattern, TermPattern, TriplePattern, Variable};
use owql_exec::{chunk_ranges, Pool};
use owql_obs::{OpKind, Recorder, ShardMetrics, SpanId};
use owql_rdf::{FxHashSet, IdRuns, IdView, TermId, TripleLookup, NO_TERM};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

/// Minimum candidate rows per dealt chunk of a partitioned spine step.
/// Profiled EXPLAIN ANALYZE runs of the `spine` query, which had
/// regressed in parallel, showed small partitions paying more in chunk
/// dealing + per-chunk dedup than the join they parallelize; capping
/// the chunk count at `candidates / MIN_BINDINGS_PER_CHUNK` (sequential
/// below two full chunks) recovers the sequential baseline on small
/// spines while leaving genuinely wide spines fanned out.
const MIN_BINDINGS_PER_CHUNK: usize = 4096;

/// One triple-pattern position, id-compiled against the frame and
/// dictionary.
#[derive(Clone, Copy, Debug)]
enum IdPos {
    /// A constant that is interned — matches exactly this id.
    Const(TermId),
    /// A constant absent from the dictionary — matches nothing.
    Missing,
    /// A variable at this frame column.
    Var(usize),
}

/// An id-compiled triple pattern.
#[derive(Clone, Copy, Debug)]
struct IdTriple {
    pos: [IdPos; 3],
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
enum IdCond {
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
    fn satisfied_by(&self, row: &[TermId]) -> bool {
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

/// The scatter-gather scan source: disjoint subject-hash partitions of
/// the evaluated snapshot's live rows, one pool per shard, and the
/// store's shard counters.
#[derive(Clone, Copy)]
pub(crate) struct ShardSet<'a> {
    pub(crate) runs: &'a [IdRuns],
    pub(crate) pools: &'a [Pool],
    pub(crate) metrics: Option<&'a ShardMetrics>,
}

/// Per-query evaluation context. `Copy`: a sub-context (another pool,
/// a shard-local view) is a struct update of the coordinator's.
#[derive(Clone, Copy)]
struct Columnar<'a> {
    view: IdView<'a>,
    frame: &'a VarFrame,
    /// The snapshot's deletion set, id-encoded once up front (`None`
    /// when nothing is deleted, so the scan loop skips the probe).
    dels: Option<&'a FxHashSet<[TermId; 3]>>,
    pool: &'a Pool,
    parallel: bool,
    /// The span/event sink — disabled outside traced runs, in which
    /// case every recording call short-circuits on one branch.
    rec: &'a Recorder,
    budget: &'a EvalBudget,
    shards: Option<ShardSet<'a>>,
}

/// The part of a spine's state its remaining steps share.
#[derive(Clone, Copy)]
struct SpineState {
    /// Columns bound so far — the join-order heuristic's input.
    bound_mask: u64,
    /// Whether each step must re-establish set semantics.
    dedup: bool,
    /// The spine's own span; per-step `SCAN` spans cite it as parent.
    span: SpanId,
}

/// Evaluates `⟦pattern⟧` over `index`, decoding to terms at the end.
/// With `shards`, spine seed scans and UNION disjuncts scatter over
/// them; `pool` is then the coordinator's.
pub(crate) fn run<I: TripleLookup>(
    index: &I,
    pattern: &Pattern,
    parallel: bool,
    pool: &Pool,
    shards: Option<ShardSet<'_>>,
    rec: &Recorder,
    budget: &EvalBudget,
) -> Result<MappingSet, EvalError> {
    let vars = pattern_vars(pattern);
    let count = vars.len();
    let frame = VarFrame::new(vars).ok_or(EvalError::TooManyVariables {
        count,
        limit: WIDTH_LIMIT,
    })?;
    let view = index.id_view();
    let dels = view.del_rows();
    let ctx = Columnar {
        view,
        frame: &frame,
        dels: (!dels.is_empty()).then_some(&dels),
        pool,
        parallel,
        rec,
        budget,
        shards,
    };
    if let Some(m) = shards.and_then(|s| s.metrics) {
        m.queries_total.fetch_add(1, Ordering::Relaxed);
    }
    let table = ctx.eval(pattern, SpanId::ROOT)?;
    // `decode` emits provably distinct rows, so the resulting
    // `MappingSet` keeps the `Repr::Distinct` fast path and never
    // builds a hash set.
    rec.record_columnar_decode(table.len() as u64, true);
    Ok(table.decode(&frame, view.dict))
}

impl Columnar<'_> {
    /// Table width: one column per frame variable, padded to one
    /// never-bound column for a fully ground pattern.
    fn width(&self) -> usize {
        self.frame.width().max(1)
    }

    /// This context on another pool, without the shard set: what a
    /// shard's chain and a scattered UNION disjunct evaluate in.
    fn on_pool<'b>(&'b self, pool: &'b Pool) -> Columnar<'b> {
        Columnar {
            pool,
            parallel: pool.threads() > 1,
            shards: None,
            ..*self
        }
    }

    fn compile_triple(&self, t: TriplePattern) -> IdTriple {
        let compile = |tp: TermPattern| match tp {
            TermPattern::Iri(iri) => match self.view.dict.lookup(iri) {
                Some(id) => IdPos::Const(id),
                None => IdPos::Missing,
            },
            TermPattern::Var(v) => IdPos::Var(self.col(v)),
        };
        IdTriple {
            pos: [compile(t.s), compile(t.p), compile(t.o)],
        }
    }

    fn compile_cond(&self, r: &Condition) -> IdCond {
        match r {
            Condition::True => IdCond::Always,
            Condition::False => IdCond::Never,
            Condition::Bound(v) => IdCond::Bound(self.col(*v)),
            Condition::EqConst(v, c) => match self.view.dict.lookup(*c) {
                // A never-interned constant equals no binding.
                None => IdCond::Never,
                Some(id) => IdCond::EqConst(self.col(*v), id),
            },
            Condition::EqVar(a, b) => IdCond::EqVar(self.col(*a), self.col(*b)),
            Condition::Not(r) => IdCond::Not(Box::new(self.compile_cond(r))),
            Condition::And(a, b) => IdCond::And(
                Box::new(self.compile_cond(a)),
                Box::new(self.compile_cond(b)),
            ),
            Condition::Or(a, b) => IdCond::Or(
                Box::new(self.compile_cond(a)),
                Box::new(self.compile_cond(b)),
            ),
        }
    }

    fn col(&self, v: Variable) -> usize {
        self.frame
            .col(v)
            .expect("frame covers every pattern variable")
    }

    /// One algebra node: evaluates the operator and records its span
    /// under `parent`. With a disabled recorder the `begin`/`timer`
    /// calls return immediately and the label is never formatted.
    fn eval(&self, pattern: &Pattern, parent: SpanId) -> Result<IdMappingSet, EvalError> {
        self.budget.check()?;
        let rec = self.rec;
        let id = rec.begin();
        let timer = rec.timer();
        let (rows_in, out) = match pattern {
            Pattern::Triple(_) | Pattern::And(..) => self.eval_spine(pattern, id)?,
            Pattern::Opt(a, b) => {
                let left = self.eval(a, id)?;
                let right = self.eval(b, id)?;
                (Some(left.len() as u64), left.left_outer_join(&right))
            }
            Pattern::Union(..) if self.parallel || self.shards.is_some() => {
                let disjuncts = union_spine(pattern);
                let parts = match self.shards {
                    // Each disjunct runs whole against the global view,
                    // dealt round-robin over the shard pools.
                    Some(shards) => scoped_map(disjuncts.len(), |i| {
                        self.on_pool(&shards.pools[i % shards.pools.len()])
                            .eval(disjuncts[i], id)
                    }),
                    None => self
                        .pool
                        .map_profiled(&disjuncts, rec, |d| self.eval(d, id)),
                };
                (None, self.gather(parts)?)
            }
            Pattern::Union(a, b) => {
                let left = self.eval(a, id)?;
                (None, left.union(&self.eval(b, id)?))
            }
            Pattern::Select(vars, p) => {
                let keep: Vec<bool> = (0..self.width())
                    .map(|c| self.frame.vars().get(c).is_some_and(|v| vars.contains(v)))
                    .collect();
                let inner = self.eval(p, id)?;
                (Some(inner.len() as u64), inner.project(&keep))
            }
            Pattern::Filter(p, r) => {
                let cond = self.compile_cond(r);
                let mut inner = self.eval(p, id)?;
                let rows_in = inner.len() as u64;
                inner.retain(|row| cond.satisfied_by(row));
                (Some(rows_in), inner)
            }
            Pattern::Ns(p) => {
                let inner = self.eval(p, id)?;
                let candidates = inner.len() as u64;
                let out = inner.maximal(self.parallel.then_some(self.pool));
                rec.record_ns(candidates, out.len() as u64);
                (Some(candidates), out)
            }
            Pattern::Minus(a, b) => {
                let left = self.eval(a, id)?;
                (Some(left.len() as u64), left.difference(&self.eval(b, id)?))
            }
        };
        if rec.is_enabled() {
            rec.record_span(
                id,
                parent,
                op_kind(pattern),
                &self.op_label(pattern),
                rows_in,
                out.len() as u64,
                &timer,
            );
        }
        Ok(out)
    }

    /// The human-readable span label for one operator node. Only
    /// called when the recorder is enabled, so the formatting cost
    /// stays off the untraced hot path.
    fn op_label(&self, pattern: &Pattern) -> String {
        match pattern {
            Pattern::Triple(_) | Pattern::And(..) => {
                let (triples, others) = spine_parts(pattern);
                format!("columnar {}", spine_label(triples.len(), others.len()))
            }
            Pattern::Union(..) if self.parallel || self.shards.is_some() => {
                format!(
                    "union of {} disjuncts (columnar)",
                    union_spine(pattern).len()
                )
            }
            Pattern::Union(..) => "union (columnar)".to_owned(),
            Pattern::Opt(..) => "left outer join (columnar)".to_owned(),
            Pattern::Minus(..) => "difference (columnar)".to_owned(),
            Pattern::Select(vars, _) => format!("{} (columnar)", project_label(vars)),
            Pattern::Filter(_, r) => format!("filter {r} (columnar)"),
            Pattern::Ns(_) => "maximal answers (columnar)".to_owned(),
        }
    }

    /// Concatenates the partial tables of a fan-out and restores set
    /// semantics; on a sharded run this is one scatter round, counted
    /// with how many partials were non-empty.
    fn gather(
        &self,
        parts: Vec<Result<IdMappingSet, EvalError>>,
    ) -> Result<IdMappingSet, EvalError> {
        let mut out = IdMappingSet::new(self.width());
        let mut fanout = 0usize;
        for part in parts {
            let part = part?;
            fanout += usize::from(!part.is_empty());
            for row in part.rows() {
                out.push_row(row);
            }
        }
        if let Some(m) = self.shards.and_then(|s| s.metrics) {
            m.record_scatter(fanout);
        }
        out.sort_dedup();
        Ok(out)
    }

    /// The `AND`-spine: evaluate the non-triple conjuncts, join them
    /// smallest-first as the seed, then extend with the triple patterns
    /// greedily (fewest-unbound-columns, then scan cardinality) via
    /// binary-searched run scans — scattered over the shard set when
    /// there is one. `span` is this spine's own span id. Returns the
    /// seeded candidate count (the spine span's `rows_in`) with the
    /// result.
    fn eval_spine(
        &self,
        pattern: &Pattern,
        span: SpanId,
    ) -> Result<(Option<u64>, IdMappingSet), EvalError> {
        let (triples, others) = spine_parts(pattern);
        let w = self.width();
        let compiled: Vec<(IdTriple, TriplePattern)> = triples
            .iter()
            .map(|&t| (self.compile_triple(t), t))
            .collect();
        if compiled.iter().any(|(c, _)| c.unsatisfiable()) {
            // Some constant was never interned: that conjunct — and
            // with it the whole AND — matches nothing.
            return Ok((Some(0), IdMappingSet::new(w)));
        }
        let mut sub: Vec<IdMappingSet> = others
            .iter()
            .map(|p| self.eval(p, span))
            .collect::<Result<_, _>>()?;
        let seed = if sub.is_empty() {
            let mut seed = IdMappingSet::new(w);
            seed.push_row(&vec![NO_TERM; w]);
            seed
        } else {
            sub.sort_by_key(IdMappingSet::len);
            let mut acc = sub.remove(0);
            for s in sub {
                acc = acc.join(&s);
            }
            acc
        };
        let seeded = Some(seed.len() as u64);
        // The ordering heuristic's bound set: columns bound in the
        // first seed row.
        let bound_mask = if seed.is_empty() {
            0
        } else {
            IdMapping::new(seed.row(0)).domain_mask()
        };
        // When every seed row has the same domain, extending distinct
        // rows yields distinct rows (the differing bound column
        // persists, and differing scan matches differ in some variable
        // column), and all extensions share a domain again — so the
        // per-step dedup can be skipped. Heterogeneous seeds (an OPT or
        // UNION conjunct) keep the dedup: overwritten-free extension
        // can then collide across rows with different domains.
        let homogeneous = seed
            .rows()
            .all(|r| IdMapping::new(r).domain_mask() == bound_mask);
        if homogeneous && !compiled.is_empty() {
            self.rec.record_columnar_dedup_skip();
        }
        let state = SpineState {
            bound_mask,
            dedup: !homogeneous,
            span,
        };
        let out = match self.shards {
            Some(shards) if !compiled.is_empty() && !seed.is_empty() => {
                self.scatter(shards, &seed, compiled, state)?
            }
            _ => self.join_chain(seed, compiled, state)?,
        };
        Ok((seeded, out))
    }

    /// Extends `current` by every pattern of `remaining`, greedily
    /// ordered, against this context's view.
    fn join_chain(
        &self,
        mut current: IdMappingSet,
        mut remaining: Vec<(IdTriple, TriplePattern)>,
        mut state: SpineState,
    ) -> Result<IdMappingSet, EvalError> {
        while !remaining.is_empty() && !current.is_empty() {
            self.budget.check()?;
            let step = remaining.swap_remove(self.pick_next(&remaining, state.bound_mask));
            current = self.scan_step(&current, step, state)?;
            state.bound_mask |= step.0.var_mask();
        }
        Ok(current)
    }

    /// The scattered spine: the greedy first step runs once per shard
    /// against that shard's local runs, and each shard finishes the
    /// chain on its own pool.
    fn scatter(
        &self,
        shards: ShardSet<'_>,
        seed: &IdMappingSet,
        mut remaining: Vec<(IdTriple, TriplePattern)>,
        mut state: SpineState,
    ) -> Result<IdMappingSet, EvalError> {
        let first = remaining.swap_remove(self.pick_next(&remaining, state.bound_mask));
        state.bound_mask |= first.0.var_mask();
        self.gather(scoped_map(shards.runs.len(), |k| {
            self.shard_chain(shards, k, seed, first, remaining.clone(), state)
        }))
    }

    /// One shard's chain: seed-extend against the shard-local runs,
    /// then complete the remaining joins against the global view on the
    /// shard's own pool.
    fn shard_chain(
        &self,
        shards: ShardSet<'_>,
        k: usize,
        seed: &IdMappingSet,
        first: (IdTriple, TriplePattern),
        remaining: Vec<(IdTriple, TriplePattern)>,
        state: SpineState,
    ) -> Result<IdMappingSet, EvalError> {
        let global = self.on_pool(&shards.pools[k.min(shards.pools.len() - 1)]);
        // Shard runs hold live rows only (deletions were filtered at
        // partition time), so the local context needs no deletion mask.
        let local = Columnar {
            view: IdView::plain(self.view.dict, &shards.runs[k]),
            dels: None,
            ..global
        };
        let current = local.scan_step(seed, first, state)?;
        let out = global.join_chain(current, remaining, state)?;
        if let Some(m) = shards.metrics {
            m.record_shard_task(k, out.len() as u64);
        }
        Ok(out)
    }

    /// One spine step with its `SCAN` span: input candidates in,
    /// extended rows out, the planner-side estimate alongside.
    fn scan_step(
        &self,
        current: &IdMappingSet,
        (t, tp): (IdTriple, TriplePattern),
        state: SpineState,
    ) -> Result<IdMappingSet, EvalError> {
        let rec = self.rec;
        let id = rec.begin();
        let timer = rec.timer();
        let out = self.extend(current, t, state.dedup)?;
        if rec.is_enabled() {
            rec.record_span_est(
                id,
                state.span,
                OpKind::Scan,
                &format!("{tp} via {} (columnar)", crate::plan::access_path(tp)),
                Some(current.len() as u64),
                out.len() as u64,
                Some(self.scan_estimate(t) as u64),
                &timer,
            );
        }
        Ok(out)
    }

    /// The planner-side output estimate for one scan step: the
    /// constant-only run cardinality upper bound (a pair of binary
    /// searches per run — no rows are touched). [`Columnar::pick_next`]
    /// orders the join by it and every `SCAN` span reports it, so
    /// EXPLAIN ANALYZE shows estimated vs observed rows.
    fn scan_estimate(&self, t: IdTriple) -> usize {
        let key_of = |p: IdPos| match p {
            IdPos::Const(id) => Some(id),
            _ => None,
        };
        self.view
            .cardinality_upper(key_of(t.pos[0]), key_of(t.pos[1]), key_of(t.pos[2]))
    }

    /// Greedy choice: fewest variable columns not yet bound, breaking
    /// ties by the constant-only scan cardinality.
    fn pick_next(&self, triples: &[(IdTriple, TriplePattern)], bound_mask: u64) -> usize {
        let key = |t: IdTriple| {
            let unbound = (t.var_mask() & !bound_mask).count_ones();
            (unbound, self.scan_estimate(t))
        };
        // `min_by_key` keeps the first of equal keys.
        (0..triples.len())
            .min_by_key(|&i| key(triples[i].0))
            .unwrap_or(0)
    }

    /// One spine step: extend every row of `current` with every run
    /// match of `t` under that row's bindings. Parallel mode chunks the
    /// row range across the pool once it holds two full chunks.
    fn extend(
        &self,
        current: &IdMappingSet,
        t: IdTriple,
        dedup: bool,
    ) -> Result<IdMappingSet, EvalError> {
        let w = self.width();
        let n = current.len();
        let chunks = if self.parallel && n >= 2 * MIN_BINDINGS_PER_CHUNK {
            (n / MIN_BINDINGS_PER_CHUNK).min(self.pool.threads() * 4)
        } else {
            1
        };
        let mut out = if chunks <= 1 {
            // Matched rows rarely shrink the table: seed the buffer at
            // the input size to skip the early doubling reallocations.
            let mut data = Vec::with_capacity(n * w);
            self.extend_range(current, 0, n, t, &mut data)?;
            IdMappingSet::from_raw(w, data)
        } else {
            let ranges = chunk_ranges(n, chunks);
            let parts = self.pool.map_profiled(&ranges, self.rec, |&(lo, hi)| {
                let mut data = Vec::new();
                self.extend_range(current, lo, hi, t, &mut data)
                    .map(|()| data)
            });
            let mut data = Vec::new();
            for part in parts {
                data.append(&mut part?);
            }
            IdMappingSet::from_raw(w, data)
        };
        if dedup {
            out.sort_dedup();
        }
        Ok(out)
    }

    /// Extends rows `lo..hi` of `current`, appending result rows to
    /// `data`.
    fn extend_range(
        &self,
        current: &IdMappingSet,
        lo: usize,
        hi: usize,
        t: IdTriple,
        data: &mut Vec<TermId>,
    ) -> Result<(), EvalError> {
        // Consecutive rows tend toward equal or ascending scan keys
        // (they came out of a sorted run themselves): equal keys reuse
        // the previous slice outright, and fresh keys gallop from the
        // previous match position instead of binary-searching the whole
        // run.
        let mut last_key: Option<(Option<TermId>, Option<TermId>, Option<TermId>)> = None;
        let mut memo_base: &[[TermId; 3]] = &[];
        let mut memo_base_order = owql_rdf::RunOrder::Spo;
        let mut memo_adds: &[[TermId; 3]] = &[];
        let mut memo_adds_order = owql_rdf::RunOrder::Spo;
        let mut hint_base = 0usize;
        let mut hint_adds = 0usize;
        // Hint accounting: a key equal to the previous row's reuses the
        // memoized slice outright (hit); a fresh key pays the hinted
        // gallop (miss). Local counters — one predictable add per row —
        // flushed into the recorder's atomics once per range.
        let mut hint_hits = 0u64;
        let mut hint_misses = 0u64;
        for i in lo..hi {
            if (i - lo) % BUDGET_CHECK_STRIDE == BUDGET_CHECK_STRIDE - 1 {
                self.budget.check()?;
            }
            let row = current.row(i);
            // Resolve each position under this row's bindings: a bound
            // variable column constrains the scan like a constant.
            let resolve = |p: IdPos| match p {
                IdPos::Const(id) => Some(id),
                IdPos::Missing => unreachable!("unsatisfiable patterns are filtered out"),
                IdPos::Var(c) => match row[c] {
                    NO_TERM => None,
                    id => Some(id),
                },
            };
            let (s, p, o) = (resolve(t.pos[0]), resolve(t.pos[1]), resolve(t.pos[2]));
            if last_key != Some((s, p, o)) {
                last_key = Some((s, p, o));
                hint_misses += 1;
                (memo_base, memo_base_order) = self.view.base.scan_from(s, p, o, &mut hint_base);
                if let Some(adds) = self.view.adds {
                    (memo_adds, memo_adds_order) = adds.scan_from(s, p, o, &mut hint_adds);
                }
            } else {
                hint_hits += 1;
            }
            let mut emit = |matched: [TermId; 3]| {
                if self.dels.is_some_and(|dels| dels.contains(&matched)) {
                    return;
                }
                let start = data.len();
                data.extend_from_slice(row);
                let new = &mut data[start..];
                // Repeated variables: the second occurrence must agree
                // with the binding the first just wrote.
                for (pos, val) in t.pos.iter().zip(matched) {
                    if let IdPos::Var(c) = pos {
                        if new[*c] == NO_TERM {
                            new[*c] = val;
                        } else if new[*c] != val {
                            data.truncate(start);
                            return;
                        }
                    }
                }
            };
            for &r in memo_base {
                emit(memo_base_order.to_spo(r));
            }
            for &r in memo_adds {
                emit(memo_adds_order.to_spo(r));
            }
        }
        self.rec.record_columnar_hints(hint_hits, hint_misses);
        Ok(())
    }
}

/// Runs `f(0)..f(n - 1)` on one scoped thread each (inline for `n ==
/// 1`) and collects the results in order — the shard fan-out. The
/// threads only coordinate; the work inside `f` runs on shard pools.
fn scoped_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|k| s.spawn(move || f(k))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scatter worker panicked"))
            .collect()
    })
}

/// Maps an algebra node to its obs taxonomy kind (flattened
/// `AND`-spines — including bare triple patterns — account as `AND`;
/// individual spine steps are recorded separately as `SCAN`).
fn op_kind(p: &Pattern) -> OpKind {
    match p {
        Pattern::Triple(_) | Pattern::And(..) => OpKind::And,
        Pattern::Union(..) => OpKind::Union,
        Pattern::Opt(..) => OpKind::Opt,
        Pattern::Minus(..) => OpKind::Minus,
        Pattern::Filter(..) => OpKind::Filter,
        Pattern::Select(..) => OpKind::Select,
        Pattern::Ns(_) => OpKind::Ns,
    }
}

fn spine_label(scans: usize, subpatterns: usize) -> String {
    if subpatterns == 0 {
        format!("index join: {scans} scans")
    } else {
        format!("index join: {scans} scans + {subpatterns} subpatterns")
    }
}

fn project_label(vars: &BTreeSet<Variable>) -> String {
    let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
    format!("project {{{}}}", names.join(", "))
}

/// Splits an `AND`-spine into its triple-pattern leaves and the other
/// conjunct sub-patterns.
fn spine_parts(p: &Pattern) -> (Vec<TriplePattern>, Vec<&Pattern>) {
    fn flatten<'a>(
        p: &'a Pattern,
        triples: &mut Vec<TriplePattern>,
        others: &mut Vec<&'a Pattern>,
    ) {
        match p {
            Pattern::And(a, b) => {
                flatten(a, triples, others);
                flatten(b, triples, others);
            }
            Pattern::Triple(t) => triples.push(*t),
            other => others.push(other),
        }
    }
    let mut triples = Vec::new();
    let mut others = Vec::new();
    flatten(p, &mut triples, &mut others);
    (triples, others)
}

#[cfg(test)]
mod tests {
    use crate::{evaluate, Engine, ExecOpts};
    use owql_exec::Pool;
    use owql_parser::parse_pattern;
    use owql_rdf::{shard_rows, GraphIndex, Triple, TripleLookup};

    fn social() -> GraphIndex {
        let mut triples = Vec::new();
        for i in 0..20u32 {
            triples.push(Triple::new(
                &format!("p{i}"),
                "knows",
                &format!("p{}", (i + 1) % 20),
            ));
            if i % 2 == 0 {
                triples.push(Triple::new(&format!("p{i}"), "age", &format!("{}", 20 + i)));
            }
        }
        GraphIndex::from_triples(triples)
    }

    /// The scattered walk over `shards` partitions answers exactly like
    /// the reference evaluator.
    fn sharded_matches_reference(pattern: &str, shards: usize) {
        let engine = Engine::with_index(social());
        let pattern = parse_pattern(pattern).expect("pattern parses");
        let expected = evaluate(&pattern, &engine.index().to_graph());
        let runs = shard_rows(&engine.index().id_view(), shards);
        let pools: Vec<Pool> = (0..shards).map(|_| Pool::sequential()).collect();
        let got = engine
            .run_sharded(&pattern, &ExecOpts::seq(), &runs, &pools, None)
            .expect("sharded run")
            .mappings;
        assert_eq!(got, expected, "sharded answers diverge at {shards} shards");
    }

    #[test]
    fn spine_scatter_matches_reference() {
        for shards in [1, 2, 8] {
            sharded_matches_reference("((?x, knows, ?y) AND (?y, knows, ?z))", shards);
            sharded_matches_reference("((?x, knows, ?y) AND (?x, age, ?a))", shards);
        }
    }

    #[test]
    fn union_and_ns_scatter_match_reference() {
        for shards in [1, 2, 8] {
            sharded_matches_reference("((?x, knows, ?y) UNION (?x, age, ?a))", shards);
            sharded_matches_reference("NS (((?x, knows, ?y) OPT (?y, age, ?a)))", shards);
        }
    }

    /// Ground spines scatter too: the one shard holding the subject
    /// answers `{µ∅}`, every other shard `∅`.
    #[test]
    fn ground_patterns_scatter() {
        for shards in [1, 2, 8] {
            sharded_matches_reference("(p0, knows, p1)", shards);
            sharded_matches_reference("(p1, knows, p0)", shards);
            sharded_matches_reference("((p0, knows, p1) AND (p2, age, 22))", shards);
            sharded_matches_reference("((p0, knows, p1) UNION (p0, knows, nobody))", shards);
        }
    }
}
