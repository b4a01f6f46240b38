//! The execute phase: one columnar, dictionary-encoded walker for `⟦P⟧G`.
//!
//! The engine's [`SnapshotIndex`](owql_rdf::SnapshotIndex) serves an
//! [`IdView`] (a term dictionary plus id-encoded SPO/POS/OSP sorted
//! runs, for a store snapshot overlaid with an add tier and a set of
//! deleted rows), and [`run`] walks a [`Plan`] built against that view over
//! [`IdMappingSet`] tables: binary-searched run scans, id-merge
//! AND-spine joins, word-compare compatibility for `OPT`/`MINUS`, and
//! bitmask-grouped NS maximality. Terms are decoded exactly once, at
//! the result boundary.
//!
//! The plan phase ([`crate::plan`]) fixed the variable frame, compiled
//! the triples and conditions to ids, and ordered every spine's steps;
//! this walk follows that plan and chooses nothing but the order in
//! which a spine's non-triple conjuncts are joined into its seed
//! (smallest first, by their actual sizes).
//!
//! This is the only production implementation of the semantics.
//! Sequential, pool-parallel and traced runs are all the same
//! [`Columnar::eval`] walk; answer-set equality with
//! [`crate::reference::evaluate`] — the paper's §2.1/§5.1 definition,
//! kept as the oracle — is the contract, held by the differential
//! suites (`tests/integration_columnar.rs`,
//! `tests/integration_parallel.rs`, `tests/integration_prune.rs`).
//!
//! **Totality.** A fully ground pattern has an empty variable frame;
//! its tables are padded to one never-bound column, so the answer is
//! the one-row table (`{µ∅}`) or the empty one (`∅`) and no operator
//! needs a special case.
//!
//! **Native tracing.** The evaluator carries an [`owql_obs::Recorder`]
//! seam: every plan operator records one span (kind, label, observed
//! input/output rows), every spine step records a `SCAN` span with the
//! label and `estimated_rows` of the plan step it runs — so EXPLAIN
//! ANALYZE shows the plan's estimate next to the observed rows — and
//! the event counters — galloping-scan hint hits/misses, dict decode
//! rows, `Repr::Distinct` results, homogeneous-domain dedup skips —
//! flow through the recorder's columnar atomics. A *disabled* recorder
//! short-circuits before any label formatting or clock read, so the
//! untraced hot path pays only a predictable branch per operator.

use crate::plan::{IdPos, IdTriple, Node, Plan, Spine, Step};
use crate::run::{EvalBudget, EvalError, BUDGET_CHECK_STRIDE};
use owql_algebra::id_mapping::{IdMapping, IdMappingSet, VarFrame};
use owql_algebra::MappingSet;
use owql_exec::{chunk_ranges, Pool};
use owql_obs::{OpKind, Recorder, SpanId};
use owql_rdf::{IdView, TermId, NO_TERM};

/// Minimum candidate rows per dealt chunk of a partitioned spine step.
/// Profiled EXPLAIN ANALYZE runs of the `spine` query, which had
/// regressed in parallel, showed small partitions paying more in chunk
/// dealing + per-chunk dedup than the join they parallelize; capping
/// the chunk count at `candidates / MIN_BINDINGS_PER_CHUNK` (sequential
/// below two full chunks) recovers the sequential baseline on small
/// spines while leaving genuinely wide spines fanned out.
const MIN_BINDINGS_PER_CHUNK: usize = 4096;

/// Per-query evaluation context.
struct Columnar<'a> {
    view: IdView<'a>,
    frame: &'a VarFrame,
    pool: &'a Pool,
    parallel: bool,
    /// The span/event sink — disabled outside traced runs, in which
    /// case every recording call short-circuits on one branch.
    rec: &'a Recorder,
    budget: &'a EvalBudget,
}

/// The part of a spine's state its steps share.
#[derive(Clone, Copy)]
struct SpineState {
    /// Whether each step must re-establish set semantics.
    dedup: bool,
    /// The spine's own span; per-step `SCAN` spans cite it as parent.
    span: SpanId,
}

/// Executes `plan` over `view` — the view it was planned against —
/// decoding to terms at the end.
pub(crate) fn run(
    plan: &Plan,
    view: IdView<'_>,
    parallel: bool,
    pool: &Pool,
    rec: &Recorder,
    budget: &EvalBudget,
) -> Result<MappingSet, EvalError> {
    let ctx = Columnar {
        view,
        frame: &plan.frame,
        pool,
        parallel,
        rec,
        budget,
    };
    let table = ctx.eval(&plan.root, SpanId::ROOT)?;
    // `decode` emits provably distinct rows, so the resulting
    // `MappingSet` keeps the `Repr::Distinct` fast path and never
    // builds a hash set.
    rec.record_columnar_decode(table.len() as u64, true);
    Ok(table.decode(&plan.frame, view.dict))
}

impl Columnar<'_> {
    /// Table width: one column per frame variable, padded to one
    /// never-bound column for a fully ground pattern.
    fn width(&self) -> usize {
        self.frame.width().max(1)
    }

    /// One plan operator: evaluates it and records its span under
    /// `parent`. With a disabled recorder the `begin`/`timer` calls
    /// return immediately and the label is never formatted.
    fn eval(&self, node: &Node, parent: SpanId) -> Result<IdMappingSet, EvalError> {
        self.budget.check()?;
        let rec = self.rec;
        let id = rec.begin();
        let timer = rec.timer();
        let (rows_in, out) = match node {
            Node::Spine(spine) => self.eval_spine(spine, id)?,
            Node::LeftOuterJoin(a, b) => {
                let left = self.eval(a, id)?;
                let right = self.eval(b, id)?;
                (Some(left.len() as u64), left.left_outer_join(&right))
            }
            Node::Union(disjuncts) => {
                let parts = if self.parallel {
                    self.pool.map_profiled(disjuncts, rec, |d| self.eval(d, id))
                } else {
                    // Left to right, merged by one sort below: a
                    // pairwise fold would re-sort the growing prefix
                    // once per disjunct.
                    disjuncts.iter().map(|d| self.eval(d, id)).collect()
                };
                (None, self.gather(parts)?)
            }
            Node::Project(p, keep) => {
                let inner = self.eval(p, id)?;
                (Some(inner.len() as u64), inner.project(keep))
            }
            Node::Filter(p, _, cond) => {
                let mut inner = self.eval(p, id)?;
                let rows_in = inner.len() as u64;
                inner.retain(|row| cond.satisfied_by(row));
                (Some(rows_in), inner)
            }
            Node::MaximalAnswers(p) => {
                let inner = self.eval(p, id)?;
                let candidates = inner.len() as u64;
                let out = inner.maximal(self.parallel.then_some(self.pool));
                rec.record_ns(candidates, out.len() as u64);
                (Some(candidates), out)
            }
            Node::Difference(a, b) => {
                let left = self.eval(a, id)?;
                (Some(left.len() as u64), left.difference(&self.eval(b, id)?))
            }
        };
        if rec.is_enabled() {
            rec.record_span(
                id,
                parent,
                node.kind(),
                &node.label(self.frame),
                rows_in,
                out.len() as u64,
                &timer,
            );
        }
        Ok(out)
    }

    /// Concatenates the partial tables of a fan-out and restores set
    /// semantics.
    fn gather(
        &self,
        parts: Vec<Result<IdMappingSet, EvalError>>,
    ) -> Result<IdMappingSet, EvalError> {
        let mut out = IdMappingSet::new(self.width());
        for part in parts {
            for row in part?.rows() {
                out.push_row(row);
            }
        }
        out.sort_dedup();
        Ok(out)
    }

    /// The `AND`-spine: evaluate the non-triple conjuncts, join them
    /// smallest-first as the seed, then extend it by the plan's steps
    /// in order via binary-searched run scans, stopping early once no
    /// row is left. `span` is this spine's own span id. Returns the
    /// seeded candidate count (the spine span's `rows_in`) with the
    /// result.
    fn eval_spine(
        &self,
        spine: &Spine,
        span: SpanId,
    ) -> Result<(Option<u64>, IdMappingSet), EvalError> {
        let w = self.width();
        if spine.unsatisfiable {
            // Some constant was never interned: that conjunct — and
            // with it the whole AND — matches nothing.
            return Ok((Some(0), IdMappingSet::new(w)));
        }
        let mut sub: Vec<IdMappingSet> = spine
            .others
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
        // When every seed row has the same domain, extending distinct
        // rows yields distinct rows (the differing bound column
        // persists, and differing scan matches differ in some variable
        // column), and all extensions share a domain again — so the
        // per-step dedup can be skipped. Heterogeneous seeds (an OPT or
        // UNION conjunct) keep the dedup: overwritten-free extension
        // can then collide across rows with different domains.
        let domain = |r: &[TermId]| IdMapping::new(r).domain_mask();
        let first = seed.rows().next().map_or(0, domain);
        let homogeneous = seed.rows().all(|r| domain(r) == first);
        if homogeneous && !spine.steps.is_empty() {
            self.rec.record_columnar_dedup_skip();
        }
        let state = SpineState {
            dedup: !homogeneous,
            span,
        };
        let mut current = seed;
        for step in &spine.steps {
            if current.is_empty() {
                break;
            }
            self.budget.check()?;
            current = self.scan_step(&current, step, state)?;
        }
        Ok((seeded, current))
    }

    /// One spine step with its `SCAN` span: input candidates in,
    /// extended rows out, the plan step's label and estimate alongside.
    fn scan_step(
        &self,
        current: &IdMappingSet,
        step: &Step,
        state: SpineState,
    ) -> Result<IdMappingSet, EvalError> {
        let rec = self.rec;
        let id = rec.begin();
        let timer = rec.timer();
        let out = self.extend(current, step.ids, state.dedup)?;
        if rec.is_enabled() {
            rec.record_span_est(
                id,
                state.span,
                OpKind::Scan,
                &step.label(),
                Some(current.len() as u64),
                out.len() as u64,
                Some(step.estimated_rows as u64),
                &timer,
            );
        }
        Ok(out)
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
                if self.view.dels.is_some_and(|dels| dels.contains(&matched)) {
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
