//! The span/event recorder.
//!
//! A [`Recorder`] is handed (by reference) through an instrumented
//! evaluation; operators allocate a [`SpanId`] before recursing into
//! children (so children can name their parent), time themselves with a
//! [`SpanTimer`], and push one finished [`Span`] each. Event streams
//! that would be too hot for the span buffer — NS pruning counts,
//! columnar scan counters, pool map counts — go through plain atomics;
//! each parallel map's per-worker chunk/steal counts go into one list,
//! which is also where the pool totals are summed from.
//!
//! A *disabled* recorder ([`Recorder::disabled`]) short-circuits every
//! entry point before touching the clock, the id counter, or the span
//! mutex: the instrumented code path then costs only the branch on
//! [`Recorder::is_enabled`] per operator node.

use crate::profile::{NsObs, OperatorTotals, PoolObs, Profile, WorkerStat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans are dropped (and counted in `dropped_spans`) past this buffer
/// size — a runaway-query backstop, far above any sane plan size.
const MAX_SPANS: usize = 1 << 16;

/// The operator taxonomy: one kind per NS–SPARQL algebra node, plus
/// `Scan` for a single index nested-loop step inside an `AND`-spine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// A flattened `AND`-spine (the index nested-loop join).
    And,
    /// One triple-pattern step of a spine join.
    Scan,
    /// `UNION`.
    Union,
    /// `OPT` (left outer join).
    Opt,
    /// `MINUS` (difference).
    Minus,
    /// `FILTER`.
    Filter,
    /// `SELECT` (projection).
    Select,
    /// `NS` (subsumption-maximal answers).
    Ns,
}

impl OpKind {
    /// Every kind, in display order.
    pub const ALL: [OpKind; 8] = [
        OpKind::And,
        OpKind::Scan,
        OpKind::Union,
        OpKind::Opt,
        OpKind::Minus,
        OpKind::Filter,
        OpKind::Select,
        OpKind::Ns,
    ];

    /// This kind's position in [`OpKind::ALL`] (its declaration order)
    /// — the index used by per-operator histogram arrays in the metrics
    /// hub.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The canonical (surface-syntax) name.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::And => "AND",
            OpKind::Scan => "SCAN",
            OpKind::Union => "UNION",
            OpKind::Opt => "OPT",
            OpKind::Minus => "MINUS",
            OpKind::Filter => "FILTER",
            OpKind::Select => "SELECT",
            OpKind::Ns => "NS",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifier of a span within one recorder. `SpanId::ROOT` (0) is the
/// parent of top-level spans; real ids start at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The synthetic parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One finished operator span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id (allocated before its children ran).
    pub id: SpanId,
    /// The enclosing operator's id, or [`SpanId::ROOT`].
    pub parent: SpanId,
    /// Operator kind.
    pub kind: OpKind,
    /// Human-readable operator detail (access path, condition, …).
    pub label: String,
    /// Input cardinality, where the operator has a meaningful one
    /// (scan steps and NS record it; structural nodes don't).
    pub rows_in: Option<u64>,
    /// Observed output cardinality.
    pub rows_out: u64,
    /// Planner-side output estimate, where the operator has one (scan
    /// steps carry their plan step's `IdRuns` cardinality bound;
    /// structural nodes don't). Feed for the future cost-based planner: estimated vs
    /// observed rows per operator, from the engine that actually runs.
    pub estimated_rows: Option<u64>,
    /// Observed wall time.
    pub elapsed_ns: u64,
}

/// A started clock, or a no-op when the recorder is disabled.
#[derive(Debug)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// Nanoseconds since the timer started (0 for a disabled timer).
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(start) => start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }
}

/// The thread-safe span/event sink. See the module docs. The default
/// recorder is the disabled one.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped_spans: AtomicU64,
    ns_candidates: AtomicU64,
    ns_survivors: AtomicU64,
    inline_maps: AtomicU64,
    parallel_maps: AtomicU64,
    workers: Mutex<Vec<WorkerStat>>,
    hint_hits: AtomicU64,
    hint_misses: AtomicU64,
    decoded_rows: AtomicU64,
    distinct_results: AtomicU64,
    dedup_skips: AtomicU64,
}

impl Recorder {
    /// A recording recorder.
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            ..Recorder::default()
        }
    }

    /// A no-op recorder: every entry point returns immediately, no
    /// clock is read, nothing is stored.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Whether this recorder stores anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates the id an operator will record its span under —
    /// *before* recursing, so children can cite it as their parent.
    pub fn begin(&self) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        // Ids count from 1: 0 is `SpanId::ROOT`.
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Starts a clock (no-op when disabled).
    pub fn timer(&self) -> SpanTimer {
        SpanTimer(self.enabled.then(Instant::now))
    }

    /// Records one finished operator span (no planner estimate; see
    /// [`Recorder::record_span_est`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        id: SpanId,
        parent: SpanId,
        kind: OpKind,
        label: &str,
        rows_in: Option<u64>,
        rows_out: u64,
        timer: &SpanTimer,
    ) {
        self.record_span_est(id, parent, kind, label, rows_in, rows_out, None, timer);
    }

    /// Records one finished operator span carrying a planner-side
    /// output estimate alongside the observed cardinality.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_est(
        &self,
        id: SpanId,
        parent: SpanId,
        kind: OpKind,
        label: &str,
        rows_in: Option<u64>,
        rows_out: u64,
        estimated_rows: Option<u64>,
        timer: &SpanTimer,
    ) {
        if !self.enabled {
            return;
        }
        let elapsed_ns = timer.elapsed_ns();
        let mut spans = self.spans.lock().expect("obs span buffer poisoned");
        if spans.len() >= MAX_SPANS {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span {
            id,
            parent,
            kind,
            label: label.to_owned(),
            rows_in,
            rows_out,
            estimated_rows,
            elapsed_ns,
        });
    }

    /// Records one NS maximality pass: how many candidate mappings went
    /// in and how many survived the subsumption filter.
    pub fn record_ns(&self, candidates: u64, survivors: u64) {
        if !self.enabled {
            return;
        }
        self.ns_candidates.fetch_add(candidates, Ordering::Relaxed);
        self.ns_survivors.fetch_add(survivors, Ordering::Relaxed);
    }

    /// Counts a pool `map` that ran inline.
    pub fn record_map_inline(&self) {
        if self.enabled {
            self.inline_maps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a pool `map` that spawned workers.
    pub fn record_map_parallel(&self) {
        if self.enabled {
            self.parallel_maps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one worker's contribution to a parallel map: wall time
    /// spent in its chunk loop, chunks executed, chunks stolen.
    pub fn record_worker(&self, worker: usize, busy_ns: u64, chunks: u64, steals: u64) {
        if !self.enabled {
            return;
        }
        self.workers
            .lock()
            .expect("obs worker buffer poisoned")
            .push(WorkerStat {
                worker,
                busy_ns,
                chunks,
                steals,
            });
    }

    /// Accumulates galloping-scan hint reuse counters from one spine
    /// extension: `hits` = scans answered by the memoized previous key,
    /// `misses` = fresh `scan_from` probes.
    pub fn record_columnar_hints(&self, hits: u64, misses: u64) {
        if !self.enabled {
            return;
        }
        self.hint_hits.fetch_add(hits, Ordering::Relaxed);
        self.hint_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Records the dictionary decode at the columnar result boundary:
    /// `rows` id-rows decoded to terms, `distinct` whether the decoded
    /// set kept the `Repr::Distinct` fast path (skipping the hash-set
    /// build).
    pub fn record_columnar_decode(&self, rows: u64, distinct: bool) {
        if !self.enabled {
            return;
        }
        self.decoded_rows.fetch_add(rows, Ordering::Relaxed);
        if distinct {
            self.distinct_results.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one spine that proved a homogeneous variable domain and
    /// skipped per-extension sort-dedup entirely.
    pub fn record_columnar_dedup_skip(&self) {
        if self.enabled {
            self.dedup_skips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of the finished spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("obs span buffer poisoned").clone()
    }

    /// Snapshots everything recorded so far into a [`Profile`]
    /// (operator totals aggregated from the span buffer, NS/pool
    /// counters from the atomics, pool chunk/steal totals summed from
    /// the per-worker list). Store/cache metrics, the optimizer's prune
    /// counts and the query/answers header are left for the caller to
    /// fold in.
    pub fn profile(&self) -> Profile {
        let spans = self.spans();
        let mut totals: Vec<OperatorTotals> = Vec::new();
        let mut total_ns = 0u64;
        for span in &spans {
            if span.parent == SpanId::ROOT {
                total_ns += span.elapsed_ns;
            }
            match totals.iter_mut().find(|t| t.kind == span.kind) {
                Some(t) => {
                    t.count += 1;
                    t.rows_out += span.rows_out;
                    t.elapsed_ns += span.elapsed_ns;
                }
                None => totals.push(OperatorTotals {
                    kind: span.kind,
                    count: 1,
                    rows_out: span.rows_out,
                    elapsed_ns: span.elapsed_ns,
                }),
            }
        }
        totals.sort_by_key(|t| std::cmp::Reverse(t.elapsed_ns));
        let mut workers = self
            .workers
            .lock()
            .expect("obs worker buffer poisoned")
            .clone();
        workers.sort_by_key(|w| w.worker);
        Profile {
            query: None,
            answers: None,
            total_ns,
            operators: totals,
            ns: NsObs {
                candidates: self.ns_candidates.load(Ordering::Relaxed),
                survivors: self.ns_survivors.load(Ordering::Relaxed),
            },
            pool: PoolObs {
                inline_maps: self.inline_maps.load(Ordering::Relaxed),
                parallel_maps: self.parallel_maps.load(Ordering::Relaxed),
                chunks: workers.iter().map(|w| w.chunks).sum(),
                steals: workers.iter().map(|w| w.steals).sum(),
                workers,
            },
            prunes: Default::default(),
            columnar: crate::profile::ColumnarObs {
                fallbacks: 0,
                hint_hits: self.hint_hits.load(Ordering::Relaxed),
                hint_misses: self.hint_misses.load(Ordering::Relaxed),
                decoded_rows: self.decoded_rows.load(Ordering::Relaxed),
                distinct_results: self.distinct_results.load(Ordering::Relaxed),
                dedup_skips: self.dedup_skips.load(Ordering::Relaxed),
            },
            spans,
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
            store: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let id = rec.begin();
        assert_eq!(id, SpanId::ROOT);
        let timer = rec.timer();
        rec.record_span(id, SpanId::ROOT, OpKind::Union, "u", None, 7, &timer);
        rec.record_ns(100, 10);
        rec.record_map_parallel();
        rec.record_map_inline();
        rec.record_worker(0, 123, 4, 1);
        assert_eq!(timer.elapsed_ns(), 0);
        let profile = rec.profile();
        assert!(profile.spans.is_empty());
        assert!(profile.operators.is_empty());
        assert_eq!(profile.total_ns, 0);
        assert_eq!(profile.ns.candidates, 0);
        assert_eq!(profile.pool.parallel_maps, 0);
        assert!(profile.pool.workers.is_empty());
    }

    #[test]
    fn spans_aggregate_into_operator_totals() {
        let rec = Recorder::new();
        let root = rec.begin();
        let child_a = rec.begin();
        let child_b = rec.begin();
        let t = rec.timer();
        rec.record_span(child_a, root, OpKind::Scan, "a", Some(10), 4, &t);
        rec.record_span(child_b, root, OpKind::Scan, "b", Some(4), 2, &t);
        rec.record_span(root, SpanId::ROOT, OpKind::And, "spine", None, 2, &t);
        let profile = rec.profile();
        assert_eq!(profile.spans.len(), 3);
        let scans = profile
            .operators
            .iter()
            .find(|o| o.kind == OpKind::Scan)
            .expect("scan totals");
        assert_eq!(scans.count, 2);
        assert_eq!(scans.rows_out, 6);
        let ands = profile
            .operators
            .iter()
            .find(|o| o.kind == OpKind::And)
            .expect("and totals");
        assert_eq!(ands.count, 1);
    }

    #[test]
    fn kind_index_is_position_in_all() {
        assert!(OpKind::ALL.iter().enumerate().all(|(i, k)| k.index() == i));
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let rec = Recorder::new();
        let a = rec.begin();
        let b = rec.begin();
        assert_ne!(a, SpanId::ROOT);
        assert_ne!(a, b);
    }

    #[test]
    fn worker_stats_sum_into_pool_totals() {
        let rec = Recorder::new();
        rec.record_map_parallel();
        rec.record_worker(1, 500, 3, 1);
        rec.record_worker(0, 700, 5, 0);
        let profile = rec.profile();
        assert_eq!(profile.pool.chunks, 8);
        assert_eq!(profile.pool.steals, 1);
        // Sorted by worker index for stable output.
        assert_eq!(profile.pool.workers[0].worker, 0);
        assert_eq!(profile.pool.workers[1].worker, 1);
    }

    #[test]
    fn ns_pruning_counters_accumulate() {
        let rec = Recorder::new();
        rec.record_ns(100, 30);
        rec.record_ns(50, 20);
        let profile = rec.profile();
        assert_eq!(profile.ns.candidates, 150);
        assert_eq!(profile.ns.survivors, 50);
        assert!((profile.ns.pruned_fraction() - (100.0 / 150.0)).abs() < 1e-9);
    }

    #[test]
    fn span_buffer_is_capped() {
        let rec = Recorder::new();
        let t = rec.timer();
        for _ in 0..(MAX_SPANS + 5) {
            let id = rec.begin();
            rec.record_span(id, SpanId::ROOT, OpKind::Filter, "f", None, 0, &t);
        }
        let profile = rec.profile();
        assert_eq!(profile.spans.len(), MAX_SPANS);
        assert_eq!(profile.dropped_spans, 5);
    }
}
