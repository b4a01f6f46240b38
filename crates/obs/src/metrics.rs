//! The process-level metrics hub: latency histograms and the
//! slow-query log.
//!
//! Where [`crate::Recorder`] is scoped to one traced query, a
//! [`MetricsHub`] accumulates across *every* query a store serves:
//! end-to-end latency, per-operator wall time (folded from traced
//! spans), WAL fsync latency, checkpoint duration — all as lock-free
//! [`Histogram`]s — plus the certified-prune counters and a bounded
//! ring buffer of the slowest queries. Served-query and evaluator-run
//! counts are not kept separately: they are the latency histogram's
//! count (minus cache hits, for runs). `owql-store` owns one hub per
//! store and records into it on the query and commit paths;
//! [`MetricsHub::families`] lists its `/metrics` families once, for
//! both renderings in [`crate::prometheus`].

use crate::histogram::Histogram;
use crate::json;
use crate::profile::{OperatorTotals, PruneObs};
use crate::prometheus::Family;
use crate::recorder::{OpKind, Span};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the slow-query ring buffer: old entries are evicted
/// FIFO once this many are held.
pub const SLOW_QUERY_CAPACITY: usize = 64;

/// One captured slow query.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Surface rendering of the pattern.
    pub query: String,
    /// Store epoch the query ran at.
    pub epoch: u64,
    /// Observed end-to-end latency.
    pub elapsed_ns: u64,
    /// Answer count.
    pub answers: u64,
    /// Whether the answer came from the query cache.
    pub cache_hit: bool,
    /// Plan snapshot (EXPLAIN rendering of the pattern as run) at capture.
    pub plan: String,
    /// Per-operator totals from the traced profile, when the query was
    /// traced (empty otherwise).
    pub operators: Vec<OperatorTotals>,
}

impl SlowQuery {
    fn to_json(&self) -> String {
        let operators: Vec<String> = self.operators.iter().map(OperatorTotals::to_json).collect();
        format!(
            "{{\"query\": {}, \"epoch\": {}, \"ms\": {}, \"answers\": {}, \
             \"cache_hit\": {}, \"plan\": {}, \"operators\": [{}]}}",
            json::string(&self.query),
            self.epoch,
            json::ns_as_ms(self.elapsed_ns),
            self.answers,
            self.cache_hit,
            json::string(&self.plan),
            operators.join(", ")
        )
    }
}

/// The cross-query metrics accumulator. See module docs.
#[derive(Debug, Default)]
pub struct MetricsHub {
    /// End-to-end latency of every query served (cache hits included);
    /// its count is the served-query count.
    pub query_latency: Histogram,
    /// Wall time per operator kind, folded from traced spans; indexed
    /// by [`OpKind::index`].
    pub operator_latency: [Histogram; OpKind::ALL.len()],
    /// WAL append+fsync latency per commit (durable stores only).
    pub wal_fsync: Histogram,
    /// Checkpoint (segment write + WAL truncate) duration; its count is
    /// the checkpoint count.
    pub checkpoint: Histogram,
    /// Queries that crossed the slow-query threshold.
    pub slow_queries_total: AtomicU64,
    /// Plan subtrees pruned as unsatisfiable FILTER conjunctions
    /// (lint rule FL003) by the certified optimizer rewrites.
    pub pruned_unsat_filters: AtomicU64,
    /// UNION branches dropped as subsumed by a sibling (lint rule
    /// UN002).
    pub pruned_subsumed_branches: AtomicU64,
    /// OPT nodes collapsed to AND because the enclosing FILTER demands
    /// an optional-only binding (lint rule BD001).
    pub pruned_opt_collapses: AtomicU64,
    slow: Mutex<VecDeque<SlowQuery>>,
}

impl MetricsHub {
    /// Folds one traced query's spans into the per-operator histograms.
    pub fn observe_spans(&self, spans: &[Span]) {
        for span in spans {
            self.operator_latency[span.kind.index()].record_ns(span.elapsed_ns);
        }
    }

    /// Folds one query's certified-pruning counters into the hub.
    pub fn observe_prunes(&self, prunes: PruneObs) {
        if prunes.total() == 0 {
            return;
        }
        self.pruned_unsat_filters
            .fetch_add(prunes.unsat_filters, Ordering::Relaxed);
        self.pruned_subsumed_branches
            .fetch_add(prunes.subsumed_branches, Ordering::Relaxed);
        self.pruned_opt_collapses
            .fetch_add(prunes.opt_collapses, Ordering::Relaxed);
    }

    /// Pushes one slow query into the ring buffer (evicting the oldest
    /// past [`SLOW_QUERY_CAPACITY`]) and bumps the counter.
    pub fn record_slow_query(&self, entry: SlowQuery) {
        self.slow_queries_total.fetch_add(1, Ordering::Relaxed);
        let mut slow = self.slow.lock().expect("slow-query log poisoned");
        if slow.len() >= SLOW_QUERY_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(entry);
    }

    /// The captured slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow
            .lock()
            .expect("slow-query log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The captured slow queries as a JSON array, oldest first.
    pub fn slow_queries_json(&self) -> String {
        let entries: Vec<String> = self.slow_queries().iter().map(SlowQuery::to_json).collect();
        if entries.is_empty() {
            "[]".to_owned()
        } else {
            format!("[\n  {}\n]", entries.join(",\n  "))
        }
    }

    /// Every hub-owned `/metrics` family.
    /// `cache_hits` is the store's query-cache hit count: the queries
    /// served that the evaluator did not run.
    pub fn families(&self, cache_hits: u64) -> Vec<Family> {
        let latency = self.query_latency.snapshot();
        let mut operators = Family::new(
            "owql_operator_latency_seconds",
            "histogram",
            "Per-operator wall time from traced queries.",
        );
        for kind in OpKind::ALL {
            let snap = self.operator_latency[kind.index()].snapshot();
            if snap.count > 0 {
                operators = operators.sample(Some(("op", kind.as_str().to_owned())), &snap);
            }
        }
        let mut prunes = Family::new(
            "owql_lint_prunes_total",
            "counter",
            "Plan rewrites certified by the lint dataflow pass, by rule.",
        );
        for (rule, counter) in [
            ("FL003", &self.pruned_unsat_filters),
            ("UN002", &self.pruned_subsumed_branches),
            ("BD001", &self.pruned_opt_collapses),
        ] {
            prunes = prunes.sample(
                Some(("rule", rule.to_owned())),
                counter.load(Ordering::Relaxed),
            );
        }
        vec![
            Family::counter(
                "owql_queries_total",
                "Queries served (cache hits included).",
                latency.count,
            ),
            Family::histogram(
                "owql_query_latency_seconds",
                "End-to-end query latency.",
                &latency,
            ),
            operators,
            Family::counter(
                "owql_columnar_runs_total",
                "Queries answered by the columnar id-batch engine.",
                latency.count.saturating_sub(cache_hits),
            ),
            Family::histogram(
                "owql_wal_fsync_seconds",
                "WAL append and fsync latency per commit.",
                &self.wal_fsync.snapshot(),
            ),
            Family::histogram(
                "owql_checkpoint_seconds",
                "Checkpoint (segment write and WAL truncation) duration.",
                &self.checkpoint.snapshot(),
            ),
            Family::counter(
                "owql_slow_queries_total",
                "Queries that crossed the slow-query threshold.",
                self.slow_queries_total.load(Ordering::Relaxed),
            ),
            prunes,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prometheus::to_text;
    use crate::recorder::{Recorder, SpanId};

    fn hub_with_traffic() -> MetricsHub {
        let hub = MetricsHub::default();
        for _ in 0..5 {
            hub.query_latency.record_ns(2_000_000);
        }
        hub.observe_prunes(PruneObs {
            unsat_filters: 2,
            subsumed_branches: 1,
            opt_collapses: 0,
        });
        hub.wal_fsync.record_ns(500_000);
        hub.checkpoint.record_ns(9_000_000);
        let rec = Recorder::new();
        let id = rec.begin();
        let t = rec.timer();
        rec.record_span(id, SpanId::ROOT, OpKind::Ns, "ns", Some(10), 3, &t);
        hub.observe_spans(&rec.spans());
        hub.record_slow_query(SlowQuery {
            query: "(?x, p, ?y)".to_owned(),
            epoch: 7,
            elapsed_ns: 250_000_000,
            answers: 3,
            cache_hit: false,
            plan: "SCAN (?x, p, ?y) via POS".to_owned(),
            operators: vec![OperatorTotals {
                kind: OpKind::Scan,
                count: 1,
                rows_out: 3,
                elapsed_ns: 240_000_000,
            }],
        });
        hub
    }

    #[test]
    fn prometheus_rendering_covers_every_family() {
        // One of the five queries was a cache hit.
        let out = to_text(&hub_with_traffic().families(1));
        for family in [
            "owql_queries_total",
            "owql_query_latency_seconds",
            "owql_operator_latency_seconds",
            "owql_columnar_runs_total",
            "owql_wal_fsync_seconds",
            "owql_checkpoint_seconds",
            "owql_slow_queries_total",
            "owql_lint_prunes_total",
        ] {
            assert!(
                out.contains(&format!("# TYPE {family}")),
                "missing {family}:\n{out}"
            );
            assert!(
                out.contains(&format!("# HELP {family}")),
                "missing help {family}"
            );
        }
        assert!(out.contains("owql_queries_total 5"));
        assert!(out.contains("owql_query_latency_seconds_count 5"));
        assert!(out.contains("op=\"NS\""));
        assert!(out.contains("owql_columnar_runs_total 4"));
        assert!(out.contains("owql_lint_prunes_total{rule=\"FL003\"} 2"));
        assert!(out.contains("owql_lint_prunes_total{rule=\"UN002\"} 1"));
        assert!(out.contains("owql_lint_prunes_total{rule=\"BD001\"} 0"));
    }

    #[test]
    fn slow_query_ring_buffer_evicts_oldest() {
        let hub = MetricsHub::default();
        for i in 0..(SLOW_QUERY_CAPACITY + 3) {
            hub.record_slow_query(SlowQuery {
                query: format!("q{i}"),
                epoch: i as u64,
                elapsed_ns: 1,
                answers: 0,
                cache_hit: false,
                plan: String::new(),
                operators: Vec::new(),
            });
        }
        let slow = hub.slow_queries();
        assert_eq!(slow.len(), SLOW_QUERY_CAPACITY);
        assert_eq!(slow[0].query, "q3");
        assert_eq!(
            hub.slow_queries_total.load(Ordering::Relaxed),
            (SLOW_QUERY_CAPACITY + 3) as u64
        );
    }
}
