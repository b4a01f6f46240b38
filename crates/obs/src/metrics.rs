//! The process-level metrics hub: latency histograms and the
//! slow-query log.
//!
//! Where [`crate::Recorder`] is scoped to one traced query, a
//! [`MetricsHub`] accumulates across *every* query a store serves:
//! end-to-end latency, per-operator wall time (folded from traced
//! spans), WAL fsync latency, checkpoint duration — all as lock-free
//! [`Histogram`]s — plus counters for columnar engine usage and a
//! bounded ring buffer of the slowest queries. `owql-store` owns one
//! hub per store and records into it on the query and commit paths;
//! `owql-server` renders it on `GET /metrics` in Prometheus text
//! format ([`crate::prometheus`]) or JSON (`?format=json`).

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::profile::{OperatorTotals, PruneObs};
use crate::recorder::{OpKind, Span};
use crate::{json, prometheus};
use std::collections::VecDeque;
use std::fmt::Write as _;
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
    /// Static plan snapshot (EXPLAIN rendering) at capture time.
    pub plan: String,
    /// Per-operator totals from the traced profile, when the query was
    /// traced (empty otherwise).
    pub operators: Vec<OperatorTotals>,
}

impl SlowQuery {
    fn to_json(&self, indent: &str) -> String {
        let mut out = format!(
            "{{\n{indent}  \"query\": {},\n{indent}  \"epoch\": {},\n\
             {indent}  \"ms\": {},\n{indent}  \"answers\": {},\n\
             {indent}  \"cache_hit\": {},\n{indent}  \"plan\": {},\n\
             {indent}  \"operators\": [",
            json::string(&self.query),
            self.epoch,
            json::ns_as_ms(self.elapsed_ns),
            self.answers,
            self.cache_hit,
            json::string(&self.plan),
        );
        for (i, op) in self.operators.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"op\": {}, \"count\": {}, \"rows_out\": {}, \"ms\": {}}}",
                json::string(op.kind.as_str()),
                op.count,
                op.rows_out,
                json::ns_as_ms(op.elapsed_ns)
            );
        }
        let _ = write!(out, "]\n{indent}}}");
        out
    }
}

/// Upper bound on shards the metrics arrays are sized for. Scatter
/// plans wider than this still evaluate; only per-shard attribution
/// saturates into the last slot.
pub const MAX_SHARDS: usize = 64;

/// Counters for the sharded scatter-gather evaluation path: how many
/// queries scattered, a power-of-two fan-out histogram (shards that
/// produced non-empty partial tables per scatter round), and per-shard
/// task/row attribution. All relaxed atomics — recorded from inside
/// the scatter workers without contention.
#[derive(Debug)]
pub struct ShardMetrics {
    /// Queries answered on the sharded path.
    pub queries_total: AtomicU64,
    /// Scatter rounds executed (one per AND-spine seed scan or UNION
    /// fan-out).
    pub scatters_total: AtomicU64,
    /// Fan-out histogram: bucket `i` counts scatter rounds whose
    /// non-empty partial count was ≤ 2^i (bounds 1, 2, 4, …, 64).
    pub fanout_buckets: [AtomicU64; 7],
    /// Sum of fan-outs, for the mean.
    pub fanout_sum: AtomicU64,
    /// Scatter tasks executed per shard id.
    pub shard_tasks: [AtomicU64; MAX_SHARDS],
    /// Partial-result rows produced per shard id.
    pub shard_rows: [AtomicU64; MAX_SHARDS],
}

impl Default for ShardMetrics {
    fn default() -> ShardMetrics {
        ShardMetrics {
            queries_total: AtomicU64::new(0),
            scatters_total: AtomicU64::new(0),
            fanout_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            fanout_sum: AtomicU64::new(0),
            shard_tasks: std::array::from_fn(|_| AtomicU64::new(0)),
            shard_rows: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ShardMetrics {
    /// Records one scatter round that saw `fanout` shards produce
    /// non-empty partials.
    pub fn record_scatter(&self, fanout: usize) {
        self.scatters_total.fetch_add(1, Ordering::Relaxed);
        self.fanout_sum.fetch_add(fanout as u64, Ordering::Relaxed);
        // Bucket index = log2 of the next power of two ≥ fanout,
        // saturating into the last (le="64") bucket.
        let idx = (fanout.max(1).next_power_of_two().trailing_zeros() as usize).min(6);
        self.fanout_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-shard scatter task and the rows it produced.
    pub fn record_shard_task(&self, shard: usize, rows: u64) {
        let k = shard.min(MAX_SHARDS - 1);
        self.shard_tasks[k].fetch_add(1, Ordering::Relaxed);
        self.shard_rows[k].fetch_add(rows, Ordering::Relaxed);
    }

    /// Renders the shard families in Prometheus text format. Emits
    /// nothing until the first scatter, so expositions from unsharded
    /// deployments are unchanged.
    pub fn render_prometheus(&self, out: &mut String) {
        let scatters = self.scatters_total.load(Ordering::Relaxed);
        if scatters == 0 {
            return;
        }
        prometheus::counter(
            out,
            "owql_sharded_queries_total",
            "Queries answered by the sharded scatter-gather path.",
            self.queries_total.load(Ordering::Relaxed),
        );
        prometheus::header(
            out,
            "owql_shard_fanout",
            "histogram",
            "Shards producing non-empty partials per scatter round.",
        );
        let mut cum = 0u64;
        for (i, b) in self.fanout_buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "owql_shard_fanout_bucket{{le=\"{}\"}} {cum}",
                1u64 << i
            );
        }
        let _ = writeln!(out, "owql_shard_fanout_bucket{{le=\"+Inf\"}} {cum}");
        let _ = writeln!(
            out,
            "owql_shard_fanout_sum {}",
            self.fanout_sum.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "owql_shard_fanout_count {scatters}");
        prometheus::header(
            out,
            "owql_shard_tasks_total",
            "counter",
            "Scatter tasks executed per shard.",
        );
        for (k, tasks) in self.shard_tasks.iter().enumerate() {
            let tasks = tasks.load(Ordering::Relaxed);
            if tasks == 0 {
                continue;
            }
            let _ = writeln!(out, "owql_shard_tasks_total{{shard=\"{k}\"}} {tasks}");
        }
        prometheus::header(
            out,
            "owql_shard_rows_total",
            "counter",
            "Partial-result rows produced per shard.",
        );
        for (k, rows) in self.shard_rows.iter().enumerate() {
            if self.shard_tasks[k].load(Ordering::Relaxed) == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "owql_shard_rows_total{{shard=\"{k}\"}} {}",
                rows.load(Ordering::Relaxed)
            );
        }
    }

    /// The shard counters as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"queries_total\": {}, \"scatters_total\": {}, \"fanout_sum\": {}, \"per_shard\": [",
            self.queries_total.load(Ordering::Relaxed),
            self.scatters_total.load(Ordering::Relaxed),
            self.fanout_sum.load(Ordering::Relaxed),
        );
        let mut first = true;
        for k in 0..MAX_SHARDS {
            let tasks = self.shard_tasks[k].load(Ordering::Relaxed);
            if tasks == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"shard\": {k}, \"tasks\": {tasks}, \"rows\": {}}}",
                self.shard_rows[k].load(Ordering::Relaxed)
            );
        }
        out.push_str("]}");
        out
    }
}

/// The cross-query metrics accumulator. See module docs.
#[derive(Debug, Default)]
pub struct MetricsHub {
    /// End-to-end latency of every query served (cache hits included).
    pub query_latency: Histogram,
    /// Wall time per operator kind, folded from traced spans; indexed
    /// by [`OpKind::index`].
    pub operator_latency: [Histogram; OpKind::ALL.len()],
    /// WAL append+fsync latency per commit (durable stores only).
    pub wal_fsync: Histogram,
    /// Checkpoint (segment write + WAL truncate) duration.
    pub checkpoint: Histogram,
    /// Queries served.
    pub queries_total: AtomicU64,
    /// Queries the evaluator ran (served queries minus cache hits).
    pub columnar_runs: AtomicU64,
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
    /// Scatter-gather shard counters (zero until sharding is enabled).
    pub shards: ShardMetrics,
    slow: Mutex<VecDeque<SlowQuery>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

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

    /// Renders every hub-owned family in Prometheus text format.
    /// Callers append their own families (store gauges, server
    /// counters) around this with the [`prometheus`] helpers.
    pub fn render_prometheus(&self, out: &mut String) {
        prometheus::counter(
            out,
            "owql_queries_total",
            "Queries served (cache hits included).",
            self.queries_total.load(Ordering::Relaxed),
        );
        prometheus::histogram(
            out,
            "owql_query_latency_seconds",
            "End-to-end query latency.",
            &self.query_latency.snapshot(),
        );
        prometheus::header(
            out,
            "owql_operator_latency_seconds",
            "histogram",
            "Per-operator wall time from traced queries.",
        );
        for kind in OpKind::ALL {
            let snap = self.operator_latency[kind.index()].snapshot();
            if snap.count == 0 {
                continue;
            }
            let label = format!("op=\"{}\"", kind.as_str());
            prometheus::histogram_samples(out, "owql_operator_latency_seconds", &label, &snap);
        }
        prometheus::counter(
            out,
            "owql_columnar_runs_total",
            "Queries answered by the columnar id-batch engine.",
            self.columnar_runs.load(Ordering::Relaxed),
        );
        prometheus::histogram(
            out,
            "owql_wal_fsync_seconds",
            "WAL append and fsync latency per commit.",
            &self.wal_fsync.snapshot(),
        );
        prometheus::histogram(
            out,
            "owql_checkpoint_seconds",
            "Checkpoint (segment write and WAL truncation) duration.",
            &self.checkpoint.snapshot(),
        );
        prometheus::counter(
            out,
            "owql_slow_queries_total",
            "Queries that crossed the slow-query threshold.",
            self.slow_queries_total.load(Ordering::Relaxed),
        );
        prometheus::header(
            out,
            "owql_lint_prunes_total",
            "counter",
            "Plan rewrites certified by the lint dataflow pass, by rule.",
        );
        for (rule, counter) in [
            ("FL003", &self.pruned_unsat_filters),
            ("UN002", &self.pruned_subsumed_branches),
            ("BD001", &self.pruned_opt_collapses),
        ] {
            let _ = writeln!(
                out,
                "owql_lint_prunes_total{{rule=\"{rule}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        self.shards.render_prometheus(out);
    }

    /// Renders the hub as a JSON object (for `GET /metrics?format=json`
    /// and tests): latency quantiles, counters, bucket lists, and the
    /// slow-query log.
    pub fn to_json(&self, indent: &str) -> String {
        let q = self.query_latency.snapshot();
        let mut out = format!(
            "{{\n{indent}  \"queries_total\": {},\n\
             {indent}  \"columnar_runs\": {},\n\
             {indent}  \"slow_queries_total\": {},\n\
             {indent}  \"lint_prunes\": {{\"unsat_filters\": {}, \
             \"subsumed_branches\": {}, \"opt_collapses\": {}}},\n\
             {indent}  \"shards\": {},\n\
             {indent}  \"query_latency\": {},\n\
             {indent}  \"wal_fsync\": {},\n\
             {indent}  \"checkpoint\": {},\n\
             {indent}  \"slow_queries\": [",
            self.queries_total.load(Ordering::Relaxed),
            self.columnar_runs.load(Ordering::Relaxed),
            self.slow_queries_total.load(Ordering::Relaxed),
            self.pruned_unsat_filters.load(Ordering::Relaxed),
            self.pruned_subsumed_branches.load(Ordering::Relaxed),
            self.pruned_opt_collapses.load(Ordering::Relaxed),
            self.shards.to_json(),
            latency_json(&q, &format!("{indent}  ")),
            latency_json(&self.wal_fsync.snapshot(), &format!("{indent}  ")),
            latency_json(&self.checkpoint.snapshot(), &format!("{indent}  ")),
        );
        let slow = self.slow_queries();
        for (i, entry) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{indent}    {}",
                entry.to_json(&format!("{indent}    "))
            );
        }
        if slow.is_empty() {
            let _ = write!(out, "]\n{indent}}}");
        } else {
            let _ = write!(out, "\n{indent}  ]\n{indent}}}");
        }
        out
    }
}

/// One latency histogram as JSON: count, mean, p50/p95/p99, buckets.
fn latency_json(snap: &HistogramSnapshot, indent: &str) -> String {
    format!(
        "{{\"count\": {}, \"mean_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \
         \"p99_ms\": {}, \"histogram_buckets\": {}}}",
        snap.count,
        json::number(snap.mean_ms()),
        json::number(snap.quantile_ms(0.50)),
        json::number(snap.quantile_ms(0.95)),
        json::number(snap.quantile_ms(0.99)),
        snap.buckets_to_json(indent),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, SpanId};

    fn hub_with_traffic() -> MetricsHub {
        let hub = MetricsHub::new();
        for _ in 0..5 {
            hub.queries_total.fetch_add(1, Ordering::Relaxed);
            hub.query_latency.record_ns(2_000_000);
        }
        hub.columnar_runs.fetch_add(4, Ordering::Relaxed);
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
        let mut out = String::new();
        hub_with_traffic().render_prometheus(&mut out);
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
        let hub = MetricsHub::new();
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

    #[test]
    fn json_rendering_is_structurally_balanced() {
        let text = hub_with_traffic().to_json("  ");
        for key in [
            "\"queries_total\"",
            "\"columnar_runs\"",
            "\"lint_prunes\"",
            "\"subsumed_branches\"",
            "\"query_latency\"",
            "\"histogram_buckets\"",
            "\"p99_ms\"",
            "\"slow_queries\"",
            "\"plan\"",
            "\"cache_hit\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        let (mut braces, mut brackets) = (0i64, 0i64);
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
    }
}
