//! The unified profile report.
//!
//! A [`Profile`] is the single snapshot the rest of the stack reports
//! into: per-operator totals and the span tree (from the evaluator),
//! NS pruning counters, pool worker stats (from `owql-exec`), and the
//! store/cache counters (folded in by `owql-store`). It serializes to
//! hand-rolled JSON ([`crate::json`]), so CI can grep/jq it and trend
//! it across PRs.

use crate::json;
use crate::recorder::{OpKind, Span};
use std::fmt::Write as _;

/// Aggregated counters for one operator kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperatorTotals {
    /// The operator.
    pub kind: OpKind,
    /// Spans recorded for this kind.
    pub count: u64,
    /// Total output rows across those spans.
    pub rows_out: u64,
    /// Total wall time across those spans.
    pub elapsed_ns: u64,
}

/// NS (subsumption-maximality) pruning counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NsObs {
    /// Mappings entering maximality filtering.
    pub candidates: u64,
    /// Mappings surviving it.
    pub survivors: u64,
}

impl NsObs {
    /// Fraction of candidates pruned (0 when NS never ran).
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            1.0 - self.survivors as f64 / self.candidates as f64
        }
    }
}

/// Columnar id-batch engine counters for one traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarObs {
    /// Retired: always 0. The columnar walker is the only evaluator, so
    /// there is nothing to fall back to; the field (and its JSON key)
    /// stays because `owql_bench` reads it.
    pub fallbacks: u64,
    /// Galloping-scan probes answered by the memoized previous key.
    pub hint_hits: u64,
    /// Galloping-scan probes that needed a fresh hinted binary search.
    pub hint_misses: u64,
    /// Id-rows decoded back to terms at the result boundary.
    pub decoded_rows: u64,
    /// Decodes that kept the `Repr::Distinct` fast path (provably
    /// duplicate-free rows skip the hash-set build).
    pub distinct_results: u64,
    /// Spines that proved a homogeneous variable domain and skipped
    /// per-extension sort-dedup.
    pub dedup_skips: u64,
}

impl ColumnarObs {
    /// Fraction of scan probes served by the memoized key (0 when the
    /// spine never scanned).
    pub fn hint_hit_rate(&self) -> f64 {
        let total = self.hint_hits + self.hint_misses;
        if total == 0 {
            0.0
        } else {
            self.hint_hits as f64 / total as f64
        }
    }
}

/// Certified-pruning counters from the optimizer's lint-driven
/// rewrites: how many subtrees the static analyzer (`owql-lint`)
/// proved removable before the engine fanned out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneObs {
    /// FILTER subtrees proven unsatisfiable (rule FL003) and replaced
    /// by an empty pattern.
    pub unsat_filters: u64,
    /// UNION branches dropped because a sibling subsumes them
    /// (rule UN002) or duplicates them exactly.
    pub subsumed_branches: u64,
    /// OPT nodes collapsed to AND because a FILTER forces a variable
    /// only the optional side certainly binds (rule BD001).
    pub opt_collapses: u64,
}

impl PruneObs {
    /// Total certified prunes across all three rules.
    pub fn total(&self) -> u64 {
        self.unsat_filters + self.subsumed_branches + self.opt_collapses
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &PruneObs) {
        self.unsat_filters += other.unsat_filters;
        self.subsumed_branches += other.subsumed_branches;
        self.opt_collapses += other.opt_collapses;
    }
}

/// One worker's contribution to one parallel map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index within its map.
    pub worker: usize,
    /// Wall time spent in the chunk loop.
    pub busy_ns: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Chunks taken from a sibling's deque.
    pub steals: u64,
}

/// Pool-level execution counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolObs {
    /// Maps that ran inline (width 1, <2 items, or nested).
    pub inline_maps: u64,
    /// Maps that spawned workers.
    pub parallel_maps: u64,
    /// Chunks dealt and executed across all parallel maps.
    pub chunks: u64,
    /// Chunks stolen across all parallel maps.
    pub steals: u64,
    /// Per-worker busy time / chunk counts, sorted by worker index.
    pub workers: Vec<WorkerStat>,
}

/// Store and query-cache counters, as folded in by `owql-store`
/// (mirrors `StoreMetrics` + `CacheStats` without depending on them —
/// this crate sits below the store in the dependency order).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreObs {
    /// Store epoch the profiled query ran at.
    pub epoch: u64,
    /// Triples visible at that epoch.
    pub triples: usize,
    /// Triples in the shared base index.
    pub base_len: usize,
    /// Overlay size (`|adds| + |dels|`).
    pub delta_len: usize,
    /// Compactions performed so far.
    pub compactions: u64,
    /// Terms in the store-wide dictionary.
    pub dict_terms: u64,
    /// Dictionary interns that found an existing id.
    pub dict_hits: u64,
    /// Dictionary interns that assigned a fresh id.
    pub dict_misses: u64,
    /// Query-cache hits.
    pub cache_hits: u64,
    /// Query-cache misses.
    pub cache_misses: u64,
    /// Query-cache LRU evictions.
    pub cache_evictions: u64,
    /// Query-cache epoch invalidations.
    pub cache_invalidations: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
}

/// Durability counters, as folded in by `owql-store` when the store
/// was opened on a data directory (mirrors the store's
/// `PersistMetrics` without depending on it — same layering argument
/// as [`StoreObs`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistObs {
    /// Bytes currently in the write-ahead log.
    pub wal_bytes: u64,
    /// Commit records currently in the write-ahead log.
    pub wal_records: u64,
    /// Newest segment generation on disk (0 = none yet).
    pub segment_generation: u64,
    /// Epoch watermark of the newest checkpoint (0 = none yet).
    pub last_checkpoint_epoch: u64,
    /// Checkpoints taken since the store opened.
    pub checkpoints: u64,
    /// WAL records replayed when the store opened.
    pub recovery_replayed_records: u64,
}

/// The unified observability snapshot. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// The profiled query's surface rendering, if the caller set one.
    pub query: Option<String>,
    /// The profiled query's answer count, if the caller set one.
    pub answers: Option<u64>,
    /// Total wall time of the top-level (root-parented) spans.
    pub total_ns: u64,
    /// Per-operator aggregates, slowest kind first.
    pub operators: Vec<OperatorTotals>,
    /// NS pruning counters.
    pub ns: NsObs,
    /// Columnar id-batch engine counters.
    pub columnar: ColumnarObs,
    /// Certified-pruning counters from the lint-driven optimizer.
    pub prunes: PruneObs,
    /// Pool-level counters and per-worker stats.
    pub pool: PoolObs,
    /// Every recorded span, in completion order.
    pub spans: Vec<Span>,
    /// Spans discarded past the buffer cap.
    pub dropped_spans: u64,
    /// Store/cache counters, when profiling through `owql-store`.
    pub store: Option<StoreObs>,
    /// Durability counters, when the store persists to a directory.
    pub persist: Option<PersistObs>,
}

impl Profile {
    /// Serializes the profile to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"profile\": \"owql-obs\",\n");
        if let Some(query) = &self.query {
            let _ = writeln!(out, "  \"query\": {},", json::string(query));
        }
        if let Some(answers) = self.answers {
            let _ = writeln!(out, "  \"answers\": {answers},");
        }
        let _ = writeln!(out, "  \"total_ms\": {},", json::ns_as_ms(self.total_ns));

        out.push_str("  \"operators\": [");
        for (i, op) in self.operators.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"op\": {}, \"count\": {}, \"rows_out\": {}, \"ms\": {}}}",
                json::string(op.kind.as_str()),
                op.count,
                op.rows_out,
                json::ns_as_ms(op.elapsed_ns)
            );
        }
        out.push_str(if self.operators.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        let _ = writeln!(
            out,
            "  \"ns\": {{\"candidates\": {}, \"survivors\": {}, \"pruned_fraction\": {}}},",
            self.ns.candidates,
            self.ns.survivors,
            json::number(self.ns.pruned_fraction())
        );

        let _ = writeln!(
            out,
            "  \"columnar\": {{\"fallbacks\": {}, \"hint_hits\": {}, \"hint_misses\": {}, \
             \"hint_hit_rate\": {}, \"decoded_rows\": {}, \"distinct_results\": {}, \
             \"dedup_skips\": {}}},",
            self.columnar.fallbacks,
            self.columnar.hint_hits,
            self.columnar.hint_misses,
            json::number(self.columnar.hint_hit_rate()),
            self.columnar.decoded_rows,
            self.columnar.distinct_results,
            self.columnar.dedup_skips
        );

        let _ = writeln!(
            out,
            "  \"prunes\": {{\"unsat_filters\": {}, \"subsumed_branches\": {}, \
             \"opt_collapses\": {}, \"total\": {}}},",
            self.prunes.unsat_filters,
            self.prunes.subsumed_branches,
            self.prunes.opt_collapses,
            self.prunes.total()
        );

        let _ = write!(
            out,
            "  \"pool\": {{\"inline_maps\": {}, \"parallel_maps\": {}, \"chunks\": {}, \
             \"steals\": {}, \"workers\": [",
            self.pool.inline_maps, self.pool.parallel_maps, self.pool.chunks, self.pool.steals
        );
        for (i, w) in self.pool.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"worker\": {}, \"busy_ms\": {}, \"chunks\": {}, \"steals\": {}}}",
                w.worker,
                json::ns_as_ms(w.busy_ns),
                w.chunks,
                w.steals
            );
        }
        out.push_str("]},\n");

        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rows_in = match s.rows_in {
                Some(n) => n.to_string(),
                None => "null".to_owned(),
            };
            let estimated = match s.estimated_rows {
                Some(n) => n.to_string(),
                None => "null".to_owned(),
            };
            let _ = write!(
                out,
                "\n    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"label\": {}, \
                 \"rows_in\": {}, \"rows_out\": {}, \"estimated_rows\": {}, \"ms\": {}}}",
                s.id.0,
                s.parent.0,
                json::string(s.kind.as_str()),
                json::string(&s.label),
                rows_in,
                s.rows_out,
                estimated,
                json::ns_as_ms(s.elapsed_ns)
            );
        }
        out.push_str(if self.spans.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(out, "  \"dropped_spans\": {},", self.dropped_spans);

        match &self.store {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  \"store\": {{\"epoch\": {}, \"triples\": {}, \"base_len\": {}, \
                     \"delta_len\": {}, \"compactions\": {}, \"dict_terms\": {}, \
                     \"dict_hits\": {}, \"dict_misses\": {}, \"cache_hits\": {}, \
                     \"cache_misses\": {}, \"cache_evictions\": {}, \
                     \"cache_invalidations\": {}, \"cache_hit_rate\": {}}},",
                    s.epoch,
                    s.triples,
                    s.base_len,
                    s.delta_len,
                    s.compactions,
                    s.dict_terms,
                    s.dict_hits,
                    s.dict_misses,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_evictions,
                    s.cache_invalidations,
                    json::number(s.cache_hit_rate)
                );
            }
            None => out.push_str("  \"store\": null,\n"),
        }
        match &self.persist {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  \"persist\": {{\"wal_bytes\": {}, \"wal_records\": {}, \
                     \"segment_generation\": {}, \"last_checkpoint_epoch\": {}, \
                     \"checkpoints\": {}, \"recovery_replayed_records\": {}}}",
                    p.wal_bytes,
                    p.wal_records,
                    p.segment_generation,
                    p.last_checkpoint_epoch,
                    p.checkpoints,
                    p.recovery_replayed_records
                );
            }
            None => out.push_str("  \"persist\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, SpanId};

    fn sample_profile() -> Profile {
        let rec = Recorder::new();
        let root = rec.begin();
        let child = rec.begin();
        let t = rec.timer();
        rec.record_span_est(
            child,
            root,
            OpKind::Scan,
            "scan \"?x\"",
            Some(5),
            3,
            Some(8),
            &t,
        );
        rec.record_span(root, SpanId::ROOT, OpKind::And, "spine", None, 3, &t);
        rec.record_ns(10, 4);
        rec.record_columnar_hints(9, 3);
        rec.record_columnar_decode(3, true);
        rec.record_columnar_dedup_skip();
        rec.record_map_parallel();
        rec.record_worker(0, 1000, 2, 1);
        let mut profile = rec.profile();
        profile.query = Some("(?x, p, ?y)".to_owned());
        profile.answers = Some(3);
        profile.store = Some(StoreObs {
            epoch: 2,
            triples: 100,
            base_len: 90,
            delta_len: 10,
            compactions: 1,
            dict_terms: 42,
            dict_hits: 5,
            dict_misses: 42,
            cache_hits: 3,
            cache_misses: 2,
            cache_evictions: 0,
            cache_invalidations: 1,
            cache_hit_rate: 0.6,
        });
        profile.persist = Some(PersistObs {
            wal_bytes: 4096,
            wal_records: 7,
            segment_generation: 3,
            last_checkpoint_epoch: 40,
            checkpoints: 3,
            recovery_replayed_records: 2,
        });
        profile
    }

    #[test]
    fn json_contains_every_section() {
        let text = sample_profile().to_json();
        for key in [
            "\"profile\"",
            "\"query\"",
            "\"answers\"",
            "\"total_ms\"",
            "\"operators\"",
            "\"ns\"",
            "\"pruned_fraction\"",
            "\"columnar\"",
            "\"hint_hit_rate\"",
            "\"prunes\"",
            "\"unsat_filters\"",
            "\"estimated_rows\"",
            "\"pool\"",
            "\"workers\"",
            "\"spans\"",
            "\"dropped_spans\"",
            "\"store\"",
            "\"cache_hit_rate\"",
            "\"persist\"",
            "\"wal_bytes\"",
            "\"segment_generation\"",
            "\"recovery_replayed_records\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        // The quote inside the span label must be escaped.
        assert!(text.contains("scan \\\"?x\\\""));
    }

    #[test]
    fn json_balances_braces_and_brackets() {
        // A cheap structural sanity check (no JSON parser available):
        // every brace/bracket outside string literals balances.
        let text = sample_profile().to_json();
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
            assert!(braces >= 0 && brackets >= 0);
        }
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
        assert!(!in_string);
    }

    #[test]
    fn empty_profile_serializes() {
        let profile = Profile::default();
        let text = profile.to_json();
        assert!(text.contains("\"operators\": [],"));
        assert!(text.contains("\"spans\": [],"));
        assert!(text.contains("\"store\": null,"));
        assert!(text.contains("\"persist\": null"));
    }
}
