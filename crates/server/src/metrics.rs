//! Server-side counters, exported by `GET /metrics`.

use owql_obs::{json, prometheus};
use owql_store::Store;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free request accounting shared by the event loop and workers.
///
/// All counters are monotonic except `in_flight` and `queue_depth`,
/// which are gauges.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted (whether admitted or shed).
    pub accepted_total: AtomicU64,
    /// Requests answered, by status class.
    pub responses_2xx: AtomicU64,
    /// `400`/`404`/`405`-class answers.
    pub responses_4xx: AtomicU64,
    /// `5xx` answers (including `504` deadline timeouts).
    pub responses_5xx: AtomicU64,
    /// Requests shed with `429`: dispatch queue full, or over the
    /// admission ceiling.
    pub shed_total: AtomicU64,
    /// Requests that exceeded their deadline (`504`s).
    pub timeouts_total: AtomicU64,
    /// Request handlers that panicked; each was answered `500` and its
    /// worker kept running.
    pub panics_total: AtomicU64,
    /// Requests currently being evaluated by workers.
    pub in_flight: AtomicU64,
    /// Requests currently waiting in the dispatch queue.
    pub queue_depth: AtomicU64,
    /// Epoll readiness events processed by the event loop.
    pub ready_events_total: AtomicU64,
    /// Connections currently registered with the event loop.
    pub connections_open: AtomicU64,
    /// Requests served beyond the first on a kept-alive connection.
    pub keepalive_reuses_total: AtomicU64,
    /// Requests that arrived pipelined behind another request on the
    /// same connection.
    pub pipelined_requests_total: AtomicU64,
    /// Responses streamed as chunked transfer-encoding.
    pub chunked_responses_total: AtomicU64,
}

impl ServerMetrics {
    /// Records a response status into the right class counter.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Serializes the counters as a JSON object fragment (no trailing
    /// comma; caller embeds it).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"accepted_total\": {}, \"responses_2xx\": {}, ",
                "\"responses_4xx\": {}, \"responses_5xx\": {}, ",
                "\"shed_total\": {}, \"timeouts_total\": {}, \"panics_total\": {}, ",
                "\"in_flight\": {}, \"queue_depth\": {}, ",
                "\"ready_events_total\": {}, \"connections_open\": {}, ",
                "\"keepalive_reuses_total\": {}, \"pipelined_requests_total\": {}, ",
                "\"chunked_responses_total\": {}}}"
            ),
            self.accepted_total.load(Ordering::Relaxed),
            self.responses_2xx.load(Ordering::Relaxed),
            self.responses_4xx.load(Ordering::Relaxed),
            self.responses_5xx.load(Ordering::Relaxed),
            self.shed_total.load(Ordering::Relaxed),
            self.timeouts_total.load(Ordering::Relaxed),
            self.panics_total.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            self.ready_events_total.load(Ordering::Relaxed),
            self.connections_open.load(Ordering::Relaxed),
            self.keepalive_reuses_total.load(Ordering::Relaxed),
            self.pipelined_requests_total.load(Ordering::Relaxed),
            self.chunked_responses_total.load(Ordering::Relaxed),
        )
    }

    /// Renders the counters in Prometheus text format (the server
    /// section of `GET /metrics`).
    pub fn render_prometheus(&self, out: &mut String) {
        prometheus::counter(
            out,
            "owql_server_accepted_total",
            "Connections accepted (admitted or shed).",
            self.accepted_total.load(Ordering::Relaxed),
        );
        prometheus::header(
            out,
            "owql_server_responses_total",
            "counter",
            "Responses by status class.",
        );
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            let _ = writeln!(
                out,
                "owql_server_responses_total{{class=\"{class}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        prometheus::counter(
            out,
            "owql_server_shed_total",
            "Requests shed with 429 (full queue or admission ceiling).",
            self.shed_total.load(Ordering::Relaxed),
        );
        prometheus::counter(
            out,
            "owql_server_timeouts_total",
            "Requests that exceeded their deadline (504).",
            self.timeouts_total.load(Ordering::Relaxed),
        );
        prometheus::counter(
            out,
            "owql_server_panics_total",
            "Request handlers that panicked (answered 500, worker kept).",
            self.panics_total.load(Ordering::Relaxed),
        );
        prometheus::gauge(
            out,
            "owql_server_in_flight",
            "Requests currently being evaluated by workers.",
            self.in_flight.load(Ordering::Relaxed) as f64,
        );
        prometheus::gauge(
            out,
            "owql_server_queue_depth",
            "Requests waiting in the dispatch queue.",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        prometheus::counter(
            out,
            "owql_server_ready_events_total",
            "Epoll readiness events processed by the event loop.",
            self.ready_events_total.load(Ordering::Relaxed),
        );
        prometheus::gauge(
            out,
            "owql_server_connections_open",
            "Connections currently registered with the event loop.",
            self.connections_open.load(Ordering::Relaxed) as f64,
        );
        prometheus::counter(
            out,
            "owql_server_keepalive_reuses_total",
            "Requests served beyond the first on a kept-alive connection.",
            self.keepalive_reuses_total.load(Ordering::Relaxed),
        );
        prometheus::counter(
            out,
            "owql_server_pipelined_requests_total",
            "Requests that arrived pipelined behind another on the same connection.",
            self.pipelined_requests_total.load(Ordering::Relaxed),
        );
        prometheus::counter(
            out,
            "owql_server_chunked_responses_total",
            "Responses streamed as chunked transfer-encoding.",
            self.chunked_responses_total.load(Ordering::Relaxed),
        );
    }
}

/// `GET /metrics?format=json`: server counters, store gauges, persist
/// counters, and the hub (latency histograms + slow-query log).
pub(crate) fn metrics_json(store: &Store, metrics: &ServerMetrics) -> String {
    let obs = store.observe();
    let persist = match store.observe_persist() {
        Some(p) => format!(
            concat!(
                "{{\"wal_bytes\": {}, \"wal_records\": {}, ",
                "\"segment_generation\": {}, \"last_checkpoint_epoch\": {}, ",
                "\"checkpoints\": {}, \"recovery_replayed_records\": {}}}"
            ),
            p.wal_bytes,
            p.wal_records,
            p.segment_generation,
            p.last_checkpoint_epoch,
            p.checkpoints,
            p.recovery_replayed_records,
        ),
        None => "null".to_owned(),
    };
    format!(
        concat!(
            "{{\"server\": {},\n",
            " \"store\": {{\"epoch\": {}, \"triples\": {}, ",
            "\"cache_hits\": {}, \"cache_misses\": {}, ",
            "\"cache_hit_rate\": {}}},\n",
            " \"persist\": {},\n",
            " \"hub\": {}}}\n"
        ),
        metrics.to_json(),
        obs.epoch,
        obs.triples,
        obs.cache_hits,
        obs.cache_misses,
        json::number(obs.cache_hit_rate),
        persist,
        store.metrics_hub().to_json(" "),
    )
}

/// `GET /metrics` (default): Prometheus text exposition — the hub's
/// histograms and counters, the server's request counters, and the
/// store's state gauges.
pub(crate) fn metrics_prometheus(store: &Store, metrics: &ServerMetrics) -> String {
    use owql_obs::prometheus;
    let mut out = String::new();
    store.metrics_hub().render_prometheus(&mut out);
    metrics.render_prometheus(&mut out);
    let obs = store.observe();
    prometheus::gauge(
        &mut out,
        "owql_store_epoch",
        "Current store epoch.",
        obs.epoch as f64,
    );
    prometheus::gauge(
        &mut out,
        "owql_store_triples",
        "Triples visible to a fresh snapshot.",
        obs.triples as f64,
    );
    prometheus::counter(
        &mut out,
        "owql_store_cache_hits_total",
        "Query-cache hits.",
        obs.cache_hits,
    );
    prometheus::counter(
        &mut out,
        "owql_store_cache_misses_total",
        "Query-cache misses.",
        obs.cache_misses,
    );
    if let Some(p) = store.observe_persist() {
        prometheus::gauge(
            &mut out,
            "owql_wal_records",
            "Commit records currently in the write-ahead log.",
            p.wal_records as f64,
        );
        prometheus::counter(
            &mut out,
            "owql_checkpoints_total",
            "Checkpoints taken since this store opened.",
            p.checkpoints,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_eval::ExecOpts;
    use owql_exec::Pool;
    use owql_parser::parse_pattern;
    use owql_store::QueryRequest;

    #[test]
    fn status_classes_route_to_counters() {
        let m = ServerMetrics::default();
        m.record_status(200);
        m.record_status(204);
        m.record_status(400);
        m.record_status(429);
        m.record_status(504);
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_5xx.load(Ordering::Relaxed), 1);
        let json = m.to_json();
        assert!(json.contains("\"responses_2xx\": 2"));
        assert!(json.contains("\"responses_5xx\": 1"));
        assert!(json.contains("\"panics_total\": 0"));
    }

    #[test]
    fn metrics_json_reports_persist_section() {
        // In-memory store: persist is explicitly null.
        let metrics = ServerMetrics::default();
        let body = metrics_json(&Store::new(), &metrics);
        assert!(body.contains("\"persist\": null"), "{body}");
        assert!(body.contains("\"hub\""), "{body}");
        assert!(body.contains("\"slow_queries\""), "{body}");

        // Durable store: the counters appear.
        let dir = std::env::temp_dir().join(format!("owql-server-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = Store::open(
            &dir,
            owql_store::StoreOptions::default(),
            owql_store::PersistConfig::default()
                .no_fsync()
                .inline_indexer(),
        )
        .expect("open durable store");
        durable.insert(owql_rdf::Triple::new("a", "p", "b"));
        let body = metrics_json(&durable, &metrics);
        for key in [
            "\"wal_bytes\"",
            "\"wal_records\": 1",
            "\"segment_generation\"",
            "\"last_checkpoint_epoch\"",
            "\"checkpoints\"",
            "\"recovery_replayed_records\"",
            "\"wal_fsync\"",
            "\"histogram_buckets\"",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
    }

    /// The golden Prometheus-format test: after `N` queries the text
    /// rendering carries every `# TYPE`/`# HELP` pair, a monotonically
    /// non-decreasing cumulative `le` series ending in `+Inf`, and
    /// `owql_query_latency_seconds_count == N`.
    #[test]
    fn metrics_prometheus_is_golden_after_n_queries() {
        let store = Store::new();
        store.insert(owql_rdf::Triple::new("a", "p", "b"));
        store.insert(owql_rdf::Triple::new("b", "p", "c"));

        const N: usize = 7;
        let request = QueryRequest::with_opts(
            parse_pattern("((?x, p, ?y) AND (?y, p, ?z))").expect("valid pattern"),
            ExecOpts::builder().cache(false).trace(true).build(),
        );
        for _ in 0..N {
            store
                .query_request(&request, &Pool::sequential())
                .expect("query answers");
        }

        let body = metrics_prometheus(&store, &ServerMetrics::default());
        assert!(
            !body.trim_start().starts_with('{'),
            "must be Prometheus text, not JSON: {body}"
        );
        for family in [
            ("owql_queries_total", "counter"),
            ("owql_query_latency_seconds", "histogram"),
            ("owql_operator_latency_seconds", "histogram"),
            ("owql_columnar_runs_total", "counter"),
            ("owql_wal_fsync_seconds", "histogram"),
            ("owql_checkpoint_seconds", "histogram"),
            ("owql_slow_queries_total", "counter"),
            ("owql_server_accepted_total", "counter"),
            ("owql_server_responses_total", "counter"),
            ("owql_server_panics_total", "counter"),
            ("owql_server_ready_events_total", "counter"),
            ("owql_server_connections_open", "gauge"),
            ("owql_server_keepalive_reuses_total", "counter"),
            ("owql_server_pipelined_requests_total", "counter"),
            ("owql_server_chunked_responses_total", "counter"),
            ("owql_store_epoch", "gauge"),
            ("owql_store_triples", "gauge"),
        ] {
            let (name, kind) = family;
            assert!(
                body.contains(&format!("# TYPE {name} {kind}")),
                "missing # TYPE {name} {kind} in:\n{body}"
            );
            assert!(
                body.contains(&format!("# HELP {name} ")),
                "missing # HELP {name} in:\n{body}"
            );
        }
        assert!(
            body.contains(&format!("owql_query_latency_seconds_count {N}")),
            "count must equal the {N} queries served:\n{body}"
        );
        assert!(body.contains("owql_store_triples 2"), "{body}");

        // Cumulative bucket counts are monotone and end at +Inf == count.
        let buckets: Vec<u64> = body
            .lines()
            .filter(|l| l.starts_with("owql_query_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!buckets.is_empty());
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "le series must be cumulative: {buckets:?}"
        );
        assert_eq!(*buckets.last().unwrap(), N as u64, "+Inf bucket == count");
        let inf_lines: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("owql_query_latency_seconds_bucket") && l.contains("+Inf"))
            .collect();
        assert_eq!(inf_lines.len(), 1, "exactly one +Inf bucket");
    }
}
