//! Server-side counters, exported by `GET /metrics`.

use owql_obs::prometheus::Family;
use owql_store::Store;
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

    /// The server's `/metrics` families.
    pub fn families(&self) -> Vec<Family> {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut responses = Family::new(
            "owql_server_responses_total",
            "counter",
            "Responses by status class.",
        );
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            responses = responses.sample(Some(("class", class.to_owned())), load(counter));
        }
        vec![
            Family::counter(
                "owql_server_accepted_total",
                "Connections accepted (admitted or shed).",
                load(&self.accepted_total),
            ),
            responses,
            Family::counter(
                "owql_server_shed_total",
                "Requests shed with 429 (full queue or admission ceiling).",
                load(&self.shed_total),
            ),
            Family::counter(
                "owql_server_timeouts_total",
                "Requests that exceeded their deadline (504).",
                load(&self.timeouts_total),
            ),
            Family::counter(
                "owql_server_panics_total",
                "Request handlers that panicked (answered 500, worker kept).",
                load(&self.panics_total),
            ),
            Family::gauge(
                "owql_server_in_flight",
                "Requests currently being evaluated by workers.",
                load(&self.in_flight),
            ),
            Family::gauge(
                "owql_server_queue_depth",
                "Requests waiting in the dispatch queue.",
                load(&self.queue_depth),
            ),
            Family::counter(
                "owql_server_ready_events_total",
                "Epoll readiness events processed by the event loop.",
                load(&self.ready_events_total),
            ),
            Family::gauge(
                "owql_server_connections_open",
                "Connections currently registered with the event loop.",
                load(&self.connections_open),
            ),
            Family::counter(
                "owql_server_keepalive_reuses_total",
                "Requests served beyond the first on a kept-alive connection.",
                load(&self.keepalive_reuses_total),
            ),
            Family::counter(
                "owql_server_pipelined_requests_total",
                "Requests that arrived pipelined behind another on the same connection.",
                load(&self.pipelined_requests_total),
            ),
            Family::counter(
                "owql_server_chunked_responses_total",
                "Responses streamed as chunked transfer-encoding.",
                load(&self.chunked_responses_total),
            ),
        ]
    }
}

/// Everything `GET /metrics` exports, in render order: the store's hub
/// (latency histograms and prune counters), the server's
/// request counters, then the store's state gauges. Both renderings —
/// Prometheus text and `?format=json` — walk this one list.
pub(crate) fn families(store: &Store, metrics: &ServerMetrics) -> Vec<Family> {
    let state = store.metrics();
    let mut families = store.metrics_hub().families(state.cache.hits);
    families.extend(metrics.families());
    families.extend(state.families());
    families
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_eval::ExecOpts;
    use owql_exec::Pool;
    use owql_obs::prometheus;
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
        let json = prometheus::to_json(&m.families(), &[]);
        assert!(json.contains("{\"labels\": {\"class\": \"2xx\"}, \"value\": 2}"));
        assert!(json.contains("{\"labels\": {\"class\": \"5xx\"}, \"value\": 1}"));
        assert!(json.contains("\"owql_server_panics_total\": {\"type\": \"counter\""));
    }

    #[test]
    fn metrics_json_reports_persist_section() {
        // In-memory store: no durability families.
        let metrics = ServerMetrics::default();
        let body = prometheus::to_json(&families(&Store::new(), &metrics), &[]);
        assert!(!body.contains("\"owql_wal_records\""), "{body}");
        assert!(body.contains("\"owql_store_epoch\""), "{body}");

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
        let body = prometheus::to_json(&families(&durable, &metrics), &[]);
        for key in [
            "\"owql_wal_records\": {\"type\": \"gauge\"",
            "{\"labels\": {}, \"value\": 1}",
            "\"owql_checkpoints_total\"",
            "\"owql_wal_fsync_seconds\"",
            "\"buckets\": [{\"le\": ",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
    }

    /// The golden Prometheus-format test: after `N` queries the text
    /// rendering carries a monotonically non-decreasing cumulative `le`
    /// series ending in `+Inf`, and `owql_query_latency_seconds_count ==
    /// N`. (The full family set is pinned, over a durable server, by
    /// `tests/integration_server.rs`.)
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

        let body = prometheus::to_text(&families(&store, &ServerMetrics::default()));
        assert!(
            !body.trim_start().starts_with('{'),
            "must be Prometheus text, not JSON: {body}"
        );
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
