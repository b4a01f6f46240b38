//! End-to-end tests driving the query server over real TCP sockets:
//! epoch-consistent answers under churn writes, deadline `504`s that
//! leave the worker pool healthy, queue-full `429` shedding that
//! preserves keep-alive, HTTP/1.1 pipelining with in-order responses
//! (bounded per connection), chunked transfer-encoding for large
//! result sets, the `/v1` JSON surface and its one error envelope, and
//! graceful shutdown draining in-flight requests.

use owql_rdf::Triple;
use owql_server::json::{parse, JsonValue};
use owql_server::{decode_chunked, Server, ServerConfig};
use owql_store::Store;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Sends one request on a fresh connection (`Connection: close`) and
/// returns `(status, headers, body)`.
fn send(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let payload = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let decoded = decode_chunked(payload.as_bytes())
            .expect("complete chunked body")
            .expect("well-formed chunked body");
        String::from_utf8(decoded).expect("utf8 body")
    } else {
        payload.to_owned()
    };
    (status, head.to_owned(), payload)
}

/// The `/v1` request body for `pattern` under the JSON object `opts`.
fn envelope(opts: &str, pattern: &str) -> String {
    format!(
        "{{\"pattern\": {}, \"opts\": {opts}}}",
        owql_obs::json::string(pattern)
    )
}

/// `POST /v1/query` on a fresh connection; `(status, body)`.
fn query(addr: SocketAddr, opts: &str, pattern: &str) -> (u16, String) {
    let (status, _, body) = send(addr, "POST", "/v1/query", &envelope(opts, pattern));
    (status, body)
}

/// Asserts `body` is the error envelope carrying `code`.
fn assert_envelope(body: &str, code: &str) {
    let needle = format!("{{\"error\": {{\"code\": \"{code}\"");
    assert!(
        body.starts_with(&needle),
        "expected a {code} envelope: {body}"
    );
}

/// One keep-alive request (no `Connection: close`) as wire bytes.
fn frame(method: &str, target: &str, body: &str) -> String {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A persistent keep-alive client: writes requests without
/// `Connection: close` and parses response frames (`Content-Length`
/// or chunked) off the same socket.
struct Client {
    conn: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            conn,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, method: &str, target: &str, body: &str) {
        self.conn
            .write_all(frame(method, target, body).as_bytes())
            .expect("write request");
    }

    /// Writes one `POST /v1/query` without waiting for the answer.
    fn query(&mut self, opts: &str, pattern: &str) {
        self.send("POST", "/v1/query", &envelope(opts, pattern));
    }

    /// Reads exactly one response frame; `(status, head, body)`.
    fn read_response(&mut self) -> (u16, String, String) {
        let mut chunk = [0u8; 4096];
        loop {
            let Some(head_end) = find(&self.buf, b"\r\n\r\n") else {
                let n = self.conn.read(&mut chunk).expect("read response");
                assert!(n > 0, "connection closed mid-response");
                self.buf.extend_from_slice(&chunk[..n]);
                continue;
            };
            let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
            let lower = head.to_ascii_lowercase();
            let body_start = head_end + 4;
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .expect("status code")
                .parse()
                .expect("numeric status");
            if lower.contains("transfer-encoding: chunked") {
                match decode_chunked(&self.buf[body_start..]) {
                    Some(result) => {
                        let body = String::from_utf8(result.expect("well-formed chunked body"))
                            .expect("utf8 body");
                        // Chunked frames only end a test exchange here,
                        // so nothing pipelined follows in the buffer.
                        self.buf.clear();
                        return (status, head, body);
                    }
                    None => {
                        let n = self.conn.read(&mut chunk).expect("read response");
                        assert!(n > 0, "connection closed mid-chunk");
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                }
            } else {
                let length: usize = lower
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .expect("content-length header")
                    .trim()
                    .parse()
                    .expect("numeric content-length");
                if self.buf.len() < body_start + length {
                    let n = self.conn.read(&mut chunk).expect("read response");
                    assert!(n > 0, "connection closed mid-body");
                    self.buf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                let body =
                    String::from_utf8_lossy(&self.buf[body_start..body_start + length]).to_string();
                self.buf.drain(..body_start + length);
                return (status, head, body);
            }
        }
    }
}

/// The `opts` of a request that must reach the evaluator.
const UNCACHED: &str = r#"{"cache": false}"#;
const UNCACHED_PARALLEL: &str = r#"{"cache": false, "mode": "parallel"}"#;

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Extracts an integer field from a flat JSON response body.
fn json_u64(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\": ");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {field} in {body}"))
        + needle.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// Scrapes `GET /metrics?format=json`, parsing the whole document.
fn scrape_json(addr: SocketAddr) -> JsonValue {
    let (status, head, body) = send(addr, "GET", "/metrics?format=json", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/json"),
        "{head}"
    );
    parse(&body).unwrap_or_else(|e| panic!("invalid /metrics JSON ({e}): {body}"))
}

/// The summed value of `family`'s scalar samples in a scraped JSON
/// exposition.
fn sample_sum(doc: &JsonValue, family: &str) -> u64 {
    let Some(JsonValue::Arr(samples)) = doc.get(family).and_then(|f| f.get("samples")) else {
        panic!("no {family} family in {doc:?}");
    };
    let value = |s: &JsonValue| s.get("value").and_then(JsonValue::as_u64);
    samples
        .iter()
        .map(|s| value(s).expect("scalar sample"))
        .sum()
}

/// `sample_sum` over a fresh scrape.
fn scrape(addr: SocketAddr, family: &str) -> u64 {
    sample_sum(&scrape_json(addr), family)
}

fn seeded_store(n: usize) -> Arc<Store> {
    let store = Arc::new(Store::new());
    for i in 0..n {
        store.insert(Triple::new(&format!("s{i}"), "p", &format!("o{i}")));
    }
    store
}

#[test]
fn healthz_metrics_and_basic_query() {
    let store = seeded_store(3);
    let server = Server::start(store.clone(), ServerConfig::default()).expect("start");
    let addr = server.addr();

    let (status, _, body) = send(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert_eq!(json_u64(&body, "epoch"), store.epoch());

    let (status, body) = query(addr, "{}", "(?x, p, ?y)");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 3);
    assert!(body.contains("\"s0\""), "{body}");

    // Same request again: served from the epoch-keyed cache.
    let (_, body) = query(addr, "{}", "(?x, p, ?y)");
    assert!(body.contains("\"cache_hit\": true"), "{body}");

    // Traced parallel request carries a profile.
    let traced = r#"{"mode": "parallel", "trace": true, "cache": false}"#;
    let (status, body) = query(addr, traced, "(?x, p, ?y)");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"profile\""), "{body}");

    let (status, _, body) = send(addr, "POST", "/v1/explain", &envelope("{}", "(?x, p, ?y)"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"plan\""), "{body}");

    let doc = scrape_json(addr);
    // Every response so far was a 2xx.
    assert!(
        sample_sum(&doc, "owql_server_responses_total") >= 5,
        "{doc:?}"
    );
    assert!(sample_sum(&doc, "owql_store_cache_hits_total") >= 1);
    assert!(matches!(doc.get("slow_queries"), Some(JsonValue::Arr(_))));

    // The default rendering is Prometheus text exposition.
    let (status, head, body) = send(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    assert!(body.contains("# TYPE owql_queries_total counter"), "{body}");
    assert!(
        body.contains("# TYPE owql_query_latency_seconds histogram"),
        "{body}"
    );

    let (status, _, body) = send(addr, "GET", "/nope", "");
    assert_eq!(status, 404, "{body}");
    for target in ["/v1/healthz", "/metrics"] {
        let (status, _, body) = send(addr, "POST", target, "");
        assert_eq!(status, 405, "{target}: {body}");
        assert_envelope(&body, "method_not_allowed");
    }

    server.shutdown();
}

/// The pre-`/v1` paths are gone: each answers `404` in the envelope
/// like any unknown path, with no deprecation marker.
#[test]
fn retired_paths_answer_404_envelopes() {
    let server = Server::start(seeded_store(1), ServerConfig::default()).expect("start");
    let addr = server.addr();
    for (method, target, body) in [
        ("GET", "/healthz", ""),
        ("POST", "/query", "(?x, p, ?y)"),
        ("POST", "/explain", "(?x, p, ?y)"),
        ("POST", "/lint", "(?x, p, ?y)"),
    ] {
        let (status, head, body) = send(addr, method, target, body);
        assert_eq!(status, 404, "{target}: {body}");
        assert_envelope(&body, "not_found");
        assert!(!head.contains("Deprecation"), "{target}: {head}");
        assert!(!head.contains("Link:"), "{target}: {head}");
    }
    server.shutdown();
}

#[test]
fn v1_surface_speaks_json_envelopes() {
    let store = seeded_store(5);
    // Exercise the pool's parallel path end-to-end too.
    let config = ServerConfig::builder().workers(2).pool_threads(2).build();
    let server = Server::start(store, config).expect("start");
    let addr = server.addr();

    // Readiness probe: the server is ready when start() returns.
    let (status, _, body) = send(addr, "GET", "/v1/healthz?ready=1", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\": true"), "{body}");

    // Query with options in the JSON body, over the pool's parallel path.
    let (status, _, body) = send(
        addr,
        "POST",
        "/v1/query",
        r#"{"pattern": "(?x, p, ?y)", "opts": {"mode": "parallel", "cache": false}}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 5);

    // Parse failures answer the unified envelope with a span.
    let (status, _, body) = send(addr, "POST", "/v1/query", r#"{"pattern": "(?x, p"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\": \"parse_error\""), "{body}");
    assert!(body.contains("\"span\""), "{body}");

    // Malformed JSON is bad_request.
    let (status, _, body) = send(addr, "POST", "/v1/query", "not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\": \"bad_request\""), "{body}");

    // Explain and lint ride the same envelope; an optimized explain is
    // one JSON document carrying the plan that runs and its prunes.
    let body = envelope(r#"{"optimize": true}"#, "((?x, p, ?y) UNION (?x, p, ?y))");
    let (status, _, body) = send(addr, "POST", "/v1/explain", &body);
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap_or_else(|e| panic!("invalid explain JSON ({e}): {body}"));
    assert_eq!(doc.get("answers").and_then(JsonValue::as_u64), Some(5));
    assert!(doc.get("plan").and_then(JsonValue::as_str).is_some());
    let optimized = doc.get("optimized").and_then(JsonValue::as_str);
    assert_eq!(optimized, Some("(?x, p, ?y)"), "{body}");
    for (key, count) in [("subsumed_branches", 1), ("unsat_filters", 0), ("total", 1)] {
        let value = doc.get("prunes").and_then(|p| p.get(key));
        assert_eq!(
            value.and_then(JsonValue::as_u64),
            Some(count),
            "{key}: {body}"
        );
    }
    let (status, _, body) = send(
        addr,
        "POST",
        "/v1/lint",
        r#"{"pattern": "((?X, a, C) AND ((?Y, a, C) OPT (?Y, b, ?X)))"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"well_designed\": \"violated\""), "{body}");

    // Unknown endpoints under /v1 are enveloped 404s.
    let (status, _, body) = send(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\": \"not_found\""), "{body}");

    server.shutdown();
}

/// The golden exposition test: a durable store with parallel traffic
/// exposes exactly today's family set, in order, one header each, and
/// the JSON rendering carries every text family under its name with the
/// same type (plus `"slow_queries"`).
#[test]
fn both_metrics_renderings_walk_one_family_list() {
    let dir = std::env::temp_dir().join(format!("owql-golden-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = owql_store::PersistConfig::default()
        .no_fsync()
        .inline_indexer();
    let store = Store::open(&dir, owql_store::StoreOptions::default(), persist).expect("open");
    for i in 0..6 {
        store.insert(Triple::new(&format!("s{i}"), "p", &format!("o{i}")));
    }
    store.checkpoint().expect("checkpoint");
    let config = ServerConfig::builder().workers(2).pool_threads(2).build();
    let server = Server::start(Arc::new(store), config).expect("start");
    let addr = server.addr();
    let traced = r#"{"mode": "parallel", "cache": false, "trace": true, "slow_ms": 0}"#;
    for pattern in ["(?x, p, ?y)", "((?x, p, ?y) UNION (?x, q, ?y))"] {
        assert_eq!(query(addr, traced, pattern).0, 200);
    }

    let (_, _, text) = send(addr, "GET", "/metrics", "");
    let types: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    let expected = [
        ("owql_queries_total", "counter"),
        ("owql_query_latency_seconds", "histogram"),
        ("owql_operator_latency_seconds", "histogram"),
        ("owql_columnar_runs_total", "counter"),
        ("owql_wal_fsync_seconds", "histogram"),
        ("owql_checkpoint_seconds", "histogram"),
        ("owql_slow_queries_total", "counter"),
        ("owql_lint_prunes_total", "counter"),
        ("owql_server_accepted_total", "counter"),
        ("owql_server_responses_total", "counter"),
        ("owql_server_shed_total", "counter"),
        ("owql_server_timeouts_total", "counter"),
        ("owql_server_panics_total", "counter"),
        ("owql_server_in_flight", "gauge"),
        ("owql_server_queue_depth", "gauge"),
        ("owql_server_ready_events_total", "counter"),
        ("owql_server_connections_open", "gauge"),
        ("owql_server_keepalive_reuses_total", "counter"),
        ("owql_server_pipelined_requests_total", "counter"),
        ("owql_server_chunked_responses_total", "counter"),
        ("owql_store_epoch", "gauge"),
        ("owql_store_triples", "gauge"),
        ("owql_store_index_bytes", "gauge"),
        ("owql_store_cache_hits_total", "counter"),
        ("owql_store_cache_misses_total", "counter"),
        ("owql_wal_records", "gauge"),
        ("owql_checkpoints_total", "counter"),
    ];
    assert_eq!(types, expected, "{text}");
    assert_eq!(text.matches("# HELP ").count(), expected.len(), "{text}");

    let doc = scrape_json(addr);
    let JsonValue::Obj(members) = &doc else {
        panic!("/metrics JSON is not an object: {doc:?}");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(keys, [names, vec!["slow_queries"]].concat());
    for (name, kind) in expected {
        let family = doc.get(name).and_then(|f| f.get("type"));
        assert_eq!(family.and_then(JsonValue::as_str), Some(kind), "{name}");
    }
    assert!(sample_sum(&doc, "owql_checkpoints_total") >= 1);
    assert!(sample_sum(&doc, "owql_columnar_runs_total") >= 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_answer_in_order_on_one_socket() {
    let store = seeded_store(4);
    let server = Server::start(store, ServerConfig::default()).expect("start");
    let addr = server.addr();

    // Three requests written back-to-back before reading anything.
    let mut client = Client::connect(addr);
    for i in 0..3 {
        client.query(UNCACHED, &format!("(s{i}, p, ?y)"));
    }
    for i in 0..3 {
        let (status, head, body) = client.read_response();
        assert_eq!(status, 200, "{body}");
        assert!(
            head.contains("Connection: keep-alive"),
            "pipelined responses keep the socket alive: {head}"
        );
        assert!(
            body.contains(&format!("\"o{i}\"")),
            "response {i} out of order: {body}"
        );
    }

    // A fourth request on the same socket still answers.
    client.query(UNCACHED, "(s3, p, ?y)");
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"o3\""), "{body}");

    let doc = scrape_json(addr);
    assert!(sample_sum(&doc, "owql_server_pipelined_requests_total") >= 1);
    assert!(sample_sum(&doc, "owql_server_keepalive_reuses_total") >= 3);

    server.shutdown();
}

#[test]
fn large_result_sets_stream_chunked_and_decode() {
    let store = seeded_store(1200);
    let server = Server::start(store, ServerConfig::default()).expect("start");
    let addr = server.addr();

    let mut client = Client::connect(addr);
    client.query(UNCACHED, "(?x, p, ?y)");
    let (status, head, body) = client.read_response();
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "large bodies must stream chunked: {head}"
    );
    assert!(
        !head.to_ascii_lowercase().contains("content-length"),
        "{head}"
    );
    assert_eq!(json_u64(&body, "count"), 1200);
    assert!(
        body.len() > 16 * 1024,
        "body should exceed the chunk threshold"
    );

    // The socket survives a chunked exchange.
    client.send("GET", "/v1/healthz", "");
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");

    assert!(scrape(addr, "owql_server_chunked_responses_total") >= 1);

    server.shutdown();
}

#[test]
fn parse_errors_echo_byte_offsets() {
    let server = Server::start(seeded_store(1), ServerConfig::default()).expect("start");
    let addr = server.addr();

    let (status, body) = query(addr, "{}", "(?x, p");
    assert_eq!(status, 400, "{body}");
    assert_envelope(&body, "parse_error");
    assert!(body.contains("parse error at byte"), "{body}");

    let (status, _, body) = send(addr, "POST", "/v1/query", "");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("empty request body"), "{body}");

    let (status, body) = query(addr, r#"{"mode": "sideways"}"#, "(?x, p, ?y)");
    assert_eq!(status, 400, "{body}");
    assert_envelope(&body, "bad_request");
    assert!(body.contains("\\\"mode\\\" must be"), "{body}");

    server.shutdown();
}

#[test]
fn admission_ceiling_sheds_over_class_queries_with_diagnostic_body() {
    let server = Server::start(
        seeded_store(3),
        ServerConfig {
            admission_ceiling: Some(owql_lint::ComplexityClass::Np),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // A PSPACE-complete pattern (non-well-designed OPT) is refused up
    // front with a machine-readable diagnostic, never evaluated.
    let (status, body) = query(addr, "{}", "((?X, a, b) AND ((?Y, a, b) OPT (?Y, c, ?X)))");
    assert_eq!(status, 429, "{body}");
    assert_envelope(&body, "admission_denied");
    assert!(body.contains("\"rule\": \"AD001\""), "{body}");
    assert!(body.contains("\"severity\": \"error\""), "{body}");
    assert!(body.contains("above the configured NP ceiling"), "{body}");

    // The same query is also refused on the cached and parallel paths.
    let (status, _) = query(
        addr,
        r#"{"mode": "parallel"}"#,
        "((?X, a, b) AND ((?Y, a, b) OPT (?Y, c, ?X)))",
    );
    assert_eq!(status, 429);

    // Queries inside the admitted fragment still answer normally.
    let (status, body) = query(addr, "{}", "(?x, p, ?y)");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 3);

    // A request may tighten the ceiling further but not relax it.
    let (status, body) = query(
        addr,
        r#"{"max_class": "p", "cache": false}"#,
        "((?x, p, ?y) UNION (?x, q, ?y))",
    );
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("AD001"), "{body}");
    let (status, _) = query(
        addr,
        r#"{"max_class": "pspace"}"#,
        "((?X, a, b) AND ((?Y, a, b) OPT (?Y, c, ?X)))",
    );
    assert_eq!(status, 429);

    assert!(scrape(addr, "owql_server_shed_total") >= 4);

    server.shutdown();
}

#[test]
fn lint_endpoint_classifies_and_reports_line_column_spans() {
    let server = Server::start(seeded_store(1), ServerConfig::default()).expect("start");
    let addr = server.addr();

    let lint = |pattern: &str| {
        let (status, _, body) = send(addr, "POST", "/v1/lint", &envelope("{}", pattern));
        (status, body)
    };
    let (status, body) = lint("((?X, a, Chile) AND\n ((?Y, a, Chile) OPT (?Y, b, ?X)))");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"fragment\": \"SPARQL\""), "{body}");
    assert!(body.contains("\"complexity\": \"PSPACE\""), "{body}");
    assert!(body.contains("\"well_designed\": \"violated\""), "{body}");
    assert!(body.contains("\"rule\": \"WD001\""), "{body}");
    // The offending OPT subtree sits on the second line of the pattern.
    assert!(body.contains("\"line\": 2"), "{body}");

    // Parse errors surface line:column alongside the byte offset, in
    // the message and as the envelope's span.
    let (status, body) = lint("((?x, p, ?y) AND\n (?y, q");
    assert_eq!(status, 400, "{body}");
    assert_envelope(&body, "parse_error");
    assert!(body.contains("parse error at byte"), "{body}");
    assert!(body.contains("line 2"), "{body}");
    assert!(body.contains("\"span\": {\"offset\": "), "{body}");

    server.shutdown();
}

#[test]
fn deadline_exceeded_maps_to_504_without_poisoning_workers() {
    let store = seeded_store(8);
    let server = Server::start(
        store,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // A zero deadline times out on every execution mode.
    for opts in [
        r#"{"deadline_ms": 0, "cache": false}"#,
        r#"{"deadline_ms": 0, "cache": false, "mode": "parallel"}"#,
        r#"{"deadline_ms": 0, "cache": false, "trace": true}"#,
    ] {
        let (status, body) = query(addr, opts, "((?x, p, ?y) AND (?y, q, ?z))");
        assert_eq!(status, 504, "{opts}: {body}");
        assert_envelope(&body, "timeout");
        assert!(body.contains("deadline"), "{body}");
    }

    // Workers survive: the very next requests answer normally on both
    // modes, and more requests than workers all succeed.
    for _ in 0..4 {
        let (status, body) = query(addr, UNCACHED, "(?x, p, ?y)");
        assert_eq!(status, 200, "{body}");
        assert_eq!(json_u64(&body, "count"), 8);
        let (status, body) = query(addr, UNCACHED_PARALLEL, "(?x, p, ?y)");
        assert_eq!(status, 200, "{body}");
        assert_eq!(json_u64(&body, "count"), 8);
    }

    assert!(scrape(addr, "owql_server_timeouts_total") >= 3);

    server.shutdown();
}

/// `POST /v1/explain` runs through the same entry point as
/// `/v1/query`, so a request deadline bounds it: `"deadline_ms": 0` is
/// a `504` timeout envelope, and the worker answers the next explain.
#[test]
fn explain_honors_the_request_deadline() {
    let server = Server::start(seeded_store(8), ServerConfig::default()).expect("start");
    let addr = server.addr();
    let explain = |opts: &str| {
        let body = envelope(opts, "((?x, p, ?y) AND (?y, q, ?z))");
        let (status, _, body) = send(addr, "POST", "/v1/explain", &body);
        (status, body)
    };
    for opts in [
        r#"{"deadline_ms": 0}"#,
        r#"{"deadline_ms": 0, "mode": "parallel"}"#,
    ] {
        let (status, body) = explain(opts);
        assert_eq!(status, 504, "{opts}: {body}");
        assert_envelope(&body, "timeout");
        assert!(body.contains("deadline"), "{body}");
    }
    let (status, body) = explain("{}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"plan\""), "{body}");
    assert!(scrape(addr, "owql_server_timeouts_total") >= 2);
    server.shutdown();
}

/// `POST /v1/explain` is admitted like `/v1/query`: under an NP
/// ceiling an over-class pattern is a `429 admission_denied` with the
/// AD001 diagnostic, never evaluated.
#[test]
fn explain_honors_the_admission_ceiling() {
    let config = ServerConfig::builder()
        .admission_ceiling(Some(owql_lint::ComplexityClass::Np))
        .build();
    let server = Server::start(seeded_store(3), config).expect("start");
    let addr = server.addr();
    let body = envelope("{}", "NS(((?x, p, ?y) OPT (?y, p, ?z)))");
    let (status, _, body) = send(addr, "POST", "/v1/explain", &body);
    assert_eq!(status, 429, "{body}");
    assert_envelope(&body, "admission_denied");
    assert!(body.contains("\"rule\": \"AD001\""), "{body}");
    assert!(body.contains("above the configured NP ceiling"), "{body}");
    assert!(scrape(addr, "owql_server_shed_total") >= 1);

    let body = envelope("{}", "(?x, p, ?y)");
    let (status, _, body) = send(addr, "POST", "/v1/explain", &body);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_429_and_the_connection_survives() {
    let server = Server::start(
        seeded_store(400),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // Occupy the single worker with a deadline-bound heavy query (the
    // cross join would run far past 600ms; the cooperative budget cuts
    // it off), then fill the one queue slot the same way.
    let heavy = "((?a, p, ?b) AND ((?c, p, ?d) AND (?e, p, ?f)))";
    let heavy_opts = r#"{"cache": false, "deadline_ms": 600}"#;
    let mut hold_worker = Client::connect(addr);
    hold_worker.query(heavy_opts, heavy);
    std::thread::sleep(Duration::from_millis(100));
    let mut hold_queue = Client::connect(addr);
    hold_queue.query(heavy_opts, heavy);
    std::thread::sleep(Duration::from_millis(100));

    // Now the queue is full: this request is shed with 429 — and the
    // connection stays open.
    let mut probe = Client::connect(addr);
    probe.query("{}", "(?x, p, ?y)");
    let (status, head, body) = probe.read_response();
    assert_eq!(status, 429, "{body}");
    assert_envelope(&body, "shed");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(
        head.contains("Connection: keep-alive"),
        "a shed must not cost the connection: {head}"
    );

    // The held requests finish as 504s.
    let (status, _, _) = hold_worker.read_response();
    assert_eq!(status, 504);
    let (status, _, _) = hold_queue.read_response();
    assert_eq!(status, 504);

    // The same socket that was shed now answers normally.
    probe.query("{}", "(?x, p, ?y)");
    let (status, _, body) = probe.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 400);

    assert!(scrape(addr, "owql_server_shed_total") >= 1);

    server.shutdown();
}

#[test]
fn concurrent_queries_under_churn_are_epoch_consistent() {
    let base = 16;
    let store = seeded_store(base);
    let base_epoch = store.epoch();
    let server = Server::start(
        store.clone(),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();

    // Churn writer: one new matching triple per commit, so the visible
    // answer count at epoch E is exactly base + (E - base_epoch).
    let writer_store = store.clone();
    let writer = std::thread::spawn(move || {
        for i in 0..64u32 {
            writer_store.insert(Triple::new(&format!("w{i}"), "p", &format!("wo{i}")));
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let readers: Vec<_> = (0..4)
        .map(|r| {
            std::thread::spawn(move || {
                for i in 0..24 {
                    let opts = match (r + i) % 3 {
                        0 => UNCACHED,
                        1 => UNCACHED_PARALLEL,
                        _ => "{}", // cached path is epoch-keyed too
                    };
                    let (status, body) = query(addr, opts, "(?x, p, ?y)");
                    assert_eq!(status, 200, "{body}");
                    let epoch = json_u64(&body, "epoch");
                    let count = json_u64(&body, "count");
                    assert_eq!(
                        count,
                        base as u64 + (epoch - base_epoch),
                        "answer count must match the reported epoch: {body}"
                    );
                }
            })
        })
        .collect();

    for r in readers {
        r.join().expect("reader panicked");
    }
    writer.join().expect("writer panicked");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = Server::start(seeded_store(4), ServerConfig::default()).expect("start");
    let addr = server.addr();

    // This client is admitted, then stalls before sending its request.
    // Shutdown must wait for it rather than cutting the connection.
    let slow_client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(300));
        let body = envelope("{}", "(?x, p, ?y)");
        write!(
            conn,
            "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read");
        response
    });

    std::thread::sleep(Duration::from_millis(100));
    server.shutdown(); // returns only after the in-flight request drains

    let response = slow_client.join().expect("client panicked");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"count\": 4"), "{response}");
    // Drain mode forces the response onto a closing connection.
    assert!(response.contains("Connection: close"), "{response}");

    // The listener is gone afterwards.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err()
            || TcpStream::connect(addr)
                .and_then(|mut c| {
                    let mut buf = [0u8; 1];
                    c.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")?;
                    let n = c.read(&mut buf)?;
                    Ok(n == 0)
                })
                .unwrap_or(true),
        "server still answering after shutdown"
    );
}

/// `workers: 0` is not a second server: it is clamped to one worker,
/// which serves a pipelined connection in order and joins on shutdown.
#[test]
fn zero_workers_is_clamped_to_one_worker() {
    let config = ServerConfig::builder().workers(0).queue_capacity(4).build();
    let server = Server::start(seeded_store(4), config).expect("start");

    let mut client = Client::connect(server.addr());
    for i in 0..3 {
        client.query(UNCACHED, &format!("(s{i}, p, ?y)"));
    }
    for i in 0..3 {
        let (status, head, body) = client.read_response();
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(
            body.contains(&format!("\"o{i}\"")),
            "response {i} out of order: {body}"
        );
    }

    server.shutdown();
}

/// Pipelining is bounded per connection — the loop stops parsing and
/// reading a socket once 32 requests are queued behind the one in
/// flight — and the bound must not stall or reorder anything: 5,000
/// requests written before the first read are all answered, in order,
/// and the connection keeps serving afterwards.
#[test]
fn deep_pipelines_are_bounded_answered_in_order_and_survive() {
    const DEPTH: usize = 5_000;
    const SUBJECTS: usize = 50;
    let server = Server::start(seeded_store(SUBJECTS), ServerConfig::default()).expect("start");

    let mut client = Client::connect(server.addr());
    let requests: String = (0..DEPTH)
        .map(|i| envelope("{}", &format!("(s{}, p, ?y)", i % SUBJECTS)))
        .map(|body| frame("POST", "/v1/query", &body))
        .collect();
    // One blocking write of the whole pipeline: it only returns once
    // the server has drained the socket far enough, i.e. kept serving
    // while not reading.
    client
        .conn
        .write_all(requests.as_bytes())
        .expect("write pipeline");
    for i in 0..DEPTH {
        let (status, head, body) = client.read_response();
        assert_eq!(status, 200, "response {i}: {body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(
            body.contains(&format!("\"o{}\"", i % SUBJECTS)),
            "response {i} out of order: {body}"
        );
    }

    client.query("{}", "(?x, p, ?y)");
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), SUBJECTS as u64);

    server.shutdown();
}

/// Fully ground patterns round-trip over a real socket: a matching one
/// answers `[{}]` (the empty mapping — this used to panic the renderer
/// and kill the worker), a non-matching one `[]`, and the same
/// keep-alive connection keeps answering. One worker, so a dead worker
/// would hang the follow-ups.
#[test]
fn ground_patterns_render_and_the_connection_survives() {
    let store = seeded_store(3);
    let config = ServerConfig::builder().workers(1).build();
    let server = Server::start(store, config).expect("start");
    let mut client = Client::connect(server.addr());

    client.send("POST", "/v1/query", r#"{"pattern": "(s0, p, o0)"}"#);
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 1);
    assert!(body.contains("\"mappings\": [{}]"), "{body}");

    client.send("POST", "/v1/query", r#"{"pattern": "(s0, p, o1)"}"#);
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 0);
    assert!(body.contains("\"mappings\": []"), "{body}");

    // `µ∅` beside a binding in one answer set.
    client.send(
        "POST",
        "/v1/query",
        r#"{"pattern": "((s0, p, o0) UNION (?x, p, o1))"}"#,
    );
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""mappings": [{"x": "s1"}, {}]"#), "{body}");

    client.send("POST", "/v1/query", r#"{"pattern": "(?x, p, ?y)"}"#);
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 3);

    server.shutdown();
}

/// A pattern over the evaluator's 64-variable limit is a `400` in the
/// unified envelope on `/v1/query` and `/v1/explain`, and the single
/// worker answers the next request.
#[test]
fn over_wide_patterns_answer_400_and_leave_the_worker_alive() {
    let store = seeded_store(3);
    let config = ServerConfig::builder().workers(1).build();
    let server = Server::start(store, config).expect("start");
    let addr = server.addr();
    let mut client = Client::connect(addr);

    let triples: Vec<String> = (0..65).map(|i| format!("(?w{i}, p, o0)")).collect();
    let wide = triples
        .iter()
        .skip(1)
        .fold(triples[0].clone(), |acc, t| format!("({acc} UNION {t})"));
    let envelope = format!(r#"{{"pattern": "{wide}"}}"#);

    for target in ["/v1/query", "/v1/explain"] {
        client.send("POST", target, &envelope);
        let (status, _, body) = client.read_response();
        assert_eq!(status, 400, "{target}: {body}");
        assert!(body.contains("\"code\": \"bad_request\""), "{body}");
        assert!(body.contains("65 distinct variables"), "{body}");
    }
    client.send("POST", "/v1/query", r#"{"pattern": "(?x, p, ?y)"}"#);
    let (status, _, body) = client.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), 3);

    // The retired evaluator switch is an unknown option like any other.
    client.send(
        "POST",
        "/v1/query",
        r#"{"pattern": "(?x, p, ?y)", "opts": {"columnar": true}}"#,
    );
    let (status, _, body) = client.read_response();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown option 'columnar'"), "{body}");

    server.shutdown();
}
