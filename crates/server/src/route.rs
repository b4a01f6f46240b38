//! Routing: the five endpoints, the `/v1` body and option parser, and
//! the mapping from evaluation outcomes to replies.

use crate::config::ServerConfig;
use crate::http::Request;
use crate::json as reqjson;
use crate::metrics::{families, ServerMetrics};
use crate::render::{explain_body, query_success_body_memo};
use crate::reply::{ApiError, Reply};
use owql_eval::{EvalError, ExecMode, ExecOpts};
use owql_exec::Pool;
use owql_obs::prometheus;
use owql_parser::{parse_pattern, Span};
use owql_store::{QueryRequest, Store};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Dispatches one parsed request to its endpoint.
///
/// `ready` gates `/v1/healthz?ready=1` — it is `true` once segments
/// are recovered and the server is wired, and drops back to `false`
/// while draining for shutdown.
pub(crate) fn route(
    req: &Request,
    store: &Store,
    pool: &Pool,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    ready: bool,
) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => v1_healthz(req, store, ready),
        ("POST", "/v1/query") => v1_query(req, store, pool, config, metrics),
        ("POST", "/v1/explain") => v1_explain(req, store, pool, config, metrics),
        ("POST", "/v1/lint") => v1_lint(req),
        ("GET", "/metrics") => {
            let families = families(store, metrics);
            if metrics_wants_json(req) {
                let slow = store.metrics_hub().slow_queries_json();
                let body = prometheus::to_json(&families, &[("slow_queries", slow)]);
                Reply::json(200, body)
            } else {
                Reply::text(200, prometheus::to_text(&families))
            }
        }
        (_, "/v1/healthz" | "/v1/query" | "/v1/explain" | "/v1/lint" | "/metrics") => {
            ApiError::new(
                405,
                "method_not_allowed",
                "method not allowed for this endpoint",
            )
            .reply()
        }
        _ => ApiError::new(404, "not_found", "no such endpoint").reply(),
    }
}

/// `GET /v1/healthz`: liveness always answers; `?ready=1` makes it a
/// readiness probe that fails `503` until the server can actually
/// serve queries (segments recovered, server wired) and while
/// draining.
fn v1_healthz(req: &Request, store: &Store, ready: bool) -> Reply {
    let wants_ready = req
        .query_params()
        .any(|(key, value)| key == "ready" && (value == "1" || value == "true"));
    if wants_ready && !ready {
        return ApiError::new(503, "not_ready", "server is not ready to serve queries").reply();
    }
    Reply::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"ready\": {ready}, \"epoch\": {}}}\n",
            store.epoch()
        ),
    )
}

/// `POST /v1/query`: JSON envelope in, mappings (and optionally a
/// profile) out; errors in the unified envelope.
fn v1_query(
    req: &Request,
    store: &Store,
    pool: &Pool,
    config: &ServerConfig,
    metrics: &ServerMetrics,
) -> Reply {
    let (pattern, opts) = match v1_parse_input(req, config) {
        Ok(parsed) => parsed,
        Err(e) => return e.reply(),
    };
    let request = QueryRequest::with_opts(pattern, opts);
    match store.query_request(&request, pool) {
        Ok(outcome) => Reply::json(200, query_success_body_memo(req, &outcome)),
        Err(e) => eval_error_reply(e, &request, metrics),
    }
}

/// `POST /v1/explain`: JSON envelope in, EXPLAIN ANALYZE out. The
/// request runs through the same store entry point as `/v1/query` —
/// deadline, admission ceiling, optimizer, pool — traced and
/// uncached; the body reports the plan that ran, annotated with what
/// the run observed. Errors answer the `/v1/query` envelopes.
fn v1_explain(
    req: &Request,
    store: &Store,
    pool: &Pool,
    config: &ServerConfig,
    metrics: &ServerMetrics,
) -> Reply {
    let (pattern, opts) = match v1_parse_input(req, config) {
        Ok(parsed) => parsed,
        Err(e) => return e.reply(),
    };
    let request = QueryRequest::with_opts(pattern, opts.traced().uncached());
    match store.query_request(&request, pool) {
        Ok(outcome) => Reply::json(200, explain_body(&outcome, opts.optimize)),
        Err(e) => eval_error_reply(e, &request, metrics),
    }
}

/// The error envelope of a failed evaluation, shared by `/v1/query`
/// and `/v1/explain`.
fn eval_error_reply(e: EvalError, request: &QueryRequest, metrics: &ServerMetrics) -> Reply {
    match e {
        e @ EvalError::Timeout { .. } => {
            metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
            ApiError::new(504, "timeout", e.to_string()).reply()
        }
        // Admission shed: no Retry-After — retrying the same query
        // cannot succeed. The machine-readable AD001 diagnostic rides
        // as a sibling of the envelope.
        e @ EvalError::AdmissionDenied { .. } => {
            metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            let text = request.pattern.to_string();
            let diagnostic = owql_lint::Diagnostic::new(
                owql_lint::RuleId::AdmissionDenied,
                Span::new(0, text.len()),
                e.to_string(),
            );
            ApiError::new(429, "admission_denied", e.to_string())
                .with_span(0, 1, 1)
                .with_diagnostic(diagnostic.to_json(&text))
                .reply()
        }
        e @ EvalError::TooManyVariables { .. } => ApiError::bad_request(e.to_string()).reply(),
        #[allow(unreachable_patterns)] // EvalError is #[non_exhaustive]
        e => ApiError::new(500, "internal", e.to_string()).reply(),
    }
}

/// `POST /v1/lint`: JSON envelope in, full static analysis out.
fn v1_lint(req: &Request) -> Reply {
    let doc = match v1_body(req) {
        Ok(doc) => doc,
        Err(e) => return e.reply(),
    };
    let text = match v1_pattern_text(&doc) {
        Ok(text) => text.trim(),
        Err(e) => return e.reply(),
    };
    if text.is_empty() {
        return ApiError::bad_request("\"pattern\" must not be empty").reply();
    }
    match owql_lint::analyze_source(text) {
        Ok(analysis) => Reply::json(200, format!("{}\n", analysis.to_json(text))),
        Err(e) => ApiError::new(400, "parse_error", e.to_string())
            .with_span(e.offset, e.line, e.column)
            .reply(),
    }
}

/// `true` iff the request asked for the JSON rendering of `/metrics`
/// (`?format=json`); the default is Prometheus text exposition.
fn metrics_wants_json(req: &Request) -> bool {
    req.query_params()
        .any(|(key, value)| key == "format" && value == "json")
}

/// Clamps a requested complexity ceiling against the configured one:
/// requests may tighten the ceiling, never relax it.
fn tighten_ceiling(
    configured: Option<owql_lint::ComplexityClass>,
    requested: owql_lint::ComplexityClass,
) -> owql_lint::ComplexityClass {
    match configured {
        Some(c) if c.rank() < requested.rank() => c,
        _ => requested,
    }
}

/// Parses the `/v1` request body `{"pattern": "...", "opts": {...}}`
/// into the pattern text and its options document.
fn v1_body(req: &Request) -> Result<reqjson::JsonValue, ApiError> {
    let text = req
        .body_utf8()
        .map_err(|e| ApiError::bad_request(e.message))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request(
            "empty request body (expected {\"pattern\": ..., \"opts\": {...}})",
        ));
    }
    reqjson::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

/// Extracts the mandatory `"pattern"` string from a parsed body.
fn v1_pattern_text(doc: &reqjson::JsonValue) -> Result<&str, ApiError> {
    doc.get("pattern")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ApiError::bad_request("body must carry a string \"pattern\""))
}

/// Parses `ExecOpts` from the `/v1` body's `"opts"` object.
fn v1_opts(opts: Option<&reqjson::JsonValue>, config: &ServerConfig) -> Result<ExecOpts, ApiError> {
    let mut builder = ExecOpts::builder()
        .deadline(config.default_deadline)
        .max_class(config.admission_ceiling)
        .slow_query(config.slow_query_threshold);
    let Some(opts) = opts else {
        return Ok(builder.build());
    };
    let reqjson::JsonValue::Obj(pairs) = opts else {
        return Err(ApiError::bad_request("\"opts\" must be an object"));
    };
    for (key, value) in pairs {
        builder = match key.as_str() {
            "mode" => builder.mode(match value.as_str() {
                Some("seq") => ExecMode::Seq,
                Some("parallel") => ExecMode::Parallel,
                _ => {
                    return Err(ApiError::bad_request(
                        "\"mode\" must be \"seq\" or \"parallel\"",
                    ))
                }
            }),
            "trace" => builder.trace(v1_bool(value, "trace")?),
            "cache" => builder.cache(v1_bool(value, "cache")?),
            "optimize" => builder.optimize(v1_bool(value, "optimize")?),
            "deadline_ms" => builder.deadline_ms(Some(v1_u64(value, "deadline_ms")?)),
            "slow_ms" => builder.slow_query(Some(Duration::from_millis(v1_u64(value, "slow_ms")?))),
            "max_class" => {
                let requested: owql_lint::ComplexityClass = value
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("\"max_class\" must be a string"))?
                    .parse()
                    .map_err(ApiError::bad_request)?;
                builder.max_class(Some(tighten_ceiling(config.admission_ceiling, requested)))
            }
            other => {
                return Err(ApiError::bad_request(format!("unknown option '{other}'")));
            }
        };
    }
    Ok(builder.build())
}

fn v1_bool(value: &reqjson::JsonValue, key: &str) -> Result<bool, ApiError> {
    value
        .as_bool()
        .ok_or_else(|| ApiError::bad_request(format!("\"{key}\" must be a boolean")))
}

fn v1_u64(value: &reqjson::JsonValue, key: &str) -> Result<u64, ApiError> {
    value
        .as_u64()
        .ok_or_else(|| ApiError::bad_request(format!("\"{key}\" must be a non-negative integer")))
}

/// Shared `/v1` body parsing for `/v1/query` and `/v1/explain`: the
/// pattern (with a `parse_error` + span envelope on failure) plus the
/// options.
fn v1_parse_input(
    req: &Request,
    config: &ServerConfig,
) -> Result<(owql_algebra::Pattern, ExecOpts), ApiError> {
    let doc = v1_body(req)?;
    let opts = v1_opts(doc.get("opts"), config)?;
    let text = v1_pattern_text(&doc)?;
    let pattern = parse_pattern(text.trim()).map_err(|e| {
        ApiError::new(400, "parse_error", e.to_string()).with_span(e.offset, e.line, e.column)
    })?;
    Ok((pattern, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::assert_envelope;

    fn get_req(target: &str) -> Request {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            ..Request::default()
        }
    }

    fn post_req(target: &str, body: &str) -> Request {
        let mut req = get_req(target);
        req.method = "POST".into();
        req.body = body.as_bytes().to_vec();
        req
    }

    /// Everything `route` takes besides the request.
    struct Fixture {
        store: Store,
        pool: Pool,
        config: ServerConfig,
        metrics: ServerMetrics,
    }

    impl Fixture {
        /// A store holding `(a, p, b)` behind the default config.
        fn new() -> Fixture {
            let store = Store::new();
            store.insert(owql_rdf::Triple::new("a", "p", "b"));
            Fixture {
                store,
                pool: Pool::sequential(),
                config: ServerConfig::default(),
                metrics: ServerMetrics::default(),
            }
        }

        fn capped_at_np() -> Fixture {
            let mut fixture = Fixture::new();
            fixture.config.admission_ceiling = Some(owql_lint::ComplexityClass::Np);
            fixture
        }

        fn route(&self, req: &Request) -> Reply {
            route(
                req,
                &self.store,
                &self.pool,
                &self.config,
                &self.metrics,
                true,
            )
        }

        fn get(&self, target: &str) -> Reply {
            self.route(&get_req(target))
        }

        fn post(&self, target: &str, body: &str) -> Reply {
            self.route(&post_req(target, body))
        }
    }

    #[test]
    fn max_class_tightens_but_never_relaxes_the_configured_ceiling() {
        use owql_lint::ComplexityClass;
        let opts = |config: &ServerConfig, json: &str| {
            v1_opts(Some(&reqjson::parse(json).expect("valid json")), config)
        };
        let open = ServerConfig::default();
        assert_eq!(v1_opts(None, &open).expect("valid").max_class, None);
        // No server ceiling: the request sets one freely.
        let set = opts(&open, r#"{"max_class": "dp"}"#).expect("valid");
        assert_eq!(set.max_class, Some(ComplexityClass::Dp));

        let capped = Fixture::capped_at_np().config;
        // Default: the configured ceiling rides along.
        let default = v1_opts(None, &capped).expect("valid");
        assert_eq!(default.max_class, Some(ComplexityClass::Np));
        // Tightening below the ceiling is honored...
        let tighter = opts(&capped, r#"{"max_class": "p"}"#).expect("valid");
        assert_eq!(tighter.max_class, Some(ComplexityClass::P));
        // ...but asking for more than the server allows is clamped.
        let looser = opts(&capped, r#"{"max_class": "pspace"}"#).expect("valid");
        assert_eq!(looser.max_class, Some(ComplexityClass::Np));
        assert!(opts(&capped, r#"{"max_class": "turing"}"#).is_err());
    }

    #[test]
    fn v1_opts_parse_and_reject_unknowns() {
        let config = ServerConfig::default();
        let doc = reqjson::parse(
            r#"{"mode": "parallel", "trace": true, "cache": false,
                "deadline_ms": 250, "slow_ms": 5}"#,
        )
        .expect("valid json");
        let opts = v1_opts(Some(&doc), &config).expect("valid");
        assert_eq!(opts.mode, ExecMode::Parallel);
        assert!(opts.trace);
        assert!(!opts.cache);
        assert_eq!(opts.deadline, Some(Duration::from_millis(250)));
        assert_eq!(opts.slow_query, Some(Duration::from_millis(5)));

        // Absent opts: sequential, cached, config deadline and
        // slow-query threshold.
        let opts = v1_opts(None, &config).expect("valid");
        assert_eq!(opts.mode, ExecMode::Seq);
        assert!(opts.cache);
        assert_eq!(opts.deadline, config.default_deadline);
        assert_eq!(opts.slow_query, config.slow_query_threshold);

        for bad in [
            r#"{"mode": "warp"}"#,
            r#"{"trace": "yes"}"#,
            r#"{"deadline_ms": -1}"#,
            r#"{"deadline_ms": 2.5}"#,
            r#"{"slow_ms": "fast"}"#,
            r#"{"bogus": 1}"#,
            r#"{"columnar": true}"#,
            r#"{"max_class": 3}"#,
        ] {
            let doc = reqjson::parse(bad).expect("valid json");
            assert!(v1_opts(Some(&doc), &config).is_err(), "{bad} should fail");
        }
        assert!(v1_opts(Some(&reqjson::JsonValue::Num(1.0)), &config).is_err());
    }

    #[test]
    fn metrics_route_picks_the_format() {
        let fixture = Fixture::new();
        let text = fixture.get("/metrics");
        assert_eq!(text.status, 200);
        assert_eq!(text.content_type, "text/plain; version=0.0.4");
        assert!(text.body.starts_with("# HELP "), "{}", text.body);
        let json = fixture.get("/metrics?format=json");
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(json.body.starts_with("{\n\"owql_"), "{}", json.body);
    }

    /// `"slow_ms": 0` forces every query into the slow-query log, which
    /// the JSON metrics rendering then exposes.
    #[test]
    fn slow_ms_zero_injects_into_the_slow_query_log() {
        let fixture = Fixture::new();
        let reply = fixture.post(
            "/v1/query",
            r#"{"pattern": "(?x, p, ?y)", "opts": {"cache": false, "slow_ms": 0}}"#,
        );
        assert_eq!(reply.status, 200);

        let reply = fixture.get("/metrics?format=json");
        assert_eq!(reply.status, 200);
        let total = "threshold.\", \"samples\": [{\"labels\": {}, \"value\": 1}]}";
        assert!(reply.body.contains(total), "{}", reply.body);
        assert!(reply.body.contains("(?x, p, ?y)"), "{}", reply.body);
        let prom = fixture.get("/metrics");
        assert!(
            prom.body.contains("owql_slow_queries_total 1"),
            "{}",
            prom.body
        );
    }

    #[test]
    fn route_rejects_unknown_paths_and_methods() {
        let fixture = Fixture::new();
        assert_envelope(&fixture.get("/nope"), 404, "not_found");
        // The pre-/v1 paths are unknown paths like any other.
        for reply in [
            fixture.get("/healthz"),
            fixture.post("/query", "(?x, p, ?y)"),
            fixture.post("/explain", "(?x, p, ?y)"),
            fixture.post("/lint", "(?x, p, ?y)"),
        ] {
            assert_envelope(&reply, 404, "not_found");
            assert!(reply.headers.is_empty(), "{:?}", reply.headers);
        }
        for target in ["/v1/healthz", "/metrics"] {
            assert_envelope(&fixture.post(target, ""), 405, "method_not_allowed");
        }
        assert_envelope(&fixture.get("/v1/lint"), 405, "method_not_allowed");
        assert!(fixture.get("/v1/healthz").headers.is_empty());
    }

    #[test]
    fn v1_healthz_readiness_gates_on_the_flag() {
        let Fixture {
            store,
            pool,
            config,
            metrics,
        } = Fixture::new();
        let healthz = |target: &str, ready: bool| {
            route(&get_req(target), &store, &pool, &config, &metrics, ready)
        };

        // Liveness always answers, reporting readiness.
        let reply = healthz("/v1/healthz", false);
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"ready\": false"), "{}", reply.body);

        // The readiness probe fails until ready.
        assert_envelope(&healthz("/v1/healthz?ready=1", false), 503, "not_ready");
        let reply = healthz("/v1/healthz?ready=1", true);
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"ready\": true"), "{}", reply.body);
    }

    #[test]
    fn v1_query_answers_and_envelopes_errors() {
        let fixture = Fixture::new();
        let reply = fixture.post("/v1/query", r#"{"pattern": "(?x, p, ?y)"}"#);
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"count\": 1"), "{}", reply.body);
        assert!(reply.body.contains("\"x\": \"a\""), "{}", reply.body);

        // Options ride in the body; trace=true yields a profile.
        let reply = fixture.post(
            "/v1/query",
            r#"{"pattern": "(?x, p, ?y)", "opts": {"trace": true, "cache": false}}"#,
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"profile\""), "{}", reply.body);

        // A pattern parse failure carries a parse_error code, the
        // parser's message and the offending span.
        let reply = fixture.post("/v1/query", r#"{"pattern": "(?x, p"}"#);
        assert_envelope(&reply, 400, "parse_error");
        assert!(reply.body.contains("parse error at byte"), "{}", reply.body);
        assert!(reply.body.contains("\"span\""), "{}", reply.body);
        assert!(reply.body.contains("\"offset\""), "{}", reply.body);

        // Malformed JSON and missing pattern are bad_request.
        for bad in ["not json", r#"{"opts": {}}"#] {
            assert_envelope(&fixture.post("/v1/query", bad), 400, "bad_request");
        }

        // The deadline path maps to a timeout envelope.
        let reply = fixture.post(
            "/v1/query",
            r#"{"pattern": "(?x, p, ?y)", "opts": {"deadline_ms": 0, "cache": false}}"#,
        );
        assert_envelope(&reply, 504, "timeout");
        assert!(reply.body.contains("deadline"), "{}", reply.body);
    }

    #[test]
    fn admission_ceiling_sheds_with_429_and_ad001_diagnostic() {
        let fixture = Fixture::capped_at_np();
        // PSPACE-class body: NS over a non-AUFS operand.
        let reply = fixture.post(
            "/v1/query",
            r#"{"pattern": "NS(((?x, p, ?y) OPT (?y, p, ?z)))"}"#,
        );
        assert_envelope(&reply, 429, "admission_denied");
        assert!(reply.body.contains("\"rule\": \"AD001\""), "{}", reply.body);
        assert!(
            reply.body.contains("above the configured NP ceiling"),
            "{}",
            reply.body
        );
        assert_eq!(fixture.metrics.shed_total.load(Ordering::Relaxed), 1);

        // At or under the ceiling the same store still answers.
        let reply = fixture.post("/v1/query", r#"{"pattern": "(?x, p, ?y)"}"#);
        assert_eq!(reply.status, 200);
    }

    #[test]
    fn v1_explain_answers_and_reports_prunes() {
        let fixture = Fixture::new();
        let reply = fixture.post("/v1/explain", r#"{"pattern": "(?x, p, ?y)"}"#);
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"plan\""), "{}", reply.body);
        // Un-optimized explains carry no prune section.
        assert!(!reply.body.contains("\"prunes\""), "{}", reply.body);

        // With `optimize` the unsatisfiable conjunction is pruned: the
        // plan shown is the empty marker, and the counters say why.
        let reply = fixture.post(
            "/v1/explain",
            r#"{"pattern": "((?x, p, ?y) FILTER ((?y = c1) && (?y = c2)))",
                "opts": {"optimize": true}}"#,
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(
            reply.body.contains("\"unsat_filters\": 1"),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("\"answers\": 0"), "{}", reply.body);
        assert!(
            reply.body.contains("FILTER false"),
            "optimized plan should show the empty marker: {}",
            reply.body
        );
    }

    #[test]
    fn v1_lint_reports_diagnostics_without_evaluating() {
        let fixture = Fixture::new();
        let reply = fixture.post(
            "/v1/lint",
            r#"{"pattern": "((?X, a, Chile) AND\n ((?Y, a, Chile) OPT (?Y, b, ?X)))"}"#,
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        for needle in [
            "\"fragment\": \"SPARQL\"",
            "\"complexity\": \"PSPACE\"",
            "\"well_designed\": \"violated\"",
            "\"rule\": \"WD001\"",
            // The WD001 span starts on line 2 of the multi-line pattern.
            "\"line\": 2",
            // The dataflow lattice rides along: ?X and ?Y are certain,
            // the OPT-side extension is possible-only.
            "\"bindings\": {\"certain\": [\"?X\", \"?Y\"], \"possible\": [\"?X\", \"?Y\"]}",
        ] {
            assert!(reply.body.contains(needle), "{needle}: {}", reply.body);
        }

        // Lint parse failures carry the span envelope too.
        let reply = fixture.post("/v1/lint", r#"{"pattern": "(?x, p"}"#);
        assert_envelope(&reply, 400, "parse_error");
        assert!(reply.body.contains("parse error at byte"), "{}", reply.body);
    }
}
