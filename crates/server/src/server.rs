//! The query server: an epoll event loop, a bounded dispatch queue,
//! worker threads, request routing, graceful shutdown.
//!
//! ## Life of a request
//!
//! 1. The **event loop** (one thread, [`sys::Epoll`](crate::sys::Epoll))
//!    owns the listener and every connection. Sockets are non-blocking;
//!    reads append into a per-connection buffer and
//!    [`parse_request`] peels complete
//!    requests off the front — several pipelined requests parse out of
//!    one readable event. Responses queue into a per-connection write
//!    buffer flushed as the socket allows (`EPOLLOUT` is armed only
//!    while bytes are pending).
//! 2. Parsed requests are **dispatched** to a bounded job queue, one at
//!    a time per connection so pipelined responses keep request order.
//!    A full queue sheds with `429` + `Retry-After` written inline by
//!    the event loop — back-pressure costs one buffered write, never a
//!    worker, and the connection *stays open* (a shed under pipelining
//!    does not sacrifice the keep-alive socket). `GET` requests
//!    (`/v1/healthz`, `/metrics`) bypass the bound so probes stay
//!    responsive under overload.
//! 3. A **worker** (fixed set of threads, each owning an evaluation
//!    pool) pops a job, routes it, and frames the response bytes
//!    (`Content-Length`, or chunked transfer-encoding for large bodies
//!    on HTTP/1.1). Query evaluation pins one store
//!    [`Snapshot`](owql_store::Store::snapshot) per request — writers
//!    never block readers, and the response reports the epoch it is
//!    consistent with. When sharded scatter-gather is enabled
//!    ([`ServerConfig::shards`]), parallel-mode queries fan out across
//!    shard evaluation pools pinned to that same snapshot epoch.
//! 4. Deadlines ride the unified API: `deadline_ms` becomes
//!    [`ExecOpts::deadline`], the engine's cooperative budget unwinds
//!    the evaluation, and the worker maps [`EvalError::Timeout`] to
//!    `504`. Likewise the **admission policy**: a configured
//!    [`ServerConfig::admission_ceiling`] (tightenable per request)
//!    becomes [`ExecOpts::max_class`]; a query whose statically
//!    determined complexity class exceeds it is shed with `429` before
//!    any evaluation work, the body carrying an `AD001` diagnostic
//!    from `owql-lint`.
//! 5. **Shutdown** flips a flag; the event loop drops the listener,
//!    clears readiness, and drains: connections finish their in-flight
//!    and pipelined requests (responses forced to `Connection: close`),
//!    idle served connections close, and the loop exits once the slab
//!    is empty. Then the job queue closes and every worker joins.
//!
//! ## Wire surface
//!
//! `POST /v1/query|/v1/explain|/v1/lint` take a JSON body
//! `{"pattern": "...", "opts": {...}}`; `GET /v1/healthz` and
//! `GET /metrics` take none. Every non-2xx answer — routed, shed, or a
//! wire-level failure — carries the one envelope
//! `{"error": {"code", "message", "span"?, "retry_after"?}}`.

use crate::http::{encode_response_into, parse_request, HttpError, Request};
use crate::json as reqjson;
use crate::metrics::ServerMetrics;
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use owql_eval::{EvalError, ExecMode, ExecOpts};
use owql_exec::Pool;
use owql_obs::json;
use owql_parser::parse_pattern;
use owql_parser::Span;
use owql_store::{QueryRequest, Store};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. Construct via [`ServerConfig::builder`] (or
/// struct literal with `..Default::default()`).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads answering requests (at least one: `0` is
    /// clamped to `1`). Evaluation never runs on the event-loop thread,
    /// so sheds and `GET` probes stay answerable while a query runs.
    pub workers: usize,
    /// Dispatch-queue bound: parsed requests waiting for a worker.
    /// A full queue sheds with `429` (`GET`s bypass the bound).
    pub queue_capacity: usize,
    /// Evaluation pool width *per worker* (parallel-mode requests).
    pub pool_threads: usize,
    /// Deadline applied to requests that don't set `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Value of the `Retry-After` header on `429` responses, seconds.
    pub retry_after_secs: u64,
    /// Idle-connection timeout (slowloris guard): connections with no
    /// traffic and no in-flight request for this long are closed.
    pub io_timeout: Duration,
    /// Admission ceiling: queries whose statically determined
    /// complexity class ranks above this are shed with `429` before
    /// evaluation. Requests can tighten it with `max_class` but never
    /// raise it. `None` admits every class.
    pub admission_ceiling: Option<owql_lint::ComplexityClass>,
    /// Queries slower than this land in the store's slow-query ring
    /// buffer (exported under `GET /metrics?format=json`). Requests can
    /// override it with `slow_ms` (`slow_ms=0` captures every query —
    /// the smoke-test injection mechanism). `None` disables capture.
    pub slow_query_threshold: Option<Duration>,
    /// Shards for scatter-gather evaluation: `Server::start` calls
    /// [`Store::enable_sharding`] with this count (each shard gets
    /// `pool_threads` evaluation threads) and prewarms the partitioned
    /// runs before accepting traffic. `0` leaves sharding off.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            pool_threads: 2,
            default_deadline: Some(Duration::from_secs(30)),
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(5),
            admission_ceiling: None,
            slow_query_threshold: Some(Duration::from_millis(250)),
            shards: 0,
        }
    }
}

impl ServerConfig {
    /// Chainable constructor starting from [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Chainable constructor for [`ServerConfig`]; see
/// [`ServerConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Bind address (port 0 = OS-assigned).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Worker threads answering requests (`0` is clamped to `1`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Dispatch-queue bound (full ⇒ `429`).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Evaluation pool width per worker.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.pool_threads = threads;
        self
    }

    /// Default per-request deadline.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.default_deadline = deadline;
        self
    }

    /// `Retry-After` seconds on `429`.
    pub fn retry_after_secs(mut self, secs: u64) -> Self {
        self.config.retry_after_secs = secs;
        self
    }

    /// Idle-connection timeout.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.config.io_timeout = timeout;
        self
    }

    /// Complexity-class admission ceiling.
    pub fn admission_ceiling(mut self, ceiling: Option<owql_lint::ComplexityClass>) -> Self {
        self.config.admission_ceiling = ceiling;
        self
    }

    /// Slow-query capture threshold.
    pub fn slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.config.slow_query_threshold = threshold;
        self
    }

    /// Scatter-gather shard count (0 = off).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

// ---------------------------------------------------------------------
// Replies and the /v1 error envelope
// ---------------------------------------------------------------------

/// One routed response before wire framing: the worker (or, for inline
/// sheds, the event loop) turns this into bytes with
/// [`encode_response_into`].
#[derive(Clone, Debug)]
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    fn text(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body,
        }
    }

    fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Reply {
        self.headers.push((name, value.into()));
        self
    }
}

/// A `/v1` API failure: status + the unified error envelope
/// `{"error": {"code", "message", "span"?, "retry_after"?}}`.
#[derive(Clone, Debug)]
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
    /// `(offset, line, column)` into the submitted pattern.
    span: Option<(usize, usize, usize)>,
    retry_after: Option<u64>,
    /// Extra raw-JSON sibling of `"error"` (the AD001 diagnostic).
    diagnostic: Option<String>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            span: None,
            retry_after: None,
            diagnostic: None,
        }
    }

    fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    fn with_span(mut self, offset: usize, line: usize, column: usize) -> ApiError {
        self.span = Some((offset, line, column));
        self
    }

    fn with_retry_after(mut self, secs: u64) -> ApiError {
        self.retry_after = Some(secs);
        self
    }

    fn with_diagnostic(mut self, diagnostic: String) -> ApiError {
        self.diagnostic = Some(diagnostic);
        self
    }

    /// Renders the envelope body.
    fn body(&self) -> String {
        let mut out = String::with_capacity(96 + self.message.len());
        out.push_str("{\"error\": {\"code\": ");
        out.push_str(&json::string(self.code));
        out.push_str(", \"message\": ");
        out.push_str(&json::string(&self.message));
        if let Some((offset, line, column)) = self.span {
            let _ = write!(
                out,
                ", \"span\": {{\"offset\": {offset}, \"line\": {line}, \"column\": {column}}}"
            );
        }
        if let Some(secs) = self.retry_after {
            let _ = write!(out, ", \"retry_after\": {secs}");
        }
        out.push('}');
        if let Some(diagnostic) = &self.diagnostic {
            out.push_str(", \"diagnostic\": ");
            out.push_str(diagnostic);
        }
        out.push_str("}\n");
        out
    }

    /// The envelope as a routed reply (`Retry-After` header rides
    /// along when `retry_after` is set).
    fn reply(&self) -> Reply {
        let mut reply = Reply::json(self.status, self.body());
        if let Some(secs) = self.retry_after {
            reply = reply.with_header("Retry-After", secs.to_string());
        }
        reply
    }
}

/// Envelope body for wire-level failures (emitted by the event loop
/// before routing sees the request).
fn wire_error_body(status: u16, message: &str) -> String {
    let code = match status {
        400 => "bad_request",
        413 => "payload_too_large",
        431 => "headers_too_large",
        501 => "not_implemented",
        _ => "internal",
    };
    ApiError::new(status, code, message).body()
}

// ---------------------------------------------------------------------
// Option parsing (/v1 JSON opts)
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// Appends `s` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// Appends `s` JSON-escaped, without the surrounding quotes (the
/// caller's skeleton supplies them).
#[inline]
fn push_json_escaped(out: &mut String, s: &str) {
    // Overwhelmingly common case first: nothing to escape, straight
    // copy. The scan and the copy read the same few bytes, still warm.
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Span of one rendered row in the arena, with a sort accelerator:
/// rows rendered under the same domain generation (`dom`) share their
/// skeleton prefix, so `key` — the first eight value bytes past that
/// prefix, big-endian — settles most comparisons without touching the
/// arena. JSON output never contains a raw `0x00` (control characters
/// are escaped), so zero-padding short rows keeps the key order
/// consistent with full bytewise order.
struct RowSpan {
    start: u32,
    end: u32,
    dom: u32,
    key: u64,
}

thread_local! {
    /// Per-worker render scratch (row arena + spans), reused across
    /// requests so large answer sets stop paying allocation and
    /// first-touch page faults on every response.
    static RENDER_SCRATCH: RefCell<(String, Vec<RowSpan>)> =
        const { RefCell::new((String::new(), Vec::new())) };
    /// Retired response bodies, recycled by [`take_body`].
    static BODY_POOL: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Pops a recycled body buffer (or allocates one) with at least `cap`
/// spare capacity.
fn take_body(cap: usize) -> String {
    let mut body = BODY_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    body.reserve(cap);
    body
}

/// Returns a served body's allocation to the thread's pool.
fn retire_body(mut body: String) {
    if body.capacity() >= 4096 {
        body.clear();
        BODY_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < 4 {
                pool.push(body);
            }
        });
    }
}

/// Serializes an answer set deterministically (mappings in sorted
/// order; variables are already sorted within each mapping), appending
/// to `out`.
///
/// Rendering is arena-based: every row is rendered once into a single
/// backing `String`, the row spans are sorted bytewise (rendered JSON
/// rows compare in the same order as the mappings they encode, because
/// binding pairs are serialized in sorted variable order), and the
/// output is assembled from the sorted spans. This avoids the
/// clone-sort-reformat pass that previously dominated response
/// latency on large result sets.
fn mappings_json_into(out: &mut String, mappings: &owql_algebra::MappingSet) {
    RENDER_SCRATCH.with(|scratch| {
        let (arena, spans) = &mut *scratch.borrow_mut();
        arena.clear();
        spans.clear();
        // No up-front size pass: iterating the (columnar) mapping set
        // materializes rows, so a counting pass would double that cost.
        // The thread-local arena keeps its high-water capacity, so
        // growth reallocations only happen while it warms up.
        spans.reserve(mappings.len());
        // Rows from one answer set overwhelmingly share a variable
        // domain (OPT aside), so the constant framing between values —
        // `{"a": "`, `", "b": "`, `"}` — is rendered once per domain
        // and reused while consecutive rows match it. The match check
        // compares interned `Variable` handles — integer equality, no
        // name resolution.
        // The cache starts out describing the empty domain, so an
        // answer set led by `µ∅` (a matching fully ground pattern)
        // renders without a rebuild.
        let mut domain: Vec<owql_algebra::Variable> = Vec::new();
        let mut segments: Vec<String> = vec!["{}".to_owned()];
        let mut dom = 0u32;
        let mut key_off = 0usize;
        for m in mappings.iter() {
            let start = arena.len() as u32;
            if !(m.len() == domain.len() && m.iter().map(|(v, _)| v).eq(domain.iter().copied())) {
                domain.clear();
                domain.extend(m.iter().map(|(v, _)| v));
                segments.clear();
                for (j, var) in domain.iter().enumerate() {
                    let name = var.name();
                    let mut seg = String::with_capacity(name.len() + 8);
                    seg.push_str(if j == 0 { "{" } else { "\", " });
                    push_json_str(&mut seg, name);
                    seg.push_str(": \"");
                    segments.push(seg);
                }
                segments.push(if domain.is_empty() { "{}" } else { "\"}" }.to_owned());
                dom += 1;
                key_off = if domain.is_empty() {
                    0
                } else {
                    segments[0].len()
                };
            }
            for (j, (_, value)) in m.iter().enumerate() {
                arena.push_str(&segments[j]);
                push_json_escaped(arena, value.as_str());
            }
            arena.push_str(segments.last().expect("tail segment"));
            let end = arena.len() as u32;
            let key_start = (start as usize + key_off).min(end as usize);
            let tail = &arena.as_bytes()[key_start..end as usize];
            let mut key_bytes = [0u8; 8];
            let n = tail.len().min(8);
            key_bytes[..n].copy_from_slice(&tail[..n]);
            spans.push(RowSpan {
                start,
                end,
                dom,
                key: u64::from_be_bytes(key_bytes),
            });
        }
        let bytes = arena.as_bytes();
        // Stable (run-adaptive) sort: evaluation emits rows in
        // near-sorted order (~3% adjacent inversions on the bench
        // shapes), which a merge of natural runs exploits far better
        // than pattern-defeating quicksort.
        spans.sort_by(|a, b| {
            let full = || {
                bytes[a.start as usize..a.end as usize]
                    .cmp(&bytes[b.start as usize..b.end as usize])
            };
            if a.dom == b.dom {
                a.key.cmp(&b.key).then_with(full)
            } else {
                full()
            }
        });
        out.reserve(arena.len() + 2 * spans.len() + 2);
        out.push('[');
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&arena[span.start as usize..span.end as usize]);
        }
        out.push(']');
    });
}

#[cfg(test)]
fn mappings_json(mappings: &owql_algebra::MappingSet) -> String {
    let mut out = String::new();
    mappings_json_into(&mut out, mappings);
    out
}

/// Memoized wrapper around [`query_success_body`] for cache-hit
/// outcomes: the store's query cache already guarantees an identical
/// `QueryOutcome` for an identical request within one epoch, so
/// re-rendering it per request is pure waste. Keyed by the raw request
/// body (the only input `/v1/query` reads), bounded, and cleared
/// whenever the epoch moves. Traced outcomes are excluded — their profiles differ
/// per execution even on a cache hit.
fn query_success_body_memo(req: &Request, outcome: &owql_store::QueryOutcome) -> String {
    if !outcome.cache_hit || outcome.profile.is_some() {
        return query_success_body(outcome);
    }
    /// `(request body, rendered response body)`.
    type Entry = (Vec<u8>, String);
    thread_local! {
        static MEMO: RefCell<(u64, Vec<Entry>)> = const { RefCell::new((0, Vec::new())) };
    }
    MEMO.with(|memo| {
        let (epoch, entries) = &mut *memo.borrow_mut();
        if *epoch != outcome.epoch {
            entries.clear();
            *epoch = outcome.epoch;
        }
        if let Some((_, rendered)) = entries.iter().find(|(key, _)| *key == req.body) {
            let mut body = take_body(rendered.len());
            body.push_str(rendered);
            return body;
        }
        let body = query_success_body(outcome);
        if entries.len() < 8 {
            entries.push((req.body.clone(), body.clone()));
        }
        body
    })
}

/// The `200` body of `/v1/query`.
fn query_success_body(outcome: &owql_store::QueryOutcome) -> String {
    let mut body = take_body(128);
    let _ = write!(
        body,
        "{{\"epoch\": {}, \"cache_hit\": {}, \"count\": {}, \"mappings\": ",
        outcome.epoch,
        outcome.cache_hit,
        outcome.mappings.len(),
    );
    mappings_json_into(&mut body, &outcome.mappings);
    if let Some(profile) = &outcome.profile {
        body.push_str(",\n\"profile\": ");
        body.push_str(&profile.to_json());
    }
    body.push_str("}\n");
    body
}

/// `true` iff the request asked for the JSON rendering of `/metrics`
/// (`?format=json`); the default is Prometheus text exposition.
fn metrics_wants_json(req: &Request) -> bool {
    req.query_params()
        .any(|(key, value)| key == "format" && value == "json")
}

/// `GET /metrics?format=json`: server counters, store gauges, persist
/// counters, and the hub (latency histograms + slow-query log).
fn metrics_json(store: &Store, metrics: &ServerMetrics) -> String {
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
fn metrics_prometheus(store: &Store, metrics: &ServerMetrics) -> String {
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

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Dispatches one parsed request to its endpoint.
///
/// `ready` gates `/v1/healthz?ready=1` — it is `true` once segments
/// are recovered and the shard runtime (when configured) is prewarmed,
/// and drops back to `false` while draining for shutdown.
fn route(
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
        ("POST", "/v1/explain") => v1_explain(req, store, config),
        ("POST", "/v1/lint") => v1_lint(req),
        ("GET", "/metrics") => {
            if metrics_wants_json(req) {
                Reply::json(200, metrics_json(store, metrics))
            } else {
                Reply::text(200, metrics_prometheus(store, metrics))
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
/// serve queries (segments recovered, shards built) and while
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
        Err(e @ EvalError::Timeout { .. }) => {
            metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
            ApiError::new(504, "timeout", e.to_string()).reply()
        }
        // Admission shed: no Retry-After — retrying the same query
        // cannot succeed. The machine-readable AD001 diagnostic rides
        // as a sibling of the envelope.
        Err(e @ EvalError::AdmissionDenied { .. }) => {
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
        Err(e @ EvalError::TooManyVariables { .. }) => ApiError::bad_request(e.to_string()).reply(),
        #[allow(unreachable_patterns)] // EvalError is #[non_exhaustive]
        Err(e) => ApiError::new(500, "internal", e.to_string()).reply(),
    }
}

/// `POST /v1/explain`: JSON envelope in, EXPLAIN ANALYZE out. Honors
/// `opts.optimize`: the plan shown (and run) is then the optimized
/// one, with the certified prune counts reported alongside it.
fn v1_explain(req: &Request, store: &Store, config: &ServerConfig) -> Reply {
    let (pattern, opts) = match v1_parse_input(req, config) {
        Ok(parsed) => parsed,
        Err(e) => return e.reply(),
    };
    match explain_body(store, &pattern, opts.optimize) {
        Ok(body) => Reply::json(200, body),
        Err(e) => ApiError::bad_request(e.to_string()).reply(),
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
        Ok(analysis) => Reply::json(200, lint_body(text, &analysis)),
        Err(e) => ApiError::new(400, "parse_error", e.to_string())
            .with_span(e.offset, e.line, e.column)
            .reply(),
    }
}

/// The `200` body of `/v1/lint`. `bindings` is the
/// root of the semantic dataflow lattice: which variables every answer
/// certainly binds, and which any answer could possibly bind.
fn lint_body(text: &str, analysis: &owql_lint::Analysis) -> String {
    let diagnostics: Vec<String> = analysis
        .diagnostics
        .iter()
        .map(|d| d.to_json(text))
        .collect();
    let vars_json = |vars: &std::collections::BTreeSet<owql_algebra::Variable>| {
        let rendered: Vec<String> = vars.iter().map(|v| json::string(&v.to_string())).collect();
        format!("[{}]", rendered.join(", "))
    };
    format!(
        "{{\"fragment\": {}, \"complexity\": {}, \"well_designed\": {}, \
         \"bindings\": {{\"certain\": {}, \"possible\": {}}}, \
         \"count\": {}, \"diagnostics\": [{}]}}\n",
        json::string(&analysis.fragment.to_string()),
        json::string(&analysis.complexity.to_string()),
        json::string(analysis.well_designed.as_str()),
        vars_json(&analysis.bindings.certain),
        vars_json(&analysis.bindings.possible),
        analysis.diagnostics.len(),
        diagnostics.join(", "),
    )
}

/// The `200` body of `/v1/explain`. With
/// `optimize` set the certified-pruning optimizer rewrites the plan
/// first — the EXPLAIN then shows what the engine would actually run,
/// and a `"prunes"` section reports which lint-proven rewrites fired.
/// The run has no deadline, so the only error is an over-wide pattern.
fn explain_body(
    store: &Store,
    pattern: &owql_algebra::Pattern,
    optimize: bool,
) -> Result<String, EvalError> {
    let snapshot = store.snapshot();
    let prunes = optimize.then(|| owql_eval::optimize_with_stats(pattern));
    let pattern = prunes.as_ref().map(|(p, _)| p).unwrap_or(pattern);
    let plan = snapshot.engine().explain_analyze(pattern)?;
    let mut out = format!(
        "{{\"epoch\": {}, \"answers\": {}, \"total_ms\": {}, \"plan\": {}",
        snapshot.epoch(),
        plan.answers,
        json::ns_as_ms(plan.total_ns),
        json::string(&plan.to_string()),
    );
    if let Some((optimized, obs)) = &prunes {
        let _ = write!(
            out,
            ", \"optimized\": {}, \"prunes\": {{\"unsat_filters\": {}, \
             \"subsumed_branches\": {}, \"opt_collapses\": {}, \"total\": {}}}",
            json::string(&optimized.to_string()),
            obs.unsat_filters,
            obs.subsumed_branches,
            obs.opt_collapses,
            obs.total(),
        );
    }
    out.push_str("}\n");
    Ok(out)
}

// ---------------------------------------------------------------------
// Dispatch queue, workers, and the completion bridge
// ---------------------------------------------------------------------

/// One parsed request bound for a worker, tagged with the connection
/// slot and generation that must receive the response.
#[derive(Debug)]
struct Job {
    slot: usize,
    gen: u64,
    req: Request,
}

/// One framed response coming back from a worker. `close` mirrors the
/// framing decision (`Connection: close`) so the event loop tears the
/// connection down after the flush.
#[derive(Debug)]
struct Completion {
    slot: usize,
    gen: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// The bounded dispatch queue: a `Mutex<VecDeque>` + `Condvar`.
/// `push` never blocks (full ⇒ the caller sheds); `pop` blocks until a
/// job arrives or the queue is closed *and* drained.
#[derive(Debug)]
struct JobQueue {
    inner: Mutex<JobQueueInner>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct JobQueueInner {
    queue: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Offers a job; hands it back if the queue is full (unless
    /// `force`) or closed. `force` lets `GET` probes (`/healthz`,
    /// `/metrics`) bypass the bound so observability survives
    /// overload.
    fn push(&self, job: Job, force: bool) -> Result<(), Job> {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        if inner.closed || (!force && inner.queue.len() >= self.capacity) {
            return Err(job);
        }
        inner.queue.push_back(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        loop {
            if let Some(job) = inner.queue.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).expect("job queue lock poisoned");
        }
    }

    /// Closes the queue: queued jobs still drain, new pushes bounce,
    /// blocked poppers wake.
    fn close(&self) {
        self.inner.lock().expect("job queue lock poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// Worker → event-loop completion channel: completions accumulate
/// under a mutex and a byte on the wake pipe makes the epoll wait
/// return to drain them.
#[derive(Debug)]
struct Bridge {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    /// Retired response buffers cycling back from the event loop so
    /// workers can encode large responses without fresh allocations.
    spares: Mutex<Vec<Vec<u8>>>,
}

impl Bridge {
    /// Pops a recycled encode buffer, empty but with capacity.
    fn take_spare(&self) -> Vec<u8> {
        self.spares
            .lock()
            .expect("bridge spares lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a drained response buffer for reuse by a worker.
    fn retire_spare(&self, mut buf: Vec<u8>) {
        if buf.capacity() < 4096 {
            return;
        }
        buf.clear();
        let mut spares = self.spares.lock().expect("bridge spares lock poisoned");
        if spares.len() < 8 {
            spares.push(buf);
        }
    }

    fn push(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("bridge lock poisoned")
            .push(completion);
        // A full pipe means a wakeup is already pending — dropping the
        // byte is fine.
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("bridge lock poisoned"))
    }
}

/// One worker: pops jobs, routes them, frames the response bytes, and
/// pushes the completion back to the event loop.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    jobs: Arc<JobQueue>,
    bridge: Arc<Bridge>,
    store: Arc<Store>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    draining: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
) {
    // Each worker owns its pool: concurrent requests never contend for
    // evaluation threads.
    let pool = Pool::new(config.pool_threads.max(1));
    while let Some(job) = jobs.pop() {
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let reply = route(
            &job.req,
            &store,
            &pool,
            &config,
            &metrics,
            ready.load(Ordering::Acquire),
        );
        metrics.record_status(reply.status);
        // Shutdown drains by forcing every in-flight response to
        // Connection: close.
        let keep = job.req.keep_alive && !draining.load(Ordering::Relaxed);
        let mut bytes = bridge.take_spare();
        let chunked = encode_response_into(
            &mut bytes,
            reply.status,
            reply.content_type,
            &reply.headers,
            reply.body.as_bytes(),
            keep,
            job.req.http11,
        );
        if chunked {
            metrics
                .chunked_responses_total
                .fetch_add(1, Ordering::Relaxed);
        }
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        bridge.push(Completion {
            slot: job.slot,
            gen: job.gen,
            bytes,
            close: !keep,
        });
        retire_body(reply.body);
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Epoll tag for the listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll tag for the worker wake pipe.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Epoll tick, ms: bounds how stale the timeout sweep and the
/// shutdown-flag check can get while the loop is otherwise idle.
const TICK_MS: i32 = 100;

/// Per-connection state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Generation tag: completions for a recycled slot are dropped
    /// when their generation doesn't match.
    gen: u64,
    /// Bytes read but not yet parsed into a request.
    read_buf: Vec<u8>,
    /// Parsed requests waiting their turn (pipelining). Dispatch is
    /// one-at-a-time per connection so responses keep request order.
    pending: VecDeque<Request>,
    /// A job for this connection is in flight with a worker.
    busy: bool,
    /// Bytes queued for the socket; `write_pos` marks the flushed
    /// prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Close once the write buffer drains (Connection: close, wire
    /// error, or forced by drain mode).
    closing: bool,
    /// Peer shut down its write half (EOF / EPOLLRDHUP).
    read_eof: bool,
    /// EPOLLOUT currently armed.
    want_write: bool,
    /// Requests dispatched on this connection so far.
    served: u64,
    last_activity: Instant,
    /// A wire-level parse failure, deferred until the pipelined
    /// requests ahead of it have been answered.
    wire_error: Option<HttpError>,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Conn {
        Conn {
            stream,
            gen,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            busy: false,
            write_buf: Vec::new(),
            write_pos: 0,
            closing: false,
            read_eof: false,
            want_write: false,
            served: 0,
            last_activity: Instant::now(),
            wire_error: None,
        }
    }

    fn write_drained(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }
}

/// The event loop: owns the epoll instance, the listener, the wake
/// pipe, and the connection slab.
struct EventLoop {
    epoll: Epoll,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    open: usize,
    jobs: Arc<JobQueue>,
    bridge: Arc<Bridge>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    config: ServerConfig,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = [EpollEvent::default(); 256];
        loop {
            let n = self.epoll.wait(&mut events, TICK_MS).unwrap_or(0);
            if n > 0 {
                self.metrics
                    .ready_events_total
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for event in &events[..n] {
                let token = event.data;
                let bits = event.events;
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    slot => self.conn_ready(slot as usize, bits),
                }
            }
            self.apply_completions();
            if self.shutdown.load(Ordering::Relaxed) && self.listener.is_some() {
                self.begin_drain();
            }
            if self.draining.load(Ordering::Relaxed) {
                self.sweep_drain();
                if self.open == 0 {
                    return;
                }
            }
            self.sweep_timeouts();
        }
    }

    /// Edge-triggered accept: drain the backlog until `WouldBlock`.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.metrics.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        let gen = self.next_gen;
        if self
            .epoll
            .add(stream.as_raw_fd(), slot as u64, EPOLLIN | EPOLLRDHUP)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn::new(stream, gen));
        self.open += 1;
        self.metrics
            .connections_open
            .fetch_add(1, Ordering::Relaxed);
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, slot: usize, bits: u32) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // already closed this iteration
        }
        if bits & EPOLLERR != 0 {
            self.close(slot);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.readable(slot);
        }
        if self.conns[slot].is_some() && bits & EPOLLOUT != 0 {
            self.flush(slot);
            self.maybe_close(slot);
        }
    }

    /// Reads whatever arrived, parses pipelined requests off the
    /// buffer, and dispatches.
    fn readable(&mut self, slot: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if n < chunk.len() {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.parse_pending(slot);
        self.try_dispatch(slot);
        self.flush(slot);
        self.maybe_close(slot);
    }

    fn parse_pending(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("conn checked by caller");
        let mut pipelined = 0u64;
        while conn.wire_error.is_none() && !conn.closing {
            match parse_request(&mut conn.read_buf) {
                Ok(Some(req)) => {
                    if conn.busy || !conn.pending.is_empty() {
                        pipelined += 1;
                    }
                    conn.pending.push_back(req);
                }
                Ok(None) => break,
                Err(e) => {
                    // Defer: requests already pipelined ahead of the
                    // bad bytes still get answers before the error
                    // closes the connection.
                    conn.wire_error = Some(e);
                    break;
                }
            }
        }
        if pipelined > 0 {
            self.metrics
                .pipelined_requests_total
                .fetch_add(pipelined, Ordering::Relaxed);
        }
    }

    /// Dispatches the head-of-line request if the connection is free.
    /// Sheds (full queue) are answered inline and dispatch continues
    /// with the next pipelined request — the connection survives.
    fn try_dispatch(&mut self, slot: usize) {
        loop {
            let draining = self.draining.load(Ordering::Relaxed);
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if conn.busy || conn.closing {
                return;
            }
            let Some(req) = conn.pending.pop_front() else {
                // Everything answered: a deferred wire error now takes
                // its turn and the connection closes behind it.
                if let Some(e) = conn.wire_error.take() {
                    let body = wire_error_body(e.status, &e.message);
                    encode_response_into(
                        &mut conn.write_buf,
                        e.status,
                        "application/json",
                        &[],
                        body.as_bytes(),
                        false,
                        false,
                    );
                    conn.closing = true;
                    self.metrics.record_status(e.status);
                }
                return;
            };
            if conn.served > 0 {
                self.metrics
                    .keepalive_reuses_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            conn.served += 1;
            let keep = req.keep_alive && !draining;
            // GET probes bypass the bound: health and metrics stay
            // answerable while query traffic is being shed.
            let force = req.method == "GET";
            let gen = conn.gen;
            match self.jobs.push(Job { slot, gen, req }, force) {
                Ok(()) => {
                    self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                    let conn = self.conns[slot].as_mut().expect("conn exists");
                    conn.busy = true;
                    return;
                }
                Err(job) => {
                    // Inline shed: one buffered 429, keep-alive
                    // preserved, loop on to the next pipelined request.
                    self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record_status(429);
                    let reply = shed_reply(&self.config);
                    let conn = self.conns[slot].as_mut().expect("conn exists");
                    encode_response_into(
                        &mut conn.write_buf,
                        reply.status,
                        reply.content_type,
                        &reply.headers,
                        reply.body.as_bytes(),
                        keep,
                        job.req.http11,
                    );
                    if !keep {
                        conn.closing = true;
                    }
                }
            }
        }
    }

    fn apply_completions(&mut self) {
        for completion in self.bridge.drain() {
            let Some(conn) = self.conns.get_mut(completion.slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue; // slot was recycled under the worker
            }
            conn.busy = false;
            if conn.write_buf.is_empty() {
                // Common case: nothing pending — adopt the worker's
                // buffer instead of copying it, and cycle the drained
                // predecessor back to the workers.
                let old = std::mem::replace(&mut conn.write_buf, completion.bytes);
                conn.write_pos = 0;
                self.bridge.retire_spare(old);
            } else {
                conn.write_buf.extend_from_slice(&completion.bytes);
                self.bridge.retire_spare(completion.bytes);
            }
            conn.last_activity = Instant::now();
            if completion.close {
                conn.closing = true;
                conn.pending.clear();
                conn.wire_error = None;
            }
            self.try_dispatch(completion.slot);
            self.flush(completion.slot);
            self.maybe_close(completion.slot);
        }
    }

    /// Flushes the write buffer as far as the socket allows, arming
    /// `EPOLLOUT` only while bytes remain.
    fn flush(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if conn.write_drained() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                break;
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.arm_write(slot, true);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.arm_write(slot, false);
    }

    fn arm_write(&mut self, slot: usize, want: bool) {
        let conn = self.conns[slot].as_mut().expect("conn checked by caller");
        if conn.want_write == want {
            return;
        }
        let mut interest = EPOLLIN | EPOLLRDHUP;
        if want {
            interest |= EPOLLOUT;
        }
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), slot as u64, interest)
            .is_ok()
        {
            let conn = self.conns[slot].as_mut().expect("conn exists");
            conn.want_write = want;
        }
    }

    /// Closes the connection if nothing more can happen on it.
    fn maybe_close(&mut self, slot: usize) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return;
        };
        if conn.busy || !conn.write_drained() {
            return;
        }
        if conn.closing || (conn.read_eof && conn.pending.is_empty() && conn.wire_error.is_none()) {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.open -= 1;
            self.metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
        }
    }

    /// Enters drain mode: stop accepting, clear readiness; existing
    /// connections finish what they started.
    fn begin_drain(&mut self) {
        self.draining.store(true, Ordering::Relaxed);
        self.ready.store(false, Ordering::Release);
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
    }

    /// During drain, closes connections that have been served (or hung
    /// up) and have nothing left in flight. Connections that connected
    /// but have not yet sent a request stay until they do (their
    /// response is forced to `Connection: close`) or until the idle
    /// sweep reaps them.
    fn sweep_drain(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if !conn.busy
                && conn.pending.is_empty()
                && conn.wire_error.is_none()
                && conn.write_drained()
                && (conn.served > 0 || conn.read_eof)
            {
                self.close(slot);
            }
        }
    }

    /// Slowloris guard: reaps connections idle past the configured
    /// timeout with no request in flight.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if !conn.busy && now.duration_since(conn.last_activity) > self.config.io_timeout {
                self.close(slot);
            }
        }
    }
}

/// The `429` the event loop writes itself when the dispatch queue is
/// full.
fn shed_reply(config: &ServerConfig) -> Reply {
    ApiError::new(429, "shed", "dispatch queue is full, retry later")
        .with_retry_after(config.retry_after_secs)
        .reply()
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A running query server. Dropping it without calling
/// [`Server::shutdown`] detaches the threads (the test and example
/// entry points always shut down explicitly).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    jobs: Arc<JobQueue>,
    metrics: Arc<ServerMetrics>,
    io_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, builds the shard runtime when configured, and starts the
    /// event loop plus `config.workers` workers (at least one). Readiness
    /// (`/v1/healthz?ready=1`) turns true here, after sharding is
    /// prewarmed and before the first connection is served.
    pub fn start(store: Arc<Store>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN | EPOLLET)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        epoll.add(wake_rx.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::default());
        let jobs = Arc::new(JobQueue::new(config.queue_capacity.max(1)));
        let bridge = Arc::new(Bridge {
            completions: Mutex::new(Vec::new()),
            wake_tx,
            spares: Mutex::new(Vec::new()),
        });

        // Build and prewarm the shard runtime before declaring
        // readiness: the first scatter-gather query must not pay the
        // partitioning cost.
        if config.shards > 0 {
            store.enable_sharding(config.shards, config.pool_threads.max(1));
            if let Some(runtime) = store.shard_runtime() {
                let _ = runtime.runs_for(&store.snapshot());
            }
        }
        ready.store(true, Ordering::Release);

        let worker_handles: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let jobs = jobs.clone();
                let bridge = bridge.clone();
                let store = store.clone();
                let config = config.clone();
                let metrics = metrics.clone();
                let draining = draining.clone();
                let ready = ready.clone();
                std::thread::spawn(move || {
                    worker_loop(jobs, bridge, store, config, metrics, draining, ready)
                })
            })
            .collect();

        let io_handle = {
            let event_loop = EventLoop {
                epoll,
                listener: Some(listener),
                wake_rx,
                conns: Vec::new(),
                free: Vec::new(),
                next_gen: 0,
                open: 0,
                jobs: jobs.clone(),
                bridge,
                metrics: metrics.clone(),
                shutdown: shutdown.clone(),
                draining,
                ready,
                config,
            };
            std::thread::spawn(move || event_loop.run())
        };

        Ok(Server {
            addr,
            shutdown,
            jobs,
            metrics,
            io_handle: Some(io_handle),
            worker_handles,
        })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared request counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Graceful shutdown: stop accepting, drain in-flight and
    /// pipelined requests, join every thread. The event loop notices
    /// the flag within one tick, drops the listener, and exits once
    /// every connection has been served and closed; then the job queue
    /// closes and the workers join.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.io_handle.take() {
            let _ = handle.join();
        }
        self.jobs.close();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Asserts `reply` is `status` carrying the envelope with `code`.
    fn assert_envelope(reply: &Reply, status: u16, code: &str) {
        assert_eq!(reply.status, status, "{}", reply.body);
        let needle = format!("{{\"error\": {{\"code\": \"{code}\"");
        assert!(reply.body.starts_with(&needle), "{}", reply.body);
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
    fn mappings_serialize_sorted_and_escaped() {
        use owql_algebra::Mapping;
        let mut set = owql_algebra::MappingSet::new();
        set.insert(Mapping::from_str_pairs(&[("b", "B"), ("a", "A")]));
        set.insert(Mapping::from_str_pairs(&[("a", "quo\"te")]));
        let json = mappings_json(&set);
        assert_eq!(json, r#"[{"a": "A", "b": "B"}, {"a": "quo\"te"}]"#);
        assert!(mappings_json(&owql_algebra::MappingSet::new()) == "[]");
        // An answer set led by (here: consisting of) the empty mapping.
        assert_eq!(mappings_json(&owql_algebra::MappingSet::unit()), "[{}]");
    }

    #[test]
    fn job_queue_bounds_forces_and_drains() {
        let q = JobQueue::new(2);
        let mk = || Job {
            slot: 0,
            gen: 0,
            req: Request::default(),
        };
        assert!(q.push(mk(), false).is_ok());
        assert!(q.push(mk(), false).is_ok());
        assert!(
            q.push(mk(), false).is_err(),
            "third push exceeds capacity 2"
        );
        assert!(q.push(mk(), true).is_ok(), "force bypasses the bound");
        assert!(q.pop().is_some());
        q.close();
        assert!(q.pop().is_some(), "close drains remaining entries");
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert!(q.push(mk(), true).is_err(), "closed queue rejects pushes");
    }

    #[test]
    fn config_builder_sets_every_knob() {
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .queue_capacity(16)
            .pool_threads(3)
            .default_deadline(Some(Duration::from_secs(5)))
            .retry_after_secs(7)
            .io_timeout(Duration::from_secs(9))
            .admission_ceiling(Some(owql_lint::ComplexityClass::Np))
            .slow_query_threshold(None)
            .shards(4)
            .build();
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_capacity, 16);
        assert_eq!(config.pool_threads, 3);
        assert_eq!(config.default_deadline, Some(Duration::from_secs(5)));
        assert_eq!(config.retry_after_secs, 7);
        assert_eq!(config.io_timeout, Duration::from_secs(9));
        assert_eq!(
            config.admission_ceiling,
            Some(owql_lint::ComplexityClass::Np)
        );
        assert_eq!(config.slow_query_threshold, None);
        assert_eq!(config.shards, 4);
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
        assert!(json.body.starts_with("{\"server\": "), "{}", json.body);
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
        assert!(
            reply.body.contains("\"slow_queries_total\": 1"),
            "{}",
            reply.body
        );
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

    #[test]
    fn shed_reply_is_an_envelope_with_retry_after() {
        let reply = shed_reply(&ServerConfig::default());
        assert_envelope(&reply, 429, "shed");
        assert!(reply.body.contains("\"retry_after\": 1"), "{}", reply.body);
        assert!(reply
            .headers
            .iter()
            .any(|(name, value)| *name == "Retry-After" && value == "1"));
    }
}
