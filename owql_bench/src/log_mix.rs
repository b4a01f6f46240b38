//! `log_mix`: a query-log-shaped mix against the in-process server
//! over real TCP. Small queries make the edge, parse, admission,
//! optimize and cache layers do most of the work and evaluation
//! little; the Zipf working set (thousands of distinct queries)
//! exceeds the 256-entry cache.

use crate::client::ClientConn;
use crate::data::{self, fnv1a, FNV_SEED};
use crate::queries::{build_mix, Mix};
use crate::stats::{Metric, Samples};
use crate::workload::{self, Ctx, Report, Tally};
use owql_exec::Pool;
use owql_server::{Server, ServerConfig};
use owql_store::{QueryRequest, Store};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in the pre-generated stream; connections cycle through it.
pub const STREAM_LEN: usize = 1 << 17;
/// Keep-alive connections, each with one request outstanding. Capped
/// at the hardware threads of the machine.
pub const CONNECTIONS: usize = 2;
/// Untimed requests each connection sends before phase A.
const WARMUP_PER_CONNECTION: usize = 1_000;
/// Share of the run spent in the closed-loop phase A; the rest is the
/// open-loop phase B.
const CLOSED_SHARE: f64 = 0.6;
/// Phase B's fixed arrival rate: about half of phase A's throughput at
/// the commit that defined the benchmark, and the same on every
/// commit.
pub const OPEN_RATE_PER_S: f64 = 3500.0;
/// An open loop this far behind its schedule stops and counts what is
/// left as failed.
const HOPELESS: Duration = Duration::from_secs(10);
/// At most this many distinct queries are re-asked in process after
/// the run to check the HTTP row counts.
const VERIFY_LIMIT: usize = 4_000;

pub fn connections() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    CONNECTIONS.min(hw)
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Latency of each request in ms (from send in a closed loop, from
    /// its due time in an open loop).
    pub latency_ms: Samples,
    /// How late each open-loop request was sent, in ms.
    pub late_ms: Samples,
    /// `query id → (body digest, row count)` of the first reply.
    pub seen: HashMap<u32, (u64, u64)>,
    pub tally: Tally,
    pub chunked: u64,
    pub body_bytes: u64,
}

impl ConnResult {
    pub fn merge(&mut self, other: ConnResult) {
        self.latency_ms.extend(&other.latency_ms);
        self.late_ms.extend(&other.late_ms);
        self.tally.merge(other.tally);
        self.chunked += other.chunked;
        self.body_bytes += other.body_bytes;
        for (id, reply) in other.seen {
            let first = *self.seen.entry(id).or_insert(reply);
            if first != reply {
                self.tally.fail(format!(
                    "query {id} answered differently on two connections"
                ));
            }
        }
    }
}

/// `"count": N` and the digest of everything from there on (the part
/// before it carries `cache_hit`, which may differ between repeats).
fn count_and_digest(body: &[u8]) -> Option<(u64, u64)> {
    const KEY: &[u8] = b"\"count\": ";
    let at = body.windows(KEY.len()).position(|w| w == KEY)?;
    let digits = &body[at + KEY.len()..];
    let end = digits.iter().position(|b| !b.is_ascii_digit())?;
    let count = std::str::from_utf8(&digits[..end]).ok()?.parse().ok()?;
    Some((count, fnv1a(FNV_SEED, &body[at..])))
}

/// Sends stream entry `k` on `conn` and folds the reply into `out`.
/// The store never changes during this workload, so every repeat of a
/// query must give the same body.
pub fn send(conn: &mut ClientConn, mix: &Mix, k: usize, out: &mut ConnResult) {
    let id = mix.stream[k % mix.stream.len()];
    out.tally.attempted += 1;
    let reply = match conn.request(&mix.queries[id as usize].wire) {
        Ok(reply) => reply,
        Err(e) => return out.tally.fail(format!("query {id}: {e}")),
    };
    if reply.status != 200 {
        return out
            .tally
            .fail(format!("query {id}: status {}", reply.status));
    }
    out.chunked += u64::from(reply.chunked);
    out.body_bytes += reply.body.len() as u64;
    let Some(answer) = count_and_digest(&reply.body) else {
        return out
            .tally
            .fail(format!("query {id}: no row count in the reply"));
    };
    let first = *out.seen.entry(id).or_insert(answer);
    if first != answer {
        out.tally
            .fail(format!("query {id}: a repeat answered differently"));
    }
}

/// When a closed loop ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many requests per connection.
    After(usize),
    /// Once the clock reaches this instant.
    At(Instant),
}

/// Closed loop: each connection sends its next request when the
/// previous reply is in (application callers waiting for an answer).
/// Connection `t` of `n` takes stream entries `first + t, first + t +
/// n, …`.
pub fn closed_loop(addr: SocketAddr, mix: &Mix, first: usize, stop: Stop) -> (ConnResult, f64) {
    let n = connections();
    let started = Instant::now();
    let mut total = ConnResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = ClientConn::new(addr);
                    let mut out = ConnResult::default();
                    for i in 0.. {
                        let sent = Instant::now();
                        let done = match stop {
                            Stop::After(limit) => i >= limit,
                            Stop::At(until) => sent >= until,
                        };
                        if done {
                            break;
                        }
                        send(&mut conn, mix, first + t + i * n, &mut out);
                        out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    (total, started.elapsed().as_secs_f64())
}

/// Open loop: request `k` is due at `k / rate` whatever the server
/// does (independent users). Each request is timed from when it was
/// due, which counts the wait a stall imposes on the requests behind
/// it; `late_ms` says how late the generator itself ran.
pub fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    first: usize,
    requests: usize,
    rate_per_s: f64,
) -> ConnResult {
    let n = connections();
    let started = Instant::now();
    let mut total = ConnResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = ClientConn::new(addr);
                    let mut out = ConnResult::default();
                    for k in (t..requests).step_by(n) {
                        let due = started + Duration::from_secs_f64(k as f64 / rate_per_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        } else if due.elapsed() > HOPELESS {
                            // The backlog only grows: everything still
                            // due has missed any latency limit.
                            let left = (k..requests).step_by(n).count() as u64;
                            out.tally.attempted += left;
                            out.tally.failed += left - 1;
                            out.tally
                                .fail(format!("open loop fell {HOPELESS:?} behind"));
                            break;
                        }
                        out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        send(&mut conn, mix, first + k, &mut out);
                        out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total
}

/// Re-asks the distinct queries the clients saw through
/// `Store::query_request` and checks the HTTP row counts against the
/// in-process ones.
fn verify_counts(store: &Store, mix: &Mix, seen: &HashMap<u32, (u64, u64)>, tally: &mut Tally) {
    let pool = Pool::sequential();
    let mut ids: Vec<u32> = seen.keys().copied().collect();
    ids.sort_unstable();
    for id in ids.into_iter().take(VERIFY_LIMIT) {
        let text = &mix.queries[id as usize].text;
        let request = QueryRequest::with_opts(workload::parse(text), workload::served_opts());
        let rows = store
            .query_request(&request, &pool)
            .expect("no deadline, no effective ceiling")
            .mappings
            .len() as u64;
        tally.check(rows == seen[&id].0, || {
            format!("{text}: {} rows over HTTP, {rows} in process", seen[&id].0)
        });
    }
}

/// Boots what `examples/serve.rs` boots: default config, OS-assigned
/// port.
pub fn start_server(store: Arc<Store>) -> Server {
    Server::start(store, ServerConfig::default()).expect("server binds a loopback port")
}

pub fn run(ctx: &Ctx) -> Report {
    let mut tally = workload::correctness_gate(ctx.seed);
    let mix = build_mix(ctx.seed, data::PEOPLE, STREAM_LEN);

    let mut mem_per_triple = 0.0;
    let ((graph, store, server), setup) = workload::repeat_setup(
        5,
        |i| {
            let (graph, store, mem) = workload::build_in_memory(ctx.seed);
            if i == 0 {
                mem_per_triple = mem;
            }
            let store = Arc::new(store);
            let server = start_server(store.clone());
            (graph, store, server)
        },
        |(_, _, server)| server.shutdown(),
    );
    let dataset = data::dataset_digest(&graph);
    let addr = server.addr();

    let (warm, _) = closed_loop(addr, &mix, 0, Stop::After(WARMUP_PER_CONNECTION));
    let mut next = WARMUP_PER_CONNECTION * connections();

    let closed_secs = ctx.seconds * CLOSED_SHARE;
    let until = Instant::now() + Duration::from_secs_f64(closed_secs);
    let (mut closed, elapsed) = closed_loop(addr, &mix, next, Stop::At(until));
    next += closed.latency_ms.len();
    let answered = closed.tally.attempted - closed.tally.failed;

    let open_requests = (OPEN_RATE_PER_S * (ctx.seconds - closed_secs)) as usize;
    let open = open_loop(addr, &mix, next, open_requests, OPEN_RATE_PER_S);

    let closed_ms = closed.latency_ms.sorted();
    let open_ms = open.latency_ms.sorted();
    let mut metrics = vec![
        Metric::new(
            "queries_per_s",
            answered as f64 / elapsed,
            "1/s",
            closed.latency_ms.len(),
        ),
        Metric::new(
            "query_p50_ms",
            closed_ms.median(),
            "ms",
            closed.latency_ms.len(),
        ),
        Metric::new("mem_bytes_per_triple", mem_per_triple, "B", 1),
    ];
    metrics.extend([
        Metric::tail(
            "query_p99_ms",
            closed_ms.tail(0.99),
            closed.latency_ms.len(),
        ),
        Metric::new("open_p50_ms", open_ms.median(), "ms", open.latency_ms.len()),
        Metric::tail("open_p99_ms", open_ms.tail(0.99), open.latency_ms.len()),
    ]);

    closed.merge(warm);
    closed.merge(open);
    verify_counts(&store, &mix, &closed.seen, &mut closed.tally);
    tally.merge(closed.tally);
    server.shutdown();

    metrics.extend(workload::common_metrics(&setup, &tally));
    Report {
        workload: "log_mix",
        metrics,
        tally,
        config: vec![
            ("server", format!("{:?}", ServerConfig::default())),
            (
                "store",
                format!("{:?}", owql_store::StoreOptions::default()),
            ),
            (
                "load",
                format!(
                    "{} keep-alive connections; closed loop {closed_secs:.1} s, then open loop \
                     at {OPEN_RATE_PER_S} requests/s",
                    connections()
                ),
            ),
        ],
        dataset,
        mix: Some((mix.digest, mix.class_counts, mix.size_counts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_digest_skip_the_cache_flag() {
        let hit = b"{\"epoch\": 0, \"cache_hit\": true, \"count\": 12, \"mappings\": [..]}";
        let miss = b"{\"epoch\": 0, \"cache_hit\": false, \"count\": 12, \"mappings\": [..]}";
        let other = b"{\"epoch\": 0, \"cache_hit\": false, \"count\": 12, \"mappings\": [.]}";
        let (count, digest) = count_and_digest(hit).expect("count present");
        assert_eq!(count, 12);
        assert_eq!(count_and_digest(miss), Some((12, digest)));
        assert_ne!(count_and_digest(other), Some((12, digest)));
        assert_eq!(count_and_digest(b"{\"error\": {}}"), None);
    }

    /// The whole client path against a real server on a small graph:
    /// closed and open loops answer, repeat consistently, and agree
    /// with the in-process row counts.
    #[test]
    fn loops_answer_and_verify_on_a_small_graph() {
        let store = Arc::new(Store::from_graph(&data::social(200, 4)));
        let server = start_server(store.clone());
        let mix = build_mix(4, 200, 600);
        let (mut seen, _) = closed_loop(server.addr(), &mix, 0, Stop::After(150));
        seen.merge(open_loop(server.addr(), &mix, 300, 200, 2000.0));
        assert_eq!(seen.tally.failed, 0, "{:?}", seen.tally.examples);
        assert_eq!(seen.tally.attempted as usize, 150 * connections() + 200);
        assert_eq!(seen.late_ms.len(), 200);
        verify_counts(&store, &mix, &seen.seen, &mut seen.tally);
        assert_eq!(seen.tally.failed, 0, "{:?}", seen.tally.examples);
        server.shutdown();
    }
}
