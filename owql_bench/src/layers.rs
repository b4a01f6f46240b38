//! The traced pass: a fixed sample of every workload replayed stage by
//! stage through the program's public calls, one span per call. It
//! yields the per-layer metrics, checks that the stage self times
//! account for the replay's wall time, and reports what tracing costs.
//! End-to-end metrics never come from here.
//!
//! Every traced run measures every layer, whichever workload it was
//! asked for: the layer table is a property of the commit.

use crate::analytic::{self, Suite};
use crate::churn_rw::WriteGen;
use crate::client::ClientConn;
use crate::data;
use crate::ingest_recover;
use crate::log_mix;
use crate::queries::{build_mix, Mix, NS_SUITE};
use crate::spans::{self_times, SelfTime, Tracer};
use crate::stats::{ns_to_ms, ns_to_us, Metric, Samples};
use crate::workload::{self, Ctx, Tally};
use owql_eval::{check_admission, optimize_with_stats, ExecOpts};
use owql_exec::Pool;
use owql_obs::recorder::OpKind;
use owql_obs::Profile;
use owql_rdf::{Graph, IdRuns, TermDict, Triple};
use owql_server::http::{encode_response_into, parse_request};
use owql_server::json;
use owql_store::{cache_key, QueryCache, QueryRequest, Store, StoreOptions};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `log_mix` requests replayed.
const REQUESTS: usize = 2_000;
/// Open-loop requests sent to see how late the load generator runs.
const OPEN_REQUESTS: usize = 3_000;
/// Rounds of each suite, untraced and traced.
const ROUNDS: usize = 3;
/// Untraced NS-suite rounds behind `eval.round_p75_ms` (a p75 needs 40).
const NS_ROUNDS: usize = 40;
/// Commits replayed on the durable and on the in-memory store.
const COMMITS: usize = 200;
/// WAL records left behind the last checkpoint before the timed reopen.
const WAL_TAIL: usize = 500;
/// Width of the pool behind `exec.*`: fixed, so the numbers compare
/// across machines, and refused on a machine with fewer threads.
const POOL_WIDTH: usize = 2;
/// A root span's own time may be at most this share of its wall time.
const MAX_UNATTRIBUTED: f64 = 0.10;

pub struct LayerTable {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub tracer: Tracer,
}

pub fn run(ctx: &Ctx) -> LayerTable {
    let mut t = LayerTable {
        metrics: Vec::new(),
        tally: workload::correctness_gate(ctx.seed),
        tracer: Tracer::new(true),
    };
    let graph = data::social(data::PEOPLE, ctx.seed);
    rdf_layers(&graph, &mut t);
    let store = Arc::new(Store::from_graph(&graph));
    server_layers(ctx, &store, &mut t);
    eval_layers(&store, &mut t);
    drop(store);
    storage_layers(ctx, &graph, &mut t);

    // The stage self times must account for each replay's wall time.
    let times = self_times(t.tracer.spans());
    let roots = [
        "log_mix.request",
        "analytic.round",
        "churn_rw.write",
        "ingest_recover.cycle",
    ];
    let mut worst: f64 = 1.0;
    for root in roots {
        let SelfTime {
            total_ns, self_ns, ..
        } = times[root];
        let attributed = 1.0 - self_ns as f64 / total_ns as f64;
        t.tally.check(attributed >= 1.0 - MAX_UNATTRIBUTED, || {
            format!("{root}: stages account for only {attributed:.3} of the replay")
        });
        worst = worst.min(attributed);
    }
    t.push("trace.stage_sum_ratio", worst, "ratio", roots.len());
    t
}

impl LayerTable {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

// ---------------------------------------------------------------------
// rdf: dictionary, sorted runs, index build
// ---------------------------------------------------------------------

fn rdf_layers(graph: &Graph, t: &mut LayerTable) {
    let mut build = Samples::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        black_box(Store::from_graph(graph));
        build.push(started.elapsed().as_secs_f64() * 1e3);
    }
    t.push("rdf.build_ms", build.median(), "ms", build.len());

    // Intern every term once fresh and once again (a hit), as a load
    // does; then resolve every id.
    let terms: Vec<_> = graph.iris().into_iter().collect();
    let dict = TermDict::new();
    let started = Instant::now();
    for _ in 0..2 {
        for &term in &terms {
            black_box(dict.intern(term));
        }
    }
    let intern_ns = started.elapsed().as_nanos() as f64 / (2 * terms.len()) as f64;
    t.push("rdf.dict_intern_ns", intern_ns, "ns", 2 * terms.len());
    let started = Instant::now();
    for id in 0..dict.len() {
        black_box(dict.resolve(id as owql_rdf::TermId));
    }
    let resolve_ns = started.elapsed().as_nanos() as f64 / dict.len() as f64;
    t.push("rdf.dict_resolve_ns", resolve_ns, "ns", dict.len());

    // All eight bound/unbound shapes, keyed by rows of the graph; every
    // returned row is read.
    let triples: Vec<Triple> = graph.iter_sorted();
    let runs = IdRuns::build(&triples, &dict);
    let keys: Vec<[owql_rdf::TermId; 3]> = runs.spo().iter().step_by(97).copied().collect();
    let (mut rows, started) = (0u64, Instant::now());
    for shape in 0..8u8 {
        // The full scan returns the whole run: a few calls are enough.
        let calls = if shape == 0 { 8 } else { keys.len() };
        for [s, p, o] in keys.iter().take(calls) {
            let pick = |bit: u8, id| (shape & bit != 0).then_some(id);
            let (found, _) = runs.scan(pick(1, *s), pick(2, *p), pick(4, *o));
            rows += found.len() as u64;
            black_box(found.iter().fold(0, |acc, row| acc ^ row[0] ^ row[2]));
        }
    }
    let scan_ns = started.elapsed().as_nanos() as f64 / rows as f64;
    t.push("rdf.scan_ns_per_row", scan_ns, "ns", rows as usize);
}

// ---------------------------------------------------------------------
// server, parser, lint, optimizer, cache: one /v1/query round trip
// ---------------------------------------------------------------------

/// Replays stream entries `0..REQUESTS` in process, stage by stage, the
/// way the server answers them: decode, parse, admit, snapshot, cache,
/// optimize, evaluate, frame. Rendering the body has no public entry
/// point; the bytes the server sent are framed again instead. Returns
/// the rows of each answer.
fn replay(
    store: &Store,
    mix: &Mix,
    bodies: &[Vec<u8>],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<u64> {
    // The server's store has the default 256-entry cache; this one sees
    // the same requests in the same order, so it hits and misses alike.
    let cache = QueryCache::new(StoreOptions::default().cache_capacity);
    let pool = Pool::sequential();
    let opts = workload::served_opts();
    let mut wire_out = Vec::new();
    let mut rows = Vec::with_capacity(bodies.len());
    for (k, body) in bodies.iter().enumerate() {
        let query = &mix.queries[mix.stream[k] as usize];
        let mut wire_in = query.wire.clone();
        wire_out.clear();
        let id = k as u32;

        let root = tracer.enter("log_mix.request", None, id);
        let request = tracer
            .span("server.http_decode", root, id, || {
                parse_request(&mut wire_in)
            })
            .ok()
            .flatten()
            .expect("the benchmark's own request bytes decode");
        let doc = tracer.span("server.json_decode", root, id, || {
            json::parse(request.body_utf8().expect("ascii body"))
        });
        let doc = doc.expect("the benchmark's own body is JSON");
        let text = doc
            .get("pattern")
            .and_then(|p| p.as_str())
            .expect("pattern");
        let pattern = tracer.span("parser.parse", root, id, || workload::parse(text));
        let admitted = tracer.span("lint.admission", root, id, || {
            check_admission(&pattern, &opts)
        });
        tally.check(admitted.is_ok(), || format!("{text}: refused {admitted:?}"));
        let snapshot = tracer.span("store.snapshot", root, id, || store.snapshot());
        let key = tracer.span("store.cache_key", root, id, || cache_key(&pattern));
        let hit = tracer.span("store.cache_lookup", root, id, || {
            cache.lookup(&key, snapshot.epoch())
        });
        let answers = match hit {
            Some(answers) => answers,
            None => {
                let (optimized, _) =
                    tracer.span("eval.optimize", root, id, || optimize_with_stats(&pattern));
                let request = QueryRequest::with_opts(optimized, ExecOpts::seq().uncached());
                let outcome = tracer.span("eval.run", root, id, || {
                    snapshot.query_request(&request, &pool)
                });
                let answers = outcome.expect("no deadline, no ceiling").mappings;
                tracer.span("store.cache_store", root, id, || {
                    cache.store(key, snapshot.epoch(), answers.clone())
                });
                answers
            }
        };
        tracer.span("server.encode", root, id, || {
            encode_response_into(
                &mut wire_out,
                200,
                "application/json",
                &[],
                body,
                true,
                true,
            )
        });
        tracer.exit(root);
        rows.push(answers.len() as u64);
    }
    rows
}

fn server_layers(ctx: &Ctx, store: &Arc<Store>, t: &mut LayerTable) {
    let mix = build_mix(ctx.seed, data::PEOPLE, log_mix::STREAM_LEN);
    let server = log_mix::start_server(store.clone());
    let cache_before = store.cache_stats();

    // The sample over HTTP, one connection, one request outstanding.
    let mut conn = ClientConn::new(server.addr());
    let (mut bodies, mut http_ns, mut chunked) = (Vec::new(), 0u64, 0u64);
    for k in 0..REQUESTS {
        let wire = &mix.queries[mix.stream[k] as usize].wire;
        let started = Instant::now();
        let reply = conn.request(wire);
        http_ns += started.elapsed().as_nanos() as u64;
        t.tally
            .check(matches!(&reply, Ok(r) if r.status == 200), || {
                format!("traced request {k}: {:?}", reply.as_ref().map(|r| r.status))
            });
        let (was_chunked, body) = reply.map_or((false, Vec::new()), |r| (r.chunked, r.body));
        chunked += u64::from(was_chunked);
        bodies.push(body);
    }
    let cache = store.cache_stats();
    let lookups = (cache.hits + cache.misses) - (cache_before.hits + cache_before.misses);
    let hit_ratio = (cache.hits - cache_before.hits) as f64 / lookups.max(1) as f64;
    t.push(
        "store.cache_hit_ratio",
        hit_ratio,
        "ratio",
        lookups as usize,
    );
    let evictions = cache.evictions - cache_before.evictions;
    t.push("store.cache_evictions", evictions as f64, "count", 1);
    let body_bytes: usize = bodies.iter().map(Vec::len).sum();
    t.push(
        "server.response_bytes",
        body_bytes as f64 / REQUESTS as f64,
        "B",
        REQUESTS,
    );
    t.push(
        "server.chunked_share",
        chunked as f64 / REQUESTS as f64,
        "ratio",
        REQUESTS,
    );

    // The same sample in process: once to warm up, once untraced, once
    // traced. The difference between the last two is what tracing costs.
    let mut scratch = Tally::default();
    replay(store, &mix, &bodies, &mut Tracer::new(false), &mut scratch);
    let started = Instant::now();
    replay(store, &mix, &bodies, &mut Tracer::new(false), &mut scratch);
    let untraced_ns = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let rows = replay(store, &mix, &bodies, &mut t.tracer, &mut t.tally);
    let traced_ns = started.elapsed().as_nanos() as u64;
    t.push(
        "trace.overhead_ratio",
        traced_ns as f64 / untraced_ns as f64,
        "ratio",
        REQUESTS,
    );

    // HTTP row counts must equal the in-process ones.
    for (k, (body, rows)) in bodies.iter().zip(&rows).enumerate() {
        let want = format!("\"count\": {rows},");
        t.tally.check(
            body.windows(want.len()).any(|w| w == want.as_bytes()),
            || format!("traced request {k}: {rows} rows in process, another count over HTTP"),
        );
    }

    let times = self_times(t.tracer.spans());
    for (stage, name) in [
        ("server.http_decode", "server.http_decode_us"),
        ("server.json_decode", "server.json_decode_us"),
        ("server.encode", "server.encode_us"),
        ("parser.parse", "parser.parse_us"),
        ("lint.admission", "lint.admission_us"),
        ("eval.optimize", "eval.optimize_us"),
        ("eval.run", "eval.run_us"),
        ("store.cache_key", "store.cache_key_us"),
        ("store.snapshot", "store.snapshot_us"),
    ] {
        let s = times[stage];
        t.push(
            name,
            ns_to_us(s.self_ns) / s.count as f64,
            "us",
            s.count as usize,
        );
    }
    // Socket, queue, render and write: what the round trip costs beyond
    // the stages above. The untraced replay is the fair subtrahend.
    let edge_ns = http_ns.saturating_sub(untraced_ns);
    t.push(
        "server.edge_us",
        ns_to_us(edge_ns) / REQUESTS as f64,
        "us",
        REQUESTS,
    );
    t.push(
        "trace.unattributed_share",
        edge_ns as f64 / http_ns as f64,
        "ratio",
        REQUESTS,
    );

    // A short open-loop burst: how late does the generator itself run?
    let open = log_mix::open_loop(
        server.addr(),
        &mix,
        REQUESTS,
        OPEN_REQUESTS,
        log_mix::OPEN_RATE_PER_S,
    );
    let late = open.late_ms.sorted().tail(0.99).expect("3,000 samples");
    t.push("loadgen.late_p99_ms", late, "ms", open.late_ms.len());
    t.tally.merge(open.tally);

    let m = server.metrics();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let answered = load(&m.responses_2xx) + load(&m.responses_4xx) + load(&m.responses_5xx);
    t.push(
        "server.shed_ratio",
        load(&m.shed_total) as f64 / answered.max(1) as f64,
        "ratio",
        answered as usize,
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// eval and exec: the two analytic suites
// ---------------------------------------------------------------------

/// `rounds` rounds of `suite` under `opts`, each under a root span with
/// one child per query. Returns per-query times and round times in ms,
/// and the profiles of traced runs.
fn suite_rounds(
    store: &Store,
    suite: Suite,
    opts: ExecOpts,
    pool: &Pool,
    rounds: usize,
    t: &mut LayerTable,
) -> (Vec<Samples>, Samples, Vec<Profile>) {
    let requests = analytic::requests(suite, opts);
    let mut per_query = vec![Samples::new(); requests.len()];
    let (mut round_ms, mut profiles) = (Samples::new(), Vec::new());
    let mut want: Vec<u64> = Vec::new();
    for r in 0..rounds {
        let id = r as u32;
        let root = t.tracer.enter("analytic.round", None, id);
        let started = Instant::now();
        let mut outcomes = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let query_started = Instant::now();
            let outcome = t.tracer.span("eval.query", root, id, || {
                store.query_request(request, pool)
            });
            per_query[i].push(query_started.elapsed().as_secs_f64() * 1e3);
            outcomes.push(outcome.expect("no deadline, no ceiling"));
        }
        round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        t.tracer.exit(root);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let got = workload::digest(&outcome.mappings);
            match want.get(i) {
                Some(&w) => analytic::check_repeat(&mut t.tally, suite.queries()[i].name, got, w),
                None => want.push(got),
            }
            profiles.extend(outcome.profile);
        }
    }
    (per_query, round_ms, profiles)
}

fn eval_layers(store: &Store, t: &mut LayerTable) {
    let seq = Pool::sequential();
    let plain = ExecOpts::seq().uncached();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let (mut scanned, mut answered, mut fallbacks) = (0u64, 0u64, 0u64);
    let mut ns_round_ms = 0.0;
    for (suite, rounds) in [(Suite::Opt, ROUNDS), (Suite::Ns, NS_ROUNDS)] {
        let (per_query, round_ms, _) = suite_rounds(store, suite, plain, &seq, rounds, t);
        for (q, ms) in suite.queries().iter().zip(&per_query) {
            t.push(&format!("eval.{}_ms", q.name), ms.median(), "ms", ms.len());
        }
        untraced_ms += round_ms.median();
        if suite == Suite::Ns {
            ns_round_ms = round_ms.median();
            let p75 = round_ms.sorted().tail(0.75).expect("40 rounds");
            t.push("eval.round_p75_ms", p75, "ms", round_ms.len());
        }
        let (_, round_ms, profiles) = suite_rounds(store, suite, plain.traced(), &seq, ROUNDS, t);
        traced_ms += round_ms.median();
        for p in &profiles {
            scanned += p
                .operators
                .iter()
                .filter(|o| o.kind == OpKind::Scan)
                .map(|o| o.rows_out)
                .sum::<u64>();
            answered += p.answers.unwrap_or(0);
            fallbacks += p.columnar.fallbacks;
        }
    }
    t.push(
        "eval.rows_scanned_per_row_out",
        scanned as f64 / answered.max(1) as f64,
        "ratio",
        ROUNDS,
    );
    t.push("eval.columnar_fallbacks", fallbacks as f64, "count", 1);
    t.push(
        "eval.traced_overhead_ratio",
        traced_ms / untraced_ms,
        "ratio",
        ROUNDS,
    );

    // Parallel evaluation of the NS suite. No end-to-end run is
    // parallel today; this is the baseline a parallel change starts from.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if POOL_WIDTH > hw {
        let why =
            format!("a pool of {POOL_WIDTH} on {hw} hardware thread(s) measures the scheduler");
        for name in ["exec.par_speedup", "exec.steal_ratio", "exec.busy_share"] {
            t.metrics.push(Metric::refused(name, "ratio", why.clone()));
        }
        return;
    }
    let pool = Pool::new(POOL_WIDTH);
    let parallel = ExecOpts::parallel().uncached();
    let (_, round_ms, _) = suite_rounds(store, Suite::Ns, parallel, &pool, ROUNDS, t);
    t.push(
        "exec.par_speedup",
        ns_round_ms / round_ms.median(),
        "ratio",
        ROUNDS,
    );
    let (_, round_ms, profiles) = suite_rounds(store, Suite::Ns, parallel.traced(), &pool, 1, t);
    let (mut chunks, mut steals, mut busy_ns) = (0u64, 0u64, 0u64);
    for p in &profiles {
        chunks += p.pool.chunks;
        steals += p.pool.steals;
        busy_ns += p.pool.workers.iter().map(|w| w.busy_ns).sum::<u64>();
    }
    t.push(
        "exec.steal_ratio",
        steals as f64 / chunks.max(1) as f64,
        "ratio",
        chunks as usize,
    );
    let busy = ns_to_ms(busy_ns) / (POOL_WIDTH as f64 * round_ms.sum());
    t.push("exec.busy_share", busy, "ratio", NS_SUITE.len());
}

// ---------------------------------------------------------------------
// store and persist: commits, checkpoint, recovery
// ---------------------------------------------------------------------

fn storage_layers(ctx: &Ctx, graph: &Graph, t: &mut LayerTable) {
    // The same transactions on an in-memory store: what a commit costs
    // before durability.
    let mem = Store::from_graph(graph);
    let mut gen = WriteGen::new(ctx.seed, graph);
    let mut mem_us = Samples::new();
    for _ in 0..COMMITS {
        let ops = gen.ops();
        let started = Instant::now();
        workload::commit(&mem, ops).expect("in-memory commits cannot fail");
        mem_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    t.push("store.commit_mem_us", mem_us.median(), "us", COMMITS);
    drop(mem);

    // One ingest cycle, step by step.
    let dir = ctx.data_dir("layers");
    let batches = workload::batches(graph);
    let cycle = ingest_recover::cycle(&dir, &batches, &mut t.tally, &mut t.tracer, 0)
        .expect("data directory I/O");
    let segment_bytes = (cycle.disk_bytes - cycle.wal_bytes) as f64;
    t.push(
        "persist.segment_bytes_per_triple",
        segment_bytes / cycle.triples as f64,
        "B",
        1,
    );
    let times = self_times(t.tracer.spans());
    t.push(
        "persist.reopen_segment_ms",
        ns_to_ms(times["persist.reopen"].total_ns),
        "ms",
        1,
    );

    // The writer's transactions on the reopened store, each followed by
    // the read it invalidates.
    let store = ingest_recover::open(&dir).expect("data directory reopens");
    let read = QueryRequest::new(workload::parse(
        &crate::queries::churn_read_set(ctx.seed, data::PEOPLE)[0],
    ));
    let pool = Pool::sequential();
    let wal_before = store.persist_metrics().expect("durable").wal_bytes;
    let mut gen = WriteGen::new(ctx.seed, graph);
    let (mut durable_us, mut user_bytes) = (Samples::new(), 0usize);
    for k in 0..COMMITS {
        let ops = gen.ops();
        user_bytes += ops
            .iter()
            .map(|(_, t)| {
                t.components()
                    .iter()
                    .map(|c| c.as_str().len())
                    .sum::<usize>()
            })
            .sum::<usize>();
        let id = k as u32;
        let root = t.tracer.enter("churn_rw.write", None, id);
        let started = Instant::now();
        let result = t.tracer.span("persist.commit_durable", root, id, || {
            workload::commit(&store, ops.iter().copied())
        });
        durable_us.push(started.elapsed().as_secs_f64() * 1e6);
        t.tally
            .check(result.is_ok(), || format!("traced commit {k}: {result:?}"));
        let outcome = t.tracer.span("store.query_request", root, id, || {
            store.query_request(&read, &pool)
        });
        t.tracer.exit(root);
        t.tally.check(outcome.is_ok_and(|o| !o.cache_hit), || {
            format!("traced commit {k}: the read after it was not invalidated")
        });
    }
    t.push(
        "persist.commit_durable_us",
        durable_us.median(),
        "us",
        COMMITS,
    );
    t.push(
        "store.worst_commit_ms",
        durable_us.max() / 1e3,
        "ms",
        COMMITS,
    );
    let wal_bytes = store.persist_metrics().expect("durable").wal_bytes - wal_before;
    t.push(
        "persist.wal_bytes_per_user_byte",
        wal_bytes as f64 / user_bytes as f64,
        "ratio",
        COMMITS,
    );

    let started = Instant::now();
    store.checkpoint().expect("checkpoint");
    t.push(
        "persist.checkpoint_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    );

    // Leave a WAL tail behind the checkpoint and time the recovery.
    for _ in 0..WAL_TAIL {
        workload::commit(&store, gen.ops()).expect("tail commit");
    }
    let metrics = store.metrics();
    t.push("store.compactions", metrics.compactions as f64, "count", 1);
    let checkpoints = metrics.persist.map_or(0, |p| p.checkpoints);
    t.push("persist.checkpoints", checkpoints as f64, "count", 1);
    let len = store.len();
    drop(store);
    let started = Instant::now();
    let store = ingest_recover::open(&dir).expect("data directory reopens");
    t.push(
        "persist.reopen_wal_replay_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    );
    let replayed = store.recovery_report().map_or(0, |r| r.replayed_records);
    t.tally
        .check(store.len() == len && replayed as usize == WAL_TAIL, || {
            format!(
                "recovered {} triples from {replayed} records, dropped {len}",
                store.len()
            )
        });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
