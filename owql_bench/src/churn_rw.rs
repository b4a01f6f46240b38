//! `churn_rw`: writes beside reads on a durable store. One writer
//! commits on a fixed schedule while one reader asks a small cached
//! query set in a closed loop, so a read-side gain that costs commits,
//! or a checkpoint stall in the commit tail, shows. The 32-query read
//! set fits the cache, so its hit rate is set by epoch invalidation
//! alone.

use crate::data;
use crate::queries::churn_read_set;
use crate::rng::Rng;
use crate::stats::{Metric, Samples};
use crate::workload::{self, Ctx, Report, Tally};
use owql_exec::Pool;
use owql_rdf::{Graph, Triple};
use owql_store::{PersistConfig, QueryRequest, Store, StoreOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The writer's schedule: one commit every 10 ms, whatever the store
/// does.
pub const COMMITS_PER_S: f64 = 100.0;
/// Mutations per commit, 70% inserts and 30% deletes.
pub const OPS_PER_COMMIT: usize = 10;
const INSERT_SHARE: f64 = 0.7;
/// The reader keeps the latency of one query in this many: millions of
/// samples a run would make the benchmark's own buffers the process's
/// peak memory. 33 is coprime to the 32-query read set, so every query
/// is sampled alike.
const TIMED_EVERY: u64 = 33;

/// The flush policy of every durable store in the benchmark: fsync on
/// every commit, checkpoints on the background indexer. `churn_rw`
/// lowers the checkpoint threshold so that several cycles complete in
/// a run.
pub fn persist_config() -> PersistConfig {
    PersistConfig::default().checkpoint_every(500)
}

/// Opens a durable store on `dir` and loads `graph` into it in
/// 1,000-triple commits, then checkpoints.
pub fn preload(dir: &Path, graph: &Graph) -> Store {
    let store =
        Store::open(dir, StoreOptions::default(), persist_config()).expect("data directory opens");
    for batch in workload::batches(graph) {
        workload::commit_batch(&store, &batch).expect("preload commit");
    }
    store.checkpoint().expect("preload checkpoint");
    store
}

/// The writer's transactions: inserts of new follow edges, emails and
/// birthplaces, deletes of triples of the loaded graph.
#[derive(Debug)]
pub struct WriteGen {
    rng: Rng,
    loaded: Vec<Triple>,
}

impl WriteGen {
    pub fn new(seed: u64, graph: &Graph) -> WriteGen {
        WriteGen {
            rng: Rng::fork(seed, 0xC4A2),
            loaded: graph.iter_sorted(),
        }
    }

    pub fn ops(&mut self) -> Vec<(bool, Triple)> {
        (0..OPS_PER_COMMIT)
            .map(|_| {
                if !self.rng.chance(INSERT_SHARE) {
                    return (false, self.loaded[self.rng.below(self.loaded.len())]);
                }
                let a = format!("person{}", self.rng.below(data::PEOPLE));
                let t = match self.rng.below(3) {
                    0 => {
                        let b = format!("person{}", self.rng.below(data::PEOPLE));
                        Triple::new(a.as_str(), "follows", b.as_str())
                    }
                    1 => Triple::new(a.as_str(), "email", format!("{a}@example.net").as_str()),
                    _ => Triple::new(a.as_str(), "was_born_in", "Chile"),
                };
                (true, t)
            })
            .collect()
    }
}

/// Open-loop writer: commit `k` is due at `k / COMMITS_PER_S`; its
/// latency runs from that due time.
fn writer(store: &Store, gen: &mut WriteGen, seconds: f64, tally: &mut Tally) -> Samples {
    let mut latency_ms = Samples::new();
    let started = Instant::now();
    for k in 0..(seconds * COMMITS_PER_S) as usize {
        let ops = gen.ops();
        let due = started + Duration::from_secs_f64(k as f64 / COMMITS_PER_S);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let result = workload::commit(store, ops);
        latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        tally.check(result.is_ok(), || format!("commit {k}: {result:?}"));
    }
    latency_ms
}

/// What the reader saw.
struct Reads {
    answered: u64,
    /// Latency of every [`TIMED_EVERY`]th query, in ms.
    latency_ms: Samples,
    /// Latency of every query that missed the cache — the read a commit
    /// had just invalidated — in ms.
    miss_ms: Samples,
}

/// Closed-loop reader over the cached read set until `stop`. Every
/// repeat of one query at one epoch must give the same rows.
fn reader(store: &Store, requests: &[QueryRequest], stop: &AtomicBool, tally: &mut Tally) -> Reads {
    let pool = Pool::sequential();
    let (mut latency_ms, mut miss_ms) = (Samples::new(), Samples::new());
    let mut last: Vec<Option<(u64, u64)>> = vec![None; requests.len()];
    let (mut answered, mut mismatches) = (0u64, 0u64);
    'run: loop {
        for (i, request) in requests.iter().enumerate() {
            if stop.load(Ordering::Relaxed) {
                break 'run;
            }
            let started = Instant::now();
            let outcome = store.query_request(request, &pool).expect("no deadline");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if answered % TIMED_EVERY == 0 {
                latency_ms.push(ms);
            }
            if !outcome.cache_hit {
                miss_ms.push(ms);
            }
            answered += 1;
            let now = (outcome.epoch, workload::digest(&outcome.mappings));
            if last[i].is_some_and(|(epoch, digest)| epoch == now.0 && digest != now.1) {
                mismatches += 1;
            }
            last[i] = Some(now);
        }
    }
    tally.passed(answered);
    for _ in 0..mismatches {
        tally.fail("a cached read changed within one epoch".to_owned());
    }
    Reads {
        answered,
        latency_ms,
        miss_ms,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut tally = workload::correctness_gate(ctx.seed);
    let dir = ctx.data_dir("churn_rw");

    let ((graph, store), setup) = workload::repeat_setup(
        3,
        |_| {
            let graph = data::social(data::PEOPLE, ctx.seed);
            let _ = std::fs::remove_dir_all(&dir);
            let store = preload(&dir, &graph);
            (graph, store)
        },
        drop,
    );
    let dataset = data::dataset_digest(&graph);
    let disk_per_triple = workload::dir_bytes(&dir) as f64 / store.len() as f64;
    let checkpoints_before = store.persist_metrics().map_or(0, |m| m.checkpoints);

    let requests: Vec<QueryRequest> = churn_read_set(ctx.seed, data::PEOPLE)
        .iter()
        .map(|text| QueryRequest::new(workload::parse(text)))
        .collect();
    let mut gen = WriteGen::new(ctx.seed, &graph);
    let stop = AtomicBool::new(false);
    let (mut write_tally, mut read_tally) = (Tally::default(), Tally::default());
    let started = Instant::now();
    let (commit_ms, (reads, read_secs)) = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            let read = reader(&store, &requests, &stop, &mut read_tally);
            (read, started.elapsed().as_secs_f64())
        });
        let commit_ms = writer(&store, &mut gen, ctx.seconds, &mut write_tally);
        stop.store(true, Ordering::Relaxed);
        (commit_ms, reading.join().expect("reader panicked"))
    });
    tally.merge(write_tally);
    tally.merge(read_tally);

    let persist = store.persist_metrics().expect("durable store");
    let cache = store.cache_stats();
    let commits = commit_ms.sorted();
    let timed = reads.latency_ms.len();
    let read_ms = reads.latency_ms.sorted();
    let mut metrics = vec![
        Metric::new(
            "queries_per_s",
            reads.answered as f64 / read_secs,
            "1/s",
            reads.answered as usize,
        ),
        Metric::new("query_p50_ms", read_ms.median(), "ms", timed),
        Metric::tail("query_p99_ms", read_ms.tail(0.99), timed),
        // The read side's slow path: the first read after a commit
        // evaluates instead of hitting the cache.
        Metric::new(
            "read_miss_p50_ms",
            reads.miss_ms.median(),
            "ms",
            reads.miss_ms.len(),
        ),
        Metric::new("commit_p50_ms", commits.median(), "ms", commit_ms.len()),
        // Reported, not bounded: ≈5% of commits wait one 4 ms scheduler
        // tick while the checkpoint thread is busy (three busy threads,
        // two cores), and how many do varies severalfold between
        // identical runs.
        Metric::tail("commit_p99_ms", commits.tail(0.99), commit_ms.len()),
        Metric::new("disk_bytes_per_triple", disk_per_triple, "B", 1),
        Metric::new(
            "checkpoints",
            (persist.checkpoints - checkpoints_before) as f64,
            "count",
            1,
        ),
        Metric::new(
            "cache_hit_ratio",
            cache.hit_rate(),
            "ratio",
            reads.answered as usize,
        ),
    ];
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    metrics.extend(workload::common_metrics(&setup, &tally));
    Report {
        workload: "churn_rw",
        metrics,
        tally,
        config: vec![
            ("store", format!("{:?}", StoreOptions::default())),
            ("persist", format!("{:?}", persist_config())),
            (
                "load",
                format!(
                    "one writer, open loop at {COMMITS_PER_S} commits/s of {OPS_PER_COMMIT} ops; \
                     one reader, closed loop over {} cached queries",
                    requests.len()
                ),
            ),
        ],
        dataset,
        mix: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_gen_is_deterministic_and_mixes_inserts_and_deletes() {
        let g = data::social(100, 2);
        assert_eq!(WriteGen::new(2, &g).ops(), WriteGen::new(2, &g).ops());
        assert_ne!(WriteGen::new(2, &g).ops(), WriteGen::new(3, &g).ops());
        let mut gen = WriteGen::new(2, &g);
        let many: Vec<_> = (0..200).flat_map(|_| gen.ops()).collect();
        let inserts = many.iter().filter(|(insert, _)| *insert).count() as f64 / 2000.0;
        assert!((0.65..0.75).contains(&inserts), "{inserts}");
        assert!(many.iter().filter(|(i, _)| !i).all(|(_, t)| g.contains(t)));
    }
}
