//! `ingest_recover`: cycles of open an empty durable directory, ingest
//! `social_100k` in 1,000-triple commits, checkpoint, drop, open again
//! and answer one scan. It measures what a storage-layout change gates
//! on — ingest rate, cold start, bytes per triple — and nothing else
//! does.

use crate::data;
use crate::queries::SCAN_QUERY;
use crate::spans::Tracer;
use crate::stats::{Metric, Samples};
use crate::workload::{self, Ctx, Report, Tally};
use owql_eval::ExecOpts;
use owql_exec::Pool;
use owql_rdf::Triple;
use owql_store::{PersistConfig, QueryRequest, Store, StoreOptions, WAL_FILE};
use std::path::Path;
use std::time::Instant;

/// The default flush policy: fsync on every commit. A cycle's 101
/// commits stay under the auto-checkpoint threshold, so its one
/// checkpoint is the `checkpoint()` call.
pub fn config() -> PersistConfig {
    PersistConfig::default()
}

pub fn open(dir: &Path) -> std::io::Result<Store> {
    Store::open(dir, StoreOptions::default(), config())
}

fn scan(store: &Store) -> (usize, u64) {
    let request = QueryRequest::with_opts(workload::parse(SCAN_QUERY), ExecOpts::seq().uncached());
    let answers = store
        .query_request(&request, &Pool::sequential())
        .expect("no deadline")
        .mappings;
    (answers.len(), workload::digest(&answers))
}

/// What one cycle measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cycle {
    pub ingest_s: f64,
    pub checkpoint_ms: f64,
    pub reopen_ms: f64,
    /// Everything in the data directory after the checkpoint.
    pub disk_bytes: u64,
    /// The write-ahead log's part of `disk_bytes`.
    pub wal_bytes: u64,
    pub triples: usize,
}

/// One cycle on the empty directory `dir`, each step under a span of
/// `tracer`. The reopened store must hold what was dropped.
pub fn cycle(
    dir: &Path,
    batches: &[Vec<Triple>],
    tally: &mut Tally,
    tracer: &mut Tracer,
    request: u32,
) -> std::io::Result<Cycle> {
    let root = tracer.enter("ingest_recover.cycle", None, request);
    let mut out = Cycle::default();

    let started = Instant::now();
    let store = tracer.span("persist.open_empty", root, request, || open(dir))?;
    let ingest = tracer.enter("persist.ingest", root, request);
    for batch in batches {
        let result = workload::commit_batch(&store, batch);
        tally.check(result.is_ok(), || format!("ingest commit: {result:?}"));
    }
    tracer.exit(ingest);
    out.ingest_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    tracer.span("persist.checkpoint", root, request, || store.checkpoint())?;
    out.checkpoint_ms = started.elapsed().as_secs_f64() * 1e3;

    let dropped = tracer.span("eval.scan", root, request, || scan(&store));
    out.triples = store.len();
    tracer.span("store.drop", root, request, || drop(store));
    out.disk_bytes = workload::dir_bytes(dir);
    out.wal_bytes = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());

    let started = Instant::now();
    let store = tracer.span("persist.reopen", root, request, || open(dir))?;
    let reopened = tracer.span("eval.scan", root, request, || scan(&store));
    out.reopen_ms = started.elapsed().as_secs_f64() * 1e3;
    tally.check(store.len() == out.triples && reopened == dropped, || {
        format!(
            "reopened to {} triples, scan {reopened:?}; dropped {} triples, scan {dropped:?}",
            store.len(),
            out.triples
        )
    });
    tracer.span("store.drop", root, request, || drop(store));
    tracer.exit(root);
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut tally = workload::correctness_gate(ctx.seed);
    let dir = ctx.data_dir("ingest_recover");

    // Nothing is loaded before the clock starts: set-up is the data.
    let ((graph, batches), setup) = workload::repeat_setup(
        5,
        |_| {
            let graph = data::social(data::PEOPLE, ctx.seed);
            let batches = workload::batches(&graph);
            (graph, batches)
        },
        drop,
    );
    let dataset = data::dataset_digest(&graph);

    let mut tracer = Tracer::new(false);
    let mut run_cycle = |tally: &mut Tally| {
        let _ = std::fs::remove_dir_all(&dir);
        cycle(&dir, &batches, tally, &mut tracer, 0).expect("data directory I/O")
    };
    run_cycle(&mut tally); // warm-up, untimed

    let (mut rate, mut reopen, mut checkpoint) = (Samples::new(), Samples::new(), Samples::new());
    let mut last = Cycle::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        last = run_cycle(&mut tally);
        rate.push(last.triples as f64 / last.ingest_s);
        reopen.push(last.reopen_ms);
        checkpoint.push(last.checkpoint_ms);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let cycles = rate.len();
    let mut metrics = vec![
        Metric::new("ingest_triples_per_s", rate.median(), "1/s", cycles),
        Metric::new("reopen_ms", reopen.median(), "ms", cycles),
        Metric::new("checkpoint_ms", checkpoint.median(), "ms", cycles),
        Metric::new(
            "disk_bytes_per_triple",
            last.disk_bytes as f64 / last.triples.max(1) as f64,
            "B",
            1,
        ),
    ];
    metrics.extend(workload::common_metrics(&setup, &tally));
    Report {
        workload: "ingest_recover",
        metrics,
        tally,
        config: vec![
            ("store", format!("{:?}", StoreOptions::default())),
            ("persist", format!("{:?}", config())),
            (
                "load",
                format!(
                    "one thread; cycles of {} commits of {} triples, checkpoint, drop, reopen, scan",
                    batches.len(),
                    workload::COMMIT_TRIPLES
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
    use crate::spans::self_times;

    #[test]
    fn a_cycle_reopens_to_what_it_dropped_and_its_spans_nest() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-data/cycle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let graph = data::social(300, 6);
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(true);
        let c = cycle(&dir, &workload::batches(&graph), &mut tally, &mut tracer, 1)
            .expect("temp dir I/O");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(tally.failed, 0, "{:?}", tally.examples);
        assert_eq!(c.triples, graph.len());
        assert!(c.disk_bytes > 0 && c.ingest_s > 0.0 && c.reopen_ms > 0.0);
        let times = self_times(tracer.spans());
        assert_eq!(times["eval.scan"].count, 2);
        // The steps cover nearly all of the cycle.
        let cycle = times["ingest_recover.cycle"];
        assert!(cycle.self_ns * 10 < cycle.total_ns, "{cycle:?}");
    }
}
