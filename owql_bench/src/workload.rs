//! What the five workloads share: the run context, failure tally,
//! set-up repetition, answer digests and the correctness gate.

use crate::data::{self, DatasetDigest, FNV_SEED};
use crate::queries::{self, SuiteQuery};
use crate::stats::{Metric, Samples};
use owql_algebra::{MappingSet, Pattern};
use owql_eval::ExecOpts;
use owql_exec::Pool;
use owql_lint::ComplexityClass;
use owql_parser::parse_pattern;
use owql_rdf::{Graph, Triple};
use owql_store::{QueryRequest, Store};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One run's inputs.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured part of a workload.
    pub seconds: f64,
    /// Where durable workloads keep their data directories.
    pub data_root: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory for one durable store.
    pub fn data_dir(&self, name: &str) -> PathBuf {
        let dir = self
            .data_root
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Attempts and failures. A failure is anything a user would call
/// wrong: a non-2xx reply, an I/O error, a wrong or changing answer.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub examples: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` attempts that passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a failure of an attempt already counted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 8 {
            self.examples.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 8 {
                self.examples.push(e);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload measured.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// The configuration in force, as `(what, value)`.
    pub config: Vec<(&'static str, String)>,
    pub dataset: DatasetDigest,
    /// `(hash, per-class requests, per-size requests)` of the query
    /// mix, for the workload that has one.
    pub mix: Option<(u64, [usize; 6], [usize; 3])>,
}

/// Runs `build` `times` times, tearing down all but the last result,
/// and returns that result with every set-up time in seconds. The
/// reported set-up time is their median.
pub fn repeat_setup<T>(
    times: usize,
    mut build: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Samples) {
    let mut secs = Samples::new();
    let mut last = None;
    for i in 0..times {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(build(i));
        secs.push(started.elapsed().as_secs_f64());
    }
    (last.expect("times >= 1"), secs)
}

/// Generates `social_100k` and loads it with `Store::from_graph`,
/// returning the RSS growth across the load per triple.
pub fn build_in_memory(seed: u64) -> (Graph, Store, f64) {
    let graph = data::social(data::PEOPLE, seed);
    let (before, _) = data::rss_bytes();
    let store = Store::from_graph(&graph);
    let (after, _) = data::rss_bytes();
    let per_triple = after.saturating_sub(before) as f64 / graph.len() as f64;
    (graph, store, per_triple)
}

/// Triples per commit when a durable store is loaded.
pub const COMMIT_TRIPLES: usize = 1_000;

/// The graph cut into [`COMMIT_TRIPLES`]-sized transactions, in sorted
/// order so that every load of one graph writes the same bytes.
pub fn batches(graph: &Graph) -> Vec<Vec<Triple>> {
    graph
        .iter_sorted()
        .chunks(COMMIT_TRIPLES)
        .map(<[Triple]>::to_vec)
        .collect()
}

/// Commits `(insert?, triple)` ops as one transaction.
pub fn commit(store: &Store, ops: impl IntoIterator<Item = (bool, Triple)>) -> io::Result<()> {
    let mut tx = store.begin();
    for (insert, t) in ops {
        if insert {
            tx.insert(t);
        } else {
            tx.delete(t);
        }
    }
    store.try_commit(tx).map(drop)
}

/// Commits one batch of inserts.
pub fn commit_batch(store: &Store, batch: &[Triple]) -> io::Result<()> {
    commit(store, batch.iter().map(|&t| (true, t)))
}

/// Bytes of the regular files directly in `dir` (a data directory is
/// flat: the WAL and the segment generations).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The metrics every workload reports the same way.
pub fn common_metrics(setup: &Samples, tally: &Tally) -> Vec<Metric> {
    let (_, peak) = data::rss_bytes();
    vec![
        Metric::new("setup_s", setup.median(), "s", setup.len()),
        Metric::new("rss_peak_mb", peak as f64 / (1024.0 * 1024.0), "MB", 1),
        Metric::new(
            "error_rate",
            tally.error_rate(),
            "ratio",
            tally.attempted as usize,
        ),
    ]
}

/// The options a `/v1/query` request of the mix runs under on the
/// server: optimizer on, an admission ceiling that admits every class.
pub fn served_opts() -> ExecOpts {
    ExecOpts::seq()
        .optimized()
        .with_max_class(ComplexityClass::Pspace)
}

pub fn parse(text: &str) -> Pattern {
    parse_pattern(text).unwrap_or_else(|e| panic!("benchmark query does not parse: {text}: {e}"))
}

/// Order-independent digest of an answer set: the wrapping sum of a
/// hash per row. Values hash by interner id, so a digest compares
/// answers inside one process only.
pub fn digest(answers: &MappingSet) -> u64 {
    answers.iter().fold(answers.len() as u64, |acc, row| {
        let mut h = FNV_SEED;
        for (var, value) in row.iter() {
            h = data::fnv1a(h, var.name().as_bytes());
            h = data::fnv1a(h, &value.id().to_le_bytes());
        }
        // Finalize, so that the sum does not cancel structure.
        h ^= h >> 32;
        acc.wrapping_add(h.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    })
}

/// The correctness gate: before anything is timed, every query
/// template of every workload is evaluated on a ≈2k-triple graph from
/// the same generator and must equal the reference evaluator; each
/// OPT/NS pair must return identical answers.
pub fn correctness_gate(seed: u64) -> Tally {
    let graph = data::social(data::GATE_PEOPLE, seed);
    let store = Store::from_graph(&graph);
    let pool = Pool::sequential();
    let mut tally = Tally::default();
    let run = |text: &str, opts: ExecOpts, tally: &mut Tally| -> MappingSet {
        let pattern = parse(text);
        let got = store
            .query_request(&QueryRequest::with_opts(pattern.clone(), opts), &pool)
            .expect("no deadline, no effective ceiling")
            .mappings;
        let want = owql_eval::evaluate(&pattern, &graph);
        tally.check(got == want, || {
            format!("gate: {text} differs from the reference")
        });
        got
    };

    let plain = ExecOpts::seq().uncached();
    let mut suite = |qs: &[SuiteQuery]| -> Vec<MappingSet> {
        qs.iter().map(|q| run(q.text, plain, &mut tally)).collect()
    };
    let opt = suite(&queries::OPT_SUITE);
    let ns = suite(&queries::NS_SUITE);
    for (i, q) in queries::OPT_SUITE.iter().enumerate() {
        tally.check(opt[i] == ns[i], || {
            format!("gate: {} and its NS phrasing differ", q.name)
        });
    }
    run(queries::SCAN_QUERY, plain, &mut tally);

    let served = served_opts().uncached();
    let people = data::GATE_PEOPLE as u32;
    for (_, _, template) in queries::TEMPLATES {
        for (c, d) in [(0, 1), (people / 2, people / 3), (people - 1, 7)] {
            run(&queries::instantiate(template, c, d), served, &mut tally);
        }
    }
    for text in queries::churn_read_set(seed, data::GATE_PEOPLE) {
        run(&text, plain, &mut tally);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_on_two_seeds() {
        for seed in [1, 2] {
            let tally = correctness_gate(seed);
            assert_eq!(tally.failed, 0, "{:?}", tally.examples);
            assert!(tally.attempted > 100);
        }
    }

    #[test]
    fn digest_ignores_order_and_sees_content() {
        let g = data::social(50, 3);
        let all = owql_eval::evaluate(&parse("(?s, follows, ?o)"), &g);
        let rows = all.iter_sorted();
        let forward = MappingSet::from_iter_mappings(rows.iter().cloned());
        let backward = MappingSet::from_iter_mappings(rows.iter().rev().cloned());
        assert_eq!(digest(&forward), digest(&backward));
        let fewer = MappingSet::from_iter_mappings(rows.iter().skip(1).cloned());
        assert_ne!(digest(&forward), digest(&fewer));
    }

    #[test]
    fn repeat_setup_tears_down_all_but_the_last() {
        let mut torn = Vec::new();
        let (last, secs) = repeat_setup(3, |i| i * 10, |t| torn.push(t));
        assert_eq!((last, secs.len(), torn), (20, 3, vec![0, 10]));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.passed(8);
        t.check(true, || unreachable!());
        t.check(false, || "wrong".to_owned());
        assert_eq!((t.attempted, t.failed), (10, 1));
        assert_eq!(t.error_rate(), 0.1);
        assert_eq!(t.examples, ["wrong"]);
    }
}
