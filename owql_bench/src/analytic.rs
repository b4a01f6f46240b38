//! `analytic_opt` and `analytic_ns`: rounds over an unanchored suite
//! through `Store::query_request`, sequential, uncached, one thread;
//! the server is bypassed.
//!
//! On `analytic_opt` the left-outer join does nearly all the work. On
//! `analytic_ns` — the NS phrasings of the same information needs plus
//! the wide UNIONs and the two-hop join — join, UNION merge,
//! NS-maximality and dictionary decode dominate and OPT does nothing.
//! An OPT optimisation must show on the first and predict no change on
//! the second, and vice versa; together they are the paper's §8
//! question at scale.

use crate::data;
use crate::queries::{SuiteQuery, NS_SUITE, OPT_SUITE};
use crate::stats::{Metric, Samples};
use crate::workload::{self, Ctx, Report, Tally};
use owql_eval::ExecOpts;
use owql_exec::Pool;
use owql_store::{QueryRequest, Store};
use std::time::Instant;

/// Which suite a run goes over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    Opt,
    Ns,
}

impl Suite {
    pub fn queries(self) -> &'static [SuiteQuery] {
        match self {
            Suite::Opt => &OPT_SUITE,
            Suite::Ns => &NS_SUITE,
        }
    }

    pub fn workload(self) -> &'static str {
        match self {
            Suite::Opt => "analytic_opt",
            Suite::Ns => "analytic_ns",
        }
    }
}

/// The parsed requests of a suite under `opts`.
pub fn requests(suite: Suite, opts: ExecOpts) -> Vec<QueryRequest> {
    suite
        .queries()
        .iter()
        .map(|q| QueryRequest::with_opts(workload::parse(q.text), opts))
        .collect()
}

/// One timed pass over a suite.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Per-query time in ms, in suite order.
    pub query_ms: Vec<f64>,
    pub rows: u64,
    pub digests: Vec<u64>,
}

impl Round {
    pub fn total_ms(&self) -> f64 {
        self.query_ms.iter().sum()
    }
}

/// Runs every request once; only the `query_request` calls are timed
/// (digesting the answers is the benchmark's work, not the program's).
pub fn round(store: &Store, requests: &[QueryRequest], pool: &Pool) -> Round {
    let mut out = Round::default();
    for request in requests {
        let started = Instant::now();
        let outcome = store
            .query_request(request, pool)
            .expect("no deadline, no ceiling");
        out.query_ms.push(started.elapsed().as_secs_f64() * 1e3);
        out.rows += outcome.mappings.len() as u64;
        out.digests.push(workload::digest(&outcome.mappings));
    }
    out
}

pub fn run(ctx: &Ctx, suite: Suite) -> Report {
    let mut tally = workload::correctness_gate(ctx.seed);

    let mut mem_per_triple = 0.0;
    let ((graph, store), setup) = workload::repeat_setup(
        5,
        |i| {
            let (graph, store, mem) = workload::build_in_memory(ctx.seed);
            if i == 0 {
                mem_per_triple = mem;
            }
            (graph, store)
        },
        drop,
    );
    let dataset = data::dataset_digest(&graph);
    let pool = Pool::sequential();
    let opts = ExecOpts::seq().uncached();
    let requests = requests(suite, opts);

    // Warm-up round, untimed; it also fixes the digests every timed
    // round must repeat.
    let warm = round(&store, &requests, &pool);
    if suite == Suite::Opt {
        // At full scale too, each OPT query equals its NS phrasing.
        let ns = round(
            &store,
            &self::requests(Suite::Ns, opts)[..OPT_SUITE.len()],
            &pool,
        );
        for (i, q) in OPT_SUITE.iter().enumerate() {
            tally.check(warm.digests[i] == ns.digests[i], || {
                format!("{} and its NS phrasing differ at full scale", q.name)
            });
        }
    }

    let mut round_ms = Samples::new();
    let mut per_query: Vec<Samples> = vec![Samples::new(); requests.len()];
    let mut rows = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let r = round(&store, &requests, &pool);
        for (i, q) in suite.queries().iter().enumerate() {
            per_query[i].push(r.query_ms[i]);
            check_repeat(&mut tally, q.name, r.digests[i], warm.digests[i]);
        }
        round_ms.push(r.total_ms());
        rows += r.rows;
    }

    let slowest = per_query.iter().map(Samples::median).fold(0.0, f64::max);
    let mut metrics = vec![
        Metric::new("round_p50_ms", round_ms.median(), "ms", round_ms.len()),
        Metric::new(
            "rows_per_s",
            rows as f64 / (round_ms.sum() / 1e3),
            "1/s",
            round_ms.len(),
        ),
        Metric::new("slowest_query_p50_ms", slowest, "ms", round_ms.len()),
        Metric::new("mem_bytes_per_triple", mem_per_triple, "B", 1),
    ];
    metrics.extend(workload::common_metrics(&setup, &tally));
    Report {
        workload: suite.workload(),
        metrics,
        tally,
        config: vec![
            (
                "store",
                format!("{:?}", owql_store::StoreOptions::default()),
            ),
            ("exec", format!("{opts:?}")),
            (
                "load",
                "one thread, rounds over the suite back to back".to_owned(),
            ),
        ],
        dataset,
        mix: None,
    }
}

/// Every repeat of one query at one epoch must give the same rows.
pub fn check_repeat(tally: &mut Tally, name: &str, got: u64, want: u64) {
    tally.check(got == want, || {
        format!("{name}: a repeat answered differently")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_and_pairs_agree_on_a_small_graph() {
        let store = Store::from_graph(&data::social(300, 9));
        let pool = Pool::sequential();
        let opts = ExecOpts::seq().uncached();
        let opt = round(&store, &requests(Suite::Opt, opts), &pool);
        let ns = round(&store, &requests(Suite::Ns, opts), &pool);
        assert_eq!(
            opt.digests,
            round(&store, &requests(Suite::Opt, opts), &pool).digests
        );
        assert_eq!(opt.digests[..], ns.digests[..3]);
        assert_eq!(opt.query_ms.len(), 3);
        assert_eq!(ns.query_ms.len(), 6);
        assert!(ns.rows > opt.rows);
    }
}
