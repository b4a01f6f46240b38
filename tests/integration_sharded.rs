//! Differential tests for the sharded scatter-gather path: with a
//! [`ShardRuntime`] enabled, parallel-mode queries that fan out across
//! subject-hash shards must produce exactly the answers of the
//! reference evaluator — on every random pattern, every shard count,
//! and every churned store snapshot (base segments + add tiers +
//! deletes), with all partials pinned to one snapshot epoch.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;

fn universe() -> Vec<Triple> {
    let subjects = ["a", "b", "c", "d", "e", "f"];
    let predicates = ["p", "q", "r"];
    let objects = ["a", "b", "c", "d", "e", "f"];
    let mut triples = Vec::new();
    for s in subjects {
        for p in predicates {
            for o in objects {
                triples.push(Triple::new(s, p, o));
            }
        }
    }
    triples
}

fn pattern_config() -> PatternConfig {
    PatternConfig {
        allowed: Operators::NS_SPARQL.with(Operators::MINUS),
        vars: (0..3).map(|i| Variable::new(&format!("sv{i}"))).collect(),
        iris: ["a", "b", "c", "d", "e", "f", "p", "q", "r", "zzz_absent"]
            .iter()
            .map(|s| Iri::new(s))
            .collect(),
        max_depth: 3,
        var_probability: 0.5,
    }
}

/// Random inserts and deletes in small transactions, so snapshots
/// carry base runs, an add tier, and delete sets at once — the state
/// the shard partitioner has to slice consistently.
fn churn(store: &Store, rng: &mut StdRng, n_ops: usize) {
    let pool = universe();
    let mut remaining = n_ops;
    while remaining > 0 {
        let batch = rng.gen_range(1..=remaining.min(7));
        let mut tx = store.begin();
        for _ in 0..batch {
            let t = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.6) {
                tx.insert(t);
            } else {
                tx.delete(t);
            }
        }
        store.commit(tx);
        remaining -= batch;
    }
}

fn churned_store(seed: u64, n_ops: usize) -> Store {
    let mut rng = StdRng::seed_from_u64(seed);
    let store = Store::with_options(StoreOptions {
        min_compact: 8,
        compact_fraction: 0.3,
        cache_capacity: 0,
    });
    churn(&store, &mut rng, n_ops);
    store
}

/// The request every differential case runs: parallel, uncached — the
/// envelope the scatter-gather path engages on.
fn parallel_request(p: &Pattern) -> QueryRequest {
    QueryRequest::with_opts(p.clone(), ExecOpts::parallel().uncached())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Acceptance criterion: for random NS-SPARQL+MINUS patterns over
    /// churned snapshots, `Store::query_request` with sharding enabled
    /// at 1, 2, and 8 shards answers exactly like the reference
    /// evaluator on the same snapshot's graph.
    #[test]
    fn sharded_matches_unsharded_on_churned_snapshots(
        store_seed in 0..1000u64,
        pattern_seed in 0..1000u64,
    ) {
        let store = churned_store(0x5AD ^ store_seed, 50);
        let p = random_pattern(&pattern_config(), pattern_seed);
        let req = parallel_request(&p);
        let reference = evaluate(&p, &store.snapshot().to_graph());
        for shards in [1usize, 2, 8] {
            store.enable_sharding(shards, 1);
            let sharded = store
                .query_request(&req, &Pool::new(2))
                .expect("unlimited budget cannot time out")
                .mappings;
            prop_assert_eq!(
                &sharded,
                &reference,
                "scatter-gather diverged at {} shards, pattern {}",
                shards,
                p
            );
        }
    }

    /// AND/UNION spines with a churn writer racing the readers: every
    /// sharded answer must be internally consistent with the single
    /// epoch it reports — verified by the reference evaluator over a
    /// snapshot taken at that epoch's final state.
    #[test]
    fn sharded_spines_agree_under_concurrent_churn(seed in 0..200u64) {
        let store = churned_store(0xC0FFEE ^ seed, 40);
        store.enable_sharding(4, 1);
        let spine = Pattern::t("?x", "p", "?y")
            .and(Pattern::t("?y", "q", "?z"))
            .union(Pattern::t("?x", "r", "?z"));
        let req = parallel_request(&spine);
        let pool = Pool::new(2);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            churn(&store, &mut rng, 10);
            let snapshot = store.snapshot();
            let sharded = store
                .query_request(&req, &pool)
                .expect("unlimited budget cannot time out");
            // No commits ran between snapshot() and the query, so the
            // epochs — and therefore the answers — must line up.
            prop_assert_eq!(sharded.epoch, snapshot.epoch());
            let reference = evaluate(&spine, &snapshot.to_graph());
            prop_assert_eq!(&sharded.mappings, &reference);
        }
    }
}

/// The sharded path actually engages for AND/UNION spines: the store's
/// shard metrics count the queries and
/// scatter rounds, and per-shard task counters show real fan-out.
#[test]
fn spine_queries_take_the_scatter_gather_path() {
    let store = churned_store(0xFA_0075, 60);
    store.enable_sharding(4, 1);
    let hub = store.metrics_hub();
    let before = hub.shards.queries_total.load(Ordering::Relaxed);
    let pool = Pool::new(2);
    let patterns = [
        Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "q", "?z")),
        Pattern::t("?x", "p", "?y").union(Pattern::t("?x", "q", "?y")),
        Pattern::t("?x", "p", "?y")
            .and(Pattern::t("?y", "q", "?z"))
            .union(Pattern::t("?x", "r", "?z")),
    ];
    for p in &patterns {
        store
            .query_request(&parallel_request(p), &pool)
            .expect("unlimited budget cannot time out");
    }
    let after = hub.shards.queries_total.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        patterns.len() as u64,
        "every spine query must take the sharded path"
    );
    assert!(hub.shards.scatters() > 0, "scatter rounds must be recorded");
    let tasks: u64 = hub
        .shards
        .shard_tasks
        .iter()
        .map(|t| t.load(Ordering::Relaxed))
        .sum();
    assert!(tasks > 0, "per-shard task counters must move");

    // Sequential-mode requests keep the single-node path even with
    // sharding enabled.
    let seq = QueryRequest::with_opts(patterns[0].clone(), ExecOpts::seq().uncached());
    store
        .query_request(&seq, &pool)
        .expect("unlimited budget cannot time out");
    assert_eq!(
        hub.shards.queries_total.load(Ordering::Relaxed),
        after,
        "sequential requests must not scatter"
    );
}

/// Shard partitions are pinned per epoch: two queries at the same
/// epoch reuse one cached partition (same `Arc`), and a commit
/// invalidates it.
#[test]
fn shard_partitions_are_cached_per_epoch() {
    let store = churned_store(0xE90C4, 30);
    store.enable_sharding(2, 1);
    let rt = store.shard_runtime().expect("sharding enabled");
    let snap = store.snapshot();
    let runs1 = rt.runs_for(&snap);
    let runs2 = rt.runs_for(&snap);
    assert!(
        std::sync::Arc::ptr_eq(&runs1, &runs2),
        "same epoch must reuse the cached partition"
    );
    store.insert(Triple::new("fresh", "p", "fresh"));
    let runs3 = rt.runs_for(&store.snapshot());
    assert!(
        !std::sync::Arc::ptr_eq(&runs1, &runs3),
        "a commit must invalidate the cached partition"
    );
}
