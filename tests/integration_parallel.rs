//! Differential integration tests for parallel evaluation: the
//! `owql-exec`-backed `ExecMode::Parallel` path must be answer-identical
//! to the sequential engine at every pool width, for every pattern, on
//! every graph — including while concurrent writers mutate the store.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `p` through the unified entry point with the given options.
fn run_with<I: TripleLookup + Sync>(
    engine: &Engine<I>,
    p: &Pattern,
    opts: &ExecOpts,
    pool: &Pool,
) -> MappingSet {
    engine
        .run(p, opts, pool)
        .expect("unlimited budget cannot time out")
        .mappings
}

fn store_request(store: &Store, p: &Pattern, opts: ExecOpts, pool: &Pool) -> MappingSet {
    store
        .query_request(&QueryRequest::with_opts(p.clone(), opts), pool)
        .expect("unlimited budget cannot time out")
        .mappings
}

fn arb_iri() -> impl Strategy<Value = Iri> {
    (0..6u8).prop_map(|i| Iri::new(&format!("c{i}")))
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((arb_iri(), arb_iri(), arb_iri()), 0..30)
        .prop_map(|v| v.into_iter().map(|(s, p, o)| Triple { s, p, o }).collect())
}

fn pattern_config() -> PatternConfig {
    PatternConfig {
        allowed: Operators::NS_SPARQL.with(Operators::MINUS),
        vars: (0..4).map(|i| Variable::new(&format!("pv{i}"))).collect(),
        iris: (0..6).map(|i| Iri::new(&format!("c{i}"))).collect(),
        max_depth: 3,
        var_probability: 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance criterion: parallel-mode `Engine::run` agrees with the
    /// sequential engine on random NS-SPARQL patterns over random
    /// graphs, at pool widths 1, 2, and 8.
    #[test]
    fn parallel_engine_agrees_at_every_width(seed in 0u64..10_000, g in arb_graph()) {
        let p = random_pattern(&pattern_config(), seed);
        let engine = Engine::new(&g);
        let expected = run_with(&engine, &p, &ExecOpts::seq(), &Pool::sequential());
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            prop_assert_eq!(
                run_with(&engine, &p, &ExecOpts::parallel(), &pool),
                expected.clone(),
                "width {} diverged on {}", workers, p
            );
        }
    }

    /// The optimized parallel path agrees too (rewrites compose with
    /// the pool fan-out).
    #[test]
    fn optimized_parallel_agrees(seed in 0u64..10_000, g in arb_graph()) {
        let p = random_pattern(&pattern_config(), seed);
        let engine = Engine::new(&g);
        let pool = Pool::new(8);
        prop_assert_eq!(
            run_with(&engine, &p, &ExecOpts::parallel().optimized(), &pool),
            run_with(&engine, &p, &ExecOpts::seq(), &Pool::sequential()),
            "optimized parallel diverged on {}", p
        );
    }

    /// A parallel-mode `Store::query_request` answers exactly like the
    /// uncached sequential query path at every width, through the
    /// store's snapshot + cache machinery.
    #[test]
    fn store_parallel_agrees_with_query(seed in 0u64..10_000, g in arb_graph()) {
        let store = Store::new();
        let mut tx = store.begin();
        tx.insert_graph(&g);
        store.commit(tx);
        let p = random_pattern(&pattern_config(), seed);
        let expected = store.query_uncached(&p);
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            prop_assert_eq!(
                store_request(&store, &p, ExecOpts::parallel().uncached(), &pool),
                expected.clone(),
                "store width {} diverged on {}", workers, p
            );
        }
    }
}

/// A small colliding universe for the concurrent-mutation workload.
fn universe() -> Vec<Triple> {
    let names = ["c0", "c1", "c2", "c3", "c4", "c5"];
    let mut triples = Vec::new();
    for s in names {
        for p in ["c0", "c1", "c2"] {
            for o in names {
                triples.push(Triple::new(s, p, o));
            }
        }
    }
    triples
}

/// Acceptance criterion: parallel evaluation pins its snapshot epoch,
/// so a writer thread churning the store mid-query never skews answers.
/// Each parallel run over a pinned snapshot must keep matching that
/// snapshot's pre-computed sequential answers no matter how far the
/// live store has moved on.
#[test]
fn parallel_evaluation_is_stable_under_concurrent_churn() {
    let store = Store::new();
    let mut tx = store.begin();
    tx.insert_graph(&universe().into_iter().take(40).collect());
    store.commit(tx);

    let cfg = pattern_config();
    let patterns: Vec<Pattern> = (0..6u64).map(|s| random_pattern(&cfg, 0xC0 + s)).collect();

    std::thread::scope(|scope| {
        // Writer: keeps inserting/deleting while readers evaluate.
        let writer = scope.spawn(|| {
            let pool = universe();
            let mut rng = StdRng::seed_from_u64(0x17E);
            for _ in 0..200 {
                let t = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(0.5) {
                    store.insert(t);
                } else {
                    store.delete(&t);
                }
                std::thread::yield_now();
            }
        });

        for round in 0..20 {
            // Pin one snapshot; its answers are frozen at this epoch.
            let snapshot = store.snapshot();
            let engine = snapshot.engine();
            let pool = Pool::new(if round % 2 == 0 { 2 } else { 8 });
            for p in &patterns {
                let sequential = run_with(&engine, p, &ExecOpts::seq(), &Pool::sequential());
                let parallel = snapshot
                    .query_request(
                        &QueryRequest::with_opts(p.clone(), ExecOpts::parallel()),
                        &pool,
                    )
                    .expect("unlimited budget cannot time out");
                assert_eq!(
                    parallel.mappings, sequential,
                    "pinned snapshot skewed under churn for {p}"
                );
                assert_eq!(parallel.epoch, snapshot.epoch());
                // The store-level entry point pins its own snapshot;
                // it must answer from *some* consistent epoch without
                // panicking, racing the writer freely.
                let _ = store_request(&store, p, ExecOpts::parallel(), &pool);
            }
        }
        writer.join().expect("writer panicked");
    });

    // Once the writer is done the race is gone: store-level parallel
    // answers must equal the sequential uncached query exactly.
    let pool = Pool::new(8);
    for p in &patterns {
        assert_eq!(
            store_request(&store, p, ExecOpts::parallel().uncached(), &pool),
            store.query_uncached(p)
        );
    }
}

/// The large-graph shapes the pool fans out — NS over a wide UNION of
/// per-country optional extensions (subsumption-maximality dominates),
/// the same UNION without NS (merge-dominated), and a two-hop AND-spine
/// big enough to be chunked — answer identically at width 4 and
/// sequentially on a 150-person social graph.
#[test]
fn parallel_workload_queries_answer_and_agree() {
    let g = owql::rdf::generate::social_network(
        owql::rdf::generate::SocialOptions {
            people: 150,
            avg_follows: 4,
            email_probability: 0.5,
            birthplace_probability: 0.8,
        },
        0xBEEF,
    );
    let mut disjuncts = Vec::new();
    for country in ["Chile", "Belgium", "Sweden"] {
        let base = Pattern::t("?p", "was_born_in", country);
        let email = || Pattern::t("?p", "email", "?e");
        let name = || Pattern::t("?p", "name", "?n");
        disjuncts.push(base.clone());
        disjuncts.push(base.clone().and(email()));
        disjuncts.push(base.clone().and(name()));
        disjuncts.push(base.and(email()).and(name()));
    }
    let wide_union = Pattern::union_all(disjuncts);
    let spine = Pattern::t("?a", "follows", "?b")
        .and(Pattern::t("?b", "follows", "?c"))
        .and(Pattern::t("?a", "was_born_in", "?x"));
    let engine = Engine::new(&g);
    let pool = Pool::new(4);
    for (name, q) in [
        ("union_ns", wide_union.clone().ns()),
        ("wide_union", wide_union),
        ("spine", spine),
    ] {
        let seq = run_with(&engine, &q, &ExecOpts::seq(), &Pool::sequential());
        assert!(!seq.is_empty(), "{name} produced nothing");
        assert_eq!(
            run_with(&engine, &q, &ExecOpts::parallel(), &pool),
            seq,
            "{name}"
        );
    }
}

/// `OWQL_THREADS` controls `Pool::from_env`, and width 1 is the exact
/// sequential engine — the determinism contract the CI job exercises.
#[test]
fn width_one_pool_is_sequential_fallback() {
    let g: Graph = universe().into_iter().take(35).collect();
    let engine = Engine::new(&g);
    let pool = Pool::new(1);
    assert_eq!(pool.threads(), 1);
    let cfg = pattern_config();
    for seed in 0..12u64 {
        let p = random_pattern(&cfg, 0xF00 + seed);
        assert_eq!(
            run_with(&engine, &p, &ExecOpts::parallel(), &pool),
            run_with(&engine, &p, &ExecOpts::seq(), &Pool::sequential())
        );
    }
    let stats = pool.stats();
    assert_eq!(stats.parallel_maps, 0, "width-1 pool must never spawn");
}
