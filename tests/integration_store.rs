//! Integration tests for `owql-store`: differential equivalence against
//! the plain indexed engine, epoch isolation, cache transparency, and
//! compaction invariance under random mutation workloads.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sequential evaluation of `p` on an engine via the unified API.
fn eval(engine: &Engine, p: &Pattern) -> MappingSet {
    engine
        .run(p, &ExecOpts::seq(), &Pool::sequential())
        .expect("unlimited budget cannot time out")
        .mappings
}

/// Snapshot answers through `Snapshot::query_request`.
fn snap_eval(snapshot: &Snapshot, p: &Pattern) -> MappingSet {
    snapshot
        .query_request(&QueryRequest::new(p.clone()), &Pool::sequential())
        .expect("unlimited budget cannot time out")
        .mappings
}

/// A small universe so random mutations collide: duplicate inserts,
/// deletes of present triples, re-inserts of deleted ones.
fn universe() -> Vec<Triple> {
    let subjects = ["a", "b", "c", "d"];
    let predicates = ["p", "q", "r"];
    let objects = ["a", "b", "c", "d", "e"];
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
        iris: ["a", "b", "c", "d", "e", "p", "q", "r"]
            .iter()
            .map(|s| Iri::new(s))
            .collect(),
        max_depth: 3,
        var_probability: 0.5,
    }
}

/// Applies about `n_ops` random mutations, batched into transactions of
/// up to 40 ops, to `store` and to a mirror `Graph`, and holds every
/// commit to that model: its `applied` count is the number of ops that
/// changed the mirror, its epoch moves iff that is non-zero, and a
/// snapshot taken before it answers the same graph afterwards. Batches
/// mix plain inserts and deletes with insert-then-delete and
/// delete-then-reinsert of one triple, and deletes over terms the store
/// never saw.
fn churn(store: &Store, mirror: &mut Graph, rng: &mut StdRng, n_ops: usize) {
    let pool = universe();
    let mut remaining = n_ops;
    while remaining > 0 {
        let batch = rng.gen_range(1..=remaining.min(40));
        let mut tx = store.begin();
        let mut applied = 0;
        for _ in 0..batch {
            let t = pool[rng.gen_range(0..pool.len())];
            let ops: &[bool] = match rng.gen_range(0..10) {
                0..=4 => &[true],
                5..=6 => &[false],
                7 => &[true, false],
                8 => &[false, true],
                _ => {
                    let ghost = format!("ghost{}", rng.gen_range(0..1000));
                    tx.delete(Triple::new(ghost.as_str(), "p", "a"));
                    continue;
                }
            };
            for &insert in ops {
                let changed = if insert {
                    tx.insert(t);
                    mirror.insert(t)
                } else {
                    tx.delete(t);
                    mirror.remove(&t)
                };
                applied += usize::from(changed);
            }
        }
        let before = store.snapshot();
        let frozen = before.to_graph();
        let summary = store.commit(tx);
        assert_eq!(summary.applied, applied, "effective ops");
        let bumped = u64::from(applied > 0);
        assert_eq!(summary.epoch, before.epoch() + bumped, "epoch");
        assert_eq!(
            before.to_graph(),
            frozen,
            "a commit moved an older snapshot"
        );
        remaining -= batch;
    }
    assert_eq!(&store.to_graph(), mirror, "store diverged from mirror");
    let interned_ghost = store
        .dict()
        .with_terms(|terms| terms.iter().any(|t| t.as_str().starts_with("ghost")));
    assert!(!interned_ghost, "a delete interned a term");
}

/// `churn` on a durable store that is closed and reopened mid-stream,
/// so WAL replay goes through the same plan and apply as live commits:
/// after each reopen the store is at the same epoch with the same
/// graph, and keeps churning in lockstep with the mirror.
#[test]
fn churn_survives_reopen_through_wal_replay() {
    let dir = std::env::temp_dir().join(format!("owql-store-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        min_compact: 8,
        compact_fraction: 0.3,
        cache_capacity: 8,
    };
    let config = owql::store::PersistConfig::default()
        .no_fsync()
        .checkpoint_every(0)
        .inline_indexer();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut mirror = Graph::new();
    let mut epoch = 0;
    for round in 0..4 {
        let store = Store::open(&dir, opts, config.clone()).expect("open store");
        assert_eq!(store.epoch(), epoch, "round {round}: epoch survives reopen");
        assert_eq!(
            store.to_graph(),
            mirror,
            "round {round}: graph survives reopen"
        );
        churn(&store, &mut mirror, &mut rng, 150);
        if round == 1 {
            store.checkpoint().expect("checkpoint io");
        }
        epoch = store.epoch();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion: after any random mutation sequence, evaluating
/// any random pattern via `Engine::for_snapshot` gives exactly the
/// result of rebuilding `Engine::new(&store.to_graph())` from scratch.
#[test]
fn differential_snapshot_equals_rebuilt_engine() {
    let cfg = pattern_config();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed);
        // Small thresholds so compaction fires mid-sequence for many seeds.
        let store = Store::with_options(StoreOptions {
            min_compact: 8,
            compact_fraction: 0.3,
            cache_capacity: 32,
        });
        let mut mirror = Graph::new();
        churn(&store, &mut mirror, &mut rng, 60);

        let snapshot = store.snapshot();
        let rebuilt = Engine::new(&store.to_graph());
        for pattern_seed in 0..5u64 {
            let p = random_pattern(&cfg, seed * 1000 + pattern_seed);
            let via_snapshot = eval(&Engine::for_snapshot(&snapshot), &p);
            let via_rebuild = eval(&rebuilt, &p);
            assert_eq!(
                via_snapshot, via_rebuild,
                "divergence at seed {seed}, pattern {p}"
            );
        }
    }
}

/// Acceptance criterion: a snapshot taken before a write still answers
/// from the pre-write graph (epoch isolation).
#[test]
fn snapshot_isolation_pins_pre_write_answers() {
    let store = Store::new();
    store.insert(Triple::new("juan", "was_born_in", "chile"));

    let before = store.snapshot();
    let p = parse_pattern("(?x, was_born_in, chile)").unwrap();
    let pre_write = snap_eval(&before, &p);
    assert_eq!(pre_write.len(), 1);

    // Concurrent-looking writes: add, delete the original, compact.
    store.insert(Triple::new("marcelo", "was_born_in", "chile"));
    store.delete(&Triple::new("juan", "was_born_in", "chile"));
    store.force_compact();

    assert_eq!(
        snap_eval(&before, &p),
        pre_write,
        "snapshot answers shifted"
    );
    assert_eq!(before.epoch(), 1);
    assert!(store.epoch() > before.epoch());

    // A fresh snapshot sees the new world: marcelo only.
    let after = snap_eval(&store.snapshot(), &p);
    assert_eq!(after.len(), 1);
    assert!(after
        .iter()
        .any(|m| m.get(Variable::new("x")) == Some(Iri::new("marcelo"))));
}

/// Acceptance criterion: the cache-hit path returns `MappingSet`s equal
/// to evaluating uncached, across random patterns and epochs.
#[test]
fn cache_hits_are_transparent() {
    let cfg = pattern_config();
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let store = Store::with_options(StoreOptions {
        min_compact: 16,
        compact_fraction: 0.3,
        cache_capacity: 64,
    });
    let mut mirror = Graph::new();

    for round in 0..10u64 {
        churn(&store, &mut mirror, &mut rng, 15);
        for pattern_seed in 0..4u64 {
            let p = random_pattern(&cfg, round * 100 + pattern_seed);
            let uncached = store.query_uncached(&p);
            let cold = store.query(&p); // miss: fills the cache
            let warm = store.query(&p); // hit: must be identical
            assert_eq!(cold, uncached, "cold query diverged at {p}");
            assert_eq!(warm, uncached, "cache hit diverged at {p}");
        }
    }
    let stats = store.cache_stats();
    assert!(stats.hits >= 40, "expected warm hits, got {stats:?}");
    assert!(stats.misses >= 40);
    // Writes invalidate implicitly: each round's first re-query of a
    // prior round's pattern misses on epoch mismatch.
    assert!(store.epoch() > 0);
}

/// The cache keys on the pattern's canonical text, its display form:
/// the same pattern written with other spacing shares an entry, and an
/// equivalent pattern written in another order gets its own entry.
#[test]
fn cache_canonicalization_shares_entries() {
    let store = Store::new();
    store.insert(Triple::new("a", "p", "b"));
    store.insert(Triple::new("a", "q", "b"));

    let left = parse_pattern("((?x, p, ?y) UNION (?x, q, ?y))").unwrap();
    let spaced = parse_pattern("( (?x,p,?y)  UNION  (?x,q,?y) )").unwrap();
    let right = parse_pattern("((?x, q, ?y) UNION (?x, p, ?y))").unwrap();
    assert_eq!(
        owql::store::cache_key(&left),
        owql::store::cache_key(&spaced)
    );
    assert_ne!(
        owql::store::cache_key(&left),
        owql::store::cache_key(&right)
    );
    let first = store.query(&left);
    assert_eq!(store.query(&spaced), first); // same display form: a hit
    assert_eq!(store.query(&right), first); // other order: a miss
    let stats = store.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 2);
}

/// Compaction must be invisible: force it at random points and compare
/// snapshots taken before and after against the same patterns.
#[test]
fn compaction_is_semantically_invisible() {
    let cfg = pattern_config();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let store = Store::new(); // default thresholds: no auto-compaction here
    let mut mirror = Graph::new();
    churn(&store, &mut mirror, &mut rng, 50);

    let before = store.snapshot();
    store.force_compact();
    let after = store.snapshot();
    assert_eq!(before.epoch(), after.epoch());
    assert_eq!(after.index().delta_len(), 0);

    for seed in 0..12u64 {
        let p = random_pattern(&cfg, 7000 + seed);
        assert_eq!(
            snap_eval(&before, &p),
            snap_eval(&after, &p),
            "compaction changed answers for {p}"
        );
    }
}

/// The NS operator (closed-world maximal answers) behaves identically
/// over a live store snapshot and a static graph — the paper's
/// semantics carry over to the versioned world.
#[test]
fn ns_queries_over_snapshots() {
    let store = Store::new();
    let mut tx = store.begin();
    tx.insert(Triple::new("juan", "was_born_in", "chile"));
    tx.insert(Triple::new("juan", "email", "jreutter"));
    tx.insert(Triple::new("marcelo", "was_born_in", "chile"));
    store.commit(tx);

    let p = parse_pattern(
        "NS(((?x, was_born_in, chile) UNION \
           ((?x, was_born_in, chile) AND (?x, email, ?e))))",
    )
    .unwrap();
    let live = store.query(&p);
    let static_answers = eval(&Engine::new(&store.to_graph()), &p);
    assert_eq!(live, static_answers);
    assert_eq!(live.len(), 2); // juan with email, marcelo without

    // Deleting the email changes the maximal answers at the new epoch…
    store.delete(&Triple::new("juan", "email", "jreutter"));
    let after = store.query(&p);
    assert_eq!(after.len(), 2);
    assert!(after.iter().all(|m| m.get(Variable::new("e")).is_none()));
    // …and the cache never served the stale pre-delete result.
    assert_ne!(live, after);
}
