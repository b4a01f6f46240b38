//! Differential tests for the columnar id-encoded evaluator: on every
//! random pattern and store state, `Engine::run` must produce exactly
//! the answers of the reference evaluator (`evaluate`, the paper's
//! semantics transcribed) over the same visible graph, across
//! sequential and parallel modes, live snapshots with deletes, and
//! dictionary growth over commits — plus deterministic coverage of the
//! corners that make the walker total: fully ground patterns, backends
//! assembled from differently-encoded parts, and the 64-variable limit.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

fn run_with<I: TripleLookup>(
    engine: &Engine<I>,
    p: &Pattern,
    pool: &Pool,
    parallel: bool,
) -> MappingSet {
    let opts = if parallel {
        ExecOpts::parallel()
    } else {
        ExecOpts::seq()
    };
    engine
        .run(p, &opts, pool)
        .expect("unlimited budget cannot time out")
        .mappings
}

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
        vars: (0..3).map(|i| Variable::new(&format!("cv{i}"))).collect(),
        iris: ["a", "b", "c", "d", "e", "p", "q", "r", "zzz_absent"]
            .iter()
            .map(|s| Iri::new(s))
            .collect(),
        max_depth: 3,
        var_probability: 0.5,
    }
}

/// Random mutations against the store (inserts and deletes in small
/// transactions), so snapshots carry base segments, add tiers, and
/// delete sets all at once.
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

/// Acceptance criterion: columnar answers equal reference answers on
/// random NS-SPARQL+MINUS patterns over churned store snapshots — the
/// id view here overlays base runs, an add tier, and deletions.
#[test]
fn columnar_matches_reference_on_store_snapshots() {
    let cfg = pattern_config();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_1000 ^ seed);
        let store = Store::with_options(StoreOptions {
            min_compact: 8,
            compact_fraction: 0.3,
            cache_capacity: 0,
        });
        churn(&store, &mut rng, 50);
        let snapshot = store.snapshot();
        let engine = snapshot.engine();
        let graph = snapshot.to_graph();
        let seq = Pool::sequential();
        for pattern_seed in 0..6u64 {
            let p = random_pattern(&cfg, seed * 977 + pattern_seed);
            let reference = evaluate(&p, &graph);
            let columnar = run_with(&engine, &p, &seq, false);
            assert_eq!(
                columnar, reference,
                "columnar diverged at seed {seed}, pattern {p}"
            );
        }
    }
}

/// The laws the OPT fast path rests on, checked on `Engine::run`:
/// `P1 OPT P2 ≡s NS(P1 UNION (P1 AND P2))` (both directions of `⊑`;
/// plain `≡` fails when the left operand carries subsumed answers, see
/// DESIGN §6), `NS(NS(P)) = NS(P)`, and OPT equal to the reference.
fn assert_opt_laws<I: TripleLookup>(engine: &Engine<I>, graph: &Graph, p1: &Pattern, p2: &Pattern) {
    let seq = Pool::sequential();
    let opt = p1.clone().opt(p2.clone());
    let ns = p1.clone().union(p1.clone().and(p2.clone())).ns();
    let (got_opt, got_ns) = (
        run_with(engine, &opt, &seq, false),
        run_with(engine, &ns, &seq, false),
    );
    assert!(got_opt.subsumed_by(&got_ns), "OPT ⋢ NS phrasing: {opt}");
    assert!(got_ns.subsumed_by(&got_opt), "NS phrasing ⋢ OPT: {opt}");
    assert_eq!(
        run_with(engine, &ns.clone().ns(), &seq, false),
        got_ns,
        "NS(NS(P)) ≠ NS(P): {ns}"
    );
    assert_eq!(
        got_opt,
        evaluate(&opt, graph),
        "OPT diverged from the reference: {opt}"
    );
}

/// The OPT laws over random pattern pairs on churned snapshots, plus a
/// left operand whose rows bind different columns.
#[test]
fn opt_laws_hold_on_store_snapshots() {
    let cfg = pattern_config();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_4000 ^ seed);
        let store = Store::with_options(StoreOptions {
            min_compact: 8,
            compact_fraction: 0.3,
            cache_capacity: 0,
        });
        churn(&store, &mut rng, 50);
        let snapshot = store.snapshot();
        let (engine, graph) = (snapshot.engine(), snapshot.to_graph());
        for k in 0..4u64 {
            let p1 = random_pattern(&cfg, seed * 1009 + 2 * k);
            let p2 = random_pattern(&cfg, seed * 1009 + 2 * k + 1);
            assert_opt_laws(&engine, &graph, &p1, &p2);
        }
    }
    // A heterogeneous left operand: only `a` has a `q`, so `?z` is bound
    // in one row of the inner OPT. Against `(?y, r, ?z)` the outer OPT
    // shares {?y, ?z} but its key is {?y}; `z2` must be rejected by the
    // per-row check, and `e` survives through the difference.
    let graph: Graph = [
        ("a", "p", "b"),
        ("c", "p", "d"),
        ("e", "p", "f"),
        ("a", "q", "z1"),
        ("b", "r", "z1"),
        ("b", "r", "z2"),
        ("d", "r", "w"),
    ]
    .into_iter()
    .map(|(s, p, o)| Triple::new(s, p, o))
    .collect();
    let engine = Engine::new(&graph);
    let inner = Pattern::t("?x", "p", "?y").opt(Pattern::t("?x", "q", "?z"));
    for right in [Pattern::t("?y", "r", "?w"), Pattern::t("?y", "r", "?z")] {
        assert_opt_laws(&engine, &graph, &inner, &right);
    }
    let got = run_with(
        &engine,
        &inner.opt(Pattern::t("?y", "r", "?z")),
        &Pool::sequential(),
        false,
    );
    assert_eq!(got.len(), 3, "{got:?}");
}

/// Parallel columnar evaluation agrees with the reference evaluator at
/// every pool width, including widths that trigger chunked extends.
#[test]
fn columnar_parallel_matches_reference_across_widths() {
    let cfg = pattern_config();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_2000 ^ seed);
        let store = Store::with_options(StoreOptions {
            cache_capacity: 0,
            ..StoreOptions::default()
        });
        churn(&store, &mut rng, 60);
        let snapshot = store.snapshot();
        let engine = snapshot.engine();
        let graph = snapshot.to_graph();
        for pattern_seed in 0..4u64 {
            let p = random_pattern(&cfg, seed * 131 + pattern_seed);
            let reference = evaluate(&p, &graph);
            for workers in [1, 2, 8] {
                let pool = Pool::new(workers);
                let columnar = run_with(&engine, &p, &pool, true);
                assert_eq!(
                    columnar, reference,
                    "parallel columnar diverged at seed {seed}, {workers} workers, pattern {p}"
                );
            }
        }
    }
}

/// Plain-graph engines (no store, no delta overlay) also answer exactly
/// like the reference evaluator.
#[test]
fn columnar_matches_reference_on_plain_graphs() {
    let cfg = pattern_config();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_3000 ^ seed);
        let pool = universe();
        let graph: Graph = (0..rng.gen_range(0..40))
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let engine = Engine::new(&graph);
        let seq = Pool::sequential();
        for pattern_seed in 0..6u64 {
            let p = random_pattern(&cfg, seed * 313 + pattern_seed);
            let reference = evaluate(&p, &graph);
            let columnar = run_with(&engine, &p, &seq, false);
            assert_eq!(
                columnar, reference,
                "columnar diverged at seed {seed}, pattern {p}"
            );
        }
    }
}

/// Tracing is observation, not behavior: a traced run answers exactly
/// like the untraced one (and the reference evaluator) at pool widths
/// 1, 2, and 8, and emits a populated span tree whose scan spans carry
/// `estimated_rows`.
#[test]
fn traced_columnar_matches_untraced_and_reference() {
    let graph: Graph = universe().into_iter().collect();
    let engine = Engine::new(&graph);
    let x_y = Pattern::t("?x", "p", "?y");
    let workloads = vec![
        x_y.clone().and(Pattern::t("?y", "q", "?z")),
        x_y.clone().union(Pattern::t("?x", "q", "?y")),
        x_y.clone().opt(Pattern::t("?y", "q", "?z")),
        x_y.clone().minus(Pattern::t("?x", "q", "?y")),
        x_y.clone()
            .and(Pattern::t("?y", "q", "?z"))
            .select(["x", "z"]),
        x_y.clone().opt(Pattern::t("?y", "q", "?z")).ns(),
    ];
    for workers in [1usize, 2, 8] {
        let pool = Pool::new(workers);
        for p in &workloads {
            let base = ExecOpts::parallel();
            let untraced = engine
                .run(p, &base, &pool)
                .expect("unlimited budget cannot time out");
            let traced = engine
                .run(p, &base.traced(), &pool)
                .expect("unlimited budget cannot time out");
            assert_eq!(
                traced.mappings, untraced.mappings,
                "tracing changed answers at {workers} workers, pattern {p}"
            );
            assert_eq!(
                traced.mappings,
                evaluate(p, &graph),
                "traced run diverged from the reference at {workers} workers, pattern {p}"
            );
            let profile = traced.profile.expect("traced run has a profile");
            assert_eq!(
                profile.columnar.fallbacks, 0,
                "no fallback may be recorded for {p}"
            );
            assert!(
                !profile.spans.is_empty(),
                "traced columnar run must emit spans for {p}"
            );
            assert!(
                profile.spans.iter().any(|s| s.estimated_rows.is_some()),
                "scan spans must carry estimated_rows for {p}"
            );
        }
    }
}

/// Dictionary ids assigned at one commit survive later commits
/// untouched: the id of every term visible in an early snapshot's
/// dictionary resolves to the same term after arbitrary further churn.
#[test]
fn dict_ids_stay_stable_across_commits() {
    let mut rng = StdRng::seed_from_u64(0xD1C7);
    let store = Store::with_options(StoreOptions {
        min_compact: 8,
        compact_fraction: 0.3,
        cache_capacity: 0,
    });
    churn(&store, &mut rng, 30);
    let dict = store.dict();
    let before: Vec<(u64, Iri)> = (1..=dict.len() as u64)
        .map(|id| (id, dict.resolve(id).expect("dense ids")))
        .collect();
    assert!(!before.is_empty(), "churn interned nothing");
    churn(&store, &mut rng, 60);
    store.force_compact();
    let dict_after = store.dict();
    for (id, term) in before {
        assert_eq!(
            dict_after.resolve(id),
            Some(term),
            "id {id} was renumbered by a later commit"
        );
        assert_eq!(dict_after.lookup(term), Some(id));
    }
}

/// A small fixed store state with a base segment, an add tier and a
/// deletion, over the `universe` vocabulary.
fn fixed_store() -> Store {
    let store = Store::with_options(StoreOptions {
        cache_capacity: 0,
        ..StoreOptions::default()
    });
    let mut tx = store.begin();
    for (s, p, o) in [
        ("a", "p", "b"),
        ("a", "p", "c"),
        ("b", "p", "c"),
        ("a", "q", "b"),
        ("b", "q", "d"),
        ("c", "q", "d"),
        ("d", "r", "a"),
    ] {
        tx.insert(Triple::new(s, p, o));
    }
    store.commit(tx);
    store.force_compact();
    let mut tx = store.begin();
    tx.insert(Triple::new("c", "p", "a"));
    tx.delete(Triple::new("b", "p", "c"));
    store.commit(tx);
    store
}

/// Fully ground patterns — alone and as an operand of every operator —
/// evaluate on the one walker: sequential and parallel at widths 1, 2
/// and 8, and scattered over 1, 2 and 8 shards, always exactly the
/// reference evaluator's `{µ∅}` or `∅`-driven answer.
#[test]
fn ground_patterns_are_total_at_every_width_and_shard_count() {
    let store = fixed_store();
    let snapshot = store.snapshot();
    let graph = snapshot.to_graph();

    let hit = Pattern::t("a", "p", "b");
    let added = Pattern::t("c", "p", "a");
    let deleted = Pattern::t("b", "p", "c");
    let miss = Pattern::t("a", "p", "e");
    let unknown = Pattern::t("a", "p", "zzz_absent");
    let var = Pattern::t("?x", "q", "?y");

    // The headline cases, pinned independently of the oracle.
    for (p, want) in [
        (&hit, MappingSet::unit()),
        (&added, MappingSet::unit()),
        (&deleted, MappingSet::new()),
        (&miss, MappingSet::new()),
        (&unknown, MappingSet::new()),
    ] {
        assert_eq!(evaluate(p, &graph), want, "oracle on {p}");
    }

    let mut patterns = Vec::new();
    for g in [&hit, &added, &deleted, &miss, &unknown] {
        let g = || g.clone();
        patterns.extend([
            g(),
            g().and(var.clone()),
            var.clone().and(g()),
            g().and(hit.clone()),
            g().opt(var.clone()),
            var.clone().opt(g()),
            hit.clone().opt(g()),
            g().union(var.clone()),
            g().union(miss.clone()),
            g().minus(var.clone()),
            var.clone().minus(g()),
            hit.clone().minus(g()),
            g().ns(),
            g().union(var.clone()).ns(),
            g().filter(Condition::bound("x")),
            g().filter(Condition::bound("x").not()),
            g().and(var.clone()).filter(Condition::eq_const("x", "a")),
            g().select(["x"]),
            g().and(var.clone()).select(["y"]),
        ]);
    }

    for p in &patterns {
        let want = evaluate(p, &graph);
        for width in [1usize, 2, 8] {
            let pool = Pool::new(width);
            for opts in [ExecOpts::seq(), ExecOpts::parallel()] {
                let got = snapshot
                    .query_request(&QueryRequest::with_opts(p.clone(), opts), &pool)
                    .expect("unlimited budget cannot time out")
                    .mappings;
                assert_eq!(got, want, "width {width}, {:?}, pattern {p}", opts.mode);
            }
        }
    }
    let pool = Pool::new(2);
    for shards in [1usize, 2, 8] {
        store.enable_sharding(shards, 1);
        for p in &patterns {
            let got = store
                .query_request(
                    &QueryRequest::with_opts(p.clone(), ExecOpts::parallel()),
                    &pool,
                )
                .expect("unlimited budget cannot time out")
                .mappings;
            assert_eq!(got, evaluate(p, &graph), "{shards} shards, pattern {p}");
        }
    }
}

/// A snapshot whose base and delta were indexed on *different*
/// dictionaries is re-homed onto one by `SnapshotIndex::new`, so joins
/// that cross the base/delta boundary compare ids of one encoding.
#[test]
fn snapshot_over_mixed_dictionaries_evaluates() {
    // Interning orders differ: `z0` sorts last in the base but the
    // delta's private dictionary hands its terms the low ids.
    let base = GraphIndex::from_triples([
        Triple::new("a", "p", "b"),
        Triple::new("b", "p", "z0"),
        Triple::new("z0", "q", "a"),
    ]);
    let adds = GraphIndex::from_triples([Triple::new("z0", "p", "k"), Triple::new("k", "q", "b")]);
    let dels: HashSet<Triple> = [Triple::new("a", "p", "b")].into_iter().collect();
    let snapshot = SnapshotIndex::new(Arc::new(base), Arc::new(adds), Arc::new(dels));
    let graph = snapshot.to_graph();
    assert_eq!(graph.len(), 4);
    let engine = Engine::with_index(snapshot);
    let patterns = [
        Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "p", "?z")),
        Pattern::t("?x", "p", "?y").opt(Pattern::t("?y", "q", "?z")),
        Pattern::t("?x", "p", "?y")
            .union(Pattern::t("?x", "q", "?y"))
            .ns(),
        Pattern::t("z0", "p", "k"),
        Pattern::t("a", "p", "b"),
    ];
    for p in &patterns {
        for (pool, parallel) in [(Pool::sequential(), false), (Pool::new(2), true)] {
            assert_eq!(
                run_with(&engine, p, &pool, parallel),
                evaluate(p, &graph),
                "pattern {p}"
            );
        }
    }
}

/// One variable over the 64-column limit is a typed error from the
/// store — cached or not, sharded or not — and the store keeps
/// answering afterwards.
#[test]
fn over_wide_pattern_is_a_typed_error_from_the_store() {
    let store = fixed_store();
    let wide = Pattern::union_all((0..65).map(|i| Pattern::t(format!("?w{i}").as_str(), "p", "b")));
    let pool = Pool::new(2);
    for sharded in [false, true] {
        if sharded {
            store.enable_sharding(2, 1);
        }
        for opts in [
            ExecOpts::seq(),
            ExecOpts::seq().uncached().traced(),
            ExecOpts::parallel().uncached().optimized(),
        ] {
            let err = store
                .query_request(&QueryRequest::with_opts(wide.clone(), opts), &pool)
                .unwrap_err();
            assert_eq!(
                err,
                EvalError::TooManyVariables {
                    count: 65,
                    limit: 64
                },
                "sharded {sharded}, {opts:?}"
            );
        }
        assert_eq!(store.query(&Pattern::t("?x", "p", "b")).len(), 1);
    }
}
