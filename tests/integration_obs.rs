//! Differential integration tests for the observability layer: traced
//! evaluation must be answer-identical to the plain engines (sequential
//! and parallel), a disabled recorder must record nothing, and the
//! tracing overhead must stay within a sane bound.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::obs::{OpKind, SpanId};
use owql::prelude::*;
use proptest::prelude::*;
use std::time::Instant;

/// Runs `p` through the unified entry point with the given options.
fn run_with(engine: &Engine, p: &Pattern, opts: &ExecOpts, pool: &Pool) -> RunOutcome {
    engine
        .run(p, opts, pool)
        .expect("unlimited budget cannot time out")
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

    /// Acceptance criterion: a traced run agrees with an untraced run
    /// on random NS-SPARQL patterns over random graphs, and the
    /// recorded span tree is well-formed (a root exists, every parent
    /// id precedes its children's, and root output rows sum to the
    /// answer count).
    #[test]
    fn traced_agrees_with_plain(seed in 0u64..10_000, g in arb_graph()) {
        let p = random_pattern(&pattern_config(), seed);
        let engine = Engine::new(&g);
        let pool = Pool::sequential();
        let expected = run_with(&engine, &p, &ExecOpts::seq(), &pool).mappings;

        let traced = run_with(&engine, &p, &ExecOpts::seq().traced(), &pool);
        prop_assert_eq!(
            traced.mappings,
            expected.clone(),
            "traced diverged on {}", p
        );
        let spans = traced.profile.expect("traced run has a profile").spans;
        prop_assert!(!spans.is_empty());
        let roots: Vec<_> = spans.iter().filter(|s| s.parent == SpanId::ROOT).collect();
        prop_assert_eq!(roots.len(), 1, "one top-level operator per query");
        prop_assert_eq!(roots[0].rows_out, expected.len() as u64);
        for s in &spans {
            prop_assert!(
                s.parent == SpanId::ROOT || s.parent.0 < s.id.0,
                "parent {} allocated after child {}", s.parent.0, s.id.0
            );
        }
    }

    /// Traced parallel evaluation agrees with the plain engine at
    /// widths 1 and 8 (width 1 certifies the sequential-fallback seam
    /// of the traced path too).
    #[test]
    fn traced_parallel_agrees_at_widths(seed in 0u64..10_000, g in arb_graph()) {
        let p = random_pattern(&pattern_config(), seed);
        let engine = Engine::new(&g);
        let expected = run_with(&engine, &p, &ExecOpts::seq(), &Pool::sequential()).mappings;
        for workers in [1usize, 8] {
            let pool = Pool::new(workers);
            let out = run_with(&engine, &p, &ExecOpts::parallel().traced(), &pool);
            prop_assert_eq!(
                out.mappings,
                expected.clone(),
                "traced width {} diverged on {}", workers, p
            );
            prop_assert!(!out.profile.expect("traced run has a profile").spans.is_empty());
        }
    }

    /// An untraced run records nothing — `RunOutcome::profile` is
    /// `None` on both modes — while answers stay exact, and a disabled
    /// recorder reports empty counters.
    #[test]
    fn untraced_runs_record_nothing(seed in 0u64..10_000, g in arb_graph()) {
        let p = random_pattern(&pattern_config(), seed);
        let engine = Engine::new(&g);
        let seq = run_with(&engine, &p, &ExecOpts::seq(), &Pool::sequential());
        prop_assert!(seq.profile.is_none());
        let pool = Pool::new(8);
        let par = run_with(&engine, &p, &ExecOpts::parallel(), &pool);
        prop_assert!(par.profile.is_none());
        prop_assert_eq!(par.mappings, seq.mappings);

        let profile = Recorder::disabled().profile();
        prop_assert!(profile.spans.is_empty());
        prop_assert_eq!(profile.ns.candidates, 0);
        prop_assert_eq!(profile.pool.parallel_maps, 0);
        prop_assert_eq!(profile.pool.chunks, 0);
        prop_assert!(profile.pool.workers.is_empty());
    }

    /// A traced uncached `Store::query_request` answers exactly like
    /// the uncached query path and its JSON report carries every schema
    /// section.
    #[test]
    fn store_profile_agrees_and_serializes(seed in 0u64..10_000, g in arb_graph()) {
        let store = Store::new();
        let mut tx = store.begin();
        tx.insert_graph(&g);
        store.commit(tx);
        let p = random_pattern(&pattern_config(), seed);
        let out = store
            .query_request(
                &QueryRequest::with_opts(p.clone(), ExecOpts::seq().uncached().traced()),
                &Pool::sequential(),
            )
            .expect("unlimited budget cannot time out");
        let (result, profile) = (out.mappings, out.profile.expect("traced run has a profile"));
        prop_assert_eq!(result.clone(), store.query_uncached(&p));
        prop_assert_eq!(profile.answers, Some(result.len() as u64));
        let json = profile.to_json();
        for key in ["\"operators\"", "\"ns\"", "\"pool\"", "\"spans\"", "\"store\"",
                    "\"cache_hit_rate\""] {
            prop_assert!(json.contains(key), "missing {} in profile JSON", key);
        }
    }
}

/// `Profile::to_json` is one well-formed JSON document, both for a full
/// profile (a traced, optimized, parallel query over a durable store)
/// and for an empty one.
#[test]
fn profile_json_parses_full_and_empty() {
    use owql::server::json::{parse, JsonValue};

    let empty = parse(&Profile::default().to_json()).expect("empty profile parses");
    for key in ["store", "persist"] {
        assert_eq!(empty.get(key), Some(&JsonValue::Null), "{key}");
    }
    assert_eq!(empty.get("spans"), Some(&JsonValue::Arr(Vec::new())));

    let dir = std::env::temp_dir().join(format!("owql-obs-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = owql::store::PersistConfig::default()
        .no_fsync()
        .inline_indexer();
    let store = Store::open(&dir, StoreOptions::default(), persist).expect("open durable");
    let mut tx = store.begin();
    for i in 0..40 {
        let (s, o) = (format!("s{i}"), format!("s{}", (i + 1) % 40));
        tx.insert(Triple::new(s.as_str(), "p", o.as_str()));
    }
    store.commit(tx);
    store.checkpoint().expect("checkpoint");
    let p = parse_pattern("(((?x, p, ?y) AND (?y, p, ?z)) UNION ((?x, p, ?y) AND (?y, p, ?z)))");
    let opts = ExecOpts::parallel().uncached().traced().optimized();
    let request = QueryRequest::with_opts(p.expect("valid pattern"), opts);
    let out = store
        .query_request(&request, &Pool::new(2))
        .expect("no deadline");
    let text = out.profile.expect("traced run has a profile").to_json();
    let doc = parse(&text).unwrap_or_else(|e| panic!("invalid profile JSON ({e}):\n{text}"));
    assert_eq!(doc.get("answers"), Some(&JsonValue::Num(40.0)));
    let field = |section: &str, key: &str| doc.get(section)?.get(key).cloned();
    let count = |section: &str, key: &str| field(section, key)?.as_u64();
    assert_eq!(count("prunes", "subsumed_branches"), Some(1), "{text}");
    assert_eq!(count("store", "triples"), Some(40), "{text}");
    assert_eq!(count("persist", "checkpoints"), Some(1), "{text}");
    assert!(matches!(field("pool", "workers"), Some(JsonValue::Arr(_))));
    let Some(JsonValue::Arr(spans)) = doc.get("spans") else {
        panic!("spans is not an array:\n{text}");
    };
    assert!(spans.iter().all(|s| s.get("estimated_rows").is_some()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `explain_analyze` reports observed (not estimated) cardinalities:
/// its root output equals the answer count and its SCAN steps chain
/// rows through the join.
#[test]
fn explain_analyze_reports_observed_cardinalities() {
    let mut g = Graph::new();
    for i in 0..25 {
        let s = format!("s{i}");
        g.insert(Triple::new("hub", "spoke", s.as_str()));
    }
    let engine = Engine::new(&g);
    let p = parse_pattern("((hub, spoke, ?x) AND (hub, spoke, ?y))").unwrap();
    let analyzed = engine.explain_analyze(&p).expect("narrow pattern");
    assert_eq!(analyzed.answers, 625);
    assert_eq!(analyzed.roots.len(), 1);
    let root = &analyzed.roots[0];
    assert_eq!(root.rows_out, 625);
    assert_eq!(root.children.len(), 2);
    assert_eq!(root.children[0].kind, OpKind::Scan);
    assert_eq!(root.children[0].rows_out, 25);
    assert_eq!(root.children[1].rows_in, Some(25));
    assert_eq!(root.children[1].rows_out, 625);

    let pool = Pool::new(4);
    let parallel = engine
        .explain_analyze_parallel(&p, &pool)
        .expect("narrow pattern");
    assert_eq!(parallel.answers, 625);
    assert!(parallel.to_string().contains("EXPLAIN ANALYZE"));
}

/// Tracing with an *enabled* recorder is an acceptable constant-factor
/// overhead, and with a *disabled* recorder it stays within noise of
/// the plain engine (both compared on their best-of-reps time, which
/// resists scheduler noise).
#[test]
fn tracing_overhead_is_bounded() {
    let mut g = Graph::new();
    for i in 0..60u32 {
        let s = format!("n{i}");
        let o = format!("n{}", (i + 1) % 60);
        g.insert(Triple::new(s.as_str(), "next", o.as_str()));
        g.insert(Triple::new(s.as_str(), "tag", "t"));
    }
    let engine = Engine::new(&g);
    let p = parse_pattern(
        "NS((((?a, next, ?b) AND (?b, next, ?c)) UNION ((?a, tag, t) AND (?a, next, ?b))))",
    )
    .unwrap();

    let best = |f: &dyn Fn() -> usize| -> u128 {
        let mut best = u128::MAX;
        for _ in 0..7 {
            let start = Instant::now();
            std::hint::black_box(f());
            best = best.min(start.elapsed().as_nanos());
        }
        best
    };

    let pool = Pool::sequential();
    let plain = best(&|| {
        run_with(&engine, &p, &ExecOpts::seq(), &pool)
            .mappings
            .len()
    });
    let enabled = best(&|| {
        run_with(&engine, &p, &ExecOpts::seq().traced(), &pool)
            .mappings
            .len()
    });

    // Generous bound: this is a smoke test against order-of-magnitude
    // regressions (e.g. tracing accidentally always on), not a
    // microbenchmark.
    assert!(
        enabled <= plain.saturating_mul(10).max(20_000_000),
        "enabled-recorder path {enabled}ns vs plain {plain}ns"
    );
}
