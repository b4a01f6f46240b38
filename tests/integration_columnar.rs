//! Differential tests for the columnar id-encoded evaluator: on every
//! random pattern and store state, `Engine::run` must produce exactly
//! the answers of the reference evaluator (`evaluate`, the paper's
//! semantics transcribed) over the same visible graph, across
//! sequential and parallel modes, live snapshots with deletes, and
//! dictionary growth over commits — plus deterministic coverage of the
//! corners that make the walker total: fully ground patterns, joins
//! across the base/overlay boundary, and the 64-variable limit.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::eval::Plan;
use owql::obs::OpKind;
use owql::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_with(engine: &Engine, p: &Pattern, pool: &Pool, parallel: bool) -> MappingSet {
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
fn assert_opt_laws(engine: &Engine, graph: &Graph, p1: &Pattern, p2: &Pattern) {
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
    let before: Vec<(TermId, Iri)> = (1..=TermId::try_from(dict.len()).expect("in the id space"))
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
/// and 8, always exactly the reference evaluator's `{µ∅}` or
/// `∅`-driven answer.
#[test]
fn ground_patterns_are_total_at_every_width() {
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
}

/// A snapshot whose joins cross the base/overlay boundary: the add
/// tier's new terms (`k`) get ids after every base term, out of string
/// order, and a deleted base row sits beside them — one dictionary
/// encodes both tiers, so the joins compare ids of one encoding.
#[test]
fn snapshot_overlay_joins_across_tiers() {
    let mut snapshot = SnapshotIndex::from_graph(
        &[
            Triple::new("a", "p", "b"),
            Triple::new("b", "p", "z0"),
            Triple::new("z0", "q", "a"),
        ]
        .into_iter()
        .collect(),
    );
    assert!(snapshot.insert(Triple::new("z0", "p", "k")));
    assert!(snapshot.insert(Triple::new("k", "q", "b")));
    assert!(snapshot.delete(&Triple::new("a", "p", "b")));
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
/// store — cached or not — and the store keeps answering afterwards.
#[test]
fn over_wide_pattern_is_a_typed_error_from_the_store() {
    let store = fixed_store();
    let wide = Pattern::union_all((0..65).map(|i| Pattern::t(format!("?w{i}").as_str(), "p", "b")));
    let pool = Pool::new(2);
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
            "{opts:?}"
        );
        assert_eq!(store.query(&Pattern::t("?x", "p", "b")).len(), 1);
    }
}

/// A planned step or a `SCAN` span: `(label, estimated_rows)`.
type ScanKey = (String, u64);

/// What one `AND` span recorded: its seeded candidate count and its
/// `SCAN` children in span-id order, with their output rows.
struct SpineRun {
    seeded: Option<u64>,
    scans: Vec<(ScanKey, u64)>,
}

/// How a run's spine spans must line up with the plan's spines.
#[derive(Clone, Copy, Debug)]
enum Walk {
    /// One spine at a time, in plan pre-order (sequential runs).
    Sequential,
    /// Spines in any order (fanned-out UNIONs allocate span ids
    /// concurrently), each still a chain of its plan's steps.
    Parallel,
}

fn planned_spines(plan: &Plan) -> Vec<Vec<ScanKey>> {
    plan.spines()
        .iter()
        .map(|s| {
            s.steps
                .iter()
                .map(|st| (st.label(), st.estimated_rows as u64))
                .collect()
        })
        .collect()
}

fn spine_runs(profile: &Profile) -> Vec<SpineRun> {
    let mut spans: Vec<_> = profile.spans.iter().collect();
    spans.sort_by_key(|s| s.id);
    spans
        .iter()
        .filter(|s| s.kind == OpKind::And)
        .map(|and| SpineRun {
            seeded: and.rows_in,
            scans: spans
                .iter()
                .filter(|s| s.kind == OpKind::Scan && s.parent == and.id)
                .map(|s| {
                    let est = s
                        .estimated_rows
                        .expect("every SCAN span carries an estimate");
                    ((s.label.clone(), est), s.rows_out)
                })
                .collect(),
        })
        .collect()
}

/// `true` iff `run` is what executing the planned `steps` can record.
/// A chain stops early only once a step leaves no row (or the seed is
/// empty), so a shorter run must end there.
fn fits(steps: &[ScanKey], run: &SpineRun) -> bool {
    let stopped = || {
        run.scans
            .last()
            .map_or(run.seeded == Some(0), |(_, rows)| *rows == 0)
    };
    run.scans.len() <= steps.len()
        && run
            .scans
            .iter()
            .zip(steps)
            .all(|((key, _), step)| key == step)
        && (run.scans.len() == steps.len() || stopped())
}

/// Every spine span of `profile` is the run of one spine of `plan`, and
/// every planned spine ran once.
fn assert_spans_follow_plan(plan: &Plan, profile: &Profile, walk: Walk, what: &str) {
    let planned = planned_spines(plan);
    let mut runs = spine_runs(profile);
    assert_eq!(runs.len(), planned.len(), "{what}: spine count\n{plan}");
    if let Walk::Sequential = walk {
        for (i, (steps, run)) in planned.iter().zip(&runs).enumerate() {
            assert!(
                fits(steps, run),
                "{what}: spine {i} ran {:?}, planned {steps:?}\n{plan}",
                run.scans
            );
        }
        return;
    }
    // Longest runs first: the runs a shorter one could also fit are
    // its extensions, so a greedy match never strands a later run.
    runs.sort_by_key(|r| std::cmp::Reverse(r.scans.len()));
    let mut unused: Vec<&Vec<ScanKey>> = planned.iter().collect();
    for run in &runs {
        let Some(i) = unused.iter().position(|steps| fits(steps, run)) else {
            panic!(
                "{what}: {walk:?} spine ran {:?}, which no planned spine fits\n{plan}",
                run.scans
            );
        };
        unused.swap_remove(i);
    }
}

/// Runs `p` traced under `opts` and checks the run against EXPLAIN:
/// `explain` of the pattern the run planned (the optimized one, when
/// `opts` asks for it) is the plan the run reports, and the run's SCAN
/// spans are that plan's steps, labels and estimates.
fn assert_explain_is_the_run(
    engine: &Engine,
    p: &Pattern,
    opts: ExecOpts,
    pool: &Pool,
    what: &str,
) {
    let out = engine
        .run(p, &opts.traced(), pool)
        .expect("unlimited budget cannot time out");
    let explained = engine.explain(out.plan.pattern()).expect("narrow pattern");
    assert_eq!(explained.to_string(), out.plan.to_string(), "{what}");
    let walk = match opts.mode {
        ExecMode::Parallel if pool.threads() > 1 => Walk::Parallel,
        _ => Walk::Sequential,
    };
    let profile = out.profile.expect("traced run has a profile");
    assert_spans_follow_plan(&explained, &profile, walk, what);
}

/// EXPLAIN is the plan that ran: on random NS-SPARQL+MINUS patterns
/// over churned snapshots with deletes, at pool widths 1, 2 and 8 in
/// sequential and parallel mode, every spine's SCAN spans are the
/// explained steps — pattern, access path and estimate — in order.
#[test]
fn explain_is_the_plan_that_ran() {
    let cfg = pattern_config();
    let pools: Vec<Pool> = [1, 2, 8].into_iter().map(Pool::new).collect();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_5000 ^ seed);
        let store = Store::with_options(StoreOptions {
            min_compact: 8,
            compact_fraction: 0.3,
            cache_capacity: 0,
        });
        churn(&store, &mut rng, 50);
        let snapshot = store.snapshot();
        let engine = snapshot.engine();
        for pattern_seed in 0..6u64 {
            let p = random_pattern(&cfg, seed * 541 + pattern_seed);
            for pool in &pools {
                for opts in [ExecOpts::seq(), ExecOpts::parallel()] {
                    let what = format!(
                        "seed {seed}, width {}, {:?}, pattern {p}",
                        pool.threads(),
                        opts.mode
                    );
                    assert_explain_is_the_run(&engine, &p, opts, pool, &what);
                }
            }
        }
    }
}

/// The benchmark's analytic suites (OPT and NS) as text.
const SUITE: [&str; 9] = [
    "((?p, was_born_in, Chile) OPT (?p, email, ?e))",
    "(((?p, name, ?n) OPT (?p, email, ?e)) OPT (?p, was_born_in, ?c))",
    "(((?p, was_born_in, Chile) OPT (?p, email, ?e)) OPT (?p, name, ?n))",
    "NS(((?p, was_born_in, Chile) UNION ((?p, was_born_in, Chile) AND (?p, email, ?e))))",
    "NS((((?p, name, ?n) UNION ((?p, name, ?n) AND (?p, email, ?e))) UNION \
     (((?p, name, ?n) AND (?p, was_born_in, ?c)) UNION \
     (((?p, name, ?n) AND (?p, email, ?e)) AND (?p, was_born_in, ?c)))))",
    "NS((((?p, was_born_in, Chile) UNION ((?p, was_born_in, Chile) AND (?p, email, ?e))) UNION \
     (((?p, was_born_in, Chile) AND (?p, name, ?n)) UNION \
     (((?p, was_born_in, Chile) AND (?p, email, ?e)) AND (?p, name, ?n)))))",
    concat!("NS(", wide_union!(), ")"),
    wide_union!(),
    "(((?a, follows, ?b) AND (?b, follows, ?c)) AND (?a, was_born_in, ?x))",
];

/// The benchmark's wide UNION: per country, the birthplace alone, with
/// the email, with the name, with both.
macro_rules! wide_union {
    () => {
        "((((((((((((?p, was_born_in, Chile) UNION \
         ((?p, was_born_in, Chile) AND (?p, email, ?e))) UNION \
         ((?p, was_born_in, Chile) AND (?p, name, ?n))) UNION \
         (((?p, was_born_in, Chile) AND (?p, email, ?e)) AND (?p, name, ?n))) UNION \
         (?p, was_born_in, Belgium)) UNION \
         ((?p, was_born_in, Belgium) AND (?p, email, ?e))) UNION \
         ((?p, was_born_in, Belgium) AND (?p, name, ?n))) UNION \
         (((?p, was_born_in, Belgium) AND (?p, email, ?e)) AND (?p, name, ?n))) UNION \
         (?p, was_born_in, Sweden)) UNION \
         ((?p, was_born_in, Sweden) AND (?p, email, ?e))) UNION \
         ((?p, was_born_in, Sweden) AND (?p, name, ?n))) UNION \
         (((?p, was_born_in, Sweden) AND (?p, email, ?e)) AND (?p, name, ?n)))"
    };
}
use wide_union;

/// The benchmark's query-log mix templates as text; `{C}` and `{D}`
/// are person constants.
const TEMPLATES: [&str; 20] = [
    "({C}, follows, ?x)",
    "(?x, follows, {C})",
    "({C}, name, ?n)",
    "({C}, was_born_in, ?c)",
    "({C}, email, ?e)",
    "({C}, ?p, ?o)",
    "(?s, ?p, {C})",
    "(({C}, follows, ?x) AND ({C}, name, ?n))",
    "(({C}, follows, ?x) AND (?x, name, ?n))",
    "((({C}, follows, ?x) AND (?x, follows, ?y)) AND (?y, name, ?n))",
    "((({C}, name, ?n) AND ({C}, was_born_in, ?c)) AND ({C}, follows, ?x))",
    "((({C}, follows, ?x) AND (?x, was_born_in, ?c)) FILTER (?c = Chile))",
    "(((?x, follows, {C}) AND (?x, was_born_in, ?c)) FILTER (!(?c = Sweden)))",
    "(({C}, follows, ?x) OPT (?x, email, ?e))",
    "(({C}, name, ?n) OPT ({C}, email, ?e))",
    "((({C}, follows, ?x) OPT (?x, email, ?e)) OPT (?x, was_born_in, ?c))",
    "(({C}, follows, ?x) UNION (?x, follows, {C}))",
    "((({C}, email, ?v) UNION ({C}, name, ?v)) UNION ({C}, was_born_in, ?v))",
    "(({C}, follows, ?x) UNION ({D}, follows, ?x))",
    "NS((({C}, follows, ?x) UNION (({C}, follows, ?x) AND (?x, email, ?e))))",
];

/// The benchmark's queries on a small social network: the suites as
/// the analytic workloads send them (unoptimized) and the mix as
/// `log_mix` sends it (optimized), at the constants of a few people.
fn benchmark_queries() -> Vec<(Pattern, ExecOpts)> {
    let mut out: Vec<(Pattern, ExecOpts)> = SUITE
        .iter()
        .map(|text| (parse_pattern(text).expect("suite query"), ExecOpts::seq()))
        .collect();
    for (c, d) in [(0, 1), (3, 4), (17, 2)] {
        for template in TEMPLATES {
            out.push((mix_query(template, c, d), ExecOpts::seq().optimized()));
        }
    }
    out
}

fn social_store() -> Store {
    let graph = owql::rdf::generate::social_network(
        owql::rdf::generate::SocialOptions {
            people: 120,
            avg_follows: 4,
            email_probability: 0.5,
            birthplace_probability: 0.8,
        },
        1,
    );
    Store::from_graph(&graph)
}

/// EXPLAIN is the plan that ran on every query the benchmark sends.
#[test]
fn explain_is_the_plan_that_ran_on_the_benchmark_queries() {
    let store = social_store();
    let snapshot = store.snapshot();
    let engine = snapshot.engine();
    let pools: Vec<Pool> = [1, 2, 8].into_iter().map(Pool::new).collect();
    for (p, opts) in benchmark_queries() {
        for pool in &pools {
            for mode in [ExecMode::Seq, ExecMode::Parallel] {
                let opts = ExecOpts { mode, ..opts };
                let what = format!("width {}, {mode:?}, {p}", pool.threads());
                assert_explain_is_the_run(&engine, &p, opts, pool, &what);
            }
        }
    }
}

/// The scan labels and estimates a traced sequential run of `p`
/// recorded for its outermost spine, in span-id order.
fn traced_scans(engine: &Engine, p: &Pattern) -> Vec<ScanKey> {
    let out = engine
        .run(p, &ExecOpts::seq().traced(), &Pool::sequential())
        .expect("unlimited budget cannot time out");
    let profile = out.profile.expect("traced run has a profile");
    let outer = spine_runs(&profile).swap_remove(0);
    outer.scans.into_iter().map(|(key, _)| key).collect()
}

/// A spine seeded by a non-triple conjunct starts from the columns that
/// conjunct certainly binds: `?c` is bound by the UNION, so the step
/// sharing it goes first — in EXPLAIN and in the run alike (EXPLAIN
/// used to ignore the conjunct and list `(?a, p, ?b)` first).
#[test]
fn seeded_spine_is_explained_in_run_order() {
    let graph: Graph = [
        ("a1", "p", "b1"),
        ("a2", "p", "b2"),
        ("b1", "q", "c1"),
        ("b2", "q", "c2"),
        ("b3", "q", "c3"),
        ("c1", "r", "k"),
        ("c2", "r", "k"),
    ]
    .into_iter()
    .map(|(s, p, o)| Triple::new(s, p, o))
    .collect();
    let engine = Engine::new(&graph);
    let p = parse_pattern("(((?a, p, ?b) AND (?b, q, ?c)) AND ((?c, r, k) UNION (?c, r, k)))")
        .expect("pattern parses");
    let plan = engine.explain(&p).expect("narrow pattern");
    // Each step is labelled with the run it scans: `?c` comes bound
    // from the UNION, then `?b` from the first step.
    let want: Vec<ScanKey> = vec![
        ("(?b, q, ?c) via PO index".to_owned(), 3),
        ("(?a, p, ?b) via PO index".to_owned(), 2),
    ];
    assert_eq!(planned_spines(&plan)[0], want, "{plan}");
    assert_eq!(traced_scans(&engine, &p), want);
    assert!(
        plan.to_string()
            .contains("seed, joined smallest first at run time"),
        "{plan}"
    );
}

/// Estimates are the run's statistic: on a compacted store with 6 of 10
/// `(?, p, o)` triples deleted, EXPLAIN and the SCAN span both report
/// the 10-row run upper bound (EXPLAIN used to print the term-level
/// count of 4).
#[test]
fn estimates_on_a_store_with_deletes_are_the_runs() {
    let store = Store::with_options(StoreOptions {
        cache_capacity: 0,
        ..StoreOptions::default()
    });
    let mut tx = store.begin();
    for i in 0..10 {
        tx.insert(Triple::new(&format!("s{i}"), "p", "o"));
    }
    store.commit(tx);
    store.force_compact();
    let mut tx = store.begin();
    for i in 0..6 {
        tx.delete(Triple::new(&format!("s{i}"), "p", "o"));
    }
    store.commit(tx);
    let snapshot = store.snapshot();
    assert_eq!(snapshot.len(), 4);
    let engine = snapshot.engine();
    let p = Pattern::t("?s", "p", "o");
    let plan = engine.explain(&p).expect("narrow pattern");
    let want: Vec<ScanKey> = vec![("(?s, p, o) via PO index".to_owned(), 10)];
    assert_eq!(planned_spines(&plan)[0], want, "{plan}");
    assert!(plan.to_string().contains("(~10 rows)"), "{plan}");
    assert_eq!(traced_scans(&engine, &p), want);
}

/// The benchmark's graph: seed-1 `social_network` at 16,000 people
/// (100,751 triples), as `owql_bench` generates it, built once.
fn benchmark_store() -> &'static Store {
    static STORE: std::sync::OnceLock<Store> = std::sync::OnceLock::new();
    STORE.get_or_init(|| {
        let graph = owql::rdf::generate::social_network(
            owql::rdf::generate::SocialOptions {
                people: 16_000,
                avg_follows: 4,
                email_probability: 0.5,
                birthplace_probability: 0.8,
            },
            1,
        );
        Store::from_graph(&graph)
    })
}

/// A mix template at person constants `c` and `d`.
fn mix_query(template: &str, c: usize, d: usize) -> Pattern {
    let text = template
        .replace("{C}", &format!("person{c}"))
        .replace("{D}", &format!("person{d}"));
    parse_pattern(&text).expect("mix template")
}

/// The plan a run of `p` under `opts` executed (the optimized pattern's
/// plan, when `opts` asks for the optimizer).
fn plan_of(engine: &Engine, p: &Pattern, opts: ExecOpts) -> Plan {
    engine
        .run(p, &opts, &Pool::sequential())
        .expect("unlimited budget cannot time out")
        .plan
}

/// The plan shapes the benchmark runs, on the benchmark's graph (the
/// 120-person `social_store` is too small for the probe rule to fire):
/// the analytic OPT suite plans no probe, the anchored mix OPTs that
/// share `?x` probe at every OPT, an OPT sharing no certain column
/// does not, and both FILTER templates run their condition on a seeded
/// `was_born_in` step instead of scanning that run as a subpattern.
#[test]
fn plan_shapes_on_the_benchmark_graph() {
    let store = benchmark_store();
    let snapshot = store.snapshot();
    let engine = snapshot.engine();
    for text in &SUITE[..3] {
        let p = parse_pattern(text).expect("suite query");
        let plan = plan_of(&engine, &p, ExecOpts::seq());
        assert!(!plan.to_string().contains("probe"), "{p}\n{plan}");
    }
    let pools: Vec<Pool> = [1, 2].into_iter().map(Pool::new).collect();
    for (c, d) in [(0, 1), (3, 4), (17, 2)] {
        let optimized = ExecOpts::seq().optimized();
        for (template, probes) in [(TEMPLATES[13], 1), (TEMPLATES[15], 2), (TEMPLATES[14], 0)] {
            let p = mix_query(template, c, d);
            let text = plan_of(&engine, &p, optimized).to_string();
            assert_eq!(
                text.matches("left outer join (probe on {?x})").count(),
                probes,
                "{p}\n{text}"
            );
            assert_eq!(text.matches("probe").count(), probes, "{p}\n{text}");
        }
        for template in [TEMPLATES[11], TEMPLATES[12]] {
            let p = mix_query(template, c, d);
            let plan = plan_of(&engine, &p, optimized);
            let spines = plan.spines();
            assert_eq!(spines.len(), 1, "no subpattern spine: {p}\n{plan}");
            let steps = &spines[0].steps;
            assert_eq!(steps.len(), 2, "{p}\n{plan}");
            assert!(steps[0].filter().is_none(), "anchored step first: {plan}");
            assert!(steps[1].filter().is_some(), "filtered step second: {plan}");
            assert!(
                steps.iter().all(|s| !s.label().ends_with("via P index")),
                "no unfiltered P-index scan: {p}\n{plan}"
            );
        }
        let p = mix_query(TEMPLATES[11], c, d);
        assert_eq!(
            plan_of(&engine, &p, optimized).spines()[0].steps[1].label(),
            "(?x, was_born_in, ?c) via SP index filter (?c = Chile)"
        );
        for template in [
            TEMPLATES[11],
            TEMPLATES[12],
            TEMPLATES[13],
            TEMPLATES[14],
            TEMPLATES[15],
        ] {
            let p = mix_query(template, c, d);
            for pool in &pools {
                for mode in [ExecMode::Seq, ExecMode::Parallel] {
                    let opts = ExecOpts { mode, ..optimized };
                    let what = format!("width {}, {mode:?}, {p}", pool.threads());
                    assert_explain_is_the_run(&engine, &p, opts, pool, &what);
                }
            }
        }
    }
}

/// Rows the `SCAN` spans of a traced sequential run of `p` produced.
fn scanned_rows(engine: &Engine, p: &Pattern, opts: ExecOpts) -> u64 {
    let out = engine
        .run(p, &opts.traced(), &Pool::sequential())
        .expect("unlimited budget cannot time out");
    let profile = out.profile.expect("traced run has a profile");
    profile
        .spans
        .iter()
        .filter(|s| s.kind == OpKind::Scan)
        .map(|s| s.rows_out)
        .sum()
}

/// The optimizer never makes a mix query scan more: on the benchmark's
/// graph, at three pairs of constants, every template's optimized run
/// produces at most as many `SCAN` rows as its unoptimized run. Rows,
/// not time, so the check is exact. A pushed FILTER planned as a seed
/// subpattern fails it: the FILTER templates then scan all 12,805
/// `was_born_in` rows optimized against about 8 plain.
#[test]
fn optimized_mix_scans_no_more_rows_than_plain() {
    let store = benchmark_store();
    let snapshot = store.snapshot();
    let engine = snapshot.engine();
    for (c, d) in [(0, 1), (3, 4), (17, 2)] {
        for template in TEMPLATES {
            let p = mix_query(template, c, d);
            let plain = scanned_rows(&engine, &p, ExecOpts::seq());
            let optimized = scanned_rows(&engine, &p, ExecOpts::seq().optimized());
            assert!(
                optimized <= plain,
                "{p}: optimized scanned {optimized} rows, plain {plain}"
            );
        }
    }
}

/// A random anchored pattern over the social vocabulary: an anchored
/// spine, possibly with a filtered conjunct, then a chain of OPTs whose
/// right operands are spines of (possibly filtered) triples. The
/// corners: a condition over a variable outside its triple, a
/// never-interned constant in a condition and in a right operand, and
/// a nested OPT whose shared variable is only possibly bound.
fn anchored_pattern(rng: &mut StdRng) -> Pattern {
    let anchor = format!("person{}", rng.gen_range(0..40usize));
    let anchor = anchor.as_str();
    let cond = |rng: &mut StdRng| match rng.gen_range(0..5) {
        0 => Condition::eq_const("c", "Chile"),
        1 => Condition::eq_const("c", "Sweden").not(),
        2 => Condition::eq_const("c", "Atlantis"),
        3 => Condition::eq_const("c", "Belgium").or(Condition::bound("c")),
        _ => Condition::eq_const("c", "Chile").and(Condition::bound("c")),
    };
    let born = |rng: &mut StdRng, s: &str| Pattern::t(s, "was_born_in", "?c").filter(cond(rng));
    let mut p = match rng.gen_range(0..5) {
        0 => Pattern::t(anchor, "follows", "?x"),
        1 => Pattern::t("?x", "follows", anchor),
        2 => Pattern::t(anchor, "follows", "?x").and(born(rng, "?x")),
        3 => Pattern::t("?x", "follows", anchor).and(Pattern::t("?x", "follows", "?y")),
        // A condition over `?y`, which its triple does not bind but an
        // earlier step does: on the joined row it would pass them all.
        _ => Pattern::t(anchor, "follows", "?y")
            .and(Pattern::t(anchor, "follows", "?x"))
            .and(
                Pattern::t("?x", "was_born_in", "?c")
                    .filter(Condition::eq_const("c", "Chile").or(Condition::bound("y"))),
            ),
    };
    for _ in 0..rng.gen_range(1..=3usize) {
        let right = match rng.gen_range(0..8) {
            0 => Pattern::t("?x", "email", "?e"),
            1 => Pattern::t("?x", "was_born_in", "?c"),
            2 => Pattern::t("?x", "follows", "?y"),
            // Shares `?y`, which an earlier OPT may leave unbound.
            3 => Pattern::t("?y", "name", "?n"),
            // Shares `?x` for certain and `?y` possibly.
            4 => Pattern::t("?x", "follows", "?y").and(Pattern::t("?y", "name", "?n")),
            5 => Pattern::t("?x", "name", "?n").and(born(rng, "?x")),
            // A never-interned constant in the right operand.
            6 => Pattern::t("?x", "email", "nobody@nowhere"),
            _ => Pattern::t("?x", "follows", "?z").and(born(rng, "?z")),
        };
        p = p.opt(right);
    }
    p
}

/// The probe and the filtered step against the reference evaluator,
/// where both fire: random anchored OPT chains and `t FILTER R`
/// conjuncts on a 400-person social network whose snapshot overlays
/// inserts and deletes on the anchors' neighbourhoods (so the probes
/// cross the add tier and the delete set), at pool widths 1, 2 and 8,
/// sequential and parallel, plain and optimized. Fails if no plan
/// probes or no step carries a filter.
#[test]
fn probes_and_filtered_steps_match_reference() {
    let graph = owql::rdf::generate::social_network(
        owql::rdf::generate::SocialOptions {
            people: 400,
            avg_follows: 4,
            email_probability: 0.5,
            birthplace_probability: 0.8,
        },
        7,
    );
    let store = Store::from_graph(&graph);
    let mut rng = StdRng::seed_from_u64(0xC0_6000);
    let anchors: std::collections::BTreeSet<String> =
        (0..40).map(|i| format!("person{i}")).collect();
    let base: Vec<Triple> = graph.iter().copied().collect();
    let anchored: Vec<Triple> = base
        .iter()
        .copied()
        .filter(|t| anchors.contains(t.s.as_str()))
        .collect();
    for _ in 0..30 {
        let mut tx = store.begin();
        for _ in 0..10 {
            let i = rng.gen_range(0..40usize);
            let person = format!("person{i}");
            if rng.gen_bool(0.5) {
                let t = match rng.gen_range(0..3) {
                    0 => Triple::new(
                        &person,
                        "follows",
                        &format!("person{}", rng.gen_range(0..400usize)),
                    ),
                    1 => Triple::new(&person, "email", &format!("{person}@example.net")),
                    _ => Triple::new(
                        &format!("person{}", rng.gen_range(0..400usize)),
                        "follows",
                        &person,
                    ),
                };
                tx.insert(t);
            } else if rng.gen_bool(0.8) {
                tx.delete(anchored[rng.gen_range(0..anchored.len())]);
            } else {
                tx.delete(base[rng.gen_range(0..base.len())]);
            }
        }
        store.commit(tx);
    }
    let snapshot = store.snapshot();
    let (engine, visible) = (snapshot.engine(), snapshot.to_graph());
    let pools: Vec<Pool> = [1, 2, 8].into_iter().map(Pool::new).collect();
    let (mut probed, mut filtered) = (0, 0);
    for k in 0..40 {
        let p = anchored_pattern(&mut rng);
        let reference = evaluate(&p, &visible);
        for optimize in [false, true] {
            let base = if optimize {
                ExecOpts::seq().optimized()
            } else {
                ExecOpts::seq()
            };
            let plan = plan_of(&engine, &p, base);
            probed += usize::from(plan.to_string().contains("(probe on"));
            filtered += usize::from(
                plan.spines()
                    .iter()
                    .any(|s| s.steps.iter().any(|st| st.filter().is_some())),
            );
            for pool in &pools {
                for mode in [ExecMode::Seq, ExecMode::Parallel] {
                    let opts = ExecOpts { mode, ..base };
                    let got = engine
                        .run(&p, &opts, pool)
                        .expect("unlimited budget cannot time out")
                        .mappings;
                    assert_eq!(
                        got,
                        reference,
                        "pattern {k}, width {}, {mode:?}, optimize {optimize}: {p}\n{plan}",
                        pool.threads()
                    );
                }
            }
        }
    }
    assert!(probed > 0, "no plan probed");
    assert!(filtered > 0, "no step carried a filter");
}
