//! Differential tests for certified optimizer pruning: with
//! [`ExecOpts::optimized`] set, the lint dataflow pass may rewrite the
//! plan — dropping provably-unsatisfiable FILTERs (FL003), subsumed
//! UNION branches (UN002), and collapsing bound-guarded OPTs to joins
//! (BD001) — and every rewrite must preserve the answer set exactly:
//! against the reference engine, at every pool width, over churned
//! store snapshots. The handcrafted cases also pin
//! the observability contract: prune counters in the outcome, the
//! metrics hub, the Prometheus rendering, and the EXPLAIN plan.

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
        vars: (0..3).map(|i| Variable::new(&format!("pv{i}"))).collect(),
        iris: ["a", "b", "c", "d", "e", "f", "p", "q", "r", "zzz_absent"]
            .iter()
            .map(|s| Iri::new(s))
            .collect(),
        max_depth: 3,
        var_probability: 0.5,
    }
}

/// Random inserts and deletes in small transactions, so the optimizer
/// runs against snapshots with base runs, add tiers, and delete sets.
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

/// The request every differential case runs: optimization on (so the
/// prune pass fires), uncached (so it actually runs every time).
fn optimized_request(p: &Pattern) -> QueryRequest {
    QueryRequest::with_opts(p.clone(), ExecOpts::parallel().uncached().optimized())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 30 })]

    /// Acceptance criterion: optimize-with-pruning is answer-identical
    /// to the unoptimized reference engine for random NS-SPARQL+MINUS
    /// patterns over churned snapshots, at pool widths 1, 2, and 8, in
    /// both sequential and parallel mode. The unoptimized parallel run
    /// rides along, so the pool's fan-out is held to the reference on
    /// churned snapshots with the pruning pass out of the picture.
    #[test]
    fn pruned_evaluation_matches_reference_at_all_widths(
        store_seed in 0..1000u64,
        pattern_seed in 0..1000u64,
    ) {
        let store = churned_store(0x9121E ^ store_seed, 50);
        let p = random_pattern(&pattern_config(), pattern_seed);
        let snapshot = store.snapshot();
        let reference = evaluate(&p, &snapshot.to_graph());
        for width in [1usize, 2, 8] {
            let pool = Pool::new(width);
            let runs = [
                ExecOpts::seq().uncached().optimized(),
                ExecOpts::parallel().uncached().optimized(),
                ExecOpts::parallel().uncached(),
            ];
            for opts in runs {
                let req = QueryRequest::with_opts(p.clone(), opts);
                let got = snapshot
                    .query_request(&req, &pool)
                    .expect("unlimited budget cannot time out")
                    .mappings;
                prop_assert_eq!(
                    &got,
                    &reference,
                    "plan diverged from reference at width {}, {:?}, pattern {}",
                    width,
                    opts,
                    p
                );
            }
        }
    }

}

/// Each certified rewrite fires end-to-end on a handcrafted shape: the
/// outcome reports the prune, the store's metrics hub folds it, and the
/// answers match the reference engine on the unoptimized pattern.
#[test]
fn certified_prunes_fire_and_preserve_answers() {
    let store = churned_store(0xF1003, 60);
    let pool = Pool::new(2);
    let hub = store.metrics_hub();

    // FL003: a FILTER pinning ?y to two distinct constants is
    // unsatisfiable — the subtree prunes to the empty marker.
    let unsat = Pattern::t("?x", "p", "?y")
        .filter(Condition::eq_const("y", "a").and(Condition::eq_const("y", "b")));
    // UN002: the right branch refines the left with an extra triple
    // over the same variables, so it is subsumed and dropped.
    let subsumed = Pattern::t("?x", "p", "?y")
        .union(Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "q", "?x")));
    // BD001: bound(?z) rejects every OPT no-match row, so the OPT
    // collapses to a join.
    let collapsible = Pattern::t("?x", "p", "?y")
        .opt(Pattern::t("?y", "q", "?z"))
        .filter(Condition::bound("z"));

    type Counter = fn(&owql::obs::PruneObs) -> u64;
    let cases: [(&str, &Pattern, Counter); 3] = [
        ("FL003", &unsat, |o| o.unsat_filters),
        ("UN002", &subsumed, |o| o.subsumed_branches),
        ("BD001", &collapsible, |o| o.opt_collapses),
    ];
    for (rule, p, count) in cases {
        let reference = evaluate(p, &store.snapshot().to_graph());
        let outcome = store
            .query_request(&optimized_request(p), &pool)
            .expect("unlimited budget cannot time out");
        assert!(
            count(&outcome.prunes) > 0,
            "{rule} must fire on its handcrafted shape"
        );
        assert_eq!(
            outcome.mappings, reference,
            "{rule} prune changed the answer set"
        );
    }

    // The hub folded every outcome's counters.
    assert!(hub.pruned_unsat_filters.load(Ordering::Relaxed) > 0);
    assert!(hub.pruned_subsumed_branches.load(Ordering::Relaxed) > 0);
    assert!(hub.pruned_opt_collapses.load(Ordering::Relaxed) > 0);

    // ... and the Prometheus rendering exposes them per rule.
    let out = owql::obs::prometheus::to_text(&hub.families(store.cache_stats().hits));
    for rule in ["FL003", "UN002", "BD001"] {
        let sample = format!("owql_lint_prunes_total{{rule=\"{rule}\"}}");
        let line = out
            .lines()
            .find(|l| l.starts_with(&sample))
            .unwrap_or_else(|| panic!("missing {sample} in /metrics"));
        assert!(
            !line.ends_with(" 0"),
            "{sample} must be nonzero after a pruned query: {line}"
        );
    }
}

/// The pruned plan is what EXPLAIN shows: an unsatisfiable FILTER
/// pattern optimizes to the `FILTER false` empty marker, and the
/// engine's plan for it renders that marker instead of the original
/// conjunction.
#[test]
fn explain_shows_the_pruned_plan() {
    let store = churned_store(0xB0071, 40);
    let p = Pattern::t("?x", "p", "?y")
        .filter(Condition::eq_const("y", "a").and(Condition::eq_const("y", "b")));
    let (optimized, obs) = owql::eval::optimize_with_stats(&p);
    assert_eq!(obs.unsat_filters, 1);
    assert!(
        optimized.to_string().contains("FILTER false"),
        "expected the empty marker, got {optimized}"
    );
    let engine = store.snapshot().engine();
    let plan = engine
        .explain(&optimized)
        .expect("narrow pattern")
        .to_string();
    assert!(
        plan.contains("filter false"),
        "EXPLAIN must show the pruned plan, got:\n{plan}"
    );
    assert!(
        !plan.contains("?y = a"),
        "the refuted conjunction must be gone from the plan:\n{plan}"
    );
}

/// Cache hits bypass the optimizer: with caching on, the second run of
/// a prunable pattern reports zero prunes but identical answers.
#[test]
fn cache_hits_report_zero_prunes() {
    let store = Store::with_options(StoreOptions {
        min_compact: 8,
        compact_fraction: 0.3,
        cache_capacity: 16,
    });
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    churn(&store, &mut rng, 40);
    let pool = Pool::new(2);
    let p = Pattern::t("?x", "p", "?y")
        .filter(Condition::eq_const("y", "a").and(Condition::eq_const("y", "b")));
    let req = QueryRequest::with_opts(p.clone(), ExecOpts::parallel().optimized());
    let first = store
        .query_request(&req, &pool)
        .expect("unlimited budget cannot time out");
    assert!(!first.cache_hit);
    assert_eq!(first.prunes.unsat_filters, 1);
    let second = store
        .query_request(&req, &pool)
        .expect("unlimited budget cannot time out");
    assert!(second.cache_hit, "same epoch, same request: cache must hit");
    assert_eq!(second.prunes.total(), 0, "cache hits run no optimizer");
    assert_eq!(second.mappings, first.mappings);
}
