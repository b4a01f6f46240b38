//! Integration tests for the fragment/language hierarchy of the paper:
//! classification, the expressiveness translations between levels, and
//! the monotonicity guarantees each level carries — plus the
//! equivalence sampler of `owql_algebra::equivalence` itself, driven by
//! the reference evaluator.

use owql::algebra::analysis::Operators;
use owql::algebra::equivalence::{check_relation, EquivalenceOptions, EquivalenceResult, Relation};
use owql::prelude::*;
use owql::theory::checks::{self, CheckOptions};
use owql::theory::fragments::{classify, is_ns_pattern, is_simple_pattern, QueryLanguage};
use owql::theory::rewrite::opt_to_ns::opt_to_ns;
use owql::theory::rewrite::pattern_tree::wd_to_simple;

fn quick() -> CheckOptions {
    CheckOptions {
        universe_size: 6,
        random_graphs: 8,
        random_graph_size: 8,
        ..CheckOptions::default()
    }
}

/// The Prop 5.6 pipeline lands exactly in SP–SPARQL, the level the
/// classifier reports.
#[test]
fn wd_translation_lands_in_sp_sparql() {
    let wd = parse_pattern("(((?p, was_born_in, Chile) OPT (?p, email, ?e)) OPT (?p, name, ?n))")
        .unwrap();
    assert_eq!(classify(&wd), QueryLanguage::WellDesignedAof);
    let simple = wd_to_simple(&wd).unwrap();
    assert!(is_simple_pattern(&simple));
    assert_eq!(classify(&simple), QueryLanguage::SpSparql);
}

/// OPT→NS on a union of well-designed patterns lands in (a language
/// contained in) USP–SPARQL after per-disjunct translation.
#[test]
fn wd_union_translates_to_usp() {
    let p1 = parse_pattern("((?p, was_born_in, Chile) OPT (?p, email, ?e))").unwrap();
    let p2 = parse_pattern("((?p, was_born_in, Belgium) OPT (?p, name, ?n))").unwrap();
    let usp = wd_to_simple(&p1).unwrap().union(wd_to_simple(&p2).unwrap());
    assert!(is_ns_pattern(&usp));
    assert_eq!(classify(&usp), QueryLanguage::UspSparql);
    // Equivalent to the original union.
    let original = p1.union(p2);
    let r = check_relation(
        &original,
        &usp,
        Relation::Equivalent,
        &|p, g| evaluate(p, g),
        &EquivalenceOptions::default(),
    );
    assert!(r.holds(), "{r:?}");
}

/// Every guaranteed-weakly-monotone language level passes the bounded
/// checker on representative members; raw SPARQL does not (witness:
/// Example 3.3).
#[test]
fn guarantee_flags_are_honest() {
    let members: &[(&str, bool)] = &[
        ("((?x, a, ?y) AND (?y, b, ?z))", true),
        ("((?x, a, ?y) UNION (?x, b, ?y))", true),
        ("(SELECT {?x} WHERE ((?x, a, ?y) UNION (?x, b, ?y)))", true),
        ("((?x, a, b) OPT (?x, c, ?y))", true),
        ("NS(((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y))))", true),
        (
            "((?X, a, Chile) AND ((?Y, a, Chile) OPT (?Y, b, ?X)))",
            false,
        ),
    ];
    for (text, expect_wm) in members {
        let p = parse_pattern(text).unwrap();
        let lang = classify(&p);
        let wm = checks::weakly_monotone(&p, &quick()).holds();
        assert_eq!(wm, *expect_wm, "{text} ({lang})");
        if lang.guarantees_weak_monotonicity() {
            assert!(wm, "language {lang} promised weak monotonicity for {text}");
        }
    }
}

/// The §6.2 easy direction: a CONSTRUCT query over a weakly-monotone
/// pattern is monotone (bounded-checked on a mixed batch).
#[test]
fn weakly_monotone_pattern_gives_monotone_construct() {
    let patterns = [
        "((?x, a, ?y) UNION (?x, b, ?y))",
        "((?x, a, b) OPT (?x, c, ?y))",
        "NS(((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y))))",
    ];
    for text in patterns {
        let p = parse_pattern(text).unwrap();
        assert!(checks::weakly_monotone(&p, &quick()).holds(), "{text}");
        let q = ConstructQuery::new([owql::algebra::pattern::tp("?x", "out", "?y")], p);
        assert!(checks::construct_monotone(&q, &quick()).holds(), "{text}");
    }
}

/// OPT→NS rewriting moves SPARQL[AOF] queries into NS-SPARQL while
/// preserving subsumption equivalence (checked through the public
/// equivalence API).
#[test]
fn opt_to_ns_is_subsumption_equivalent_via_api() {
    let queries = [
        "((?x, a, b) OPT (?x, c, ?y))",
        "(((?x, a, b) OPT (?x, c, ?y)) OPT (?x, d, ?z))",
        "((?x, a, ?y) OPT ((?y, b, ?z) OPT (?z, c, ?w)))",
    ];
    for text in queries {
        let p = parse_pattern(text).unwrap();
        let ns = opt_to_ns(&p);
        assert!(!owql::algebra::analysis::operators(&ns).contains(Operators::OPT));
        let r = check_relation(
            &p,
            &ns,
            Relation::SubsumptionEquivalent,
            &|p, g| evaluate(p, g),
            &EquivalenceOptions::default(),
        );
        assert!(r.holds(), "{text}: {r:?}");
    }
}

/// Containment along the hierarchy: a simple pattern's answers are
/// contained in its NS-free body's answers (NS only removes).
#[test]
fn ns_is_contained_in_body() {
    let body = parse_pattern("((?x, a, b) UNION ((?x, a, b) AND (?x, c, ?y)))").unwrap();
    let simple = body.clone().ns();
    let r = check_relation(
        &simple,
        &body,
        Relation::Contained,
        &|p, g| evaluate(p, g),
        &EquivalenceOptions::default(),
    );
    assert!(r.holds());
}

/// The sampler's verdicts, driven by the reference evaluator: plain
/// equivalence, refutation with a witness graph, ≡s vs ≡, and
/// directional containment.
#[test]
fn detects_equivalence_of_commuted_and() {
    let p1 = Pattern::t("?x", "a", "?y").and(Pattern::t("?y", "b", "?z"));
    let p2 = Pattern::t("?y", "b", "?z").and(Pattern::t("?x", "a", "?y"));
    assert!(relation_holds(&p1, &p2, Relation::Equivalent));
}

#[test]
fn refutes_distinct_patterns_with_witness() {
    let p1 = Pattern::t("?x", "a", "?y");
    let p2 = Pattern::t("?x", "b", "?y");
    match check_relation(
        &p1,
        &p2,
        Relation::Equivalent,
        &evaluate,
        &EquivalenceOptions::default(),
    ) {
        EquivalenceResult::Refuted { witness } => {
            assert_ne!(evaluate(&p1, &witness), evaluate(&p2, &witness));
        }
        other => panic!("expected refutation, got {other:?}"),
    }
}

#[test]
fn subsumption_equivalence_vs_plain() {
    // NS(t ∪ (t AND t')) vs (t ∪ (t AND t')): ≡s but not ≡.
    let t = Pattern::t("?x", "a", "b");
    let tt = t.clone().and(Pattern::t("?x", "c", "?y"));
    let union = t.union(tt);
    let ns = union.clone().ns();
    assert!(relation_holds(&union, &ns, Relation::SubsumptionEquivalent));
    assert!(!relation_holds(&union, &ns, Relation::Equivalent));
}

#[test]
fn containment_is_directional() {
    let small = Pattern::t("?x", "a", "b");
    let big = small.clone().union(Pattern::t("?x", "c", "?y"));
    assert!(relation_holds(&small, &big, Relation::Contained));
    assert!(!relation_holds(&big, &small, Relation::Contained));
}

/// `check_relation` works across OPT, FILTER, MINUS and SELECT, with
/// the paper's semantics for each.
#[test]
fn check_relation_is_total_over_all_pattern_variants() {
    use owql::rdf::graph::graph_from;

    let g = graph_from(&[("1", "a", "b"), ("1", "c", "2"), ("3", "a", "b")]);
    // OPT: left-outer-join semantics (Example 3.1's shape).
    let opt = Pattern::t("?x", "a", "b").opt(Pattern::t("?x", "c", "?y"));
    let out = evaluate(&opt, &g);
    assert_eq!(out.len(), 2);
    assert!(out.contains(&Mapping::from_str_pairs(&[("x", "1"), ("y", "2")])));
    assert!(out.contains(&Mapping::from_str_pairs(&[("x", "3")])));
    // FILTER over the OPT keeps only the extended row.
    let filtered = opt.clone().filter(Condition::bound("y"));
    assert_eq!(evaluate(&filtered, &g).len(), 1);
    // MINUS removes compatible rows.
    let minus = Pattern::t("?x", "a", "b").minus(Pattern::t("?x", "c", "?y"));
    let out = evaluate(&minus, &g);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Mapping::from_str_pairs(&[("x", "3")])));
    // SELECT projects.
    let select = Pattern::t("?x", "c", "?y").select(["?y"]);
    assert!(evaluate(&select, &g).contains(&Mapping::from_str_pairs(&[("y", "2")])));
    assert!(
        relation_holds(&opt.clone().ns(), &opt, Relation::Equivalent),
        "NS over well-designed OPT is the identity"
    );
}

/// Differential soundness of the linter's UNION-branch subsumption:
/// whenever `branch_subsumes(a, b)` holds on random conjunctive
/// branches, the sampler finds `⟦b⟧ ⊆ ⟦a⟧` on every graph it tries.
#[test]
fn subsumption_verdicts_survive_graph_sampling() {
    use owql::algebra::random::{random_pattern, PatternConfig};
    use owql::lint::branch_subsumes;

    let cfg = PatternConfig {
        allowed: Operators::AF,
        max_depth: 3,
        ..PatternConfig::standard(3, 3)
    };
    let mut holds = 0;
    for seed in 0..400u64 {
        let a = random_pattern(&cfg, seed);
        let b = random_pattern(&cfg, seed ^ 0xB0B);
        // Refine b so subsumption actually fires sometimes: check
        // a against a ∧ b as well as the raw pair.
        let refined = a.clone().and(b.clone());
        for candidate in [&b, &refined] {
            if !branch_subsumes(&a, candidate) {
                continue;
            }
            holds += 1;
            let r = check_relation(
                candidate,
                &a,
                Relation::Contained,
                &evaluate,
                &EquivalenceOptions {
                    universe_size: 8,
                    random_graphs: 24,
                    random_graph_size: 6,
                    seed,
                },
            );
            assert!(r.holds(), "seed {seed}: {candidate} ⊄ {a}");
        }
    }
    assert!(holds >= 20, "only {holds} subsumption verdicts sampled");
}

fn relation_holds(p1: &Pattern, p2: &Pattern, relation: Relation) -> bool {
    check_relation(p1, p2, relation, &evaluate, &EquivalenceOptions::default()).holds()
}
