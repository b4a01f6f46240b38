//! Cross-crate agreement tests for the static analyzer.
//!
//! Property-tests (over `owql_algebra::random`) that:
//!
//! - the analyzer is total — [`owql_lint::analyze_pattern`] never
//!   panics on any generated pattern — and reports the complexity
//!   class of the fragment it found (whether a fragment's guarantee
//!   holds semantically is tested in `tests/integration_fragments.rs`);
//! - parsed spans agree with the analyzer's synthesized spans: the
//!   root span of `parse_pattern_spanned(p.to_string())` covers the
//!   whole rendering, and every diagnostic span slices to a
//!   well-formed subpattern of it.

use owql_algebra::analysis::Operators;
use owql_algebra::random::{random_pattern, PatternConfig};
use owql_lint::{analyze_pattern, RuleId, Severity, WellDesignedVerdict};
use owql_parser::parse_pattern_spanned;

fn config() -> PatternConfig {
    PatternConfig::standard(4, 4)
        .with_operators(Operators::NS_SPARQL.with(Operators::MINUS))
        .with_depth(4)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

    #[test]
    fn analyzer_is_total_and_its_complexity_matches_its_fragment(seed in 0u64..1_000_000) {
        let p = random_pattern(&config(), seed);
        let a = analyze_pattern(&p);
        proptest::prop_assert_eq!(a.complexity, a.fragment.complexity(), "on seed {}: {}", seed, p);
        // FR001 is always present, always first, and spans the root.
        proptest::prop_assert_eq!(a.diagnostics[0].rule, RuleId::Fragment);
        proptest::prop_assert_eq!(a.diagnostics[0].span.start, 0);
        proptest::prop_assert_eq!(a.diagnostics[0].span.end, p.to_string().len());
    }
}

#[test]
fn well_designed_verdict_matches_the_algebra_check() {
    use owql_algebra::well_designed::{well_designed_aof, well_designed_auof};
    for seed in 0..400 {
        let p = random_pattern(&config(), seed);
        let verdict = owql_lint::well_designedness(&p);
        let ops = owql_algebra::analysis::operators(&p);
        match verdict {
            WellDesignedVerdict::Aof => assert!(well_designed_aof(&p).is_ok()),
            WellDesignedVerdict::Auof => assert!(well_designed_auof(&p).is_ok()),
            WellDesignedVerdict::Violated => {
                assert!(ops.within(Operators::AUOF));
                assert!(well_designed_auof(&p).is_err() || well_designed_aof(&p).is_err());
            }
            WellDesignedVerdict::NotApplicable => assert!(!ops.within(Operators::AUOF)),
        }
        // WD diagnostics fire exactly when the verdict is Violated for
        // AOF patterns (the walk generalizes beyond AUOF, so only the
        // in-fragment direction is exact).
        if ops.within(Operators::AOF) {
            let a = analyze_pattern(&p);
            let has_wd = a
                .diagnostics
                .iter()
                .any(|d| matches!(d.rule, RuleId::BadOptVariable | RuleId::UnsafeFilter));
            assert_eq!(
                has_wd,
                verdict == WellDesignedVerdict::Violated,
                "WD diagnostics vs verdict on seed {seed}: {p}"
            );
        }
    }
}

#[test]
fn diagnostic_spans_slice_to_parsable_subpatterns() {
    for seed in 0..200 {
        let p = random_pattern(&config(), seed);
        let text = p.to_string();
        let (reparsed, spans) = parse_pattern_spanned(&text).expect("round-trip");
        assert_eq!(reparsed, p);
        let a = owql_lint::analyze(&p, &spans);
        for d in &a.diagnostics {
            let slice = &text[d.span.start..d.span.end];
            let (sub, _) = parse_pattern_spanned(slice)
                .unwrap_or_else(|e| panic!("span {} of {text} -> {slice}: {e}", d.span));
            assert!(sub.size() <= p.size());
        }
    }
}

#[test]
fn severities_never_exceed_error_and_infos_are_stable() {
    for seed in 0..200 {
        let p = random_pattern(&config(), seed);
        let a = analyze_pattern(&p);
        let worst = a.worst_severity().expect("FR001 always present");
        assert!(worst <= Severity::Error);
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.severity == d.rule.default_severity()));
    }
}
