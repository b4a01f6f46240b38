//! Property tests for the term dictionary and the id-encoded runs: the
//! id layer must be an exact, stable mirror of the term layer.

use owql_rdf::{Graph, IdRuns, Iri, TermDict, TermId, Triple};
use proptest::prelude::*;

fn arb_iri() -> impl Strategy<Value = Iri> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| Iri::new(&s)),
        "[a-z]{1,4}".prop_map(|s| Iri::new(&format!("http://example.org/{s}"))),
    ]
}

fn arb_terms() -> impl Strategy<Value = Vec<Iri>> {
    proptest::collection::vec(arb_iri(), 0..60)
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((arb_iri(), arb_iri(), arb_iri()), 0..50)
        .prop_map(|v| v.into_iter().map(|(s, p, o)| Triple { s, p, o }).collect())
}

/// The reference scan: filter the raw triple list by the pattern.
fn naive_scan(triples: &[Triple], s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple> {
    let mut out: Vec<Triple> = triples
        .iter()
        .filter(|t| {
            s.is_none_or(|s| t.s == s) && p.is_none_or(|p| t.p == p) && o.is_none_or(|o| t.o == o)
        })
        .copied()
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    /// Every interned term resolves back to itself, at the id intern
    /// reported — and lookup agrees with intern.
    #[test]
    fn intern_resolve_roundtrip(terms in arb_terms()) {
        let dict = TermDict::new();
        for &t in &terms {
            let id = dict.intern(t);
            prop_assert_eq!(dict.lookup(t), Some(id));
            prop_assert_eq!(dict.resolve(id), Some(t));
        }
        // Re-interning is a no-op: same ids the second time around.
        for &t in &terms {
            let id = dict.lookup(t).unwrap();
            prop_assert_eq!(dict.intern(t), id);
        }
    }

    /// A rank-seeded dictionary assigns ids in sorted-term order
    /// (matching the persisted segment term table), and later interns
    /// never renumber the seeded prefix.
    #[test]
    fn seeded_ranks_are_stable(seed in arb_terms(), later in arb_terms()) {
        let mut sorted: Vec<Iri> = seed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let dict = TermDict::from_sorted_terms(sorted.clone());
        // Rank-preserving: the id of the i-th sorted term is i + 1.
        for (i, &t) in sorted.iter().enumerate() {
            prop_assert_eq!(dict.lookup(t), TermId::try_from(i + 1).ok());
        }
        let before: Vec<(Iri, TermId)> =
            sorted.iter().map(|&t| (t, dict.lookup(t).unwrap())).collect();
        for &t in &later {
            dict.intern(t);
        }
        // The original assignments survive any amount of later growth.
        for (t, id) in before {
            prop_assert_eq!(dict.lookup(t), Some(id));
            prop_assert_eq!(dict.resolve(id), Some(t));
        }
    }

    /// Id-encoded run scans agree with the naive term-level filter on
    /// all 8 triple-pattern shapes, including constants absent from the
    /// graph.
    #[test]
    fn id_scan_matches_term_scan(g in arb_graph(), probe in arb_iri()) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let dict = TermDict::new();
        let runs = IdRuns::build(&triples, &dict);
        // Candidate constants: one drawn from the graph per position
        // when available, plus a probe term that may not be interned.
        let mut subjects = vec![None, Some(probe)];
        let mut predicates = vec![None, Some(probe)];
        let mut objects = vec![None, Some(probe)];
        if let Some(t) = triples.first() {
            subjects.push(Some(t.s));
            predicates.push(Some(t.p));
            objects.push(Some(t.o));
        }
        for &s in &subjects {
            for &p in &predicates {
                for &o in &objects {
                    let expected = naive_scan(&triples, s, p, o);
                    // A constant the dictionary has never seen matches
                    // nothing, mirroring the evaluator's Missing arm.
                    let encode = |t: Option<Iri>| t.map(|t| dict.lookup(t).unwrap_or(0));
                    let (es, ep, eo) = (encode(s), encode(p), encode(o));
                    let mut got: Vec<Triple> = if es == Some(0) || ep == Some(0) || eo == Some(0) {
                        Vec::new()
                    } else {
                        let (rows, order) = runs.scan(es, ep, eo);
                        rows.iter()
                            .map(|&r| {
                                let [ts, tp, to] = order.to_spo(r);
                                Triple {
                                    s: dict.resolve(ts).unwrap(),
                                    p: dict.resolve(tp).unwrap(),
                                    o: dict.resolve(to).unwrap(),
                                }
                            })
                            .collect()
                    };
                    got.sort_unstable();
                    prop_assert_eq!(got, expected, "shape ({:?},{:?},{:?})", s, p, o);
                }
            }
        }
    }

    /// The hinted (galloping) scan returns exactly the plain scan's
    /// range from any starting hint.
    #[test]
    fn hinted_scan_matches_plain_scan(g in arb_graph(), hint0 in 0usize..200) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let dict = TermDict::new();
        let runs = IdRuns::build(&triples, &dict);
        let n = dict.len();
        let ids: Vec<Option<TermId>> = (0..=TermId::try_from(n.min(6)).expect("small"))
            .map(|i| if i == 0 { None } else { Some(i) })
            .collect();
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let (want_rows, want_order) = runs.scan(s, p, o);
                    let mut hint = hint0;
                    let (got_rows, got_order) = runs.scan_from(s, p, o, &mut hint);
                    prop_assert_eq!(got_rows, want_rows);
                    prop_assert_eq!(got_order as u8, want_order as u8);
                    // The returned hint is reusable: scanning again from
                    // the exact position must also agree.
                    let (again, _) = runs.scan_from(s, p, o, &mut hint);
                    prop_assert_eq!(again, want_rows);
                }
            }
        }
    }
}
