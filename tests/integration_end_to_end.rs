//! End-to-end integration: surface syntax → parser → rewrites →
//! engines → checkers, across crates.

use owql::algebra::analysis::{in_fragment, operators, Operators};
use owql::algebra::pattern_tree::wd_to_simple;
use owql::prelude::*;
use owql::rdf::generate;
use owql::theory::checks::{self, CheckOptions};
use owql::theory::rewrite::ns_elimination::eliminate_ns;
use owql::theory::rewrite::opt_to_ns::opt_to_ns;

/// Sequential evaluation through the unified entry point.
fn eval(engine: &Engine, p: &Pattern) -> MappingSet {
    engine
        .run(p, &ExecOpts::seq(), &Pool::sequential())
        .expect("unlimited budget cannot time out")
        .mappings
}

fn quick() -> CheckOptions {
    CheckOptions {
        universe_size: 7,
        random_graphs: 10,
        random_graph_size: 10,
        ..CheckOptions::default()
    }
}

/// The full §5 pipeline on a realistic query: parse a well-designed
/// query, compile it to a simple pattern (Prop 5.6), eliminate NS
/// (Thm 5.1), desugar MINUS — every stage evaluates identically on a
/// workload graph.
#[test]
fn full_pipeline_well_designed_to_core_sparql() {
    let p = parse_pattern("(((?p, was_born_in, Chile) OPT (?p, email, ?e)) OPT (?p, follows, ?f))")
        .unwrap();
    let g = generate::social_network(
        generate::SocialOptions {
            people: 25,
            ..Default::default()
        },
        9,
    );

    let simple = wd_to_simple(&p).expect("well designed");
    assert!(matches!(simple, Pattern::Ns(_)));

    let eliminated = eliminate_ns(&simple, false).expect("NS-eliminable");
    assert!(!operators(&eliminated).contains(Operators::NS));

    let core = eliminated.desugar_minus();
    assert!(operators(&core).within(Operators::SPARQL));

    let engine = Engine::new(&g);
    let reference = eval(&engine, &p);
    assert_eq!(reference, eval(&engine, &simple), "Prop 5.6 stage");
    assert_eq!(reference, eval(&engine, &eliminated), "Thm 5.1 stage");
    assert_eq!(reference, eval(&engine, &core), "MINUS desugaring stage");
}

/// The OPT→NS story across a workload: on well-designed queries the
/// two agree exactly and both are weakly monotone.
#[test]
fn opt_vs_ns_on_workload() {
    let queries = [
        "((?p, was_born_in, Chile) OPT (?p, email, ?e))",
        "((?p, name, ?n) OPT ((?p, email, ?e) OPT (?p, follows, ?f)))",
        "(((?p, name, ?n) AND (?p, was_born_in, Chile)) OPT (?p, email, ?e))",
    ];
    let g = generate::social_network(
        generate::SocialOptions {
            people: 30,
            ..Default::default()
        },
        5,
    );
    let engine = Engine::new(&g);
    for q in queries {
        let p = parse_pattern(q).unwrap();
        let ns = opt_to_ns(&p);
        assert_eq!(eval(&engine, &p), eval(&engine, &ns), "{q}");
        assert!(checks::weakly_monotone(&ns, &quick()).holds(), "{q}");
    }
}

/// Fragment classification matches the paper's hierarchy on a mixed
/// batch of parsed queries.
#[test]
fn fragment_classification() {
    let cases: &[(&str, Operators, bool)] = &[
        ("(?x, a, ?y)", Operators::AF, true),
        ("((?x, a, ?y) AND (?y, b, ?z))", Operators::AF, true),
        ("((?x, a, ?y) UNION (?x, b, ?y))", Operators::AUF, true),
        ("((?x, a, ?y) OPT (?y, b, ?z))", Operators::AOF, true),
        (
            "(SELECT {?x} WHERE ((?x, a, ?y) UNION (?x, b, ?y)))",
            Operators::AUFS,
            true,
        ),
        ("NS((?x, a, ?y))", Operators::AUFS, false),
        ("NS((?x, a, ?y))", Operators::NS_SPARQL, true),
    ];
    for (text, fragment, expected) in cases {
        let p = parse_pattern(text).unwrap();
        assert_eq!(in_fragment(&p, *fragment), *expected, "{text}");
    }
}

/// Engines agree on every generator workload shape.
#[test]
fn engines_agree_on_workloads() {
    let graphs = vec![
        generate::uniform(150, 12, 6, 12, 1),
        generate::social_network(Default::default(), 2),
        generate::university(Default::default(), 3),
        generate::organizations(15, 40, 4),
        generate::star("hub", "spoke", 40),
        generate::chain("next", 40),
    ];
    let queries = [
        "((?a, follows, ?b) AND (?b, follows, ?c))",
        "((?p, name, ?n) OPT (?p, email, ?e))",
        "NS(((?p, works_at, ?u) UNION ((?p, works_at, ?u) AND (?p, email, ?e))))",
        "((?s, ?p, ?o) FILTER (?p = follows || ?p = works_at))",
        "(SELECT {?s} WHERE (?s, ?p, ?o))",
    ];
    for g in &graphs {
        let engine = Engine::new(g);
        for q in queries {
            let p = parse_pattern(q).unwrap();
            assert_eq!(eval(&engine, &p), evaluate(&p, g), "{q}");
        }
    }
}

/// CONSTRUCT composition chains across views, with the indexed engine.
#[test]
fn construct_view_chain() {
    let g = generate::university(Default::default(), 11);
    let v1 = construct(&owql::algebra::construct::example_6_1(), &g);
    let q2 =
        parse_construct("CONSTRUCT {(?u, has_member, ?n)} WHERE (?n, affiliated_to, ?u)").unwrap();
    let v2 = owql::eval::construct::construct_indexed(&q2, &v1);
    assert!(!v2.is_empty());
    assert!(v2.iter().all(|t| t.p.as_str() == "has_member"));
    // Cardinality is preserved through the inversion.
    assert_eq!(
        v2.len(),
        v1.iter()
            .filter(|t| t.p.as_str() == "affiliated_to")
            .count()
    );
}

/// The paper's Section 5.2 claims, bounded-checked on parsed queries:
/// SPARQL[AOF] and SPARQL[AFS] patterns are subsumption-free.
#[test]
fn aof_and_afs_subsumption_freeness() {
    let queries = [
        "((?x, a, ?y) OPT (?y, b, ?z))",
        "(((?x, a, ?y) OPT (?y, b, ?z)) OPT (?x, c, ?w))",
        "(SELECT {?x, ?y} WHERE ((?x, a, ?y) AND (?y, b, ?z)))",
        "((?x, a, ?y) FILTER bound(?x))",
    ];
    for q in queries {
        let p = parse_pattern(q).unwrap();
        assert!(checks::subsumption_free(&p, &quick()).holds(), "{q}");
    }
}
