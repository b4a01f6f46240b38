//! Shared workloads and query suites for the `experiments` driver and
//! the `workloads` exporter.
//!
//! The paper is a theory paper: its "evaluation" is the complexity
//! landscape of Section 7 plus the worked examples. The driver makes
//! that landscape *measurable* (EXPERIMENTS.md, E1–E12), over the
//! graphs and query suites defined here:
//!
//! * OPT vs NS on the paper's motivating optional-information
//!   workloads (the Section 8 future-work question, E12),
//! * engine ablation, reference vs indexed, over one query per
//!   fragment (AF / AUF / AOF / SP / USP, E12),
//! * well-designed patterns as simple patterns (E8) and CONSTRUCT
//!   invariance (E10) on the social and campus graphs.
//!
//! Performance of the program as a server and store is measured
//! elsewhere, by `owql_bench` at 10^5 triples.

use owql_algebra::pattern::Pattern;
use owql_parser::parse_pattern;
use owql_rdf::generate::{social_network, university, SocialOptions, UniversityOptions};
use owql_rdf::Graph;

/// A social graph with `people` people (fixed seed, paper-Figure-2
/// shape: partial emails and birthplaces).
pub fn social(people: usize) -> Graph {
    social_network(
        SocialOptions {
            people,
            avg_follows: 4,
            email_probability: 0.5,
            birthplace_probability: 0.8,
        },
        0xBEEF,
    )
}

/// A university graph with `professors` professors across 10
/// universities (paper-Figure-3 shape).
pub fn campus(professors: usize) -> Graph {
    university(
        UniversityOptions {
            universities: 10,
            professors_per_university: professors / 10,
            email_probability: 0.5,
            second_affiliation_probability: 0.2,
        },
        0xFACE,
    )
}

/// The per-fragment query suite of experiment E12's engine ablation:
/// one representative query per fragment of the
/// paper's hierarchy, all over the social-graph vocabulary.
pub fn fragment_suite() -> Vec<(&'static str, Pattern)> {
    let q = |text: &str| parse_pattern(text).expect("suite query parses");
    vec![
        (
            "AF (conjunctive)",
            q("((?a, follows, ?b) AND (?b, follows, ?c))"),
        ),
        (
            "AUF (monotone)",
            q("(((?p, was_born_in, Chile) UNION (?p, was_born_in, Belgium)) AND (?p, email, ?e))"),
        ),
        (
            "AOF well-designed",
            q("(((?p, was_born_in, Chile) OPT (?p, email, ?e)) OPT (?p, name, ?n))"),
        ),
        (
            "SP (simple: NS of AUF)",
            q("NS(((?p, was_born_in, Chile) UNION \
                ((?p, was_born_in, Chile) AND (?p, email, ?e))))"),
        ),
        (
            "USP (union of simple)",
            q("(NS(((?p, was_born_in, Chile) UNION \
                 ((?p, was_born_in, Chile) AND (?p, email, ?e)))) UNION \
               NS(((?p, was_born_in, Belgium) UNION \
                 ((?p, was_born_in, Belgium) AND (?p, name, ?n)))))"),
        ),
    ]
}

/// OPT/NS query pairs over the social vocabulary (experiment E12): the
/// same information need phrased with OPT and with NS.
pub fn opt_ns_pairs() -> Vec<(&'static str, Pattern, Pattern)> {
    let q = |text: &str| parse_pattern(text).expect("pair query parses");
    vec![
        (
            "one optional",
            q("((?p, was_born_in, Chile) OPT (?p, email, ?e))"),
            q("NS(((?p, was_born_in, Chile) UNION \
                ((?p, was_born_in, Chile) AND (?p, email, ?e))))"),
        ),
        (
            "two optionals",
            q("(((?p, name, ?n) OPT (?p, email, ?e)) OPT (?p, was_born_in, ?c))"),
            q(
                "NS((((?p, name, ?n) UNION ((?p, name, ?n) AND (?p, email, ?e))) UNION \
                (((?p, name, ?n) AND (?p, was_born_in, ?c)) UNION \
                 (((?p, name, ?n) AND (?p, email, ?e)) AND (?p, was_born_in, ?c)))))",
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_eval::{evaluate, Engine, ExecOpts};
    use owql_exec::Pool;

    fn eval(engine: &Engine, p: &Pattern) -> owql_algebra::MappingSet {
        engine
            .run(p, &ExecOpts::seq(), &Pool::sequential())
            .expect("unlimited budget cannot time out")
            .mappings
    }

    #[test]
    fn workloads_scale_with_parameter() {
        assert!(social(50).len() < social(200).len());
        assert!(campus(50).len() < campus(200).len());
    }

    #[test]
    fn suite_queries_answer_on_their_workload() {
        let g = social(120);
        let engine = Engine::new(&g);
        for (name, p) in fragment_suite() {
            let out = eval(&engine, &p);
            assert!(!out.is_empty(), "{name} produced nothing");
            assert_eq!(out, evaluate(&p, &g), "{name}");
        }
    }

    /// The OPT/NS pairs in the harness are answer-identical on the
    /// workload (their mandatory sides are subsumption-free).
    #[test]
    fn opt_ns_pairs_agree() {
        let g = social(80);
        let engine = Engine::new(&g);
        for (name, opt, ns) in opt_ns_pairs() {
            assert_eq!(eval(&engine, &opt), eval(&engine, &ns), "{name}");
        }
    }
}
