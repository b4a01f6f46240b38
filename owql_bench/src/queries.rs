//! Every query the benchmark sends: the two analytic suites, the
//! query-log mix, and the cached read set of the churn workload.

use crate::client::encode_query;
use crate::data::{fnv1a, FNV_SEED};
use crate::rng::{Rng, Zipf};
use std::collections::HashMap;

/// A named suite query in the paper-style surface syntax.
#[derive(Clone, Copy, Debug)]
pub struct SuiteQuery {
    pub name: &'static str,
    pub text: &'static str,
}

/// A UNION of twelve branches — per country, the birthplace alone, with
/// the email, with the name, with both — so that the answers layer
/// `{p} ⊂ {p,e} ⊂ {p,e,n}` domains. A macro, because `concat!` takes
/// literals only.
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

/// The unanchored OPT suite. All three are well-designed (Pérez et
/// al.), so each equals its NS phrasing below on this data and the
/// pair doubles as a correctness check.
pub const OPT_SUITE: [SuiteQuery; 3] = [
    SuiteQuery {
        name: "one_optional",
        text: "((?p, was_born_in, Chile) OPT (?p, email, ?e))",
    },
    SuiteQuery {
        name: "two_optionals",
        text: "(((?p, name, ?n) OPT (?p, email, ?e)) OPT (?p, was_born_in, ?c))",
    },
    SuiteQuery {
        name: "wd_chain",
        text: "(((?p, was_born_in, Chile) OPT (?p, email, ?e)) OPT (?p, name, ?n))",
    },
];

/// The NS suite: the NS phrasings of the three information needs
/// above, in the same order (`P1 OPT P2 ≡s NS(P1 UNION (P1 AND P2))`,
/// paper §5), then the wide UNION with and without NS and the two-hop
/// join.
pub const NS_SUITE: [SuiteQuery; 6] = [
    SuiteQuery {
        name: "one_optional_ns",
        text: "NS(((?p, was_born_in, Chile) UNION \
               ((?p, was_born_in, Chile) AND (?p, email, ?e))))",
    },
    SuiteQuery {
        name: "two_optionals_ns",
        text: "NS((((?p, name, ?n) UNION ((?p, name, ?n) AND (?p, email, ?e))) UNION \
               (((?p, name, ?n) AND (?p, was_born_in, ?c)) UNION \
               (((?p, name, ?n) AND (?p, email, ?e)) AND (?p, was_born_in, ?c)))))",
    },
    SuiteQuery {
        name: "wd_chain_ns",
        text: "NS((((?p, was_born_in, Chile) UNION \
               ((?p, was_born_in, Chile) AND (?p, email, ?e))) UNION \
               (((?p, was_born_in, Chile) AND (?p, name, ?n)) UNION \
               (((?p, was_born_in, Chile) AND (?p, email, ?e)) AND (?p, name, ?n)))))",
    },
    SuiteQuery {
        name: "union_ns",
        text: concat!("NS(", wide_union!(), ")"),
    },
    SuiteQuery {
        name: "wide_union",
        text: wide_union!(),
    },
    SuiteQuery {
        name: "spine",
        text: "(((?a, follows, ?b) AND (?b, follows, ?c)) AND (?a, was_born_in, ?x))",
    },
];

/// The full scan `ingest_recover` answers before dropping the store
/// and again after reopening it.
pub const SCAN_QUERY: &str = "(?s, ?p, ?o)";

/// Operator classes of the query-log mix with their shares, after Han
/// et al.: small AND/FILTER/OPT patterns with constants dominate real
/// logs.
pub const CLASSES: [(&str, f64); 6] = [
    ("triple", 0.35),
    ("and", 0.25),
    ("and_filter", 0.15),
    ("opt", 0.15),
    ("union", 0.07),
    ("ns", 0.03),
];

/// `(class index, triple patterns, text)`; `{C}` and `{D}` stand for
/// two person constants drawn Zipf(1.0). No template is fully ground:
/// at the commit that defined the benchmark the server's renderer
/// panics on an answer set that starts with the empty mapping, and a
/// workload must be one on which no operation fails.
pub const TEMPLATES: [(usize, usize, &str); 20] = [
    (0, 1, "({C}, follows, ?x)"),
    (0, 1, "(?x, follows, {C})"),
    (0, 1, "({C}, name, ?n)"),
    (0, 1, "({C}, was_born_in, ?c)"),
    (0, 1, "({C}, email, ?e)"),
    (0, 1, "({C}, ?p, ?o)"),
    (0, 1, "(?s, ?p, {C})"),
    (1, 2, "(({C}, follows, ?x) AND ({C}, name, ?n))"),
    (1, 2, "(({C}, follows, ?x) AND (?x, name, ?n))"),
    (
        1,
        3,
        "((({C}, follows, ?x) AND (?x, follows, ?y)) AND (?y, name, ?n))",
    ),
    (
        1,
        3,
        "((({C}, name, ?n) AND ({C}, was_born_in, ?c)) AND ({C}, follows, ?x))",
    ),
    (
        2,
        2,
        "((({C}, follows, ?x) AND (?x, was_born_in, ?c)) FILTER (?c = Chile))",
    ),
    (
        2,
        2,
        "(((?x, follows, {C}) AND (?x, was_born_in, ?c)) FILTER (!(?c = Sweden)))",
    ),
    (3, 2, "(({C}, follows, ?x) OPT (?x, email, ?e))"),
    (3, 2, "(({C}, name, ?n) OPT ({C}, email, ?e))"),
    (
        3,
        3,
        "((({C}, follows, ?x) OPT (?x, email, ?e)) OPT (?x, was_born_in, ?c))",
    ),
    (4, 2, "(({C}, follows, ?x) UNION (?x, follows, {C}))"),
    (
        4,
        3,
        "((({C}, email, ?v) UNION ({C}, name, ?v)) UNION ({C}, was_born_in, ?v))",
    ),
    (4, 2, "(({C}, follows, ?x) UNION ({D}, follows, ?x))"),
    (
        5,
        3,
        "NS((({C}, follows, ?x) UNION (({C}, follows, ?x) AND (?x, email, ?e))))",
    ),
];

/// Fills a template's constants.
pub fn instantiate(template: &str, c: u32, d: u32) -> String {
    template
        .replace("{C}", &format!("person{c}"))
        .replace("{D}", &format!("person{d}"))
}

/// The `/v1/query` body for `pattern`. Every request asks for the
/// optimizer and sets an admission ceiling, so the lint and optimizer
/// layers are on the request path (the ceiling admits every class).
pub fn request_body(pattern: &str) -> String {
    debug_assert!(!pattern.contains(['"', '\\']));
    format!("{{\"pattern\": \"{pattern}\", \"opts\": {{\"optimize\": true, \"max_class\": \"pspace\"}}}}")
}

/// One distinct query of the mix.
#[derive(Clone, Debug)]
pub struct MixQuery {
    pub text: String,
    /// The pre-encoded `POST /v1/query` request.
    pub wire: Vec<u8>,
}

/// The query-log mix: a fixed request stream over its distinct
/// queries, with the shares it realised.
#[derive(Clone, Debug)]
pub struct Mix {
    pub queries: Vec<MixQuery>,
    /// Indexes into `queries`, in send order.
    pub stream: Vec<u32>,
    /// Hash of the stream's query texts in order.
    pub digest: u64,
    /// Requests per operator class, in [`CLASSES`] order.
    pub class_counts: [usize; 6],
    /// Requests per pattern size (triple patterns 1, 2, 3).
    pub size_counts: [usize; 3],
}

pub fn build_mix(seed: u64, people: usize, len: usize) -> Mix {
    let zipf = Zipf::new(people, seed);
    let mut rng = Rng::fork(seed, 0x4D19);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); CLASSES.len()];
    for (i, (class, _, _)) in TEMPLATES.iter().enumerate() {
        by_class[*class].push(i);
    }
    let mut mix = Mix {
        queries: Vec::new(),
        stream: Vec::with_capacity(len),
        digest: FNV_SEED,
        class_counts: [0; 6],
        size_counts: [0; 3],
    };
    let mut ids: HashMap<String, u32> = HashMap::new();
    for _ in 0..len {
        let u = rng.unit();
        let mut acc = 0.0;
        let class = CLASSES
            .iter()
            .position(|(_, share)| {
                acc += share;
                u < acc
            })
            .unwrap_or(CLASSES.len() - 1);
        let template = by_class[class][rng.below(by_class[class].len())];
        let (_, size, text) = TEMPLATES[template];
        let text = instantiate(text, zipf.sample(&mut rng), zipf.sample(&mut rng));
        mix.digest = fnv1a(mix.digest, text.as_bytes());
        mix.class_counts[class] += 1;
        mix.size_counts[size - 1] += 1;
        let next = mix.queries.len() as u32;
        let id = *ids.entry(text).or_insert_with_key(|text| {
            mix.queries.push(MixQuery {
                text: text.clone(),
                wire: encode_query(&request_body(text)),
            });
            next
        });
        mix.stream.push(id);
    }
    mix
}

/// The churn workload's read set: an AF and an SP query on each of the
/// 16 hottest people — 32 distinct queries, well inside the 256-entry
/// cache, so only epoch invalidation can make them miss.
pub fn churn_read_set(seed: u64, people: usize) -> Vec<String> {
    let zipf = Zipf::new(people, seed);
    zipf.hottest(16)
        .iter()
        .flat_map(|&c| {
            [
                instantiate("(({C}, follows, ?x) AND (?x, name, ?n))", c, c),
                instantiate(
                    "NS((({C}, follows, ?x) UNION (({C}, follows, ?x) AND (?x, email, ?e))))",
                    c,
                    c,
                ),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_parser::parse_pattern;

    #[test]
    fn every_query_parses() {
        for q in OPT_SUITE.iter().chain(&NS_SUITE) {
            parse_pattern(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.name));
        }
        parse_pattern(SCAN_QUERY).expect("scan query parses");
        for (_, size, text) in TEMPLATES {
            let p =
                parse_pattern(&instantiate(text, 3, 4)).unwrap_or_else(|e| panic!("{text}: {e}"));
            // `size` counts triple patterns: one `, ` pair per triple.
            assert_eq!(p.to_string().matches(", ").count(), size * 2, "{text}");
        }
        for text in churn_read_set(1, 100) {
            parse_pattern(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn mix_is_deterministic_per_seed_and_follows_its_shares() {
        let a = build_mix(11, 2000, 20_000);
        let b = build_mix(11, 2000, 20_000);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.digest, build_mix(12, 2000, 20_000).digest);

        for (count, (name, share)) in a.class_counts.iter().zip(CLASSES) {
            let got = *count as f64 / 20_000.0;
            assert!((got - share).abs() < 0.015, "{name}: {got} vs {share}");
        }
        assert_eq!(a.class_counts.iter().sum::<usize>(), 20_000);
        assert_eq!(a.size_counts.iter().sum::<usize>(), 20_000);
        // Zipf constants repeat: far fewer distinct queries than
        // requests, far more than the 256-entry cache.
        assert!(a.queries.len() < 12_000 && a.queries.len() > 1_000);
        assert!(a.stream.iter().all(|&i| (i as usize) < a.queries.len()));
    }

    #[test]
    fn churn_read_set_has_32_distinct_queries() {
        let set = churn_read_set(1, 16_000);
        let distinct: std::collections::HashSet<_> = set.iter().collect();
        assert_eq!((set.len(), distinct.len()), (32, 32));
    }
}
