//! The benchmark's dataset and its digests.

use owql_rdf::generate::{social_network, SocialOptions};
use owql_rdf::{ntriples, Graph};
use std::collections::BTreeMap;

/// People in `social_100k` (≈100.9k triples).
pub const PEOPLE: usize = 16_000;
/// People in the ≈2k-triple graph the correctness gate runs on.
pub const GATE_PEOPLE: usize = 320;

/// The generator settings shared by both sizes: `follows` : `name` :
/// `was_born_in` : `email` ≈ 4 : 1 : 0.8 : 0.5.
pub fn social(people: usize, seed: u64) -> Graph {
    social_network(
        SocialOptions {
            people,
            avg_follows: 4,
            email_probability: 0.5,
            birthplace_probability: 0.8,
        },
        seed,
    )
}

/// FNV-1a, 64-bit: the digest function for datasets, query mixes and
/// response bodies.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// What pins a dataset: its size, the hash of its sorted N-Triples
/// text, and its predicate histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetDigest {
    pub triples: usize,
    pub hash: u64,
    pub predicates: BTreeMap<&'static str, usize>,
}

pub fn dataset_digest(graph: &Graph) -> DatasetDigest {
    let mut predicates = BTreeMap::new();
    for t in graph.iter() {
        *predicates.entry(t.p.as_str()).or_insert(0) += 1;
    }
    DatasetDigest {
        triples: graph.len(),
        hash: fnv1a(FNV_SEED, ntriples::write(graph).as_bytes()),
        predicates,
    }
}

/// The digests of seed 1 at the commit that defined the benchmark:
/// `(dataset triples, dataset hash, query-mix hash)`. A run with seed
/// 1 fails when it computes anything else, so a change to the
/// generator cannot silently change the workload.
pub const SEED_1_DIGESTS: (usize, u64, u64) =
    (100_751, 0x0024_8226_E757_5167, 0xB606_8E0B_D043_0BE6);

/// `(VmRSS, VmHWM)` of this process in bytes, from
/// `/proc/self/status`; zeros where the file is missing.
pub fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_pinned_by_its_seed() {
        let a = dataset_digest(&social(GATE_PEOPLE, 5));
        assert_eq!(a, dataset_digest(&social(GATE_PEOPLE, 5)));
        assert_ne!(a.hash, dataset_digest(&social(GATE_PEOPLE, 6)).hash);
        assert_eq!(a.predicates["name"], GATE_PEOPLE);
        assert_eq!(a.predicates.values().sum::<usize>(), a.triples);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_SEED, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_SEED, b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
