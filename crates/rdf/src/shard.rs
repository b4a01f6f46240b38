//! Subject-id hash partitioning of id-encoded runs.
//!
//! [`shard_rows`] splits the *live* rows of an [`IdView`] (base plus
//! adds, minus deletions) into `n` disjoint per-shard [`IdRuns`], keyed
//! by a multiplicative hash of the subject id. Every triple with the
//! same subject lands in the same shard, which is the property the
//! scatter-gather evaluator leans on: a seed scan whose subject
//! position resolves to a constant matches rows in exactly one shard,
//! and a variable-subject seed scan partitions its matches — and
//! therefore its extended bindings — disjointly across shards.
//!
//! Ids are *rank-stable* under the shared [`TermDict`], so rows in
//! different shards remain directly comparable and a coordinator can
//! merge per-shard partial tables by concatenation.
//!
//! [`TermDict`]: crate::TermDict

use crate::dict::{IdRuns, IdView, TermId};

/// Fibonacci multiplicative hash constant (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard owning subject id `s` under an `n`-way partition.
///
/// Subject ids are dense ranks, so a plain `s % n` would correlate
/// with insertion order; the multiplicative mix decorrelates the
/// assignment while staying deterministic across processes.
pub fn shard_of(s: TermId, n: usize) -> usize {
    debug_assert!(n > 0);
    ((u64::from(s).wrapping_mul(FIB) >> 32) % n as u64) as usize
}

/// Partitions the live rows of `view` into `n` disjoint [`IdRuns`] by
/// [`shard_of`] on the subject id. Deleted base rows are filtered out
/// here, so per-shard scans need no deletion mask.
pub fn shard_rows(view: &IdView<'_>, n: usize) -> Vec<IdRuns> {
    let mut buckets: Vec<Vec<[TermId; 3]>> = (0..n).map(|_| Vec::new()).collect();
    for row in view.rows(None, None, None) {
        buckets[shard_of(row[0], n)].push(row);
    }
    buckets.into_iter().map(IdRuns::from_spo_rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::TermDict;
    use crate::fx::FxHashSet;
    use crate::term::Triple;
    use std::collections::HashSet;

    fn sample_runs() -> (TermDict, IdRuns) {
        let triples: Vec<Triple> = (0..40)
            .map(|i| {
                Triple::new(
                    &format!("s{}", i % 13),
                    &format!("p{}", i % 3),
                    &format!("o{i}"),
                )
            })
            .collect();
        let dict = TermDict::new();
        let runs = IdRuns::build(&triples, &dict);
        (dict, runs)
    }

    #[test]
    fn shards_partition_rows_disjointly() {
        let (dict, runs) = sample_runs();
        for n in [1usize, 2, 8] {
            let view = IdView::plain(&dict, &runs);
            let shards = shard_rows(&view, n);
            assert_eq!(shards.len(), n);
            let mut seen: HashSet<[crate::TermId; 3]> = HashSet::new();
            for (k, shard) in shards.iter().enumerate() {
                for &row in shard.spo() {
                    assert_eq!(shard_of(row[0], n), k, "row in wrong shard");
                    assert!(seen.insert(row), "row duplicated across shards");
                }
            }
            assert_eq!(seen.len(), runs.len(), "shards must cover every row");
        }
    }

    #[test]
    fn same_subject_lands_in_same_shard() {
        let (dict, runs) = sample_runs();
        let view = IdView::plain(&dict, &runs);
        let shards = shard_rows(&view, 4);
        for (k, shard) in shards.iter().enumerate() {
            for &row in shard.spo() {
                assert_eq!(shard_of(row[0], 4), k);
            }
        }
    }

    #[test]
    fn deleted_rows_are_excluded() {
        let (dict, runs) = sample_runs();
        let dels: FxHashSet<[TermId; 3]> = [runs.spo()[0]].into_iter().collect();
        let view = IdView {
            dict: &dict,
            base: &runs,
            adds: None,
            dels: Some(&dels),
        };
        let shards = shard_rows(&view, 2);
        let total: usize = shards.iter().map(IdRuns::len).sum();
        assert_eq!(total, runs.len() - 1);
        assert!(shards.iter().all(|s| !s.contains(runs.spo()[0])));
    }
}
