//! Fixed-boundary log2 latency histograms.
//!
//! A [`Histogram`] is a lock-free bucketed latency recorder: 28 finite
//! buckets whose upper bounds double from 1024 ns (~1 µs) to 2^37 ns
//! (~137 s), plus one overflow bucket. Recording is one relaxed
//! `fetch_add` into the matching bucket (found with bit arithmetic, no
//! search) plus one into the `sum` atomic, so writers never contend on
//! a lock and readers snapshot without stopping them. The observation
//! count is the sum of the buckets, never a separate atomic, so a
//! snapshot's `count` always equals its `+Inf` bucket.
//!
//! Fixed power-of-two boundaries mean every histogram in the process —
//! query latency, per-operator wall time, WAL fsync, checkpoint
//! duration — buckets identically, so percentiles from any two
//! families of the `/metrics` exposition are directly comparable. The
//! cumulative-bucket view maps 1:1 onto Prometheus histogram samples
//! (`_bucket{le="..."}` / `_sum` / `_count`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of finite buckets (one more overflow bucket follows them).
pub const BUCKETS: usize = 28;

/// Shift of the first upper bound: bucket 0 holds values ≤ 2^10 ns.
const FIRST_SHIFT: u32 = 10;

/// Upper bound (inclusive, in nanoseconds) of finite bucket `i`.
pub fn bucket_bound_ns(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    1u64 << (FIRST_SHIFT + i as u32)
}

/// A lock-free fixed-boundary log2 latency histogram. See module docs.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts; the last slot is
    /// the overflow bucket (> largest finite bound).
    buckets: [AtomicU64; BUCKETS + 1],
    sum_ns: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Index of the bucket that holds a `v`-nanosecond observation.
    fn bucket_index(v: u64) -> usize {
        if v <= (1 << FIRST_SHIFT) {
            return 0;
        }
        // Smallest i with v <= 2^(FIRST_SHIFT + i): the bit length of
        // v - 1, offset by the first bound's shift.
        let bits = 64 - (v - 1).leading_zeros();
        ((bits - FIRST_SHIFT) as usize).min(BUCKETS)
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS + 1] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns(),
        }
    }
}

/// An owned copy of a [`Histogram`]'s counters. `count` is summed from
/// the copied buckets, so it always equals the `+Inf` bucket; `sum_ns`
/// is read separately and may skew by in-flight observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts; last slot is overflow.
    pub buckets: [u64; BUCKETS + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of observations, nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Cumulative Prometheus-style buckets: `(upper_bound_ns, count of
    /// observations ≤ bound)` for every finite bound, ending with
    /// `(None, total)` for `+Inf`.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::with_capacity(BUCKETS + 1);
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().take(BUCKETS).enumerate() {
            acc += c;
            out.push((Some(bucket_bound_ns(i)), acc));
        }
        acc += self.buckets[BUCKETS];
        out.push((None, acc));
        out
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1) in milliseconds, by linear
    /// interpolation inside the covering bucket. Returns 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if acc + c >= rank {
                let lo = if i == 0 { 0 } else { bucket_bound_ns(i - 1) };
                // The overflow bucket has no finite upper bound; report
                // its lower bound (the largest finite boundary).
                let hi = if i < BUCKETS { bucket_bound_ns(i) } else { lo };
                let frac = (rank - acc) as f64 / c as f64;
                return (lo as f64 + (hi - lo) as f64 * frac) / 1e6;
            }
            acc += c;
        }
        bucket_bound_ns(BUCKETS - 1) as f64 / 1e6
    }

    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(1024), 0);
        assert_eq!(Histogram::bucket_index(1025), 1);
        assert_eq!(Histogram::bucket_index(2048), 1);
        assert_eq!(Histogram::bucket_index(2049), 2);
        assert_eq!(
            Histogram::bucket_index(bucket_bound_ns(BUCKETS - 1)),
            BUCKETS - 1
        );
        assert_eq!(
            Histogram::bucket_index(bucket_bound_ns(BUCKETS - 1) + 1),
            BUCKETS
        );
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS);
    }

    #[test]
    fn count_and_sum_track_observations() {
        let h = Histogram::new();
        h.record_ns(500);
        h.record_ns(1_500_000);
        h.record(Duration::from_micros(3));
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 500 + 1_500_000 + 3_000);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let h = Histogram::new();
        for i in 0..100u64 {
            h.record_ns(i * 100_000);
        }
        h.record_ns(u64::MAX); // overflow bucket
        let snap = h.snapshot();
        let cum = snap.cumulative();
        let mut prev = 0;
        for &(_, c) in &cum {
            assert!(c >= prev, "cumulative counts must be monotone");
            prev = c;
        }
        assert_eq!(cum.last().expect("inf bucket").1, snap.count);
        assert_eq!(cum.last().expect("inf bucket").0, None);
    }

    #[test]
    fn quantiles_are_ordered_and_bracket_the_data() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(1_000_000); // 1 ms
        }
        for _ in 0..10 {
            h.record_ns(100_000_000); // 100 ms
        }
        let s = h.snapshot();
        let (p50, p95, p99) = (s.quantile_ms(0.5), s.quantile_ms(0.95), s.quantile_ms(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 < 3.0, "p50 ~1ms, got {p50}");
        assert!(p99 > 50.0, "p99 ~100ms, got {p99}");
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile_ms(0.5), 0.0);
        assert_eq!(s.mean_ms(), 0.0);
        assert_eq!(s.cumulative().last().expect("inf").1, 0);
    }

    #[test]
    fn buckets_json_is_compact_and_ends_with_inf() {
        let h = Histogram::new();
        h.record_ns(1_000_000);
        let family = crate::prometheus::Family::histogram("lat_seconds", "h", &h.snapshot());
        let text = crate::prometheus::to_json(&[family], &[]);
        assert!(text.contains("{\"le\": null, \"cumulative\": 1}"), "{text}");
        // Empty leading buckets are skipped.
        assert!(!text.contains("\"cumulative\": 0"), "{text}");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("histogram writer");
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().cumulative().last().expect("inf").1, 4000);
    }

    #[test]
    fn snapshot_count_always_matches_the_inf_bucket() {
        let (h, done) = (Histogram::new(), std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (h, done) = (&h, &done);
                s.spawn(move || {
                    for i in (0..).take_while(|_| !done.load(Ordering::Relaxed)) {
                        h.record_ns((t * 7_919 + i) % 5_000_000);
                    }
                });
            }
            // 4 writers race one snapshotting reader.
            let consistent = (0..2_000).all(|_| {
                let snap = h.snapshot();
                snap.cumulative().last().map(|&(_, cum)| cum) == Some(snap.count)
            });
            done.store(true, Ordering::Relaxed);
            assert!(
                consistent,
                "a snapshot's +Inf bucket disagreed with its count"
            );
        });
    }
}
