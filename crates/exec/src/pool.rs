//! The scoped work-stealing pool.
//!
//! See the crate docs for the execution model; the short version:
//! [`Pool::map`] splits its input into contiguous chunks, deals the
//! chunks round-robin onto one deque per worker, and spawns `threads`
//! scoped std threads. Each worker drains its own deque from the front
//! and, when empty, steals from the *back* of a sibling's deque — the
//! classic work-stealing discipline, sized so a steal moves the largest
//! remaining contiguous block of a victim's work.

use crate::chunk::chunk_ranges;
use owql_obs::Recorder;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// How many chunks each worker's deque starts with. More chunks give
/// the stealers finer granularity at the cost of more lock traffic;
/// four per worker keeps both small.
const CHUNKS_PER_WORKER: usize = 4;

thread_local! {
    /// Set while the current thread is a pool worker: nested
    /// [`Pool::map`] calls run inline instead of spawning another
    /// thread generation (bounding the total thread count at
    /// `threads + 1` no matter how deeply evaluation recurses).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A scoped work-stealing thread pool of a fixed width.
///
/// The pool owns no long-lived threads: every [`Pool::map`] spawns its
/// workers inside a [`std::thread::scope`], so closures may borrow from
/// the caller's stack freely and a returning `map` leaves nothing
/// running. A `Pool` is `Sync` — one instance can serve any number of
/// concurrent queries. It keeps no counters of its own: map, chunk and
/// steal counts go to the [`Recorder`] handed to [`Pool::map_profiled`].
///
/// ```
/// use owql_exec::Pool;
/// let pool = Pool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], |&n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: every `map` runs inline, bit-identical
    /// to a plain sequential iteration.
    pub fn sequential() -> Pool {
        Pool::new(1)
    }

    /// A pool sized by the `OWQL_THREADS` environment variable, falling
    /// back to [`std::thread::available_parallelism`] when the variable
    /// is unset or unparsable. `OWQL_THREADS=1` yields the sequential
    /// pool.
    pub fn from_env() -> Pool {
        let configured = std::env::var("OWQL_THREADS")
            .ok()
            .and_then(|v| parse_threads(&v));
        Pool::new(configured.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }))
    }

    /// Number of worker threads a parallel `map` spawns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in input order, returning the results
    /// in input order.
    ///
    /// Runs inline (no threads) when the pool is sequential, the input
    /// has fewer than two items, or the caller is itself a pool worker
    /// (nested data parallelism flattens instead of oversubscribing).
    /// A panic in `f` propagates to the caller after the scope joins.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_profiled(items, &Recorder::disabled(), f)
    }

    /// [`Pool::map`] with per-worker observability: each worker reports
    /// its busy wall time, chunks executed, and chunks stolen into
    /// `recorder` (inline runs count as inline maps there). A disabled
    /// recorder reduces this to plain `map` — the worker loop doesn't
    /// even read the clock.
    pub fn map_profiled<T, R, F>(&self, items: &[T], recorder: &Recorder, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let recording = recorder.is_enabled();
        if self.threads == 1 || items.len() < 2 || IN_WORKER.with(Cell::get) {
            recorder.record_map_inline();
            return items.iter().map(f).collect();
        }
        recorder.record_map_parallel();

        let workers = self.threads.min(items.len());
        let ranges = chunk_ranges(items.len(), workers * CHUNKS_PER_WORKER);
        // Deal chunks round-robin so every deque starts non-empty and a
        // stolen back chunk is far from the victim's working front.
        let deques: Vec<Mutex<VecDeque<(usize, usize)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, range) in ranges.into_iter().enumerate() {
            deques[i % workers]
                .lock()
                .expect("exec deque poisoned")
                .push_back(range);
        }

        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(items.len(), || None);
        std::thread::scope(|s| {
            let deques = &deques;
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    s.spawn(move || {
                        IN_WORKER.with(|w| w.set(true));
                        let started = recording.then(Instant::now);
                        let mut out: Vec<(usize, R)> = Vec::new();
                        let mut executed = 0u64;
                        let mut stolen = 0u64;
                        while let Some(((lo, hi), was_steal)) = next_chunk(me, deques) {
                            executed += 1;
                            stolen += u64::from(was_steal);
                            for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
                                out.push((i, f(item)));
                            }
                        }
                        IN_WORKER.with(|w| w.set(false));
                        let busy_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        (out, executed, stolen, busy_ns)
                    })
                })
                .collect();
            for (me, handle) in handles.into_iter().enumerate() {
                let (out, executed, stolen, busy_ns) = handle.join().expect("exec worker panicked");
                recorder.record_worker(me, busy_ns, executed, stolen);
                for (i, r) in out {
                    results[i] = Some(r);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every index produced"))
            .collect()
    }
}

/// Pops the next chunk for worker `me`: front of its own deque first,
/// then the back of each sibling's. Returns whether it was a steal.
fn next_chunk(
    me: usize,
    deques: &[Mutex<VecDeque<(usize, usize)>>],
) -> Option<((usize, usize), bool)> {
    if let Some(range) = deques[me].lock().expect("exec deque poisoned").pop_front() {
        return Some((range, false));
    }
    let n = deques.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(range) = deques[victim]
            .lock()
            .expect("exec deque poisoned")
            .pop_back()
        {
            return Some((range, true));
        }
    }
    None
}

/// Parses an `OWQL_THREADS` value; rejects zero and garbage.
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_across_widths() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&n| n * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            assert_eq!(pool.map(&items, |&n| n * 3 + 1), expected, "{threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let pool = Pool::new(8);
        let rec = Recorder::new();
        let none: Vec<u32> = pool.map_profiled(&[] as &[u32], &rec, |&n| n);
        assert!(none.is_empty());
        assert_eq!(pool.map_profiled(&[7u32], &rec, |&n| n + 1), vec![8]);
        let stats = rec.profile().pool;
        assert_eq!(stats.inline_maps, 2);
        assert_eq!(stats.parallel_maps, 0);
    }

    #[test]
    fn nested_maps_flatten_instead_of_respawning() {
        let pool = Pool::new(4);
        let grid: Vec<Vec<u32>> = (0..8)
            .map(|r| (0..8).map(|c| r * 8 + c).collect())
            .collect();
        let rec = Recorder::new();
        let sums = pool.map_profiled(&grid, &rec, |row| {
            pool.map_profiled(row, &rec, |&c| c * 2).iter().sum::<u32>()
        });
        let expected: Vec<u32> = grid
            .iter()
            .map(|row| row.iter().map(|&c| c * 2).sum())
            .collect();
        assert_eq!(sums, expected);
        // The outer call went parallel; the 8 inner calls all inlined.
        let stats = rec.profile().pool;
        assert_eq!(stats.parallel_maps, 1);
        assert_eq!(stats.inline_maps, 8);
    }

    #[test]
    fn every_chunk_is_executed_exactly_once() {
        let pool = Pool::new(3);
        let rec = Recorder::new();
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map_profiled(&items, &rec, |&i| i);
        assert_eq!(out, items);
        // 3 workers × 4 chunks per worker over 100 items.
        assert_eq!(rec.profile().pool.chunks, 12);
    }

    #[test]
    fn sequential_pool_spawns_nothing() {
        let pool = Pool::sequential();
        let rec = Recorder::new();
        let id = std::thread::current().id();
        let seen = pool.map_profiled(&[0u8, 1, 2], &rec, |_| std::thread::current().id());
        assert!(seen.iter().all(|&t| t == id));
        assert_eq!(rec.profile().pool.parallel_maps, 0);
    }

    #[test]
    #[should_panic(expected = "exec worker panicked")]
    fn worker_panic_propagates() {
        let pool = Pool::new(2);
        let items: Vec<u32> = (0..32).collect();
        pool.map(&items, |&n| {
            assert!(n != 17, "boom");
            n
        });
    }

    #[test]
    fn map_profiled_reports_per_worker_stats() {
        let pool = Pool::new(3);
        let rec = Recorder::new();
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map_profiled(&items, &rec, |&i| i * 2);
        assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        let profile = rec.profile();
        assert_eq!(profile.pool.parallel_maps, 1);
        // 3 workers × 4 chunks per worker, every chunk accounted for.
        assert_eq!(profile.pool.chunks, 12);
        assert_eq!(profile.pool.workers.len(), 3);
        assert_eq!(
            profile.pool.workers.iter().map(|w| w.chunks).sum::<u64>(),
            12
        );
    }

    #[test]
    fn map_profiled_with_disabled_recorder_records_nothing() {
        let pool = Pool::new(2);
        let rec = Recorder::disabled();
        let items: Vec<u32> = (0..50).collect();
        assert_eq!(pool.map_profiled(&items, &rec, |&i| i), items);
        let profile = rec.profile();
        assert_eq!(profile.pool.parallel_maps, 0);
        assert!(profile.pool.workers.is_empty());
    }

    #[test]
    fn thread_parsing() {
        assert_eq!(parse_threads("8"), Some(8));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("lots"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn clamps_zero_width_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
