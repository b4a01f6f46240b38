//! The epoch-keyed LRU query cache.
//!
//! Entries are keyed by the pattern's text (see [`cache_key`]) and
//! stamped with the store epoch they were computed at. A lookup hits only when both the key and the epoch match; an
//! epoch mismatch drops the stale entry (counted as an invalidation
//! plus a miss), so writers never have to touch the cache — bumping the
//! epoch invalidates every prior entry implicitly.
//!
//! Eviction is least-recently-used over a bounded number of entries.
//! The implementation keeps a logical clock per entry and evicts the
//! minimum on overflow — `O(capacity)` per eviction, which is
//! deliberate: capacities are small (hundreds), and the simplicity
//! keeps the hot hit path to one hash lookup.

use owql_algebra::mapping_set::MappingSet;
use owql_algebra::pattern::Pattern;
use std::collections::HashMap;
use std::sync::Mutex;

/// Hit/miss/eviction counters (defined in `owql-obs`, which profiles
/// and `/metrics` render them from).
pub use owql_obs::CacheStats;

#[derive(Debug)]
struct Entry {
    epoch: u64,
    result: MappingSet,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<String, Entry>,
    clock: u64,
    stats: CacheStats,
}

/// A thread-safe, epoch-keyed LRU cache of query results.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    state: Mutex<CacheState>,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` results. A capacity
    /// of 0 disables caching (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Looks up `key` at `epoch`. Stale entries (same key, older epoch)
    /// are dropped and counted as invalidations.
    pub fn lookup(&self, key: &str, epoch: u64) -> Option<MappingSet> {
        let mut state = self.state.lock().expect("query cache poisoned");
        state.clock += 1;
        let clock = state.clock;
        let outcome = match state.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = clock;
                Some(Some(entry.result.clone()))
            }
            Some(_) => Some(None), // present but stale
            None => None,
        };
        match outcome {
            Some(Some(result)) => {
                state.stats.hits += 1;
                Some(result)
            }
            Some(None) => {
                state.map.remove(key);
                state.stats.invalidations += 1;
                state.stats.misses += 1;
                None
            }
            None => {
                state.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a result computed at `epoch`, evicting the
    /// least-recently-used entry on overflow.
    pub fn store(&self, key: String, epoch: u64, result: MappingSet) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().expect("query cache poisoned");
        state.clock += 1;
        let clock = state.clock;
        if !state.map.contains_key(&key) && state.map.len() >= self.capacity {
            if let Some(lru) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                state.map.remove(&lru);
                state.stats.evictions += 1;
            }
        }
        state.map.insert(
            key,
            Entry {
                epoch,
                result,
                last_used: clock,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("query cache poisoned").stats
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state.lock().expect("query cache poisoned").map.len()
    }

    /// `true` iff no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cache key of `pattern`: its display form, which the parser
/// reads back to the same pattern. Equal keys are equal patterns;
/// equivalent patterns written differently (`P₁ UNION P₂` against
/// `P₂ UNION P₁`) get separate entries.
pub fn cache_key(pattern: &Pattern) -> String {
    pattern.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_algebra::mapping_set::mapping_set;

    fn result(n: u32) -> MappingSet {
        let binding = format!("v{n}");
        mapping_set(&[&[("x", binding.as_str())]])
    }

    #[test]
    fn cache_key_ns_falls_back_to_display() {
        let p = Pattern::t("?x", "p", "?y").ns();
        assert_eq!(cache_key(&p), p.to_string());
    }

    #[test]
    fn cache_key_large_pattern_falls_back() {
        let mut p = Pattern::t("?x0", "p", "?y0");
        for i in 1..16 {
            let xi = format!("?x{i}");
            let yi = format!("?y{i}");
            p = p.and(Pattern::t(xi.as_str(), "p", yi.as_str()));
        }
        let key = cache_key(&p);
        assert_eq!(key, p.to_string());
        assert!(!key.starts_with("raw:") && !key.starts_with("unf:"));
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = QueryCache::new(8);
        cache.store("k".into(), 3, result(1));
        assert_eq!(cache.lookup("k", 3), Some(result(1)));
        assert_eq!(cache.lookup("k", 4), None); // stale: invalidated
        assert_eq!(cache.lookup("k", 3), None); // gone now
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.store("a".into(), 0, result(1));
        cache.store("b".into(), 0, result(2));
        assert!(cache.lookup("a", 0).is_some()); // refresh a
        cache.store("c".into(), 0, result(3)); // evicts b
        assert!(cache.lookup("a", 0).is_some());
        assert!(cache.lookup("b", 0).is_none());
        assert!(cache.lookup("c", 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        cache.store("k".into(), 0, result(1));
        assert!(cache.lookup("k", 0).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn restoring_same_key_does_not_evict() {
        let cache = QueryCache::new(1);
        cache.store("k".into(), 0, result(1));
        cache.store("k".into(), 1, result(2));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lookup("k", 1), Some(result(2)));
    }
}
