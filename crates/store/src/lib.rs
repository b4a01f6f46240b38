//! # owql-store
//!
//! A versioned, concurrent triple store for the OWQL engine, marrying
//! the paper's static-graph semantics with a mutable world:
//!
//! - **Epochs** — every state-changing [`Store::commit`] bumps a
//!   monotonic epoch counter; the epoch names a graph version.
//! - **Snapshots** — [`Store::snapshot`] returns an `O(1)`,
//!   `Arc`-backed [`Snapshot`] pinned to the current epoch. Readers
//!   evaluate OWQL patterns against it (certain answers under
//!   open-world `AND`/`UNION`, maximal answers under closed-world
//!   `NS`) while writers keep committing — answers never shift under
//!   a running query.
//! - **Incremental indexing** — the store's one index is an
//!   [`owql_rdf::SnapshotIndex`]: a term dictionary, id-encoded base
//!   runs, and a small overlay of net-added and net-deleted id rows
//!   that each commit's net rows are merged into. Once the overlay
//!   outgrows a
//!   threshold, compaction folds it into fresh base runs over id rows
//!   alone (no term is re-interned). No full rebuild per write.
//! - **Epoch-keyed query cache** — [`Store::query`] caches
//!   `MappingSet` results keyed by `(pattern text, epoch)` (see
//!   [`cache_key`]). A
//!   write bumps the epoch and thereby invalidates every cached entry
//!   implicitly; hit/miss/eviction counters are exposed via
//!   [`Store::cache_stats`].
//! - **Durability** — [`Store::open`] puts the store on a data
//!   directory: every commit is logged to a checksummed write-ahead
//!   log (fsync'd before its epoch is published), a background indexer
//!   checkpoints the snapshot into binary segment generations, and
//!   reopening the directory recovers the last fully-committed epoch
//!   even after `kill -9` (see `owql-persist` and DESIGN.md §12).
//!
//! ```
//! use owql_rdf::Triple;
//! use owql_algebra::pattern::Pattern;
//! use owql_store::Store;
//!
//! let store = Store::new();
//! let mut tx = store.begin();
//! tx.insert(Triple::new("Juan", "was_born_in", "Chile"));
//! tx.insert(Triple::new("Chile", "is_in", "SouthAmerica"));
//! store.commit(tx);
//!
//! let p = Pattern::t("?x", "was_born_in", "?c").and(Pattern::t("?c", "is_in", "?r"));
//! assert_eq!(store.query(&p).len(), 1);   // cold: evaluated, cached
//! assert_eq!(store.query(&p).len(), 1);   // warm: served from cache
//! assert_eq!(store.cache_stats().hits, 1);
//! ```

pub mod cache;
pub mod store;

pub use cache::{cache_key, CacheStats, QueryCache};
pub use owql_persist::{segment_path, PersistConfig, RecoveryReport, WAL_FILE};
pub use store::{
    CheckpointSummary, CommitSummary, PersistMetrics, QueryOutcome, QueryRequest, Snapshot, Store,
    StoreMetrics, StoreOptions, Transaction,
};
