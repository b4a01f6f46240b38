//! The versioned, concurrent triple store.
//!
//! A [`Store`] holds one [`SnapshotIndex`] — a term dictionary, an
//! immutable `Arc`-shared base of id runs, and a small overlay of
//! net-added and net-deleted id rows. Mutations are batched into
//! [`Transaction`]s; a commit plans the batch against the index
//! (encoding each triple once, by lookup, and netting on id rows),
//! logs its effective ops, then applies the net rows as one merge. A
//! commit that changes anything bumps a monotonically increasing
//! **epoch**. Readers
//! take [`Snapshot`]s — four `Arc` clones — and evaluate queries
//! against them while writers proceed;
//! a snapshot keeps answering from the state it captured forever
//! (epoch isolation).
//!
//! When the overlay outgrows `max(min_compact, compact_fraction ×
//! |base|)`, the commit folds it into a fresh base over id rows
//! (**delta compaction**, [`SnapshotIndex::compacted`]) — replacing a
//! full `O(|G|)` index rebuild on every change with an amortized,
//! threshold-driven one that never re-interns a term.
//!
//! ## Durability (`owql-persist`)
//!
//! A store opened with [`Store::open`] writes a checksummed
//! write-ahead log record per commit — fsync'd **before** the commit's
//! epoch is published, so every epoch a reader ever observed is
//! reconstructible — and periodically checkpoints the snapshot into a
//! binary segment generation (the **background indexer**, or inline
//! when so configured), truncating the log behind the retained
//! segments. Reopening the directory recovers the newest valid
//! segment, replays the log tail past its epoch watermark, and skips
//! any torn trailing record. See DESIGN.md §12.

use crate::cache::{cache_key, CacheStats, QueryCache};
use owql_algebra::mapping_set::MappingSet;
use owql_algebra::pattern::Pattern;
use owql_eval::{Engine, EvalError, ExecOpts, RunOutcome};
use owql_exec::Pool;
use owql_obs::{MetricsHub, Profile, SlowQuery};
use owql_persist::{CommitRecord, PersistConfig, RecoveryReport, Wal, WalOp};
use owql_rdf::{Graph, IdRuns, SnapshotIndex, TermDict, Triple};
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Expect-message for unwrapping requests made without a deadline.
const NO_BUDGET: &str = "unlimited budget cannot time out";

/// One query, fully described: the pattern plus the execution options.
///
/// This is the wire-level unit of the unified API — the HTTP server
/// builds one per request, `Store::query_request` answers it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// The NS–SPARQL graph pattern to evaluate.
    pub pattern: Pattern,
    /// How to run it (scheduling, tracing, cache, deadline).
    pub opts: ExecOpts,
}

impl QueryRequest {
    /// A request with default (sequential, cached) options.
    pub fn new(pattern: Pattern) -> QueryRequest {
        QueryRequest {
            pattern,
            opts: ExecOpts::seq(),
        }
    }

    /// A request with explicit options.
    pub fn with_opts(pattern: Pattern, opts: ExecOpts) -> QueryRequest {
        QueryRequest { pattern, opts }
    }
}

/// What answering a [`QueryRequest`] produced.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The answer set `⟦P⟧G` at `epoch`.
    pub mappings: MappingSet,
    /// The recorded profile — `Some` iff the request asked for tracing.
    pub profile: Option<Profile>,
    /// The epoch the answer is consistent with (the snapshot the
    /// evaluation pinned).
    pub epoch: u64,
    /// `true` iff the answer came from the epoch-keyed query cache.
    pub cache_hit: bool,
    /// Certified pruning rewrites the optimizer applied to the plan
    /// (all-zero unless the request asked for optimization and a
    /// lint-proven prune fired; cache hits run no optimizer).
    pub prunes: owql_obs::PruneObs,
    /// The plan the evaluation ran; `None` on a cache hit, which runs
    /// nothing.
    pub plan: Option<owql_eval::Plan>,
}

/// Tuning knobs for a [`Store`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Compaction never triggers below this overlay size.
    pub min_compact: usize,
    /// Compaction triggers once `|delta| > compact_fraction × |base|`
    /// (and `|delta| > min_compact`).
    pub compact_fraction: f64,
    /// Capacity of the epoch-keyed LRU query cache (0 disables it).
    pub cache_capacity: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            min_compact: 1024,
            compact_fraction: 0.25,
            cache_capacity: 256,
        }
    }
}

/// A batch of mutations, applied atomically by [`Store::commit`]. Its
/// ops are the write-ahead log's own ([`WalOp`]): an insert of a
/// present triple or a delete of an absent one is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Transaction {
    ops: Vec<WalOp>,
}

impl Transaction {
    /// An empty batch.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Queues an insertion.
    pub fn insert(&mut self, t: Triple) -> &mut Self {
        self.ops.push(WalOp::Insert(t));
        self
    }

    /// Queues a deletion.
    pub fn delete(&mut self, t: Triple) -> &mut Self {
        self.ops.push(WalOp::Delete(t));
        self
    }

    /// Queues every triple of `graph` for insertion.
    pub fn insert_graph(&mut self, graph: &Graph) -> &mut Self {
        for &t in graph.iter() {
            self.insert(t);
        }
        self
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` iff no op is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What a commit did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitSummary {
    /// The epoch after the commit (unchanged if nothing applied).
    pub epoch: u64,
    /// Ops that actually changed the store (duplicates and misses
    /// don't count).
    pub applied: usize,
    /// Whether this commit folded the delta into a fresh base.
    pub compacted: bool,
}

/// What a checkpoint did (see [`Store::checkpoint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// The segment generation the checkpoint wrote.
    pub generation: u64,
    /// The epoch watermark baked into that segment.
    pub epoch: u64,
    /// Triples in the segment.
    pub triples: usize,
    /// WAL records truncated behind the retained generations.
    pub wal_records_dropped: u64,
}

/// The store's counter value structs (defined in `owql-obs`, which
/// profiles and `/metrics` render them from).
pub use owql_obs::{PersistMetrics, StoreMetrics};

/// Wake/shutdown flags for the background indexer thread.
#[derive(Debug, Default)]
struct IndexerSignal {
    wake: bool,
    shutdown: bool,
}

/// Everything the durable side of a store shares with its background
/// indexer: the open WAL, the data directory, counters mirrored into
/// atomics so `metrics()` never touches the WAL lock. The checkpoint
/// count is the hub's checkpoint histogram count.
#[derive(Debug)]
struct PersistState {
    dir: PathBuf,
    config: PersistConfig,
    wal: Mutex<Wal>,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    segment_generation: AtomicU64,
    last_checkpoint_epoch: AtomicU64,
    recovery: RecoveryReport,
    /// The owning store's metrics hub, shared so checkpoints running on
    /// the background indexer thread land in the same histograms.
    hub: Arc<MetricsHub>,
    /// Serializes checkpoints (manual, inline, and background).
    checkpoint_lock: Mutex<()>,
    signal: Mutex<IndexerSignal>,
    wake: Condvar,
}

impl PersistState {
    fn metrics(&self) -> PersistMetrics {
        PersistMetrics {
            wal_bytes: self.wal_bytes.load(Ordering::SeqCst),
            wal_records: self.wal_records.load(Ordering::SeqCst),
            segment_generation: self.segment_generation.load(Ordering::SeqCst),
            last_checkpoint_epoch: self.last_checkpoint_epoch.load(Ordering::SeqCst),
            checkpoints: self.hub.checkpoint.count(),
            recovery_replayed_records: self.recovery.replayed_records,
        }
    }

    /// `true` once `checkpoint_wal_records` records have been committed
    /// since the newest checkpoint. Every record is one epoch, so that
    /// count is an epoch difference. The WAL's own length is the wrong
    /// measure: it still holds the records behind the older retained
    /// generations, which would re-trigger on the next commit.
    fn checkpoint_due(&self, epoch: u64) -> bool {
        let threshold = self.config.checkpoint_wal_records;
        let since = epoch.saturating_sub(self.last_checkpoint_epoch.load(Ordering::SeqCst));
        threshold > 0 && since >= threshold
    }

    fn wake_indexer(&self) {
        let mut signal = self.signal.lock().expect("indexer signal poisoned");
        signal.wake = true;
        drop(signal);
        self.wake.notify_all();
    }
}

/// Flushes the current snapshot into a fresh segment generation,
/// prunes old generations, and truncates the WAL behind the *oldest*
/// retained one (so a corrupt newest segment still recovers from the
/// previous generation plus the log). Runs on the committing thread
/// (inline config / [`Store::checkpoint`]) or the background indexer.
fn run_checkpoint(
    inner: &RwLock<StoreInner>,
    persist: &PersistState,
) -> io::Result<Option<CheckpointSummary>> {
    let _serialize = persist
        .checkpoint_lock
        .lock()
        .expect("checkpoint lock poisoned");
    let started = Instant::now();
    // Snapshot under a read lock, then write the segment without
    // holding any store lock — commits keep landing meanwhile (their
    // epochs stay in the WAL until the *next* checkpoint).
    let (epoch, index) = {
        let inner = inner.read().expect("store lock poisoned");
        (inner.epoch, inner.index.clone())
    };
    if epoch == persist.last_checkpoint_epoch.load(Ordering::SeqCst)
        && persist.segment_generation.load(Ordering::SeqCst) > 0
    {
        return Ok(None); // nothing committed since the last checkpoint
    }
    let (terms, spo) = index.ranked();
    let generation = persist.segment_generation.load(Ordering::SeqCst) + 1;
    owql_persist::write_segment(&persist.dir, generation, epoch, &terms, &spo)?;
    persist
        .segment_generation
        .store(generation, Ordering::SeqCst);
    persist.last_checkpoint_epoch.store(epoch, Ordering::SeqCst);
    owql_persist::prune_segments(&persist.dir, persist.config.keep_segments.max(1))?;

    // The WAL must still cover everything past the oldest retained
    // generation's watermark, not just the newest one's.
    let mut watermark = epoch;
    for (gen, path) in owql_persist::segment_generations(&persist.dir)? {
        let _ = gen;
        if let Ok(e) = owql_persist::segment_epoch(&path) {
            watermark = watermark.min(e);
        }
    }
    let wal_records_dropped = {
        let mut wal = persist.wal.lock().expect("wal lock poisoned");
        let dropped = wal.truncate_behind(watermark)?;
        persist.wal_records.store(wal.records(), Ordering::SeqCst);
        persist.wal_bytes.store(wal.bytes(), Ordering::SeqCst);
        dropped
    };
    persist.hub.checkpoint.record(started.elapsed());
    Ok(Some(CheckpointSummary {
        generation,
        epoch,
        triples: spo.len(),
        wal_records_dropped,
    }))
}

/// The background indexer: sleeps on the condvar, checkpoints when a
/// commit crosses the WAL threshold, exits on shutdown (store drop).
fn indexer_loop(inner: Arc<RwLock<StoreInner>>, persist: Arc<PersistState>) {
    let mut signal = persist.signal.lock().expect("indexer signal poisoned");
    loop {
        while !signal.wake && !signal.shutdown {
            signal = persist.wake.wait(signal).expect("indexer signal poisoned");
        }
        if signal.shutdown {
            return;
        }
        signal.wake = false;
        drop(signal);
        // Commits that land while a checkpoint runs wake the indexer
        // against the old watermark; re-check against the new one so
        // they do not buy a back-to-back checkpoint.
        let epoch = inner.read().expect("store lock poisoned").epoch;
        if persist.checkpoint_due(epoch) {
            // A failed background checkpoint is not fatal: the WAL
            // still holds every commit, so durability is unaffected —
            // the next threshold crossing (or a manual checkpoint)
            // retries.
            let _ = run_checkpoint(&inner, &persist);
        }
        signal = persist.signal.lock().expect("indexer signal poisoned");
    }
}

#[derive(Debug)]
struct StoreInner {
    /// The one triple index. Its dictionary is store-wide and
    /// append-only: ids survive compactions and epochs.
    index: SnapshotIndex,
    epoch: u64,
    compactions: u64,
}

impl StoreInner {
    fn new(index: SnapshotIndex, epoch: u64) -> StoreInner {
        StoreInner {
            index,
            epoch,
            compactions: 0,
        }
    }

    /// Folds the overlay into a fresh base over id rows; every
    /// surviving triple keeps its ids. Called under the write lock.
    fn compact(&mut self) {
        self.index = self.index.compacted();
        self.compactions += 1;
    }
}

/// An immutable point-in-time view of a [`Store`].
///
/// Derefs to [`SnapshotIndex`], so it plugs directly into
/// [`Engine::for_snapshot`] (or use the [`Snapshot::engine`] /
/// [`Snapshot::query_request`] conveniences).
#[derive(Clone, Debug)]
pub struct Snapshot {
    epoch: u64,
    index: SnapshotIndex,
}

impl Snapshot {
    /// The epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying delta-aware index.
    pub fn index(&self) -> &SnapshotIndex {
        &self.index
    }

    /// An evaluation engine bound to this snapshot.
    pub fn engine(&self) -> Engine {
        Engine::for_snapshot(&self.index)
    }

    /// Answers `req` against this frozen epoch — the snapshot-level
    /// unified entry point. No cache is involved (the cache lives on
    /// the [`Store`]); [`ExecOpts::cache`] is ignored here. The
    /// snapshot's `Arc`-shared index is `Send + Sync`, so a parallel
    /// request's workers all read the same frozen epoch.
    pub fn query_request(
        &self,
        req: &QueryRequest,
        pool: &Pool,
    ) -> Result<QueryOutcome, EvalError> {
        let out = self.engine().run(&req.pattern, &req.opts, pool)?;
        Ok(self.outcome(req, out))
    }

    /// Stamps an engine run with this snapshot's epoch and labels its
    /// profile with the request.
    fn outcome(&self, req: &QueryRequest, out: RunOutcome) -> QueryOutcome {
        let mut profile = out.profile;
        if let Some(p) = profile.as_mut() {
            p.query = Some(req.pattern.to_string());
            p.answers = Some(out.mappings.len() as u64);
        }
        QueryOutcome {
            mappings: out.mappings,
            profile,
            epoch: self.epoch,
            cache_hit: false,
            prunes: out.prunes,
            plan: Some(out.plan),
        }
    }

    /// EXPLAIN ANALYZE against this snapshot (see
    /// [`owql_eval::AnnotatedPlan`]).
    pub fn explain_analyze(
        &self,
        pattern: &Pattern,
    ) -> Result<owql_eval::AnnotatedPlan, EvalError> {
        self.engine().explain_analyze(pattern)
    }
}

impl Deref for Snapshot {
    type Target = SnapshotIndex;
    fn deref(&self) -> &SnapshotIndex {
        &self.index
    }
}

/// The versioned, concurrent triple store. See the module docs.
///
/// ```
/// use owql_algebra::pattern::Pattern;
/// use owql_exec::Pool;
/// use owql_rdf::Triple;
/// use owql_store::{QueryRequest, Store};
///
/// let store = Store::new();
/// store.insert(Triple::new("Juan", "was_born_in", "Chile"));
///
/// let before = store.snapshot();
/// store.insert(Triple::new("Marcelo", "was_born_in", "Chile"));
///
/// let pool = Pool::sequential();
/// let req = QueryRequest::new(Pattern::t("?x", "was_born_in", "Chile"));
/// // The old snapshot still answers from its epoch…
/// assert_eq!(before.query_request(&req, &pool).unwrap().mappings.len(), 1);
/// // …while the store's unified entry point sees the write.
/// let out = store.query_request(&req, &pool).unwrap();
/// assert_eq!(out.mappings.len(), 2);
/// assert_eq!(out.epoch, 2);
/// ```
#[derive(Debug)]
pub struct Store {
    inner: Arc<RwLock<StoreInner>>,
    cache: QueryCache,
    opts: StoreOptions,
    /// Cross-query metrics: latency histograms, the evaluator-run
    /// counter, and the slow-query log (see [`Store::metrics_hub`]).
    hub: Arc<MetricsHub>,
    /// Durable side — `Some` iff opened with [`Store::open`].
    persist: Option<Arc<PersistState>>,
    /// The background indexer thread, joined on drop.
    indexer: Mutex<Option<JoinHandle<()>>>,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(p) = &self.persist {
            let mut signal = p.signal.lock().expect("indexer signal poisoned");
            signal.shutdown = true;
            drop(signal);
            p.wake.notify_all();
        }
        let handle = self.indexer.get_mut().ok().and_then(|slot| slot.take());
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Store {
    /// An empty store with default options.
    pub fn new() -> Self {
        Store::with_options(StoreOptions::default())
    }

    /// An empty store with explicit options.
    pub fn with_options(opts: StoreOptions) -> Self {
        Store::with_index(SnapshotIndex::default(), opts)
    }

    /// An in-memory store over `index` at epoch 0.
    fn with_index(index: SnapshotIndex, opts: StoreOptions) -> Self {
        Store {
            inner: Arc::new(RwLock::new(StoreInner::new(index, 0))),
            cache: QueryCache::new(opts.cache_capacity),
            opts,
            hub: Arc::new(MetricsHub::default()),
            persist: None,
            indexer: Mutex::new(None),
        }
    }

    /// Opens (or creates) a **durable** store on `dir` with default
    /// options and persistence config.
    pub fn open_default(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open(dir, StoreOptions::default(), PersistConfig::default())
    }

    /// Opens (or creates) a **durable** store on `dir`: recovers the
    /// newest valid segment, replays the WAL tail past its epoch
    /// watermark (skipping any torn trailing record), and resumes at
    /// the last fully-committed epoch. Every subsequent commit is
    /// WAL-logged (fsync'd before its epoch is published, per
    /// `config.fsync`) and periodically checkpointed into a new
    /// segment generation.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        config: PersistConfig,
    ) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        let recovered = owql_persist::recover(&dir)?;

        // Seed the term dictionary straight from the segment's
        // rank-sorted term table (id = rank + 1), so the segment's SPO
        // run is the base's rows once every id is shifted by one, in
        // place: no term is decoded, re-interned or re-encoded, and
        // neither table is copied. `Segment::load` checked every rank
        // is below a term count of at most `TermId::MAX`, so no shift
        // wraps.
        let mut inner = match recovered.segment {
            Some(seg) => {
                let epoch = seg.epoch();
                let (terms, mut spo) = seg.into_parts();
                let dict = Arc::new(TermDict::from_sorted_terms(terms));
                spo.iter_mut().flatten().for_each(|rank| *rank += 1);
                let base = IdRuns::from_spo_rows(spo);
                StoreInner::new(SnapshotIndex::new(dict, base), epoch)
            }
            None => StoreInner::new(SnapshotIndex::default(), 0),
        };
        // Replay plans and applies each record like a live commit.
        for record in &recovered.replay {
            let plan = inner.index.plan(record.ops.iter().map(WalOp::parts));
            inner.index.apply(plan.map_err(io::Error::other)?);
            inner.epoch = record.epoch;
        }

        let report = recovered.report;
        let wal_records = recovered.wal.records();
        let wal_bytes = recovered.wal.bytes();
        let hub = Arc::new(MetricsHub::default());
        let persist = Arc::new(PersistState {
            dir,
            config: config.clone(),
            wal: Mutex::new(recovered.wal),
            wal_records: AtomicU64::new(wal_records),
            wal_bytes: AtomicU64::new(wal_bytes),
            segment_generation: AtomicU64::new(report.segment_generation),
            last_checkpoint_epoch: AtomicU64::new(report.segment_epoch),
            recovery: report,
            hub: hub.clone(),
            checkpoint_lock: Mutex::new(()),
            signal: Mutex::new(IndexerSignal::default()),
            wake: Condvar::new(),
        });

        let store = Store {
            inner: Arc::new(RwLock::new(inner)),
            cache: QueryCache::new(opts.cache_capacity),
            opts,
            hub,
            persist: Some(persist.clone()),
            indexer: Mutex::new(None),
        };
        if config.background_indexer {
            let inner = store.inner.clone();
            let handle = std::thread::Builder::new()
                .name("owql-indexer".to_owned())
                .spawn(move || indexer_loop(inner, persist))?;
            *store.indexer.lock().expect("indexer slot poisoned") = Some(handle);
        }
        Ok(store)
    }

    /// The data directory, when this store is durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.persist.as_deref().map(|p| p.dir.as_path())
    }

    /// What recovery found when this store opened (durable stores
    /// only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.persist.as_deref().map(|p| &p.recovery)
    }

    /// Forces a checkpoint now: flushes the current snapshot into a
    /// new segment generation and truncates the WAL behind the
    /// retained generations. Returns `Ok(None)` on an in-memory store
    /// or when nothing was committed since the last checkpoint.
    pub fn checkpoint(&self) -> io::Result<Option<CheckpointSummary>> {
        match &self.persist {
            Some(p) => run_checkpoint(&self.inner, p),
            None => Ok(None),
        }
    }

    /// A store seeded with `graph` as its base index (epoch 0).
    pub fn from_graph(graph: &Graph) -> Self {
        Store::with_index(SnapshotIndex::from_graph(graph), StoreOptions::default())
    }

    /// Current epoch (bumped by every state-changing commit).
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("store lock poisoned").epoch
    }

    /// Number of currently visible triples.
    pub fn len(&self) -> usize {
        self.inner.read().expect("store lock poisoned").index.len()
    }

    /// `true` iff no triple is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes a point-in-time snapshot (four `Arc` clones — `O(1)`).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read().expect("store lock poisoned");
        Snapshot {
            epoch: inner.epoch,
            index: inner.index.clone(),
        }
    }

    /// Starts an empty transaction (a convenience for
    /// `Transaction::new`).
    pub fn begin(&self) -> Transaction {
        Transaction::new()
    }

    /// Applies a batch atomically. One epoch bump per commit that
    /// changes anything; no bump for all-no-op batches.
    ///
    /// A WAL-append failure on a durable store, or a batch whose new
    /// terms would outgrow the id space, panics; use
    /// [`Store::try_commit`] to handle the error instead.
    pub fn commit(&self, tx: Transaction) -> CommitSummary {
        self.try_commit(tx).expect(
            "commit refused (WAL I/O or a full term dictionary); use try_commit to handle it",
        )
    }

    /// [`Store::commit`], surfacing WAL I/O errors and a batch whose new
    /// terms would outgrow the dictionary's id space (`TermId::MAX`
    /// terms). On `Err` the store is untouched: the batch is planned
    /// *before* the WAL append (a lookup-only dry run over the current
    /// index, which also checks the id space), the record of its
    /// effective ops is written and — per [`PersistConfig::fsync`] —
    /// synced, and only then are its terms interned, its net rows
    /// applied and the new epoch published. A reader can therefore
    /// never observe an epoch whose WAL record isn't on disk.
    pub fn try_commit(&self, tx: Transaction) -> io::Result<CommitSummary> {
        let mut inner = self.inner.write().expect("store lock poisoned");
        let next_epoch = inner.epoch + 1;

        // Phase 1 — plan: which ops change the store, and the net rows.
        let plan = inner.index.plan(tx.ops.iter().map(WalOp::parts));
        let plan = plan.map_err(io::Error::other)?;
        let applied = plan.effective.len();
        if applied == 0 {
            return Ok(CommitSummary {
                epoch: inner.epoch,
                applied,
                compacted: false,
            });
        }

        // Phase 2 — log: append + fsync the effective ops, in batch
        // order, while still holding the write lock and *before* any
        // in-memory change. An I/O error aborts the commit with the
        // store untouched.
        if let Some(p) = &self.persist {
            let record = CommitRecord {
                epoch: next_epoch,
                ops: plan.effective.iter().map(|&at| tx.ops[at]).collect(),
            };
            let mut wal = p.wal.lock().expect("wal lock poisoned");
            let fsync_started = Instant::now();
            wal.append(&record, p.config.fsync)?;
            self.hub.wal_fsync.record(fsync_started.elapsed());
            p.wal_records.store(wal.records(), Ordering::SeqCst);
            p.wal_bytes.store(wal.bytes(), Ordering::SeqCst);
        }

        // Phase 3 — apply and publish.
        inner.index.apply(plan);
        inner.epoch = next_epoch;
        let compacted = self.maybe_compact(&mut inner);
        let summary = CommitSummary {
            epoch: inner.epoch,
            applied,
            compacted,
        };
        drop(inner);

        // Phase 4 — maybe checkpoint (outside the write lock).
        if let Some(p) = &self.persist {
            if p.checkpoint_due(summary.epoch) {
                if p.config.background_indexer {
                    p.wake_indexer();
                } else {
                    run_checkpoint(&self.inner, p)?;
                }
            }
        }
        Ok(summary)
    }

    /// Single-triple insert (its own transaction). Returns `true` if
    /// the triple was new.
    pub fn insert(&self, t: Triple) -> bool {
        let mut tx = Transaction::new();
        tx.insert(t);
        self.commit(tx).applied == 1
    }

    /// Single-triple delete (its own transaction). Returns `true` if
    /// the triple was present.
    pub fn delete(&self, t: &Triple) -> bool {
        let mut tx = Transaction::new();
        tx.delete(*t);
        self.commit(tx).applied == 1
    }

    /// Folds the delta into a fresh base if the compaction policy says
    /// so; called under the write lock.
    fn maybe_compact(&self, inner: &mut StoreInner) -> bool {
        let threshold = self
            .opts
            .min_compact
            .max((self.opts.compact_fraction * inner.index.base_len() as f64) as usize);
        if inner.index.delta_len() <= threshold {
            return false;
        }
        inner.compact();
        true
    }

    /// Forces a compaction regardless of the policy (no epoch change —
    /// the visible graph, and every term id, is identical before and
    /// after).
    pub fn force_compact(&self) {
        let mut inner = self.inner.write().expect("store lock poisoned");
        if inner.index.delta_len() > 0 {
            inner.compact();
        }
    }

    /// Materializes the current visible graph.
    pub fn to_graph(&self) -> Graph {
        self.snapshot().to_graph()
    }

    /// Answers `req` at the current epoch — THE store-level entry
    /// point; `query` and `query_uncached` are thin wrappers over it,
    /// and the HTTP server calls it once per request.
    ///
    /// The [`ExecOpts::max_class`] admission ceiling is enforced
    /// *before* the cache lookup, so a cached result can never smuggle
    /// an over-ceiling query past the policy.
    ///
    /// Takes one snapshot up front — **pinning the epoch** for the
    /// whole run, so however long the evaluation takes and however many
    /// commits land meanwhile, it reads one immutable graph version
    /// (the outcome reports that epoch). When [`ExecOpts::cache`] is
    /// set, the epoch-keyed cache is consulted first (key the pattern
    /// text via [`cache_key`], look up `(key, epoch)`) and filled on a
    /// miss —
    /// so every hit *and* miss shows up in the cache counters that
    /// traced profiles carry in their `"store"` section.
    ///
    /// Linearizable against writers: the result is exactly
    /// `⟦pattern⟧G_e` for the epoch `e` the snapshot captured (the
    /// point in time the query took effect). See DESIGN.md §8.
    pub fn query_request(
        &self,
        req: &QueryRequest,
        pool: &Pool,
    ) -> Result<QueryOutcome, EvalError> {
        let started = Instant::now();
        let outcome = self.query_request_inner(req, pool)?;
        let elapsed = started.elapsed();
        self.hub.query_latency.record(elapsed);
        self.hub.observe_prunes(outcome.prunes);
        if let Some(profile) = &outcome.profile {
            self.hub.observe_spans(&profile.spans);
        }
        if let Some(threshold) = req.opts.slow_query {
            if elapsed >= threshold {
                // The outcome carries the plan that ran; only queries
                // that cross the threshold pay for rendering it.
                let plan = outcome
                    .plan
                    .as_ref()
                    .map_or_else(|| "cache hit".to_owned(), ToString::to_string);
                self.hub.record_slow_query(SlowQuery {
                    query: req.pattern.to_string(),
                    epoch: outcome.epoch,
                    elapsed_ns: elapsed.as_nanos() as u64,
                    answers: outcome.mappings.len() as u64,
                    cache_hit: outcome.cache_hit,
                    plan,
                    operators: outcome
                        .profile
                        .as_ref()
                        .map(|p| p.operators.clone())
                        .unwrap_or_default(),
                });
            }
        }
        Ok(outcome)
    }

    /// The uninstrumented body of [`Store::query_request`] (admission,
    /// cache, snapshot evaluation) — the wrapper above times it and
    /// folds the outcome into the [`MetricsHub`].
    fn query_request_inner(
        &self,
        req: &QueryRequest,
        pool: &Pool,
    ) -> Result<QueryOutcome, EvalError> {
        owql_eval::check_admission(&req.pattern, &req.opts)?;
        let snapshot = self.snapshot();
        let key = req.opts.cache.then(|| cache_key(&req.pattern));
        let hit = key
            .as_ref()
            .and_then(|k| self.cache.lookup(k, snapshot.epoch()));
        let mut outcome = match hit {
            Some(hit) => QueryOutcome {
                profile: req.opts.trace.then(|| Profile {
                    query: Some(req.pattern.to_string()),
                    answers: Some(hit.len() as u64),
                    ..Profile::default()
                }),
                mappings: hit,
                epoch: snapshot.epoch(),
                cache_hit: true,
                prunes: owql_obs::PruneObs::default(),
                plan: None,
            },
            None => {
                let outcome = snapshot.query_request(req, pool)?;
                if let Some(key) = key {
                    let answers = outcome.mappings.clone();
                    self.cache.store(key, snapshot.epoch(), answers);
                }
                outcome
            }
        };
        if let Some(p) = outcome.profile.as_mut() {
            p.store = Some(self.metrics());
        }
        Ok(outcome)
    }

    /// Evaluates `pattern` at the current epoch through the query
    /// cache (sequential, no tracing, no deadline).
    pub fn query(&self, pattern: &Pattern) -> MappingSet {
        self.query_request(&QueryRequest::new(pattern.clone()), &Pool::sequential())
            .expect(NO_BUDGET)
            .mappings
    }

    /// Evaluates `pattern` bypassing (and not touching) the cache.
    pub fn query_uncached(&self, pattern: &Pattern) -> MappingSet {
        self.query_request(
            &QueryRequest::with_opts(pattern.clone(), ExecOpts::seq().uncached()),
            &Pool::sequential(),
        )
        .expect(NO_BUDGET)
        .mappings
    }

    /// Query-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The store's cross-query metrics hub: latency histograms
    /// (query / per-operator / WAL fsync / checkpoint), the
    /// certified-prune counters, and the slow-query ring buffer. Shared
    /// (`Arc`) with the background indexer; the HTTP server renders its
    /// families, then [`StoreMetrics::families`], on `GET /metrics`.
    pub fn metrics_hub(&self) -> Arc<MetricsHub> {
        self.hub.clone()
    }

    /// Aggregate state for monitoring — also the `"store"` (and
    /// `"persist"`) section of a traced [`Profile`].
    pub fn metrics(&self) -> StoreMetrics {
        let inner = self.inner.read().expect("store lock poisoned");
        let dict = inner.index.dict();
        StoreMetrics {
            epoch: inner.epoch,
            len: inner.index.len(),
            base_len: inner.index.base_len(),
            delta_len: inner.index.delta_len(),
            compactions: inner.compactions,
            index_bytes: inner.index.heap_bytes(),
            dict_terms: dict.len(),
            dict_hits: dict.hits(),
            dict_misses: dict.misses(),
            cache: self.cache.stats(),
            persist: self.persist.as_deref().map(PersistState::metrics),
        }
    }

    /// The store-wide term dictionary (shared with every index and
    /// snapshot this store hands out). Ids are append-only: once a term
    /// has an id, it keeps it across commits and compactions.
    pub fn dict(&self) -> Arc<TermDict> {
        self.inner
            .read()
            .expect("store lock poisoned")
            .index
            .dict()
            .clone()
    }

    /// Durability counters — `Some` iff the store persists to disk.
    pub fn persist_metrics(&self) -> Option<PersistMetrics> {
        self.persist.as_deref().map(PersistState::metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_rdf::graph::graph_from;
    use owql_rdf::term::triple;
    use owql_rdf::Iri;

    fn small_opts() -> StoreOptions {
        StoreOptions {
            min_compact: 4,
            compact_fraction: 0.5,
            cache_capacity: 16,
        }
    }

    #[test]
    fn insert_delete_and_epochs() {
        let store = Store::new();
        assert_eq!(store.epoch(), 0);
        assert!(store.insert(triple("a", "p", "b")));
        assert_eq!(store.epoch(), 1);
        assert!(!store.insert(triple("a", "p", "b"))); // duplicate: no bump
        assert_eq!(store.epoch(), 1);
        assert!(store.delete(&triple("a", "p", "b")));
        assert_eq!(store.epoch(), 2);
        assert!(!store.delete(&triple("a", "p", "b")));
        assert_eq!(store.epoch(), 2);
        assert!(store.is_empty());
    }

    #[test]
    fn batch_commit_is_one_epoch() {
        let store = Store::new();
        let mut tx = store.begin();
        tx.insert(triple("a", "p", "b"))
            .insert(triple("c", "p", "d"))
            .delete(triple("zz", "zz", "zz")); // no-op
        let summary = store.commit(tx);
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.applied, 2);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn insert_then_delete_in_one_batch_nets_out() {
        let store = Store::new();
        let mut tx = store.begin();
        tx.insert(triple("a", "p", "b"))
            .delete(triple("a", "p", "b"));
        let summary = store.commit(tx);
        assert_eq!(summary.applied, 2); // both ops changed state…
        assert_eq!(summary.epoch, 1);
        assert_eq!(store.epoch(), 1);
        assert!(store.is_empty()); // …and net to nothing
        assert_eq!(store.metrics().delta_len, 0);
        assert_eq!(store.to_graph(), Graph::new());
    }

    #[test]
    fn delete_of_base_triple_then_reinsert() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b")]));
        assert!(store.delete(&triple("a", "p", "b")));
        assert!(store.is_empty());
        assert!(store.insert(triple("a", "p", "b")));
        assert_eq!(store.len(), 1);
        assert_eq!(store.metrics().delta_len, 0); // delete+reinsert cancel
    }

    #[test]
    fn snapshot_isolation_across_writes() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b")]));
        let before = store.snapshot();
        store.insert(triple("c", "p", "d"));
        store.delete(&triple("a", "p", "b"));
        assert_eq!(before.len(), 1);
        assert!(before.to_graph().contains(&triple("a", "p", "b")));
        let after = store.snapshot();
        assert_eq!(after.len(), 1);
        assert!(after.to_graph().contains(&triple("c", "p", "d")));
        assert!(before.epoch() < after.epoch());
    }

    #[test]
    fn compaction_folds_delta_and_preserves_graph() {
        let store = Store::with_options(small_opts());
        for i in 0..20 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        let metrics = store.metrics();
        assert!(metrics.compactions > 0, "threshold 4 must have tripped");
        assert_eq!(metrics.len, 20);
        assert_eq!(store.to_graph().len(), 20);
        // Post-compaction deltas keep working.
        store.delete(&triple("s0", "p", "o"));
        assert_eq!(store.len(), 19);
    }

    #[test]
    fn force_compact_preserves_visible_graph_and_epoch() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b"), ("x", "q", "y")]));
        store.insert(triple("a", "p", "b2"));
        store.insert(triple("c", "p", "d"));
        store.delete(&triple("a", "p", "b"));
        let graph = store.to_graph();
        let epoch = store.epoch();
        let dict = store.dict();
        let ids: Vec<_> = dict.with_terms(|terms| terms.to_vec());
        let live_rows = |snap: &Snapshot| {
            let mut rows: Vec<_> = snap.id_view().rows(None, None, None).collect();
            rows.sort_unstable();
            rows
        };
        let before = live_rows(&store.snapshot());
        store.force_compact();
        assert_eq!(store.to_graph(), graph);
        assert_eq!(store.epoch(), epoch);
        assert_eq!(store.metrics().delta_len, 0);
        // Every term keeps its id, and the live rows are the same rows.
        assert!(Arc::ptr_eq(&store.dict(), &dict));
        assert_eq!(dict.with_terms(|terms| terms.to_vec()), ids);
        let after = store.snapshot();
        assert_eq!(after.id_view().base.spo(), &before[..]);
        assert_eq!(live_rows(&after), before);
        // The folded base is 36 bytes of runs per row, with no slack.
        let metrics = store.metrics();
        assert_eq!(
            metrics.index_bytes,
            36 * metrics.base_len + dict.heap_bytes()
        );
    }

    /// Deleting a triple over a term the store never saw changes
    /// nothing and interns nothing.
    #[test]
    fn delete_of_unseen_terms_interns_nothing() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b")]));
        let terms = store.dict().len();
        let mut tx = store.begin();
        tx.delete(triple("a", "p", "never_seen"))
            .delete(triple("never", "seen", "either"));
        assert_eq!(store.commit(tx).applied, 0);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.dict().len(), terms);
        assert_eq!(store.dict().lookup(Iri::new("never_seen")), None);
    }

    #[test]
    fn snapshot_survives_compaction() {
        let store = Store::with_options(small_opts());
        for i in 0..4 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        let snap = store.snapshot(); // holds pre-compaction Arcs
        for i in 4..20 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        assert!(store.metrics().compactions > 0);
        assert_eq!(snap.len(), 4);
        assert_eq!(store.len(), 20);
    }

    #[test]
    fn query_cache_hits_within_epoch_and_invalidates_across() {
        let store = Store::new();
        store.insert(triple("a", "p", "b"));
        let p = Pattern::t("?x", "p", "?y");
        let first = store.query(&p);
        let second = store.query(&p);
        assert_eq!(first, second);
        let stats = store.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);

        store.insert(triple("c", "p", "d"));
        let third = store.query(&p);
        assert_eq!(third.len(), 2);
        let stats = store.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn cached_equals_uncached() {
        let store = Store::from_graph(&graph_from(&[
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("a", "q", "c"),
        ]));
        let p = Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "p", "?z"));
        let uncached = store.query_uncached(&p);
        let cold = store.query(&p);
        let warm = store.query(&p);
        assert_eq!(uncached, cold);
        assert_eq!(uncached, warm);
        assert_eq!(store.cache_stats().hits, 1);
    }

    #[test]
    fn parallel_request_matches_sequential_and_uses_cache() {
        let store = Store::from_graph(&graph_from(&[
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "p", "d"),
            ("a", "q", "d"),
        ]));
        let pool = Pool::new(4);
        let p = Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "p", "?z"));
        let req = QueryRequest::with_opts(p.clone(), ExecOpts::parallel());
        let first = store.query_request(&req, &pool).expect(NO_BUDGET);
        assert_eq!(first.mappings, store.query_uncached(&p));
        assert!(!first.cache_hit);
        // Second call hits the epoch-keyed cache (shared with `query`).
        let again = store.query_request(&req, &pool).expect(NO_BUDGET);
        assert_eq!(again.mappings, first.mappings);
        assert!(again.cache_hit);
        assert_eq!(again.epoch, first.epoch);
        assert_eq!(store.cache_stats().hits, 1);
        // And the sequential `query` sees the same entry.
        assert_eq!(store.query(&p), first.mappings);
        assert_eq!(store.cache_stats().hits, 2);
    }

    /// A traced cache hit still yields a profile (store section only —
    /// no operators ran), so cache traffic is visible to observability.
    #[test]
    fn traced_cache_hit_reports_store_section() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b")]));
        let p = Pattern::t("?x", "p", "?y");
        store.query(&p); // fill the cache
        let req = QueryRequest::with_opts(p.clone(), ExecOpts::seq().traced());
        let out = store
            .query_request(&req, &Pool::sequential())
            .expect(NO_BUDGET);
        assert!(out.cache_hit);
        let profile = out.profile.expect("traced request has a profile");
        assert!(profile.spans.is_empty());
        let obs = profile.store.expect("store section");
        assert_eq!(obs.cache.hits, 1);
        assert_eq!(obs.cache.misses, 1);
    }

    /// A zero deadline surfaces as `EvalError::Timeout` from the store
    /// entry point without touching the cache.
    #[test]
    fn store_request_deadline_times_out() {
        let store = Store::from_graph(&graph_from(&[
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "p", "d"),
        ]));
        let p = Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "p", "?z"));
        let req = QueryRequest::with_opts(
            p.clone(),
            ExecOpts::seq().with_deadline(std::time::Duration::ZERO),
        );
        let result = store.query_request(&req, &Pool::sequential());
        assert!(matches!(result, Err(EvalError::Timeout { .. })));
        // The failed run did not poison or fill the cache.
        assert_eq!(store.query(&p).len(), 2);
    }

    /// Epoch pinning: a parallel evaluation races a writer; whatever
    /// interleaving happens, the answer equals the sequential answer at
    /// *some* epoch the store actually passed through — and a snapshot
    /// taken before the run is never skewed by the writes.
    #[test]
    fn parallel_evaluation_pins_epoch_against_writers() {
        use std::thread;

        let store = Arc::new(Store::new());
        for i in 0..64 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        let p = Pattern::t("?x", "p", "o").and(Pattern::t("?y", "p", "o"));
        let pool = Pool::new(4);

        let snap = store.snapshot();
        let seq_req = QueryRequest::new(p.clone());
        let par_req = QueryRequest::with_opts(p.clone(), ExecOpts::parallel());
        let frozen = snap
            .query_request(&seq_req, &Pool::sequential())
            .expect(NO_BUDGET)
            .mappings;
        let writer = {
            let store = store.clone();
            thread::spawn(move || {
                for i in 64..128 {
                    let s = format!("s{i}");
                    store.insert(triple(s.as_str(), "p", "o"));
                }
            })
        };
        // Evaluate the pinned snapshot in parallel while writes land.
        for _ in 0..4 {
            let out = snap.query_request(&par_req, &pool).expect(NO_BUDGET);
            assert_eq!(out.mappings, frozen);
            assert_eq!(out.epoch, snap.epoch());
        }
        writer.join().expect("writer panicked");
        // The pre-write snapshot still answers from its epoch…
        assert_eq!(
            snap.query_request(&par_req, &pool)
                .expect(NO_BUDGET)
                .mappings,
            frozen
        );
        // …and a fresh parallel query sees all 128 subjects.
        assert_eq!(
            store
                .query_request(&par_req, &pool)
                .expect(NO_BUDGET)
                .mappings
                .len(),
            128 * 128
        );
    }

    /// A traced uncached request answers like `query_uncached` and
    /// folds the live store/cache counters into the report.
    #[test]
    fn traced_request_folds_store_counters_and_matches_uncached() {
        let store = Store::from_graph(&graph_from(&[
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "p", "d"),
        ]));
        let p = Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "p", "?z"));
        store.query(&p); // a miss, so the profile sees cache traffic
        store.query(&p); // and a hit

        let req = QueryRequest::with_opts(p.clone(), ExecOpts::seq().uncached().traced());
        let out = store
            .query_request(&req, &Pool::sequential())
            .expect(NO_BUDGET);
        let result = out.mappings;
        let profile = out.profile.expect("traced run has a profile");
        assert_eq!(result, store.query_uncached(&p));
        assert_eq!(profile.answers, Some(result.len() as u64));
        assert!(!profile.spans.is_empty());
        let obs = profile.store.expect("store section");
        assert_eq!(obs.epoch, store.epoch());
        assert_eq!(obs.len, 3);
        assert_eq!(obs.cache.hits, 1);
        assert_eq!(obs.cache.misses, 1);
        assert!((obs.cache.hit_rate() - 0.5).abs() < 1e-9);
        let json = profile.to_json();
        assert!(json.contains("\"cache_hit_rate\": 0.500"));

        // Parallel profiling agrees and reports pool activity.
        let pool = Pool::new(4);
        let par_req = QueryRequest::with_opts(p.clone(), ExecOpts::parallel().uncached().traced());
        let par = store.query_request(&par_req, &pool).expect(NO_BUDGET);
        assert_eq!(par.mappings, result);
        assert!(par.profile.expect("traced").store.is_some());
    }

    /// The admission ceiling is enforced before the cache: a cached
    /// result for the same pattern must not bypass a later, stricter
    /// ceiling.
    #[test]
    fn admission_is_checked_before_the_cache() {
        use owql_eval::EvalError;
        use owql_lint::ComplexityClass;

        let store = Store::from_graph(&graph_from(&[("a", "p", "b"), ("b", "p", "c")]));
        // PSPACE-class pattern: NS over a non-AUFS operand.
        let p = Pattern::t("?x", "p", "?y")
            .opt(Pattern::t("?y", "p", "?z"))
            .ns();
        let pool = Pool::sequential();

        // Warm the cache without a ceiling.
        let warmed = store
            .query_request(&QueryRequest::new(p.clone()), &pool)
            .expect(NO_BUDGET);
        assert!(!warmed.cache_hit);
        let hit = store
            .query_request(&QueryRequest::new(p.clone()), &pool)
            .expect(NO_BUDGET);
        assert!(hit.cache_hit);

        // The same (cached) pattern is still shed under a ceiling.
        let capped = QueryRequest::with_opts(
            p.clone(),
            ExecOpts::seq().with_max_class(ComplexityClass::Dp),
        );
        let err = store.query_request(&capped, &pool).unwrap_err();
        assert!(matches!(err, EvalError::AdmissionDenied { .. }), "{err:?}");

        // At or below the ceiling, cached answers still flow.
        let ok =
            QueryRequest::with_opts(p, ExecOpts::seq().with_max_class(ComplexityClass::Pspace));
        assert!(store.query_request(&ok, &pool).expect(NO_BUDGET).cache_hit);
    }

    /// The store's hub families in Prometheus text format.
    fn hub_text(store: &Store) -> String {
        owql_obs::prometheus::to_text(&store.metrics_hub().families(store.cache_stats().hits))
    }

    /// Every served query lands in the hub: the latency histogram,
    /// whose count is the served-query total, and — when the evaluator
    /// actually ran — the run count (served minus cache hits).
    #[test]
    fn metrics_hub_counts_queries_and_columnar_runs() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b"), ("b", "p", "c")]));
        let hub = store.metrics_hub();
        let p = Pattern::t("?x", "p", "?y");
        store.query(&p); // miss → evaluated
        store.query(&p); // cache hit → still counted, no engine ran
        assert!(hub_text(&store).contains("\nowql_queries_total 2\n"));
        assert_eq!(hub.query_latency.snapshot().count, 2);
        // One engine run, one cache hit.
        assert!(hub_text(&store).contains("\nowql_columnar_runs_total 1\n"));

        // An uncached request — here a fully ground one — runs the
        // evaluator again.
        let req = QueryRequest::with_opts(Pattern::t("a", "p", "b"), ExecOpts::seq().uncached());
        let out = store
            .query_request(&req, &Pool::sequential())
            .expect(NO_BUDGET);
        assert_eq!(out.mappings, MappingSet::unit());
        assert!(hub_text(&store).contains("\nowql_columnar_runs_total 2\n"));
        assert!(hub_text(&store).contains("\nowql_queries_total 3\n"));
    }

    /// A traced query folds its spans into the per-operator histograms.
    #[test]
    fn traced_queries_feed_operator_histograms() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b"), ("b", "p", "c")]));
        let hub = store.metrics_hub();
        let p = Pattern::t("?x", "p", "?y").and(Pattern::t("?y", "p", "?z"));
        let req = QueryRequest::with_opts(p, ExecOpts::seq().uncached().traced());
        store
            .query_request(&req, &Pool::sequential())
            .expect(NO_BUDGET);
        let folded: u64 = (0..owql_obs::OpKind::ALL.len())
            .map(|i| hub.operator_latency[i].snapshot().count)
            .sum();
        assert!(folded > 0, "traced spans must reach the hub");
    }

    /// `ExecOpts::slow_query` below the observed latency captures the
    /// query — pattern text, epoch, plan snapshot, operator totals —
    /// into the ring buffer; a cache hit is captured as such.
    #[test]
    fn slow_query_threshold_captures_into_ring_buffer() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b"), ("b", "p", "c")]));
        let hub = store.metrics_hub();
        let p = Pattern::t("?x", "p", "?y");

        // Threshold zero: everything is "slow".
        let req = QueryRequest::with_opts(
            p.clone(),
            ExecOpts::seq()
                .traced()
                .with_slow_query(std::time::Duration::ZERO),
        );
        let pool = Pool::sequential();
        let miss = store.query_request(&req, &pool).expect(NO_BUDGET);
        assert!(!miss.cache_hit);
        let hit = store.query_request(&req, &pool).expect(NO_BUDGET);
        assert!(hit.cache_hit);

        assert_eq!(hub.slow_queries_total.load(Ordering::Relaxed), 2);
        let slow = hub.slow_queries();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].query, p.to_string());
        assert!(!slow[0].cache_hit);
        assert!(slow[1].cache_hit);
        assert_eq!(slow[0].answers, 2);
        assert_eq!(slow[0].epoch, store.epoch());
        assert!(slow[0].plan.contains("scan"), "plan: {}", slow[0].plan);
        assert!(
            !slow[0].operators.is_empty(),
            "traced capture carries operator totals"
        );

        // A generous threshold captures nothing further.
        let fast = QueryRequest::with_opts(
            p.clone(),
            ExecOpts::seq().with_slow_query(std::time::Duration::from_secs(3600)),
        );
        store.query_request(&fast, &pool).expect(NO_BUDGET);
        assert_eq!(hub.slow_queries_total.load(Ordering::Relaxed), 2);
    }

    /// An optimized request's slow-query capture shows the plan that
    /// ran: the duplicate UNION branch the optimizer pruned is absent.
    #[test]
    fn slow_query_plan_is_the_optimized_plan() {
        let store = Store::from_graph(&graph_from(&[("a", "p", "b"), ("b", "p", "c")]));
        let hub = store.metrics_hub();
        let branch = Pattern::t("?x", "p", "?y");
        let p = branch.clone().union(branch);
        for optimize in [false, true] {
            let opts = ExecOpts::builder()
                .cache(false)
                .optimize(optimize)
                .slow_query(Some(std::time::Duration::ZERO))
                .build();
            let req = QueryRequest::with_opts(p.clone(), opts);
            let out = store
                .query_request(&req, &Pool::sequential())
                .expect(NO_BUDGET);
            assert_eq!(out.prunes.subsumed_branches, u64::from(optimize));
        }
        let slow = hub.slow_queries();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].plan.matches("scan").count(), 2, "{}", slow[0].plan);
        assert!(!slow[1].plan.contains("union"), "plan: {}", slow[1].plan);
        assert_eq!(slow[1].plan.matches("scan").count(), 1, "{}", slow[1].plan);
    }

    /// The slow-query log shows the plan that ran, not a re-planned
    /// one: on a store with deletes over its base, the entry's scan lines
    /// are the traced run's SCAN spans — label and estimate, in order —
    /// and a cache hit, which runs nothing, logs `cache hit`.
    #[test]
    fn slow_query_plan_is_the_plan_that_ran() {
        let store = Store::from_graph(&graph_from(&[
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "p", "d"),
            ("d", "p", "e"),
            ("a", "q", "c"),
        ]));
        store.delete(&triple("b", "p", "c"));
        store.delete(&triple("c", "p", "d"));
        store.insert(triple("e", "p", "f"));
        assert!(store.snapshot().index().delta_len() > 0);
        let hub = store.metrics_hub();
        let p = Pattern::t("?x", "p", "?y")
            .and(Pattern::t("?y", "p", "?z"))
            .and(Pattern::t("?x", "q", "?w"));
        let req = QueryRequest::with_opts(
            p,
            ExecOpts::seq()
                .traced()
                .with_slow_query(std::time::Duration::ZERO),
        );
        let out = store
            .query_request(&req, &Pool::sequential())
            .expect(NO_BUDGET);
        let mut spans = out.profile.expect("traced").spans;
        spans.sort_by_key(|s| s.id);
        let ran: Vec<String> = spans
            .iter()
            .filter(|s| s.kind == owql_obs::OpKind::Scan)
            .map(|s| {
                let est = s.estimated_rows.expect("scan estimate");
                format!("scan {} (~{est} rows)", s.label)
            })
            .collect();
        assert_eq!(ran.len(), 3, "{ran:?}");
        let logged = &hub.slow_queries()[0].plan;
        let scans: Vec<&str> = logged
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("scan "))
            .collect();
        assert_eq!(scans, ran, "logged plan:\n{logged}");

        let hit = store
            .query_request(&req, &Pool::sequential())
            .expect(NO_BUDGET);
        assert!(hit.cache_hit && hit.plan.is_none());
        assert_eq!(hub.slow_queries()[1].plan, "cache hit");
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owql-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deterministic persistence config for tests: inline indexer, no
    /// auto-checkpoint, no fsync (tmpfs friendliness).
    fn test_persist() -> PersistConfig {
        PersistConfig::default()
            .no_fsync()
            .checkpoint_every(0)
            .inline_indexer()
    }

    #[test]
    fn durable_store_reopens_from_wal_alone() {
        let dir = tmp_dir("wal-only");
        {
            let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("open");
            assert_eq!(store.data_dir(), Some(dir.as_path()));
            store.insert(triple("a", "p", "b"));
            store.insert(triple("b", "p", "c"));
            store.delete(&triple("a", "p", "b"));
        } // drop without checkpoint: state lives only in the WAL
        let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("reopen");
        assert_eq!(store.epoch(), 3);
        assert_eq!(store.len(), 1);
        assert!(store.to_graph().contains(&triple("b", "p", "c")));
        let report = store.recovery_report().expect("report");
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.segment_generation, 0);
        let m = store.persist_metrics().expect("persist metrics");
        assert_eq!(m.recovery_replayed_records, 3);
        assert_eq!(m.wal_records, 3);
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopen_uses_segment() {
        let dir = tmp_dir("checkpoint");
        {
            let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("open");
            for i in 0..10 {
                let s = format!("s{i}");
                store.insert(triple(s.as_str(), "p", "o"));
            }
            let summary = store
                .checkpoint()
                .expect("checkpoint io")
                .expect("checkpoint ran");
            assert_eq!(summary.epoch, 10);
            assert_eq!(summary.triples, 10);
            assert_eq!(summary.generation, 1);
            // keep_segments=2 but only one generation exists, so the
            // oldest retained epoch is 10: the whole WAL goes.
            assert_eq!(summary.wal_records_dropped, 10);
            let m = store.persist_metrics().expect("metrics");
            assert_eq!(m.wal_records, 0);
            assert_eq!(m.segment_generation, 1);
            assert_eq!(m.last_checkpoint_epoch, 10);
            assert_eq!(m.checkpoints, 1);
            // Unchanged epoch: second checkpoint is a no-op.
            assert!(store.checkpoint().expect("io").is_none());
            // A few post-checkpoint commits land in the WAL tail.
            store.insert(triple("tail", "p", "o"));
        }
        let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("reopen");
        assert_eq!(store.epoch(), 11);
        assert_eq!(store.len(), 11);
        let report = store.recovery_report().expect("report");
        assert_eq!(report.segment_generation, 1);
        assert_eq!(report.segment_epoch, 10);
        assert_eq!(report.segment_triples, 10);
        assert_eq!(report.replayed_records, 1);
    }

    /// Old WAL records that a retained segment already covers are kept
    /// until the *oldest* retained generation passes them — so a
    /// corrupt newest segment still recovers losslessly.
    #[test]
    fn corrupt_newest_segment_recovers_from_previous_generation() {
        use std::io::{Read as _, Seek, SeekFrom, Write as _};

        let dir = tmp_dir("gen-fallback");
        {
            let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("open");
            for i in 0..5 {
                let s = format!("a{i}");
                store.insert(triple(s.as_str(), "p", "o"));
            }
            store.checkpoint().expect("io").expect("gen 1");
            for i in 0..5 {
                let s = format!("b{i}");
                store.insert(triple(s.as_str(), "p", "o"));
            }
            store.checkpoint().expect("io").expect("gen 2");
        }
        // Flip a byte in the newest segment's body.
        let gen2 = owql_persist::segment_path(&dir, 2);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&gen2)
            .expect("open segment");
        file.seek(SeekFrom::Start(100)).expect("seek");
        let mut byte = [0u8; 1];
        file.read_exact(&mut byte).expect("read");
        byte[0] ^= 0xFF;
        file.seek(SeekFrom::Start(100)).expect("seek");
        file.write_all(&byte).expect("write");
        drop(file);

        let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("reopen");
        let report = store.recovery_report().expect("report");
        assert_eq!(report.segment_generation, 1, "fell back a generation");
        assert_eq!(report.rejected_segments.len(), 1);
        // Gen 1 (epoch 5) + WAL records 6..=10 rebuild everything.
        assert_eq!(store.epoch(), 10);
        assert_eq!(store.len(), 10);
        assert_eq!(report.replayed_records, 5);
    }

    #[test]
    fn auto_checkpoint_fires_at_wal_threshold_inline() {
        let dir = tmp_dir("auto-inline");
        let config = PersistConfig::default()
            .no_fsync()
            .checkpoint_every(5)
            .inline_indexer();
        let store = Store::open(&dir, StoreOptions::default(), config).expect("open");
        for i in 0..12 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        let m = store.persist_metrics().expect("metrics");
        assert!(m.checkpoints >= 2, "threshold 5 over 12 commits: {m:?}");
        // The default keeps 2 generations, so the WAL also keeps the
        // records between them: bounded by 2 × threshold.
        assert!(m.wal_records < 10, "WAL stays bounded: {m:?}");
        assert_eq!(store.len(), 12);
    }

    /// With 2 retained generations the WAL never drops below the
    /// threshold after a checkpoint, so a WAL-length trigger fired
    /// checkpoints in back-to-back pairs; counting records since the
    /// newest checkpoint fires exactly once per threshold.
    #[test]
    fn auto_checkpoint_fires_once_per_threshold_with_two_generations() {
        const N: u64 = 4;
        let dir = tmp_dir("auto-pairs");
        let config = PersistConfig {
            keep_segments: 2,
            ..PersistConfig::default()
                .no_fsync()
                .checkpoint_every(N)
                .inline_indexer()
        };
        {
            let store = Store::open(&dir, StoreOptions::default(), config.clone()).expect("open");
            for i in 0..3 * N {
                let s = format!("s{i}");
                store.insert(triple(s.as_str(), "p", "o"));
            }
            let m = store.persist_metrics().expect("metrics");
            assert_eq!(m.checkpoints, 3, "{m:?}");
            assert_eq!(m.last_checkpoint_epoch, 3 * N);
        }
        let store = Store::open(&dir, StoreOptions::default(), config).expect("reopen");
        assert_eq!(store.epoch(), 3 * N);
        assert_eq!(store.len(), 3 * N as usize);
    }

    /// The background indexer re-checks the threshold when it wakes: a
    /// wake left by a commit that landed during the previous checkpoint
    /// does not write a second segment right behind it.
    #[test]
    fn background_indexer_ignores_a_stale_wake() {
        const N: u64 = 4;
        let dir = tmp_dir("auto-stale-wake");
        let config = PersistConfig::default().no_fsync().checkpoint_every(N);
        {
            let store = Store::open(&dir, StoreOptions::default(), config).expect("open");
            for i in 0..=N {
                let s = format!("s{i}");
                store.insert(triple(s.as_str(), "p", "o"));
                if i + 1 == N {
                    wait_for(|| store.persist_metrics().expect("metrics").checkpoints == 1);
                }
            }
            // Commit N + 1 is below the threshold again; wake the
            // indexer as such a commit does while a checkpoint runs.
            let p = store.persist.as_deref().expect("durable");
            p.wake_indexer();
            wait_for(|| !p.signal.lock().expect("indexer signal poisoned").wake);
        } // drop joins the indexer after the iteration it started
        let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("reopen");
        let report = store.recovery_report().expect("report");
        assert_eq!(report.segment_generation, 1, "{report:?}");
        assert_eq!(report.replayed_records, 1);
        assert_eq!(store.len(), N as usize + 1);
    }

    /// Polls `done` for up to 5 s (the background indexer runs on its
    /// own thread).
    fn wait_for(done: impl Fn() -> bool) {
        for _ in 0..1000 {
            if done() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("timed out waiting for the background indexer");
    }

    /// Durable stores time every WAL append and checkpoint into the
    /// hub's histograms.
    #[test]
    fn durable_store_times_wal_fsync_and_checkpoints() {
        let dir = tmp_dir("hub-timing");
        let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("open");
        let hub = store.metrics_hub();
        for i in 0..5 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        assert_eq!(hub.wal_fsync.snapshot().count, 5);
        store.checkpoint().expect("io").expect("checkpoint ran");
        assert_eq!(hub.checkpoint.snapshot().count, 1);
        // A no-op checkpoint (nothing committed since) records nothing.
        assert!(store.checkpoint().expect("io").is_none());
        assert_eq!(hub.checkpoint.snapshot().count, 1);
    }

    #[test]
    fn background_indexer_checkpoints_and_joins_on_drop() {
        let dir = tmp_dir("auto-bg");
        let config = PersistConfig::default().no_fsync().checkpoint_every(4);
        {
            let store = Store::open(&dir, StoreOptions::default(), config).expect("open");
            for i in 0..40 {
                let s = format!("s{i}");
                store.insert(triple(s.as_str(), "p", "o"));
            }
            // The indexer runs asynchronously; wait (bounded) for at
            // least one checkpoint to land.
            for _ in 0..200 {
                if store.persist_metrics().expect("metrics").checkpoints > 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            assert!(
                store.persist_metrics().expect("metrics").checkpoints > 0,
                "background indexer never checkpointed"
            );
        } // drop joins the indexer thread
        let store = Store::open(&dir, StoreOptions::default(), test_persist()).expect("reopen");
        assert_eq!(store.len(), 40);
        assert_eq!(store.epoch(), 40);
    }

    /// The full differential check: a durable store, closed and
    /// reopened, answers every probe pattern identically to an
    /// in-memory reference that saw the same mutation stream.
    #[test]
    fn reopened_store_is_differentially_identical_to_reference() {
        let dir = tmp_dir("differential");
        let reference = Store::new();
        {
            let durable = Store::open(&dir, StoreOptions::default(), test_persist()).expect("open");
            for i in 0..30 {
                let s = format!("s{}", i % 10);
                let o = format!("o{}", i % 7);
                let t = triple(s.as_str(), "p", o.as_str());
                if i % 5 == 4 {
                    durable.delete(&t);
                    reference.delete(&t);
                } else {
                    durable.insert(t);
                    reference.insert(t);
                }
                if i == 15 {
                    durable.checkpoint().expect("io");
                }
            }
        }
        let reopened = Store::open(&dir, StoreOptions::default(), test_persist()).expect("reopen");
        assert_eq!(reopened.to_graph(), reference.to_graph());
        for p in [
            Pattern::t("?x", "p", "?y"),
            Pattern::t("s1", "p", "?y"),
            Pattern::t("?x", "p", "o3").and(Pattern::t("?x", "p", "?z")),
            Pattern::t("?x", "p", "?y")
                .opt(Pattern::t("?y", "p", "?z"))
                .ns(),
        ] {
            assert_eq!(reopened.query(&p), reference.query(&p), "pattern {p}");
        }
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::thread;

        let store = Arc::new(Store::with_options(StoreOptions {
            min_compact: 8,
            compact_fraction: 0.25,
            cache_capacity: 32,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let p = Pattern::t("?x", "p", "?y");

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                let stop = stop.clone();
                let p = p.clone();
                thread::spawn(move || {
                    let mut observed = 0usize;
                    let req = QueryRequest::new(p.clone());
                    let pool = Pool::sequential();
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = store.snapshot();
                        let direct = snapshot
                            .query_request(&req, &pool)
                            .expect(NO_BUDGET)
                            .mappings
                            .len();
                        // The snapshot is frozen: re-evaluating gives the
                        // same answer regardless of concurrent writes.
                        assert_eq!(
                            snapshot
                                .query_request(&req, &pool)
                                .expect(NO_BUDGET)
                                .mappings
                                .len(),
                            direct
                        );
                        observed = observed.max(direct);
                    }
                    observed
                })
            })
            .collect();

        for i in 0..200 {
            let s = format!("s{i}");
            store.insert(triple(s.as_str(), "p", "o"));
        }
        stop.store(true, Ordering::Relaxed);
        let max_seen = readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .max()
            .unwrap();
        assert!(max_seen <= 200);
        assert_eq!(store.len(), 200);
        assert!(store.metrics().compactions > 0);
    }
}
