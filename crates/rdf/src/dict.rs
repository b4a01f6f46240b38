//! Term dictionary and id-encoded sorted-run indexes.
//!
//! The evaluation hot path — scans, AND-spine joins, mapping
//! compatibility, NS subsumption — historically compared [`Iri`] terms
//! per mapping. This module interns every term into a dense `u32`
//! [`TermId`] once, at load/commit time, so the hot path becomes word
//! compares over columnar batches, and an id row `[s, p, o]` is 12
//! bytes in memory as it is in a persisted segment:
//!
//! * [`TermDict`] — an append-only, thread-safe `Iri ↔ TermId` map.
//!   Ids are *rank-preserving at seed time*: [`TermDict::from_sorted_terms`]
//!   assigns `id = rank + 1` over a lexicographically sorted term table,
//!   which is exactly the layout of a persisted segment's term
//!   dictionary — so a store recovered from disk serves id scans with
//!   zero re-interning. Ids are never renumbered afterwards (terms
//!   interned later get the next id), so an id is stable for the
//!   lifetime of the dictionary across epochs.
//! * [`IdRuns`] — the id-encoded SPO/POS/OSP sorted runs. Every one of
//!   the eight triple-pattern shapes maps to one contiguous,
//!   binary-searchable range of exactly one run (the same layout the
//!   persist segments use on disk).
//! * [`IdView`] — the borrowed id-scan surface an evaluation engine
//!   consumes: a dictionary plus base runs, optionally overlaid with
//!   delta runs and a deletion set (the `owql-store` snapshot shape).
//!
//! Id `0` is reserved as the "unbound" sentinel so a columnar mapping
//! row can use a plain `0` for an absent binding. Real ids are
//! `1..=TermId::MAX`, so a dictionary holds at most `u32::MAX` terms
//! (the segment format's limit too). The id space is checked, never
//! wrapped: a wrapped id would be `0` and silently turn a term into
//! "unbound", so [`TermDict::check_capacity`] refuses a batch that would
//! outgrow it before any of its terms is interned.

use crate::fx::{FxHashMap, FxHashSet};
use crate::term::{Iri, Triple};
use std::collections::HashSet;
use std::fmt;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// A dictionary-assigned term identifier. `0` is reserved for "unbound";
/// real ids are `1..=TermId::MAX`.
pub type TermId = u32;

const _: () = assert!(size_of::<[TermId; 3]>() == 12);

/// The most terms one dictionary can hold: one per non-zero id.
const MAX_TERMS: usize = TermId::MAX as usize;

/// A batch of terms refused because its new terms would push the
/// dictionary past [`TermId::MAX`] terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdSpaceFull {
    /// Terms the dictionary already holds.
    pub existing: usize,
    /// Terms the batch would add.
    pub new: usize,
}

impl fmt::Display for IdSpaceFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} new terms do not fit beside {} existing ones: a term dictionary holds at most {} terms",
            self.new, self.existing, MAX_TERMS
        )
    }
}

impl std::error::Error for IdSpaceFull {}

/// The reserved "no binding" sentinel.
pub const NO_TERM: TermId = 0;

#[derive(Debug, Default)]
struct DictInner {
    ids: FxHashMap<Iri, TermId>,
    /// `terms[id - 1]` is the term with id `id`.
    terms: Vec<Iri>,
}

impl DictInner {
    /// Allocated bytes of the two tables: their capacity, not just the
    /// live entries, with one control byte per hash slot.
    fn heap_bytes(&self) -> usize {
        self.terms.capacity() * size_of::<Iri>()
            + self.ids.capacity() * (size_of::<(Iri, TermId)>() + 1)
    }

    fn encode(&self, t: &Triple) -> Option<[TermId; 3]> {
        Some([
            *self.ids.get(&t.s)?,
            *self.ids.get(&t.p)?,
            *self.ids.get(&t.o)?,
        ])
    }
}

/// Append-only, thread-safe term dictionary.
///
/// Interning is a read-locked hash probe on the hit path and a
/// write-locked append on the miss path; ids are assigned in intern
/// order and never renumbered, so every id handed out stays valid (and
/// keeps meaning the same term) for the lifetime of the dictionary.
#[derive(Debug, Default)]
pub struct TermDict {
    inner: RwLock<DictInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TermDict {
    /// An empty dictionary.
    pub fn new() -> TermDict {
        TermDict::default()
    }

    /// `Ok` iff `new` more terms fit beside `existing` ones, i.e.
    /// `existing + new <= TermId::MAX`. The one capacity check every
    /// path that assigns ids in bulk goes through.
    pub fn check_capacity(existing: usize, new: usize) -> Result<(), IdSpaceFull> {
        match existing.checked_add(new) {
            Some(total) if total <= MAX_TERMS => Ok(()),
            _ => Err(IdSpaceFull { existing, new }),
        }
    }

    /// Seeds a dictionary from a lexicographically sorted, distinct term
    /// table, assigning `id = rank + 1` — the persisted-segment layout,
    /// so a recovered store reuses segment ids verbatim. Takes an owned
    /// table without copying it.
    ///
    /// # Panics
    ///
    /// If the table holds more than `TermId::MAX` terms (a segment
    /// with that many is rejected as corrupt when it loads).
    pub fn from_sorted_terms(terms: impl Into<Vec<Iri>>) -> TermDict {
        let terms = terms.into();
        debug_assert!(
            terms.windows(2).all(|w| w[0] < w[1]),
            "seed terms must be sorted and distinct"
        );
        if let Err(full) = TermDict::check_capacity(0, terms.len()) {
            panic!("{full}");
        }
        let mut ids = FxHashMap::with_capacity_and_hasher(terms.len(), Default::default());
        // The capacity check makes the zip exact: every rank gets an id.
        ids.extend(terms.iter().copied().zip(1..=TermId::MAX));
        let inner = DictInner { ids, terms };
        TermDict {
            inner: RwLock::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Interns a term, returning its id (existing id on a hit, a fresh
    /// one on a miss).
    ///
    /// # Panics
    ///
    /// On a miss when the dictionary already holds `TermId::MAX` terms.
    /// Bulk callers rule this out up front with
    /// [`TermDict::check_capacity`].
    pub fn intern(&self, term: Iri) -> TermId {
        if let Some(&id) = self.inner.read().unwrap().ids.get(&term) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let mut inner = self.inner.write().unwrap();
        // Double-check: another writer may have interned it between locks.
        if let Some(&id) = inner.ids.get(&term) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let id = TermId::try_from(inner.terms.len() + 1)
            .expect("the term dictionary is full: it holds at most u32::MAX terms");
        inner.terms.push(term);
        inner.ids.insert(term, id);
        self.misses.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// The id of an already-interned term, if any. Does not intern and
    /// does not touch the hit/miss counters (this is the query-time
    /// probe: a constant absent from the dictionary matches nothing).
    pub fn lookup(&self, term: Iri) -> Option<TermId> {
        self.inner.read().unwrap().ids.get(&term).copied()
    }

    /// The term behind an id, if the id was ever assigned.
    pub fn resolve(&self, id: TermId) -> Option<Iri> {
        if id == NO_TERM {
            return None;
        }
        self.inner
            .read()
            .unwrap()
            .terms
            .get(id as usize - 1)
            .copied()
    }

    /// Runs `f` over the full id→term table under one read lock —
    /// the batch-decode path (avoids a lock round-trip per id).
    /// `terms[id - 1]` is the term with id `id`.
    pub fn with_terms<R>(&self, f: impl FnOnce(&[Iri]) -> R) -> R {
        f(&self.inner.read().unwrap().terms)
    }

    /// Runs `f` over the term → id table under one read lock — the
    /// lookup-only batch probe of a plan or a build. The table's length
    /// is the number of interned terms.
    pub(crate) fn with_ids<R>(&self, f: impl FnOnce(&FxHashMap<Iri, TermId>) -> R) -> R {
        f(&self.inner.read().unwrap().ids)
    }

    /// The `[s, p, o]` id row of `t` under one read lock, or `None` if
    /// any of its terms was never interned. Does not intern (the probe
    /// of a membership test or a delete: a triple over a never-seen
    /// term is in no index).
    pub fn encode(&self, t: &Triple) -> Option<[TermId; 3]> {
        self.inner.read().unwrap().encode(t)
    }

    /// Encodes each triple of `triples` as an `[s, p, o]` id row under
    /// one read lock. Returns `None` if any term is not interned.
    pub fn encode_all(&self, triples: &[Triple]) -> Option<Vec<[TermId; 3]>> {
        let inner = self.inner.read().unwrap();
        triples.iter().map(|t| inner.encode(t)).collect()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().terms.len()
    }

    /// `true` iff no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated bytes of the id → term and term → id tables (the
    /// terms' text lives in the process-wide [`Iri`] interner and is
    /// not counted).
    pub fn heap_bytes(&self) -> usize {
        self.inner.read().unwrap().heap_bytes()
    }

    /// Interns that found an existing id.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Interns that assigned a fresh id.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Which permutation a sorted run stores its rows in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOrder {
    /// Rows are `[s, p, o]`.
    Spo,
    /// Rows are `[p, o, s]`.
    Pos,
    /// Rows are `[o, s, p]`.
    Osp,
}

impl RunOrder {
    /// Restores a permuted row to `[s, p, o]` order.
    #[inline]
    pub fn to_spo(self, row: [TermId; 3]) -> [TermId; 3] {
        match self {
            RunOrder::Spo => row,
            RunOrder::Pos => [row[2], row[0], row[1]],
            RunOrder::Osp => [row[1], row[2], row[0]],
        }
    }

    /// Permutes an `[s, p, o]` row into this run's component order.
    #[inline]
    pub fn from_spo(self, [s, p, o]: [TermId; 3]) -> [TermId; 3] {
        match self {
            RunOrder::Spo => [s, p, o],
            RunOrder::Pos => [p, o, s],
            RunOrder::Osp => [o, s, p],
        }
    }
}

/// Id-encoded SPO/POS/OSP sorted runs over one triple set.
///
/// The three permutations make every triple-pattern shape a contiguous
/// range found by two `partition_point` binary searches — the in-memory
/// twin of the persisted segment layout.
#[derive(Clone, Debug, Default)]
pub struct IdRuns {
    spo: Vec<[TermId; 3]>,
    pos: Vec<[TermId; 3]>,
    osp: Vec<[TermId; 3]>,
}

impl IdRuns {
    /// Builds the three runs for `triples`, interning any new terms into
    /// `dict`.
    ///
    /// Terms are interned in lexicographic order, so on a fresh
    /// dictionary the assigned ids are exactly the sorted ranks (the
    /// segment-compatible layout); on a pre-seeded dictionary existing
    /// ids are reused untouched and only genuinely new terms extend it.
    ///
    /// # Panics
    ///
    /// If the new terms would not fit in the id space (checked before
    /// any of them is interned, so `dict` is left unchanged).
    pub fn build(triples: &[Triple], dict: &TermDict) -> IdRuns {
        let mut terms: Vec<Iri> = triples
            .iter()
            .flat_map(|t| [t.s, t.p, t.o])
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        terms.sort_unstable();
        // Count the genuinely new terms only when the batch's size alone
        // does not prove it fits.
        let fits = |new| TermDict::check_capacity(dict.len(), new);
        let new = || dict.with_ids(|ids| terms.iter().filter(|t| !ids.contains_key(t)).count());
        if let Err(full) = fits(terms.len()).or_else(|_| fits(new())) {
            panic!("{full}");
        }
        for t in terms {
            dict.intern(t);
        }
        IdRuns::from_spo_rows(
            dict.encode_all(triples)
                .expect("all terms were just interned"),
        )
    }

    /// Builds the three runs from already-encoded `[s, p, o]` id rows
    /// (sorted or not, duplicates tolerated). The rows were id-encoded
    /// by an existing dictionary, so no interning happens here and the
    /// ids stay comparable across every run set built from the same
    /// dict — the constructor of the store's compaction fold and a
    /// reopened segment's base.
    pub fn from_spo_rows(rows: Vec<[TermId; 3]>) -> IdRuns {
        let mut runs = IdRuns {
            spo: rows,
            pos: Vec::new(),
            osp: Vec::new(),
        };
        runs.spo.sort_unstable();
        runs.spo.dedup();
        runs.spo.shrink_to_fit();
        runs.pos = runs
            .spo
            .iter()
            .map(|&r| RunOrder::Pos.from_spo(r))
            .collect();
        runs.pos.sort_unstable();
        runs.osp = runs
            .spo
            .iter()
            .map(|&r| RunOrder::Osp.from_spo(r))
            .collect();
        runs.osp.sort_unstable();
        runs
    }

    /// Fresh runs of `(self \ remove) ∪ add`, for `[s, p, o]` rows in
    /// any order with `add` disjoint from `self` and `remove` a subset
    /// of it: one `merge_run` per run, SPO, then POS, then OSP.
    pub fn merged(&self, add: &[[TermId; 3]], remove: &[[TermId; 3]]) -> IdRuns {
        let len = self.len() + add.len() - remove.len();
        let run = |old: &[[TermId; 3]], order: RunOrder| {
            let edit = |adding| move |&row| (order.from_spo(row), adding);
            let mut edits: Vec<_> = add
                .iter()
                .map(edit(true))
                .chain(remove.iter().map(edit(false)))
                .collect();
            edits.sort_unstable();
            merge_run(old, &edits, len)
        };
        IdRuns {
            spo: run(&self.spo, RunOrder::Spo),
            pos: run(&self.pos, RunOrder::Pos),
            osp: run(&self.osp, RunOrder::Osp),
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Allocated bytes of the three runs (12 per row slot).
    pub fn heap_bytes(&self) -> usize {
        (self.spo.capacity() + self.pos.capacity() + self.osp.capacity()) * size_of::<[TermId; 3]>()
    }

    /// `true` iff no row is indexed.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// The full SPO run, sorted.
    pub fn spo(&self) -> &[[TermId; 3]] {
        &self.spo
    }

    /// The contiguous rows matching a pattern with optionally bound
    /// positions, plus the component order the rows are stored in.
    ///
    /// Shape → run: `S*`, `SP*`, `SPO`, and the full scan use SPO;
    /// `P*` and `PO` use POS; `O*` and `SO` use OSP (key `[o, s]`).
    pub fn scan(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> (&[[TermId; 3]], RunOrder) {
        self.scan_from(s, p, o, &mut 0)
    }

    /// [`IdRuns::scan`] with a positional hint: `hint` is a guess at the
    /// matching range's start in the chosen run (updated to the actual
    /// start on return). The search gallops outward from the hint, so a
    /// caller scanning a sequence of *near-sorted* keys — an AND-spine
    /// extending rows that themselves came out of a sorted run — pays
    /// `O(log distance)` per scan instead of a full binary search.
    ///
    /// The hint only stays meaningful while the pattern *shape* (which
    /// positions are bound) is fixed, since the shape picks the run.
    pub fn scan_from(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        hint: &mut usize,
    ) -> (&[[TermId; 3]], RunOrder) {
        let (run, order, key, k): (&[[TermId; 3]], RunOrder, [TermId; 3], usize) = match (s, p, o) {
            (None, None, None) => return (&self.spo, RunOrder::Spo),
            (Some(s), None, None) => (&self.spo, RunOrder::Spo, [s, 0, 0], 1),
            (Some(s), Some(p), None) => (&self.spo, RunOrder::Spo, [s, p, 0], 2),
            (Some(s), Some(p), Some(o)) => (&self.spo, RunOrder::Spo, [s, p, o], 3),
            (None, Some(p), None) => (&self.pos, RunOrder::Pos, [p, 0, 0], 1),
            (None, Some(p), Some(o)) => (&self.pos, RunOrder::Pos, [p, o, 0], 2),
            (None, None, Some(o)) => (&self.osp, RunOrder::Osp, [o, 0, 0], 1),
            (Some(s), None, Some(o)) => (&self.osp, RunOrder::Osp, [o, s, 0], 2),
        };
        let key = &key[..k];
        let lo = partition_from(run, *hint, |r| r[..k] < *key);
        let hi = partition_from(run, lo, |r| r[..k] <= *key);
        *hint = lo;
        (&run[lo..hi], order)
    }

    /// Membership test for a fully ground id row.
    pub fn contains(&self, row: [TermId; 3]) -> bool {
        self.spo.binary_search(&row).is_ok()
    }
}

/// `old` with sorted `edits` applied — `(row, true)` adds a row absent
/// from `old`, `(row, false)` removes a present one — copying the rows
/// between edits as whole slices.
fn merge_run(old: &[[TermId; 3]], edits: &[([TermId; 3], bool)], len: usize) -> Vec<[TermId; 3]> {
    let mut out = Vec::with_capacity(len);
    let mut from = 0;
    for &(edit, adding) in edits {
        let at = from + old[from..].partition_point(|row| *row < edit);
        assert_eq!(old.get(at) == Some(&edit), !adding, "stale edit {edit:?}");
        out.extend_from_slice(&old[from..at]);
        if adding {
            out.push(edit);
            from = at;
        } else {
            from = at + 1;
        }
    }
    out.extend_from_slice(&old[from..]);
    out
}

/// The partition point of monotone `pred` (`true*false*`) found by
/// galloping outward from `from` — `O(log distance)` instead of
/// `O(log n)` when the caller's guess is close.
fn partition_from(run: &[[TermId; 3]], from: usize, pred: impl Fn(&[TermId; 3]) -> bool) -> usize {
    let n = run.len();
    let start = from.min(n);
    if start < n && pred(&run[start]) {
        // The point is above `start`: bracket it going forward.
        let mut prev = start;
        let mut step = 1usize;
        loop {
            let next = start.saturating_add(step).min(n);
            if next == n || !pred(&run[next]) {
                return prev + 1 + run[prev + 1..next].partition_point(&pred);
            }
            prev = next;
            step *= 2;
        }
    } else {
        // The point is at or below `start`: bracket it going backward.
        let mut upper = start;
        let mut step = 1usize;
        loop {
            let next = start.saturating_sub(step);
            if next == 0 || pred(&run[next - 1]) {
                return next + run[next..upper].partition_point(&pred);
            }
            upper = next;
            step *= 2;
        }
    }
}

/// The borrowed id-scan surface an evaluation engine consumes: a
/// dictionary plus base runs, optionally overlaid with delta runs
/// (sharing the *same* dictionary) and a set of deleted base rows.
///
/// Exposed through `SnapshotIndex::id_view`.
#[derive(Clone, Copy, Debug)]
pub struct IdView<'a> {
    /// The shared dictionary every id in `base`/`adds` was assigned by.
    pub dict: &'a TermDict,
    /// Sorted runs over the base triple set.
    pub base: &'a IdRuns,
    /// Sorted runs over added triples (disjoint from the base), if any.
    pub adds: Option<&'a IdRuns>,
    /// `[s, p, o]` rows of base triples deleted since the base was
    /// built, if any.
    pub dels: Option<&'a FxHashSet<[TermId; 3]>>,
}

impl<'a> IdView<'a> {
    /// The live `[s, p, o]` rows matching a pattern with optionally
    /// bound positions: base matches minus deletions, then add-tier
    /// matches. Each tier yields its rows in its run's sorted order.
    pub fn rows(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = [TermId; 3]> + 'a {
        let dels = self.dels;
        let (base, base_order) = self.base.scan(s, p, o);
        let adds = self.adds.map(|adds| adds.scan(s, p, o));
        base.iter()
            .map(move |&row| base_order.to_spo(row))
            .filter(move |row| dels.is_none_or(|dels| !dels.contains(row)))
            .chain(
                adds.into_iter()
                    .flat_map(|(rows, order)| rows.iter().map(move |&row| order.to_spo(row))),
            )
    }

    /// Upper bound on the rows matching a pattern (ignores deletions —
    /// good enough for join ordering).
    pub fn cardinality_upper(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> usize {
        let rows = |runs: &IdRuns| runs.scan(s, p, o).0.len();
        rows(self.base) + self.adds.map_or(0, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::triple;

    #[test]
    fn intern_is_stable_and_counted() {
        let d = TermDict::new();
        let a = d.intern(Iri::new("a"));
        let b = d.intern(Iri::new("b"));
        assert_ne!(a, b);
        assert_ne!(a, NO_TERM);
        assert_eq!(d.intern(Iri::new("a")), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.misses(), 2);
        assert_eq!(d.hits(), 1);
        assert_eq!(d.resolve(a), Some(Iri::new("a")));
        assert_eq!(d.resolve(NO_TERM), None);
        assert_eq!(d.resolve(99), None);
        assert_eq!(d.lookup(Iri::new("b")), Some(b));
        assert_eq!(d.lookup(Iri::new("zz")), None);
    }

    #[test]
    fn seeded_ids_are_ranks() {
        let terms: Vec<Iri> = ["a", "b", "m", "z"].iter().map(|s| Iri::new(s)).collect();
        let d = TermDict::from_sorted_terms(terms.clone());
        for (rank, &t) in terms.iter().enumerate() {
            assert_eq!(d.lookup(t), TermId::try_from(rank + 1).ok());
        }
        // Interning a seeded term is a pure hit; a new term appends.
        assert_eq!(d.intern(Iri::new("m")), 3);
        assert_eq!(d.misses(), 0);
        let fresh = d.intern(Iri::new("q"));
        assert_eq!(fresh, 5);
        assert_eq!(d.lookup(Iri::new("z")), Some(4), "existing ids unchanged");
    }

    /// The id space ends at `TermId::MAX` terms: filling it exactly
    /// fits, one term more is refused (checked on the counts alone, so
    /// no 2^32-term table is built).
    #[test]
    fn capacity_check_is_exact_at_the_boundary() {
        let existing = TermId::MAX as usize - 1;
        assert_eq!(TermDict::check_capacity(existing, 1), Ok(()));
        let refused = TermDict::check_capacity(existing, 2);
        assert_eq!(refused, Err(IdSpaceFull { existing, new: 2 }));
        assert!(refused
            .unwrap_err()
            .to_string()
            .contains("at most 4294967295 terms"));
        assert!(TermDict::check_capacity(usize::MAX, 1).is_err(), "no wrap");
        assert_eq!(TermDict::check_capacity(0, TermId::MAX as usize), Ok(()));
    }

    /// A fresh index's runs cost 36 bytes per row: three permutations
    /// of a 12-byte id row, with no slack capacity.
    #[test]
    fn built_runs_cost_36_bytes_per_row() {
        let triples: Vec<Triple> = (0..100)
            .map(|i| {
                Triple::new(
                    &format!("s{}", i % 7),
                    &format!("p{}", i % 3),
                    &format!("o{i}"),
                )
            })
            .chain((0..10).map(|i| Triple::new(&format!("s{i}"), "p0", "o0")))
            .collect();
        let dict = TermDict::new();
        let runs = IdRuns::build(&triples, &dict);
        assert_eq!(runs.heap_bytes(), 36 * runs.len());
        let mut duplicated = runs.spo().to_vec();
        duplicated.extend_from_slice(runs.spo());
        let folded = IdRuns::from_spo_rows(duplicated);
        assert_eq!(
            folded.heap_bytes(),
            36 * runs.len(),
            "dedup leaves no slack"
        );
    }

    #[test]
    fn runs_serve_all_eight_shapes() {
        let triples = vec![
            triple("a", "p", "b"),
            triple("a", "p", "c"),
            triple("a", "q", "b"),
            triple("d", "p", "b"),
        ];
        let dict = TermDict::new();
        let runs = IdRuns::build(&triples, &dict);
        assert_eq!(runs.len(), 4);
        let id = |s: &str| dict.lookup(Iri::new(s)).unwrap();
        let count = |s: Option<&str>, p: Option<&str>, o: Option<&str>| {
            let (rows, order) = runs.scan(s.map(id), p.map(id), o.map(id));
            // Every returned row actually matches after un-permuting.
            for &row in rows {
                let [rs, rp, ro] = order.to_spo(row);
                assert!(s.is_none_or(|s| id(s) == rs));
                assert!(p.is_none_or(|p| id(p) == rp));
                assert!(o.is_none_or(|o| id(o) == ro));
            }
            rows.len()
        };
        assert_eq!(count(None, None, None), 4);
        assert_eq!(count(Some("a"), None, None), 3);
        assert_eq!(count(None, Some("p"), None), 3);
        assert_eq!(count(None, None, Some("b")), 3);
        assert_eq!(count(Some("a"), Some("p"), None), 2);
        assert_eq!(count(None, Some("p"), Some("b")), 2);
        assert_eq!(count(Some("a"), None, Some("b")), 2);
        assert_eq!(count(Some("a"), Some("p"), Some("b")), 1);
        // A constant that was never interned has no id, hence no match.
        assert_eq!(dict.lookup(Iri::new("zz")), None);
        assert_eq!(runs.scan(Some(999), None, None).0.len(), 0);
    }

    /// Merging a batch in and a batch out reaches exactly the runs a
    /// fresh build over the net rows has, in all three orders — and
    /// leaves the runs it started from as they were.
    #[test]
    fn merged_runs_match_rebuild() {
        let dict = TermDict::new();
        let start = vec![
            triple("a", "p", "b"),
            triple("c", "q", "d"),
            triple("a", "r", "d"),
            triple("e", "p", "a"),
        ];
        let runs = IdRuns::build(&start, &dict);
        let before = runs.clone();
        let added = [
            triple("b", "q", "a"),
            triple("a", "p", "a"),
            triple("z", "z", "z"),
        ];
        let rows = |ts: &[Triple]| -> Vec<[TermId; 3]> {
            ts.iter()
                .map(|t| [dict.intern(t.s), dict.intern(t.p), dict.intern(t.o)])
                .collect()
        };
        let merged = runs.merged(&rows(&added), &rows(&[start[1], start[3]]));

        let kept = [start[0], start[2], added[0], added[1], added[2]];
        let rebuilt = IdRuns::build(&kept, &dict);
        assert_eq!(merged.spo, rebuilt.spo);
        assert_eq!(merged.pos, rebuilt.pos);
        assert_eq!(merged.osp, rebuilt.osp);
        assert_eq!(merged.heap_bytes(), 36 * merged.len(), "no slack");
        assert_eq!(runs.spo, before.spo, "the source runs are untouched");

        // Removing every row, and merging into empty runs, also hold.
        let emptied = merged.merged(&[], &rows(&kept));
        assert!(emptied.is_empty() && emptied.pos.is_empty() && emptied.osp.is_empty());
        let refilled = IdRuns::default().merged(&rows(&kept), &[]);
        assert_eq!(refilled.osp, rebuilt.osp);
    }

    #[test]
    fn fresh_dict_build_assigns_rank_ids() {
        let triples = vec![triple("z", "p", "a"), triple("m", "p", "a")];
        let dict = TermDict::new();
        IdRuns::build(&triples, &dict);
        // Distinct sorted terms: a, m, p, z → ids 1..=4.
        assert_eq!(dict.lookup(Iri::new("a")), Some(1));
        assert_eq!(dict.lookup(Iri::new("m")), Some(2));
        assert_eq!(dict.lookup(Iri::new("p")), Some(3));
        assert_eq!(dict.lookup(Iri::new("z")), Some(4));
    }
}
