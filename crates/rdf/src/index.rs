//! The triple index: [`SnapshotIndex`], the one place every stored
//! triple is indexed, from a reopened segment to the evaluator's scans.
//!
//! The paper's semantics reads the graph in one place only — the
//! matches `⟦t⟧G` of a triple pattern — and the id-encoded
//! SPO/POS/OSP runs ([`IdRuns`]) answer all eight pattern shapes as one
//! contiguous range each. So an index is a term dictionary
//! ([`TermDict`]) plus a base run set, overlaid for the live store
//! (`owql-store`) with an add tier (runs of its own on the same
//! dictionary) and a set of deleted base rows. A batch of mutations is
//! netted on id rows ([`SnapshotIndex::plan`]) and applied as one merge
//! ([`SnapshotIndex::apply`]), not an `O(|G|)` rebuild; compaction folds
//! the overlay back into the base over id rows alone, and many reader
//! threads can hold snapshots while a writer proceeds.
//!
//! Nothing here is term-level beyond the dictionary: a membership test
//! is an id probe, and materializing the visible graph decodes the
//! live rows once.
//!
//! The reference evaluator deliberately does *not* use this module — it
//! scans the graph exactly as the paper's semantics is written — which is
//! what experiment E12's engine ablation measures.

use crate::dict::{IdRuns, IdSpaceFull, IdView, TermDict, TermId, NO_TERM};
use crate::fx::{FxHashMap, FxHashSet};
use crate::graph::Graph;
use crate::term::{Iri, Triple};
use std::mem::size_of;
use std::sync::Arc;

/// A delta-aware triple index: an `Arc`-shared base [`IdRuns`] plus a
/// small overlay of `adds` (rows not in the base) and `dels` (base rows
/// deleted since the base was built), all encoded by one [`TermDict`].
///
/// Cloning is four `Arc` clones, so a writer can keep changing its copy
/// through [`SnapshotIndex::apply`] while any number of reader threads
/// evaluate against earlier clones.
///
/// Invariants (kept by `apply`): `adds ∩ base = ∅`, `dels ⊆ base`, and
/// therefore `adds ∩ dels = ∅`.
///
/// ```
/// use owql_rdf::{Graph, SnapshotIndex, Triple};
/// let g: Graph = [Triple::new("a", "p", "b"), Triple::new("a", "q", "c")]
///     .into_iter().collect();
/// let mut idx = SnapshotIndex::from_graph(&g);
/// assert!(idx.contains(&Triple::new("a", "q", "c")));
/// assert!(idx.delete(&Triple::new("a", "q", "c")));
/// assert!(idx.insert(Triple::new("d", "p", "b")));
/// let view = idx.id_view();
/// let p = view.dict.lookup("p".into());
/// assert_eq!(view.rows(None, p, None).count(), 2);
/// assert_eq!(idx.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SnapshotIndex {
    dict: Arc<TermDict>,
    base: Arc<IdRuns>,
    adds: Arc<IdRuns>,
    dels: Arc<FxHashSet<[TermId; 3]>>,
}

/// A batch of inserts and deletes netted against one state of a
/// [`SnapshotIndex`] by [`SnapshotIndex::plan`], carried out by
/// [`SnapshotIndex::apply`]. Making one changes nothing, not even the
/// dictionary, so the store can log the effective ops first.
#[derive(Clone, Debug, Default)]
pub struct BatchPlan {
    /// Positions, in batch order, of the ops that change visibility
    /// where they stand: an insert of a triple not visible at that
    /// point of the batch, or a delete of one that is.
    pub effective: Vec<usize>,
    /// Dictionary size at planning time: provisional id `known + 1 + i`
    /// stands for `fresh[i]`, a term new to the dictionary.
    known: usize,
    fresh: Vec<Iri>,
    /// Net rows the batch makes visible and invisible.
    shown: Vec<[TermId; 3]>,
    hidden: Vec<[TermId; 3]>,
}

impl SnapshotIndex {
    /// An index over `base`, whose rows `dict` encoded, with an empty
    /// overlay.
    pub fn new(dict: Arc<TermDict>, base: IdRuns) -> Self {
        SnapshotIndex {
            dict,
            base: Arc::new(base),
            adds: Arc::default(),
            dels: Arc::default(),
        }
    }

    /// The index of `graph` on a fresh dictionary (ids are the
    /// lexicographic ranks of its terms).
    pub fn from_graph(graph: &Graph) -> Self {
        let dict = Arc::new(TermDict::new());
        let triples: Vec<Triple> = graph.iter().copied().collect();
        let base = IdRuns::build(&triples, &dict);
        SnapshotIndex::new(dict, base)
    }

    /// The dictionary every row of this index is encoded with.
    pub fn dict(&self) -> &Arc<TermDict> {
        &self.dict
    }

    /// Number of visible triples.
    pub fn len(&self) -> usize {
        self.base.len() - self.dels.len() + self.adds.len()
    }

    /// `true` iff no triple is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of base rows (deleted ones included).
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Number of overlay entries (`|adds| + |dels|`).
    pub fn delta_len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// Allocated bytes of the index: the base and add-tier runs (12
    /// bytes per row slot in each of three permutations), the deletion
    /// set and the dictionary's tables. The runs are counted exactly
    /// and the hash tables by their usable capacity (a slot plus its
    /// control byte) — what the index itself holds, unlike a process
    /// RSS delta.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self.adds.heap_bytes()
            + self.dels.capacity() * (size_of::<[TermId; 3]>() + 1)
            + self.dict.heap_bytes()
    }

    /// Membership test for a fully ground triple: an id probe. A triple
    /// over a never-interned term is not visible.
    pub fn contains(&self, t: &Triple) -> bool {
        self.dict
            .encode(t)
            .is_some_and(|row| self.contains_row(row))
    }

    fn contains_row(&self, row: [TermId; 3]) -> bool {
        (self.base.contains(row) && !self.dels.contains(&row)) || self.adds.contains(row)
    }

    /// Makes `t` visible; returns `true` iff it was not visible before.
    /// A one-op batch; panics if the dictionary has no id left for a
    /// new term.
    pub fn insert(&mut self, t: Triple) -> bool {
        self.apply_one(true, t)
    }

    /// Makes `t` invisible; returns `true` iff it was visible before.
    /// A one-op batch, which interns nothing.
    pub fn delete(&mut self, t: &Triple) -> bool {
        self.apply_one(false, *t)
    }

    fn apply_one(&mut self, insert: bool, t: Triple) -> bool {
        let plan = self
            .plan([(insert, t)])
            .unwrap_or_else(|full| panic!("{full}"));
        let changed = !plan.effective.is_empty();
        self.apply(plan);
        changed
    }

    /// Nets a batch of ops — `(true, t)` inserts `t`, `(false, t)`
    /// deletes it — against this index, without changing it. Each
    /// triple is encoded once, by lookup: a never-seen term is not
    /// visible, so a delete over one is a no-op, and an insert gives it
    /// a provisional id that [`SnapshotIndex::apply`] interns. Refused
    /// iff the batch's new terms would not fit in the id space.
    pub fn plan(
        &self,
        ops: impl IntoIterator<Item = (bool, Triple)>,
    ) -> Result<BatchPlan, IdSpaceFull> {
        self.dict.with_ids(|ids| {
            let known = ids.len();
            let mut plan = BatchPlan {
                known,
                ..BatchPlan::default()
            };
            let mut fresh: FxHashMap<Iri, TermId> = FxHashMap::default();
            // Per touched row: (visible before the batch, visible now).
            let mut staged: FxHashMap<[TermId; 3], (bool, bool)> = FxHashMap::default();
            'ops: for (at, (insert, t)) in ops.into_iter().enumerate() {
                let mut row = [NO_TERM; 3];
                for (slot, term) in row.iter_mut().zip([t.s, t.p, t.o]) {
                    *slot = match ids.get(&term).or_else(|| fresh.get(&term)) {
                        Some(&id) => id,
                        None if insert => {
                            TermDict::check_capacity(known, fresh.len() + 1)?;
                            let id = TermId::try_from(known + fresh.len() + 1)
                                .expect("the capacity check bounds every id");
                            fresh.insert(term, id);
                            plan.fresh.push(term);
                            id
                        }
                        None => continue 'ops,
                    };
                }
                let state = staged.entry(row).or_insert_with(|| {
                    let visible = self.contains_row(row);
                    (visible, visible)
                });
                if state.1 != insert {
                    state.1 = insert;
                    plan.effective.push(at);
                }
            }
            for (row, (_, is)) in staged.into_iter().filter(|(_, (was, is))| was != is) {
                let net = if is {
                    &mut plan.shown
                } else {
                    &mut plan.hidden
                };
                net.push(row);
            }
            Ok(plan)
        })
    }

    /// Carries out a plan [`SnapshotIndex::plan`] made on this index,
    /// unchanged since: interns the new terms, then moves each net base
    /// row out of or into the deletion set and merges every other net
    /// row into fresh add-tier runs ([`IdRuns::merged`]).
    pub fn apply(&mut self, plan: BatchPlan) {
        let fresh: Vec<TermId> = plan.fresh.iter().map(|&t| self.dict.intern(t)).collect();
        let interned = |row: [TermId; 3]| {
            row.map(|id| {
                (id as usize)
                    .checked_sub(plan.known + 1)
                    .map_or(id, |i| fresh[i])
            })
        };
        let in_base = |row: &[TermId; 3]| self.base.contains(*row);
        let (undel, add): (Vec<_>, Vec<_>) =
            plan.shown.iter().map(|&r| interned(r)).partition(in_base);
        let (del, unadd): (Vec<_>, Vec<_>) =
            plan.hidden.iter().map(|&r| interned(r)).partition(in_base);
        if !undel.is_empty() || !del.is_empty() {
            let dels = Arc::make_mut(&mut self.dels);
            for row in &undel {
                dels.remove(row);
            }
            dels.extend(del);
        }
        if !add.is_empty() || !unadd.is_empty() {
            self.adds = Arc::new(self.adds.merged(&add, &unadd));
        }
    }

    /// Folds the overlay into a fresh base (the compaction step of
    /// `owql-store`): one pass over the live id rows — base minus `dels`,
    /// plus `adds` — on the same dictionary, so every surviving triple
    /// keeps its ids and no term is re-interned.
    pub fn compacted(&self) -> SnapshotIndex {
        let rows = self.id_view().rows(None, None, None).collect();
        SnapshotIndex::new(self.dict.clone(), IdRuns::from_spo_rows(rows))
    }

    /// The visible graph in the layout of a persisted segment: its live
    /// terms in lexicographic order, and its rows as `[s, p, o]` ranks
    /// into that table, sorted and distinct — what a loaded segment's
    /// `into_parts` hands back, so seeding a dictionary from it
    /// ([`TermDict::from_sorted_terms`], id = rank + 1) inverts this.
    ///
    /// Works on ids: the live rows are collected once, the ids they use
    /// are marked in a dense table and only those are sorted by their
    /// text, and each row is mapped through the id → rank table. Terms
    /// no visible row uses (left behind by deletes) are dropped. The
    /// dictionary's read lock is held only to copy out the live terms.
    pub fn ranked(&self) -> (Vec<Iri>, Vec<[TermId; 3]>) {
        let mut rows: Vec<[TermId; 3]> = self.id_view().rows(None, None, None).collect();
        // `rank[id]` first marks the ids the rows use, then holds their
        // ranks. Commits may intern terms past its end meanwhile: the
        // dictionary is shared and append-only, and no row here uses
        // them.
        let mut rank: Vec<TermId> = vec![NO_TERM; self.dict.len() + 1];
        for &id in rows.iter().flatten() {
            rank[id as usize] = 1;
        }
        // Each text is resolved once here, not in every comparison.
        let mut live: Vec<(&str, Iri, TermId)> = self.dict.with_terms(|terms| {
            terms[..rank.len() - 1]
                .iter()
                .zip(1..=TermId::MAX)
                .filter(|&(_, id)| rank[id as usize] != NO_TERM)
                .map(|(&term, id)| (term.as_str(), term, id))
                .collect()
        });
        // Ids interned in rank order (a seeded or freshly built
        // dictionary) come in already sorted runs, which a stable sort
        // merges rather than re-sorts.
        live.sort_by(|a, b| a.0.cmp(b.0));
        for (r, &(_, _, id)) in live.iter().enumerate() {
            rank[id as usize] = TermId::try_from(r).expect("fewer ranks than ids");
        }
        for row in &mut rows {
            *row = row.map(|id| rank[id as usize]);
        }
        rows.sort_unstable();
        (live.into_iter().map(|(_, term, _)| term).collect(), rows)
    }

    /// Materializes the visible triples as a [`Graph`], decoded once
    /// under one dictionary read lock.
    pub fn to_graph(&self) -> Graph {
        let view = self.id_view();
        let triples: Vec<Triple> = self.dict.with_terms(|terms| {
            let term = |id: TermId| terms[id as usize - 1];
            view.rows(None, None, None)
                .map(|[s, p, o]| Triple {
                    s: term(s),
                    p: term(p),
                    o: term(o),
                })
                .collect()
        });
        triples.into_iter().collect()
    }

    /// The id-encoded scan surface the evaluator plans and runs on.
    pub fn id_view(&self) -> IdView<'_> {
        IdView {
            dict: &self.dict,
            base: &self.base,
            adds: (!self.adds.is_empty()).then_some(&*self.adds),
            dels: (!self.dels.is_empty()).then_some(&*self.dels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from;
    use crate::term::{triple, Iri};

    fn idx() -> SnapshotIndex {
        SnapshotIndex::from_graph(&graph_from(&[
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("a", "q", "b"),
            ("d", "p", "b"),
        ]))
    }

    /// The visible triples matching a term-level pattern, read off the
    /// id view and sorted. A constant the dictionary never saw matches
    /// nothing.
    fn scan(idx: &SnapshotIndex, s: Option<&str>, p: Option<&str>, o: Option<&str>) -> Vec<Triple> {
        let view = idx.id_view();
        let id = |t: Option<&str>| t.map(|t| view.dict.lookup(Iri::new(t)));
        let (s, p, o) = (id(s), id(p), id(o));
        if [s, p, o].contains(&Some(None)) {
            return Vec::new();
        }
        let term = |id| view.dict.resolve(id).expect("interned");
        let mut out: Vec<Triple> = view
            .rows(s.flatten(), p.flatten(), o.flatten())
            .map(|[s, p, o]| Triple {
                s: term(s),
                p: term(p),
                o: term(o),
            })
            .collect();
        out.sort();
        out
    }

    /// Every pattern over `terms` (each position free or bound to one of
    /// them) scans `got` exactly like `want`.
    fn assert_same_scans(got: &SnapshotIndex, want: &SnapshotIndex, terms: &[&str]) {
        let terms: Vec<Option<&str>> = [None]
            .into_iter()
            .chain(terms.iter().map(|&t| Some(t)))
            .collect();
        for &s in &terms {
            for &p in &terms {
                for &o in &terms {
                    assert_eq!(
                        scan(got, s, p, o),
                        scan(want, s, p, o),
                        "pattern ({s:?}, {p:?}, {o:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn full_scan() {
        let i = idx();
        assert_eq!(i.len(), 4);
        assert_eq!(scan(&i, None, None, None).len(), 4);
    }

    #[test]
    fn single_position_lookups() {
        let i = idx();
        assert_eq!(scan(&i, Some("a"), None, None).len(), 3);
        assert_eq!(scan(&i, None, Some("p"), None).len(), 3);
        assert_eq!(scan(&i, None, None, Some("b")).len(), 3);
        assert_eq!(scan(&i, Some("zz"), None, None).len(), 0);
    }

    #[test]
    fn pair_lookups() {
        let i = idx();
        assert_eq!(scan(&i, Some("a"), Some("p"), None).len(), 2);
        assert_eq!(scan(&i, None, Some("p"), Some("b")).len(), 2);
        assert_eq!(scan(&i, Some("a"), None, Some("b")).len(), 2);
    }

    #[test]
    fn ground_lookup() {
        let i = idx();
        assert!(i.contains(&triple("a", "p", "b")));
        assert!(!i.contains(&triple("a", "p", "zz")));
        assert_eq!(
            scan(&i, Some("a"), Some("p"), Some("b")),
            vec![triple("a", "p", "b")]
        );
    }

    /// A freshly built index holds 36 bytes of runs per base row
    /// (three 12-byte id rows) beside its dictionary, and no overlay.
    #[test]
    fn fresh_index_runs_cost_36_bytes_per_row() {
        let i = idx();
        assert_eq!(i.heap_bytes(), 36 * i.base_len() + i.dict().heap_bytes());
        let mut grown = i.clone();
        grown.delete(&triple("a", "p", "b"));
        assert!(
            grown.heap_bytes() > i.heap_bytes(),
            "the deletion set counts"
        );
    }

    #[test]
    fn empty_graph_index() {
        let i = SnapshotIndex::from_graph(&Graph::new());
        assert!(i.is_empty());
        assert_eq!(scan(&i, None, None, None).len(), 0);
    }

    /// Incremental insert/delete reaches exactly the visible state a
    /// fresh build over the net graph has, on every pattern shape.
    #[test]
    fn incremental_matches_rebuild() {
        let mut incremental = SnapshotIndex::default();
        let mut graph = Graph::new();
        let steps = [
            ("a", "p", "b", true),
            ("a", "p", "c", true),
            ("d", "p", "b", true),
            ("a", "p", "b", false), // duplicate insert
        ];
        for (s, p, o, fresh) in steps {
            assert_eq!(incremental.insert(triple(s, p, o)), fresh);
            graph.insert(triple(s, p, o));
        }
        assert!(incremental.delete(&triple("a", "p", "c")));
        assert!(!incremental.delete(&triple("a", "p", "c")));
        assert!(!incremental.delete(&triple("zz", "zz", "zz")));
        graph.remove(&triple("a", "p", "c"));

        let rebuilt = SnapshotIndex::from_graph(&graph);
        assert_eq!(incremental.to_graph(), graph);
        assert_same_scans(&incremental, &rebuilt, &["a", "p", "b"]);
    }

    /// Deleting the only added triple leaves no overlay behind.
    #[test]
    fn remove_cleans_all_paths() {
        let mut idx = SnapshotIndex::default();
        idx.insert(triple("a", "p", "b"));
        idx.delete(&triple("a", "p", "b"));
        assert!(idx.is_empty());
        assert_eq!(idx.delta_len(), 0);
        assert!(idx.id_view().adds.is_none());
        assert_eq!(scan(&idx, Some("a"), None, None).len(), 0);
        assert_eq!(scan(&idx, None, Some("p"), None).len(), 0);
    }

    /// A delete over a term the dictionary never saw is a no-op that
    /// interns nothing.
    #[test]
    fn delete_of_unseen_terms_interns_nothing() {
        let mut i = idx();
        let terms = i.dict().len();
        assert!(!i.delete(&triple("a", "p", "never_seen")));
        assert!(!i.contains(&triple("never_seen", "p", "b")));
        assert_eq!(i.dict().len(), terms);
        assert_eq!(i.dict().lookup(Iri::new("never_seen")), None);
        assert_eq!(i.delta_len(), 0);
    }

    /// A plan interns nothing and changes nothing; applying it nets
    /// the batch: an insert-then-delete of a new triple is two
    /// effective ops and no net row, a delete-then-reinsert of a base
    /// triple is two effective ops and leaves the base as it was.
    #[test]
    fn plan_nets_the_batch_and_apply_carries_it_out() {
        let mut i = idx();
        let terms = i.dict().len();
        let (new, base) = (triple("n", "p", "m"), triple("a", "p", "b"));
        let ops = [
            (true, new),
            (false, new),
            (false, base),
            (true, base),
            (true, base),
            (false, triple("ghost", "p", "b")),
            (true, triple("a", "q", "n")),
        ];
        let plan = i.plan(ops).expect("fits");
        assert_eq!(plan.effective, [0, 1, 2, 3, 6]);
        assert_eq!(i.dict().len(), terms, "planning interns nothing");
        let before = i.clone();
        i.apply(plan);
        assert_eq!(i.dict().len(), terms + 2, "n and m are interned");
        assert_eq!(i.delta_len(), 1, "only (a, q, n) is net new");
        assert!(i.contains(&triple("a", "q", "n")) && i.contains(&base));
        assert!(!i.contains(&new));
        assert_eq!(before.len(), 4, "an earlier clone keeps its rows");
        assert!(!before.contains(&triple("a", "q", "n")));
    }

    /// `ranked` is the segment layout of the visible graph: only live
    /// terms, in text order, whatever order they were interned in, and
    /// the rows as sorted ranks that decode to the graph. Seeding a
    /// dictionary from the table and shifting every rank by one gives
    /// an index over the same graph.
    #[test]
    fn ranked_keeps_live_terms_in_text_order() {
        let mut i = idx();
        i.insert(triple("z", "p", "a")); // a new term past every other
        i.insert(triple("c", "q", "0")); // "0" sorts first
        i.delete(&triple("d", "p", "b")); // "d" is left dead
        let (terms, spo) = i.ranked();
        let text: Vec<&str> = terms.iter().map(|t| t.as_str()).collect();
        assert_eq!(text, ["0", "a", "b", "c", "p", "q", "z"]);
        assert!(spo.windows(2).all(|w| w[0] < w[1]));
        let decoded: Graph = spo
            .iter()
            .map(|r| r.map(|rank| terms[rank as usize]))
            .map(|[s, p, o]| Triple { s, p, o })
            .collect();
        assert_eq!(decoded, i.to_graph());

        let dict = Arc::new(TermDict::from_sorted_terms(terms));
        let rows = spo.iter().map(|r| r.map(|rank| rank + 1)).collect();
        let reopened = SnapshotIndex::new(dict, IdRuns::from_spo_rows(rows));
        assert_eq!(reopened.to_graph(), i.to_graph());
        assert_eq!(reopened.ranked(), i.ranked());
        assert_eq!(SnapshotIndex::default().ranked(), (vec![], vec![]));
    }

    mod snapshot_overlay {
        use super::*;

        /// An overlay with adds and dels answers every pattern exactly
        /// like a from-scratch index over the net graph.
        #[test]
        fn overlay_equals_net_graph() {
            let base = graph_from(&[("a", "p", "b"), ("a", "p", "c"), ("d", "q", "b")]);
            let adds = [triple("e", "p", "b"), triple("a", "q", "c")];
            let dels = [triple("a", "p", "c")];

            let mut snap = SnapshotIndex::from_graph(&base);
            let mut net = base.clone();
            for t in adds {
                assert!(snap.insert(t));
                net.insert(t);
            }
            for t in &dels {
                assert!(snap.delete(t));
                net.remove(t);
            }
            let fresh = SnapshotIndex::from_graph(&net);

            assert_eq!(snap.len(), fresh.len());
            assert_eq!(snap.delta_len(), adds.len() + dels.len());
            assert_eq!(snap.to_graph(), net);

            // The id view's base rows minus the deleted rows, plus the
            // add tier, decode through the one dictionary to the net
            // graph.
            let view = snap.id_view();
            let deleted = view.dels.expect("non-empty deletion set");
            let resolve = |id| view.dict.resolve(id).expect("interned");
            let live: Graph = view
                .base
                .spo()
                .iter()
                .filter(|row| !deleted.contains(*row))
                .chain(view.adds.expect("non-empty add tier").spo())
                .map(|&[s, p, o]| Triple {
                    s: resolve(s),
                    p: resolve(p),
                    o: resolve(o),
                })
                .collect();
            assert_eq!(live, net);
            assert_same_scans(&snap, &fresh, &["a", "p", "q", "b", "c", "e"]);
            for t in net.iter() {
                assert!(snap.contains(t));
            }
            assert!(!snap.contains(&triple("a", "p", "c")));
        }

        /// Compaction folds the overlay into a fresh base holding the
        /// same live rows under the same ids.
        #[test]
        fn compacted_folds_overlay() {
            let mut snap =
                SnapshotIndex::from_graph(&graph_from(&[("a", "p", "b"), ("x", "y", "z")]));
            snap.insert(triple("n", "n", "n"));
            snap.delete(&triple("x", "y", "z"));
            let compacted = snap.compacted();
            assert!(Arc::ptr_eq(compacted.dict(), snap.dict()));
            assert_eq!(compacted.delta_len(), 0);
            assert_eq!(compacted.len(), 2);
            assert_eq!(compacted.to_graph(), snap.to_graph());
            let mut live: Vec<[TermId; 3]> = snap.id_view().rows(None, None, None).collect();
            live.sort_unstable();
            assert_eq!(compacted.id_view().base.spo(), &live[..]);
        }

        /// An empty overlay is transparent.
        #[test]
        fn empty_overlay_is_transparent() {
            let g = graph_from(&[("a", "p", "b")]);
            let snap = SnapshotIndex::from_graph(&g);
            assert_eq!(snap.delta_len(), 0);
            assert_eq!(snap.len(), 1);
            assert_eq!(snap.to_graph(), g);
            assert!(snap.id_view().adds.is_none() && snap.id_view().dels.is_none());
        }
    }
}
