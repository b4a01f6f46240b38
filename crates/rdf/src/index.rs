//! Triple-pattern indexes over a graph.
//!
//! [`GraphIndex`] materializes the six term-level access paths a
//! triple-pattern lookup can take (by subject, predicate, object, and
//! each pair), answering a pattern with bound positions in time
//! proportional to the number of matches rather than to `|G|`, next to
//! the id-encoded sorted runs ([`IdRuns`]) the evaluation engine scans.
//! The engine's planner and walker read only the runs: neither the
//! evaluator nor the optimizer asks the term-level maps for matches or
//! cardinalities.
//!
//! Two additions serve the live-update store (`owql-store`):
//!
//! * [`TripleLookup`] abstracts the lookup surface every backend serves:
//!   the id view the evaluation engine plans and runs on (`id_view`),
//!   plus term-level `matching` / `contains` for materializing and
//!   checking the visible graph;
//! * [`SnapshotIndex`] is a *delta-aware* lookup: an immutable
//!   `Arc`-shared base [`GraphIndex`] overlaid with a small set of added
//!   and deleted triples. Lookups merge base hits with the overlay, so a
//!   mutation costs `O(1)` index work instead of an `O(|G|)` rebuild, and
//!   many reader threads can hold snapshots while writers proceed.
//!
//! The reference evaluator deliberately does *not* use this module — it
//! scans the graph exactly as the paper's semantics is written — which is
//! what experiment E12's engine ablation measures.

use crate::dict::{IdRuns, IdView, TermDict};
use crate::graph::Graph;
use crate::term::{Iri, Triple};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The triple-pattern lookup surface of an index-shaped backend. `None`
/// in a position means "any value".
///
/// The evaluation engine plans and runs on [`TripleLookup::id_view`]
/// alone; `matching` and `contains` serve graph materialization and
/// tests. Implementors must answer consistently: `contains` agrees
/// with a fully-ground `matching`, and the id view covers exactly the
/// triples `matching(None, None, None)` returns. (`SnapshotIndex` and
/// `GraphIndex` are cross-checked by tests below.)
pub trait TripleLookup {
    /// The triples matching a pattern with optionally bound positions.
    fn matching(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple>;

    /// Membership test for a fully ground triple.
    fn contains(&self, t: &Triple) -> bool;

    /// Number of triples visible through this lookup.
    fn len(&self) -> usize;

    /// `true` iff no triple is visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the visible triples as a [`Graph`].
    fn to_graph(&self) -> Graph {
        self.matching(None, None, None).into_iter().collect()
    }

    /// The id-encoded scan surface the evaluator runs on: a term
    /// dictionary plus sorted id runs covering exactly the triples
    /// visible through this lookup.
    fn id_view(&self) -> IdView<'_>;
}

/// The dictionary + sorted-run state a [`GraphIndex`] carries to serve
/// id scans.
#[derive(Clone, Debug, Default)]
struct IdState {
    dict: Arc<TermDict>,
    runs: IdRuns,
}

/// A fully materialized secondary index over a [`Graph`].
///
/// Construction is `O(|G|)`; each lookup returns a slice of matching
/// triples. The index holds copies of the (12-byte) triples, trading
/// memory for pointer-chasing-free scans.
#[derive(Clone, Debug, Default)]
pub struct GraphIndex {
    all: Vec<Triple>,
    by_s: HashMap<Iri, Vec<Triple>>,
    by_p: HashMap<Iri, Vec<Triple>>,
    by_o: HashMap<Iri, Vec<Triple>>,
    by_sp: HashMap<(Iri, Iri), Vec<Triple>>,
    by_po: HashMap<(Iri, Iri), Vec<Triple>>,
    by_so: HashMap<(Iri, Iri), Vec<Triple>>,
    /// Id-encoded twin of `all`: dictionary + SPO/POS/OSP sorted runs.
    /// [`GraphIndex::default`] starts on a private empty dictionary
    /// (re-home it with [`GraphIndex::with_dict`]).
    ids: IdState,
}

impl GraphIndex {
    /// Builds the index for `graph`.
    pub fn build(graph: &Graph) -> Self {
        GraphIndex::from_triples(graph.iter().copied())
    }

    /// Builds the index from an iterator of (not necessarily distinct)
    /// triples, interning every term into a fresh private dictionary
    /// (ids = lexicographic ranks). Use
    /// [`GraphIndex::from_triples_with_dict`] to share a dictionary
    /// across indexes.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        GraphIndex::from_triples_with_dict(triples, Arc::new(TermDict::new()))
    }

    /// Builds the index from an iterator of triples, interning terms
    /// into `dict` (existing ids are reused; new terms are appended in
    /// lexicographic order).
    pub fn from_triples_with_dict(
        triples: impl IntoIterator<Item = Triple>,
        dict: Arc<TermDict>,
    ) -> Self {
        let mut all: Vec<Triple> = triples.into_iter().collect();
        all.sort();
        all.dedup();
        let mut idx = GraphIndex {
            all: Vec::with_capacity(all.len()),
            ..GraphIndex::default()
        };
        for t in all {
            idx.all.push(t);
            idx.index_entry(t);
        }
        let runs = IdRuns::build(&idx.all, &dict);
        idx.ids = IdState { dict, runs };
        idx
    }

    /// Replaces this index's id state with one keyed by `dict`
    /// (re-encoding every triple). Used by `owql-store` to re-home an
    /// index built elsewhere (e.g. a compaction fold or a recovered
    /// segment) onto the store-wide dictionary.
    pub fn with_dict(mut self, dict: Arc<TermDict>) -> Self {
        let runs = IdRuns::build(&self.all, &dict);
        self.ids = IdState { dict, runs };
        self
    }

    /// The dictionary this index's id runs are encoded with.
    pub fn dict(&self) -> &Arc<TermDict> {
        &self.ids.dict
    }

    /// The id-encoded sorted runs.
    pub fn id_runs(&self) -> &IdRuns {
        &self.ids.runs
    }

    fn index_entry(&mut self, t: Triple) {
        self.by_s.entry(t.s).or_default().push(t);
        self.by_p.entry(t.p).or_default().push(t);
        self.by_o.entry(t.o).or_default().push(t);
        self.by_sp.entry((t.s, t.p)).or_default().push(t);
        self.by_po.entry((t.p, t.o)).or_default().push(t);
        self.by_so.entry((t.s, t.o)).or_default().push(t);
    }

    /// Incrementally indexes one triple; returns `true` if it was new.
    ///
    /// Cost is `O(log n)` to keep `all` sorted plus the `O(n)` vector
    /// shift — intended for the *small* delta-overlay indexes maintained
    /// by `owql-store`, where `n` is bounded by the compaction threshold,
    /// not for bulk loads (use [`GraphIndex::build`]).
    pub fn insert(&mut self, t: Triple) -> bool {
        match self.all.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.all.insert(pos, t);
                self.index_entry(t);
                let ids = &mut self.ids;
                let row = [
                    ids.dict.intern(t.s),
                    ids.dict.intern(t.p),
                    ids.dict.intern(t.o),
                ];
                ids.runs.insert(row);
                true
            }
        }
    }

    /// Removes one triple from every access path; returns `true` if it
    /// was present. Same cost profile as [`GraphIndex::insert`].
    pub fn remove(&mut self, t: &Triple) -> bool {
        match self.all.binary_search(t) {
            Err(_) => false,
            Ok(pos) => {
                self.all.remove(pos);
                fn unindex<K: std::hash::Hash + Eq>(
                    map: &mut HashMap<K, Vec<Triple>>,
                    key: K,
                    t: &Triple,
                ) {
                    if let Some(v) = map.get_mut(&key) {
                        v.retain(|x| x != t);
                        if v.is_empty() {
                            map.remove(&key);
                        }
                    }
                }
                unindex(&mut self.by_s, t.s, t);
                unindex(&mut self.by_p, t.p, t);
                unindex(&mut self.by_o, t.o, t);
                unindex(&mut self.by_sp, (t.s, t.p), t);
                unindex(&mut self.by_po, (t.p, t.o), t);
                unindex(&mut self.by_so, (t.s, t.o), t);
                // A present triple's terms are always interned.
                if let Some(rows) = self.ids.dict.encode_all(std::slice::from_ref(t)) {
                    self.ids.runs.remove(rows[0]);
                }
                true
            }
        }
    }

    /// Number of indexed triples.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// `true` iff the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// All triples, sorted.
    pub fn all(&self) -> &[Triple] {
        &self.all
    }

    /// Membership test for a fully ground triple.
    pub fn contains(&self, t: &Triple) -> bool {
        self.by_sp
            .get(&(t.s, t.p))
            .is_some_and(|v| v.iter().any(|x| x.o == t.o))
    }

    /// Returns the triples matching a pattern with optionally bound
    /// positions. `None` means "any value".
    ///
    /// ```
    /// use owql_rdf::{Graph, GraphIndex, Iri, Triple};
    /// let g: Graph = [Triple::new("a", "p", "b"), Triple::new("a", "q", "c")]
    ///     .into_iter().collect();
    /// let idx = GraphIndex::build(&g);
    /// assert_eq!(idx.matching(Some(Iri::new("a")), None, None).len(), 2);
    /// assert_eq!(idx.matching(None, Some(Iri::new("q")), None).len(), 1);
    /// ```
    pub fn matching(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple> {
        static EMPTY: Vec<Triple> = Vec::new();
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple { s, p, o };
                if self.contains(&t) {
                    vec![t]
                } else {
                    Vec::new()
                }
            }
            (Some(s), Some(p), None) => self.by_sp.get(&(s, p)).unwrap_or(&EMPTY).clone(),
            (None, Some(p), Some(o)) => self.by_po.get(&(p, o)).unwrap_or(&EMPTY).clone(),
            (Some(s), None, Some(o)) => self.by_so.get(&(s, o)).unwrap_or(&EMPTY).clone(),
            (Some(s), None, None) => self.by_s.get(&s).unwrap_or(&EMPTY).clone(),
            (None, Some(p), None) => self.by_p.get(&p).unwrap_or(&EMPTY).clone(),
            (None, None, Some(o)) => self.by_o.get(&o).unwrap_or(&EMPTY).clone(),
            (None, None, None) => self.all.clone(),
        }
    }
}

impl TripleLookup for GraphIndex {
    fn matching(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple> {
        GraphIndex::matching(self, s, p, o)
    }

    fn contains(&self, t: &Triple) -> bool {
        GraphIndex::contains(self, t)
    }

    fn len(&self) -> usize {
        GraphIndex::len(self)
    }

    fn id_view(&self) -> IdView<'_> {
        IdView::plain(&self.ids.dict, &self.ids.runs)
    }
}

/// A delta-aware lookup: an immutable `Arc`-shared base [`GraphIndex`]
/// plus a small overlay of `adds` (triples not in the base) and `dels`
/// (base triples deleted since the base was built).
///
/// A `SnapshotIndex` is immutable and cheap to clone (three `Arc`
/// clones), so a writer can keep mutating its store while any number of
/// reader threads evaluate against earlier snapshots. Lookups merge
/// base hits (minus `dels`) with `adds` hits; both sides are index
/// lookups, so cost stays proportional to the number of matches.
///
/// Invariants (maintained by `owql-store`, debug-asserted here):
/// `adds ∩ base = ∅`, `dels ⊆ base`, and therefore `adds ∩ dels = ∅`.
/// Base and overlay always share one dictionary, so their id runs are
/// comparable (see [`SnapshotIndex::new`]).
#[derive(Clone, Debug)]
pub struct SnapshotIndex {
    base: Arc<GraphIndex>,
    adds: Arc<GraphIndex>,
    dels: Arc<HashSet<Triple>>,
}

impl SnapshotIndex {
    /// Wraps a base index and its overlay. An overlay encoded with a
    /// different dictionary than the base is re-encoded onto the base's
    /// (`owql-store` always passes a shared one, so this costs it
    /// nothing).
    pub fn new(base: Arc<GraphIndex>, adds: Arc<GraphIndex>, dels: Arc<HashSet<Triple>>) -> Self {
        debug_assert!(
            adds.all().iter().all(|t| !base.contains(t)),
            "adds must be disjoint from the base"
        );
        debug_assert!(
            dels.iter().all(|t| base.contains(t)),
            "dels must be a subset of the base"
        );
        let adds = if Arc::ptr_eq(base.dict(), adds.dict()) {
            adds
        } else {
            Arc::new(GraphIndex::clone(&adds).with_dict(base.dict().clone()))
        };
        SnapshotIndex { base, adds, dels }
    }

    /// A snapshot of a plain graph with an empty overlay.
    pub fn from_graph(graph: &Graph) -> Self {
        SnapshotIndex::new(
            Arc::new(GraphIndex::build(graph)),
            Arc::default(),
            Arc::default(),
        )
    }

    /// The shared base index.
    pub fn base(&self) -> &GraphIndex {
        &self.base
    }

    /// Number of overlay entries (`|adds| + |dels|`).
    pub fn delta_len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// Folds the overlay into a fresh base index (the compaction step of
    /// `owql-store`): base triples minus `dels`, plus `adds`.
    pub fn compacted(&self) -> GraphIndex {
        GraphIndex::from_triples(
            self.base
                .all()
                .iter()
                .filter(|t| !self.dels.contains(t))
                .chain(self.adds.all().iter())
                .copied(),
        )
    }
}

impl TripleLookup for SnapshotIndex {
    fn matching(&self, s: Option<Iri>, p: Option<Iri>, o: Option<Iri>) -> Vec<Triple> {
        let mut out = self.base.matching(s, p, o);
        if !self.dels.is_empty() {
            out.retain(|t| !self.dels.contains(t));
        }
        out.extend(self.adds.matching(s, p, o));
        out
    }

    fn contains(&self, t: &Triple) -> bool {
        (self.base.contains(t) && !self.dels.contains(t)) || self.adds.contains(t)
    }

    fn len(&self) -> usize {
        self.base.len() - self.dels.len() + self.adds.len()
    }

    fn id_view(&self) -> IdView<'_> {
        let (base, adds) = (&self.base.ids, &self.adds.ids);
        IdView {
            dict: &base.dict,
            base: &base.runs,
            adds: (!adds.runs.is_empty()).then_some(&adds.runs),
            dels: (!self.dels.is_empty()).then_some(&self.dels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from;
    use crate::term::triple;

    fn idx() -> GraphIndex {
        GraphIndex::build(&graph_from(&[
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("a", "q", "b"),
            ("d", "p", "b"),
        ]))
    }

    #[test]
    fn full_scan() {
        let i = idx();
        assert_eq!(i.len(), 4);
        assert_eq!(i.matching(None, None, None).len(), 4);
    }

    #[test]
    fn single_position_lookups() {
        let i = idx();
        assert_eq!(i.matching(Some(Iri::new("a")), None, None).len(), 3);
        assert_eq!(i.matching(None, Some(Iri::new("p")), None).len(), 3);
        assert_eq!(i.matching(None, None, Some(Iri::new("b"))).len(), 3);
        assert_eq!(i.matching(Some(Iri::new("zz")), None, None).len(), 0);
    }

    #[test]
    fn pair_lookups() {
        let i = idx();
        assert_eq!(
            i.matching(Some(Iri::new("a")), Some(Iri::new("p")), None)
                .len(),
            2
        );
        assert_eq!(
            i.matching(None, Some(Iri::new("p")), Some(Iri::new("b")))
                .len(),
            2
        );
        assert_eq!(
            i.matching(Some(Iri::new("a")), None, Some(Iri::new("b")))
                .len(),
            2
        );
    }

    #[test]
    fn ground_lookup() {
        let i = idx();
        assert!(i.contains(&triple("a", "p", "b")));
        assert!(!i.contains(&triple("a", "p", "zz")));
        assert_eq!(
            i.matching(
                Some(Iri::new("a")),
                Some(Iri::new("p")),
                Some(Iri::new("b"))
            ),
            vec![triple("a", "p", "b")]
        );
    }

    #[test]
    fn empty_graph_index() {
        let i = GraphIndex::build(&Graph::new());
        assert!(i.is_empty());
        assert_eq!(i.matching(None, None, None).len(), 0);
    }

    /// Incremental insert/remove reaches exactly the state a fresh
    /// build would produce, across every access path.
    #[test]
    fn incremental_matches_rebuild() {
        let mut incremental = GraphIndex::default();
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
        assert!(incremental.remove(&triple("a", "p", "c")));
        assert!(!incremental.remove(&triple("a", "p", "c")));
        assert!(!incremental.remove(&triple("zz", "zz", "zz")));
        graph.remove(&triple("a", "p", "c"));

        let rebuilt = GraphIndex::build(&graph);
        assert_eq!(incremental.all(), rebuilt.all());
        let terms = [
            None,
            Some(Iri::new("a")),
            Some(Iri::new("p")),
            Some(Iri::new("b")),
        ];
        for &s in &terms {
            for &p in &terms {
                for &o in &terms {
                    let mut got = incremental.matching(s, p, o);
                    let mut want = rebuilt.matching(s, p, o);
                    got.sort();
                    want.sort();
                    assert_eq!(got, want);
                }
            }
        }
    }

    /// Removing a triple fully cleans its access-path entries (no empty
    /// buckets linger).
    #[test]
    fn remove_cleans_all_paths() {
        let mut idx = GraphIndex::default();
        idx.insert(triple("a", "p", "b"));
        idx.remove(&triple("a", "p", "b"));
        assert!(idx.is_empty());
        assert_eq!(idx.matching(Some(Iri::new("a")), None, None).len(), 0);
        assert!(idx.id_runs().is_empty());
        assert_eq!(idx.matching(None, Some(Iri::new("p")), None).len(), 0);
    }

    mod snapshot_overlay {
        use super::*;
        use crate::index::{SnapshotIndex, TripleLookup};
        use std::collections::HashSet;
        use std::sync::Arc;

        /// An overlay with adds and dels answers every pattern exactly
        /// like a from-scratch index over the net graph.
        #[test]
        fn overlay_equals_net_graph() {
            let base = graph_from(&[("a", "p", "b"), ("a", "p", "c"), ("d", "q", "b")]);
            let adds = [triple("e", "p", "b"), triple("a", "q", "c")];
            let dels = [triple("a", "p", "c")];

            let snap = SnapshotIndex::new(
                Arc::new(GraphIndex::build(&base)),
                Arc::new(GraphIndex::from_triples(adds)),
                Arc::new(dels.iter().copied().collect::<HashSet<_>>()),
            );

            let mut net = base.clone();
            for t in adds {
                net.insert(t);
            }
            for t in &dels {
                net.remove(t);
            }
            let fresh = GraphIndex::build(&net);

            assert_eq!(TripleLookup::len(&snap), fresh.len());
            assert_eq!(snap.to_graph(), net);

            // Base and adds were built on different dictionaries: the
            // snapshot re-homed the overlay, so one dictionary resolves
            // the id view's base and add rows to the net graph.
            let view = snap.id_view();
            let del_rows = view.del_rows();
            let resolve = |id| view.dict.resolve(id).expect("interned");
            let live: Graph = view
                .base
                .spo()
                .iter()
                .filter(|row| !del_rows.contains(*row))
                .chain(view.adds.expect("non-empty add tier").spo())
                .map(|&[s, p, o]| Triple {
                    s: resolve(s),
                    p: resolve(p),
                    o: resolve(o),
                })
                .collect();
            assert_eq!(live, net);
            let terms = [
                None,
                Some(Iri::new("a")),
                Some(Iri::new("p")),
                Some(Iri::new("q")),
                Some(Iri::new("b")),
                Some(Iri::new("c")),
                Some(Iri::new("e")),
            ];
            for &s in &terms {
                for &p in &terms {
                    for &o in &terms {
                        let mut got = TripleLookup::matching(&snap, s, p, o);
                        let mut want = fresh.matching(s, p, o);
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "pattern ({s:?}, {p:?}, {o:?})");
                    }
                }
            }
            for t in net.iter() {
                assert!(TripleLookup::contains(&snap, t));
            }
            assert!(!TripleLookup::contains(&snap, &triple("a", "p", "c")));
        }

        /// Compaction folds the overlay into a fresh base equal to a
        /// from-scratch build.
        #[test]
        fn compacted_folds_overlay() {
            let base = graph_from(&[("a", "p", "b"), ("x", "y", "z")]);
            let snap = SnapshotIndex::new(
                Arc::new(GraphIndex::build(&base)),
                Arc::new(GraphIndex::from_triples([triple("n", "n", "n")])),
                Arc::new([triple("x", "y", "z")].into_iter().collect::<HashSet<_>>()),
            );
            let compacted = snap.compacted();
            assert_eq!(compacted.all(), GraphIndex::build(&snap.to_graph()).all());
            assert_eq!(compacted.len(), 2);
        }

        /// An empty overlay is transparent.
        #[test]
        fn empty_overlay_is_transparent() {
            let g = graph_from(&[("a", "p", "b")]);
            let snap = SnapshotIndex::from_graph(&g);
            assert_eq!(snap.delta_len(), 0);
            assert_eq!(TripleLookup::len(&snap), 1);
            assert_eq!(snap.to_graph(), g);
        }
    }
}
