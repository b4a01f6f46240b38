//! Columnar, dictionary-encoded solution mappings.
//!
//! The term-level [`Mapping`]/[`MappingSet`] types implement the
//! paper's semantics directly; this module is their hot-path twin over
//! [`TermId`]s. A query's variables are fixed up front in a
//! [`VarFrame`]; a solution is then a dense row of `u32` ids — one slot
//! per frame variable, `0` ([`NO_TERM`]) meaning "unbound" — and a
//! solution set is a flat row-major `Vec<TermId>`. On this layout the
//! paper's core relations collapse to word operations:
//!
//! * compatibility `µ₁ ∼ µ₂`: per column, `a == 0 || b == 0 || a == b`;
//! * the union of two compatible mappings: per column, `a | b`
//!   (the non-zero side wins, equal values are idempotent);
//! * `dom(µ)`: a `u64` bitmask of the non-zero columns, making
//!   subsumption's domain-containment test a single `&`/`==`.
//!
//! Decoding back to [`MappingSet`] happens once, at the result
//! boundary, under a single dictionary read lock.
//!
//! Frames wider than 64 variables would overflow the domain bitmask;
//! the evaluation engine rejects such patterns with a typed error
//! before ever building one (see `WIDTH_LIMIT`). A pattern with no
//! variables at all still gets one-column tables — a single,
//! never-bound padding column — whose rows decode to `µ∅`.

use crate::mapping::Mapping;
use crate::mapping_set::MappingSet;
use crate::variable::Variable;
use owql_exec::Pool;
use owql_rdf::{FxHashMap, FxHasher, TermDict, TermId, NO_TERM};
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

/// Maximum frame width the columnar representation supports (domain
/// masks are single `u64`s).
pub const WIDTH_LIMIT: usize = 64;

/// Beyond this many distinct domains, grouped maximality degrades to
/// the pairwise scan (the grouped shadow sets stop paying for
/// themselves).
const GROUPED_DOMAIN_LIMIT: usize = 64;

/// The ordered set of variables a query's columnar tables are keyed by.
///
/// Columns are assigned in `Variable` sort order; every table produced
/// while evaluating one query shares the same frame, so rows from
/// different subpatterns can be compared column-for-column without
/// remapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarFrame {
    vars: Vec<Variable>,
}

impl VarFrame {
    /// Builds a frame from an iterator of variables (deduplicated,
    /// sorted). Returns `None` if more than [`WIDTH_LIMIT`] variables
    /// are involved.
    pub fn new(vars: impl IntoIterator<Item = Variable>) -> Option<VarFrame> {
        let mut vars: Vec<Variable> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        (vars.len() <= WIDTH_LIMIT).then_some(VarFrame { vars })
    }

    /// The column of `v`, if it is in the frame.
    pub fn col(&self, v: Variable) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    /// The variable at `col`.
    pub fn var(&self, col: usize) -> Variable {
        self.vars[col]
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// The frame's variables, sorted.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }
}

/// One borrowed columnar solution row (the id twin of [`Mapping`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdMapping<'a> {
    row: &'a [TermId],
}

impl<'a> IdMapping<'a> {
    /// Wraps a row slice.
    pub fn new(row: &'a [TermId]) -> IdMapping<'a> {
        IdMapping { row }
    }

    /// The raw column slice.
    pub fn row(&self) -> &'a [TermId] {
        self.row
    }

    /// The binding in `col`, if bound.
    pub fn get(&self, col: usize) -> Option<TermId> {
        match self.row[col] {
            NO_TERM => None,
            id => Some(id),
        }
    }

    /// `dom(µ)` as a bitmask of bound columns.
    pub fn domain_mask(&self) -> u64 {
        domain_mask(self.row)
    }

    /// `µ₁ ∼ µ₂`: agreement on every shared column.
    pub fn compatible(&self, other: &IdMapping<'_>) -> bool {
        rows_compatible(self.row, other.row)
    }
}

#[inline]
fn domain_mask(row: &[TermId]) -> u64 {
    let mut mask = 0u64;
    for (i, &id) in row.iter().enumerate() {
        if id != NO_TERM {
            mask |= 1 << i;
        }
    }
    mask
}

#[inline]
fn rows_compatible(a: &[TermId], b: &[TermId]) -> bool {
    a.iter()
        .zip(b)
        .all(|(&x, &y)| x == NO_TERM || y == NO_TERM || x == y)
}

/// A set of columnar solution rows over one [`VarFrame`] (the id twin
/// of [`MappingSet`]). Row-major dense storage; set semantics are
/// restored by [`IdMappingSet::sort_dedup`] after every bulk operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdMappingSet {
    width: usize,
    data: Vec<TermId>,
}

impl IdMappingSet {
    /// An empty set of `width`-column rows (`width >= 1`; a
    /// zero-variable frame pads its tables to one all-unbound column).
    pub fn new(width: usize) -> IdMappingSet {
        assert!(width >= 1, "columnar tables need at least one column");
        IdMappingSet {
            width,
            data: Vec::new(),
        }
    }

    /// Wraps an already-laid-out column buffer (row-major,
    /// `width`-strided) without copying.
    pub fn from_raw(width: usize, data: Vec<TermId>) -> IdMappingSet {
        assert!(width >= 1, "columnar tables need at least one column");
        assert_eq!(data.len() % width, 0, "buffer must hold whole rows");
        IdMappingSet { width, data }
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row (caller re-establishes set semantics with
    /// [`IdMappingSet::sort_dedup`] when done).
    pub fn push_row(&mut self, row: &[TermId]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[TermId] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates the rows in storage order.
    pub fn rows(&self) -> impl Iterator<Item = &[TermId]> {
        self.data.chunks_exact(self.width)
    }

    /// Keeps only rows satisfying `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&[TermId]) -> bool) {
        let w = self.width;
        let mut write = 0;
        for read in 0..self.len() {
            if keep(&self.data[read * w..(read + 1) * w]) {
                if read != write {
                    self.data.copy_within(read * w..(read + 1) * w, write * w);
                }
                write += 1;
            }
        }
        self.data.truncate(write * w);
    }

    /// Sorts rows lexicographically and removes duplicates, restoring
    /// set semantics after a bulk append/join.
    pub fn sort_dedup(&mut self) {
        let w = self.width;
        let n = self.len();
        if n <= 1 {
            return;
        }
        let d = &self.data;
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            d[a as usize * w..(a as usize + 1) * w].cmp(&d[b as usize * w..(b as usize + 1) * w])
        });
        idx.dedup_by(|a, b| {
            d[*a as usize * w..(*a as usize + 1) * w] == d[*b as usize * w..(*b as usize + 1) * w]
        });
        let mut out = Vec::with_capacity(idx.len() * w);
        for i in idx {
            out.extend_from_slice(&self.data[i as usize * w..(i as usize + 1) * w]);
        }
        self.data = out;
    }

    /// Calls `pair(i, j)` for every compatible pair (row `i` of `self`,
    /// row `j` of `other`): the one kernel under the three operators
    /// below. Both sides are hash-partitioned on the key, the columns
    /// bound in every row of both, where compatible rows must agree. The
    /// chained table is built on the smaller side and probed with the
    /// larger; every candidate still gets the full check, which covers
    /// collisions and the possibly-unbound columns. An empty key makes
    /// one bucket: the nested loop.
    fn compatible_pairs(&self, other: &IdMappingSet, mut pair: impl FnMut(usize, usize)) {
        debug_assert_eq!(self.width, other.width);
        let key: Vec<usize> = (0..self.width)
            .filter(|&c| self.rows().chain(other.rows()).all(|r| r[c] != NO_TERM))
            .collect();
        let hash = |row: &[TermId]| {
            let mut h = FxHasher::default();
            key.iter().for_each(|&c| h.write_u32(row[c]));
            h.finish()
        };
        let swapped = self.len() > other.len();
        let (build, probe) = if swapped {
            (other, self)
        } else {
            (self, other)
        };
        let mut heads: FxHashMap<u64, u32> = FxHashMap::default();
        let mut next = vec![u32::MAX; build.len()];
        for (j, row) in build.rows().enumerate() {
            if let Some(older) = heads.insert(hash(row), j as u32) {
                next[j] = older;
            }
        }
        for (i, a) in probe.rows().enumerate() {
            let mut j = heads.get(&hash(a)).copied().unwrap_or(u32::MAX);
            while j != u32::MAX {
                let b = j as usize;
                if rows_compatible(a, build.row(b)) {
                    let (l, r) = if swapped { (i, b) } else { (b, i) };
                    pair(l, r);
                }
                j = next[b];
            }
        }
    }

    /// Appends `µ₁ ∪ µ₂` for compatible rows `a`, `b`: compatible
    /// columns differ only when one side is unbound, so bitwise-or is
    /// exactly the union.
    fn push_union(&mut self, a: &[TermId], b: &[TermId]) {
        self.data.extend(a.iter().zip(b).map(|(&x, &y)| x | y));
    }

    /// `Ω₁ ⋈ Ω₂`: the unions of every compatible pair.
    pub fn join(&self, other: &IdMappingSet) -> IdMappingSet {
        let mut out = IdMappingSet::new(self.width);
        self.compatible_pairs(other, |i, j| out.push_union(self.row(i), other.row(j)));
        out.sort_dedup();
        out
    }

    /// `Ω₁ ∖ Ω₂`: rows of `self` incompatible with every row of
    /// `other`.
    pub fn difference(&self, other: &IdMappingSet) -> IdMappingSet {
        let mut matched = vec![false; self.len()];
        self.compatible_pairs(other, |i, _| matched[i] = true);
        let mut out = IdMappingSet::new(self.width);
        for (row, _) in self.rows().zip(&matched).filter(|(_, &m)| !m) {
            out.push_row(row);
        }
        // `self` is already sorted + distinct; filtering preserves that.
        out
    }

    /// Left outer join `(Ω₁ ⋈ Ω₂) ∪ (Ω₁ ∖ Ω₂)`, in one kernel pass.
    pub fn left_outer_join(&self, other: &IdMappingSet) -> IdMappingSet {
        let mut out = IdMappingSet::new(self.width);
        let mut matched = vec![false; self.len()];
        self.compatible_pairs(other, |i, j| {
            matched[i] = true;
            out.push_union(self.row(i), other.row(j));
        });
        for (row, _) in self.rows().zip(&matched).filter(|(_, &m)| !m) {
            out.push_row(row);
        }
        out.sort_dedup();
        out
    }

    /// `Ω₁ ∪ Ω₂` (set union).
    pub fn union(&self, other: &IdMappingSet) -> IdMappingSet {
        debug_assert_eq!(self.width, other.width);
        let mut out = self.clone();
        out.data.extend_from_slice(&other.data);
        out.sort_dedup();
        out
    }

    /// `SELECT`: restrict every row to the columns in `keep` (a
    /// per-column mask), then re-deduplicate.
    pub fn project(&self, keep: &[bool]) -> IdMappingSet {
        debug_assert_eq!(keep.len(), self.width);
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.width) {
            for (slot, &k) in row.iter_mut().zip(keep) {
                if !k {
                    *slot = NO_TERM;
                }
            }
        }
        out.sort_dedup();
        out
    }

    /// The maximal rows under proper subsumption (`NS` semantics):
    /// a row dies iff some other row with a strictly larger domain
    /// agrees with it on its own domain.
    ///
    /// Domain-grouped shadow sets (one hash probe per row) when the
    /// distinct domains fit `GROUPED_DOMAIN_LIMIT`, pairwise scan
    /// beyond; pass a pool to fan the per-domain shadow builds out.
    pub fn maximal(&self, pool: Option<&Pool>) -> IdMappingSet {
        let w = self.width;
        let mut by_dom: HashMap<u64, Vec<usize>> = HashMap::new();
        for i in 0..self.len() {
            by_dom.entry(domain_mask(self.row(i))).or_default().push(i);
        }
        if by_dom.len() > GROUPED_DOMAIN_LIMIT {
            return self.maximal_pairwise();
        }
        let doms: Vec<u64> = by_dom.keys().copied().collect();
        // Shadow of domain D: every strictly-larger-domain row,
        // restricted to D. A row over D is properly subsumed iff it
        // appears in D's shadow; restriction of a row to its *own*
        // domain is the row itself, so survival is one set probe.
        let shadow_of = |d: &u64| -> HashSet<Vec<TermId>> {
            let mut shadow = HashSet::new();
            for (&d2, members) in &by_dom {
                if d2 != *d && (d2 & *d) == *d {
                    for &i in members {
                        let mut restricted = self.row(i).to_vec();
                        for (c, slot) in restricted.iter_mut().enumerate() {
                            if *d & (1 << c) == 0 {
                                *slot = NO_TERM;
                            }
                        }
                        shadow.insert(restricted);
                    }
                }
            }
            shadow
        };
        let shadows: Vec<HashSet<Vec<TermId>>> = match pool {
            Some(pool) => pool.map(&doms, shadow_of),
            None => doms.iter().map(shadow_of).collect(),
        };
        let mut out = IdMappingSet::new(w);
        for (d, shadow) in doms.iter().zip(&shadows) {
            for &i in &by_dom[d] {
                if !shadow.contains(self.row(i)) {
                    out.push_row(self.row(i));
                }
            }
        }
        out.sort_dedup();
        out
    }

    fn maximal_pairwise(&self) -> IdMappingSet {
        let n = self.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(domain_mask(self.row(i)).count_ones()));
        let mut out = IdMappingSet::new(self.width);
        for (k, &i) in order.iter().enumerate() {
            let row = self.row(i);
            let dom = domain_mask(row);
            let subsumed = order[..k].iter().any(|&j| {
                let big = self.row(j);
                let dom_big = domain_mask(big);
                dom_big != dom
                    && (dom & dom_big) == dom
                    && row.iter().zip(big).all(|(&a, &b)| a == NO_TERM || a == b)
            });
            if !subsumed {
                out.push_row(row);
            }
        }
        out.sort_dedup();
        out
    }

    /// Decodes every row back to a term-level [`MappingSet`] under one
    /// dictionary read lock — the result boundary.
    pub fn decode(&self, frame: &VarFrame, dict: &TermDict) -> MappingSet {
        debug_assert_eq!(frame.width().max(1), self.width);
        // Frame columns are sorted by variable, so visiting a row in
        // column order yields bindings already in `Mapping`'s sorted
        // order: one exact-size allocation per mapping, no per-pair
        // binary-search inserts.
        let decoded: Vec<Mapping> = dict.with_terms(|terms| {
            self.rows()
                .map(|row| {
                    Mapping::from_sorted_iter(
                        row.iter()
                            .enumerate()
                            .filter(|&(_, &id)| id != NO_TERM)
                            .map(|(c, &id)| (frame.var(c), terms[id as usize - 1])),
                    )
                })
                .collect()
        });
        // Every id-table operator maintains pairwise-distinct rows
        // (joins/unions/projections sort-dedup, extensions preserve
        // distinctness), so the hash table can be skipped outright —
        // building it costs more than the whole query on large results.
        MappingSet::from_distinct_vec(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::Variable;
    use owql_rdf::Iri;

    fn frame(names: &[&str]) -> VarFrame {
        VarFrame::new(names.iter().map(|n| Variable::new(n))).unwrap()
    }

    #[test]
    fn frame_orders_and_dedups() {
        let f =
            VarFrame::new([Variable::new("b"), Variable::new("a"), Variable::new("b")]).unwrap();
        assert_eq!(f.width(), 2);
        assert_eq!(f.col(Variable::new("a")), Some(0));
        assert_eq!(f.col(Variable::new("b")), Some(1));
        assert_eq!(f.col(Variable::new("zz")), None);
    }

    #[test]
    fn frame_rejects_overwide() {
        let wide: Vec<Variable> = (0..65).map(|i| Variable::new(&format!("v{i}"))).collect();
        assert!(VarFrame::new(wide).is_none());
    }

    #[test]
    fn compatibility_and_join() {
        let mut a = IdMappingSet::new(3);
        a.push_row(&[1, 2, 0]);
        a.push_row(&[1, 0, 0]);
        a.sort_dedup();
        let mut b = IdMappingSet::new(3);
        b.push_row(&[1, 0, 3]);
        b.push_row(&[9, 0, 3]);
        b.sort_dedup();
        let j = a.join(&b);
        // [1,2,0]∼[1,0,3] → [1,2,3]; [1,0,0]∼[1,0,3] → [1,0,3];
        // nothing is compatible with [9,0,3] except [1,0,0]? no — col 0
        // differs (1 vs 9), so only the two unions above survive.
        assert_eq!(j.len(), 2);
        assert_eq!(j.row(0), &[1, 0, 3]);
        assert_eq!(j.row(1), &[1, 2, 3]);
    }

    #[test]
    fn difference_keeps_all_incompatible() {
        let mut a = IdMappingSet::new(2);
        a.push_row(&[1, 0]);
        a.push_row(&[2, 0]);
        let mut b = IdMappingSet::new(2);
        b.push_row(&[1, 5]);
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.row(0), &[2, 0]);
    }

    #[test]
    fn project_dedups() {
        let mut a = IdMappingSet::new(2);
        a.push_row(&[1, 7]);
        a.push_row(&[1, 8]);
        let p = a.project(&[true, false]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.row(0), &[1, 0]);
    }

    #[test]
    fn maximal_grouped_matches_pairwise() {
        // {x=1}, {x=1,y=2}, {x=3}, {y=2} → maximal: {x=1,y=2}, {x=3}.
        // ({y=2} is properly subsumed by {x=1,y=2}.)
        let mut s = IdMappingSet::new(2);
        s.push_row(&[1, 0]);
        s.push_row(&[1, 2]);
        s.push_row(&[3, 0]);
        s.push_row(&[0, 2]);
        s.sort_dedup();
        let grouped = s.maximal(None);
        let pairwise = s.maximal_pairwise();
        assert_eq!(grouped, pairwise);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped.row(0), &[1, 2]);
        assert_eq!(grouped.row(1), &[3, 0]);
    }

    #[test]
    fn decode_round_trips_bindings() {
        let dict = TermDict::new();
        let a = dict.intern(Iri::new("a"));
        let b = dict.intern(Iri::new("b"));
        let f = frame(&["x", "y"]);
        let mut s = IdMappingSet::new(2);
        s.push_row(&[a, b]);
        s.push_row(&[a, NO_TERM]);
        s.sort_dedup();
        let decoded = s.decode(&f, &dict);
        assert_eq!(decoded.len(), 2);
        let full = Mapping::from_pairs([
            (Variable::new("x"), Iri::new("a")),
            (Variable::new("y"), Iri::new("b")),
        ]);
        let partial = Mapping::from_pairs([(Variable::new("x"), Iri::new("a"))]);
        assert!(decoded.contains(&full));
        assert!(decoded.contains(&partial));
    }
}
