//! Sets of solution mappings and the paper's operations on them.
//!
//! Section 2.1 defines, for sets of mappings `Ω₁`, `Ω₂`:
//!
//! * join       `Ω₁ ⋈ Ω₂ = { µ₁ ∪ µ₂ | µ₁ ∈ Ω₁, µ₂ ∈ Ω₂, µ₁ ∼ µ₂ }`,
//! * union      `Ω₁ ∪ Ω₂`,
//! * difference `Ω₁ ∖ Ω₂ = { µ ∈ Ω₁ | ∀ µ' ∈ Ω₂ : µ ≁ µ' }`,
//! * left-outer-join `Ω₁ ⟕ Ω₂ = (Ω₁ ⋈ Ω₂) ∪ (Ω₁ ∖ Ω₂)`.
//!
//! Section 5.1 adds the maximal-answer operation behind the NS operator:
//! `Ω^max` keeps the mappings not properly subsumed by another member.
//! Section 3.1 defines set subsumption `Ω₁ ⊑ Ω₂` (every `µ₁ ∈ Ω₁` is
//! subsumed by some `µ₂ ∈ Ω₂`), the heart of weak monotonicity.

use crate::condition::Condition;
use crate::mapping::Mapping;
use crate::variable::Variable;
use owql_rdf::FxHashSet;
use std::collections::hash_set;
use std::collections::BTreeSet;
use std::fmt;

/// The backing storage of a [`MappingSet`].
///
/// `Hashed` is the general form. `Distinct` is a flat vector whose
/// elements are pairwise distinct *by construction* — the columnar
/// evaluator's decode produces it, because materializing answer sets
/// through a hash table costs more than the rest of the query on large
/// results. Mutating operations promote `Distinct` to `Hashed` in
/// place; read-only operations work on either form.
#[derive(Clone)]
enum Repr {
    Hashed(FxHashSet<Mapping>),
    Distinct(Vec<Mapping>),
}

/// A finite set of solution mappings (set semantics, as in the paper).
#[derive(Clone)]
pub struct MappingSet {
    repr: Repr,
}

impl Default for MappingSet {
    fn default() -> Self {
        MappingSet {
            repr: Repr::Hashed(FxHashSet::default()),
        }
    }
}

/// Borrowed iterator over a [`MappingSet`] (unspecified order).
#[derive(Clone)]
pub enum Iter<'a> {
    Hashed(hash_set::Iter<'a, Mapping>),
    Distinct(std::slice::Iter<'a, Mapping>),
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Mapping;
    fn next(&mut self) -> Option<&'a Mapping> {
        match self {
            Iter::Hashed(it) => it.next(),
            Iter::Distinct(it) => it.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Hashed(it) => it.size_hint(),
            Iter::Distinct(it) => it.size_hint(),
        }
    }
}

/// Owning iterator over a [`MappingSet`] (unspecified order).
pub enum IntoIter {
    Hashed(hash_set::IntoIter<Mapping>),
    Distinct(std::vec::IntoIter<Mapping>),
}

impl Iterator for IntoIter {
    type Item = Mapping;
    fn next(&mut self) -> Option<Mapping> {
        match self {
            IntoIter::Hashed(it) => it.next(),
            IntoIter::Distinct(it) => it.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoIter::Hashed(it) => it.size_hint(),
            IntoIter::Distinct(it) => it.size_hint(),
        }
    }
}

impl MappingSet {
    /// The empty set of mappings (the answer of an unmatched pattern).
    pub fn new() -> Self {
        MappingSet::default()
    }

    /// The singleton `{µ∅}` containing just the empty mapping (the
    /// neutral element of `⋈`).
    pub fn unit() -> Self {
        let mut s = MappingSet::new();
        s.insert(Mapping::new());
        s
    }

    /// Builds a set from an iterator of mappings (duplicates collapse).
    pub fn from_iter_mappings(iter: impl IntoIterator<Item = Mapping>) -> Self {
        MappingSet {
            repr: Repr::Hashed(iter.into_iter().collect()),
        }
    }

    /// Builds a set from mappings that are already pairwise distinct,
    /// skipping hash-table construction entirely (the caller guarantees
    /// distinctness; it is debug-asserted). This is the result boundary
    /// of the columnar evaluator, where the id table's rows are distinct
    /// by the set semantics of every operator.
    pub fn from_distinct_vec(v: Vec<Mapping>) -> Self {
        debug_assert!(
            {
                let set: FxHashSet<&Mapping> = v.iter().collect();
                set.len() == v.len()
            },
            "from_distinct_vec called with duplicate mappings"
        );
        MappingSet {
            repr: Repr::Distinct(v),
        }
    }

    /// The hashed form, promoting a distinct vector in place.
    fn as_hashed(&mut self) -> &mut FxHashSet<Mapping> {
        if let Repr::Distinct(v) = &mut self.repr {
            let set: FxHashSet<Mapping> = std::mem::take(v).into_iter().collect();
            self.repr = Repr::Hashed(set);
        }
        match &mut self.repr {
            Repr::Hashed(set) => set,
            Repr::Distinct(_) => unreachable!("promoted above"),
        }
    }

    /// Inserts a mapping; returns `true` if it was new.
    pub fn insert(&mut self, m: Mapping) -> bool {
        self.as_hashed().insert(m)
    }

    /// Membership test — the core of the paper's evaluation problem
    /// (`Is µ ∈ ⟦P⟧G?`, Section 7).
    pub fn contains(&self, m: &Mapping) -> bool {
        match &self.repr {
            Repr::Hashed(set) => set.contains(m),
            Repr::Distinct(v) => v.contains(m),
        }
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Hashed(set) => set.len(),
            Repr::Distinct(v) => v.len(),
        }
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates in unspecified order.
    pub fn iter(&self) -> Iter<'_> {
        match &self.repr {
            Repr::Hashed(set) => Iter::Hashed(set.iter()),
            Repr::Distinct(v) => Iter::Distinct(v.iter()),
        }
    }

    /// The mappings sorted (deterministic tabular output).
    pub fn iter_sorted(&self) -> Vec<Mapping> {
        let mut v: Vec<Mapping> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// Join `Ω₁ ⋈ Ω₂`.
    pub fn join(&self, other: &MappingSet) -> MappingSet {
        // Iterate the smaller side in the outer loop for fewer probes.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = MappingSet::new();
        for m1 in small.iter() {
            for m2 in large.iter() {
                if let Some(u) = m1.union(m2) {
                    out.insert(u);
                }
            }
        }
        out
    }

    /// Union `Ω₁ ∪ Ω₂`.
    pub fn union(&self, other: &MappingSet) -> MappingSet {
        let mut out = self.clone();
        for m in other.iter() {
            out.insert(m.clone());
        }
        out
    }

    /// Difference `Ω₁ ∖ Ω₂`: the mappings of `Ω₁` incompatible with
    /// *every* mapping of `Ω₂`.
    ///
    /// Note this is the paper's (SPARQL) difference, *not* set minus: a
    /// mapping of `Ω₁` that is merely absent from `Ω₂` but compatible
    /// with one of its members is removed.
    pub fn difference(&self, other: &MappingSet) -> MappingSet {
        let mut out = MappingSet::new();
        for m in self.iter() {
            if other.iter().all(|m2| !m.compatible(m2)) {
                out.insert(m.clone());
            }
        }
        out
    }

    /// Left-outer-join `Ω₁ ⟕ Ω₂ = (Ω₁ ⋈ Ω₂) ∪ (Ω₁ ∖ Ω₂)` — the
    /// semantics of `OPT`.
    pub fn left_outer_join(&self, other: &MappingSet) -> MappingSet {
        self.join(other).union(&self.difference(other))
    }

    /// Projection: `{ µ|V : µ ∈ Ω }` — the semantics of `SELECT`.
    pub fn project(&self, vars: &BTreeSet<Variable>) -> MappingSet {
        MappingSet::from_iter_mappings(self.iter().map(|m| m.restrict(vars)))
    }

    /// Selection: `{ µ ∈ Ω : µ ⊨ R }` — the semantics of `FILTER`.
    pub fn filter(&self, cond: &Condition) -> MappingSet {
        MappingSet::from_iter_mappings(self.iter().filter(|m| cond.satisfied_by(m)).cloned())
    }

    /// The maximal answers `Ω^max` (Section 5.1): mappings not *properly*
    /// subsumed by another member — the semantics of `NS`.
    ///
    /// Quadratic pairwise comparison with a domain-size pre-sort: a
    /// mapping can only be subsumed by one with a strictly larger domain,
    /// so each candidate is compared against larger mappings only. Tests
    /// hold it to the naive all-pairs variant
    /// ([`MappingSet::maximal_naive`]).
    pub fn maximal(&self) -> MappingSet {
        let mut by_size: Vec<&Mapping> = self.iter().collect();
        by_size.sort_by_key(|m| std::cmp::Reverse(m.len()));
        let mut out = MappingSet::new();
        for (i, m) in by_size.iter().enumerate() {
            let subsumed = by_size[..i]
                .iter()
                .any(|bigger| m.properly_subsumed_by(bigger));
            if !subsumed {
                out.insert((*m).clone());
            }
        }
        out
    }

    /// All-pairs reference implementation of [`MappingSet::maximal`]
    /// (kept as a test oracle).
    pub fn maximal_naive(&self) -> MappingSet {
        MappingSet::from_iter_mappings(
            self.iter()
                .filter(|m| !self.iter().any(|m2| m.properly_subsumed_by(m2)))
                .cloned(),
        )
    }

    /// `true` iff some member properly subsumes `m`.
    pub fn properly_subsumes(&self, m: &Mapping) -> bool {
        self.iter().any(|m2| m.properly_subsumed_by(m2))
    }

    /// Set subsumption `Ω₁ ⊑ Ω₂` (Section 3.1): every mapping of `self`
    /// is subsumed by some mapping of `other`. The relation behind weak
    /// monotonicity (Definition 3.2) and subsumption equivalence `≡s`.
    pub fn subsumed_by(&self, other: &MappingSet) -> bool {
        self.iter()
            .all(|m| other.iter().any(|m2| m.subsumed_by(m2)))
    }

    /// Plain set inclusion `Ω₁ ⊆ Ω₂` (the relation behind monotonicity).
    pub fn subset_of(&self, other: &MappingSet) -> bool {
        self.len() <= other.len() && self.iter().all(|m| other.contains(m))
    }

    /// `true` iff `Ω = Ω^max`, i.e. the set carries no properly subsumed
    /// member (the pointwise version of subsumption-freeness, §5.2).
    pub fn is_subsumption_free(&self) -> bool {
        !self
            .iter()
            .any(|m| self.iter().any(|m2| m.properly_subsumed_by(m2)))
    }
}

impl PartialEq for MappingSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Hashed(a), Repr::Hashed(b)) => a == b,
            // Equal length plus distinct elements: inclusion one way is
            // equality.
            (Repr::Hashed(set), Repr::Distinct(v)) | (Repr::Distinct(v), Repr::Hashed(set)) => {
                v.iter().all(|m| set.contains(m))
            }
            (Repr::Distinct(a), Repr::Distinct(b)) => {
                let mut a: Vec<&Mapping> = a.iter().collect();
                let mut b: Vec<&Mapping> = b.iter().collect();
                a.sort_unstable();
                b.sort_unstable();
                a == b
            }
        }
    }
}

impl Eq for MappingSet {}

impl FromIterator<Mapping> for MappingSet {
    fn from_iter<T: IntoIterator<Item = Mapping>>(iter: T) -> Self {
        MappingSet::from_iter_mappings(iter)
    }
}

impl IntoIterator for MappingSet {
    type Item = Mapping;
    type IntoIter = IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        match self.repr {
            Repr::Hashed(set) => IntoIter::Hashed(set.into_iter()),
            Repr::Distinct(v) => IntoIter::Distinct(v.into_iter()),
        }
    }
}

impl<'a> IntoIterator for &'a MappingSet {
    type Item = &'a Mapping;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for MappingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, m) in self.iter_sorted().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

/// Builds a mapping set from slices of string pairs (test helper).
///
/// `mapping_set(&[&[("X", "a")], &[("X", "b"), ("Y", "c")]])` is the set
/// `{[?X → a], [?X → b, ?Y → c]}`.
pub fn mapping_set(rows: &[&[(&str, &str)]]) -> MappingSet {
    rows.iter()
        .map(|row| Mapping::from_str_pairs(row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_empty() {
        assert_eq!(MappingSet::new().len(), 0);
        assert!(MappingSet::new().is_empty());
        let u = MappingSet::unit();
        assert_eq!(u.len(), 1);
        assert!(u.contains(&Mapping::new()));
    }

    #[test]
    fn join_basic() {
        // Example 2.2 shape: one mapping joined against four compatible ones.
        let left = mapping_set(&[&[("o", "TPB")]]);
        let right = mapping_set(&[
            &[("p", "Gottfrid"), ("o", "TPB")],
            &[("p", "Fredrik"), ("o", "TPB")],
            &[("p", "Peter"), ("o", "TPB")],
            &[("p", "Carl"), ("o", "OTHER")],
        ]);
        let j = left.join(&right);
        assert_eq!(j.len(), 3);
        assert!(j.contains(&Mapping::from_str_pairs(&[("p", "Peter"), ("o", "TPB")])));
        assert!(!j.contains(&Mapping::from_str_pairs(&[("p", "Carl"), ("o", "OTHER")])));
    }

    #[test]
    fn join_with_unit_is_identity() {
        let s = mapping_set(&[&[("X", "a")], &[("Y", "b")]]);
        assert_eq!(s.join(&MappingSet::unit()), s);
        assert_eq!(MappingSet::unit().join(&s), s);
    }

    #[test]
    fn join_with_empty_is_empty() {
        let s = mapping_set(&[&[("X", "a")]]);
        assert!(s.join(&MappingSet::new()).is_empty());
    }

    #[test]
    fn join_is_commutative() {
        let a = mapping_set(&[&[("X", "1")], &[("X", "2"), ("Y", "3")]]);
        let b = mapping_set(&[&[("Y", "3")], &[("Z", "4")]]);
        assert_eq!(a.join(&b), b.join(&a));
    }

    #[test]
    fn difference_requires_incompatibility() {
        let a = mapping_set(&[&[("X", "1")], &[("X", "2")]]);
        let b = mapping_set(&[&[("X", "1"), ("Y", "9")]]);
        // [?X->1] is compatible with the member of b, so removed;
        // [?X->2] is incompatible, so kept.
        let d = a.difference(&b);
        assert_eq!(d, mapping_set(&[&[("X", "2")]]));
    }

    #[test]
    fn difference_with_empty_keeps_all() {
        let a = mapping_set(&[&[("X", "1")]]);
        assert_eq!(a.difference(&MappingSet::new()), a);
    }

    #[test]
    fn difference_with_empty_mapping_removes_all() {
        let a = mapping_set(&[&[("X", "1")], &[("Y", "2")]]);
        assert!(a.difference(&MappingSet::unit()).is_empty());
    }

    #[test]
    fn left_outer_join_example_3_1_shape() {
        // ⟦(?X,born,Chile) OPT (?X,email,?Y)⟧ with and without the email.
        let left = mapping_set(&[&[("X", "Juan")]]);
        let no_email = MappingSet::new();
        let with_email = mapping_set(&[&[("X", "Juan"), ("Y", "juan@puc.cl")]]);
        assert_eq!(left.left_outer_join(&no_email), left);
        assert_eq!(left.left_outer_join(&with_email), with_email);
    }

    #[test]
    fn left_outer_join_mixes_matched_and_unmatched() {
        let left = mapping_set(&[&[("X", "1")], &[("X", "2")]]);
        let right = mapping_set(&[&[("X", "1"), ("Y", "a")]]);
        let l = left.left_outer_join(&right);
        assert_eq!(l, mapping_set(&[&[("X", "1"), ("Y", "a")], &[("X", "2")]]));
    }

    #[test]
    fn project_drops_variables() {
        let s = mapping_set(&[&[("X", "1"), ("Y", "2")], &[("X", "1"), ("Y", "3")]]);
        let vars: BTreeSet<Variable> = [Variable::new("X")].into_iter().collect();
        let p = s.project(&vars);
        // Both rows collapse to the same projection (set semantics).
        assert_eq!(p, mapping_set(&[&[("X", "1")]]));
    }

    #[test]
    fn maximal_keeps_only_unsubsumed() {
        let s = mapping_set(&[&[("X", "1")], &[("X", "1"), ("Y", "2")], &[("X", "3")]]);
        let max = s.maximal();
        assert_eq!(
            max,
            mapping_set(&[&[("X", "1"), ("Y", "2")], &[("X", "3")]])
        );
        assert_eq!(max, s.maximal_naive());
        assert!(max.is_subsumption_free());
        assert!(!s.is_subsumption_free());
    }

    #[test]
    fn maximal_agrees_with_naive_on_chains() {
        let s = mapping_set(&[
            &[],
            &[("A", "1")],
            &[("A", "1"), ("B", "2")],
            &[("A", "1"), ("B", "2"), ("C", "3")],
            &[("A", "9")],
        ]);
        assert_eq!(s.maximal(), s.maximal_naive());
        assert_eq!(s.maximal().len(), 2);
    }

    #[test]
    fn subsumption_relation_on_sets() {
        // Ω1 ⊑ Ω2 from Example 3.1.
        let o1 = mapping_set(&[&[("X", "Juan")]]);
        let o2 = mapping_set(&[&[("X", "Juan"), ("Y", "juan@puc.cl")]]);
        assert!(o1.subsumed_by(&o2));
        assert!(!o2.subsumed_by(&o1));
        assert!(!o1.subset_of(&o2));
        // ⊑ is reflexive; the empty set is subsumed by anything.
        assert!(o1.subsumed_by(&o1));
        assert!(MappingSet::new().subsumed_by(&o1));
        assert!(!o1.subsumed_by(&MappingSet::new()));
    }

    #[test]
    fn properly_subsumes_lookup() {
        let s = mapping_set(&[&[("X", "1"), ("Y", "2")]]);
        assert!(s.properly_subsumes(&Mapping::from_str_pairs(&[("X", "1")])));
        assert!(!s.properly_subsumes(&Mapping::from_str_pairs(&[("X", "1"), ("Y", "2")])));
        assert!(!s.properly_subsumes(&Mapping::from_str_pairs(&[("X", "9")])));
    }

    #[test]
    fn debug_is_sorted_and_stable() {
        let s = mapping_set(&[&[("B", "2")], &[("A", "1")]]);
        assert_eq!(format!("{s:?}"), "{[?A -> 1], [?B -> 2]}");
    }
}
