//! Interned IRIs and RDF triples.
//!
//! The paper (Section 2) assumes an infinite set `I` of IRIs and, for
//! readability, allows every string to be used as an IRI. We intern IRIs
//! in a process-global table so that a term is a 4-byte `Copy` handle:
//! equality and hashing are integer operations, while ordering and display
//! go through the underlying string (so output is deterministic and
//! human-readable).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::{Mutex, OnceLock};

/// Process-global IRI interner.
///
/// Interned strings are leaked to obtain a `'static` lifetime; the total
/// leaked memory is bounded by the number of *distinct* IRIs ever created,
/// which is the standard trade-off for interning in query engines.
struct Interner {
    ids: HashMap<&'static str, NonZeroU32>,
    strings: Vec<&'static str>,
}

/// The id of the next entry of a table holding `len`: ids are `1..`,
/// so the `u32::MAX`-th entry is the last one that fits. Past it the
/// interner panics rather than wrap onto an existing id.
fn next_id(len: usize) -> NonZeroU32 {
    u32::try_from(len + 1)
        .ok()
        .and_then(NonZeroU32::new)
        .expect("interner id overflow")
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            ids: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// An International Resource Identifier, interned globally.
///
/// Construction is via [`Iri::new`] (or `From<&str>`); the original text
/// is recovered with [`Iri::as_str`]. Two `Iri`s are equal iff their text
/// is equal. `Ord` compares the underlying strings, so sorted collections
/// of IRIs iterate in lexicographic order.
///
/// ```
/// use owql_rdf::Iri;
/// let a = Iri::new("founder");
/// let b = Iri::new("founder");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "founder");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Iri(NonZeroU32);

impl Iri {
    /// Interns `text` and returns its handle.
    pub fn new(text: &str) -> Self {
        let mut guard = interner().lock().expect("IRI interner poisoned");
        if let Some(&id) = guard.ids.get(text) {
            return Iri(id);
        }
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let id = next_id(guard.strings.len());
        guard.ids.insert(leaked, id);
        guard.strings.push(leaked);
        Iri(id)
    }

    /// Returns the IRI text.
    ///
    /// Resolution goes through a per-thread snapshot of the id → text
    /// table: ids are dense and append-only and the texts are
    /// `'static`, so any id below the snapshot length resolves without
    /// the global lock. A miss (an IRI interned since the snapshot)
    /// refreshes the snapshot under the lock. This keeps `as_str` —
    /// and through it `Ord`/`Display` — off the interner mutex on hot
    /// paths like sorting and serialization.
    pub fn as_str(self) -> &'static str {
        thread_local! {
            static RESOLVED: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        }
        let idx = self.0.get() as usize - 1;
        RESOLVED.with(|cache| {
            if let Some(&text) = cache.borrow().get(idx) {
                return text;
            }
            let guard = interner().lock().expect("IRI interner poisoned");
            let mut cache = cache.borrow_mut();
            cache.clear();
            cache.extend_from_slice(&guard.strings);
            cache[idx]
        })
    }

    /// Returns the dense interner id (useful as an array index).
    pub fn id(self) -> u32 {
        self.0.get()
    }
}

impl From<&str> for Iri {
    fn from(text: &str) -> Self {
        Iri::new(text)
    }
}

impl From<&String> for Iri {
    fn from(text: &String) -> Self {
        Iri::new(text)
    }
}

impl PartialOrd for Iri {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Iri {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// An RDF triple `(subject, predicate, object)` over interned IRIs.
///
/// Triples are `Copy` (12 bytes) and ordered lexicographically by
/// subject, then predicate, then object text — so sorted triple lists are
/// deterministic across runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// The subject of the triple.
    pub s: Iri,
    /// The predicate of the triple.
    pub p: Iri,
    /// The object of the triple.
    pub o: Iri,
}

impl Triple {
    /// Builds a triple from anything convertible to [`Iri`].
    pub fn new(s: impl Into<Iri>, p: impl Into<Iri>, o: impl Into<Iri>) -> Self {
        Triple {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    /// Returns the three components as an array `[s, p, o]`.
    pub fn components(self) -> [Iri; 3] {
        [self.s, self.p, self.o]
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.s, self.p, self.o)
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.s, self.p, self.o)
    }
}

/// Convenience constructor: `triple("a", "b", "c")`.
pub fn triple(s: impl Into<Iri>, p: impl Into<Iri>, o: impl Into<Iri>) -> Triple {
    Triple::new(s, p, o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_id_takes_the_last_u32() {
        assert_eq!(next_id(0).get(), 1);
        assert_eq!(next_id(u32::MAX as usize - 1).get(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "interner id overflow")]
    fn next_id_refuses_a_full_table() {
        next_id(u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "interner id overflow")]
    fn next_id_refuses_past_a_full_table() {
        next_id(u32::MAX as usize + 1);
    }
    use std::collections::HashSet;

    #[test]
    fn interning_is_idempotent() {
        let a = Iri::new("alpha-term");
        let b = Iri::new("alpha-term");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "alpha-term");
    }

    #[test]
    fn distinct_text_distinct_iri() {
        assert_ne!(Iri::new("x-one"), Iri::new("x-two"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse order to make sure Ord is not by id.
        let z = Iri::new("zzz-order");
        let a = Iri::new("aaa-order");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn triple_equality_and_hash() {
        let t1 = triple("s", "p", "o");
        let t2 = Triple::new("s", "p", "o");
        assert_eq!(t1, t2);
        let mut set = HashSet::new();
        set.insert(t1);
        assert!(set.contains(&t2));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn triple_ordering() {
        let a = triple("a", "b", "c");
        let b = triple("a", "b", "d");
        let c = triple("a", "c", "a");
        let d = triple("b", "a", "a");
        let mut v = vec![d, c, b, a];
        v.sort();
        assert_eq!(v, vec![a, b, c, d]);
    }

    #[test]
    fn display_formats() {
        let t = triple("s", "p", "o");
        assert_eq!(format!("{t}"), "(s, p, o)");
        assert_eq!(format!("{t:?}"), "(s, p, o)");
    }

    #[test]
    fn components_roundtrip() {
        let t = triple("s", "p", "o");
        let [s, p, o] = t.components();
        assert_eq!(Triple { s, p, o }, t);
    }

    #[test]
    fn iri_is_small_and_copy() {
        assert_eq!(std::mem::size_of::<Iri>(), 4);
        assert_eq!(std::mem::size_of::<Triple>(), 12);
        assert_eq!(std::mem::size_of::<Option<Iri>>(), 4); // NonZero niche
    }
}
