//! Interned query variables.
//!
//! The paper assumes an infinite set `V` of variables, disjoint from the
//! IRIs and written with a `?` prefix (`?X`, `?Y`, ...). Variables are
//! interned exactly like IRIs (but in a separate table, preserving the
//! disjointness of `V` and `I`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::{Mutex, OnceLock};

struct Interner {
    ids: HashMap<&'static str, NonZeroU32>,
    names: Vec<&'static str>,
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
            names: Vec::new(),
        })
    })
}

/// A query variable, interned globally.
///
/// The name is stored *without* the `?` prefix; `Display` adds it back.
/// `Variable::new` accepts both `"X"` and `"?X"`.
///
/// ```
/// use owql_algebra::Variable;
/// let x = Variable::new("X");
/// assert_eq!(x, Variable::new("?X"));
/// assert_eq!(x.to_string(), "?X");
/// assert_eq!(x.name(), "X");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variable(NonZeroU32);

impl Variable {
    /// Interns the variable named `name` (a leading `?` is stripped).
    pub fn new(name: &str) -> Self {
        let name = name.strip_prefix('?').unwrap_or(name);
        assert!(!name.is_empty(), "variable name must be non-empty");
        let mut guard = interner().lock().expect("variable interner poisoned");
        if let Some(&id) = guard.ids.get(name) {
            return Variable(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = next_id(guard.names.len());
        guard.ids.insert(leaked, id);
        guard.names.push(leaked);
        Variable(id)
    }

    /// The dense interner id (an equality witness; ordering still goes
    /// through the name).
    pub(crate) fn id(self) -> u32 {
        self.0.get()
    }

    /// The variable name without the `?` prefix.
    ///
    /// Resolution uses a per-thread snapshot of the id → name table
    /// (ids are dense and append-only, names are `'static`), so only a
    /// miss on a freshly interned variable touches the global lock.
    pub fn name(self) -> &'static str {
        thread_local! {
            static RESOLVED: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        }
        let idx = self.0.get() as usize - 1;
        RESOLVED.with(|cache| {
            if let Some(&name) = cache.borrow().get(idx) {
                return name;
            }
            let guard = interner().lock().expect("variable interner poisoned");
            let mut cache = cache.borrow_mut();
            cache.clear();
            cache.extend_from_slice(&guard.names);
            cache[idx]
        })
    }
}

impl From<&str> for Variable {
    fn from(name: &str) -> Self {
        Variable::new(name)
    }
}

impl PartialOrd for Variable {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Variable {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.name().cmp(other.name())
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.name())
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.name())
    }
}

/// Convenience constructor: `var("X")` or `var("?X")`.
pub fn var(name: &str) -> Variable {
    Variable::new(name)
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

    #[test]
    fn interning_strips_question_mark() {
        assert_eq!(Variable::new("?Q1"), Variable::new("Q1"));
    }

    #[test]
    fn distinct_names_distinct_vars() {
        assert_ne!(var("vt-a"), var("vt-b"));
    }

    #[test]
    fn ordering_is_by_name() {
        let b = var("vo-b");
        let a = var("vo-a");
        assert!(a < b);
    }

    #[test]
    fn display_has_prefix() {
        assert_eq!(format!("{}", var("Z")), "?Z");
        assert_eq!(format!("{:?}", var("Z")), "?Z");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_panics() {
        var("?");
    }
}
