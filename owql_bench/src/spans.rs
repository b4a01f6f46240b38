//! The benchmark's own span recorder: one span per call into a layer,
//! kept in memory and written out when the run ends. Spans are taken
//! from outside the program, around its public calls; spans inside the
//! program are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request (round, commit, cycle) share this id.
    pub request: u32,
}

/// Records spans against one clock origin. A disabled tracer runs the
/// same closures without touching the clock or the buffer — the
/// untraced leg of the overhead comparison.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`]. Returns `None`
    /// when disabled.
    pub fn enter(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Per-name totals over a span buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    /// Wall time of the spans.
    pub total_ns: u64,
    /// Wall time minus the part their child spans cover.
    pub self_ns: u64,
}

/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover (overlapping children are counted
/// once, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = s.end_ns - s.start_ns;
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("leaf", 45, 50, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["a"].self_ns, 20);
        assert_eq!(t["b"].self_ns, 25);
        assert_eq!(t["leaf"].self_ns, 5);
        // Self times of a tree sum to the root's wall time.
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 10, 60, None),
            span("kid", 0, 30, Some(0)),  // starts before the parent
            span("kid", 20, 40, Some(0)), // overlaps its sibling
            span("kid", 55, 90, Some(0)), // ends after the parent
        ];
        let t = self_times(&spans);
        // Cover inside the parent: [10,40) and [55,60) = 35.
        assert_eq!(t["root"].self_ns, 15);
        assert_eq!(t["kid"].count, 3);
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.enter("root", None, 3);
        t.span("x", root, 3, || ());
        t.exit(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
