//! Trace profiling: span-tree analysis of a recorded trace.
//!
//! [`crate::Summary`] renders what a trace *contains*; [`Profile`]
//! answers where the logical time *went*: per-span-kind self/total
//! ticks, the critical path through the span DAG, and a collapsed
//! flame-stack rendering (one `a;b;c self_ticks` line per unique stack,
//! the format flamegraph tooling consumes).
//!
//! All arithmetic is on logical ticks, so profiling a `run_all --trace`
//! artifact is deterministic: equal traces produce byte-equal profiles.
//! Degenerate inputs never panic — empty traces, unclosed spans, orphan
//! parents, and exits without a matching enter all become counted
//! diagnostics in the rendered output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::Record;
use crate::summary::{parse_jsonl, TraceError};
use crate::tree::SpanTree;

/// Aggregated timing for one span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of total (inclusive) ticks.
    pub total_ticks: u64,
    /// Sum of self (exclusive) ticks: total minus direct children.
    pub self_ticks: u64,
}

/// One hop on the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Inclusive ticks of this span instance.
    pub total_ticks: u64,
    /// Exclusive ticks of this span instance.
    pub self_ticks: u64,
}

/// A profiled span tree built from a record stream.
#[derive(Debug, Clone)]
pub struct Profile {
    tree: SpanTree,
    total_records: u64,
    /// Highest clock in the trace: unclosed spans last until it.
    max_clock: u64,
    /// Spans entered but never exited (totals fall back to the ticks
    /// elapsed up to the highest clock in the trace).
    pub unclosed_spans: u64,
    /// Spans whose `parent` id never appeared as a span enter; they are
    /// profiled as roots.
    pub orphan_parents: u64,
    /// Span exits with no open span to close; dropped from the tree.
    pub unmatched_exits: u64,
}

impl Profile {
    /// Builds a profile from in-memory records.
    pub fn from_records(records: &[Record]) -> Profile {
        let tree = SpanTree::from_records(records);
        Profile {
            total_records: records.len() as u64,
            max_clock: records.iter().map(|r| r.clock).max().unwrap_or(0),
            unclosed_spans: tree.unclosed_spans,
            orphan_parents: tree.orphan_parents,
            unmatched_exits: tree.unmatched_exits,
            tree,
        }
    }

    /// Parses a JSONL trace and profiles it.
    pub fn from_jsonl(text: &str) -> Result<Profile, TraceError> {
        Ok(Profile::from_records(&parse_jsonl(text)?))
    }

    /// Number of records the profile was built from.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Number of spans in the tree.
    pub fn span_count(&self) -> usize {
        self.tree.nodes.len()
    }

    /// Inclusive ticks of span `idx`; an unclosed span lasts until the
    /// highest clock in the trace, so partial traces profile.
    fn total(&self, idx: usize) -> u64 {
        let n = &self.tree.nodes[idx];
        n.exit
            .map_or(self.max_clock.saturating_sub(n.enter_clock), |e| e.ticks)
    }

    fn self_ticks(&self, idx: usize) -> u64 {
        let children: u64 = self.tree.nodes[idx]
            .children
            .iter()
            .map(|&c| self.total(c))
            .sum();
        self.total(idx).saturating_sub(children)
    }

    /// Per-span-name aggregates, keyed by name (BTreeMap order).
    pub fn by_name(&self) -> BTreeMap<String, SpanStats> {
        let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
        for idx in 0..self.tree.nodes.len() {
            let e = out.entry(self.tree.nodes[idx].name.clone()).or_default();
            e.count += 1;
            e.total_ticks += self.total(idx);
            e.self_ticks += self.self_ticks(idx);
        }
        out
    }

    /// Picks among `candidates` the index with the largest total, ties
    /// broken by smaller span id (deterministic for merged traces).
    fn heaviest(&self, candidates: &[usize]) -> Option<usize> {
        candidates.iter().copied().min_by(|&a, &b| {
            self.total(b)
                .cmp(&self.total(a))
                .then(self.tree.nodes[a].id.cmp(&self.tree.nodes[b].id))
        })
    }

    /// The critical path: from the heaviest root, repeatedly descend
    /// into the heaviest child. Empty when the trace has no spans.
    pub fn critical_path(&self) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut cur = self.heaviest(&self.tree.roots());
        while let Some(idx) = cur {
            path.push(PathStep {
                name: self.tree.nodes[idx].name.clone(),
                total_ticks: self.total(idx),
                self_ticks: self.self_ticks(idx),
            });
            cur = self.heaviest(&self.tree.nodes[idx].children);
        }
        path
    }

    /// Collapsed flame stacks: one `a;b;c self_ticks` line per unique
    /// root-to-span stack, aggregated and sorted by stack string.
    pub fn flame_stacks(&self) -> Vec<String> {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        let mut work: Vec<(usize, String)> = self
            .tree
            .roots()
            .into_iter()
            .map(|r| (r, self.tree.nodes[r].name.clone()))
            .collect();
        while let Some((idx, stack)) = work.pop() {
            *agg.entry(stack.clone()).or_default() += self.self_ticks(idx);
            for &c in &self.tree.nodes[idx].children {
                work.push((c, format!("{stack};{}", self.tree.nodes[c].name)));
            }
        }
        agg.into_iter()
            .map(|(stack, ticks)| format!("{stack} {ticks}"))
            .collect()
    }

    /// Renders the full profile report: per-name table, critical path,
    /// flame stacks, and any degenerate-input diagnostics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} records, {} spans",
            self.total_records,
            self.tree.nodes.len()
        );
        if self.unclosed_spans > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} unclosed span(s); totals use elapsed-to-end fallback",
                self.unclosed_spans
            );
        }
        if self.orphan_parents > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} span(s) with unknown parent; profiled as roots",
                self.orphan_parents
            );
        }
        if self.unmatched_exits > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} span exit(s) without a matching enter; dropped",
                self.unmatched_exits
            );
        }
        if self.tree.nodes.is_empty() {
            let _ = writeln!(out, "  (no spans to profile)");
            return out;
        }

        let _ = writeln!(out, "== span timing (ticks) ==");
        let _ = writeln!(
            out,
            "  {:<32} {:>8} {:>12} {:>12}",
            "name", "count", "total", "self"
        );
        // Heaviest-total first; name breaks ties so the table is stable.
        let mut rows: Vec<(String, SpanStats)> = self.by_name().into_iter().collect();
        rows.sort_by(|a, b| b.1.total_ticks.cmp(&a.1.total_ticks).then(a.0.cmp(&b.0)));
        for (name, s) in rows {
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>12} {:>12}",
                name, s.count, s.total_ticks, s.self_ticks
            );
        }

        let _ = writeln!(out, "== critical path ==");
        for (depth, step) in self.critical_path().iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}{} total={} self={}",
                "  ".repeat(depth),
                step.name,
                step.total_ticks,
                step.self_ticks
            );
        }

        let _ = writeln!(out, "== flame (collapsed stacks) ==");
        for line in self.flame_stacks() {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Telemetry;
    use crate::record::{Field, Kind};
    use crate::tree::spans;

    fn traced() -> Vec<Record> {
        let (tel, sink) = Telemetry::memory();
        let outer = tel.span_open("session", vec![]);
        tel.advance_clock(1);
        let a = tel.span_open("propose", vec![]);
        tel.advance_clock(3);
        tel.span_close(a);
        let b = tel.span_open("observe", vec![]);
        tel.advance_clock(5);
        tel.span_close(b);
        tel.advance_clock(1);
        tel.span_close(outer);
        sink.take()
    }

    #[test]
    fn totals_and_self_ticks() {
        let p = Profile::from_records(&traced());
        let by = p.by_name();
        assert_eq!(by["session"].total_ticks, 10);
        assert_eq!(by["session"].self_ticks, 2);
        assert_eq!(by["propose"].total_ticks, 3);
        assert_eq!(by["observe"].total_ticks, 5);
        assert_eq!(p.unclosed_spans, 0);
        assert_eq!(p.orphan_parents, 0);
    }

    #[test]
    fn critical_path_descends_heaviest_child() {
        let p = Profile::from_records(&traced());
        let path = p.critical_path();
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["session", "observe"]);
    }

    #[test]
    fn flame_stacks_collapse() {
        let p = Profile::from_records(&traced());
        assert_eq!(
            p.flame_stacks(),
            vec![
                "session 2".to_string(),
                "session;observe 5".to_string(),
                "session;propose 3".to_string(),
            ]
        );
    }

    #[test]
    fn empty_trace_renders_diagnostic() {
        let p = Profile::from_records(&[]);
        let r = p.render();
        assert!(r.contains("0 records, 0 spans"));
        assert!(r.contains("no spans to profile"));
    }

    #[test]
    fn unclosed_span_gets_fallback_total() {
        let (tel, sink) = Telemetry::memory();
        tel.span_open("never_closed", vec![]);
        tel.set_clock(7);
        tel.event("late", vec![]);
        let p = Profile::from_records(&sink.take());
        assert_eq!(p.unclosed_spans, 1);
        assert_eq!(p.by_name()["never_closed"].total_ticks, 7);
        assert!(p.render().contains("1 unclosed span(s)"));
        // re-entering an open id is a second span; its exit closes the
        // newer one, and the first lasts to the end of the trace
        let p = Profile::from_records(&spans([
            (0, Kind::SpanEnter { id: 1 }),
            (1, Kind::SpanEnter { id: 1 }),
            (4, Kind::SpanExit { id: 1, ticks: 3 }),
        ]));
        assert_eq!((p.span_count(), p.unclosed_spans), (2, 1));
        assert_eq!(p.by_name()["a"].total_ticks, 3 + 4);
    }

    #[test]
    fn orphan_parent_becomes_root() {
        let records = vec![
            Record {
                clock: 0,
                parent: 999, // never entered
                kind: Kind::SpanEnter { id: 1 },
                name: "lost".into(),
                fields: vec![Field::new("k", 1u64)],
                wall_ns: None,
            },
            Record {
                clock: 2,
                parent: 999,
                kind: Kind::SpanExit { id: 1, ticks: 2 },
                name: "lost".into(),
                fields: vec![],
                wall_ns: None,
            },
        ];
        let p = Profile::from_records(&records);
        assert_eq!(p.orphan_parents, 1);
        assert_eq!(p.critical_path()[0].name, "lost");
        assert!(p.render().contains("unknown parent"));
    }

    #[test]
    fn unmatched_exit_is_counted_not_fatal() {
        let records = spans([(1, Kind::SpanExit { id: 42, ticks: 1 })]);
        let p = Profile::from_records(&records);
        assert_eq!(p.unmatched_exits, 1);
        assert_eq!(p.span_count(), 0);
        assert!(p.render().contains("without a matching enter"));
        // a second exit of one id finds no open span and leaves the
        // first exit's ticks in place
        let p = Profile::from_records(&spans([
            (0, Kind::SpanEnter { id: 1 }),
            (2, Kind::SpanExit { id: 1, ticks: 2 }),
            (5, Kind::SpanExit { id: 1, ticks: 5 }),
        ]));
        assert_eq!((p.unclosed_spans, p.unmatched_exits), (0, 1));
        assert_eq!(p.by_name()["a"].total_ticks, 2);
    }

    #[test]
    fn profile_is_deterministic() {
        let records = traced();
        assert_eq!(
            Profile::from_records(&records).render(),
            Profile::from_records(&records).render()
        );
    }
}
