//! The span tree of a record stream: the one place span enters and
//! exits are matched, parents resolved and degenerate input counted.
//! [`crate::Summary`] and [`crate::Profile`] both read it.
//!
//! Matching rules, for traces a [`crate::Telemetry`] handle would never
//! write:
//!
//! * every `SpanEnter` is its own span, and an id names its most
//!   recent enter (for later parents and exits);
//! * an exit closes that span if it is still open; an exit whose id
//!   was never entered, or whose span is already closed, is unmatched;
//! * a span without an exit is unclosed, even when its id was
//!   re-entered;
//! * a parent of 0, or one that never appeared as an enter, roots the
//!   span (the latter counts as an orphan parent);
//! * a span is named by its enter; an exit's own name is not read.

use std::collections::HashMap;

use crate::record::{Kind, Record};

/// A matched span exit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exit {
    /// Logical ticks the span lasted.
    pub ticks: u64,
    /// Wall-clock stamp of the exit record.
    pub wall_ns: Option<u64>,
}

/// One span, in enter order.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub id: u64,
    pub name: String,
    /// Index of the parent node; `None` for roots.
    pub parent: Option<usize>,
    /// Child node indices in enter order.
    pub children: Vec<usize>,
    pub enter_clock: u64,
    /// Wall-clock stamp of the enter record.
    pub enter_wall: Option<u64>,
    pub exit: Option<Exit>,
}

/// Spans of a record stream plus the degenerate-input counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanTree {
    pub nodes: Vec<Node>,
    /// Spans entered but never exited.
    pub unclosed_spans: u64,
    /// Spans whose `parent` id never appeared as a span enter.
    pub orphan_parents: u64,
    /// Span exits with no open span to close.
    pub unmatched_exits: u64,
}

impl SpanTree {
    pub fn from_records(records: &[Record]) -> SpanTree {
        let mut t = SpanTree::default();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for r in records {
            match r.kind {
                Kind::SpanEnter { id } => {
                    let parent = if r.parent == 0 {
                        None
                    } else if let Some(&p) = by_id.get(&r.parent) {
                        Some(p)
                    } else {
                        t.orphan_parents += 1;
                        None
                    };
                    let idx = t.nodes.len();
                    if let Some(p) = parent {
                        t.nodes[p].children.push(idx);
                    }
                    t.nodes.push(Node {
                        id,
                        name: r.name.clone(),
                        parent,
                        children: Vec::new(),
                        enter_clock: r.clock,
                        enter_wall: r.wall_ns,
                        exit: None,
                    });
                    by_id.insert(id, idx);
                }
                Kind::SpanExit { id, ticks } => match by_id.get(&id) {
                    Some(&i) if t.nodes[i].exit.is_none() => {
                        t.nodes[i].exit = Some(Exit {
                            ticks,
                            wall_ns: r.wall_ns,
                        });
                    }
                    _ => t.unmatched_exits += 1,
                },
                _ => {}
            }
        }
        t.unclosed_spans = t.nodes.iter().filter(|n| n.exit.is_none()).count() as u64;
        t
    }

    /// Indices of the root spans, in enter order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent.is_none())
            .collect()
    }
}

/// Spans named `a` under the root, from `(clock, kind)` pairs: the
/// degenerate streams the summary and profile tests share.
#[cfg(test)]
pub(crate) fn spans(records: impl IntoIterator<Item = (u64, Kind)>) -> Vec<Record> {
    records
        .into_iter()
        .map(|(clock, kind)| Record {
            clock,
            parent: 0,
            kind,
            name: "a".into(),
            fields: vec![],
            wall_ns: None,
        })
        .collect()
}
