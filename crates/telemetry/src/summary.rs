//! Trace aggregation: parse a JSONL trace back into [`Record`]s and
//! fold it into per-span / per-counter summaries plus a span-tree view.
//!
//! Reading is a schema mapper over the workspace's one JSON reader,
//! [`harmony_recovery::json`]: integers (`clock`, `parent`, `id`,
//! `ticks`, `delta`, `wall_ns`, integer field values) are read exactly,
//! and every malformed line is a typed [`TraceError`] naming its line.
//! For every record, `to_json(parse_line(to_json(r)))` equals
//! `to_json(r)`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use harmony_recovery::json::{self, Value as Json};
use harmony_recovery::CodecError;
use harmony_stats::streaming::Welford;

use crate::metrics::QuantileSketch;
use crate::record::{Field, Kind, Record, Value};

// ---------------------------------------------------------------- parsing

/// A malformed trace line: its 1-based number and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number within the trace.
    pub line: usize,
    /// What is wrong with the line.
    pub error: CodecError,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for TraceError {}

/// A field value: integers as `U64` (or `I64` when negative), other
/// numbers as `F64` — as is an integer literal past both ranges or
/// `-0`, which only an `f64` writes — and `null` as `F64(NaN)`.
fn field_value(v: &Json) -> Result<Value, CodecError> {
    Ok(match v {
        Json::Null => Value::F64(f64::NAN),
        Json::Bool(b) => Value::Bool(*b),
        Json::Str(s) => Value::Str(s.to_string()),
        Json::Num(_) => match (v.as_u64(), v.as_i64()) {
            (Ok(u), _) => Value::U64(u),
            (_, Ok(i)) if i != 0 => Value::I64(i),
            _ => Value::F64(v.as_f64()?),
        },
        other => {
            return Err(CodecError::BadValue(format!(
                "field value {other:?} is not a scalar"
            )))
        }
    })
}

/// Parses one `Record::to_json` line. Absent integers read as 0, an
/// absent `value` as NaN; unknown keys are errors.
pub fn parse_line(line: &str) -> Result<Record, CodecError> {
    let doc = json::parse(line)?;
    let mut fields = Vec::new();
    for (key, v) in doc.members()? {
        match &**key {
            "clock" | "parent" | "kind" | "id" | "ticks" | "delta" | "value" | "name"
            | "wall_ns" => {}
            "fields" => {
                for (k, fv) in v.members()? {
                    fields.push(Field::new(k.to_string(), field_value(fv)?));
                }
            }
            other => return Err(CodecError::BadValue(format!("unknown key {other:?}"))),
        }
    }
    let int = |key| doc.get(key).map_or(Ok(0), Json::as_u64);
    let value = || match doc.get("value") {
        None | Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v.as_f64(),
    };
    let kind = match doc.get("kind").map_or(Ok(""), Json::as_str)? {
        "event" => Kind::Event,
        "span_enter" => Kind::SpanEnter { id: int("id")? },
        "span_exit" => Kind::SpanExit {
            id: int("id")?,
            ticks: int("ticks")?,
        },
        "counter" => Kind::Counter {
            delta: int("delta")?,
        },
        "gauge" => Kind::Gauge { value: value()? },
        "sample" => Kind::Sample { value: value()? },
        other => return Err(CodecError::BadValue(format!("unknown kind {other:?}"))),
    };
    Ok(Record {
        clock: int("clock")?,
        parent: int("parent")?,
        kind,
        name: doc.get("name").map_or(Ok(""), Json::as_str)?.to_owned(),
        fields,
        wall_ns: doc.get("wall_ns").map(Json::as_u64).transpose()?,
    })
}

/// Parses a whole JSONL trace; blank lines are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, TraceError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_line(line).map_err(|error| TraceError { line: i + 1, error }))
        .collect()
}

// ------------------------------------------------------------ aggregation

#[derive(Debug, Default, Clone)]
struct CounterAgg {
    total: u64,
    records: u64,
}

#[derive(Debug, Default, Clone)]
struct GaugeAgg {
    last: f64,
    stats: Welford,
    records: u64,
}

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    ticks: u64,
    wall_ns: u64,
    has_wall: bool,
}

#[derive(Debug, Default, Clone)]
struct TreeAgg {
    count: u64,
    ticks: u64,
}

/// Aggregated view of a trace.
#[derive(Debug, Default)]
pub struct Summary {
    total_records: usize,
    counters: BTreeMap<String, CounterAgg>,
    gauges: BTreeMap<String, GaugeAgg>,
    samples: BTreeMap<String, QuantileSketch>,
    events: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanAgg>,
    tree: BTreeMap<Vec<String>, TreeAgg>,
    unclosed_spans: u64,
    orphan_parents: u64,
    unmatched_exits: u64,
}

impl Summary {
    /// Folds a record stream into a summary.
    pub fn from_records(records: &[Record]) -> Self {
        let mut s = Summary {
            total_records: records.len(),
            ..Summary::default()
        };
        // span id -> (name-path, enter wall)
        let mut open: HashMap<u64, (Vec<String>, Option<u64>)> = HashMap::new();
        let mut paths: HashMap<u64, Vec<String>> = HashMap::new();
        for r in records {
            match &r.kind {
                Kind::Event => *s.events.entry(r.name.clone()).or_default() += 1,
                Kind::Counter { delta } => {
                    let agg = s.counters.entry(r.name.clone()).or_default();
                    agg.total += delta;
                    agg.records += 1;
                }
                Kind::Gauge { value } => {
                    let agg = s.gauges.entry(r.name.clone()).or_default();
                    agg.last = *value;
                    agg.records += 1;
                    if value.is_finite() {
                        agg.stats.push(*value);
                    }
                }
                Kind::Sample { value } => {
                    s.samples.entry(r.name.clone()).or_default().push(*value);
                }
                Kind::SpanEnter { id } => {
                    // A parent id that never appeared as a span enter is a
                    // degenerate trace (truncated or mis-merged); count it
                    // and root the span rather than panicking or dropping.
                    if r.parent != 0 && !paths.contains_key(&r.parent) {
                        s.orphan_parents += 1;
                    }
                    let mut path = paths.get(&r.parent).cloned().unwrap_or_default();
                    path.push(r.name.clone());
                    paths.insert(*id, path.clone());
                    s.tree.entry(path.clone()).or_default().count += 1;
                    s.spans.entry(r.name.clone()).or_default().count += 1;
                    open.insert(*id, (path, r.wall_ns));
                }
                Kind::SpanExit { id, ticks } => {
                    if let Some((path, enter_wall)) = open.remove(id) {
                        s.tree.entry(path).or_default().ticks += ticks;
                        let agg = s.spans.entry(r.name.clone()).or_default();
                        agg.ticks += ticks;
                        if let (Some(w0), Some(w1)) = (enter_wall, r.wall_ns) {
                            agg.wall_ns += w1.saturating_sub(w0);
                            agg.has_wall = true;
                        }
                    } else {
                        s.unmatched_exits += 1;
                    }
                }
            }
        }
        s.unclosed_spans = open.len() as u64;
        s
    }

    /// Parses JSONL text and summarizes it.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        Ok(Self::from_records(&parse_jsonl(text)?))
    }

    /// Total records folded in.
    pub fn total_records(&self) -> usize {
        self.total_records
    }

    /// Total accumulated value of counter `name`, if it appeared.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|c| c.total)
    }

    /// Last reading of gauge `name`, if it appeared.
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|g| g.last)
    }

    /// Number of times a span named `name` was entered.
    pub fn span_count(&self, name: &str) -> Option<u64> {
        self.spans.get(name).map(|s| s.count)
    }

    /// Number of events named `name`.
    pub fn event_count(&self, name: &str) -> Option<u64> {
        self.events.get(name).copied()
    }

    /// Spans entered but never exited.
    pub fn unclosed_spans(&self) -> u64 {
        self.unclosed_spans
    }

    /// Spans whose `parent` id never appeared as a span enter.
    pub fn orphan_parents(&self) -> u64 {
        self.orphan_parents
    }

    /// Span exits with no matching enter.
    pub fn unmatched_exits(&self) -> u64 {
        self.unmatched_exits
    }

    /// Renders the per-span / per-counter report plus the span tree.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} records · {} span names · {} counters · {} gauges · {} event names",
            self.total_records,
            self.spans.len(),
            self.counters.len(),
            self.gauges.len(),
            self.events.len()
        );
        if self.total_records == 0 {
            let _ = writeln!(out, "(empty trace)");
        }
        if self.unclosed_spans > 0 {
            let _ = writeln!(out, "warning: {} unclosed span(s)", self.unclosed_spans);
        }
        if self.orphan_parents > 0 {
            let _ = writeln!(
                out,
                "warning: {} span(s) with unknown parent (treated as roots)",
                self.orphan_parents
            );
        }
        if self.unmatched_exits > 0 {
            let _ = writeln!(
                out,
                "warning: {} span exit(s) without a matching enter",
                self.unmatched_exits
            );
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\n== spans ==");
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>12} {:>12}",
                "name", "count", "ticks", "wall_ms"
            );
            for (name, agg) in &self.spans {
                let wall = if agg.has_wall {
                    format!("{:.3}", agg.wall_ns as f64 / 1e6)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(
                    out,
                    "{:<44} {:>8} {:>12} {:>12}",
                    name, agg.count, agg.ticks, wall
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n== counters ==");
            let _ = writeln!(out, "{:<44} {:>14} {:>8}", "name", "total", "records");
            for (name, agg) in &self.counters {
                let _ = writeln!(out, "{:<44} {:>14} {:>8}", name, agg.total, agg.records);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n== gauges ==");
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>14} {:>8}",
                "name", "last", "mean", "records"
            );
            for (name, agg) in &self.gauges {
                let _ = writeln!(
                    out,
                    "{:<44} {:>14} {:>14} {:>8}",
                    name,
                    fmt_val(agg.last),
                    fmt_val(agg.stats.mean()),
                    agg.records
                );
            }
        }
        if !self.samples.is_empty() {
            let _ = writeln!(out, "\n== histograms ==");
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "name", "count", "mean", "sd", "min", "max"
            );
            for (name, h) in &self.samples {
                let _ = writeln!(
                    out,
                    "{:<44} {:>8} {:>12} {:>12} {:>12} {:>12}",
                    name,
                    h.count(),
                    fmt_val(h.mean()),
                    fmt_val(h.sd()),
                    fmt_val(h.min().unwrap_or(f64::NAN)),
                    fmt_val(h.max().unwrap_or(f64::NAN))
                );
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "\n== events ==");
            let _ = writeln!(out, "{:<44} {:>8}", "name", "count");
            for (name, count) in &self.events {
                let _ = writeln!(out, "{:<44} {:>8}", name, count);
            }
        }
        if !self.tree.is_empty() {
            let _ = writeln!(out, "\n== span tree ==");
            for (path, agg) in &self.tree {
                let depth = path.len().saturating_sub(1);
                let name = path.last().map(String::as_str).unwrap_or("?");
                let label = format!("{}{}", "  ".repeat(depth), name);
                let _ = writeln!(
                    out,
                    "{:<44} {:>6}x {:>10} ticks",
                    label, agg.count, agg.ticks
                );
            }
        }
        out
    }
}

fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == v.trunc() && v.abs() < 1e12 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Telemetry;
    use crate::sink::to_jsonl;

    fn sample_records() -> Vec<Record> {
        let (tel, sink) = Telemetry::memory();
        let outer = tel.span_open("session", vec![Field::new("seed", 7u64)]);
        tel.counter("cache.hits", 3);
        tel.counter("cache.hits", 2);
        tel.gauge("trace.total_time", 12.5);
        tel.sample("step", 1.0);
        tel.sample("step", 3.0);
        tel.set_clock(4);
        let inner = tel.span_open("iteration", vec![]);
        tel.event("pro.decision", vec![Field::new("action", "reflect")]);
        tel.set_clock(6);
        tel.span_close(inner);
        tel.span_close(outer);
        sink.take()
    }

    #[test]
    fn round_trips_through_jsonl() {
        let records = sample_records();
        let parsed = parse_jsonl(&to_jsonl(&records)).expect("parse");
        assert_eq!(parsed, records);
    }

    #[test]
    fn summary_aggregates() {
        let s = Summary::from_records(&sample_records());
        assert_eq!(s.counter_total("cache.hits"), Some(5));
        assert_eq!(s.gauge_last("trace.total_time"), Some(12.5));
        assert_eq!(s.span_count("session"), Some(1));
        assert_eq!(s.span_count("iteration"), Some(1));
        assert_eq!(s.event_count("pro.decision"), Some(1));
    }

    #[test]
    fn render_contains_sections_and_tree() {
        let s = Summary::from_records(&sample_records());
        let text = s.render();
        assert!(text.contains("== spans =="));
        assert!(text.contains("== counters =="));
        assert!(text.contains("== span tree =="));
        // iteration nested under session in the tree view
        assert!(text.contains("\n  iteration"));
        assert!(!text.contains("warning"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_line("{not json}").is_err());
        assert!(parse_jsonl("{\"clock\":0}\nnope\n").is_err());
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_their_line() {
        let good = "{\"clock\":9007199254740993,\"parent\":0,\"kind\":\"event\",\"name\":\"e\"}";
        assert_eq!(parse_line(good).unwrap().clock, (1 << 53) + 1);
        for bad in [
            format!("{good}trailing"),
            good.replace("9007199254740993", "18446744073709551616"),
            good.replace("9007199254740993", "-1"),
            good.replace("9007199254740993", "1.5"),
        ] {
            assert!(
                matches!(parse_line(&bad), Err(CodecError::BadValue(_))),
                "{bad}"
            );
        }
        let err = parse_jsonl(&format!("{good}\n\n{}", &good[..10])).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.error, CodecError::UnexpectedEof);
        assert!(err.to_string().starts_with("line 3: "), "{err}");
    }

    #[test]
    fn parse_handles_null_values_and_escapes() {
        let r = parse_line(
            "{\"clock\":1,\"parent\":0,\"kind\":\"gauge\",\"value\":null,\"name\":\"a \\\"b\\\"\"}",
        )
        .expect("parse");
        assert!(matches!(r.kind, Kind::Gauge { value } if value.is_nan()));
        assert_eq!(r.name, "a \"b\"");
    }

    #[test]
    fn unclosed_span_warns() {
        let (tel, sink) = Telemetry::memory();
        tel.span_open("dangling", vec![]);
        let s = Summary::from_records(&sink.take());
        assert_eq!(s.unclosed_spans(), 1);
        assert!(s.render().contains("warning: 1 unclosed span"));
    }

    #[test]
    fn empty_trace_renders_diagnostic() {
        let s = Summary::from_records(&[]);
        let text = s.render();
        assert!(text.contains("(empty trace)"));
        assert!(text.contains("0 records"));
    }

    #[test]
    fn orphan_parent_warns_and_roots_the_span() {
        let records = vec![Record {
            clock: 0,
            parent: 777,
            kind: Kind::SpanEnter { id: 1 },
            name: "lost".into(),
            fields: vec![],
            wall_ns: None,
        }];
        let s = Summary::from_records(&records);
        assert_eq!(s.orphan_parents(), 1);
        assert_eq!(s.span_count("lost"), Some(1));
        assert!(s
            .render()
            .contains("warning: 1 span(s) with unknown parent"));
    }

    #[test]
    fn unmatched_exit_warns() {
        let records = vec![Record {
            clock: 1,
            parent: 0,
            kind: Kind::SpanExit { id: 9, ticks: 1 },
            name: "ghost".into(),
            fields: vec![],
            wall_ns: None,
        }];
        let s = Summary::from_records(&records);
        assert_eq!(s.unmatched_exits(), 1);
        assert!(s
            .render()
            .contains("warning: 1 span exit(s) without a matching enter"));
    }
}
