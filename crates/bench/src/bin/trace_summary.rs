//! Renders a JSONL telemetry trace as a human-readable report: per-span
//! totals, counter values, gauge/histogram statistics, event counts, and
//! the span tree.
//!
//! Usage: `trace_summary PATH.jsonl [PATH2.jsonl ...]` — multiple traces
//! are summarised independently. Produce a trace with
//! `run_all --trace PATH` or any `Telemetry` handle over a
//! [`harmony_telemetry::JsonlSink`].

use harmony_bench::report::trace_cli;
use harmony_telemetry::Summary;

fn main() {
    trace_cli("trace_summary", |text| {
        Summary::from_jsonl(text).map(|t| t.render())
    });
}
