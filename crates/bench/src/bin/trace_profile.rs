//! Renders a JSONL telemetry trace as a profiler report: per-span-kind
//! self/total tick attribution, the critical path through the span
//! tree, and collapsed flame stacks (one `a;b;c self_ticks` line per
//! stack, ready for flamegraph tooling).
//!
//! Usage: `trace_profile PATH.jsonl [PATH2.jsonl ...]` — multiple traces
//! are profiled independently. Produce a trace with
//! `run_all --trace PATH` or any `Telemetry` handle over a
//! [`harmony_telemetry::JsonlSink`]. The output is deterministic: byte-
//! identical traces yield byte-identical profiles.

use harmony_bench::report::trace_cli;
use harmony_telemetry::Profile;

fn main() {
    trace_cli("trace_profile", |text| {
        Profile::from_jsonl(text).map(|t| t.render())
    });
}
