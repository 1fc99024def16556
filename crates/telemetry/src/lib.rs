//! Deterministic structured telemetry for the tuning stack.
//!
//! The paper's argument is about *observed* behaviour — `Total_Time(K)`,
//! transient convergence, heavy-tailed step times — so the reproduction
//! needs a machine-readable record of why a run did what it did: which
//! simplex decision PRO took each iteration, which client the server
//! evicted, how often the objective cache hit. This crate provides that
//! record without giving up the workspace's determinism guarantees:
//!
//! * **Logical clock.** Every [`Record`] is stamped with a caller-driven
//!   logical time (tuning step, iteration index, task serial) — never
//!   `Instant`/`SystemTime` on the deterministic path — so a trace of
//!   `run_all -jN` is byte-identical for every worker count. An opt-in
//!   wall-clock channel ([`TelemetryConfig::wall`]) exists for CI
//!   timing jobs and is explicitly excluded from that guarantee.
//! * **Primitives.** Structured events (the [`event!`] macro), monotonic
//!   counters, gauges, streaming quantile sketches ([`QuantileSketch`],
//!   built on `harmony_stats::streaming`), and nestable spans
//!   ([`SpanGuard`]).
//! * **Pluggable sinks.** [`NullSink`] (reports itself disabled, so emit
//!   sites skip record construction entirely — near-zero overhead),
//!   [`MemorySink`] for tests, [`JsonlSink`] for files; [`Summary`]
//!   parses and aggregates a JSONL trace back into a report.
//! * **Operational layer.** [`MetricsRegistry`] folds a record stream
//!   into windowed counters/rates, gauges, and streaming quantile
//!   sketches with a canonical Prometheus-style exposition snapshot;
//!   [`Profile`] turns a span tree into self/total timing, a critical
//!   path, and collapsed flame stacks; [`FlightRecorder`] retains the
//!   last N records and dumps a post-mortem on terminal failures. All
//!   three run on the logical clock, so their outputs inherit the
//!   byte-identical-across-worker-counts guarantee.
//!
//! ```
//! use harmony_telemetry::{event, Telemetry};
//!
//! let (tel, sink) = Telemetry::memory();
//! let span = tel.span_open("session", vec![]);
//! tel.set_clock(3);
//! event!(tel, "pro.decision", action = "reflect", iter = 3u64);
//! tel.counter("cache.hits", 1);
//! tel.span_close(span);
//! assert_eq!(sink.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod handle;
mod metrics;
mod profile;
mod record;
mod sink;
mod summary;

pub use flight::{FlightRecorder, PostMortem, TERMINAL_EVENTS};
pub use handle::{SpanGuard, Telemetry, TelemetryConfig};
pub use metrics::{MetricsRegistry, MetricsSink, QuantileSketch, WindowedCounter, DEFAULT_WINDOW};
pub use profile::{PathStep, Profile, SpanStats};
pub use record::{Field, Kind, Record, Value};
pub use sink::{to_jsonl, JsonlSink, MemorySink, NullSink, Sink};
pub use summary::{parse_jsonl, parse_line, Summary, TraceError};

/// Emits a structured event with `key = value` fields, skipping all
/// argument evaluation when the handle is disabled.
///
/// ```
/// use harmony_telemetry::{event, Telemetry};
/// let (tel, sink) = Telemetry::memory();
/// event!(tel, "server.evict", client = 3u64, reason = "hang");
/// assert_eq!(sink.len(), 1);
/// ```
#[macro_export]
macro_rules! event {
    ($tel:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $tel.enabled() {
            $tel.event($name, vec![$($crate::Field::new(stringify!($key), $val)),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_macro_skips_evaluation_when_disabled() {
        let tel = Telemetry::disabled();
        let mut evaluated = false;
        event!(
            tel,
            "never",
            flag = {
                evaluated = true;
                true
            }
        );
        assert!(!evaluated);

        let (tel, sink) = Telemetry::memory();
        event!(
            tel,
            "once",
            flag = {
                evaluated = true;
                true
            }
        );
        assert!(evaluated);
        assert_eq!(sink.take()[0].fields[0].key, "flag");
    }

    #[test]
    fn identical_emission_sequences_serialize_identically() {
        let run = || {
            let (tel, sink) = Telemetry::memory();
            let span = tel.span_open("s", vec![Field::new("k", 2u64)]);
            for step in 0..5u64 {
                tel.set_clock(step);
                event!(tel, "step", i = step, cost = 1.5 * step as f64);
            }
            tel.counter("n", 5);
            tel.span_close(span);
            to_jsonl(&sink.take())
        };
        assert_eq!(run(), run());
    }
}
