//! Operational metrics: windowed aggregates over a telemetry stream.
//!
//! The deterministic trace (PR 4) answers "what happened"; this module
//! answers "how is it going" — rates, quantiles, dispersion — the way an
//! operator of a long-running tuning service would watch it. A
//! [`MetricsRegistry`] is built by *ingesting* [`Record`]s, so anything
//! that can produce a record stream (a live [`crate::Sink`], a parsed
//! JSONL trace, a [`crate::MemorySink`] snapshot) can be summarized, and
//! because the workspace's traces are byte-identical across worker
//! counts, the rendered exposition snapshot is too.
//!
//! Determinism rules:
//!
//! * All windows and rates are keyed on the *logical* clock carried by
//!   each record; wall time never enters the registry.
//! * [`MetricsRegistry::render`] iterates `BTreeMap`s section by
//!   section, so equal ingestion streams produce equal bytes.
//! * [`MetricsSink`] forwards to an optional inner sink *after*
//!   ingesting, so teeing metrics off a live session does not perturb
//!   the trace.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use harmony_stats::streaming::{P2Quantile, RunningMax, RunningMin, Welford};

use crate::handle::Telemetry;
use crate::record::{Kind, Record, Value};
use crate::sink::Sink;

/// Default sliding-window width (logical clock ticks) for counter rates.
pub const DEFAULT_WINDOW: u64 = 64;

/// A monotonic counter with a sliding window over the logical clock.
#[derive(Debug, Clone, Default)]
pub struct WindowedCounter {
    total: u64,
    window: VecDeque<(u64, u64)>,
    in_window: u64,
}

impl WindowedCounter {
    /// Adds `delta` at logical time `clock`, expiring entries older than
    /// `width` ticks.
    pub fn add(&mut self, clock: u64, delta: u64, width: u64) {
        self.total += delta;
        self.in_window += delta;
        self.window.push_back((clock, delta));
        self.expire(clock, width);
    }

    fn expire(&mut self, now: u64, width: u64) {
        while let Some(&(t, d)) = self.window.front() {
            if t + width > now {
                break;
            }
            self.window.pop_front();
            self.in_window -= d;
        }
    }

    /// Lifetime total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of deltas inside the current window.
    pub fn windowed(&self) -> u64 {
        self.in_window
    }

    /// Windowed increments per logical tick.
    pub fn rate(&self, width: u64) -> f64 {
        self.in_window as f64 / width.max(1) as f64
    }
}

/// A streaming quantile sketch: Welford moments, running extrema, and
/// P² estimates of the quartiles. Gives mean/sd/CV plus p25/p50/p75 and
/// the IQR in O(1) space — the dispersion view the paper's variability
/// argument calls for.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    moments: Welford,
    min: RunningMin,
    max: RunningMax,
    q25: P2Quantile,
    q50: P2Quantile,
    q75: P2Quantile,
    skipped: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            moments: Welford::new(),
            min: RunningMin::new(),
            max: RunningMax::new(),
            q25: P2Quantile::new(0.25),
            q50: P2Quantile::new(0.5),
            q75: P2Quantile::new(0.75),
            skipped: 0,
        }
    }

    /// Feeds one observation; non-finite values are counted but ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        self.moments.push(x);
        self.min.push(x);
        self.max.push(x);
        self.q25.push(x);
        self.q50.push(x);
        self.q75.push(x);
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Number of non-finite observations dropped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Sample standard deviation (0 below two observations).
    pub fn sd(&self) -> f64 {
        self.moments.sd()
    }

    /// Coefficient of variation `sd / |mean|`; `None` when the mean is
    /// zero or fewer than two observations arrived.
    pub fn cv(&self) -> Option<f64> {
        (self.count() > 1 && self.mean() != 0.0).then(|| self.sd() / self.mean().abs())
    }

    /// P² estimate of quantile `q` (0.25, 0.5, 0.75), if observed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count() == 0 {
            return None;
        }
        if q == 0.25 {
            Some(self.q25.get())
        } else if q == 0.5 {
            Some(self.q50.get())
        } else if q == 0.75 {
            Some(self.q75.get())
        } else {
            None
        }
    }

    /// Estimated interquartile range `p75 - p25`, if observed.
    pub fn iqr(&self) -> Option<f64> {
        (self.count() > 0).then(|| self.q75.get() - self.q25.get())
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        self.min.get()
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        self.max.get()
    }

    /// Emits the summary as gauges `{name}.count/mean/sd/min/max/p50`
    /// (only the gauges that are defined for the observed count).
    pub fn emit_to(&self, tel: &Telemetry, name: &str) {
        if !tel.enabled() {
            return;
        }
        tel.gauge(&format!("{name}.count"), self.count() as f64);
        if self.count() == 0 {
            return;
        }
        tel.gauge(&format!("{name}.mean"), self.mean());
        if self.count() > 1 {
            tel.gauge(&format!("{name}.sd"), self.sd());
        }
        for (suffix, v) in [
            ("min", self.min()),
            ("max", self.max()),
            ("p50", self.quantile(0.5)),
        ] {
            if let Some(v) = v {
                tel.gauge(&format!("{name}.{suffix}"), v);
            }
        }
    }
}

/// Windowed aggregates over an ingested record stream.
///
/// Mapping from record kinds:
///
/// * [`Kind::Counter`] feeds a [`WindowedCounter`] under the record
///   name (total + rate over the sliding window).
/// * [`Kind::Gauge`] keeps the latest value per name.
/// * [`Kind::Sample`] feeds a [`QuantileSketch`] per name.
/// * [`Kind::Event`] counts occurrences per event name; a `count` field
///   (as emitted by the server's fault events) is honored as the delta.
/// * [`Kind::SpanExit`] feeds a per-span-name sketch of `ticks`, giving
///   logical-duration quantiles per span kind.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    window: u64,
    last_clock: u64,
    ingested: u64,
    counters: BTreeMap<String, WindowedCounter>,
    gauges: BTreeMap<String, f64>,
    samples: BTreeMap<String, QuantileSketch>,
    events: BTreeMap<String, WindowedCounter>,
    spans: BTreeMap<String, QuantileSketch>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with the [`DEFAULT_WINDOW`] rate window.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// An empty registry with an explicit rate window (logical ticks).
    pub fn with_window(window: u64) -> Self {
        MetricsRegistry {
            window: window.max(1),
            last_clock: 0,
            ingested: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            samples: BTreeMap::new(),
            events: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    /// Total records ingested (all kinds, including span enters).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Highest logical clock seen.
    pub fn last_clock(&self) -> u64 {
        self.last_clock
    }

    /// Folds one record into the aggregates.
    pub fn ingest(&mut self, r: &Record) {
        self.ingested += 1;
        self.last_clock = self.last_clock.max(r.clock);
        let width = self.window;
        match &r.kind {
            Kind::Counter { delta } => {
                self.counters
                    .entry(r.name.clone())
                    .or_default()
                    .add(r.clock, *delta, width);
            }
            Kind::Gauge { value } => {
                self.gauges.insert(r.name.clone(), *value);
            }
            Kind::Sample { value } => {
                self.samples.entry(r.name.clone()).or_default().push(*value);
            }
            Kind::Event => {
                let delta = r
                    .fields
                    .iter()
                    .find(|f| f.key == "count")
                    .and_then(|f| match &f.value {
                        Value::U64(v) => Some(*v),
                        Value::I64(v) => u64::try_from(*v).ok(),
                        _ => None,
                    })
                    .unwrap_or(1);
                self.events
                    .entry(r.name.clone())
                    .or_default()
                    .add(r.clock, delta, width);
            }
            Kind::SpanExit { ticks, .. } => {
                self.spans
                    .entry(r.name.clone())
                    .or_default()
                    .push(*ticks as f64);
            }
            Kind::SpanEnter { .. } => {}
        }
    }

    /// Folds a whole record slice (e.g. a [`crate::MemorySink`]
    /// snapshot or a parsed trace) into the aggregates.
    pub fn ingest_all(&mut self, records: &[Record]) {
        for r in records {
            self.ingest(r);
        }
    }

    /// Direct sample observation.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Looks up a counter.
    pub fn counter(&self, name: &str) -> Option<&WindowedCounter> {
        self.counters.get(name)
    }

    /// Looks up a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Looks up a sample sketch.
    pub fn sample(&self, name: &str) -> Option<&QuantileSketch> {
        self.samples.get(name)
    }

    /// Looks up an event counter.
    pub fn event(&self, name: &str) -> Option<&WindowedCounter> {
        self.events.get(name)
    }

    /// Looks up a span-duration sketch.
    pub fn span(&self, name: &str) -> Option<&QuantileSketch> {
        self.spans.get(name)
    }

    /// Ratio `hits / (hits + misses)` of the `cache.hits` /
    /// `cache.misses` counters, if both have been ingested.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.counters.get("cache.hits")?.total();
        let misses = self.counters.get("cache.misses")?.total();
        let denom = hits + misses;
        (denom > 0).then(|| hits as f64 / denom as f64)
    }

    /// Renders the canonical text exposition snapshot.
    ///
    /// One sample per line, Prometheus-style (`name{label="v"} value`),
    /// sections and keys in a fixed order, so equal ingestion streams
    /// render byte-identically. Metric names are sanitized (`.`/`-` and
    /// any other non-alphanumeric become `_`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "harmony_metrics_ingested_total {}", self.ingested);
        let _ = writeln!(out, "harmony_metrics_clock {}", self.last_clock);
        let _ = writeln!(out, "harmony_metrics_window {}", self.window);
        for (name, c) in &self.counters {
            let id = sanitize(name);
            let _ = writeln!(out, "{id}_total {}", c.total());
            let _ = writeln!(out, "{id}_windowed {}", c.windowed());
            push_float(&mut out, &format!("{id}_rate"), c.rate(self.window));
        }
        if let Some(r) = self.cache_hit_ratio() {
            push_float(&mut out, "cache_hit_ratio", r);
        }
        for (name, v) in &self.gauges {
            push_float(&mut out, &sanitize(name), *v);
        }
        for (name, s) in &self.samples {
            render_sketch(&mut out, &sanitize(name), s);
        }
        for (name, e) in &self.events {
            let _ = writeln!(out, "events_total{{name=\"{name}\"}} {}", e.total());
            let _ = writeln!(out, "events_windowed{{name=\"{name}\"}} {}", e.windowed());
        }
        for (name, s) in &self.spans {
            let _ = writeln!(out, "span_count{{name=\"{name}\"}} {}", s.count());
            for q in [0.25, 0.5, 0.75] {
                if let Some(v) = s.quantile(q) {
                    push_float(
                        &mut out,
                        &format!("span_ticks{{name=\"{name}\",quantile=\"{q}\"}}"),
                        v,
                    );
                }
            }
        }
        out
    }
}

/// Maps a dotted record name to a Prometheus-compatible metric id.
fn sanitize(name: &str) -> String {
    let mut id: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if id.starts_with(|c: char| c.is_ascii_digit()) {
        id.insert(0, '_');
    }
    id
}

/// Writes `name value` with a canonical float rendering (`Display` for
/// finite values, `NaN` never appears: non-finite renders as `nan`).
fn push_float(out: &mut String, name: &str, v: f64) {
    if v.is_finite() {
        let _ = writeln!(out, "{name} {v}");
    } else {
        let _ = writeln!(out, "{name} nan");
    }
}

fn render_sketch(out: &mut String, id: &str, s: &QuantileSketch) {
    let _ = writeln!(out, "{id}_count {}", s.count());
    if s.skipped() > 0 {
        let _ = writeln!(out, "{id}_skipped {}", s.skipped());
    }
    if s.count() == 0 {
        return;
    }
    push_float(out, &format!("{id}_mean"), s.mean());
    if s.count() > 1 {
        push_float(out, &format!("{id}_sd"), s.sd());
        if let Some(cv) = s.cv() {
            push_float(out, &format!("{id}_cv"), cv);
        }
    }
    if let Some(v) = s.min() {
        push_float(out, &format!("{id}_min"), v);
    }
    if let Some(v) = s.max() {
        push_float(out, &format!("{id}_max"), v);
    }
    for q in [0.25, 0.5, 0.75] {
        if let Some(v) = s.quantile(q) {
            push_float(out, &format!("{id}{{quantile=\"{q}\"}}"), v);
        }
    }
    if let Some(v) = s.iqr() {
        push_float(out, &format!("{id}_iqr"), v);
    }
}

/// A [`Sink`] that folds every record into a shared [`MetricsRegistry`]
/// and optionally forwards it to an inner sink.
///
/// The registry is behind a mutex (sinks are shared across session
/// threads); [`MetricsSink::render`] snapshots the exposition at any
/// point. Forwarding happens after ingestion so the teed trace is
/// unchanged by the metrics layer.
pub struct MetricsSink {
    registry: Mutex<MetricsRegistry>,
    forward: Option<Arc<dyn Sink>>,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsSink")
    }
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// A standalone metrics sink (no forwarding).
    pub fn new() -> Self {
        MetricsSink {
            registry: Mutex::new(MetricsRegistry::new()),
            forward: None,
        }
    }

    /// A metrics sink that tees every record to `inner`.
    pub fn wrap(inner: Arc<dyn Sink>) -> Self {
        MetricsSink {
            registry: Mutex::new(MetricsRegistry::new()),
            forward: Some(inner),
        }
    }

    /// Renders the current exposition snapshot.
    pub fn render(&self) -> String {
        self.registry.lock().expect("metrics poisoned").render()
    }
}

impl Sink for MetricsSink {
    fn record(&self, record: Record) {
        self.registry
            .lock()
            .expect("metrics poisoned")
            .ingest(&record);
        if let Some(inner) = &self.forward {
            inner.record(record);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.forward {
            inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn windowed_counter_expires_old_deltas() {
        let mut c = WindowedCounter::default();
        c.add(0, 5, 10);
        c.add(4, 3, 10);
        assert_eq!(c.total(), 8);
        assert_eq!(c.windowed(), 8);
        c.add(12, 1, 10); // clock 0 entry (0 + 10 <= 12) expires
        assert_eq!(c.total(), 9);
        assert_eq!(c.windowed(), 4);
        assert!((c.rate(10) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn sketch_quartiles_and_cv() {
        let mut s = QuantileSketch::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        s.push(f64::NAN);
        assert_eq!(s.count(), 100);
        assert_eq!(s.skipped(), 1);
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 50.5).abs() < 3.0, "p50 {p50}");
        let iqr = s.iqr().unwrap();
        assert!((iqr - 50.0).abs() < 6.0, "iqr {iqr}");
        let cv = s.cv().unwrap();
        assert!(cv > 0.0 && cv < 1.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn emits_gauges() {
        let (tel, sink) = Telemetry::memory();
        let mut s = QuantileSketch::new();
        s.push(2.0);
        s.push(4.0);
        s.emit_to(&tel, "step_time");
        let names: Vec<String> = sink.take().into_iter().map(|r| r.name).collect();
        let want = ["count", "mean", "sd", "min", "max", "p50"].map(|g| format!("step_time.{g}"));
        assert_eq!(names, want);
    }

    #[test]
    fn empty_emits_count_only() {
        let (tel, sink) = Telemetry::memory();
        QuantileSketch::new().emit_to(&tel, "empty");
        let records = sink.take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "empty.count");
    }

    #[test]
    fn ingestion_maps_kinds() {
        let (tel, sink) = Telemetry::memory();
        let span = tel.span_open("work", vec![]);
        tel.counter("cache.hits", 3);
        tel.counter("cache.misses", 1);
        tel.gauge("pool.workers", 4.0);
        tel.sample("server.step_time", 2.5);
        tel.sample("server.step_time", 3.5);
        crate::event!(tel, "server.miss", count = 2u64);
        tel.advance_clock(5);
        tel.span_close(span);

        let mut reg = MetricsRegistry::new();
        reg.ingest_all(&sink.take());
        assert_eq!(reg.counter("cache.hits").unwrap().total(), 3);
        assert_eq!(reg.gauge("pool.workers"), Some(4.0));
        assert_eq!(reg.sample("server.step_time").unwrap().count(), 2);
        assert_eq!(reg.event("server.miss").unwrap().total(), 2);
        assert_eq!(reg.span("work").unwrap().count(), 1);
        assert_eq!(reg.span("work").unwrap().max(), Some(5.0));
        assert!((reg.cache_hit_ratio().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let build = || {
            let (tel, sink) = Telemetry::memory();
            tel.counter("b.second", 2);
            tel.counter("a.first", 1);
            tel.gauge("z", 1.5);
            let mut reg = MetricsRegistry::new();
            reg.ingest_all(&sink.take());
            reg.observe("lat", 3.0);
            reg.render()
        };
        let a = build();
        assert_eq!(a, build());
        let a_pos = a.find("a_first_total 1").unwrap();
        let b_pos = a.find("b_second_total 2").unwrap();
        assert!(a_pos < b_pos, "counters must render in BTreeMap order");
        assert!(a.contains("lat_count 1"));
        assert!(a.contains("z 1.5"));
    }

    #[test]
    fn empty_registry_renders_header_only() {
        let r = MetricsRegistry::new().render();
        assert_eq!(
            r,
            "harmony_metrics_ingested_total 0\nharmony_metrics_clock 0\nharmony_metrics_window 64\n"
        );
    }

    #[test]
    fn metrics_sink_tees_without_perturbing() {
        let inner = Arc::new(MemorySink::new());
        let sink = Arc::new(MetricsSink::wrap(inner.clone()));
        let tel = Telemetry::with_config(sink.clone(), crate::TelemetryConfig::default());
        tel.counter("n", 2);
        tel.gauge("g", 1.0);
        assert_eq!(inner.len(), 2);
        assert!(sink.render().contains("n_total 2"));
        let direct = {
            let (tel2, mem) = Telemetry::memory();
            tel2.counter("n", 2);
            tel2.gauge("g", 1.0);
            crate::to_jsonl(&mem.take())
        };
        assert_eq!(crate::to_jsonl(&inner.take()), direct);
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("cache.hits"), "cache_hits");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }
}
