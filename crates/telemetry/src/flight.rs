//! Flight recorder: bounded record retention with automatic
//! post-mortems.
//!
//! A [`FlightRecorder`] is a [`Sink`] that keeps only the most recent
//! `capacity` records in a ring, folds everything into an internal
//! [`MetricsRegistry`], and tracks per-client circuit-breaker health
//! from `recovery.breaker_*` events. When a *terminal* record arrives —
//! a session ending in a typed `ServerError` (the `server.all_dead`,
//! `server.quorum_fail`, `server.no_observations`,
//! `server.invalid_config`, `server.recovery_fail` events) or a
//! supervisor opening a circuit (`recovery.breaker_open`) — it dumps a
//! canonical [`PostMortem`]: the recent ring, the health map, and the
//! metrics snapshot at that instant.
//!
//! Because post-mortems are rendered purely from ingested records and
//! the logical clock, a given failure produces byte-identical
//! post-mortems regardless of worker count or wall time (as long as the
//! wall channel stays off, like every other determinism guarantee in
//! this crate).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::MetricsRegistry;
use crate::record::{Kind, Record, Value};
use crate::sink::Sink;

/// Event names that end a session in a typed server error.
pub const TERMINAL_EVENTS: [&str; 5] = [
    "server.all_dead",
    "server.quorum_fail",
    "server.no_observations",
    "server.invalid_config",
    "server.recovery_fail",
];

/// One captured post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Name of the record that triggered the dump.
    pub reason: String,
    /// Logical clock of the triggering record.
    pub clock: u64,
    /// The rendered report (recent records + health + metrics).
    pub text: String,
}

#[derive(Debug, Default)]
struct FlightState {
    ring: VecDeque<Record>,
    metrics: MetricsRegistry,
    health: BTreeMap<String, &'static str>,
    post_mortems: Vec<PostMortem>,
}

impl FlightState {
    fn render(&self, reason: &str, clock: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== post-mortem: {reason} @ clock {clock} ==");
        let _ = writeln!(out, "-- recent records ({}) --", self.ring.len());
        for r in &self.ring {
            let _ = writeln!(out, "{}", r.to_json());
        }
        let _ = writeln!(out, "-- client health --");
        if self.health.is_empty() {
            let _ = writeln!(out, "(no breaker activity)");
        }
        for (client, state) in &self.health {
            let _ = writeln!(out, "client {client}: {state}");
        }
        let _ = writeln!(out, "-- metrics --");
        out.push_str(&self.metrics.render());
        out
    }
}

/// A fixed-capacity ring sink that dumps post-mortems on failure.
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<FlightState>,
    forward: Option<Arc<dyn Sink>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlightRecorder(capacity={})", self.capacity)
    }
}

impl FlightRecorder {
    /// A standalone recorder retaining the last `capacity` records.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            state: Mutex::new(FlightState::default()),
            forward: None,
        }
    }

    /// A recorder that tees every record to `inner` (after ingesting),
    /// so a session can keep its full trace *and* a flight ring.
    pub fn wrap(capacity: usize, inner: Arc<dyn Sink>) -> Self {
        FlightRecorder {
            forward: Some(inner),
            ..FlightRecorder::new(capacity)
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightState> {
        self.state.lock().expect("flight state poisoned")
    }

    /// Post-mortems captured so far (clones; the recorder keeps them).
    pub fn post_mortems(&self) -> Vec<PostMortem> {
        self.lock().post_mortems.clone()
    }

    /// Drains the captured post-mortems.
    pub fn take_post_mortems(&self) -> Vec<PostMortem> {
        std::mem::take(&mut self.lock().post_mortems)
    }

    /// Renders a post-mortem of the *current* state on demand (e.g. for
    /// a failure signalled outside the record stream).
    pub fn dump(&self, reason: &str) -> String {
        let state = self.lock();
        let clock = state.metrics.last_clock();
        state.render(reason, clock)
    }

    /// The current metrics exposition snapshot.
    pub fn metrics(&self) -> String {
        self.lock().metrics.render()
    }
}

fn client_field(r: &Record) -> Option<String> {
    r.fields
        .iter()
        .find(|f| f.key == "client")
        .map(|f| match &f.value {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::Str(s) => s.clone(),
            Value::F64(v) => v.to_string(),
            Value::Bool(v) => v.to_string(),
        })
}

impl Sink for FlightRecorder {
    fn record(&self, record: Record) {
        {
            let mut state = self.lock();
            state.metrics.ingest(&record);
            if matches!(record.kind, Kind::Event) {
                let health = match record.name.as_str() {
                    "recovery.breaker_open" => Some("open"),
                    "recovery.breaker_probe" => Some("half-open"),
                    "recovery.breaker_close" => Some("closed"),
                    _ => None,
                };
                if let (Some(h), Some(client)) = (health, client_field(&record)) {
                    state.health.insert(client, h);
                }
            }
            state.ring.push_back(record.clone());
            while state.ring.len() > self.capacity {
                state.ring.pop_front();
            }
            let terminal = matches!(record.kind, Kind::Event)
                && (TERMINAL_EVENTS.contains(&record.name.as_str())
                    || record.name == "recovery.breaker_open");
            if terminal {
                let text = state.render(&record.name, record.clock);
                state.post_mortems.push(PostMortem {
                    reason: record.name.clone(),
                    clock: record.clock,
                    text,
                });
            }
        }
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
    use crate::handle::{Telemetry, TelemetryConfig};
    use crate::record::Field;
    use crate::sink::MemorySink;

    fn recorder_tel(capacity: usize) -> (Telemetry, Arc<FlightRecorder>) {
        let rec = Arc::new(FlightRecorder::new(capacity));
        let tel = Telemetry::with_config(rec.clone(), TelemetryConfig::default());
        (tel, rec)
    }

    #[test]
    fn ring_is_bounded() {
        let (tel, rec) = recorder_tel(4);
        for i in 0..10u64 {
            tel.counter("n", i);
        }
        assert_eq!(rec.lock().ring.len(), 4);
        assert!(rec.post_mortems().is_empty());
    }

    #[test]
    fn terminal_event_dumps_post_mortem() {
        let (tel, rec) = recorder_tel(8);
        tel.counter("cache.hits", 2);
        tel.set_clock(9);
        tel.event("server.all_dead", vec![Field::new("error", "boom")]);
        let pms = rec.take_post_mortems();
        assert_eq!(pms.len(), 1);
        assert_eq!(pms[0].reason, "server.all_dead");
        assert_eq!(pms[0].clock, 9);
        assert!(pms[0]
            .text
            .contains("== post-mortem: server.all_dead @ clock 9 =="));
        assert!(pms[0].text.contains("cache_hits_total 2"));
        assert!(pms[0].text.contains("\"name\":\"server.all_dead\""));
        assert!(rec.post_mortems().is_empty(), "take drains");
    }

    #[test]
    fn breaker_open_dumps_and_tracks_health() {
        let (tel, rec) = recorder_tel(8);
        tel.event("recovery.breaker_open", vec![Field::new("client", 3u64)]);
        tel.event("recovery.breaker_probe", vec![Field::new("client", 3u64)]);
        tel.event("recovery.breaker_close", vec![Field::new("client", 3u64)]);
        let pms = rec.post_mortems();
        assert_eq!(pms.len(), 1, "only the open triggers a dump");
        assert!(pms[0].text.contains("client 3: open"));
        assert!(rec.dump("manual").contains("client 3: closed"));
    }

    #[test]
    fn wrap_tees_records_unchanged() {
        let inner = Arc::new(MemorySink::new());
        let rec = Arc::new(FlightRecorder::wrap(2, inner.clone()));
        let tel = Telemetry::with_config(rec.clone(), TelemetryConfig::default());
        tel.counter("a", 1);
        tel.counter("b", 1);
        tel.counter("c", 1);
        assert_eq!(rec.lock().ring.len(), 2, "ring bounded");
        assert_eq!(inner.len(), 3, "inner sink sees everything");
    }

    #[test]
    fn dump_on_demand_renders_current_state() {
        let (tel, rec) = recorder_tel(8);
        tel.gauge("g", 2.5);
        let text = rec.dump("external_failure");
        assert!(text.contains("== post-mortem: external_failure"));
        assert!(text.contains("g 2.5"));
        assert!(text.contains("(no breaker activity)"));
    }

    #[test]
    fn post_mortems_are_deterministic() {
        let run = || {
            let (tel, rec) = recorder_tel(8);
            tel.counter("n", 1);
            tel.set_clock(4);
            tel.event("server.quorum_fail", vec![Field::new("error", "q")]);
            rec.post_mortems().remove(0).text
        };
        assert_eq!(run(), run());
    }
}
