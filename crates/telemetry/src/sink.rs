//! Pluggable trace sinks: null, in-memory, and JSONL file.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::record::Record;

/// Receives finished records from a [`crate::Telemetry`] handle.
///
/// Implementations must be thread-safe; records may arrive from any
/// thread holding a clone of the handle.
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn record(&self, record: Record);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}

    /// Whether this sink wants records at all.
    ///
    /// [`NullSink`] returns `false`, which lets the emitting macros skip
    /// record construction entirely — the "zero overhead when disabled"
    /// guarantee checked by the `telemetry.nullsink` gate of the
    /// `overhead` binary.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; reports itself as disabled so emit sites skip
/// even building the record.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _record: Record) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers records in memory; the sink tests assert against.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory sink poisoned").len()
    }

    /// Whether no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the buffered records.
    pub fn snapshot(&self) -> Vec<Record> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Drains and returns the buffered records.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().expect("memory sink poisoned"))
    }
}

impl Sink for MemorySink {
    fn record(&self, record: Record) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record);
    }
}

/// Writes one JSON object per line to an [`io::Write`] target.
///
/// Records are serialized to a single line buffer and handed to the
/// underlying [`BufWriter`] in one `write_all`, so the per-record cost
/// is one memcpy, not a syscall (the `telemetry/jsonl_emit` Criterion
/// datapoint tracks it). Buffered output is flushed on [`Sink::flush`]
/// and again when the sink drops, so a trace file is complete without
/// an explicit flush call.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(Box::new(out))),
        }
    }

    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }
}

impl Sink for JsonlSink {
    fn record(&self, record: Record) {
        let mut line = record.to_json();
        line.push('\n');
        let _ = self
            .out
            .lock()
            .expect("jsonl sink poisoned")
            .write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Serializes a record slice as JSONL text (with trailing newline).
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Kind;

    fn rec(name: &str) -> Record {
        Record {
            clock: 0,
            parent: 0,
            kind: Kind::Event,
            name: name.into(),
            fields: vec![],
            wall_ns: None,
        }
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        NullSink.record(rec("x")); // must not panic
    }

    #[test]
    fn memory_sink_buffers_and_takes() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(rec("a"));
        sink.record(rec("b"));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.snapshot().len(), 2);
        let taken = sink.take();
        assert_eq!(taken[1].name, "b");
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        struct SharedWriter(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(SharedWriter(shared.clone()));
        sink.record(rec("a"));
        sink.record(rec("b"));
        sink.flush();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let shared = std::sync::Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        {
            let sink = JsonlSink::new(SharedWriter(shared.clone()));
            sink.record(rec("a"));
            // no explicit flush: the BufWriter may still hold the line
        }
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1, "drop must flush buffered output");
    }

    #[test]
    fn to_jsonl_matches_per_record_json() {
        let rs = vec![rec("a"), rec("b")];
        let text = to_jsonl(&rs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], rs[0].to_json());
        assert_eq!(lines[1], rs[1].to_json());
    }
}
