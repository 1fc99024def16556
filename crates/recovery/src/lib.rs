//! Session persistence for harmony tuning: versioned checkpoint codecs,
//! a write-ahead observation log, and supervisor health tracking.
//!
//! The build environment has no serde, so state is serialised with
//! hand-rolled std-only codecs:
//!
//! * [`codec`] — a length-prefixed, tagged, versioned **binary** format
//!   ([`StateWriter`]/[`StateReader`]) used for periodic snapshots. All
//!   floats travel as `f64::to_bits` words, so round-trips are exact.
//! * [`wal`] — a **JSONL** write-ahead log of per-batch observations.
//!   Every record carries enough to re-apply the batch to the optimizer
//!   *and* to re-emit its telemetry, so a session killed at any batch
//!   boundary replays to a byte-identical [`TuningOutcome`] and trace.
//! * [`json`] — the workspace's one JSON reader, behind WAL lines,
//!   telemetry traces and the harness report: exact integers, typed
//!   errors, bounded nesting.
//! * [`journal`] — the storage container binding snapshots and the WAL
//!   together, with an in-memory backend (tests simulate kills by
//!   truncating it) and a directory backend for real persistence.
//! * [`health`] — deterministic per-client health scores and circuit
//!   breakers for the supervisor layered on the resilient server.
//!
//! State owners implement [`Checkpoint`]; the codec guarantees
//! round-trip identity (`save_state` → `restore_state` reproduces the
//! observable behaviour bit for bit).
//!
//! [`TuningOutcome`]: https://docs.rs/harmony-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod health;
pub mod journal;
pub mod json;
pub mod wal;

pub use codec::{CodecError, StateReader, StateWriter};
pub use health::{BreakerState, HealthTracker, SupervisorConfig, Transition, TransitionKind};
pub use journal::SessionJournal;
pub use wal::{
    BatchRecord, ExploitKind, ExploitRecord, HeaderRecord, RoundDelta, WalRecord, WAL_VERSION,
};

/// Checkpointable state: serialise into a [`StateWriter`] and restore
/// from a [`StateReader`], with round-trip identity guaranteed.
///
/// `restore_state` overwrites the receiver's logical state in place; the
/// receiver must already be structurally compatible (same parameter
/// space / configuration) — codecs persist *state*, not construction
/// parameters. Implementations are expected to be composable: a parent
/// checkpoint calls `save_state` on each child in a fixed order.
pub trait Checkpoint {
    /// Serialises the receiver's logical state.
    fn save_state(&self, w: &mut StateWriter);

    /// Restores state previously written by [`Checkpoint::save_state`].
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError>;
}

/// Convenience: serialises `value` into a fresh versioned buffer.
pub fn save_to_vec(value: &dyn Checkpoint) -> Vec<u8> {
    let mut w = StateWriter::new();
    value.save_state(&mut w);
    w.into_bytes()
}

/// Convenience: restores `value` from a [`save_to_vec`] buffer.
pub fn restore_from_slice(value: &mut dyn Checkpoint, bytes: &[u8]) -> Result<(), CodecError> {
    let mut r = StateReader::new(bytes)?;
    value.restore_state(&mut r)?;
    r.finish()
}
