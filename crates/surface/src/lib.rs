//! Objective surfaces for tuning experiments.
//!
//! The paper's controlled studies (§6) do not run GS2 live; they evaluate
//! optimizers against *"a data base that contains the performance of the
//! GS2 application for different parameter values"*, interpolating
//! missing lattice points by a weighted average of their closest
//! neighbours. This crate rebuilds that methodology:
//!
//! * [`Objective`] — the deterministic "true cost" `f(v)` interface
//!   (noise is layered on top by the cluster/optimizer crates),
//! * [`gs2`] — a synthetic GS2-like cost model over the paper's three
//!   parameters (`ntheta`, `negrid`, `nodes`): compute + communication +
//!   cache/topology ripple, producing the rugged multi-minimum surface of
//!   Fig. 8,
//! * [`database`] — a sparse performance database with inverse-distance
//!   weighted nearest-neighbour interpolation (§6), wrapping any
//!   objective,
//! * [`sharded`] — a concurrent, sharded cross-session performance
//!   database with lock-free snapshot reads, deterministic write
//!   combining, and results bit-identical to the single-owner
//!   [`PerfDatabase`],
//! * [`warm`] — warm-start seeding: the center a new session starts
//!   from, scored from a shared tier's published estimates and
//!   computed once per publication.

// `deny` (not `forbid`) so the one vetted lock-free module in
// `sharded::swap` can locally `allow` its AtomicPtr snapshot cell;
// everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod gs2;
pub mod objective;
pub mod sharded;
pub mod warm;

pub use database::PerfDatabase;
pub use gs2::Gs2Model;
pub use objective::{best_on_lattice, LatticeTable, Objective};
pub use sharded::{SharedDbStats, SharedPerfDb};
pub use warm::warm_start_center;
