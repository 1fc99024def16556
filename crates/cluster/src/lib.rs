//! SPMD cluster simulation and on-line tuning metrics (§2, §5.2).
//!
//! The paper's application model: `P` processors run the same iterative
//! code; after every iteration they synchronize, so the cluster-wide
//! iteration time is the *worst case* over processors,
//! `T_k = max_p t_{p,k}` (eq. 1), and the quantity a tuner must minimise
//! is the cumulative `Total_Time(K) = Σ T_k` (eq. 2) — not the final
//! converged value.
//!
//! * [`metrics`] — [`metrics::TuningTrace`] accumulates `T_k` per time
//!   step and reports `Total_Time` and the normalised
//!   `NTT = (1−ρ)·Total_Time` of eq. 23,
//! * [`spmd`] — [`spmd::Cluster`] runs a batch of candidate evaluations
//!   as barrier-synchronised time steps: every scheduled evaluation
//!   observes its own noise draw and each step costs the maximum,
//! * [`schedule`] — [`schedule::Layout`] maps `(n points) × (K samples)`
//!   onto `P` processors: the paper's sequential-steps worst case (§6.2)
//!   or dense packing (§5.2's "with 64 processors we can set K=10 with
//!   no additional cost"),
//! * [`pool`] — a scoped work-stealing worker pool for running thousands
//!   of independent replications in parallel on real threads,
//! * [`fault`] — seeded, deterministic injection of client crashes,
//!   hangs, dropped reports and duplicate reports
//!   ([`fault::FaultPlan`]) for the real-thread tuning server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod pool;
pub mod schedule;
pub mod spmd;

pub use fault::{Delivery, FaultPlan};
pub use metrics::{TraceError, TuningTrace};
pub use schedule::SamplingMode;
pub use spmd::Cluster;
