//! # harmony — parallel parameter tuning under performance variability
//!
//! A production-quality Rust reproduction of Tabatabaee, Tiwari &
//! Hollingsworth, *"Parallel Parameter Tuning for Applications with
//! Performance Variability"* (SC 2005) — the Parallel Rank Ordering
//! (PRO) extension of the Active Harmony on-line tuning system.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`params`] — parameter spaces, the projection operator `Π`, simplex
//!   geometry, initial-simplex construction,
//! * [`variability`] — heavy-tailed noise models, the two-priority-queue
//!   machine model and its discrete-event validation, cluster traces,
//! * [`surface`] — objectives: the synthetic GS2 model and the §6
//!   performance database with interpolation,
//! * [`stats`] — ECDF / histogram / Hill-estimator tail diagnostics and
//!   the closed-form min-of-K theory,
//! * [`cluster`] — SPMD time-step execution, `Total_Time`/NTT metrics,
//!   sample scheduling, a replication thread pool, deterministic fault
//!   injection,
//! * [`telemetry`] — deterministic structured tracing: logical-clock
//!   stamped events, counters, histograms, nestable spans, JSONL
//!   serialisation, trace summaries, and the operational layer
//!   (windowed metrics registry, span profiler, flight-recorder
//!   post-mortems),
//! * [`recovery`] — session persistence: versioned checkpoint codecs, a
//!   write-ahead observation log with snapshots, and supervisor health
//!   tracking for self-healing tuning sessions,
//! * [`core`] — the optimizers (PRO, SRO, Nelder–Mead, baselines), the
//!   estimator layer, the on-line tuning driver, and the threaded
//!   fault-tolerant Active-Harmony-style server.
//!
//! # Quickstart
//!
//! ```
//! use harmony::prelude::*;
//!
//! // tune the synthetic GS2 application under heavy-tailed noise
//! let gs2 = Gs2Model::paper_scale();
//! let noise = Noise::paper_default(0.2); // Pareto alpha=1.7, rho=0.2
//! let tuner = OnlineTuner::new(TunerConfig::paper_default(
//!     100,
//!     Estimator::MinOfK(2),
//!     42,
//! ));
//! let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
//! let outcome = tuner.run(&gs2, &noise, &mut pro)?;
//! println!(
//!     "best {:?} -> {:.3}s/iter, Total_Time(100) = {:.1}s",
//!     outcome.best_point,
//!     outcome.best_true_cost,
//!     outcome.total_time()
//! );
//! assert!(outcome.best_true_cost < 10.0);
//! # Ok::<(), harmony::core::server::ServerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cli;

pub use harmony_cluster as cluster;
pub use harmony_core as core;
pub use harmony_params as params;
pub use harmony_recovery as recovery;
pub use harmony_stats as stats;
pub use harmony_surface as surface;
pub use harmony_telemetry as telemetry;
pub use harmony_variability as variability;

/// The most commonly used items in one import.
pub mod prelude {
    pub use harmony_cluster::{Cluster, FaultPlan, SamplingMode, TuningTrace};
    pub use harmony_core::baselines::{GeneticAlgorithm, RandomSearch, SimulatedAnnealing};
    pub use harmony_core::nelder_mead::NelderMead;
    pub use harmony_core::server::{
        run_session, RecoveryConfig, ServerConfig, ServerError, SessionOptions, SharedSession,
        SupervisedOutcome, SupervisorReport,
    };
    pub use harmony_core::sro::SroOptimizer;
    pub use harmony_core::{
        Estimator, FaultStats, OnlineTuner, Optimizer, ProConfig, ProOptimizer, SurrogateConfig,
        SurrogateOptimizer, TunerConfig, TuningOutcome,
    };
    pub use harmony_params::init::{InitialShape, DEFAULT_RELATIVE_SIZE};
    pub use harmony_params::{ParamDef, ParamKind, ParamSpace, Point, Rounding, Simplex};
    pub use harmony_recovery::{Checkpoint, SessionJournal, SupervisorConfig};
    pub use harmony_stats::{Ecdf, Histogram, Summary};
    pub use harmony_surface::{best_on_lattice, Gs2Model, Objective, PerfDatabase};
    pub use harmony_telemetry::{
        FlightRecorder, JsonlSink, MemorySink, MetricsRegistry, MetricsSink, NullSink, Profile,
        Telemetry, TelemetryConfig,
    };
    pub use harmony_variability::dist::{Distribution, Pareto};
    pub use harmony_variability::noise::{Noise, NoiseModel};
    pub use harmony_variability::{seeded_rng, stream_seed};
}
