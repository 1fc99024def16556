//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each `experiments::figNN` / `experiments::table_*` module exposes
//! pure functions consumed both by the [`harness`] task graph behind the
//! `run_all` binary (full paper-scale parameters, CSV output; `--only`
//! selects experiments) and by the Criterion benchmarks (reduced sizes).
//! Every experiment is one entry of [`harness::EXPERIMENTS`], so adding
//! one is one registry entry; inside the harness, experiment code runs
//! serially in its job, scheduled by the graph pool (three experiments'
//! server sessions also spawn one thread per client; see [`harness`]). See
//! `DESIGN.md` §3 for the experiment ↔ paper-artifact index and
//! `EXPERIMENTS.md` for the recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod overhead;
pub mod plot;
pub mod report;

use harmony_cluster::pool::par_map_indexed_in;
use harmony_core::tuner::TuningOutcome;
use harmony_surface::{Gs2Model, LatticeTable};
use harmony_variability::stream_seed;
use std::sync::OnceLock;

/// The paper-scale GS2 model tabulated over its lattice, built once per
/// process on first use and shared by every experiment cell that tunes
/// against it (fig01, fig09, fig10, the tables, the ablations, T8). The
/// table returns the model's values bit for bit, so sharing it changes
/// no output.
pub fn gs2_table() -> &'static LatticeTable<'static, Gs2Model> {
    static MODEL: OnceLock<Gs2Model> = OnceLock::new();
    static TABLE: OnceLock<LatticeTable<'static, Gs2Model>> = OnceLock::new();
    TABLE.get_or_init(|| LatticeTable::new(MODEL.get_or_init(Gs2Model::paper_scale)))
}

/// Aggregates of many independent tuning replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgResult {
    /// Mean `Total_Time(K)` across replications.
    pub mean_total: f64,
    /// Mean normalised total time `(1−ρ)·Total_Time`.
    pub mean_ntt: f64,
    /// Standard error of the NTT mean.
    pub sem_ntt: f64,
    /// Mean *true* cost of the returned best point.
    pub mean_best_true: f64,
    /// Fraction of replications whose optimizer converged in budget.
    pub converged_frac: f64,
    /// Mean objective evaluations consumed.
    pub mean_evals: f64,
    /// Number of replications.
    pub reps: usize,
}

/// The values of one replication that [`AvgResult`] averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRow {
    /// `Total_Time(K)`.
    pub total: f64,
    /// Normalised total time at the cell's ρ.
    pub ntt: f64,
    /// True cost of the returned best point.
    pub best_true: f64,
    /// Whether the optimizer converged in budget.
    pub converged: bool,
    /// Objective evaluations consumed.
    pub evaluations: usize,
}

impl SessionRow {
    /// The row of one session at idle throughput `rho`.
    pub fn of(out: &TuningOutcome, rho: f64) -> Self {
        SessionRow {
            total: out.total_time(),
            ntt: out.ntt(rho),
            best_true: out.best_true_cost,
            converged: out.converged,
            evaluations: out.evaluations,
        }
    }
}

impl AvgResult {
    /// Averages replication rows in index order. The sums run left to
    /// right, so equal rows give equal bits however they were computed.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_rows(rows: &[SessionRow]) -> Self {
        assert!(!rows.is_empty(), "need at least one replication");
        let reps = rows.len();
        let n = reps as f64;
        let mean_ntt = rows.iter().map(|r| r.ntt).sum::<f64>() / n;
        let var_ntt = if reps > 1 {
            rows.iter().map(|r| (r.ntt - mean_ntt).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        AvgResult {
            mean_total: rows.iter().map(|r| r.total).sum::<f64>() / n,
            mean_ntt,
            sem_ntt: (var_ntt / n).sqrt(),
            mean_best_true: rows.iter().map(|r| r.best_true).sum::<f64>() / n,
            converged_frac: rows
                .iter()
                .map(|r| f64::from(u8::from(r.converged)))
                .sum::<f64>()
                / n,
            mean_evals: rows.iter().map(|r| r.evaluations as f64).sum::<f64>() / n,
            reps,
        }
    }
}

/// Runs `reps` independent replications of a tuning session on
/// `workers` threads (each derives its seed from `base_seed` and its
/// index) and averages.
///
/// Harness jobs run their replication loops with `workers == 1` so
/// that the graph pool owns all parallelism (no oversubscription) — the
/// aggregate is bit-identical either way because [`par_map_indexed_in`]
/// returns results in index order and [`AvgResult::from_rows`] sums
/// left to right.
pub fn average_sessions_in<F>(
    workers: usize,
    reps: usize,
    base_seed: u64,
    rho: f64,
    session: F,
) -> AvgResult
where
    F: Fn(u64) -> TuningOutcome + Sync,
{
    assert!(reps > 0, "need at least one replication");
    let rows = par_map_indexed_in(workers, reps, |i| {
        SessionRow::of(&session(stream_seed(base_seed, i as u64)), rho)
    });
    AvgResult::from_rows(&rows)
}

/// [`average_sessions_in`] for a session that does not depend on its
/// seed: it runs replication 0 once and folds its row `reps` times, so
/// the aggregate has the bits of `reps` identical replications.
///
/// A session qualifies when nothing in it draws from the seed: no noise
/// (`Noise::None`, so the tuner's generator is never read) and a seedless
/// optimizer such as PRO. Noise-free cells of the fig10 and monitoring
/// sweeps use it; `noise_free_sessions_ignore_the_seed` in
/// `tests/noise_free.rs` checks the premise.
pub fn repeat_session<F>(reps: usize, base_seed: u64, rho: f64, session: F) -> AvgResult
where
    F: FnOnce(u64) -> TuningOutcome,
{
    assert!(reps > 0, "need at least one replication");
    let row = SessionRow::of(&session(stream_seed(base_seed, 0)), rho);
    AvgResult::from_rows(&vec![row; reps])
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_cluster::pool::worker_count;
    use harmony_core::{Estimator, OnlineTuner, ProOptimizer, TunerConfig};
    use harmony_params::{ParamDef, ParamSpace};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;

    #[test]
    fn average_sessions_aggregates() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", -10, 10, 1).unwrap()]).unwrap();
        let obj = FnObjective::new("sq", space.clone(), |p| 1.0 + p[0] * p[0]);
        let rho = 0.2;
        let avg = average_sessions_in(worker_count(8), 8, 1, rho, |seed| {
            let tuner = OnlineTuner::new(TunerConfig::paper_default(40, Estimator::Single, seed));
            let mut opt = ProOptimizer::with_defaults(space.clone());
            tuner
                .run(&obj, &Noise::paper_default(rho), &mut opt)
                .unwrap()
        });
        assert_eq!(avg.reps, 8);
        assert!(avg.mean_total > 0.0);
        assert!((avg.mean_ntt - 0.8 * avg.mean_total).abs() < 1e-9);
        assert!(avg.converged_frac > 0.0);
        assert!(avg.mean_best_true >= 1.0);
    }

    #[test]
    fn average_is_deterministic() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", -10, 10, 1).unwrap()]).unwrap();
        let obj = FnObjective::new("sq", space.clone(), |p| 1.0 + p[0] * p[0]);
        let run = || {
            average_sessions_in(worker_count(4), 4, 9, 0.1, |seed| {
                let tuner =
                    OnlineTuner::new(TunerConfig::paper_default(30, Estimator::MinOfK(2), seed));
                let mut opt = ProOptimizer::with_defaults(space.clone());
                tuner
                    .run(&obj, &Noise::paper_default(0.1), &mut opt)
                    .unwrap()
            })
        };
        assert_eq!(run(), run());
    }
}
