//! Figure 10 — average normalised total time vs number of samples `K`
//! for different idle throughput values (§6.2).
//!
//! The paper's setup: `Total_Time(100)`, Pareto `α = 1.7` noise, samples
//! taken in *subsequent time steps* (worst case), `K ∈ 1..=5`,
//! `ρ ∈ {0, 0.05, …, 0.4}`, 2 000 replications per configuration.
//!
//! Expected shape: the `ρ = 0` curve grows linearly in `K` (redundant
//! samples just burn steps); noisy curves have an interior optimum `K*`
//! that increases with `ρ`; and a small amount of noise can *help*
//! (`ρ = 0.05` dipping below `ρ = 0`) by kicking the search out of poor
//! local minima.

use crate::report::Table;
use crate::{average_sessions_in, gs2_table, repeat_session};
use harmony_cluster::pool::worker_count;
use harmony_cluster::SamplingMode;
use harmony_core::{Estimator, OnlineTuner, ProOptimizer, TunerConfig, TuningOutcome};
use harmony_surface::Objective;
use harmony_variability::noise::Noise;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Idle throughput values to sweep.
    pub rhos: Vec<f64>,
    /// Sample counts `K` to sweep.
    pub ks: Vec<usize>,
    /// Pareto tail index (paper: 1.7).
    pub alpha: f64,
    /// Time-step budget (paper: 100).
    pub steps: usize,
    /// Replications per configuration (paper: 2 000).
    pub reps: usize,
    /// Simulated processors.
    pub procs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            rhos: (0..=8).map(|i| 0.05 * i as f64).collect(),
            ks: (1..=5).collect(),
            alpha: 1.7,
            steps: 100,
            reps: 2_000,
            procs: 64,
            seed: 2005,
        }
    }
}

/// The extended-sweep idle throughputs (`run_extended` row order).
pub const EXTENDED_RHOS: [f64; 5] = [0.40, 0.45, 0.50, 0.55, 0.60];

/// Index of the Fig. 10 grid column whose ρ equals `rho` bit for bit.
///
/// An extended row with such a column is that column, cell for cell:
/// both run [`cell_with_sem_in`] with the same `(ρ, K, cfg)`. The default
/// grid's last ρ, `0.05 * 8.0`, is `0.40` in f64, so the harness computes
/// the extended ρ = 0.40 row once, as part of Fig. 10, and runs only the
/// other extended rows.
pub fn grid_column(cfg: &Fig10Config, rho: f64) -> Option<usize> {
    cfg.rhos.iter().position(|&r| r == rho)
}

/// Average NTT for one `(ρ, K)` cell, with its standard error, on
/// `workers` inner replication threads.
///
/// Harness subtasks pass `workers == 1` so the task-graph pool owns all
/// parallelism; the cell value is bit-identical for any worker count
/// because every replication seed is `stream_seed(cell_seed, rep)`.
///
/// Like the paper's recorded database, the GS2 model is tabulated once
/// per process ([`gs2_table`]) and the table is shared by every cell's
/// replications; it returns the model's values bit for bit. The
/// noise-free column (ρ = 0) runs one session and folds it `reps` times
/// ([`repeat_session`]): with no noise and PRO's seedless proposals,
/// every replication is the same session.
pub fn cell_with_sem_in(workers: usize, rho: f64, k: usize, cfg: &Fig10Config) -> (f64, f64) {
    cell(workers, rho, k, cfg, 32, SamplingMode::SequentialSteps)
}

/// Average NTT for one *packed-scheduling* `(ρ, K)` cell (§5.2 sweep).
///
/// Seed stream `cfg.seed ^ (k << 40)` is disjoint from the sequential
/// sweep's `cfg.seed ^ (k << 32)` by construction. The model table and
/// the noise-free column are shared as in [`cell_with_sem_in`].
pub fn packed_cell_in(workers: usize, rho: f64, k: usize, cfg: &Fig10Config) -> f64 {
    cell(workers, rho, k, cfg, 40, SamplingMode::Packed).0
}

/// One replication of a `(ρ, K)` cell under `mode`: a PRO session on the
/// shared [`gs2_table`] with min-of-`K` estimates and Pareto noise
/// (none at ρ = 0).
pub fn session(
    rho: f64,
    k: usize,
    cfg: &Fig10Config,
    mode: SamplingMode,
    seed: u64,
) -> TuningOutcome {
    let gs2 = gs2_table();
    let noise = if rho == 0.0 {
        Noise::None
    } else {
        Noise::Pareto {
            alpha: cfg.alpha,
            rho,
        }
    };
    let tuner = OnlineTuner::new(TunerConfig {
        procs: cfg.procs,
        max_steps: cfg.steps,
        estimator: Estimator::MinOfK(k),
        mode,
        seed,
        full_occupancy: false,
        exploit_width: 6,
    });
    let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
    tuner
        .run(gs2, &noise, &mut opt)
        .expect("tuning session produced a recommendation")
}

/// `(mean NTT, SEM)` of one cell under `mode`, on the seed stream
/// `cfg.seed ^ (k << salt_shift)`.
fn cell(
    workers: usize,
    rho: f64,
    k: usize,
    cfg: &Fig10Config,
    salt_shift: u32,
    mode: SamplingMode,
) -> (f64, f64) {
    let base_seed = cfg.seed ^ ((k as u64) << salt_shift);
    let run = |seed| session(rho, k, cfg, mode, seed);
    let avg = if rho == 0.0 {
        repeat_session(cfg.reps, base_seed, rho, run)
    } else {
        average_sessions_in(workers, cfg.reps, base_seed, rho, run)
    };
    (avg.mean_ntt, avg.sem_ntt)
}

/// The extension beyond the paper's grid: on our synthetic surface the
/// interior optimum `K* > 1` becomes decisive at higher idle throughput
/// than in the paper (see EXPERIMENTS.md); this table sweeps
/// `ρ ∈ {0.40, …, 0.60}` with standard errors so the crossover is
/// visible beyond replication noise.
pub fn run_extended(cfg: &Fig10Config) -> Table {
    let workers = worker_count(cfg.reps);
    let cells: Vec<(f64, f64)> = EXTENDED_RHOS
        .iter()
        .flat_map(|&rho| cfg.ks.iter().map(move |&k| (rho, k)))
        .map(|(rho, k)| cell_with_sem_in(workers, rho, k, cfg))
        .collect();
    assemble_extended(cfg, &cells)
}

/// Reassembles the extended table from ρ-major `(ntt, sem)` cells
/// (`cells[ri * ks.len() + ki]`), in exact canonical row/column order.
pub fn assemble_extended(cfg: &Fig10Config, cells: &[(f64, f64)]) -> Table {
    assert_eq!(cells.len(), EXTENDED_RHOS.len() * cfg.ks.len());
    let mut header: Vec<String> = vec!["rho".into()];
    for k in &cfg.ks {
        header.push(format!("ntt_k{k}"));
        header.push(format!("sem_k{k}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("fig10_extended", &header_refs);
    for (ri, &rho) in EXTENDED_RHOS.iter().enumerate() {
        let mut row = vec![rho];
        for ki in 0..cfg.ks.len() {
            let (ntt, sem) = cells[ri * cfg.ks.len() + ki];
            row.push(ntt);
            row.push(sem);
        }
        table.push(row);
    }
    table
}

/// The §5.2 counterpoint to Fig. 10: the same sweep under *packed*
/// scheduling, where `P = 64` processors evaluate all `n·K` samples of a
/// batch concurrently — "we can set K = 10 with no additional cost".
/// Expected shape: NTT barely grows with K (only estimate quality
/// changes), so multi-sampling becomes strictly advisable.
pub fn run_packed(cfg: &Fig10Config) -> Table {
    let workers = worker_count(cfg.reps);
    let cells: Vec<f64> = cfg
        .ks
        .iter()
        .flat_map(|&k| cfg.rhos.iter().map(move |&rho| (rho, k)))
        .map(|(rho, k)| packed_cell_in(workers, rho, k, cfg))
        .collect();
    assemble_grid(cfg, "fig10_packed", &cells)
}

/// The Fig. 10 table: one row per `K`, one column per `ρ`.
pub fn run(cfg: &Fig10Config) -> Table {
    let workers = worker_count(cfg.reps);
    let cells: Vec<f64> = cfg
        .ks
        .iter()
        .flat_map(|&k| cfg.rhos.iter().map(move |&rho| (rho, k)))
        .map(|(rho, k)| cell_with_sem_in(workers, rho, k, cfg).0)
        .collect();
    assemble_grid(cfg, "fig10_multisample", &cells)
}

/// Reassembles a K×ρ grid table from K-major NTT cells
/// (`cells[ki * rhos.len() + ri]`), in exact canonical row/column order.
pub fn assemble_grid(cfg: &Fig10Config, title: &str, cells: &[f64]) -> Table {
    assert_eq!(cells.len(), cfg.ks.len() * cfg.rhos.len());
    let mut header: Vec<String> = vec!["k".into()];
    header.extend(cfg.rhos.iter().map(|r| format!("rho_{r:.2}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for (ki, &k) in cfg.ks.iter().enumerate() {
        let mut row = vec![k as f64];
        row.extend_from_slice(&cells[ki * cfg.rhos.len()..(ki + 1) * cfg.rhos.len()]);
        table.push(row);
    }
    table
}

/// Derived summary: the optimal `K*` per `ρ` (argmin over the K column).
pub fn optimal_k(table: &Table) -> Table {
    let mut out = Table::new("fig10_optimal_k", &["rho", "k_star", "ntt_at_k_star"]);
    for col in 1..table.header.len() {
        let rho: f64 = table.header[col]
            .trim_start_matches("rho_")
            .parse()
            .expect("rho header");
        let (best_row, best_val) = table
            .rows
            .iter()
            .map(|r| (r[0], r[col]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite NTT"))
            .expect("non-empty table");
        out.push(vec![rho, best_row, best_val]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig10Config {
        Fig10Config {
            rhos: vec![0.0, 0.2],
            ks: vec![1, 2, 3],
            reps: 12,
            steps: 60,
            ..Fig10Config::default()
        }
    }

    #[test]
    fn table_shape() {
        let t = run(&small());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.header.len(), 3);
        for row in &t.rows {
            assert!(row[1..].iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn rho_zero_grows_with_k() {
        // redundant samples burn budget without information: NTT at
        // rho=0 must increase in K
        let t = run(&small());
        let col = 1; // rho 0.0
        assert!(
            t.rows[2][col] > t.rows[0][col],
            "k=3 ({}) should exceed k=1 ({})",
            t.rows[2][col],
            t.rows[0][col]
        );
    }

    #[test]
    fn extended_row_040_is_the_default_grids_last_column() {
        let cfg = Fig10Config::default();
        let shared: Vec<Option<usize>> = EXTENDED_RHOS
            .iter()
            .map(|&r| grid_column(&cfg, r))
            .collect();
        assert_eq!(shared, [Some(8), None, None, None, None]);
    }

    #[test]
    fn optimal_k_extraction() {
        let t = run(&small());
        let opt = optimal_k(&t);
        assert_eq!(opt.rows.len(), 2);
        // at rho=0 the optimum is K=1 by construction
        assert_eq!(opt.rows[0][1], 1.0);
    }
}
