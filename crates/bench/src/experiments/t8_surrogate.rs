//! T8 — surrogate-model head-to-head: the TPE-style
//! [`harmony_core::SurrogateOptimizer`] against the paper's own
//! simplex methods (PRO, SRO), classic Nelder–Mead, and random search,
//! under the paper-default Pareto noise mix at two variability levels.
//!
//! Every optimizer runs through the identical [`OnlineTuner`] driver
//! with min-of-3 resilient estimates (§5), so the comparison isolates
//! the *proposal policy*: `Total_Time`/NTT measure the cost of the
//! transient, `mean_best_true` the quality of the returned
//! configuration at equal budget, `mean_evals` the sample efficiency,
//! and the `steps_to_q`/`reached_q` pair the speed of reaching within
//! [`QUALITY_FACTOR`]× of the global lattice optimum.
//!
//! The table fans out as one harness subtask per `(rho, optimizer)`
//! cell; cell seed streams depend only on `(seed, name, rho index)`,
//! so the merged table is bit-identical to the monolithic computation
//! at any worker count.

use crate::gs2_table;
use crate::report::Table;
use harmony_cluster::pool::par_map_indexed_in;
use harmony_cluster::SamplingMode;
use harmony_core::{Estimator, OnlineTuner, TunerConfig};
use harmony_stats::splitmix::hash_str;
use harmony_surface::Objective;
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;

use super::tables::make_optimizer;

/// The proposal policies compared.
pub const T8_OPTIMIZERS: [&str; 5] = ["surrogate", "pro", "sro", "nelder-mead", "random"];
/// Variability magnitudes ρ swept.
pub const T8_RHOS: [f64; 2] = [0.1, 0.3];
/// Quality threshold as a multiple of the global lattice optimum.
pub const QUALITY_FACTOR: f64 = 1.25;
/// Simulated processors per session (matches the T3 baseline setup).
const PROCS: usize = 64;
/// Samples per estimate — min-of-K as in the paper's §5 policy.
const SAMPLES: usize = 3;
/// Seed-stream salt separating T8 from every other experiment family.
const T8_SALT: u64 = 0x78;

/// The seed stream of one `(optimizer, rho)` cell — a pure function of
/// `(seed, name, ri)`, independent of subtask scheduling.
fn cell_seed(seed: u64, oi: usize, ri: usize) -> u64 {
    stream_seed(
        stream_seed(seed, T8_SALT),
        stream_seed(hash_str(T8_OPTIMIZERS[oi]), ri as u64),
    )
}

/// One T8 cell on `workers` threads — the harness fan-out unit.
/// `oi` indexes [`T8_OPTIMIZERS`], `ri` indexes [`T8_RHOS`]; returns
/// the row values after the leading ρ coordinate, in
/// [`assemble_t8`] column order.
pub fn t8_cell_in(
    workers: usize,
    oi: usize,
    ri: usize,
    steps: usize,
    reps: usize,
    seed: u64,
) -> Vec<f64> {
    let name = T8_OPTIMIZERS[oi];
    let rho = T8_RHOS[ri];
    let gs2 = gs2_table();
    let noise = Noise::paper_default(rho);
    let (_, global) = harmony_surface::best_on_lattice(gs2).expect("discrete lattice");
    let base = cell_seed(seed, oi, ri);
    let rows = par_map_indexed_in(workers, reps, |i| {
        let s = stream_seed(base, i as u64);
        let tuner = OnlineTuner::new(TunerConfig {
            procs: PROCS,
            max_steps: steps,
            estimator: Estimator::MinOfK(SAMPLES),
            mode: SamplingMode::SequentialSteps,
            seed: s,
            full_occupancy: false,
            exploit_width: 6,
        });
        let mut opt = make_optimizer(name, gs2.space(), s);
        let out = tuner
            .run(gs2, &noise, opt.as_mut())
            .expect("tuning session produced a recommendation");
        (
            out.total_time(),
            out.ntt(rho),
            out.best_true_cost,
            out.evaluations,
            out.steps_to_quality(QUALITY_FACTOR * global),
        )
    });
    let n = reps as f64;
    let reached: Vec<usize> = rows.iter().filter_map(|r| r.4).collect();
    let mean_steps = if reached.is_empty() {
        f64::NAN
    } else {
        reached.iter().sum::<usize>() as f64 / reached.len() as f64
    };
    vec![
        rows.iter().map(|r| r.0).sum::<f64>() / n,
        rows.iter().map(|r| r.1).sum::<f64>() / n,
        rows.iter().map(|r| r.2).sum::<f64>() / n,
        rows.iter().map(|r| r.3 as f64).sum::<f64>() / n,
        mean_steps,
        reached.len() as f64 / n,
    ]
}

/// Computes the whole T8 table, `workers` threads inside each cell —
/// byte-identical to the harness fan-out (cells are
/// worker-count-independent).
pub fn t8_surrogate(workers: usize, steps: usize, reps: usize, seed: u64) -> Table {
    let cells: Vec<Vec<f64>> = (0..T8_RHOS.len() * T8_OPTIMIZERS.len())
        .map(|p| {
            t8_cell_in(
                workers,
                p % T8_OPTIMIZERS.len(),
                p / T8_OPTIMIZERS.len(),
                steps,
                reps,
                seed,
            )
        })
        .collect();
    assemble_t8(&cells)
}

/// Reassembles the T8 table from per-cell values in ρ-major,
/// [`T8_OPTIMIZERS`]-minor order — byte-identical to the monolithic
/// computation.
pub fn assemble_t8(cells: &[Vec<f64>]) -> Table {
    assert_eq!(cells.len(), T8_RHOS.len() * T8_OPTIMIZERS.len());
    let mut table = Table::new(
        "t8_surrogate",
        &[
            "rho",
            "mean_total",
            "mean_ntt",
            "mean_best_true",
            "mean_evals",
            "steps_to_q",
            "reached_q",
        ],
    );
    for (p, vals) in cells.iter().enumerate() {
        let name = T8_OPTIMIZERS[p % T8_OPTIMIZERS.len()];
        let rho = T8_RHOS[p / T8_OPTIMIZERS.len()];
        let mut row = vec![rho];
        row.extend_from_slice(vals);
        table.push_labeled(name, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_is_worker_count_independent() {
        let a = t8_cell_in(1, 0, 0, 8, 4, 77);
        let b = t8_cell_in(4, 0, 0, 8, 4, 77);
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&a), to_bits(&b));
    }

    #[test]
    fn assemble_prefixes_rho_and_labels_optimizers() {
        let cells: Vec<Vec<f64>> = (0..T8_RHOS.len() * T8_OPTIMIZERS.len())
            .map(|i| vec![i as f64; 6])
            .collect();
        let t = assemble_t8(&cells);
        assert_eq!(t.rows.len(), cells.len());
        for (p, row) in t.rows.iter().enumerate() {
            assert_eq!(row[0], T8_RHOS[p / T8_OPTIMIZERS.len()]);
            assert_eq!(row.len(), 7);
        }
        assert_eq!(t.labels[0], T8_OPTIMIZERS[0]);
    }

    #[test]
    fn full_table_matches_cellwise_assembly() {
        let direct = t8_surrogate(2, 6, 2, 5);
        let cells: Vec<Vec<f64>> = (0..T8_RHOS.len() * T8_OPTIMIZERS.len())
            .map(|p| t8_cell_in(1, p % T8_OPTIMIZERS.len(), p / T8_OPTIMIZERS.len(), 6, 2, 5))
            .collect();
        let merged = assemble_t8(&cells);
        assert_eq!(direct.to_csv(), merged.to_csv());
    }
}
