//! Ablations A1/A2 plus the projection-rounding study — the design
//! choices DESIGN.md calls out. Every study tunes against the shared
//! [`gs2_table`] of the GS2 model, as fig10 does; the table returns the
//! model's values bit for bit.

use crate::report::Table;
use crate::{average_sessions, average_sessions_in, gs2_table, repeat_session};
use harmony_cluster::pool::worker_count;
use harmony_cluster::SamplingMode;
use harmony_core::{Estimator, OnlineTuner, ProConfig, ProOptimizer, TunerConfig};
use harmony_params::Rounding;
use harmony_surface::Objective;
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;

fn session<O: Objective + ?Sized>(
    gs2: &O,
    noise: &Noise,
    pro_cfg: ProConfig,
    estimator: Estimator,
    steps: usize,
    seed: u64,
) -> harmony_core::TuningOutcome {
    let tuner = OnlineTuner::new(TunerConfig {
        procs: 64,
        max_steps: steps,
        estimator,
        mode: SamplingMode::SequentialSteps,
        seed,
        full_occupancy: false,
        exploit_width: 6,
    });
    let mut opt = ProOptimizer::new(gs2.space().clone(), pro_cfg);
    tuner
        .run(gs2, noise, &mut opt)
        .expect("tuning session produced a recommendation")
}

/// A1 — the expansion-check heuristic (Algorithm 2 line 8) on vs off:
/// probing the single most promising expansion point first avoids
/// stalling the whole cluster on poor expansion configurations.
pub fn expansion_check(steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
    let gs2 = gs2_table();
    let noise = Noise::paper_default(rho);
    let mut table = Table::new(
        "ablation_expansion_check",
        &["mean_total", "mean_ntt", "mean_best_true", "mean_evals"],
    );
    for (label, check) in [("check_on", true), ("check_off", false)] {
        let cfg = ProConfig {
            expansion_check: check,
            ..ProConfig::default()
        };
        let avg = average_sessions(reps, stream_seed(seed, check as u64), rho, |s| {
            session(gs2, &noise, cfg, Estimator::Single, steps, s)
        });
        table.push_labeled(
            label,
            vec![
                avg.mean_total,
                avg.mean_ntt,
                avg.mean_best_true,
                avg.mean_evals,
            ],
        );
    }
    table
}

/// The A2 noise families, in canonical column order.
pub fn estimator_noises(rho: f64) -> [(&'static str, Noise); 4] {
    [
        ("pareto_a1.7", Noise::Pareto { alpha: 1.7, rho }),
        ("pareto_a1.1", Noise::Pareto { alpha: 1.1, rho }),
        ("gaussian", Noise::Gaussian { rho, cv: 0.5 }),
        ("spiky", Noise::Spiky { rho }),
    ]
}

/// The A2 estimators, in canonical row order.
pub const ESTIMATORS: [Estimator; 5] = [
    Estimator::Single,
    Estimator::MinOfK(3),
    Estimator::MeanOfK(3),
    Estimator::MedianOfK(3),
    Estimator::MinOfK(5),
];

/// A2 — estimator comparison under different noise families: the mean
/// estimator degrades under heavy tails while the min stays effective.
pub fn estimators(steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
    let workers = worker_count(reps);
    let mut cells = Vec::with_capacity(ESTIMATORS.len() * estimator_noises(rho).len());
    for ei in 0..ESTIMATORS.len() {
        for ni in 0..estimator_noises(rho).len() {
            cells.push(estimators_cell_in(workers, ei, ni, steps, reps, rho, seed));
        }
    }
    assemble_estimators(rho, &cells)
}

/// One A2 cell: mean best-true cost for `(ESTIMATORS[est_idx],
/// estimator_noises(rho)[noise_idx])`, with an explicit inner worker
/// count. The cell seed depends only on the noise index and the
/// estimator's sample count, exactly as in the monolithic sweep.
pub fn estimators_cell_in(
    workers: usize,
    est_idx: usize,
    noise_idx: usize,
    steps: usize,
    reps: usize,
    rho: f64,
    seed: u64,
) -> f64 {
    let gs2 = gs2_table();
    let est = ESTIMATORS[est_idx];
    let noises = estimator_noises(rho);
    let (_, ref noise) = noises[noise_idx];
    let avg = average_sessions_in(
        workers,
        reps,
        stream_seed(seed, (noise_idx as u64) << 8 | est.samples() as u64),
        rho,
        |s| session(gs2, noise, ProConfig::default(), est, steps, s),
    );
    avg.mean_best_true
}

/// Reassembles A2 from estimator-major cells
/// (`cells[est_idx * n_noises + noise_idx]`).
pub fn assemble_estimators(rho: f64, cells: &[f64]) -> Table {
    let noises = estimator_noises(rho);
    assert_eq!(cells.len(), ESTIMATORS.len() * noises.len());
    let header: Vec<String> = noises
        .iter()
        .map(|(n, _)| format!("best_true_{n}"))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("ablation_estimators", &header_refs);
    for (ei, est) in ESTIMATORS.iter().enumerate() {
        let row = cells[ei * noises.len()..(ei + 1) * noises.len()].to_vec();
        table.push_labeled(est.label(), row);
    }
    table
}

/// Projection-rounding study: the paper's toward-center rule vs plain
/// nearest rounding — toward-center guarantees discrete shrink collapse
/// (and therefore termination of the stopping criterion).
pub fn projection(steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
    let gs2 = gs2_table();
    let noise = Noise::paper_default(rho);
    let mut table = Table::new(
        "ablation_projection",
        &["mean_total", "mean_best_true", "converged_frac"],
    );
    for (label, rounding) in [
        ("toward_center", Rounding::TowardCenter),
        ("nearest", Rounding::Nearest),
    ] {
        let cfg = ProConfig {
            rounding,
            ..ProConfig::default()
        };
        let avg = average_sessions(reps, stream_seed(seed, label.len() as u64), rho, |s| {
            session(gs2, &noise, cfg, Estimator::Single, steps, s)
        });
        table.push_labeled(
            label,
            vec![avg.mean_total, avg.mean_best_true, avg.converged_frac],
        );
    }
    table
}

/// The monitoring-study idle throughputs, in canonical row order.
pub const MONITORING_RHOS: [f64; 4] = [0.0, 0.05, 0.2, 0.4];

/// Monitoring-mode study: stop-at-convergence (§3.2.2 as written) vs
/// continuous re-probing with fresh re-measurement of `v⁰`. Under
/// heavy-tailed noise the continuous mode acts like a light annealer —
/// it escapes ridge basins that trap the stopping version — at the cost
/// of evaluating probe batches forever.
pub fn monitoring(steps: usize, reps: usize, seed: u64) -> Table {
    let workers = worker_count(reps);
    let mut cells = Vec::with_capacity(MONITORING_RHOS.len() * 2);
    for ri in 0..MONITORING_RHOS.len() {
        for continuous in [false, true] {
            cells.push(monitoring_cell_in(
                workers, ri, continuous, steps, reps, seed,
            ));
        }
    }
    assemble_monitoring(&cells)
}

/// One replication of a monitoring cell: a PRO session that stops at
/// convergence or keeps re-probing (`continuous`), at
/// `MONITORING_RHOS[rho_idx]` (no noise at ρ = 0).
pub fn monitoring_session(
    rho_idx: usize,
    continuous: bool,
    steps: usize,
    seed: u64,
) -> harmony_core::TuningOutcome {
    let rho = MONITORING_RHOS[rho_idx];
    let noise = if rho == 0.0 {
        Noise::None
    } else {
        Noise::paper_default(rho)
    };
    let cfg = ProConfig {
        continuous,
        ..ProConfig::default()
    };
    session(gs2_table(), &noise, cfg, Estimator::Single, steps, seed)
}

/// One monitoring cell: `(mean NTT, mean best-true)` for
/// `(MONITORING_RHOS[rho_idx], continuous)`, with an explicit inner
/// worker count; same seed stream as the monolithic sweep.
pub fn monitoring_cell_in(
    workers: usize,
    rho_idx: usize,
    continuous: bool,
    steps: usize,
    reps: usize,
    seed: u64,
) -> (f64, f64) {
    let rho = MONITORING_RHOS[rho_idx];
    let base_seed = stream_seed(seed, u64::from(continuous) + 2);
    let run = |s| monitoring_session(rho_idx, continuous, steps, s);
    // noise-free: every replication is the same session (see fig10)
    let avg = if rho == 0.0 {
        repeat_session(reps, base_seed, rho, run)
    } else {
        average_sessions_in(workers, reps, base_seed, rho, run)
    };
    (avg.mean_ntt, avg.mean_best_true)
}

/// Reassembles the monitoring table from ρ-major `(ntt, best_true)`
/// cells (`cells[rho_idx * 2 + continuous as usize]`).
pub fn assemble_monitoring(cells: &[(f64, f64)]) -> Table {
    assert_eq!(cells.len(), MONITORING_RHOS.len() * 2);
    let mut table = Table::new(
        "ablation_monitoring",
        &[
            "rho",
            "ntt_stop",
            "best_true_stop",
            "ntt_continuous",
            "best_true_continuous",
        ],
    );
    for (ri, &rho) in MONITORING_RHOS.iter().enumerate() {
        let (ntt_stop, bt_stop) = cells[ri * 2];
        let (ntt_cont, bt_cont) = cells[ri * 2 + 1];
        table.push(vec![rho, ntt_stop, bt_stop, ntt_cont, bt_cont]);
    }
    table
}

/// Adaptive-K study (the paper's future work): fixed `K ∈ {1, 3, 5}`
/// against the adaptive policy across idle throughputs — NTT, delivered
/// configuration quality, and average samples actually spent.
pub fn adaptive_k(steps: usize, reps: usize, seed: u64) -> Table {
    use harmony_core::adaptive::AdaptiveSampling;
    let gs2 = gs2_table();
    let mut table = Table::new(
        "ablation_adaptive_k",
        &[
            "rho",
            "ntt_k1",
            "ntt_k3",
            "ntt_k5",
            "ntt_adaptive",
            "bt_k1",
            "bt_adaptive",
            "evals_k5",
            "evals_adaptive",
        ],
    );
    for rho in [0.05, 0.2, 0.4] {
        let noise = Noise::paper_default(rho);
        let fixed = |k: usize| {
            average_sessions(reps, stream_seed(seed, k as u64), rho, |s| {
                session(
                    gs2,
                    &noise,
                    ProConfig::default(),
                    Estimator::MinOfK(k),
                    steps,
                    s,
                )
            })
        };
        let (f1, f3, f5) = (fixed(1), fixed(3), fixed(5));
        let adaptive = average_sessions(reps, stream_seed(seed, 99), rho, |s| {
            let tuner = OnlineTuner::adaptive(
                TunerConfig {
                    full_occupancy: false,
                    ..TunerConfig::paper_default(steps, Estimator::Single, s)
                },
                AdaptiveSampling {
                    min_k: 1,
                    max_k: 6,
                    patience: 2,
                },
            );
            let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
            tuner
                .run(gs2, &noise, &mut opt)
                .expect("tuning session produced a recommendation")
        });
        table.push(vec![
            rho,
            f1.mean_ntt,
            f3.mean_ntt,
            f5.mean_ntt,
            adaptive.mean_ntt,
            f1.mean_best_true,
            adaptive.mean_best_true,
            f5.mean_evals,
            adaptive.mean_evals,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_check_table() {
        let t = expansion_check(60, 6, 0.1, 1);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r[0] > 0.0));
    }

    #[test]
    fn estimator_table_shape() {
        let t = estimators(50, 4, 0.2, 2);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.header.len(), 4);
        assert_eq!(t.labels[1], "min3");
    }

    #[test]
    fn adaptive_k_table_shape() {
        let t = adaptive_k(50, 4, 5);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert!(row[1..].iter().all(|&v| v > 0.0), "{row:?}");
            // adaptive stays well below its worst case (max_k = 6 rounds
            // of every batch, ~6/5 of the fixed-K5 budget)
            assert!(row[8] < row[7] * 1.3, "{row:?}");
        }
    }

    #[test]
    fn monitoring_table_shape() {
        let t = monitoring(60, 6, 4);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert!(row[1] > 0.0 && row[3] > 0.0);
        }
    }

    #[test]
    fn projection_toward_center_converges_reliably() {
        let t = projection(80, 8, 0.05, 3);
        let toward = &t.rows[0];
        assert!(toward[2] > 0.5, "converged_frac={}", toward[2]);
    }
}
