//! Figure 1 — per-iteration time `T_k` and cumulative `Total_Time`
//! for three direct-search algorithms on the GS2 surface.
//!
//! The paper's point: judged by final per-iteration time (Fig. 1-a) one
//! algorithm looks best, judged by `Total_Time` (Fig. 1-b) another wins,
//! because `Total_Time` integrates the transient. We reproduce the
//! comparison with the three algorithms the paper discusses —
//! Nelder–Mead (the old Harmony optimizer), Sequential Rank Ordering,
//! and PRO — under heavy-tailed noise.

use crate::gs2_table;
use crate::report::Table;
use harmony_core::{Estimator, OnlineTuner, TunerConfig};
use harmony_surface::Objective;
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;

use super::tables::make_optimizer;

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig01Config {
    /// Time steps `K` per session.
    pub steps: usize,
    /// Idle throughput `ρ` of the Pareto noise.
    pub rho: f64,
    /// Pareto tail index `α`.
    pub alpha: f64,
    /// Replications averaged per algorithm.
    pub reps: usize,
    /// Simulated processors.
    pub procs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig01Config {
    fn default() -> Self {
        Fig01Config {
            steps: 300,
            rho: 0.1,
            alpha: 1.7,
            reps: 50,
            procs: 64,
            seed: 2005,
        }
    }
}

/// The algorithms compared in Fig. 1.
pub const ALGORITHMS: [&str; 3] = ["nelder-mead", "sro", "pro"];

/// Average per-step series of one algorithm: `(T_k, Total_Time(k))` per
/// step.
fn algorithm_series(name: &str, cfg: &Fig01Config) -> (Vec<f64>, Vec<f64>) {
    let gs2 = gs2_table();
    let noise = Noise::Pareto {
        alpha: cfg.alpha,
        rho: cfg.rho,
    };
    let per_rep = (0..cfg.reps).map(|rep| {
        let seed = stream_seed(cfg.seed, rep as u64);
        let tuner = OnlineTuner::new(TunerConfig {
            procs: cfg.procs,
            max_steps: cfg.steps,
            estimator: Estimator::Single,
            mode: harmony_cluster::SamplingMode::SequentialSteps,
            seed,
            full_occupancy: false,
            exploit_width: 6,
        });
        let mut opt = make_optimizer(name, gs2.space(), seed);
        let out = tuner
            .run(gs2, &noise, opt.as_mut())
            .expect("tuning session produced a recommendation");
        out.trace.step_times()[..cfg.steps].to_vec()
    });
    let mut tk = vec![0.0; cfg.steps];
    for rep in per_rep {
        for (a, b) in tk.iter_mut().zip(&rep) {
            *a += b / cfg.reps as f64;
        }
    }
    let mut total = Vec::with_capacity(cfg.steps);
    let mut acc = 0.0;
    for &t in &tk {
        acc += t;
        total.push(acc);
    }
    (tk, total)
}

/// Runs the full comparison, returning the Fig. 1 table:
/// `step, tk_<algo>…, total_<algo>…`.
pub fn run(cfg: &Fig01Config) -> Table {
    let mut header: Vec<String> = vec!["step".into()];
    header.extend(ALGORITHMS.iter().map(|a| format!("tk_{a}")));
    header.extend(ALGORITHMS.iter().map(|a| format!("total_{a}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("fig01_metrics", &header_refs);

    let series: Vec<(Vec<f64>, Vec<f64>)> = ALGORITHMS
        .iter()
        .map(|a| algorithm_series(a, cfg))
        .collect();
    for k in 0..cfg.steps {
        let mut row = vec![(k + 1) as f64];
        for (tk, _) in &series {
            row.push(tk[k]);
        }
        for (_, total) in &series {
            row.push(total[k]);
        }
        table.push(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig01Config {
        Fig01Config {
            steps: 40,
            reps: 3,
            ..Fig01Config::default()
        }
    }

    #[test]
    fn table_shape() {
        let t = run(&small());
        assert_eq!(t.rows.len(), 40);
        assert_eq!(t.header.len(), 7);
        assert_eq!(t.header[0], "step");
        assert_eq!(t.header[1], "tk_nelder-mead");
        assert_eq!(t.header[6], "total_pro");
    }

    #[test]
    fn totals_are_cumulative_and_increasing() {
        let t = run(&small());
        for col in 4..7 {
            for w in t.rows.windows(2) {
                assert!(w[1][col] > w[0][col], "total column {col} not increasing");
            }
        }
    }

    #[test]
    fn per_step_times_positive() {
        let t = run(&small());
        for row in &t.rows {
            for &v in &row[1..4] {
                assert!(v > 0.0);
            }
        }
    }
}
