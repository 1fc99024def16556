//! Figure 9 — effect of initial-simplex shape and relative size on
//! average normalised total time (§6.1).
//!
//! Expected shape: the `2N`-vertex symmetric simplex clearly outperforms
//! the minimal `N+1`-vertex simplex, and performance as a function of
//! the relative size `r` has an interior optimum (too small traps near
//! the center and wastes expansions; too large visits poor marginal
//! configurations).

use crate::report::Table;
use crate::{average_sessions_in, gs2_table};
use harmony_cluster::SamplingMode;
use harmony_core::{Estimator, OnlineTuner, ProConfig, ProOptimizer, TunerConfig};
use harmony_params::init::InitialShape;
use harmony_surface::Objective;
use harmony_variability::noise::Noise;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig09Config {
    /// Relative sizes `r` to sweep.
    pub sizes: Vec<f64>,
    /// Time-step budget per session.
    pub steps: usize,
    /// Replications per configuration.
    pub reps: usize,
    /// Idle throughput of the Pareto(α=1.7) noise.
    pub rho: f64,
    /// Simulated processors.
    pub procs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig09Config {
    fn default() -> Self {
        Fig09Config {
            sizes: vec![0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9],
            steps: 100,
            reps: 200,
            rho: 0.1,
            procs: 64,
            seed: 2005,
        }
    }
}

/// Average NTT of PRO with the given initial simplex on GS2.
pub fn avg_ntt(shape: InitialShape, r: f64, cfg: &Fig09Config) -> f64 {
    let gs2 = gs2_table();
    let noise = Noise::paper_default(cfg.rho);
    let pro_cfg = ProConfig {
        shape,
        relative_size: r,
        ..ProConfig::default()
    };
    average_sessions_in(1, cfg.reps, cfg.seed, cfg.rho, |seed| {
        let tuner = OnlineTuner::new(TunerConfig {
            procs: cfg.procs,
            max_steps: cfg.steps,
            estimator: Estimator::Single,
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: false,
            exploit_width: 6,
        });
        let mut opt = ProOptimizer::new(gs2.space().clone(), pro_cfg);
        tuner
            .run(gs2, &noise, &mut opt)
            .expect("tuning session produced a recommendation")
    })
    .mean_ntt
}

/// The Fig. 9 table: `r, ntt_minimal, ntt_symmetric`.
pub fn run(cfg: &Fig09Config) -> Table {
    let mut table = Table::new("fig09_init_simplex", &["r", "ntt_minimal", "ntt_symmetric"]);
    for &r in &cfg.sizes {
        table.push(vec![
            r,
            avg_ntt(InitialShape::Minimal, r, cfg),
            avg_ntt(InitialShape::Symmetric, r, cfg),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig09Config {
        Fig09Config {
            sizes: vec![0.1, 0.2, 0.5],
            steps: 60,
            reps: 8,
            ..Fig09Config::default()
        }
    }

    #[test]
    fn table_shape_and_positive() {
        let t = run(&small());
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert!(row[1] > 0.0 && row[2] > 0.0);
        }
    }

    #[test]
    fn symmetric_beats_minimal_at_default_size() {
        // the paper's headline Fig. 9 observation, at reduced scale
        let cfg = Fig09Config {
            sizes: vec![0.2],
            steps: 80,
            reps: 24,
            ..Fig09Config::default()
        };
        let t = run(&cfg);
        let (minimal, symmetric) = (t.rows[0][1], t.rows[0][2]);
        assert!(
            symmetric < minimal * 1.05,
            "symmetric={symmetric} minimal={minimal}"
        );
    }
}
