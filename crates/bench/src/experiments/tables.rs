//! Companion tables T1–T3: queue-model validation, min-operator theory
//! validation, and the §2 baseline comparison.

use crate::report::Table;
use crate::{gs2_table, AvgResult, SessionRow};
use harmony_cluster::pool::{par_map_indexed_in, worker_count};
use harmony_cluster::SamplingMode;
use harmony_core::baselines::{
    ExhaustiveSweep, GeneticAlgorithm, RandomSearch, SimulatedAnnealing,
};
use harmony_core::nelder_mead::NelderMead;
use harmony_core::sro::SroOptimizer;
use harmony_core::{
    Estimator, OnlineTuner, Optimizer, ProOptimizer, SurrogateConfig, SurrogateOptimizer,
    TunerConfig,
};
use harmony_params::ParamSpace;
use harmony_stats::minop;
use harmony_stats::splitmix::hash_str;
use harmony_surface::Objective;
use harmony_variability::des::TwoPriorityDes;
use harmony_variability::dist::{Distribution, Exponential, Pareto};
use harmony_variability::noise::Noise;
use harmony_variability::{seeded_rng, stream_seed};

/// T1 — DES validation of eq. 6: `E[y] = f/(1−ρ)` under exponential and
/// heavy-tailed (Pareto) first-priority service.
pub fn queue_validation(reps: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "table_queue_validation",
        &[
            "rho",
            "analytic",
            "des_exponential",
            "des_pareto",
            "max_rel_err",
        ],
    );
    let f = 5.0;
    for rho in [0.05, 0.1, 0.2, 0.3, 0.4] {
        let analytic = f / (1.0 - rho);
        let mut rng = seeded_rng(stream_seed(seed, (rho * 100.0) as u64));
        let exp_q = TwoPriorityDes::with_rho(rho, Exponential::with_mean(0.2));
        let (exp_mean, _) = exp_q.mean_finishing_time(f, reps, &mut rng);
        let par_q = TwoPriorityDes::with_rho(rho, Pareto::new(2.2, 0.1));
        let (par_mean, _) = par_q.mean_finishing_time(f, reps, &mut rng);
        let err =
            ((exp_mean - analytic).abs() / analytic).max((par_mean - analytic).abs() / analytic);
        table.push(vec![rho, analytic, exp_mean, par_mean, err]);
    }
    table
}

/// T2 — min-operator theory (eq. 19/20): empirical survival of the
/// min-of-K of Pareto samples against the closed form, and the predicted
/// vs measured overshoot probability.
pub fn min_operator(reps: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "table_min_operator",
        &[
            "k",
            "model_surv",
            "empirical_surv",
            "overshoot_bound",
            "empirical_overshoot",
            "k_alpha",
        ],
    );
    let (alpha, beta, f) = (1.7, 2.0, 5.0);
    let noise = Pareto::new(alpha, beta);
    let z = f + beta + 1.0; // survival evaluation point
    let eps = 0.5;
    let mut rng = seeded_rng(seed);
    for k in 1..=5usize {
        let mut surv = 0usize;
        let mut over = 0usize;
        for _ in 0..reps {
            let m = (0..k)
                .map(|_| f + noise.sample(&mut rng))
                .fold(f64::INFINITY, f64::min);
            if m > z {
                surv += 1;
            }
            if m > f + beta + eps {
                over += 1;
            }
        }
        table.push(vec![
            k as f64,
            minop::min_survival(alpha, beta, k, f, z),
            surv as f64 / reps as f64,
            minop::overshoot_probability(alpha, beta, k, eps),
            over as f64 / reps as f64,
            k as f64 * alpha,
        ]);
    }
    table
}

/// Creates each baseline optimizer by name over `space`.
pub fn make_optimizer(name: &str, space: &ParamSpace, seed: u64) -> Box<dyn Optimizer> {
    let space = space.clone();
    match name {
        "pro" => Box::new(ProOptimizer::with_defaults(space)),
        "sro" => Box::new(SroOptimizer::with_defaults(space)),
        "nelder-mead" => Box::new(NelderMead::with_defaults(space)),
        "random" => Box::new(RandomSearch::new(space, 6, seed)),
        "simulated-annealing" => Box::new(SimulatedAnnealing::new(space, 2.0, 0.99, seed)),
        "genetic" => Box::new(GeneticAlgorithm::new(space, 12, 0.4, seed)),
        "exhaustive" => Box::new(ExhaustiveSweep::new(space, 64)),
        "surrogate" => Box::new(SurrogateOptimizer::new(
            space,
            SurrogateConfig::default(),
            seed,
        )),
        other => panic!("unknown optimizer {other}"),
    }
}

/// The algorithms compared in T3.
pub const BASELINES: [&str; 7] = [
    "pro",
    "sro",
    "nelder-mead",
    "random",
    "simulated-annealing",
    "genetic",
    "exhaustive",
];

/// Quality thresholds of the time-to-quality table, as multiples of the
/// global lattice optimum.
pub const QUALITY_FACTORS: [f64; 2] = [1.25, 1.1];

/// Values in a T3 row (the [`assemble_baselines`] columns).
pub const BASELINE_COLUMNS: usize = 4;

/// T3 — on-line suitability of global randomized baselines (§2): average
/// `Total_Time(K)` and the true cost of the returned configuration.
pub fn baselines(steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
    let workers = worker_count(reps);
    let rows: Vec<Vec<f64>> = BASELINES
        .iter()
        .map(|name| baseline_rows_in(workers, name, steps, reps, rho, &[], seed).0)
        .collect();
    assemble_baselines(&rows)
}

/// The time-to-quality table at [`QUALITY_FACTORS`]: for each algorithm,
/// the mean number of time steps until its deployed configuration is
/// within each factor of the global optimum, the fraction of sessions
/// that ever get there, and the mean true cost it ends with. Complements
/// T3: `Total_Time` rewards cheap transients, this rewards fast descent
/// — at the loose threshold the local methods shine, at the tight one
/// only global searchers reliably arrive.
pub fn time_to_quality(steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
    let workers = worker_count(reps);
    let rows: Vec<Vec<f64>> = BASELINES
        .iter()
        .map(|name| baseline_rows_in(workers, name, steps, reps, rho, &QUALITY_FACTORS, seed).1)
        .collect();
    assemble_time_to_quality(&QUALITY_FACTORS, &rows)
}

/// One algorithm's T3 row and time-to-quality row, read off one set of
/// `reps` sessions on `workers` inner threads.
///
/// The two tables are two readings of the same sessions: replication
/// `i` runs on seed `stream_seed(stream_seed(seed, hash_str(name)), i)`
/// in both, so one pass yields both rows, and the time-to-quality
/// `mean_final_true` is T3's `mean_best_true`. The seed stream depends
/// only on `(seed, name)`, so per-name harness subtasks reproduce the
/// monolithic tables bit for bit. As in fig10, the sessions tune against
/// the shared [`gs2_table`], which returns the model's values bit for
/// bit.
///
/// The time-to-quality row holds, per `factor`, the mean steps to reach
/// `factor ×` the global lattice optimum (NaN when no session did) and
/// the fraction of sessions that did, then the mean final true cost.
pub fn baseline_rows_in(
    workers: usize,
    name: &str,
    steps: usize,
    reps: usize,
    rho: f64,
    factors: &[f64],
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let gs2 = gs2_table();
    let noise = Noise::paper_default(rho);
    let (_, global) = harmony_surface::best_on_lattice(gs2).expect("discrete lattice");
    let base = stream_seed(seed, hash_str(name));
    let runs = par_map_indexed_in(workers, reps, |i| {
        let s = stream_seed(base, i as u64);
        let tuner = OnlineTuner::new(TunerConfig {
            procs: 64,
            max_steps: steps,
            estimator: Estimator::Single,
            mode: SamplingMode::SequentialSteps,
            seed: s,
            full_occupancy: false,
            exploit_width: 6,
        });
        let mut opt = make_optimizer(name, gs2.space(), s);
        let out = tuner
            .run(gs2, &noise, opt.as_mut())
            .expect("tuning session produced a recommendation");
        let hits: Vec<Option<usize>> = factors
            .iter()
            .map(|f| out.steps_to_quality(f * global))
            .collect();
        (SessionRow::of(&out, rho), hits)
    });
    let rows: Vec<SessionRow> = runs.iter().map(|r| r.0).collect();
    let avg = AvgResult::from_rows(&rows);
    let mut quality = Vec::with_capacity(2 * factors.len() + 1);
    for fi in 0..factors.len() {
        let reached: Vec<usize> = runs.iter().filter_map(|r| r.1[fi]).collect();
        let mean_steps = if reached.is_empty() {
            f64::NAN
        } else {
            reached.iter().sum::<usize>() as f64 / reached.len() as f64
        };
        quality.push(mean_steps);
        quality.push(reached.len() as f64 / reps as f64);
    }
    quality.push(avg.mean_best_true);
    (
        vec![
            avg.mean_total,
            avg.mean_ntt,
            avg.mean_best_true,
            avg.converged_frac,
        ],
        quality,
    )
}

/// Reassembles T3 from per-algorithm rows in [`BASELINES`] order.
pub fn assemble_baselines(rows: &[Vec<f64>]) -> Table {
    assert_eq!(rows.len(), BASELINES.len());
    let mut table = Table::new(
        "table_baselines",
        &["mean_total", "mean_ntt", "mean_best_true", "converged_frac"],
    );
    for (name, row) in BASELINES.iter().zip(rows) {
        table.push_labeled(*name, row.clone());
    }
    table
}

/// Reassembles the time-to-quality table from per-algorithm rows in
/// [`BASELINES`] order.
pub fn assemble_time_to_quality(factors: &[f64], rows: &[Vec<f64>]) -> Table {
    assert_eq!(rows.len(), BASELINES.len());
    let mut header: Vec<String> = Vec::new();
    for f in factors {
        header.push(format!("steps_to_{f}x"));
        header.push(format!("reached_{f}x"));
    }
    header.push("mean_final_true".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("table_time_to_quality", &header_refs);
    for (name, row) in BASELINES.iter().zip(rows) {
        table.push_labeled(*name, row.clone());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_validation_matches_analytic() {
        let t = queue_validation(20_000, 1);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            assert!(row[4] < 0.05, "rel err {} at rho {}", row[4], row[0]);
        }
    }

    #[test]
    fn min_operator_matches_theory() {
        let t = min_operator(30_000, 2);
        for row in &t.rows {
            assert!(
                (row[1] - row[2]).abs() < 0.01,
                "survival mismatch at k={}: model {} empirical {}",
                row[0],
                row[1],
                row[2]
            );
            assert!((row[3] - row[4]).abs() < 0.01);
        }
        // survival decays with k
        assert!(t.rows[4][1] < t.rows[0][1]);
    }

    #[test]
    fn baselines_table_runs() {
        let t = baselines(50, 4, 0.1, 3);
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.labels.len(), 7);
        for row in &t.rows {
            assert!(row[0] > 0.0);
            assert!(row[2] > 0.0);
        }
    }

    #[test]
    fn pro_beats_random_on_total_time() {
        let t = baselines(80, 10, 0.1, 4);
        let total = |name: &str| {
            let i = t.labels.iter().position(|l| l == name).unwrap();
            t.rows[i][0]
        };
        assert!(
            total("pro") < total("random"),
            "pro={} random={}",
            total("pro"),
            total("random")
        );
    }
}
