//! End-to-end integration tests spanning all crates: objective →
//! database → noise → cluster → optimizer → outcome.

use harmony::prelude::*;

#[test]
fn full_paper_pipeline_on_gs2_database() {
    // §6 methodology: sparse database of the GS2 surface, PRO with
    // min-of-K sampling under Pareto noise
    let gs2 = Gs2Model::paper_scale();
    let mut rng = seeded_rng(1);
    let db = PerfDatabase::from_objective(&gs2, 0.7, 4, &mut rng);
    let noise = Noise::paper_default(0.2);

    let tuner = OnlineTuner::new(TunerConfig::paper_default(150, Estimator::MinOfK(3), 99));
    let mut pro = ProOptimizer::with_defaults(db.space().clone());
    let out = tuner.run(&db, &noise, &mut pro).unwrap();

    let (_, optimum) = best_on_lattice(&db).expect("discrete space");
    assert!(
        out.best_true_cost < 3.0 * optimum,
        "tuned {} vs optimum {optimum}",
        out.best_true_cost
    );
    assert!(out.trace.len() >= 150);
    assert!(out.total_time() > 0.0);
}

#[test]
fn min_estimator_dominates_mean_under_heavy_tails() {
    // the paper's central claim, across replications, on the real GS2
    // surface with alpha=1.1 noise (infinite mean)
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::Pareto {
        alpha: 1.1,
        rho: 0.3,
    };
    let avg_best = |est: Estimator| {
        let reps = 12;
        (0..reps)
            .map(|r| {
                let tuner =
                    OnlineTuner::new(TunerConfig::paper_default(120, est, stream_seed(5, r)));
                let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
                tuner.run(&gs2, &noise, &mut pro).unwrap().best_true_cost
            })
            .sum::<f64>()
            / reps as f64
    };
    let min3 = avg_best(Estimator::MinOfK(3));
    let mean3 = avg_best(Estimator::MeanOfK(3));
    assert!(
        min3 < mean3 * 1.05,
        "min3 = {min3} should not lose to mean3 = {mean3}"
    );
}

#[test]
fn sequential_and_distributed_agree_without_noise() {
    // same optimizer family, no noise: both drivers must find the same
    // optimal configuration of the GS2 surface
    let gs2 = Gs2Model::paper_scale();

    let tuner = OnlineTuner::new(TunerConfig::paper_default(200, Estimator::Single, 3));
    let mut a = ProOptimizer::with_defaults(gs2.space().clone());
    let seq = tuner.run(&gs2, &Noise::None, &mut a).unwrap();

    let mut b = ProOptimizer::with_defaults(gs2.space().clone());
    let dist = run_session(
        &gs2,
        &Noise::None,
        &mut b,
        ServerConfig::new(8, 200, Estimator::Single, 3).unwrap(),
        SessionOptions::default(),
    )
    .expect("fault-free session")
    .outcome;

    // deterministic objective + deterministic PRO: identical best points
    assert_eq!(seq.best_point, dist.best_point);
    assert_eq!(seq.best_true_cost, dist.best_true_cost);
}

#[test]
fn all_optimizers_run_on_the_same_problem() {
    use harmony::core::baselines::{GeneticAlgorithm, RandomSearch, SimulatedAnnealing};
    use harmony::core::nelder_mead::NelderMead;
    use harmony::core::sro::SroOptimizer;

    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.1);
    let space = gs2.space().clone();
    let mut opts: Vec<Box<dyn Optimizer>> = vec![
        Box::new(ProOptimizer::with_defaults(space.clone())),
        Box::new(SroOptimizer::with_defaults(space.clone())),
        Box::new(NelderMead::with_defaults(space.clone())),
        Box::new(RandomSearch::new(space.clone(), 6, 1)),
        Box::new(SimulatedAnnealing::new(space.clone(), 2.0, 0.99, 1)),
        Box::new(GeneticAlgorithm::new(space, 12, 0.4, 1)),
    ];
    for opt in &mut opts {
        let tuner = OnlineTuner::new(TunerConfig::paper_default(80, Estimator::Single, 17));
        let out = tuner.run(&gs2, &noise, opt.as_mut()).unwrap();
        assert!(
            out.best_true_cost.is_finite() && out.best_true_cost > 0.0,
            "{} produced nonsense",
            opt.name()
        );
        assert!(out.trace.len() >= 80, "{} under-ran the budget", opt.name());
    }
}

#[test]
fn ntt_makes_different_rho_comparable() {
    // eq. 23: NTT = (1-rho)*Total_Time compensates E[y] = f/(1-rho).
    // That identity concerns a single observation per step, so this
    // test runs without full SPMD occupancy (where T_k is a max over
    // P draws and scales differently).
    let gs2 = Gs2Model::paper_scale();
    let run_at = |rho: f64| {
        let noise = if rho == 0.0 {
            Noise::None
        } else {
            Noise::Exponential { rho } // light tail: E[y] = f/(1-rho) exactly
        };
        let reps = 10;
        (0..reps)
            .map(|r| {
                let tuner = OnlineTuner::new(TunerConfig {
                    full_occupancy: false,
                    ..TunerConfig::paper_default(100, Estimator::Single, stream_seed(23, r))
                });
                let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
                tuner.run(&gs2, &noise, &mut pro).unwrap().ntt(rho)
            })
            .sum::<f64>()
            / reps as f64
    };
    let ntt0 = run_at(0.0);
    let ntt03 = run_at(0.3);
    // same order of magnitude (noise changes the search path, so exact
    // equality is not expected)
    assert!(
        (ntt03 / ntt0) < 2.0 && (ntt03 / ntt0) > 0.5,
        "ntt0={ntt0} ntt03={ntt03}"
    );
}

#[test]
fn trace_analysis_pipeline_is_heavy_tailed() {
    use harmony::stats::tail::classify_tail;
    use harmony::variability::trace::ClusterTraceModel;

    let samples = ClusterTraceModel::gs2_like(32, 600).generate(4).flatten();
    let verdict = classify_tail(&samples, 0.15);
    assert!(verdict.alpha > 0.0, "{verdict:?}");
    let hist = Histogram::from_samples(&samples, 15);
    assert!(hist.tail_mass(3) > 0.0);
}

/// The fingerprint a golden session is pinned to: `Total_Time` bits,
/// evaluations, deployed point and quality-curve length.
fn fingerprint(out: &TuningOutcome) -> (u64, usize, Vec<f64>, usize) {
    (
        out.total_time().to_bits(),
        out.evaluations,
        out.best_point.as_slice().to_vec(),
        out.quality_curve.len(),
    )
}

#[test]
fn adaptive_gs2_session_is_pinned() {
    use harmony::core::adaptive::AdaptiveSampling;
    let gs2 = Gs2Model::paper_scale();
    let tuner = OnlineTuner::adaptive(
        TunerConfig {
            full_occupancy: false,
            ..TunerConfig::paper_default(200, Estimator::Single, 2005)
        },
        AdaptiveSampling {
            min_k: 1,
            max_k: 6,
            patience: 2,
        },
    );
    let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
    let out = tuner
        .run(&gs2, &Noise::paper_default(0.2), &mut pro)
        .unwrap();
    assert_eq!(
        fingerprint(&out),
        (4652449418089697796, 154, vec![56.0, 28.0, 32.0], 10)
    );
}

#[test]
fn two_phase_bowl_session_is_pinned() {
    // the stopping PRO converges in the first phase, so the exploit
    // phase runs across the shift and re-costs the incumbent there
    let space = ParamSpace::new(vec![
        ParamDef::integer("x", -20, 20, 1).unwrap(),
        ParamDef::integer("y", -20, 20, 1).unwrap(),
    ])
    .unwrap();
    let a = harmony::surface::objective::FnObjective::new("a", space.clone(), |p| {
        2.0 + 0.05 * ((p[0] - 5.0).powi(2) + (p[1] - 5.0).powi(2))
    });
    let b = harmony::surface::objective::FnObjective::new("b", space.clone(), |p| {
        2.0 + 0.05 * ((p[0] + 5.0).powi(2) + (p[1] + 5.0).powi(2))
    });
    let tuner = OnlineTuner::new(TunerConfig {
        full_occupancy: false,
        ..TunerConfig::paper_default(300, Estimator::MinOfK(2), 77)
    });
    let mut pro = ProOptimizer::with_defaults(space);
    let noise = Noise::Pareto {
        alpha: 1.7,
        rho: 0.2,
    };
    let out = tuner
        .run_phases(&[(0, &a), (150, &b)], &noise, &mut pro)
        .unwrap();
    assert_eq!(
        fingerprint(&out),
        (4659344733799578752, 88, vec![5.0, 5.0], 16)
    );
}
