//! Integration tests of the threaded tuning server and the adaptive
//! tuner under edge-case configurations.

use harmony::core::adaptive::AdaptiveSampling;
use harmony::core::baselines::SimulatedAnnealing;
use harmony::prelude::*;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", -12, 12, 1).unwrap(),
        ParamDef::integer("y", -12, 12, 1).unwrap(),
    ])
    .unwrap()
}

fn bowl() -> harmony::surface::objective::FnObjective<impl Fn(&Point) -> f64 + Sync> {
    harmony::surface::objective::FnObjective::new("bowl", space(), |p| {
        1.0 + 0.1 * (p[0] * p[0] + p[1] * p[1])
    })
}

#[test]
fn server_with_a_single_client() {
    // every batch serialises through one client thread
    let obj = bowl();
    let mut pro = ProOptimizer::with_defaults(space());
    let out = run_session(
        &obj,
        &Noise::None,
        &mut pro,
        ServerConfig::new(1, 60, Estimator::Single, 1).unwrap(),
        SessionOptions::default(),
    )
    .expect("fault-free session")
    .outcome;
    assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
    assert!(out.trace.len() >= 60);
}

#[test]
fn server_with_more_samples_than_clients() {
    // k=7 samples on 3 clients: slots spill across multiple steps
    let obj = bowl();
    let mut pro = ProOptimizer::with_defaults(space());
    let out = run_session(
        &obj,
        &Noise::paper_default(0.2),
        &mut pro,
        ServerConfig::new(3, 80, Estimator::MinOfK(7), 2).unwrap(),
        SessionOptions::default(),
    )
    .expect("fault-free session")
    .outcome;
    assert!(out.best_true_cost < 3.0, "bt={}", out.best_true_cost);
    assert!(out.evaluations > 7 * 4, "evals={}", out.evaluations);
}

#[test]
fn server_fills_budget_for_non_converging_optimizers() {
    let obj = bowl();
    let mut sa = SimulatedAnnealing::new(space(), 2.0, 0.99, 3);
    let out = run_session(
        &obj,
        &Noise::None,
        &mut sa,
        ServerConfig::new(4, 50, Estimator::Single, 3).unwrap(),
        SessionOptions::default(),
    )
    .expect("fault-free session")
    .outcome;
    assert!(!out.converged);
    assert!(out.trace.len() >= 50);
    assert!(out.best_true_cost.is_finite());
}

#[test]
fn server_matches_tuner_on_deterministic_problems() {
    // no noise: client threading must not change the algorithm's path
    let obj = bowl();
    let mut a = ProOptimizer::with_defaults(space());
    let server = run_session(
        &obj,
        &Noise::None,
        &mut a,
        ServerConfig::new(8, 100, Estimator::Single, 7).unwrap(),
        SessionOptions::default(),
    )
    .expect("fault-free session")
    .outcome;
    let mut b = ProOptimizer::with_defaults(space());
    let tuner = OnlineTuner::new(TunerConfig {
        full_occupancy: false,
        ..TunerConfig::paper_default(100, Estimator::Single, 7)
    });
    let local = tuner.run(&obj, &Noise::None, &mut b).unwrap();
    assert_eq!(server.best_point, local.best_point);
    assert_eq!(server.best_true_cost, local.best_true_cost);
}

#[test]
fn adaptive_tuner_handles_tiny_clusters() {
    let obj = bowl();
    let tuner = OnlineTuner::adaptive(
        TunerConfig {
            procs: 2,
            full_occupancy: false,
            exploit_width: 2,
            ..TunerConfig::paper_default(60, Estimator::Single, 4)
        },
        AdaptiveSampling {
            min_k: 2,
            max_k: 4,
            patience: 1,
        },
    );
    let mut pro = ProOptimizer::with_defaults(space());
    let out = tuner
        .run(&obj, &Noise::paper_default(0.3), &mut pro)
        .unwrap();
    assert!(out.trace.len() >= 60);
    assert!(out.best_true_cost < 5.0);
}

#[test]
fn adaptive_tuner_on_gs2_is_frugal() {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.2);
    let adaptive = OnlineTuner::adaptive(
        TunerConfig {
            full_occupancy: false,
            ..TunerConfig::paper_default(100, Estimator::Single, 5)
        },
        AdaptiveSampling {
            min_k: 1,
            max_k: 5,
            patience: 2,
        },
    );
    let mut a = ProOptimizer::with_defaults(gs2.space().clone());
    let out_a = adaptive.run(&gs2, &noise, &mut a).unwrap();

    // the adaptive session fills its budget, returns a sane config, and
    // respects the sampling cap (at most max_k rounds per consumed step
    // would be 6 evals per trace step for a 6-point batch; per-batch
    // frugality itself is covered by the policy unit tests)
    assert!(out_a.trace.len() >= 100);
    assert!(out_a.best_true_cost < 6.0, "bt={}", out_a.best_true_cost);
    assert!(
        out_a.evaluations <= out_a.trace.len() * 7,
        "evals={} steps={}",
        out_a.evaluations,
        out_a.trace.len()
    );
}
