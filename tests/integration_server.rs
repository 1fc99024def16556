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

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One journaled, traced GS2 server session rendered as text: its
/// outcome or error with the supervisor report, every WAL line, every
/// telemetry record, and every flight-recorder post-mortem.
fn session_text(procs: usize, k: usize, plan: FaultPlan, supervised: bool, seed: u64) -> String {
    let gs2 = Gs2Model::paper_scale();
    let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
    let cfg = ServerConfig::new(procs, 60, Estimator::MinOfK(k), seed).unwrap();
    let memory = std::sync::Arc::new(MemorySink::new());
    let recorder = std::sync::Arc::new(FlightRecorder::wrap(32, memory.clone()));
    let mut journal = SessionJournal::in_memory();
    let opts = SessionOptions {
        plan,
        telemetry: Telemetry::with_config(recorder.clone(), TelemetryConfig::default()),
        journal: Some(&mut journal),
        supervisor: supervised.then(SupervisorConfig::default),
        ..SessionOptions::default()
    };
    let out = run_session(&gs2, &Noise::paper_default(0.2), &mut pro, cfg, opts);
    let mut text = format!("{out:?}\n");
    for line in journal.wal_lines().unwrap() {
        text.push_str(&line);
        text.push('\n');
    }
    for record in memory.take() {
        text.push_str(&record.to_json());
        text.push('\n');
    }
    for pm in recorder.take_post_mortems() {
        text.push_str(&pm.text);
    }
    text
}

/// Everything a grid of 720 GS2 server sessions produces is pinned by
/// one digest: 12 seeds, 1–3 clients, five fault plans (none, delivery
/// faults only, crash rates 0.5 and 1.0, and a mix), supervised or not,
/// and K ∈ {1, 3}. The grid must reach the paths where dispatch order
/// matters most: a lone client crashing in the middle of a batch, and
/// an exploit runner dying so that the next live client takes over.
#[test]
fn pinned_session_grid_is_unchanged() {
    let mut all = String::new();
    let (mut lone_crashes, mut runner_deaths) = (0, 0);
    for seed in 1..=12u64 {
        let s = seed * 7;
        let plans = [
            FaultPlan::none(),
            FaultPlan::new(s, 0.0, 0.1, 0.1, 0.1),
            FaultPlan::new(s, 0.5, 0.0, 0.0, 0.0),
            FaultPlan::new(s, 1.0, 0.0, 0.0, 0.0),
            FaultPlan::new(s, 0.3, 0.05, 0.05, 0.05),
        ];
        for procs in 1..=3 {
            for plan in plans {
                for supervised in [false, true] {
                    for k in [1, 3] {
                        let text = session_text(procs, k, plan, supervised, seed);
                        // a lone client died while tuning: no exploit step
                        // was ever journaled
                        if procs == 1
                            && k == 3
                            && text.starts_with("Err(AllClientsDead")
                            && !text.contains("{\"t\":\"exploit\"")
                        {
                            lone_crashes += 1;
                        }
                        // an exploit step whose runner died
                        if text.contains("\"kind\":3") {
                            runner_deaths += 1;
                        }
                        all.push_str(&text);
                    }
                }
            }
        }
    }
    assert!(lone_crashes > 0, "no lone client crashed mid-batch");
    assert!(runner_deaths > 0, "no exploit runner died");
    assert_eq!(
        (
            all.len(),
            fnv1a(all.as_bytes()),
            lone_crashes,
            runner_deaths
        ),
        (14_115_437, 16_483_662_852_054_831_534, 44, 8),
        "a pinned server session changed"
    );
}
