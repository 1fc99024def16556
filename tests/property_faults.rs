//! Chaos suite: property-based tests of the fault-tolerant server.
//!
//! The resilient server is *deterministic by construction* — fault
//! decisions are pure hashes of `(plan seed, client, task serial)` and
//! time is logical, so the same seed and the same [`FaultPlan`] must
//! reproduce the same [`TuningOutcome`] bit for bit regardless of
//! thread scheduling. These tests replay whole sessions to enforce
//! that, plus the ISSUE acceptance bound: a session losing a quarter of
//! its clients and 10% of its reports still tunes GS2 to within 2× of
//! the fault-free best true cost.
//!
//! CI runs this file with an elevated `PROPTEST_CASES` as the chaos
//! step.

use harmony::prelude::*;
use harmony::recovery::{restore_from_slice, save_to_vec};
use harmony::surface::objective::FnObjective;
use proptest::prelude::*;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", -12, 12, 1).unwrap(),
        ParamDef::integer("y", -12, 12, 1).unwrap(),
    ])
    .unwrap()
}

fn bowl() -> FnObjective<impl Fn(&Point) -> f64 + Sync> {
    FnObjective::new("bowl", space(), |p| 1.0 + 0.1 * (p[0] * p[0] + p[1] * p[1]))
}

fn session(
    seed: u64,
    procs: usize,
    steps: usize,
    plan: &FaultPlan,
) -> Result<TuningOutcome, ServerError> {
    let obj = bowl();
    let mut pro = ProOptimizer::with_defaults(space());
    let cfg = ServerConfig::new(procs, steps, Estimator::Single, seed).unwrap();
    let opts = SessionOptions {
        plan: *plan,
        ..SessionOptions::default()
    };
    run_session(&obj, &Noise::paper_default(0.2), &mut pro, cfg, opts).map(|s| s.outcome)
}

/// [`session`] through a flight recorder: returns the outcome plus
/// whatever post-mortems the recorder dumped.
fn session_with_flight_recorder(
    seed: u64,
    procs: usize,
    steps: usize,
    plan: &FaultPlan,
) -> (
    Result<TuningOutcome, ServerError>,
    Vec<harmony::telemetry::PostMortem>,
) {
    let obj = bowl();
    let mut pro = ProOptimizer::with_defaults(space());
    let cfg = ServerConfig::new(procs, steps, Estimator::Single, seed).unwrap();
    let recorder = std::sync::Arc::new(FlightRecorder::new(64));
    let tel = Telemetry::with_config(recorder.clone(), TelemetryConfig::default());
    let opts = SessionOptions {
        plan: *plan,
        telemetry: tel,
        ..SessionOptions::default()
    };
    let out = run_session(&obj, &Noise::paper_default(0.2), &mut pro, cfg, opts);
    (out.map(|s| s.outcome), recorder.take_post_mortems())
}

/// Deterministic pseudo-observations: the bowl cost plus a small
/// seed-hashed perturbation — interesting optimizer trajectories, exact
/// reproducibility, no session machinery needed.
fn pseudo_values(batch: &[Point], seed: u64, round: usize) -> Vec<f64> {
    batch
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let cost = 1.0 + 0.1 * (p[0] * p[0] + p[1] * p[1]);
            let h = stream_seed(seed, (round * 131 + i) as u64) % 1_000;
            cost + h as f64 / 5_000.0
        })
        .collect()
}

/// Advances an optimizer through `batches` ask/tell rounds.
fn drive(opt: &mut dyn Optimizer, seed: u64, from: usize, batches: usize) {
    for b in 0..batches {
        let batch = opt.propose();
        if batch.is_empty() {
            return;
        }
        let values = pseudo_values(&batch, seed, from + b);
        opt.observe(&values);
    }
}

proptest! {
    /// Same seed + same fault plan ⇒ bit-identical outcome (Ok or Err).
    #[test]
    fn replay_is_bit_identical(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 1usize..9,
        crash in 0.0f64..0.6,
        hang in 0.0f64..0.3,
        dup in 0.0f64..0.2,
    ) {
        let plan = FaultPlan::new(plan_seed, crash, hang, hang, dup);
        let a = session(seed, procs, 25, &plan);
        let b = session(seed, procs, 25, &plan);
        prop_assert_eq!(a, b);
    }

    /// A fault-free plan reproduces the default session exactly.
    #[test]
    fn fault_free_plan_matches_run_distributed(
        seed in 0u64..2_000,
        procs in 1usize..9,
    ) {
        let resilient = session(seed, procs, 30, &FaultPlan::none()).unwrap();
        let obj = bowl();
        let mut pro = ProOptimizer::with_defaults(space());
        let cfg = ServerConfig::new(procs, 30, Estimator::Single, seed).unwrap();
        let plain = run_session(&obj, &Noise::paper_default(0.2), &mut pro, cfg, SessionOptions::default())
            .unwrap()
            .outcome;
        prop_assert_eq!(&resilient, &plain);
        prop_assert!(resilient.faults.is_clean());
    }

    /// Journalled sessions resume bit-identically from a kill at *any*
    /// batch boundary — including failed sessions, which must fail the
    /// same way again — under arbitrary fault plans and snapshot
    /// cadences.
    #[test]
    fn resume_after_random_kill_is_bit_identical(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 1usize..9,
        crash in 0.0f64..0.4,
        kill_frac in 0.0f64..1.0,
        snap in 0u64..4,
    ) {
        let plan = FaultPlan::new(plan_seed, crash, 0.0, crash * 0.6, 0.0);
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let cfg = ServerConfig::new(procs, 25, Estimator::Single, seed).unwrap();
        let run = |journal: &mut SessionJournal| {
            let mut pro = ProOptimizer::with_defaults(space());
            let opts = SessionOptions {
                plan,
                journal: Some(journal),
                recovery: RecoveryConfig { snapshot_every: snap },
                ..SessionOptions::default()
            };
            run_session(&obj, &noise, &mut pro, cfg, opts).map(|s| s.outcome)
        };

        let mut journal = SessionJournal::in_memory();
        let full = run(&mut journal);

        let records = journal.wal_lines().unwrap().len().saturating_sub(1);
        let kill = ((records as f64) * kill_frac) as usize;
        let mut part = journal.clone();
        part.truncate_records(kill).unwrap();
        prop_assert_eq!(full, run(&mut part));
    }

    /// Checkpoint round-trip identity for every optimizer: saving after
    /// a few warm-up batches and restoring into a freshly constructed
    /// twin reproduces the exact future (proposals, observations,
    /// recommendation).
    #[test]
    fn checkpoint_roundtrip_preserves_optimizer_future(
        seed in 0u64..5_000,
        warm in 1usize..8,
        which in 0usize..4,
    ) {
        let make = |which: usize| -> Box<dyn Optimizer> {
            match which {
                0 => Box::new(ProOptimizer::with_defaults(space())),
                1 => Box::new(SroOptimizer::with_defaults(space())),
                2 => Box::new(NelderMead::with_defaults(space())),
                _ => Box::new(SurrogateOptimizer::with_defaults(space(), seed)),
            }
        };
        let mut original = make(which);
        let mut fresh = make(which);

        drive(original.as_mut(), seed, 0, warm);
        let bytes = save_to_vec(original.as_checkpoint().expect("optimizer is checkpointable"));
        restore_from_slice(
            fresh.as_checkpoint_mut().expect("optimizer is checkpointable"),
            &bytes,
        )
        .expect("checkpoint restores cleanly");

        for b in 0..6 {
            let a = original.propose();
            let z = fresh.propose();
            prop_assert_eq!(&a, &z, "proposal {} diverged", b);
            if a.is_empty() {
                break;
            }
            let values = pseudo_values(&a, seed, warm + b);
            original.observe(&values);
            fresh.observe(&values);
        }
        prop_assert_eq!(original.recommendation(), fresh.recommendation());
        prop_assert_eq!(original.converged(), fresh.converged());
    }

    /// Supervised sessions are as deterministic as plain ones: same
    /// seed + plan + supervisor config ⇒ bit-identical outcome and
    /// supervisor report (Ok or Err).
    #[test]
    fn supervised_replay_is_bit_identical(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 1usize..9,
        hang in 0.0f64..0.5,
        drop in 0.0f64..0.4,
    ) {
        let plan = FaultPlan::new(plan_seed, 0.0, hang, drop, 0.0);
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let cfg = ServerConfig::new(procs, 25, Estimator::Single, seed).unwrap();
        let run = || {
            let mut pro = ProOptimizer::with_defaults(space());
            let opts = SessionOptions {
                plan,
                supervisor: Some(SupervisorConfig::default()),
                ..SessionOptions::default()
            };
            run_session(&obj, &noise, &mut pro, cfg, opts)
        };
        prop_assert_eq!(run(), run());
    }

    /// Killing every client is a typed error, never a hang or a panic.
    /// The budget (250 steps) comfortably exceeds the worst case in
    /// which every client survives to the crash-serial horizon, so the
    /// session cannot finish before the fleet is gone. Depending on when
    /// the deaths land, the server reports either the empty fleet or a
    /// batch that lost its quorum to the abandoned slots. Either way the
    /// flight recorder must dump a readable post-mortem naming the
    /// terminal event.
    #[test]
    fn total_crash_is_a_typed_error(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 1usize..7,
    ) {
        let plan = FaultPlan::new(plan_seed, 1.0, 0.0, 0.0, 0.0);
        let (out, post_mortems) = session_with_flight_recorder(seed, procs, 250, &plan);
        let expected_event = match out {
            Err(ServerError::AllClientsDead { .. }) => "server.all_dead",
            Err(ServerError::QuorumNotReached { .. }) => "server.quorum_fail",
            other => return Err(format!("expected a fleet-death error, got {other:?}")),
        };
        prop_assert!(!post_mortems.is_empty(), "injected failure left no post-mortem");
        prop_assert_eq!(&post_mortems[0].reason, expected_event);
        prop_assert!(post_mortems[0].text.contains("-- metrics --"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replay ≡ live: a journaled, traced session cut after *every* WAL
    /// record — batch and exploit alike, no snapshot — resumes to the
    /// same outcome (Ok or Err), supervisor report, and telemetry stream
    /// as the uninterrupted run, across seeds, every fault kind, and
    /// supervision on or off. Live rounds and replayed ones commit
    /// through the same code, so nothing may tell them apart.
    #[test]
    fn replay_is_indistinguishable_from_live(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 1usize..6,
        (crash, hang) in (0.0f64..0.4, 0.0f64..0.2),
        (drop, dup) in (0.0f64..0.2, 0.0f64..0.2),
        supervised in 0u8..2,
    ) {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let cfg = ServerConfig::new(procs, 20, Estimator::Single, seed).unwrap();
        let plan = FaultPlan::new(plan_seed, crash, hang, drop, dup);
        let supervisor = (supervised == 1).then(SupervisorConfig::default);
        let run = |journal: &mut SessionJournal| {
            let (tel, sink) = Telemetry::memory();
            let mut pro = ProOptimizer::with_defaults(space());
            let opts = SessionOptions {
                plan,
                telemetry: tel,
                journal: Some(journal),
                supervisor,
                ..SessionOptions::default()
            };
            let out = run_session(&obj, &noise, &mut pro, cfg, opts);
            (out, sink.take())
        };

        let mut journal = SessionJournal::in_memory();
        let (full, full_trace) = run(&mut journal);
        let records = journal.wal_lines().unwrap().len().saturating_sub(1);
        for cut in 0..=records {
            let mut part = journal.clone();
            part.truncate_records(cut).unwrap();
            let (resumed, resumed_trace) = run(&mut part);
            prop_assert_eq!(&full, &resumed, "cut after record {}", cut);
            prop_assert_eq!(&full_trace, &resumed_trace, "telemetry, cut after record {}", cut);
        }
    }
}

/// Exhaustive kill-point sweep: a journaled, supervised, traced session
/// killed after *every* WAL record resumes to a byte-identical outcome,
/// supervisor report, and telemetry stream (WAL-only mode re-emits the
/// full trace).
fn assert_kill_matrix(make: impl Fn() -> Box<dyn Optimizer>) {
    let obj = bowl();
    let noise = Noise::paper_default(0.2);
    let cfg = ServerConfig::new(6, 30, Estimator::Single, 2005).unwrap();
    let plan = FaultPlan::new(41, 0.2, 0.15, 0.1, 0.05);

    let run = |journal: &mut SessionJournal| {
        let (tel, sink) = Telemetry::memory();
        let mut opt = make();
        let opts = SessionOptions {
            plan,
            telemetry: tel,
            journal: Some(journal),
            supervisor: Some(SupervisorConfig::default()),
            ..SessionOptions::default()
        };
        let out = run_session(&obj, &noise, opt.as_mut(), cfg, opts);
        (out, sink.take())
    };

    let mut journal = SessionJournal::in_memory();
    let (full, full_trace) = run(&mut journal);
    let records = journal.wal_lines().unwrap().len() - 1;
    assert!(records > 3, "session committed only {records} records");
    for kill in 0..=records {
        let mut part = journal.clone();
        part.truncate_records(kill).unwrap();
        let (resumed, resumed_trace) = run(&mut part);
        assert_eq!(full, resumed, "kill after record {kill}");
        assert_eq!(full_trace, resumed_trace, "telemetry after record {kill}");
    }
}

#[test]
fn every_kill_point_resumes_byte_identically_with_supervision() {
    assert_kill_matrix(|| Box::new(ProOptimizer::with_defaults(space())));
}

/// The surrogate tier goes through the same kill matrix as PRO.
#[test]
fn surrogate_kill_matrix_resumes_byte_identically() {
    assert_kill_matrix(|| Box::new(SurrogateOptimizer::with_defaults(space(), 2005)));
}

/// ISSUE acceptance: 25% crashes + 10% hangs on GS2 still terminates
/// `Ok` with a best true cost within 2× of the fault-free session.
#[test]
fn gs2_survives_quarter_crashes_within_2x() {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.1);
    let run = |plan: &FaultPlan| {
        let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
        let cfg = ServerConfig::new(16, 60, Estimator::Single, 2005).unwrap();
        let opts = SessionOptions {
            plan: *plan,
            ..SessionOptions::default()
        };
        run_session(&gs2, &noise, &mut pro, cfg, opts).map(|s| s.outcome)
    };
    let clean = run(&FaultPlan::none()).expect("fault-free session terminates");
    let faulty =
        run(&FaultPlan::new(99, 0.25, 0.10, 0.10, 0.05)).expect("faulty session still terminates");
    assert!(
        faulty.faults.evicted_clients > 0,
        "plan injected no crashes"
    );
    assert!(
        faulty.best_true_cost <= 2.0 * clean.best_true_cost,
        "faulty best {} vs clean best {}",
        faulty.best_true_cost,
        clean.best_true_cost
    );
}
