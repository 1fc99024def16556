//! The timing wrappers must not change results, and the traced timings
//! must add up. Run with `cargo test --release` from `perfbench/` (the
//! fig10 replay is slow in a debug build).

use harmony_core::server::run_session_traced;
use harmony_recovery::SessionJournal;
use harmony_surface::Objective;
use harmony_telemetry::{FlightRecorder, Telemetry, TelemetryConfig};
use perfbench::probe::{Probe, TimedNoise, TimedObjective, TimedOptimizer, TimedSink};
use perfbench::{served, suite, RoundOutput};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

#[test]
fn wrapped_session_matches_unwrapped() {
    let dir = scratch("served");
    let s = served::setup(&dir).expect("setup");
    for i in 0..2 {
        let (cfg, plan) = served::session_config(7, i);
        let (recovery, sup) = served::session_recovery();

        let mut raw = served::session_optimizer(s.gs2.space(), &cfg, i);
        let mut journal = SessionJournal::at_dir(dir.join(format!("raw{i}"))).expect("journal");
        let tel = Telemetry::new(FlightRecorder::new(64));
        let plain = run_session_traced(
            &s.gs2,
            &s.noise,
            raw.as_mut(),
            cfg,
            &plan,
            &tel,
            Some(&mut journal),
            recovery,
            sup,
        )
        .expect("plain session");

        let probe = Arc::new(Probe::default());
        let mut inner = served::session_optimizer(s.gs2.space(), &cfg, i);
        let mut opt = TimedOptimizer::new(inner.as_mut());
        let mut journal = SessionJournal::at_dir(dir.join(format!("wrapped{i}"))).expect("journal");
        let sink = TimedSink {
            inner: FlightRecorder::new(64),
            probe: probe.clone(),
        };
        let tel = Telemetry::with_config(Arc::new(sink), TelemetryConfig::default());
        let wrapped = run_session_traced(
            &TimedObjective {
                inner: &s.gs2,
                probe: &probe,
            },
            &TimedNoise {
                inner: &s.noise,
                probe: &probe,
            },
            &mut opt,
            cfg,
            &plan,
            &tel,
            Some(&mut journal),
            recovery,
            sup,
        )
        .expect("wrapped session");

        assert_eq!(plain, wrapped, "session {i}: wrappers changed the outcome");
        assert!(probe.draws.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert!(opt.times.batches > 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_round_repeats_and_adds_up() {
    let dir = scratch("round");
    let s = served::setup(&dir).expect("setup");
    let a = served::round(&s, 3, true).expect("round");
    let b = served::round(&s, 3, true).expect("round");
    let plain = served::round(&s, 3, false).expect("round");
    let (la, lb) = (a.layers(), b.layers());
    assert_eq!(la.counts(), lb.counts(), "counts must repeat exactly");
    assert_eq!(la.additivity_violations, 0);
    assert!(la.self_s > 0.0);
    let wall: f64 = a.sessions.iter().map(|x| x.wall_s).sum();
    let children = wall - la.self_s;
    assert!(children > 0.0 && children <= wall);
    assert!(a.ops().iter().all(Result::is_ok), "every session succeeds");
    assert_eq!(a.ops(), b.ops(), "outcomes must repeat exactly");
    assert_eq!(a.ops(), plain.ops(), "tracing changed an outcome");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_fig10_cell_matches_committed_csv() {
    let csv = std::fs::read_to_string(repo_root().join("results/fig10_multisample.csv"))
        .expect("committed fig10 table");
    let cell = suite::cells_for_seed(1)[0];
    let want = suite::csv_value(&csv, cell).expect("cell in the CSV");
    let probe = Probe::default();
    let times = Mutex::new(Default::default());
    let wrapped = suite::replay_cell(2, cell, Some((&probe, &times)));
    assert_eq!(format!("{wrapped}"), want);
    assert_eq!(format!("{}", suite::replay_cell(1, cell, None)), want);
    assert!(times.lock().expect("times").reduces > 0);
}
