//! End-to-end observability guarantees (DESIGN.md §4j):
//!
//! * the metrics exposition snapshot, flame stacks, and critical path
//!   of a pinned seed-1 supervised session match committed golden files
//!   byte for byte (re-bless with `HARMONY_BLESS=1 cargo test`),
//! * the harness metrics snapshot is byte-identical at -j1/-j4/-j8 on
//!   the deterministic channel (fixed + property-tested seeds),
//! * flame-stack and critical-path renders of the harness trace are
//!   byte-identical across worker counts.

use harmony_bench::harness::{self, RunConfig};
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_session, ServerConfig, SessionOptions};
use harmony_core::{Estimator, ProOptimizer};
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::SupervisorConfig;
use harmony_surface::objective::FnObjective;
use harmony_telemetry::{MetricsRegistry, Profile, Record, Telemetry};
use harmony_variability::noise::Noise;
use proptest::prelude::*;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", -10, 10, 1).unwrap(),
        ParamDef::integer("y", -10, 10, 1).unwrap(),
    ])
    .unwrap()
}

fn bowl() -> FnObjective<impl Fn(&Point) -> f64 + Sync> {
    FnObjective::new("bowl", space(), |p| 2.0 + 0.1 * (p[0] * p[0] + p[1] * p[1]))
}

/// The pinned golden scenario: a seed-1 supervised session under a
/// hang-heavy plan (breakers open, the supervisor degrades, recovery
/// events fire) traced on the deterministic channel.
fn supervised_seed1_records() -> Vec<Record> {
    let cfg = ServerConfig::new(4, 60, Estimator::Single, 1).unwrap();
    let plan = FaultPlan::new(17, 0.0, 0.6, 0.0, 0.0);
    let (tel, sink) = Telemetry::memory();
    let mut opt = ProOptimizer::with_defaults(space());
    opt.set_telemetry(tel.clone());
    let opts = SessionOptions {
        plan,
        telemetry: tel,
        supervisor: Some(SupervisorConfig::default()),
        ..SessionOptions::default()
    };
    run_session(&bowl(), &Noise::None, &mut opt, cfg, opts)
        .expect("hang-only plan is survivable under supervision");
    sink.take()
}

/// Compares `actual` against the committed golden file, or rewrites it
/// when `HARMONY_BLESS` is set (non-empty, non-`0`).
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let bless = std::env::var("HARMONY_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); re-run with HARMONY_BLESS=1", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if intentional, re-bless with HARMONY_BLESS=1"
    );
}

#[test]
fn golden_metrics_exposition_for_pinned_supervised_run() {
    let records = supervised_seed1_records();
    let mut reg = MetricsRegistry::new();
    reg.ingest_all(&records);
    let text = reg.render();
    // spot-check the pinned run is the interesting one before pinning
    // bytes: faults happened, breakers opened, sketches filled
    assert!(text.contains("events_total{name=\"server.miss\"}"));
    assert!(text.contains("events_total{name=\"recovery.breaker_open\"}"));
    assert!(text.contains("server_step_time_count"));
    assert_golden("supervised_seed1_metrics.txt", &text);
}

#[test]
fn golden_flame_and_critical_path_for_pinned_supervised_run() {
    let records = supervised_seed1_records();
    let profile = Profile::from_records(&records);
    assert!(profile.span_count() > 0);

    let flame = profile.flame_stacks().join("\n") + "\n";
    assert_golden("supervised_seed1_flame.txt", &flame);

    let path = profile.critical_path();
    assert!(!path.is_empty(), "supervised run has a critical path");
    let critical = path
        .iter()
        .map(|s| format!("{} total={} self={}\n", s.name, s.total_ticks, s.self_ticks))
        .collect::<String>();
    assert_golden("supervised_seed1_critical_path.txt", &critical);

    // the full report embeds both renders and never panics
    let report = profile.render();
    assert!(report.contains("== critical path =="));
    assert!(report.contains("== flame (collapsed stacks) =="));
}

/// One harness run; returns the metrics exposition and the trace text.
fn harness_outputs(
    workers: usize,
    seed: u64,
    only: Option<Vec<String>>,
    sub: &str,
) -> (String, String) {
    let dir = std::env::temp_dir().join("harmony_observability").join(sub);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cfg = RunConfig::new(false);
    cfg.workers = workers;
    cfg.seed = seed;
    cfg.only = only;
    cfg.out_dir = dir.clone();
    cfg.trace = Some(dir.join("trace.jsonl"));
    cfg.metrics = Some(dir.join("metrics.txt"));
    harness::run(&cfg);
    let metrics = std::fs::read_to_string(dir.join("metrics.txt")).expect("metrics written");
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    let _ = std::fs::remove_dir_all(&dir);
    (metrics, trace)
}

#[test]
fn harness_metrics_and_profile_byte_identical_at_j1_j4_j8() {
    let (m1, t1) = harness_outputs(1, 2005, None, "full_w1");
    let (m4, t4) = harness_outputs(4, 2005, None, "full_w4");
    let (m8, t8) = harness_outputs(8, 2005, None, "full_w8");
    assert!(!m1.is_empty());
    assert_eq!(m1, m4, "metrics differ between 1 and 4 workers");
    assert_eq!(m1, m8, "metrics differ between 1 and 8 workers");
    // the analysis products of the trace are equally worker-independent
    let p1 = Profile::from_jsonl(&t1).expect("trace parses");
    let p8 = Profile::from_jsonl(&t8).expect("trace parses");
    assert_eq!(p1.render(), p8.render());
    assert_eq!(t1, t4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Whatever the experiment seed, the metrics snapshot is a pure
    /// function of it — never of the worker count.
    #[test]
    fn metrics_snapshot_worker_independent_for_any_seed(seed in 1u64..10_000) {
        let only = Some(vec!["fig0*".to_string()]);
        let (m1, _) = harness_outputs(1, seed, only.clone(), &format!("prop_w1_{seed}"));
        let (m4, _) = harness_outputs(4, seed, only.clone(), &format!("prop_w4_{seed}"));
        let (m8, _) = harness_outputs(8, seed, only, &format!("prop_w8_{seed}"));
        prop_assert!(!m1.is_empty());
        prop_assert_eq!(&m1, &m4);
        prop_assert_eq!(&m1, &m8);
    }
}
