//! The decision traces of noisy GS2 tuning sessions are pinned byte for
//! byte: every `pro.*`/`sro.*` iteration span and decision event, with its
//! fields and emission order, and every tuner event around them. Each
//! session's JSONL is reduced to its `(length, FNV-1a)`.

use harmony_cluster::SamplingMode;
use harmony_core::sro::SroOptimizer;
use harmony_core::{Estimator, OnlineTuner, Optimizer, ProConfig, ProOptimizer, TunerConfig};
use harmony_surface::{Gs2Model, Objective};
use harmony_telemetry::{to_jsonl, Kind, Record, Telemetry, Value};
use harmony_variability::noise::Noise;
use std::collections::BTreeMap;

/// FNV-1a over the trace bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The records of one traced session of `name` on GS2 under Pareto noise
/// (`ρ = 0.3`), min-of-2 estimates, 8 processors and a 400-step budget.
fn session(name: &str, seed: u64) -> Vec<Record> {
    let gs2 = Gs2Model::paper_scale();
    let space = gs2.space().clone();
    let (tel, sink) = Telemetry::memory();
    let pro = |cfg: ProConfig| {
        let mut opt = ProOptimizer::new(space.clone(), cfg);
        opt.set_telemetry(tel.clone());
        Box::new(opt) as Box<dyn Optimizer>
    };
    let mut opt = match name {
        "sro" => {
            let mut opt = SroOptimizer::with_defaults(space.clone());
            opt.set_telemetry(tel.clone());
            Box::new(opt) as Box<dyn Optimizer>
        }
        "pro" => pro(ProConfig::default()),
        "pro-no-check" => pro(ProConfig {
            expansion_check: false,
            ..ProConfig::default()
        }),
        "pro-continuous" => pro(ProConfig {
            continuous: true,
            ..ProConfig::default()
        }),
        other => unreachable!("{other}"),
    };
    let tuner = OnlineTuner::new(TunerConfig {
        procs: 8,
        max_steps: 400,
        estimator: Estimator::MinOfK(2),
        mode: SamplingMode::SequentialSteps,
        seed,
        full_occupancy: false,
        exploit_width: 6,
    });
    let out = tuner
        .run_traced(&gs2, &Noise::paper_default(0.3), opt.as_mut(), &tel)
        .expect("the session measures something");
    assert!(out.best_true_cost.is_finite());
    sink.take()
}

/// How often each decision `action` was taken.
fn actions(records: &[Record]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for r in records {
        if r.kind != Kind::Event || !r.name.ends_with(".decision") {
            continue;
        }
        for f in &r.fields {
            if let (true, Value::Str(s)) = (f.key == "action", &f.value) {
                *counts.entry(s.clone()).or_default() += 1;
            }
        }
    }
    counts
}

/// The `(length, FNV-1a)` of the sessions of `name` for seeds 1 to 8,
/// after checking that they took every decision in `expect`.
fn pin(name: &str, expect: &[&str]) -> (usize, u64) {
    let records: Vec<Record> = (1..=8).flat_map(|seed| session(name, seed)).collect();
    let counts = actions(&records);
    for action in expect {
        assert!(
            counts.contains_key(*action),
            "{name}: no {action} decision in {counts:?}"
        );
    }
    let jsonl = to_jsonl(&records);
    (jsonl.len(), fnv1a(jsonl.as_bytes()))
}

#[test]
fn sro_trace_is_pinned() {
    let got = pin(
        "sro",
        &[
            "reflect_check",
            "expand_check",
            "expand_all",
            "reflect_all",
            "shrink",
            "probe",
            "probe_improved",
            "converged",
        ],
    );
    assert_eq!(got, SRO);
}

#[test]
fn pro_trace_is_pinned() {
    let got = pin(
        "pro",
        &[
            "reflect",
            "expand_check",
            "accept_reflections",
            "shrink",
            "probe",
            "probe_improved",
            "converged",
        ],
    );
    assert_eq!(got, PRO);
}

#[test]
fn pro_without_expansion_check_trace_is_pinned() {
    let got = pin(
        "pro-no-check",
        &[
            "expand_all",
            "keep_expansions",
            "keep_reflections",
            "shrink",
            "probe_improved",
            "converged",
        ],
    );
    assert_eq!(got, PRO_NO_CHECK);
}

#[test]
fn continuous_pro_trace_is_pinned() {
    let got = pin(
        "pro-continuous",
        &[
            "expand_commit",
            "accept_expansions",
            "probe_improved",
            "monitor",
        ],
    );
    assert_eq!(got, PRO_CONTINUOUS);
}

const SRO: (usize, u64) = (69801, 0x956d66f94528e750);
const PRO: (usize, u64) = (50250, 0xcbd036b97aad5df5);
const PRO_NO_CHECK: (usize, u64) = (57195, 0x45bb0e7999661490);
const PRO_CONTINUOUS: (usize, u64) = (625292, 0x58d9fd67384ff63d);
