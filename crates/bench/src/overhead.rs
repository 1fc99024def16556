//! The overhead gate: what each optional layer costs the path it rides
//! on, measured the way the paper measures a noisy application.
//!
//! Timings on a shared machine are noisy and heavy tailed (§4–5), so one
//! comparison of two runs misleads. [`paired_ratio`] times the plain
//! side and the layered side back to back, so slow drift (frequency
//! scaling, noisy neighbours) hits both halves of a pair alike and
//! cancels inside the pair's time ratio. It alternates which side runs
//! first, so neither side always meets a warm cache, and it reports the
//! median ratio, which discards scheduler outliers. A warm-up pair first
//! asserts that both sides compute the same output: a layer must be
//! observationally free, and a gate cannot be passed by skipping work.
//!
//! [`GATES`] is the one table of gates, run by the `overhead` binary:
//!
//! * `telemetry.nullsink` — a fig10-shaped session on the tabulated GS2
//!   surface, traced into a [`harmony_telemetry::NullSink`] handle
//!   against the same session untraced. The tuner consults the handle at
//!   every batch, so every check the sink answers is on the timed path.
//! * `telemetry.metrics` — a PRO descent whose every evaluation does
//!   20,000 serially dependent flops (standing in for the
//!   application run a real session measures), with a live
//!   [`MetricsSink`] attached against detached.
//! * `recovery.journal` — the 8-client GS2 server session with an
//!   in-memory write-ahead journal against without one.

use harmony_cluster::SamplingMode;
use harmony_core::server::{run_session, ServerConfig, SessionOptions};
use harmony_core::{Estimator, OnlineTuner, Optimizer, ProOptimizer, TunerConfig};
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::SessionJournal;
use harmony_stats::Summary;
use harmony_surface::{Gs2Model, LatticeTable, Objective};
use harmony_telemetry::{MetricsSink, Telemetry};
use harmony_variability::noise::Noise;
use std::fmt::Debug;
use std::hint::black_box;
use std::time::Instant;

/// One gate: a layer, how many timed pairs measure it, and the largest
/// slowdown it may add.
pub struct Gate {
    /// The layer's name, printed in the gate's report line.
    pub name: &'static str,
    /// Timed pairs (after the warm-up pair).
    pub pairs: usize,
    /// Largest allowed median slowdown, in percent.
    pub limit_pct: f64,
    /// Median within-pair time ratio (layered over plain) over the given
    /// number of pairs; see [`paired_ratio`].
    pub ratio: fn(usize) -> f64,
}

/// Every overhead gate.
pub const GATES: [Gate; 3] = [
    Gate {
        name: "telemetry.nullsink",
        pairs: 201,
        limit_pct: 2.0,
        ratio: nullsink_ratio,
    },
    Gate {
        name: "telemetry.metrics",
        pairs: 41,
        limit_pct: 2.0,
        ratio: metrics_ratio,
    },
    // ~1 ms sessions of eight client threads: on 2 vCPUs the median of 151
    // ratios ranged +0.3% to +5.7% over twelve runs, of 601 +0.8% to +4.2%
    Gate {
        name: "recovery.journal",
        pairs: 601,
        limit_pct: 5.0,
        ratio: journal_ratio,
    },
];

/// The paired estimator: the median over `pairs` adjacent runs of
/// `layered(i)` and `plain(i)` of their time ratio `layered / plain`.
/// Pair `i` runs the plain side first when `i` is even and the layered
/// side first when it is odd; both sides of a pair get the same `i`.
///
/// # Panics
/// Panics when the warm-up pair (`i = 0`, not timed) gives different
/// outputs, or when `pairs` is zero.
pub fn paired_ratio<T: PartialEq + Debug>(
    pairs: usize,
    mut plain: impl FnMut(u64) -> T,
    mut layered: impl FnMut(u64) -> T,
) -> f64 {
    let (a, b) = (plain(0), layered(0));
    assert_eq!(a, b, "the layer changed the output");
    fn timed<T>(side: &mut impl FnMut(u64) -> T, i: u64) -> f64 {
        let t0 = Instant::now();
        black_box(side(i));
        t0.elapsed().as_secs_f64()
    }
    let ratios: Vec<f64> = (0..pairs as u64)
        .map(|i| {
            let (p, l) = if i % 2 == 0 {
                let p = timed(&mut plain, i);
                (p, timed(&mut layered, i))
            } else {
                let l = timed(&mut layered, i);
                (timed(&mut plain, i), l)
            };
            l / p
        })
        .collect();
    Summary::of(&ratios).median()
}

/// fig10-shaped sessions per side of a `telemetry.nullsink` pair (one
/// session alone is ~30 µs, short enough for timer and scheduler noise
/// to dominate).
const NULLSINK_SESSIONS: u64 = 64;

fn nullsink_ratio(pairs: usize) -> f64 {
    let model = Gs2Model::paper_scale();
    let table = LatticeTable::new(&model);
    let noise = Noise::Pareto {
        alpha: 1.7,
        rho: 0.2,
    };
    let sessions = |i: u64, tel: &Telemetry| {
        (0..NULLSINK_SESSIONS)
            .map(|s| {
                let tuner = OnlineTuner::new(TunerConfig {
                    procs: 64,
                    max_steps: 100,
                    estimator: Estimator::MinOfK(3),
                    mode: SamplingMode::SequentialSteps,
                    seed: 2005 + i * NULLSINK_SESSIONS + s,
                    full_occupancy: false,
                    exploit_width: 6,
                });
                let mut opt = ProOptimizer::with_defaults(table.space().clone());
                tuner
                    .run_traced(&table, &noise, &mut opt, tel)
                    .expect("session produced a recommendation")
                    .total_time()
            })
            .sum::<f64>()
    };
    let (detached, null) = (Telemetry::disabled(), Telemetry::null());
    paired_ratio(pairs, |i| sessions(i, &detached), |i| sessions(i, &null))
}

/// Serially dependent flops per evaluation in a `telemetry.metrics`
/// pair: the objective dominates the loop, as an application run does
/// in a real session.
const METRICS_WORK: u32 = 20_000;

/// Propose/observe cycles per side of a `telemetry.metrics` pair.
const METRICS_ROUNDS: usize = 400;

fn metrics_ratio(pairs: usize) -> f64 {
    let space = ParamSpace::new(
        (0..6)
            .map(|i| ParamDef::integer(format!("p{i}"), 0, 1_000, 1).unwrap())
            .collect(),
    )
    .unwrap();
    let f = |p: &Point| -> f64 {
        let mut v: f64 = p.iter().map(|x| (x - 300.0) * (x - 300.0)).sum();
        for _ in 0..METRICS_WORK {
            v = v.mul_add(0.999_999, 1.0e-9);
        }
        v
    };
    // a descent re-seeds when it converges; the checksum sums the bests
    let descents = |tel: &Telemetry| {
        let fresh = || {
            let mut opt = ProOptimizer::with_defaults(space.clone());
            opt.set_telemetry(tel.clone());
            opt
        };
        let mut opt = fresh();
        let mut vals: Vec<f64> = Vec::new();
        let mut checksum = 0.0f64;
        for _ in 0..METRICS_ROUNDS {
            let batch = opt.propose();
            if batch.is_empty() {
                checksum += opt.best().map_or(0.0, |(_, v)| v);
                opt = fresh();
                continue;
            }
            vals.clear();
            vals.extend(batch.iter().map(f));
            opt.observe(&vals);
        }
        checksum
    };
    let (detached, metrics) = (Telemetry::disabled(), Telemetry::new(MetricsSink::new()));
    paired_ratio(pairs, |_| descents(&detached), |_| descents(&metrics))
}

/// Tuning steps of each `recovery.journal` session.
const JOURNAL_STEPS: usize = 30;

fn journal_ratio(pairs: usize) -> f64 {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.1);
    let session = |i: u64, journal: Option<&mut SessionJournal>| {
        let cfg = ServerConfig::new(8, JOURNAL_STEPS, Estimator::Single, 2005 + i)
            .expect("valid overhead-gate config");
        let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
        let opts = SessionOptions {
            journal,
            ..SessionOptions::default()
        };
        run_session(&gs2, &noise, &mut opt, cfg, opts).expect("fault-free session terminates")
    };
    paired_ratio(
        pairs,
        |i| session(i, None),
        |i| session(i, Some(&mut SessionJournal::in_memory())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let calls = RefCell::new(Vec::new());
        let ratio = paired_ratio(
            4,
            |i| calls.borrow_mut().push(('p', i)),
            |i| calls.borrow_mut().push(('l', i)),
        );
        assert!(ratio.is_finite() && ratio > 0.0);
        let warm_up = [('p', 0), ('l', 0)];
        let timed = [
            ('p', 0),
            ('l', 0),
            ('l', 1),
            ('p', 1),
            ('p', 2),
            ('l', 2),
            ('l', 3),
            ('p', 3),
        ];
        assert_eq!(calls.into_inner(), [&warm_up[..], &timed[..]].concat());
    }

    #[test]
    #[should_panic(expected = "the layer changed the output")]
    fn warm_up_pair_refuses_a_layer_that_changes_the_output() {
        paired_ratio(1, |i| i, |i| i + 1);
    }

    #[test]
    fn every_gate_measures_equal_outputs() {
        for gate in &GATES {
            let ratio = (gate.ratio)(1);
            assert!(ratio.is_finite() && ratio > 0.0, "{}: {ratio}", gate.name);
        }
    }
}
