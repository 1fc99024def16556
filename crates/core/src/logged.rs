//! Observation logging and prior-run reuse.
//!
//! The paper's own prior work (its reference \[3\], Chung & Hollingsworth,
//! *"Using Information from Prior Runs to Improve Automated Tuning
//! Systems"*, SC'04) seeds tuning sessions with data from earlier runs.
//! This module provides the mechanism: [`Logged`] wraps *any*
//! [`Optimizer`] and transparently records every `(point, estimate)`
//! pair the driver feeds it; the resulting [`ObservationLog`] can be
//! exported as a `harmony_surface::PerfDatabase` (per-point minimum
//! estimates — the paper's own resilient reduction) or used to pick a
//! warm-start center for the next session.

use crate::optimizer::Optimizer;
use harmony_params::{ParamSpace, Point, PointKey, PointMap};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::PerfDatabase;

/// Per-point record: visits and running estimate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// The configuration.
    pub point: Point,
    /// Number of estimates received for it.
    pub visits: usize,
    /// Smallest estimate seen (the min-of-visits reduction).
    pub min_estimate: f64,
    /// Mean of the estimates.
    pub mean_estimate: f64,
}

/// Everything a tuning session measured, keyed by configuration.
#[derive(Debug, Clone, Default)]
pub struct ObservationLog {
    records: PointMap<PointRecord>,
}

impl ObservationLog {
    /// Empty log.
    pub fn new() -> Self {
        ObservationLog::default()
    }

    /// Records one estimate.
    pub fn record(&mut self, point: &Point, estimate: f64) {
        assert!(estimate.is_finite(), "log estimates must be finite");
        let entry = self
            .records
            .entry(PointKey::new(point))
            .or_insert_with(|| PointRecord {
                point: point.clone(),
                visits: 0,
                min_estimate: f64::INFINITY,
                mean_estimate: 0.0,
            });
        entry.visits += 1;
        entry.min_estimate = entry.min_estimate.min(estimate);
        entry.mean_estimate += (estimate - entry.mean_estimate) / entry.visits as f64;
    }

    /// Number of distinct configurations measured.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total estimates recorded across all configurations.
    pub fn total_visits(&self) -> usize {
        self.records.values().map(|r| r.visits).sum()
    }

    /// The records, in unspecified order.
    pub fn records(&self) -> impl Iterator<Item = &PointRecord> {
        self.records.values()
    }

    /// The records in key order (the order of their coordinate bit
    /// words), independent of the table's iteration order.
    fn sorted(&self) -> Vec<(&PointKey, &PointRecord)> {
        let mut records: Vec<_> = self.records.iter().collect();
        records.sort_unstable_by(|a, b| a.0.cmp(b.0));
        records
    }

    /// The best configuration by minimum estimate — the natural
    /// warm-start center for a follow-up session. Ties go to the first
    /// in key order.
    pub fn best(&self) -> Option<&PointRecord> {
        self.records
            .iter()
            .min_by(|a, b| {
                a.1.min_estimate
                    .total_cmp(&b.1.min_estimate)
                    .then_with(|| a.0.cmp(b.0))
            })
            .map(|(_, r)| r)
    }

    /// Exports the log as a performance database over `space` (per-point
    /// minimum estimates), interpolating unmeasured configurations with
    /// `k_neighbors` — prior-run data in the exact shape the paper's §6
    /// methodology consumes.
    ///
    /// # Panics
    /// Panics when the log is empty or holds fewer points than
    /// `k_neighbors`.
    pub fn into_database(&self, space: ParamSpace, k_neighbors: usize) -> PerfDatabase {
        assert!(
            self.len() >= k_neighbors.max(1),
            "log has {} points, need at least {k_neighbors}",
            self.len()
        );
        let mut db = PerfDatabase::new(space, k_neighbors);
        // key order: interpolation breaks distance ties by insertion
        for (_, rec) in self.sorted() {
            db.insert(rec.point.clone(), rec.min_estimate);
        }
        db
    }
}

/// An [`Optimizer`] wrapper that records every observation it relays.
pub struct Logged<O: Optimizer> {
    inner: O,
    log: ObservationLog,
}

impl<O: Optimizer> Logged<O> {
    /// Wraps an optimizer.
    pub fn new(inner: O) -> Self {
        Logged {
            inner,
            log: ObservationLog::new(),
        }
    }

    /// The log so far.
    pub fn log(&self) -> &ObservationLog {
        &self.log
    }

    /// Consumes the wrapper, returning the inner optimizer and the log.
    pub fn into_parts(self) -> (O, ObservationLog) {
        (self.inner, self.log)
    }
}

impl<O: Optimizer> Optimizer for Logged<O> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn propose(&mut self) -> Vec<Point> {
        self.inner.propose()
    }

    fn observe(&mut self, values: &[f64]) {
        let batch = self.inner.propose();
        for (p, &v) in batch.iter().zip(values) {
            self.log.record(p, v);
        }
        self.inner.observe(values);
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        // log only what was actually measured; the inner optimizer's own
        // interpolated substitutes must not pollute the prior-run data
        let batch = self.inner.propose();
        for (p, v) in batch.iter().zip(values) {
            if let Some(v) = *v {
                self.log.record(p, v);
            }
        }
        self.inner.observe_partial(values);
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.inner.best()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        self.inner.recommendation()
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    /// Checkpointable exactly when the inner optimizer is.
    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        self.inner.as_checkpoint()?;
        Some(self)
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        self.inner.as_checkpoint_mut()?;
        Some(self)
    }
}

/// The log (in key order, so equal logs save equal bytes) followed by
/// the inner optimizer's state: a restored wrapper holds every
/// observation, including those a snapshot resume does not replay.
impl<O: Optimizer> Checkpoint for Logged<O> {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("logged");
        let records = self.log.sorted();
        w.usize(records.len());
        for (_, r) in records {
            w.point(&r.point);
            w.usize(r.visits);
            w.f64(r.min_estimate);
            w.f64(r.mean_estimate);
        }
        self.inner
            .as_checkpoint()
            .expect("Logged checkpoints only with a checkpointable inner optimizer")
            .save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("logged")?;
        let n = r.usize()?;
        let mut records = PointMap::default();
        for _ in 0..n {
            let point = r.point()?;
            let record = PointRecord {
                visits: r.usize()?,
                min_estimate: r.f64()?,
                mean_estimate: r.f64()?,
                point,
            };
            records.insert(PointKey::new(&record.point), record);
        }
        self.log = ObservationLog { records };
        match self.inner.as_checkpoint_mut() {
            Some(c) => c.restore_state(r),
            None => Err(CodecError::BadValue(
                "Logged wraps a non-checkpointable optimizer".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro::ProOptimizer;
    use crate::tuner::{OnlineTuner, TunerConfig};
    use crate::Estimator;
    use harmony_cluster::SamplingMode;
    use harmony_params::ParamDef;
    use harmony_surface::objective::FnObjective;
    use harmony_surface::Objective;
    use harmony_variability::noise::Noise;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -10, 10, 1).unwrap(),
            ParamDef::integer("y", -10, 10, 1).unwrap(),
        ])
        .unwrap()
    }

    fn bowl() -> FnObjective<impl Fn(&Point) -> f64> {
        FnObjective::new("bowl", space(), |p| 1.0 + 0.2 * (p[0] * p[0] + p[1] * p[1]))
    }

    fn cfg(seed: u64) -> TunerConfig {
        TunerConfig {
            procs: 64,
            max_steps: 80,
            estimator: Estimator::Single,
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: false,
            exploit_width: 6,
        }
    }

    #[test]
    fn logging_is_transparent() {
        // a logged PRO takes exactly the same path as a bare one
        let f = |p: &Point| 1.0 + p[0] * p[0] + p[1] * p[1];
        let mut bare = ProOptimizer::with_defaults(space());
        let mut logged = Logged::new(ProOptimizer::with_defaults(space()));
        loop {
            let a = bare.propose();
            let b = logged.propose();
            assert_eq!(a, b);
            if a.is_empty() {
                break;
            }
            let vals: Vec<f64> = a.iter().map(f).collect();
            bare.observe(&vals);
            logged.observe(&vals);
        }
        assert_eq!(bare.best(), logged.best());
        assert!(!logged.log().is_empty());
    }

    #[test]
    fn log_counts_and_reductions() {
        let mut log = ObservationLog::new();
        let p = Point::from(&[1.0, 2.0][..]);
        log.record(&p, 5.0);
        log.record(&p, 3.0);
        log.record(&p, 4.0);
        assert_eq!(log.len(), 1);
        assert_eq!(log.total_visits(), 3);
        let rec = log.best().unwrap();
        assert_eq!(rec.visits, 3);
        assert_eq!(rec.min_estimate, 3.0);
        assert!((rec.mean_estimate - 4.0).abs() < 1e-12);
    }

    #[test]
    fn session_log_exports_a_database() {
        let obj = bowl();
        let mut logged = Logged::new(ProOptimizer::with_defaults(space()));
        let out = OnlineTuner::new(cfg(5))
            .run(&obj, &Noise::None, &mut logged)
            .unwrap();
        let log = logged.log().clone();
        assert!(log.len() >= 10, "only {} points logged", log.len());
        assert_eq!(
            log.best().unwrap().min_estimate,
            out.best_estimate,
            "log best must agree with the session's best estimate"
        );
        let db = log.into_database(space(), 3);
        // the database reproduces measured values exactly (noise-free)
        for rec in log.records() {
            assert_eq!(db.eval(&rec.point), rec.min_estimate);
        }
    }

    #[test]
    fn warm_start_from_prior_run_descends_faster() {
        // run 1 (cold): log everything; run 2: recenter PRO's initial
        // simplex on the prior best -- the Chung/Hollingsworth prior-runs
        // idea in miniature
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let mut cold_logged = Logged::new(ProOptimizer::with_defaults(space()));
        let cold = OnlineTuner::new(cfg(1))
            .run(&obj, &noise, &mut cold_logged)
            .unwrap();
        let prior_best = cold_logged.log().best().unwrap().point.clone();

        let mut warm_inner = ProOptimizer::with_defaults(space());
        warm_inner.recenter(&prior_best);
        let mut warm = Logged::new(warm_inner);
        let warm_out = OnlineTuner::new(cfg(2))
            .run(&obj, &noise, &mut warm)
            .unwrap();

        // the warm session reaches good quality at least as fast
        let threshold = 2.0; // within 2x of the optimum (1.0)
        let warm_steps = warm_out.steps_to_quality(threshold);
        let cold_steps = cold.steps_to_quality(threshold);
        match (warm_steps, cold_steps) {
            (Some(w), Some(c)) => assert!(w <= c, "warm {w} > cold {c}"),
            (Some(_), None) => {}
            other => panic!("unexpected quality outcome {other:?}"),
        }
    }

    /// The log as a key-ordered list, for comparing logs.
    fn entries(log: &ObservationLog) -> Vec<PointRecord> {
        let mut v: Vec<PointRecord> = log.records().cloned().collect();
        v.sort_by_key(|r| PointKey::new(&r.point));
        v
    }

    #[test]
    fn journaled_logged_session_snapshots_and_resumes_from_one() {
        use crate::server::{run_session, RecoveryConfig, ServerConfig, SessionOptions};
        use harmony_cluster::FaultPlan;
        use harmony_recovery::SessionJournal;

        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let cfg = ServerConfig::new(4, 40, Estimator::MinOfK(2), 9).unwrap();
        let run = |journal: &mut SessionJournal| {
            let mut logged = Logged::new(ProOptimizer::with_defaults(space()));
            let opts = SessionOptions {
                plan: FaultPlan::new(12, 0.2, 0.0, 0.1, 0.0),
                journal: Some(journal),
                recovery: RecoveryConfig { snapshot_every: 1 },
                ..SessionOptions::default()
            };
            let out = run_session(&obj, &noise, &mut logged, cfg, opts).unwrap();
            (out.outcome, entries(logged.log()))
        };

        let mut journal = SessionJournal::in_memory();
        let full = run(&mut journal);
        assert!(journal.size_bytes().unwrap().1 > 0, "no snapshot taken");
        let records = journal.wal_lines().unwrap().len() - 1;
        for kill in 1..=records {
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            assert!(part.latest_snapshot().unwrap().is_some());
            // outcome and log both match: the log rides in the snapshot
            assert_eq!(full, run(&mut part), "resume after record {kill}");
        }
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn empty_log_cannot_export() {
        ObservationLog::new().into_database(space(), 1);
    }
}
