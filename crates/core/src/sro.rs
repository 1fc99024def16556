//! Sequential Rank Ordering (Algorithm 1 of the paper).
//!
//! The sequential ancestor of PRO: at each iteration only the *worst*
//! vertex's reflection `r = Π(2v⁰ − vⁿ)` is checked (one evaluation). If
//! it beats `f(v⁰)` the expansion `e = Π(3v⁰ − 2vⁿ)` is checked (one
//! more evaluation) and the whole simplex is then reflected or expanded
//! vertex-by-vertex; otherwise the simplex shrinks. Every evaluation is
//! proposed as its own singleton batch — on a cluster this models one
//! configuration change per time step, which is exactly why the paper
//! parallelised the algorithm.

use crate::optimizer::{read_tail, Incumbent, Optimizer, HISTORY_NEIGHBORS};
use crate::pro::{check_admissible, check_values, simplex_from_vertices};
use harmony_params::init::{initial_simplex, InitialShape, DEFAULT_RELATIVE_SIZE};
use harmony_params::{ParamSpace, Point, Rounding, Simplex, StepKind};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::PerfDatabase;
use harmony_telemetry::{event, Field, Telemetry};
use std::ops::Range;

/// Configuration of Sequential Rank Ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SroConfig {
    /// Initial simplex shape (the paper's SRO discussion uses the
    /// minimal simplex; symmetric also works).
    pub shape: InitialShape,
    /// Initial simplex relative size `r`.
    pub relative_size: f64,
    /// Projection rounding rule.
    pub rounding: Rounding,
    /// Collapse tolerance for the stopping criterion.
    pub collapse_tol: f64,
    /// Continuous-neighbour step for the stopping probe.
    pub probe_eps: f64,
}

impl Default for SroConfig {
    fn default() -> Self {
        SroConfig {
            shape: InitialShape::Symmetric,
            relative_size: DEFAULT_RELATIVE_SIZE,
            rounding: Rounding::TowardCenter,
            collapse_tol: 1e-9,
            probe_eps: 0.01,
        }
    }
}

/// What the sequence of singleton evaluations currently being drained
/// will be used for once complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Evaluating the initial vertices.
    Init,
    /// Evaluating the single reflection-check point `r`.
    ReflectCheck,
    /// Evaluating the single expansion-check point `e`.
    ExpandCheck,
    /// Evaluating the full reflected vertex set.
    ReflectAll,
    /// Evaluating the full expanded vertex set.
    ExpandAll,
    /// Evaluating the shrink set.
    Shrink,
    /// Evaluating the stopping-criterion probes.
    Probe,
    /// Finished.
    Done,
}

/// The Sequential Rank Ordering optimizer (proposals are singletons).
pub struct SroOptimizer {
    space: ParamSpace,
    cfg: SroConfig,
    simplex: Simplex,
    values: Vec<f64>,
    phase: Phase,
    /// Points queued for the current phase and values received so far.
    queue: Vec<Point>,
    got: Vec<f64>,
    /// `f(r)` kept across the expansion check.
    reflect_check_val: f64,
    incumbent: Incumbent,
    history: PerfDatabase,
    iterations: usize,
    converged: bool,
    /// Reused buffers: rank order, sorted values. Retaining their
    /// capacity keeps the steady-state phase machine allocation-free.
    scratch_order: Vec<usize>,
    scratch_vals: Vec<f64>,
    /// Telemetry handle (disabled by default); the driver owns the
    /// logical clock.
    tel: Telemetry,
    /// Open `sro.iteration` span id (0 when none).
    iter_span: u64,
}

impl SroOptimizer {
    /// Creates SRO over `space`.
    pub fn new(space: ParamSpace, cfg: SroConfig) -> Self {
        let simplex =
            initial_simplex(&space, cfg.shape, cfg.relative_size).expect("valid initial simplex");
        let queue = simplex.vertices().to_vec();
        let history = PerfDatabase::new(space.clone(), HISTORY_NEIGHBORS);
        SroOptimizer {
            space,
            cfg,
            simplex,
            values: Vec::new(),
            phase: Phase::Init,
            queue,
            got: Vec::new(),
            reflect_check_val: f64::NAN,
            incumbent: Incumbent::new(),
            history,
            iterations: 0,
            converged: false,
            scratch_order: Vec::new(),
            scratch_vals: Vec::new(),
            tel: Telemetry::disabled(),
            iter_span: 0,
        }
    }

    /// SRO with default configuration.
    pub fn with_defaults(space: ParamSpace) -> Self {
        SroOptimizer::new(space, SroConfig::default())
    }

    /// Completed simplex-transform iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Attaches a telemetry handle: each iteration becomes an
    /// `sro.iteration` span and every phase transition emits an
    /// `sro.decision` event (mirror of
    /// [`crate::ProOptimizer::set_telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    fn telemetry_iteration_boundary(&mut self) {
        if !self.tel.enabled() {
            return;
        }
        self.close_iter_span();
        self.iter_span = self.tel.span_open(
            "sro.iteration",
            vec![
                Field::new("iter", self.iterations),
                Field::new("k", self.simplex.len()),
                Field::new("best", self.values[0]),
            ],
        );
    }

    fn close_iter_span(&mut self) {
        if self.iter_span != 0 {
            self.tel.span_close(self.iter_span);
            self.iter_span = 0;
        }
    }

    /// Starts `phase` on a queue of `Π(kind(vʲ))` around `v⁰` for the
    /// vertices `j ∈ sources`, built by the fused step of
    /// [`ParamSpace::project_step`] into the reused queue buffer.
    fn start_transformed(&mut self, phase: Phase, kind: StepKind, sources: Range<usize>) {
        let verts = self.simplex.vertices();
        self.queue.clear();
        self.space.project_step(
            kind,
            &verts[0],
            &verts[sources],
            self.cfg.rounding,
            &mut self.queue,
        );
        self.got.clear();
        self.phase = phase;
    }

    /// The worst vertex alone, the source of the check points.
    fn worst(&self) -> Range<usize> {
        self.simplex.len() - 1..self.simplex.len()
    }

    /// The whole non-best vertex range `1..m`.
    fn non_best(&self) -> Range<usize> {
        1..self.simplex.len()
    }

    fn enter_iteration(&mut self) {
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        order.extend(0..self.values.len());
        // total_cmp: a stray NaN estimate sorts above every finite value
        // instead of panicking mid-session
        order.sort_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));
        self.simplex.permute(&order);
        let mut sorted = std::mem::take(&mut self.scratch_vals);
        sorted.clear();
        sorted.extend(order.iter().map(|&i| self.values[i]));
        std::mem::swap(&mut self.values, &mut sorted);
        self.scratch_vals = sorted;
        self.scratch_order = order;

        self.telemetry_iteration_boundary();
        if self.simplex.collapsed(self.cfg.collapse_tol) {
            self.queue.clear();
            self.space
                .probe_points(self.simplex.vertex(0), self.cfg.probe_eps, &mut self.queue);
            self.got.clear();
            if self.queue.is_empty() {
                event!(
                    self.tel,
                    "sro.decision",
                    action = "converged",
                    iter = self.iterations
                );
                self.close_iter_span();
                self.converged = true;
                self.phase = Phase::Done;
            } else {
                event!(
                    self.tel,
                    "sro.decision",
                    action = "probe",
                    iter = self.iterations,
                    points = self.queue.len()
                );
                self.phase = Phase::Probe;
            }
        } else {
            // reflection check of the worst vertex only
            self.start_transformed(Phase::ReflectCheck, StepKind::Reflect, self.worst());
            event!(
                self.tel,
                "sro.decision",
                action = "reflect_check",
                iter = self.iterations,
                best = self.values[0]
            );
        }
    }

    /// Handles a completed phase (all queued singletons evaluated).
    fn phase_complete(&mut self) {
        match self.phase {
            Phase::Init => {
                self.values.clear();
                self.values.extend_from_slice(&self.got);
                self.enter_iteration();
            }
            Phase::ReflectCheck => {
                let f_r = self.got[0];
                if f_r < self.values[0] {
                    self.reflect_check_val = f_r;
                    self.start_transformed(Phase::ExpandCheck, StepKind::Expand, self.worst());
                    event!(
                        self.tel,
                        "sro.decision",
                        action = "expand_check",
                        iter = self.iterations,
                        f_r = f_r
                    );
                } else {
                    self.start_transformed(Phase::Shrink, StepKind::Shrink, self.non_best());
                    event!(
                        self.tel,
                        "sro.decision",
                        action = "shrink",
                        iter = self.iterations,
                        f_r = f_r
                    );
                }
            }
            Phase::ExpandCheck => {
                let f_e = self.got[0];
                let expand = f_e < self.reflect_check_val;
                if expand {
                    self.start_transformed(Phase::ExpandAll, StepKind::Expand, self.non_best());
                } else {
                    self.start_transformed(Phase::ReflectAll, StepKind::Reflect, self.non_best());
                }
                event!(
                    self.tel,
                    "sro.decision",
                    action = if expand { "expand_all" } else { "reflect_all" },
                    iter = self.iterations,
                    f_e = f_e
                );
            }
            Phase::ReflectAll | Phase::ExpandAll | Phase::Shrink => {
                let mut queue = std::mem::take(&mut self.queue);
                for (j, p) in queue.drain(..).enumerate() {
                    self.simplex.set_vertex(j + 1, p);
                    self.values[j + 1] = self.got[j];
                }
                self.queue = queue;
                self.iterations += 1;
                self.enter_iteration();
            }
            Phase::Probe => {
                let min_v = *self
                    .got
                    .iter()
                    .min_by(|a, b| a.total_cmp(b))
                    .expect("non-empty probe set");
                if min_v < self.values[0] {
                    event!(
                        self.tel,
                        "sro.decision",
                        action = "probe_improved",
                        iter = self.iterations,
                        found = min_v
                    );
                    self.simplex.replace_tail(&self.queue);
                    self.values.truncate(1);
                    self.values.extend_from_slice(&self.got);
                    self.iterations += 1;
                    self.enter_iteration();
                } else {
                    event!(
                        self.tel,
                        "sro.decision",
                        action = "converged",
                        iter = self.iterations
                    );
                    self.close_iter_span();
                    self.converged = true;
                    self.phase = Phase::Done;
                }
            }
            Phase::Done => unreachable!("phase_complete after Done"),
        }
    }
}

impl Checkpoint for SroOptimizer {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("sro");
        w.points(self.simplex.vertices());
        w.f64_slice(&self.values);
        w.u8(match self.phase {
            Phase::Init => 0,
            Phase::ReflectCheck => 1,
            Phase::ExpandCheck => 2,
            Phase::ReflectAll => 3,
            Phase::ExpandAll => 4,
            Phase::Shrink => 5,
            Phase::Probe => 6,
            Phase::Done => 7,
        });
        w.points(&self.queue);
        w.f64_slice(&self.got);
        w.f64(self.reflect_check_val);
        self.incumbent.save_state(w);
        self.history.save_state(w);
        w.usize(self.iterations);
        w.bool(self.converged);
    }

    /// Restores a saved state. A simplex with an inadmissible vertex or
    /// not one finite value per vertex, an inadmissible queued point, or
    /// more received values than queued points (all of them, outside
    /// `Phase::Done`) are rejected with [`CodecError::BadValue`].
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("sro")?;
        let simplex = simplex_from_vertices(r.points()?)?;
        let values = r.f64_vec()?;
        let phase = match r.u8()? {
            0 => Phase::Init,
            1 => Phase::ReflectCheck,
            2 => Phase::ExpandCheck,
            3 => Phase::ReflectAll,
            4 => Phase::ExpandAll,
            5 => Phase::Shrink,
            6 => Phase::Probe,
            7 => Phase::Done,
            b => return Err(CodecError::BadValue(format!("bad sro phase {b}"))),
        };
        let queue = r.points()?;
        let got = r.f64_vec()?;
        let reflect_check_val = r.f64()?;
        let (incumbent, history, iterations, converged) = read_tail(&self.space, r)?;
        check_admissible(&self.space, "vertex", simplex.vertices())?;
        check_values(&values, simplex.len(), phase == Phase::Init)?;
        check_admissible(&self.space, "queued point", &queue)?;
        let got_ok = match phase {
            Phase::Done => got.len() <= queue.len(),
            _ => got.len() < queue.len(),
        };
        if !got_ok || got.iter().any(|v| !v.is_finite()) {
            return Err(CodecError::BadValue(format!(
                "sro phase {phase:?} with {} values for {} queued points",
                got.len(),
                queue.len()
            )));
        }
        self.simplex = simplex;
        self.values = values;
        self.phase = phase;
        self.queue = queue;
        self.got = got;
        self.reflect_check_val = reflect_check_val;
        self.incumbent = incumbent;
        self.history = history;
        self.iterations = iterations;
        self.converged = converged;
        self.iter_span = 0;
        Ok(())
    }
}

impl Optimizer for SroOptimizer {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        if self.phase == Phase::Done {
            return Vec::new();
        }
        vec![self.queue[self.got.len()].clone()]
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(values.len(), 1, "SRO evaluates one point at a time");
        let v = values[0];
        assert!(v.is_finite(), "observe: non-finite objective value");
        let point = &self.queue[self.got.len()];
        self.incumbent.offer(point, v);
        self.history.insert_replacing(point, v);
        self.got.push(v);
        if self.got.len() == self.queue.len() {
            self.phase_complete();
        }
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        assert_eq!(values.len(), 1, "SRO evaluates one point at a time");
        match values[0] {
            Some(v) => self.observe(&[v]),
            None => {
                // lost report: substitute the performance-database
                // interpolation over the measured history (synthetic
                // values are not recorded back or offered as incumbents)
                let point = &self.queue[self.got.len()];
                let v = self
                    .history
                    .try_interpolate(point)
                    .expect("history has at least one measurement to interpolate from");
                self.got.push(v);
                if self.got.len() == self.queue.len() {
                    self.phase_complete();
                }
            }
        }
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        if self.values.is_empty() {
            self.incumbent.get()
        } else {
            Some((self.simplex.vertex(0).clone(), self.values[0]))
        }
    }

    fn converged(&self) -> bool {
        self.converged
    }

    fn name(&self) -> &str {
        "sro"
    }

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        Some(self)
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::ParamDef;

    fn lattice_space(lo: i64, hi: i64) -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", lo, hi, 1).unwrap(),
            ParamDef::integer("y", lo, hi, 1).unwrap(),
        ])
        .unwrap()
    }

    fn drive<F: Fn(&Point) -> f64>(opt: &mut SroOptimizer, f: F, max_evals: usize) -> usize {
        let mut evals = 0;
        while evals < max_evals {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            assert_eq!(batch.len(), 1, "SRO proposals are singletons");
            evals += 1;
            opt.observe(&[f(&batch[0])]);
        }
        evals
    }

    #[test]
    fn proposals_are_singletons_and_converge() {
        let space = lattice_space(-30, 30);
        let mut opt = SroOptimizer::with_defaults(space);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1] + 1.0, 10_000);
        assert!(opt.converged());
        let (best, val) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[0.0, 0.0]);
        assert_eq!(val, 1.0);
    }

    #[test]
    fn finds_shifted_minimum() {
        let space = lattice_space(0, 60);
        let mut opt = SroOptimizer::with_defaults(space);
        drive(
            &mut opt,
            |p| (p[0] - 41.0).abs() + (p[1] - 8.0).abs(),
            10_000,
        );
        assert!(opt.converged());
        assert_eq!(opt.best().unwrap().0.as_slice(), &[41.0, 8.0]);
    }

    #[test]
    fn sequential_uses_more_batches_than_pro() {
        // the motivation for PRO: same family, but SRO needs ~n times
        // more cluster time steps per iteration
        let space = lattice_space(-30, 30);
        let f = |p: &Point| (p[0] - 5.0).powi(2) + (p[1] + 9.0).powi(2);
        let mut sro = SroOptimizer::with_defaults(space.clone());
        let mut sro_batches = 0;
        while sro_batches < 100_000 {
            let b = sro.propose();
            if b.is_empty() {
                break;
            }
            sro_batches += 1;
            sro.observe(&[f(&b[0])]);
        }
        let mut pro = crate::pro::ProOptimizer::with_defaults(space);
        let mut pro_batches = 0;
        loop {
            let b = pro.propose();
            if b.is_empty() {
                break;
            }
            pro_batches += 1;
            let vals: Vec<f64> = b.iter().map(f).collect();
            pro.observe(&vals);
        }
        assert!(
            sro_batches > 2 * pro_batches,
            "sro={sro_batches} pro={pro_batches}"
        );
    }

    #[test]
    fn all_proposals_admissible() {
        let space = ParamSpace::new(vec![
            ParamDef::integer("x", 0, 40, 4).unwrap(),
            ParamDef::levels("y", vec![1.0, 3.0, 7.0]).unwrap(),
        ])
        .unwrap();
        let mut opt = SroOptimizer::with_defaults(space.clone());
        for _ in 0..2_000 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            assert!(space.is_admissible(&batch[0]));
            opt.observe(&[(batch[0][0] - 20.0).powi(2) + batch[0][1]]);
        }
    }

    #[test]
    fn one_dimensional() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", -50, 50, 1).unwrap()]).unwrap();
        let mut opt = SroOptimizer::with_defaults(space);
        drive(&mut opt, |p| (p[0] + 17.0).powi(2), 10_000);
        assert!(opt.converged());
        assert_eq!(opt.best().unwrap().0.as_slice(), &[-17.0]);
    }

    #[test]
    fn observe_partial_substitutes_lost_singletons() {
        // drop every 4th report after the initial vertices; the history
        // interpolation must keep the phase machine running and the
        // search must still reach the optimum of a smooth bowl
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 6.0).powi(2) + (p[1] - 2.0).powi(2);
        let mut opt = SroOptimizer::with_defaults(space);
        let init_len = opt.queue.len();
        let mut k = 0usize;
        for _ in 0..20_000 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            k += 1;
            if k > init_len && k.is_multiple_of(4) {
                opt.observe_partial(&[None]);
            } else {
                opt.observe_partial(&[Some(f(&batch[0]))]);
            }
        }
        let (best, _) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[6.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one measurement")]
    fn observe_partial_needs_some_history() {
        let space = lattice_space(-5, 5);
        let mut opt = SroOptimizer::with_defaults(space);
        let _ = opt.propose();
        opt.observe_partial(&[None]);
    }

    /// Checkpoint bytes of an SRO over `lattice_space(-5, 5)` in `phase`,
    /// with an empty incumbent and history.
    fn crafted_sro(
        verts: &[Point],
        values: &[f64],
        phase: u8,
        queue: &[Point],
        got: &[f64],
    ) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.tag("sro");
        w.points(verts);
        w.f64_slice(values);
        w.u8(phase);
        w.points(queue);
        w.f64_slice(got);
        w.f64(f64::NAN);
        Incumbent::new().save_state(&mut w);
        PerfDatabase::new(lattice_space(-5, 5), HISTORY_NEIGHBORS).save_state(&mut w);
        w.usize(2);
        w.bool(false);
        w.into_bytes()
    }

    #[test]
    fn restore_validates_crafted_checkpoints() {
        let pt = |x: f64, y: f64| Point::from(&[x, y][..]);
        let verts = [pt(1.0, 0.0), pt(-1.0, 0.0), pt(0.0, 1.0), pt(0.0, -1.0)];
        let vals = [1.0, 2.0, 3.0, 4.0];
        let queue = [pt(-1.0, 0.0), pt(0.0, -1.0), pt(0.0, 1.0)];
        let restore = |bytes: &[u8]| {
            let mut opt = SroOptimizer::with_defaults(lattice_space(-5, 5));
            let before = opt.simplex.clone();
            let got = opt.restore_state(&mut StateReader::new(bytes).unwrap());
            if got.is_err() {
                assert_eq!(
                    opt.simplex, before,
                    "a rejected restore changed the simplex"
                );
            }
            got
        };
        let bad = |bytes: &[u8], why: &str| {
            assert!(
                matches!(restore(bytes), Err(CodecError::BadValue(_))),
                "accepted {why}"
            );
        };
        restore(&crafted_sro(&verts, &[], 0, &verts, &[1.0])).unwrap();
        restore(&crafted_sro(&verts, &vals, 3, &queue, &[2.0, 5.0])).unwrap();
        restore(&crafted_sro(&verts, &vals, 7, &queue, &[2.0, 5.0, 6.0])).unwrap();

        let mut off_vertex = verts.clone();
        off_vertex[3] = pt(0.0, -0.5);
        bad(
            &crafted_sro(&off_vertex, &vals, 3, &queue, &[]),
            "an inadmissible vertex",
        );
        bad(
            &crafted_sro(&verts, &vals[..2], 3, &queue, &[]),
            "too few values",
        );
        bad(
            &crafted_sro(&verts, &vals, 0, &verts, &[]),
            "values in Init",
        );
        let inf = [1.0, 2.0, f64::INFINITY, 4.0];
        bad(
            &crafted_sro(&verts, &inf, 3, &queue, &[]),
            "an infinite value",
        );
        let off_queue = [pt(-1.0, 0.0), pt(9.0, 0.0)];
        bad(
            &crafted_sro(&verts, &vals, 3, &off_queue, &[]),
            "a queued point out of bounds",
        );
        bad(
            &crafted_sro(&verts, &vals, 3, &queue, &[1.0, 2.0, 3.0]),
            "a complete queue",
        );
        bad(
            &crafted_sro(&verts, &vals, 1, &[], &[]),
            "an empty check queue",
        );
        bad(
            &crafted_sro(&verts, &vals, 3, &queue, &[f64::NAN]),
            "a NaN received value",
        );
    }

    #[test]
    #[should_panic(expected = "one point at a time")]
    fn multi_observation_rejected() {
        let space = lattice_space(-5, 5);
        let mut opt = SroOptimizer::with_defaults(space);
        let _ = opt.propose();
        opt.observe(&[1.0, 2.0]);
    }

    #[test]
    fn failed_restores_leave_the_optimizer_unchanged() {
        use crate::optimizer::testing::{cut_restores_change_nothing, run};
        let space = || lattice_space(-5, 5);
        let mut src = SroOptimizer::with_defaults(space());
        run(&mut src, |p| (p[0] - 2.0).powi(2) + (p[1] + 1.0).powi(2), 9);
        let bytes = harmony_recovery::save_to_vec(&src);
        cut_restores_change_nothing(&bytes, || SroOptimizer::with_defaults(space()));
        cut_restores_change_nothing(&bytes, || {
            let mut opt = SroOptimizer::with_defaults(space());
            run(&mut opt, |p| p[0] + p[1] + 20.0, 5);
            opt
        });
    }
}
