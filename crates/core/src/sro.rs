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
//!
//! SRO searches from PRO's default simplex (symmetric, `r = 0.2`, with
//! the toward-center projection) and shares PRO's simplex-search core:
//! ranking, the §3.2.2 stopping probe, bookkeeping and the checkpoint
//! frame. This module holds its phase decisions.

use crate::search::{check_admissible, decision, Method, Names, Search};
use harmony_params::init::{InitialShape, DEFAULT_RELATIVE_SIZE};
use harmony_params::{ParamSpace, Rounding, StepKind};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_telemetry::Telemetry;
use std::ops::Range;

/// What the sequence of singleton evaluations currently being drained
/// will be used for once complete, declared in checkpoint byte order:
/// `phase as u8` is the byte, and [`PHASES`] reads it back.
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

const PHASES: [Phase; 8] = [
    Phase::Init,
    Phase::ReflectCheck,
    Phase::ExpandCheck,
    Phase::ReflectAll,
    Phase::ExpandAll,
    Phase::Shrink,
    Phase::Probe,
    Phase::Done,
];

/// The Sequential Rank Ordering optimizer (proposals are singletons).
pub struct SroOptimizer {
    search: Search,
    phase: Phase,
    /// `f(r)` kept across the expansion check.
    reflect_check_val: f64,
}

impl SroOptimizer {
    /// Creates SRO over `space`.
    pub fn with_defaults(space: ParamSpace) -> Self {
        let names = Names {
            name: "sro",
            tag: "sro",
            iteration: "sro.iteration",
            decision: "sro.decision",
        };
        SroOptimizer {
            search: Search::new(names, space, InitialShape::Symmetric, DEFAULT_RELATIVE_SIZE),
            phase: Phase::Init,
            reflect_check_val: f64::NAN,
        }
    }

    /// Completed simplex-transform iterations.
    pub fn iterations(&self) -> usize {
        self.search.iterations
    }

    /// Attaches a telemetry handle: each iteration becomes an
    /// `sro.iteration` span and every phase transition emits an
    /// `sro.decision` event (mirror of
    /// [`crate::ProOptimizer::set_telemetry`], whose rule for a disabled
    /// sink it follows).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.search.set_telemetry(tel);
    }

    /// Starts `phase` on a queue of `Π(kind(vʲ))` around `v⁰` for the
    /// vertices `j ∈ sources`.
    fn start(&mut self, phase: Phase, kind: StepKind, sources: Range<usize>) {
        self.search
            .queue_step(kind, sources, Rounding::TowardCenter);
        self.phase = phase;
    }

    /// The worst vertex alone, the source of the check points.
    fn worst(&self) -> Range<usize> {
        self.search.simplex.len() - 1..self.search.simplex.len()
    }

    fn enter_iteration(&mut self) {
        self.search.rank();
        if self.search.collapsed() {
            self.phase = if self.search.probe_or_converge(false) {
                Phase::Probe
            } else {
                Phase::Done
            };
        } else {
            // reflection check of the worst vertex only
            self.start(Phase::ReflectCheck, StepKind::Reflect, self.worst());
            decision!(self.search, "reflect_check", best = self.search.values[0]);
        }
    }
}

impl Method for SroOptimizer {
    const ONE_AT_A_TIME: bool = true;

    fn search(&self) -> &Search {
        &self.search
    }

    fn search_mut(&mut self) -> &mut Search {
        &mut self.search
    }

    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn phase_complete(&mut self) {
        let s = &mut self.search;
        match self.phase {
            Phase::Init => {
                s.accept_initial();
                self.enter_iteration();
            }
            Phase::ReflectCheck => {
                let f_r = s.got[0];
                if f_r < s.values[0] {
                    self.reflect_check_val = f_r;
                    self.start(Phase::ExpandCheck, StepKind::Expand, self.worst());
                    decision!(self.search, "expand_check", f_r = f_r);
                } else {
                    self.start(Phase::Shrink, StepKind::Shrink, self.search.non_best());
                    decision!(self.search, "shrink", f_r = f_r);
                }
            }
            Phase::ExpandCheck => {
                let f_e = s.got[0];
                if f_e < self.reflect_check_val {
                    self.start(Phase::ExpandAll, StepKind::Expand, self.search.non_best());
                    decision!(self.search, "expand_all", f_e = f_e);
                } else {
                    self.start(Phase::ReflectAll, StepKind::Reflect, self.search.non_best());
                    decision!(self.search, "reflect_all", f_e = f_e);
                }
            }
            Phase::ReflectAll | Phase::ExpandAll | Phase::Shrink => {
                s.accept_queue();
                self.enter_iteration();
            }
            Phase::Probe => {
                if s.probe_improved(0, s.values[0]) {
                    self.enter_iteration();
                } else {
                    s.converge();
                    self.phase = Phase::Done;
                }
            }
            Phase::Done => unreachable!("phase_complete after Done"),
        }
    }
}

impl Checkpoint for SroOptimizer {
    fn save_state(&self, w: &mut StateWriter) {
        let s = &self.search;
        s.save_head(w, self.phase as u8);
        w.points(&s.queue);
        w.f64_slice(&s.got);
        w.f64(self.reflect_check_val);
        s.save_tail(w);
    }

    /// Restores a saved state. A simplex with an inadmissible vertex or
    /// not one finite value per vertex, an inadmissible queued point, or
    /// more received values than queued points (all of them, outside
    /// `Phase::Done`) are rejected with [`CodecError::BadValue`].
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        let s = &self.search;
        let head = s.read_head(r, &PHASES)?;
        let phase = head.phase;
        let queue = r.points()?;
        let got = r.f64_vec()?;
        let reflect_check_val = r.f64()?;
        let tail = s.read_tail(r, phase == Phase::Done)?;
        check_admissible(s.space(), "queued point", &queue)?;
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
        self.search.restore(head, queue, got, tail);
        self.phase = phase;
        self.reflect_check_val = reflect_check_val;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Incumbent, Optimizer, HISTORY_NEIGHBORS};
    use harmony_params::ParamDef;
    use harmony_params::Point;
    use harmony_surface::PerfDatabase;

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
        let init_len = opt.search.queue.len();
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
    #[should_panic(expected = "empty history and no measured value")]
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
            let before = opt.search.simplex.clone();
            let got = opt.restore_state(&mut StateReader::new(bytes).unwrap());
            if got.is_err() {
                assert_eq!(
                    opt.search.simplex, before,
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
        // the trailing byte is the convergence flag, set exactly in Done
        let converged = |mut bytes: Vec<u8>| {
            *bytes.last_mut().expect("flag byte") = 1;
            bytes
        };
        let done = crafted_sro(&verts, &vals, 7, &queue, &[2.0, 5.0, 6.0]);
        restore(&converged(done.clone())).unwrap();
        bad(&done, "Done without the convergence flag");
        bad(
            &converged(crafted_sro(&verts, &vals, 3, &queue, &[2.0, 5.0])),
            "the convergence flag outside Done",
        );

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
    #[should_panic(expected = "observe: expected 1 values, got 2")]
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
