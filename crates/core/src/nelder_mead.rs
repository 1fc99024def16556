//! The Nelder–Mead simplex method (§3.1) — the optimizer originally used
//! by Active Harmony, included as the baseline whose shortcomings
//! motivate rank ordering.
//!
//! For `N` variables the method keeps `N+1` vertices. Each iteration
//! replaces the worst vertex `v_N` with a point on the line
//! `v_N + α(c − v_N)` through the centroid `c` of the other vertices
//! (eq. 3), trying reflection (`α = 2`), expansion (`α = 3`), and
//! contraction (`α = 0.5`), and shrinking the whole simplex around the
//! best point when none helps.
//!
//! Unlike rank ordering, acceptance is relative to the *worst* vertex,
//! the polytope can deform arbitrarily (and degenerate — see
//! [`NelderMead::simplex_rank`]), and the method is inherently
//! sequential: proposals are singletons except for the shrink step.

use crate::optimizer::{read_tail, Incumbent, Optimizer, HISTORY_NEIGHBORS};
use crate::pro::{check_admissible, check_values, simplex_from_vertices};
use harmony_params::init::{initial_simplex, InitialShape, DEFAULT_RELATIVE_SIZE};
use harmony_params::{ParamSpace, Point, Rounding, Simplex};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::PerfDatabase;

/// Configuration of the Nelder–Mead baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadConfig {
    /// Initial simplex relative size `r`.
    pub relative_size: f64,
    /// Projection rounding (needed for discrete parameters; classical
    /// NM has no projection at all).
    pub rounding: Rounding,
    /// Simplex diameter below which the search reports convergence.
    pub collapse_tol: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            relative_size: DEFAULT_RELATIVE_SIZE,
            rounding: Rounding::Nearest,
            collapse_tol: 1e-9,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Reflect,
    Expand,
    Contract,
    Shrink,
    Done,
}

/// The Nelder–Mead optimizer over a (possibly discrete) parameter space.
pub struct NelderMead {
    space: ParamSpace,
    cfg: NelderMeadConfig,
    simplex: Simplex,
    values: Vec<f64>,
    phase: Phase,
    queue: Vec<Point>,
    got: Vec<f64>,
    /// `f(r)` carried from the reflection to the expansion/contraction
    /// decision, together with the reflected point.
    reflected: Option<(Point, f64)>,
    incumbent: Incumbent,
    history: PerfDatabase,
    iterations: usize,
    converged: bool,
}

impl NelderMead {
    /// Creates Nelder–Mead over `space` (always a minimal `N+1`-vertex
    /// simplex, per the classical method).
    pub fn new(space: ParamSpace, cfg: NelderMeadConfig) -> Self {
        let simplex = initial_simplex(&space, InitialShape::Minimal, cfg.relative_size)
            .expect("valid initial simplex");
        let queue = simplex.vertices().to_vec();
        let history = PerfDatabase::new(space.clone(), HISTORY_NEIGHBORS);
        NelderMead {
            space,
            cfg,
            simplex,
            values: Vec::new(),
            phase: Phase::Init,
            queue,
            got: Vec::new(),
            reflected: None,
            incumbent: Incumbent::new(),
            history,
            iterations: 0,
            converged: false,
        }
    }

    /// Nelder–Mead with defaults.
    pub fn with_defaults(space: ParamSpace) -> Self {
        NelderMead::new(space, NelderMeadConfig::default())
    }

    /// Completed iterations (worst-vertex replacements or shrinks).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Rank of the current simplex — exposes the degeneracy failure mode
    /// discussed in §3.1.
    pub fn simplex_rank(&self, tol: f64) -> usize {
        self.simplex.rank(tol)
    }

    fn project(&self, raw: &Point) -> Point {
        self.space
            .project(raw, self.simplex.vertex(0), self.cfg.rounding)
    }

    /// Point on the line `v_N + α(c − v_N)` (eq. 3 context), projected.
    fn line_point(&self, alpha: f64) -> Point {
        let worst = self.simplex.vertex(self.simplex.len() - 1);
        let c = self.simplex.centroid_excluding(self.simplex.len() - 1);
        // v_N + α(c − v_N) = (1−α)·v_N + α·c
        let raw = Point::affine(&[(1.0 - alpha, worst), (alpha, &c)]);
        self.project(&raw)
    }

    fn start_phase(&mut self, phase: Phase, queue: Vec<Point>) {
        self.phase = phase;
        self.queue = queue;
        self.got = Vec::new();
    }

    fn enter_iteration(&mut self) {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        // total_cmp: a stray NaN estimate sorts above every finite value
        // instead of panicking mid-session
        order.sort_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));
        self.simplex.permute(&order);
        self.values = order.iter().map(|&i| self.values[i]).collect();

        if self.simplex.collapsed(self.cfg.collapse_tol) {
            self.converged = true;
            self.phase = Phase::Done;
            self.queue = Vec::new();
        } else {
            let r = self.line_point(2.0);
            self.start_phase(Phase::Reflect, vec![r]);
        }
    }

    fn replace_worst(&mut self, point: Point, value: f64) {
        let worst = self.simplex.len() - 1;
        self.simplex.set_vertex(worst, point);
        self.values[worst] = value;
        self.iterations += 1;
        self.enter_iteration();
    }

    fn phase_complete(&mut self) {
        let queue = std::mem::take(&mut self.queue);
        let got = std::mem::take(&mut self.got);
        match self.phase {
            Phase::Init => {
                self.values = got;
                self.enter_iteration();
            }
            Phase::Reflect => {
                let (r, f_r) = (queue.into_iter().next().expect("one point"), got[0]);
                let worst_val = *self.values.last().expect("non-empty simplex");
                if f_r < self.values[0] {
                    self.reflected = Some((r, f_r));
                    let e = self.line_point(3.0);
                    self.start_phase(Phase::Expand, vec![e]);
                } else if f_r < worst_val {
                    self.replace_worst(r, f_r);
                } else {
                    self.reflected = Some((r, f_r));
                    let co = self.line_point(0.5);
                    self.start_phase(Phase::Contract, vec![co]);
                }
            }
            Phase::Expand => {
                let (e, f_e) = (queue.into_iter().next().expect("one point"), got[0]);
                let (r, f_r) = self.reflected.take().expect("reflection recorded");
                if f_e < f_r {
                    self.replace_worst(e, f_e);
                } else {
                    self.replace_worst(r, f_r);
                }
            }
            Phase::Contract => {
                let (co, f_co) = (queue.into_iter().next().expect("one point"), got[0]);
                let worst_val = *self.values.last().expect("non-empty simplex");
                self.reflected = None;
                if f_co < worst_val {
                    self.replace_worst(co, f_co);
                } else {
                    // shrink the whole simplex around the best point
                    let shrinks: Vec<Point> = self
                        .simplex
                        .transform_around(0, harmony_params::StepKind::Shrink)
                        .iter()
                        .map(|p| self.project(p))
                        .collect();
                    self.start_phase(Phase::Shrink, shrinks);
                }
            }
            Phase::Shrink => {
                for (j, (p, v)) in queue.into_iter().zip(got).enumerate() {
                    self.simplex.set_vertex(j + 1, p);
                    self.values[j + 1] = v;
                }
                self.iterations += 1;
                self.enter_iteration();
            }
            Phase::Done => unreachable!("phase_complete after Done"),
        }
    }
}

impl Checkpoint for NelderMead {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("nm");
        w.points(self.simplex.vertices());
        w.f64_slice(&self.values);
        w.u8(match self.phase {
            Phase::Init => 0,
            Phase::Reflect => 1,
            Phase::Expand => 2,
            Phase::Contract => 3,
            Phase::Shrink => 4,
            Phase::Done => 5,
        });
        w.points(&self.queue);
        w.f64_slice(&self.got);
        match &self.reflected {
            Some((p, v)) => {
                w.bool(true);
                w.point(p);
                w.f64(*v);
            }
            None => w.bool(false),
        }
        self.incumbent.save_state(w);
        self.history.save_state(w);
        w.usize(self.iterations);
        w.bool(self.converged);
    }

    /// Restores a saved state, checking all of it before assigning any:
    /// inadmissible points, non-finite values, or a queue or value count
    /// that does not fit the phase are rejected with `BadValue`.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("nm")?;
        let simplex = simplex_from_vertices(r.points()?)?;
        let values = r.f64_vec()?;
        let phase = match r.u8()? {
            0 => Phase::Init,
            1 => Phase::Reflect,
            2 => Phase::Expand,
            3 => Phase::Contract,
            4 => Phase::Shrink,
            5 => Phase::Done,
            b => return Err(CodecError::BadValue(format!("bad nm phase {b}"))),
        };
        let queue = r.points()?;
        let got = r.f64_vec()?;
        let reflected = if r.bool()? {
            Some((r.point()?, r.f64()?))
        } else {
            None
        };
        let (incumbent, history, iterations, converged) = read_tail(&self.space, r)?;
        let m = simplex.len();
        check_admissible(&self.space, "vertex", simplex.vertices())?;
        check_values(&values, m, phase == Phase::Init)?;
        check_admissible(&self.space, "queued point", &queue)?;
        let queue_len = match phase {
            Phase::Init => m,
            Phase::Reflect | Phase::Expand | Phase::Contract => 1,
            Phase::Shrink => m - 1,
            Phase::Done => 0,
        };
        let reflected_ok = match &reflected {
            Some((p, v)) => self.space.is_admissible(p) && v.is_finite(),
            None => phase != Phase::Expand,
        };
        // the value of a phase's last queued point completes the phase,
        // so a saved `got` never covers its queue
        if queue.len() != queue_len
            || got.len() >= queue_len.max(1)
            || got.iter().any(|v| !v.is_finite())
            || !reflected_ok
        {
            return Err(CodecError::BadValue(format!(
                "nm phase {phase:?} with {} queued points, {got:?} and {reflected:?}",
                queue.len()
            )));
        }
        self.simplex = simplex;
        self.values = values;
        self.phase = phase;
        self.queue = queue;
        self.got = got;
        self.reflected = reflected;
        self.incumbent = incumbent;
        self.history = history;
        self.iterations = iterations;
        self.converged = converged;
        Ok(())
    }
}

impl Optimizer for NelderMead {
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
        assert_eq!(values.len(), 1, "Nelder-Mead evaluates one point at a time");
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
        assert_eq!(values.len(), 1, "Nelder-Mead evaluates one point at a time");
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
        "nelder-mead"
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

    fn cont_space(n: usize) -> ParamSpace {
        ParamSpace::new(
            (0..n)
                .map(|i| ParamDef::continuous(format!("x{i}"), -10.0, 10.0).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn drive<F: Fn(&Point) -> f64>(opt: &mut NelderMead, f: F, max_evals: usize) {
        for _ in 0..max_evals {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            opt.observe(&[f(&batch[0])]);
        }
    }

    #[test]
    fn descends_continuous_bowl() {
        let mut opt = NelderMead::with_defaults(cont_space(2));
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1], 2_000);
        let (best, val) = opt.best().unwrap();
        assert!(val < 0.5, "val={val} at {best:?}");
    }

    #[test]
    fn works_on_integer_lattice() {
        let space = ParamSpace::new(vec![
            ParamDef::integer("x", -20, 20, 1).unwrap(),
            ParamDef::integer("y", -20, 20, 1).unwrap(),
        ])
        .unwrap();
        let mut opt = NelderMead::with_defaults(space);
        drive(
            &mut opt,
            |p| (p[0] - 4.0).powi(2) + (p[1] + 3.0).powi(2),
            4_000,
        );
        let (_, val) = opt.best().unwrap();
        // NM on lattices is unreliable (the point of the paper); accept
        // any reasonable descent
        assert!(val <= 9.0, "val={val}");
    }

    #[test]
    fn proposals_are_singletons() {
        let mut opt = NelderMead::with_defaults(cont_space(3));
        for _ in 0..50 {
            let b = opt.propose();
            if b.is_empty() {
                break;
            }
            assert_eq!(b.len(), 1);
            opt.observe(&[b[0].iter().map(|c| c * c).sum()]);
        }
    }

    #[test]
    fn simplex_rank_is_full_at_start() {
        let opt = NelderMead::with_defaults(cont_space(3));
        assert_eq!(opt.simplex_rank(1e-9), 3);
    }

    #[test]
    fn mckinnon_style_deformation_can_degenerate() {
        // On a discrete lattice with nearest rounding the NM polytope can
        // lose rank — the §3.1 failure mode. We only assert the rank
        // diagnostic is usable mid-run (value in 0..=N).
        let space = ParamSpace::new(vec![
            ParamDef::integer("x", -5, 5, 1).unwrap(),
            ParamDef::integer("y", -5, 5, 1).unwrap(),
        ])
        .unwrap();
        let mut opt = NelderMead::with_defaults(space);
        drive(&mut opt, |p| p[0].abs() + p[1].abs(), 200);
        assert!(opt.simplex_rank(1e-9) <= 2);
    }

    #[test]
    fn converges_and_stops() {
        let mut opt = NelderMead::with_defaults(cont_space(1));
        drive(&mut opt, |p| (p[0] - 2.0).powi(2), 5_000);
        assert!(opt.converged());
        assert!(opt.propose().is_empty());
        assert!((opt.best().unwrap().0[0] - 2.0).abs() < 0.5);
    }

    #[test]
    fn observe_partial_substitutes_lost_singletons() {
        let mut opt = NelderMead::with_defaults(cont_space(2));
        let init_len = opt.queue.len();
        let f = |p: &Point| p[0] * p[0] + p[1] * p[1];
        let mut k = 0usize;
        for _ in 0..2_000 {
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
        let (best, val) = opt.best().unwrap();
        assert!(val < 1.0, "val={val} at {best:?}");
    }

    #[test]
    fn expansion_improves_on_steep_slopes() {
        let mut opt = NelderMead::with_defaults(cont_space(2));
        drive(&mut opt, |p| 100.0 - p[0] - p[1], 2_000);
        let (best, _) = opt.best().unwrap();
        // should walk toward the (10, 10) corner
        assert!(best[0] > 5.0 && best[1] > 5.0, "best={best:?}");
    }

    fn lattice_space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -5, 5, 1).unwrap(),
            ParamDef::integer("y", -5, 5, 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn failed_restores_leave_the_optimizer_unchanged() {
        use crate::optimizer::testing::{cut_restores_change_nothing, run};
        let mut src = NelderMead::with_defaults(lattice_space());
        run(&mut src, |p| (p[0] - 2.0).powi(2) + (p[1] + 1.0).powi(2), 7);
        let bytes = harmony_recovery::save_to_vec(&src);
        cut_restores_change_nothing(&bytes, || NelderMead::with_defaults(lattice_space()));
        cut_restores_change_nothing(&bytes, || {
            let mut opt = NelderMead::with_defaults(lattice_space());
            run(&mut opt, |p| p[0] + p[1] + 20.0, 4);
            opt
        });
    }

    /// A checkpoint of an `nm` section with an empty incumbent and
    /// history; `reflected` is written as given.
    fn crafted_nm(
        verts: &[Point],
        values: &[f64],
        phase: u8,
        queue: &[Point],
        got: &[f64],
        reflected: Option<(&Point, f64)>,
    ) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.tag("nm");
        w.points(verts);
        w.f64_slice(values);
        w.u8(phase);
        w.points(queue);
        w.f64_slice(got);
        match reflected {
            Some((p, v)) => {
                w.bool(true);
                w.point(p);
                w.f64(v);
            }
            None => w.bool(false),
        }
        Incumbent::new().save_state(&mut w);
        PerfDatabase::new(lattice_space(), HISTORY_NEIGHBORS).save_state(&mut w);
        w.usize(1);
        w.bool(false);
        w.into_bytes()
    }

    #[test]
    fn restore_validates_crafted_checkpoints() {
        let pt = |x: f64, y: f64| Point::from(&[x, y][..]);
        let verts = [pt(0.0, 0.0), pt(1.0, 0.0), pt(0.0, 1.0)];
        let vals = [1.0, 2.0, 3.0];
        let r = pt(-1.0, -1.0);
        let refl = std::slice::from_ref(&r);
        let restore = |bytes: &[u8]| {
            let mut opt = NelderMead::with_defaults(lattice_space());
            let before = opt.propose();
            let got = harmony_recovery::restore_from_slice(&mut opt, bytes);
            if got.is_err() {
                assert_eq!(opt.propose(), before, "a rejected restore moved the queue");
            }
            got
        };
        let bad = |bytes: &[u8], why: &str| {
            assert!(
                matches!(restore(bytes), Err(CodecError::BadValue(_))),
                "accepted {why}"
            );
        };
        // well-formed states restore
        restore(&crafted_nm(&verts, &[], 0, &verts, &[1.0], None)).unwrap();
        restore(&crafted_nm(&verts, &vals, 1, refl, &[], None)).unwrap();
        restore(&crafted_nm(&verts, &vals, 2, refl, &[], Some((&r, 0.5)))).unwrap();
        restore(&crafted_nm(
            &verts,
            &vals,
            4,
            &verts[1..],
            &[2.0],
            Some((&r, 4.0)),
        ))
        .unwrap();
        restore(&crafted_nm(&verts, &vals, 5, &[], &[], None)).unwrap();

        // the first byte where the two differ is the reflection flag
        let mut flag = crafted_nm(&verts, &vals, 1, refl, &[], None);
        let with = crafted_nm(&verts, &vals, 1, refl, &[], Some((&r, 0.5)));
        let at = flag.iter().zip(&with).position(|(a, b)| a != b).unwrap();
        flag[at] = 7;
        bad(&flag, "a reflection flag byte of 7");
        bad(
            &crafted_nm(&verts, &vals, 1, &[pt(9.0, 9.0)], &[], None),
            "a queued point outside the space",
        );
        bad(
            &crafted_nm(
                &[pt(0.5, 0.0), verts[1].clone(), verts[2].clone()],
                &vals,
                1,
                refl,
                &[],
                None,
            ),
            "an inadmissible vertex",
        );
        bad(
            &crafted_nm(&verts, &vals, 1, refl, &[1.0], None),
            "a value for every queued point",
        );
        bad(
            &crafted_nm(&verts, &vals, 1, &[r.clone(), r.clone()], &[], None),
            "a two-point reflection",
        );
        bad(
            &crafted_nm(&verts, &vals, 4, &verts, &[], None),
            "a shrink of every vertex",
        );
        bad(
            &crafted_nm(&verts, &vals, 2, refl, &[], None),
            "an expansion without its reflection",
        );
        bad(
            &crafted_nm(&verts, &vals, 2, refl, &[], Some((&pt(0.5, 0.5), 1.0))),
            "an inadmissible reflection",
        );
        bad(
            &crafted_nm(&verts, &vals[..2], 1, refl, &[], None),
            "too few values",
        );
        bad(
            &crafted_nm(&verts, &[1.0, f64::NAN, 3.0], 1, refl, &[], None),
            "a NaN value",
        );
        bad(
            &crafted_nm(&verts, &vals, 5, refl, &[], None),
            "a queue after Done",
        );
    }
}
