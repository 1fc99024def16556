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
//! sequential: proposals are singletons, the shrink step included. It
//! stops once the simplex collapses, with no neighbour probe. Ranking,
//! bookkeeping and the checkpoint frame are the simplex-search core it
//! shares with PRO and SRO; it emits no telemetry.

use crate::search::{check_admissible, Method, Names, Search};
use harmony_params::init::{InitialShape, DEFAULT_RELATIVE_SIZE};
use harmony_params::{ParamSpace, Point, Rounding, StepKind};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};

/// Projection rounding: discrete parameters need one, and classical
/// Nelder–Mead has none, so the plain nearest lattice point.
const ROUNDING: Rounding = Rounding::Nearest;

/// The phase of the search, declared in checkpoint byte order: `phase as
/// u8` is the byte, and [`PHASES`] reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Reflect,
    Expand,
    Contract,
    Shrink,
    Done,
}

const PHASES: [Phase; 6] = [
    Phase::Init,
    Phase::Reflect,
    Phase::Expand,
    Phase::Contract,
    Phase::Shrink,
    Phase::Done,
];

/// The Nelder–Mead optimizer over a (possibly discrete) parameter space.
pub struct NelderMead {
    search: Search,
    phase: Phase,
    /// `f(r)` carried from the reflection to the expansion/contraction
    /// decision, together with the reflected point.
    reflected: Option<(Point, f64)>,
}

impl NelderMead {
    /// Creates Nelder–Mead over `space`: always a minimal `N+1`-vertex
    /// simplex, per the classical method, of relative size `r = 0.2`.
    pub fn with_defaults(space: ParamSpace) -> Self {
        // no telemetry is ever attached, so the span and event names
        // stay unused
        let names = Names {
            name: "nelder-mead",
            tag: "nm",
            iteration: "nm.iteration",
            decision: "nm.decision",
        };
        NelderMead {
            search: Search::new(names, space, InitialShape::Minimal, DEFAULT_RELATIVE_SIZE),
            phase: Phase::Init,
            reflected: None,
        }
    }

    /// Completed iterations (worst-vertex replacements or shrinks).
    pub fn iterations(&self) -> usize {
        self.search.iterations
    }

    /// Rank of the current simplex — exposes the degeneracy failure mode
    /// discussed in §3.1.
    pub fn simplex_rank(&self, tol: f64) -> usize {
        self.search.simplex.rank(tol)
    }

    /// Starts `phase` on the one point `v_N + α(c − v_N)` (eq. 3
    /// context), projected.
    fn start_line(&mut self, phase: Phase, alpha: f64) {
        let s = &mut self.search;
        let m = s.simplex.len();
        let c = s.simplex.centroid_excluding(m - 1);
        // v_N + α(c − v_N) = (1−α)·v_N + α·c
        let raw = Point::affine(&[(1.0 - alpha, s.simplex.vertex(m - 1)), (alpha, &c)]);
        let p = s.space().project(&raw, s.simplex.vertex(0), ROUNDING);
        s.queue.clear();
        s.got.clear();
        s.queue.push(p);
        self.phase = phase;
    }

    fn enter_iteration(&mut self) {
        self.search.rank();
        if self.search.collapsed() {
            self.search.queue.clear();
            self.search.converge();
            self.phase = Phase::Done;
        } else {
            self.start_line(Phase::Reflect, 2.0);
        }
    }

    /// The one point of a reflect, expand or contract phase, and its
    /// value.
    fn take_measured(&mut self) -> (Point, f64) {
        let s = &mut self.search;
        (s.queue.pop().expect("one point"), s.got[0])
    }

    fn worst_value(&self) -> f64 {
        *self.search.values.last().expect("non-empty simplex")
    }

    fn replace_worst(&mut self, point: Point, value: f64) {
        let s = &mut self.search;
        let worst = s.simplex.len() - 1;
        s.simplex.set_vertex(worst, point);
        s.values[worst] = value;
        s.iterations += 1;
        self.enter_iteration();
    }
}

impl Method for NelderMead {
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
        match self.phase {
            Phase::Init => {
                self.search.accept_initial();
                self.enter_iteration();
            }
            Phase::Reflect => {
                let (r, f_r) = self.take_measured();
                if f_r < self.search.values[0] {
                    self.reflected = Some((r, f_r));
                    self.start_line(Phase::Expand, 3.0);
                } else if f_r < self.worst_value() {
                    self.replace_worst(r, f_r);
                } else {
                    self.reflected = Some((r, f_r));
                    self.start_line(Phase::Contract, 0.5);
                }
            }
            Phase::Expand => {
                let (e, f_e) = self.take_measured();
                let (r, f_r) = self.reflected.take().expect("reflection recorded");
                if f_e < f_r {
                    self.replace_worst(e, f_e);
                } else {
                    self.replace_worst(r, f_r);
                }
            }
            Phase::Contract => {
                let (co, f_co) = self.take_measured();
                self.reflected = None;
                if f_co < self.worst_value() {
                    self.replace_worst(co, f_co);
                } else {
                    // shrink the whole simplex around the best point
                    let s = &mut self.search;
                    s.queue_step(StepKind::Shrink, s.non_best(), ROUNDING);
                    self.phase = Phase::Shrink;
                }
            }
            Phase::Shrink => {
                self.search.accept_queue();
                self.enter_iteration();
            }
            Phase::Done => unreachable!("phase_complete after Done"),
        }
    }
}

impl Checkpoint for NelderMead {
    fn save_state(&self, w: &mut StateWriter) {
        let s = &self.search;
        s.save_head(w, self.phase as u8);
        w.points(&s.queue);
        w.f64_slice(&s.got);
        match &self.reflected {
            Some((p, v)) => {
                w.bool(true);
                w.point(p);
                w.f64(*v);
            }
            None => w.bool(false),
        }
        s.save_tail(w);
    }

    /// Restores a saved state, checking all of it before assigning any:
    /// inadmissible points, non-finite values, or a queue or value count
    /// that does not fit the phase are rejected with `BadValue`.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        let s = &self.search;
        let head = s.read_head(r, &PHASES)?;
        let phase = head.phase;
        let queue = r.points()?;
        let got = r.f64_vec()?;
        let reflected = if r.bool()? {
            Some((r.point()?, r.f64()?))
        } else {
            None
        };
        let tail = s.read_tail(r, phase == Phase::Done)?;
        let m = head.simplex.len();
        check_admissible(s.space(), "queued point", &queue)?;
        let queue_len = match phase {
            Phase::Init => m,
            Phase::Reflect | Phase::Expand | Phase::Contract => 1,
            Phase::Shrink => m - 1,
            Phase::Done => 0,
        };
        let reflected_ok = match &reflected {
            Some((p, v)) => s.space().is_admissible(p) && v.is_finite(),
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
        self.search.restore(head, queue, got, tail);
        self.phase = phase;
        self.reflected = reflected;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Incumbent, Optimizer, HISTORY_NEIGHBORS};
    use harmony_params::ParamDef;
    use harmony_surface::PerfDatabase;

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
        let init_len = opt.search.queue.len();
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
        // the trailing byte is the convergence flag, set exactly in Done
        let converged = |mut bytes: Vec<u8>| {
            *bytes.last_mut().expect("flag byte") = 1;
            bytes
        };
        let done = crafted_nm(&verts, &vals, 5, &[], &[], None);
        restore(&converged(done.clone())).unwrap();
        bad(&done, "Done without the convergence flag");
        bad(
            &converged(crafted_nm(&verts, &vals, 1, refl, &[], None)),
            "the convergence flag outside Done",
        );

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
