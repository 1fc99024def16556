//! Parallel Rank Ordering (Algorithm 2 of the paper).
//!
//! PRO maintains a simplex of `m` vertices (the paper recommends the
//! symmetric `2N`-vertex simplex, §3.2.3). Each iteration:
//!
//! 1. **Reflection step** — reorder so `f(v⁰) ≤ … ≤ f(vⁿ)`, then
//!    evaluate all `n` reflections `rʲ = Π(2v⁰ − vʲ)` *in parallel*.
//! 2. If the best reflection beats `f(v⁰)`: **expansion check** —
//!    evaluate the single most promising expansion
//!    `e = Π(3v⁰ − 2vˡ)`, `l = argmin f(rʲ)`. The paper does this
//!    deliberately instead of expanding everything at once: "there are
//!    some expansion points with very poor performance that can slow
//!    down the algorithm", and on a barrier-synchronised cluster one bad
//!    evaluation stalls everyone.
//! 3. If the check succeeds, the **expansion step** evaluates all
//!    `eʲ = Π(3v⁰ − 2vʲ)` in parallel and accepts them; otherwise the
//!    reflected points are accepted.
//! 4. If no reflection beats `f(v⁰)`, the simplex **shrinks** around the
//!    best vertex: `vʲ ← Π(½(v⁰ + vʲ))`.
//!
//! Reflection/expansion are accepted only when they beat the *best*
//! point found so far — stricter than Nelder–Mead's "better than the
//! worst vertex" rule, and the reason PRO is in the GSS class with
//! guaranteed convergence behaviour (§3.2, Kolda et al.).
//!
//! When every vertex collapses onto `v⁰` (exactly, for discrete
//! parameters — the toward-center projection guarantees this happens in
//! finitely many shrinks), the **stopping criterion** (§3.2.2) probes the
//! `2N` lattice neighbours of `v⁰`; if none improves, `v⁰` is a local
//! minimum and the search stops, otherwise PRO continues with the probe
//! simplex (we keep `v⁰` in it so the incumbent stays a vertex).
//!
//! The ranking, the stopping probe, the bookkeeping and the checkpoint
//! frame are the simplex-search core PRO shares with SRO and
//! Nelder–Mead; this module holds PRO's phase decisions, each batch
//! proposed whole.

use crate::search::{check_admissible, decision, Method, Names, Search};
use harmony_params::init::{initial_simplex_at, InitialShape, DEFAULT_RELATIVE_SIZE};
use harmony_params::{ParamSpace, Point, Rounding, Simplex, StepKind};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_telemetry::Telemetry;
use std::ops::Range;

/// Tunable knobs of the PRO algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProConfig {
    /// Initial simplex shape; the paper finds [`InitialShape::Symmetric`]
    /// ("2N vertices") much better on discrete problems (Fig. 9).
    pub shape: InitialShape,
    /// Initial simplex relative size `r` (§3.2.3; default 0.2).
    pub relative_size: f64,
    /// Projection rounding rule; [`Rounding::TowardCenter`] is the
    /// paper's operator, plain nearest is the ablation alternative.
    pub rounding: Rounding,
    /// When true (Algorithm 2), probe the single most promising
    /// expansion point before committing the whole parallel expansion
    /// step; when false, evaluate all expansions immediately and keep
    /// whichever of {reflections, expansions} is better (ablation A1).
    pub expansion_check: bool,
    /// Continuous-monitoring mode: when the §3.2.2 stopping criterion
    /// finds no improving neighbour, do not stop — keep re-probing the
    /// neighbourhood every phase (the optimizer never reports
    /// convergence; the driver's step budget ends the session). This
    /// models an Active-Harmony deployment that keeps verifying the
    /// tuned point so it can react if conditions change, and is the
    /// reading of the §6 simulation under which `NTT(ρ=0)` is exactly
    /// linear in the sample count.
    pub continuous: bool,
}

impl Default for ProConfig {
    fn default() -> Self {
        ProConfig {
            shape: InitialShape::Symmetric,
            relative_size: DEFAULT_RELATIVE_SIZE,
            rounding: Rounding::TowardCenter,
            expansion_check: true,
            continuous: false,
        }
    }
}

/// Which batch the optimizer is waiting on, declared in checkpoint byte
/// order: `state as u8` is the byte, and [`STATES`] reads it back.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Waiting for the initial vertices' values.
    Init,
    /// Waiting for the `n` parallel reflections.
    Reflect,
    /// Waiting for the single expansion-check point; the reflected
    /// points and their values are carried in `reflections`.
    ExpandCheck,
    /// Waiting for the `n` parallel expansions; `reflections` holds the
    /// fallback set for the no-check ablation.
    Expand,
    /// Waiting for the `n` parallel shrink points.
    Shrink,
    /// Waiting for the stopping-criterion probe points.
    Probe,
    /// Search finished.
    Done,
}

const STATES: [State; 7] = [
    State::Init,
    State::Reflect,
    State::ExpandCheck,
    State::Expand,
    State::Shrink,
    State::Probe,
    State::Done,
];

/// The Parallel Rank Ordering optimizer.
///
/// # Example
///
/// The ask/tell loop — the caller owns evaluation:
///
/// ```
/// use harmony_core::{Optimizer, ProOptimizer};
/// use harmony_params::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new(vec![
///     ParamDef::integer("x", -20, 20, 1).unwrap(),
///     ParamDef::integer("y", -20, 20, 1).unwrap(),
/// ])
/// .unwrap();
/// let mut pro = ProOptimizer::with_defaults(space);
/// loop {
///     let batch = pro.propose();
///     if batch.is_empty() {
///         break; // converged
///     }
///     let values: Vec<f64> = batch.iter().map(|p| p[0] * p[0] + p[1] * p[1]).collect();
///     pro.observe(&values);
/// }
/// assert_eq!(pro.best().unwrap().0.as_slice(), &[0.0, 0.0]);
/// ```
pub struct ProOptimizer {
    cfg: ProConfig,
    search: Search,
    state: State,
    /// The successful reflection set and its values, live in
    /// [`State::ExpandCheck`] and [`State::Expand`]. The buffers are
    /// swapped with the search's queue, never copied.
    reflections: Vec<Point>,
    reflection_vals: Vec<f64>,
}

impl ProOptimizer {
    /// Creates PRO over `space` with the given configuration.
    pub fn new(space: ParamSpace, cfg: ProConfig) -> Self {
        let names = Names {
            name: "pro",
            tag: "pro",
            iteration: "pro.iteration",
            decision: "pro.decision",
        };
        let search = Search::new(names, space, cfg.shape, cfg.relative_size);
        // sized like the search's own batch buffers
        let cap = search.queue.capacity();
        ProOptimizer {
            cfg,
            search,
            state: State::Init,
            reflections: Vec::with_capacity(cap),
            reflection_vals: Vec::with_capacity(cap),
        }
    }

    /// PRO with the paper's defaults (symmetric 2N simplex, `r = 0.2`,
    /// toward-center projection, expansion check on).
    pub fn with_defaults(space: ParamSpace) -> Self {
        ProOptimizer::new(space, ProConfig::default())
    }

    /// Completed simplex-transform iterations.
    pub fn iterations(&self) -> usize {
        self.search.iterations
    }

    /// Attaches a telemetry handle: each iteration becomes a
    /// `pro.iteration` span (fields: iteration index, simplex size,
    /// best value) and every state-machine branch emits a
    /// `pro.decision` event. The handle's logical clock is driven by
    /// the caller (the tuning driver stamps it with the step index).
    ///
    /// A handle whose sink is disabled when attached (a `NullSink`) is
    /// kept as a detached handle, so each emit site on the per-batch path
    /// costs one branch instead of a call into the sink.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.search.set_telemetry(tel);
    }

    /// Re-anchors the search: rebuilds the initial simplex around
    /// `center` and resets the state machine (the incumbent and the
    /// measured history are kept; the history is compacted with
    /// [`harmony_surface::PerfDatabase::compact`]). Used to start a
    /// session from a warm-start center.
    ///
    /// # Panics
    /// Panics when `center` is inadmissible.
    pub fn recenter(&mut self, center: &Point) {
        let s = &mut self.search;
        s.simplex = initial_simplex_at(s.space(), self.cfg.shape, self.cfg.relative_size, center)
            .expect("valid recentered simplex");
        s.values.clear();
        s.queue.clear();
        s.queue.extend_from_slice(s.simplex.vertices());
        s.got.clear();
        self.state = State::Init;
        s.converged = false;
        // the new descent re-measures known ground: fold the history at
        // the boundary so those records append without growing it
        s.history.compact();
        s.close_span();
        decision!(s, "recenter");
    }

    /// The current simplex (for diagnostics and tests).
    pub fn simplex(&self) -> &Simplex {
        &self.search.simplex
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProConfig {
        &self.cfg
    }

    /// Queues `Π(kind(vʲ))` around `v⁰` for the vertices `j ∈ sources`.
    fn queue_step(&mut self, kind: StepKind, sources: Range<usize>) {
        self.search.queue_step(kind, sources, self.cfg.rounding);
    }

    /// Ranks the simplex and decides the next phase: probe when
    /// collapsed (in continuous-monitoring mode the probe batch leads
    /// with `v⁰` itself, so the running configuration is re-measured
    /// with fresh noise instead of trusting a possibly extreme-value-lucky
    /// stored estimate), otherwise a parallel reflection step.
    fn enter_iteration(&mut self) {
        self.search.rank();
        if self.search.collapsed() {
            self.state = if self.search.probe_or_converge(self.cfg.continuous) {
                State::Probe
            } else {
                State::Done
            };
        } else {
            self.queue_step(StepKind::Reflect, self.search.non_best());
            let s = &self.search;
            decision!(s, "reflect", points = s.queue.len(), best = s.values[0]);
            self.state = State::Reflect;
        }
    }

    /// Accepts the carried reflection set as the new non-best vertices.
    fn accept_reflections(&mut self) {
        let s = &mut self.search;
        std::mem::swap(&mut s.queue, &mut self.reflections);
        std::mem::swap(&mut s.got, &mut self.reflection_vals);
        s.accept_queue();
        self.enter_iteration();
    }
}

impl Method for ProOptimizer {
    const ONE_AT_A_TIME: bool = false;

    fn search(&self) -> &Search {
        &self.search
    }

    fn search_mut(&mut self) -> &mut Search {
        &mut self.search
    }

    fn done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Advances the state machine with the complete value vector of the
    /// batch (measured, or measured + interpolated substitutes from
    /// [`crate::Optimizer::observe_partial`]). Every buffer is reused, so
    /// no state transition allocates.
    fn phase_complete(&mut self) {
        let state = std::mem::replace(&mut self.state, State::Done);
        let s = &mut self.search;
        match state {
            State::Init => {
                s.accept_initial();
                self.enter_iteration();
            }
            State::Reflect => {
                let l = argmin(&s.got);
                let r_best = s.got[l];
                if r_best < s.values[0] {
                    // successful reflection: carry the set, then check or
                    // perform expansion
                    std::mem::swap(&mut s.queue, &mut self.reflections);
                    self.reflection_vals.clear();
                    self.reflection_vals.extend_from_slice(&s.got);
                    if self.cfg.expansion_check {
                        // expansion of the source vertex whose reflection
                        // won: source of r^j is vertex j+1
                        self.queue_step(StepKind::Expand, l + 1..l + 2);
                        decision!(self.search, "expand_check", r_best = r_best);
                        self.state = State::ExpandCheck;
                    } else {
                        self.queue_step(StepKind::Expand, self.search.non_best());
                        decision!(self.search, "expand_all", r_best = r_best);
                        self.state = State::Expand;
                    }
                } else {
                    // failed reflection: shrink around the best vertex
                    self.queue_step(StepKind::Shrink, self.search.non_best());
                    decision!(self.search, "shrink", best = self.search.values[0]);
                    self.state = State::Shrink;
                }
            }
            State::ExpandCheck => {
                let e_val = s.got[0];
                if e_val < min(&self.reflection_vals) {
                    // commit the full parallel expansion step
                    self.queue_step(StepKind::Expand, self.search.non_best());
                    decision!(self.search, "expand_commit", e_val = e_val);
                    self.state = State::Expand;
                } else {
                    decision!(s, "accept_reflections", e_val = e_val);
                    self.accept_reflections();
                }
            }
            State::Expand => {
                // Algorithm 2 accepts the expansion set unconditionally
                // once the check point succeeded; the ablation picks the
                // better of the two parallel sets
                let keep_expansions =
                    self.cfg.expansion_check || min(&s.got) < min(&self.reflection_vals);
                let action = match (self.cfg.expansion_check, keep_expansions) {
                    (true, _) => "accept_expansions",
                    (false, true) => "keep_expansions",
                    (false, false) => "keep_reflections",
                };
                decision!(s, action);
                if keep_expansions {
                    s.accept_queue();
                    self.enter_iteration();
                } else {
                    self.accept_reflections();
                }
            }
            State::Shrink => {
                s.accept_queue();
                self.enter_iteration();
            }
            State::Probe => {
                // in continuous mode the first batch entry is a fresh
                // re-measurement of v0 itself; otherwise compare probes
                // against the stored estimate
                let continuous = self.cfg.continuous;
                let baseline = if continuous { s.got[0] } else { s.values[0] };
                if s.probe_improved(usize::from(continuous), baseline) {
                    self.enter_iteration();
                } else if continuous {
                    // keep monitoring: adopt the fresh estimate of v0 and
                    // re-probe the neighbourhood next phase
                    decision!(s, "monitor", baseline = baseline);
                    s.values.fill(baseline);
                    s.queue_probes(true);
                    self.state = State::Probe;
                } else {
                    s.queue.clear();
                    s.got.clear();
                    s.converge();
                }
            }
            State::Done => panic!("observe called after convergence"),
        }
    }
}

impl Checkpoint for ProOptimizer {
    fn save_state(&self, w: &mut StateWriter) {
        let s = &self.search;
        s.save_head(w, self.state as u8);
        if matches!(self.state, State::ExpandCheck | State::Expand) {
            w.pairs(
                self.reflections
                    .iter()
                    .zip(self.reflection_vals.iter().copied()),
            );
        }
        w.points(&s.queue);
        s.save_tail(w);
    }

    /// Restores a saved state. A simplex with an inadmissible vertex or
    /// not one finite value per vertex, inadmissible pending or carried
    /// points, or a batch whose length does not fit the state are
    /// rejected with [`CodecError::BadValue`], so every vertex the fused
    /// step of [`ParamSpace::project_step`] reads is admissible.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        let s = &self.search;
        let head = s.read_head(r, &STATES)?;
        let state = head.phase;
        let reflections = match state {
            State::ExpandCheck | State::Expand => r.pairs()?,
            _ => Vec::new(),
        };
        let pending = r.points()?;
        let m = head.simplex.len();
        check_admissible(s.space(), "pending point", &pending)?;
        let (carried, carried_vals): (Vec<Point>, Vec<f64>) = reflections.into_iter().unzip();
        check_admissible(s.space(), "reflection", &carried)?;
        let batch_ok = match state {
            State::Init => pending.len() == m,
            State::Reflect | State::Shrink | State::Expand => pending.len() == m - 1,
            State::ExpandCheck => pending.len() == 1,
            State::Probe => pending.len() > usize::from(self.cfg.continuous),
            State::Done => pending.is_empty(),
        };
        let carried_ok = match state {
            State::ExpandCheck | State::Expand => {
                carried.len() == m - 1 && carried_vals.iter().all(|v| v.is_finite())
            }
            _ => true,
        };
        if !batch_ok || !carried_ok {
            return Err(CodecError::BadValue(format!(
                "pro state {state:?} with {} pending and {} carried points for {m} vertices",
                pending.len(),
                carried.len()
            )));
        }
        let tail = s.read_tail(r, matches!(state, State::Done))?;
        self.search.restore(head, pending, Vec::new(), tail);
        self.state = state;
        self.reflections.clear();
        self.reflections.extend(carried);
        self.reflection_vals.clear();
        self.reflection_vals.extend_from_slice(&carried_vals);
        Ok(())
    }
}

fn argmin(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty batch")
        .0
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Incumbent, Optimizer, HISTORY_NEIGHBORS};
    use harmony_params::ParamDef;
    use harmony_surface::PerfDatabase;

    fn lattice_space(lo: i64, hi: i64) -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", lo, hi, 1).unwrap(),
            ParamDef::integer("y", lo, hi, 1).unwrap(),
        ])
        .unwrap()
    }

    /// Drives an optimizer against a deterministic objective until
    /// convergence or the budget runs out; returns evaluation count.
    fn drive<F: Fn(&Point) -> f64>(opt: &mut ProOptimizer, f: F, max_batches: usize) -> usize {
        let mut evals = 0;
        for _ in 0..max_batches {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            evals += batch.len();
            let vals: Vec<f64> = batch.iter().map(&f).collect();
            opt.observe(&vals);
        }
        evals
    }

    #[test]
    fn converges_to_global_min_of_bowl() {
        let space = lattice_space(-50, 50);
        let mut opt = ProOptimizer::with_defaults(space);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1] + 3.0, 500);
        assert!(opt.converged(), "did not converge");
        let (best, val) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[0.0, 0.0]);
        assert_eq!(val, 3.0);
    }

    #[test]
    fn converges_to_shifted_minimum() {
        let space = lattice_space(0, 100);
        let mut opt = ProOptimizer::with_defaults(space);
        drive(&mut opt, |p| (p[0] - 13.0).abs() + (p[1] - 77.0).abs(), 500);
        assert!(opt.converged());
        let (best, _) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[13.0, 77.0]);
    }

    #[test]
    fn all_proposals_are_admissible() {
        let space = ParamSpace::new(vec![
            ParamDef::integer("x", 0, 30, 3).unwrap(),
            ParamDef::levels("y", vec![1.0, 2.0, 5.0, 9.0]).unwrap(),
        ])
        .unwrap();
        let mut opt = ProOptimizer::with_defaults(space.clone());
        for _ in 0..200 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            for p in &batch {
                assert!(space.is_admissible(p), "inadmissible proposal {p:?}");
            }
            let vals: Vec<f64> = batch.iter().map(|p| (p[0] - 9.0).powi(2) + p[1]).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    fn expansion_path_taken_on_descending_plane() {
        // on a linear slope reflections always improve and expansions
        // improve further, so the first iterations must expand
        let space = lattice_space(-100, 100);
        let mut opt = ProOptimizer::with_defaults(space);
        // f decreasing in x+y: minimum at (100, 100) corner... use
        // negative slope toward corner
        drive(&mut opt, |p| 1000.0 - p[0] - p[1], 500);
        assert!(opt.converged());
        let (best, _) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[100.0, 100.0]);
    }

    #[test]
    fn probe_escapes_fake_convergence() {
        // Scripted oracle: force the simplex to collapse onto x = 3 while
        // the probe discovers the better neighbour x = 2, verifying the
        // §3.2.2 "continue PRO with the generated simplex" branch.
        let space = ParamSpace::new(vec![ParamDef::integer("x", 0, 4, 1).unwrap()]).unwrap();
        let cfg = ProConfig {
            relative_size: 0.5, // b = 1 -> initial simplex {3, 1}
            ..ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space, cfg);
        // (expected proposal, scripted values)
        let script: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![3.0, 1.0], vec![1.0, 2.0]), // init: v0 = 3
            (vec![4.0], vec![5.0]),           // reflect 2*3-1=5 -> clamp 4: fails
            (vec![2.0], vec![3.0]),           // shrink midpoint
            (vec![4.0], vec![6.0]),           // reflect 2*3-2=4: fails
            (vec![3.0], vec![1.1]),           // shrink collapses onto 3
            (vec![2.0, 4.0], vec![0.5, 7.0]), // probe: neighbour 2 improves!
            (vec![1.0, 0.0], vec![5.0, 5.0]), // continue: reflections fail
            (vec![2.0, 3.0], vec![0.6, 5.0]), // shrink
            (vec![2.0, 1.0], vec![5.0, 5.0]), // reflections fail again
            (vec![2.0, 2.0], vec![0.6, 0.6]), // shrink collapses onto 2
            (vec![1.0, 3.0], vec![9.0, 9.0]), // probe finds nothing: done
        ];
        for (i, (expect, answers)) in script.iter().enumerate() {
            let batch = opt.propose();
            let got: Vec<f64> = batch.iter().map(|p| p[0]).collect();
            assert_eq!(&got, expect, "step {i}");
            opt.observe(answers);
        }
        assert!(opt.converged());
        assert!(opt.propose().is_empty());
        let (best, val) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[2.0]);
        assert_eq!(val, 0.5);
    }

    #[test]
    fn converged_stops_proposing() {
        let space = lattice_space(-5, 5);
        let mut opt = ProOptimizer::with_defaults(space);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1], 500);
        assert!(opt.converged());
        assert!(opt.propose().is_empty());
    }

    #[test]
    fn no_expansion_check_still_converges() {
        let space = lattice_space(-30, 30);
        let cfg = ProConfig {
            expansion_check: false,
            ..ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space, cfg);
        drive(
            &mut opt,
            |p| (p[0] - 7.0).powi(2) + (p[1] + 4.0).powi(2),
            500,
        );
        assert!(opt.converged());
        let (best, _) = opt.best().unwrap();
        assert_eq!(best.as_slice(), &[7.0, -4.0]);
    }

    #[test]
    fn minimal_simplex_also_works() {
        let space = lattice_space(-30, 30);
        let cfg = ProConfig {
            shape: InitialShape::Minimal,
            ..ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space, cfg);
        drive(&mut opt, |p| p[0].abs() + p[1].abs(), 500);
        assert!(opt.converged());
        assert_eq!(opt.best().unwrap().0.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn nearest_rounding_ablation_converges() {
        let space = lattice_space(-30, 30);
        let cfg = ProConfig {
            rounding: Rounding::Nearest,
            ..ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space, cfg);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1], 2_000);
        // nearest rounding loses the guaranteed discrete collapse, but on
        // a bowl it still finds the optimum
        assert_eq!(opt.best().unwrap().0.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn deterministic_given_same_observations() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 3.0).powi(2) + (p[1] - 2.0).powi(2);
        let run = || {
            let mut opt = ProOptimizer::with_defaults(space.clone());
            let mut log = Vec::new();
            for _ in 0..100 {
                let batch = opt.propose();
                if batch.is_empty() {
                    break;
                }
                log.extend(batch.iter().map(|p| (p[0], p[1])));
                let vals: Vec<f64> = batch.iter().map(f).collect();
                opt.observe(&vals);
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn iteration_counter_advances() {
        let space = lattice_space(-20, 20);
        let mut opt = ProOptimizer::with_defaults(space);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1], 500);
        assert!(opt.iterations() > 1);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_observation_length_panics() {
        let space = lattice_space(-5, 5);
        let mut opt = ProOptimizer::with_defaults(space);
        let n = opt.propose().len();
        assert!(n > 1);
        opt.observe(&[1.0]);
    }

    #[test]
    fn handles_1d_space() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", -40, 40, 1).unwrap()]).unwrap();
        let mut opt = ProOptimizer::with_defaults(space);
        drive(&mut opt, |p| (p[0] - 11.0).powi(2), 500);
        assert!(opt.converged());
        assert_eq!(opt.best().unwrap().0.as_slice(), &[11.0]);
    }

    #[test]
    fn continuous_mode_never_converges_and_keeps_probing() {
        let space = lattice_space(-10, 10);
        let cfg = ProConfig {
            continuous: true,
            ..ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space, cfg);
        let f = |p: &Point| p[0] * p[0] + p[1] * p[1] + 1.0;
        for _ in 0..400 {
            let batch = opt.propose();
            assert!(!batch.is_empty(), "continuous mode must keep proposing");
            let vals: Vec<f64> = batch.iter().map(f).collect();
            opt.observe(&vals);
        }
        assert!(!opt.converged());
        // the recommendation still lands on the optimum
        let (rec, _) = opt.recommendation().unwrap();
        assert_eq!(rec.as_slice(), &[0.0, 0.0]);
        // and the steady state is the probe batch: v0 plus its neighbours
        let batch = opt.propose();
        assert_eq!(batch[0].as_slice(), &[0.0, 0.0]);
        assert!(batch.len() >= 3);
    }

    #[test]
    fn continuous_mode_refreshes_v0_estimate() {
        // feed a lucky-low value for v0 once; a later fresh re-measurement
        // must replace it (the stored estimate is not sticky)
        let space = ParamSpace::new(vec![ParamDef::integer("x", 0, 4, 1).unwrap()]).unwrap();
        let cfg = ProConfig {
            continuous: true,
            relative_size: 0.5,
            ..ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space, cfg);
        // init {3, 1}: give 3 a lucky low value
        opt.observe(&[0.1, 5.0]); // v0 = 3 @ 0.1
                                  // reflect [4]: bad
        opt.observe(&[9.0]);
        // shrink [2]: bad
        opt.observe(&[9.0]);
        // reflect [4]: bad -> shrink [3] collapses
        opt.observe(&[9.0]);
        opt.observe(&[0.2]);
        // probe batch = [3 (re-measured), 2, 4]
        let batch = opt.propose();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].as_slice(), &[3.0]);
        // fresh v0 measurement is 4.0 (the luck is gone); neighbour 2 now
        // looks better at 3.0 -> the search must move off the plateau
        opt.observe(&[4.0, 3.0, 9.0]);
        let (rec, val) = opt.recommendation().unwrap();
        assert_eq!(rec.as_slice(), &[2.0]);
        assert_eq!(val, 3.0);
    }

    #[test]
    fn observe_partial_complete_batch_matches_observe() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 3.0).powi(2) + (p[1] - 2.0).powi(2);
        let run = |partial: bool| {
            let mut opt = ProOptimizer::with_defaults(space.clone());
            let mut log = Vec::new();
            for _ in 0..100 {
                let batch = opt.propose();
                if batch.is_empty() {
                    break;
                }
                log.extend(batch.iter().map(|p| (p[0], p[1])));
                if partial {
                    let vals: Vec<Option<f64>> = batch.iter().map(|p| Some(f(p))).collect();
                    opt.observe_partial(&vals);
                } else {
                    let vals: Vec<f64> = batch.iter().map(f).collect();
                    opt.observe(&vals);
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn observe_partial_fills_holes_and_still_converges() {
        // drop every 5th estimate; the history interpolation substitute
        // must keep the state machine consistent and the search must
        // still land on the optimum of a smooth bowl
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 4.0).powi(2) + (p[1] + 6.0).powi(2);
        let mut opt = ProOptimizer::with_defaults(space);
        let mut k = 0usize;
        for _ in 0..500 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            let vals: Vec<Option<f64>> = batch
                .iter()
                .map(|p| {
                    k += 1;
                    // keep the very first (Init) batch fully measured so
                    // the history is primed before the first hole
                    if k.is_multiple_of(5) && k > batch.len() {
                        None
                    } else {
                        Some(f(p))
                    }
                })
                .collect();
            opt.observe_partial(&vals);
        }
        let (best, _) = opt.best().unwrap();
        // holes slow PRO down but must not break it; a bowl is easy
        // enough that it still finds the exact optimum
        assert_eq!(best.as_slice(), &[4.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "observe_partial: expected")]
    fn observe_partial_wrong_length_panics() {
        let space = lattice_space(-5, 5);
        let mut opt = ProOptimizer::with_defaults(space);
        let n = opt.propose().len();
        assert!(n > 1);
        opt.observe_partial(&[Some(1.0)]);
    }

    #[test]
    fn rugged_surface_reaches_good_local_minimum() {
        // multi-minimum surface: PRO is a local method; assert it ends
        // at *a* local minimum (no 4-neighbour improves)
        let space = lattice_space(-20, 20);
        let f = |p: &Point| {
            let (x, y) = (p[0], p[1]);
            x * x + y * y + 30.0 * ((0.9 * x).sin().powi(2) + (0.7 * y).sin().powi(2))
        };
        let mut opt = ProOptimizer::with_defaults(space.clone());
        drive(&mut opt, f, 2_000);
        assert!(opt.converged());
        let (best, val) = opt.best().unwrap();
        let mut probes = Vec::new();
        space.probe_points(&best, 0.01, &mut probes);
        for probe in probes {
            assert!(
                f(&probe) >= val,
                "probe {probe:?} ({}) beats best {best:?} ({val})",
                f(&probe)
            );
        }
    }

    /// Checkpoint bytes of a PRO over `lattice_space(-5, 5)` in state
    /// `state` (with `carried` as the reflection set of states 2 and 3),
    /// an empty incumbent and history.
    fn crafted_pro(
        verts: &[Point],
        values: &[f64],
        state: u8,
        carried: &[(Point, f64)],
        pending: &[Point],
    ) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.tag("pro");
        w.points(verts);
        w.f64_slice(values);
        w.u8(state);
        if matches!(state, 2 | 3) {
            w.pairs(carried.iter().map(|(p, v)| (p, *v)));
        }
        w.points(pending);
        Incumbent::new().save_state(&mut w);
        PerfDatabase::new(lattice_space(-5, 5), HISTORY_NEIGHBORS).save_state(&mut w);
        w.usize(3);
        w.bool(false);
        w.into_bytes()
    }

    fn pt(x: f64, y: f64) -> Point {
        Point::from(&[x, y][..])
    }

    #[test]
    fn restore_validates_crafted_checkpoints() {
        let verts = [pt(1.0, 0.0), pt(-1.0, 0.0), pt(0.0, 1.0), pt(0.0, -1.0)];
        let vals = [1.0, 2.0, 3.0, 4.0];
        let refl = [pt(-1.0, 0.0), pt(0.0, -1.0), pt(0.0, 1.0)];
        let carried: Vec<(Point, f64)> = refl.iter().map(|p| (p.clone(), 0.5)).collect();
        let off = pt(0.5, 0.0); // between two lattice points
        let restore = |bytes: &[u8]| {
            let mut opt = ProOptimizer::with_defaults(lattice_space(-5, 5));
            let before = opt.simplex().clone();
            let got = opt.restore_state(&mut StateReader::new(bytes).unwrap());
            if got.is_err() {
                assert_eq!(
                    opt.simplex(),
                    &before,
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
        // well-formed states restore
        for (state, pending) in [
            (1, &refl[..]),
            (2, &refl[..1]),
            (3, &refl[..]),
            (4, &refl[..]),
            (5, &refl[..2]),
        ] {
            restore(&crafted_pro(&verts, &vals, state, &carried, pending))
                .unwrap_or_else(|e| panic!("state {state}: {e:?}"));
        }
        restore(&crafted_pro(&verts, &[], 0, &[], &verts)).unwrap();
        // the trailing byte is the convergence flag, set exactly in Done
        let converged = |mut bytes: Vec<u8>| {
            *bytes.last_mut().expect("flag byte") = 1;
            bytes
        };
        restore(&converged(crafted_pro(&verts, &vals, 6, &[], &[]))).unwrap();
        bad(
            &crafted_pro(&verts, &vals, 6, &[], &[]),
            "Done without the convergence flag",
        );
        bad(
            &converged(crafted_pro(&verts, &vals, 1, &[], &refl)),
            "the convergence flag outside Done",
        );

        let mut off_vertex = verts.clone();
        off_vertex[2] = off.clone();
        bad(
            &crafted_pro(&off_vertex, &vals, 1, &[], &refl),
            "an inadmissible vertex",
        );
        let mut outside = verts.clone();
        outside[1] = pt(-6.0, 0.0);
        bad(
            &crafted_pro(&outside, &vals, 1, &[], &refl),
            "a vertex out of bounds",
        );
        bad(
            &crafted_pro(&verts, &vals[..3], 1, &[], &refl),
            "too few values",
        );
        bad(
            &crafted_pro(&verts, &[], 1, &[], &refl),
            "no values past Init",
        );
        bad(
            &crafted_pro(&verts, &vals, 0, &[], &verts),
            "values in Init",
        );
        let nan = [1.0, f64::NAN, 3.0, 4.0];
        bad(&crafted_pro(&verts, &nan, 1, &[], &refl), "a NaN value");
        let off_pending = [pt(-1.0, 0.0), off.clone(), pt(0.0, 1.0)];
        bad(
            &crafted_pro(&verts, &vals, 1, &[], &off_pending),
            "an inadmissible pending point",
        );
        bad(
            &crafted_pro(&verts, &vals, 1, &[], &refl[..2]),
            "a short reflect batch",
        );
        bad(
            &crafted_pro(&verts, &vals, 2, &carried, &refl),
            "a 3-point expansion check",
        );
        bad(
            &crafted_pro(&verts, &vals, 6, &[], &refl[..1]),
            "a pending batch after Done",
        );
        bad(
            &crafted_pro(&verts, &vals, 5, &[], &[]),
            "an empty probe batch",
        );
        let mut off_carried = carried.clone();
        off_carried[1].0 = off;
        bad(
            &crafted_pro(&verts, &vals, 2, &off_carried, &refl[..1]),
            "an inadmissible reflection",
        );
        bad(
            &crafted_pro(&verts, &vals, 3, &carried[..2], &refl),
            "a short reflection set",
        );
    }

    #[test]
    fn restored_state_resumes_like_the_original() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 3.0).powi(2) + (p[1] + 7.0).powi(2);
        let mut a = ProOptimizer::with_defaults(space.clone());
        let mut b = ProOptimizer::with_defaults(space);
        for step in 0..60 {
            // round-trip every state a session passes through
            let mut w = StateWriter::new();
            a.save_state(&mut w);
            let bytes = w.into_bytes();
            b.restore_state(&mut StateReader::new(&bytes).unwrap())
                .unwrap_or_else(|e| panic!("step {step}: {e:?}"));
            let batch = a.propose();
            assert_eq!(batch, b.propose(), "step {step}");
            if batch.is_empty() {
                break;
            }
            let vals: Vec<f64> = batch.iter().map(f).collect();
            a.observe(&vals);
        }
        assert!(a.converged());
    }

    #[test]
    fn failed_restores_leave_the_optimizer_unchanged() {
        use crate::optimizer::testing::{cut_restores_change_nothing, run};
        let space = || lattice_space(-5, 5);
        let mut src = ProOptimizer::with_defaults(space());
        run(&mut src, |p| (p[0] - 2.0).powi(2) + (p[1] + 1.0).powi(2), 6);
        let bytes = harmony_recovery::save_to_vec(&src);
        cut_restores_change_nothing(&bytes, || ProOptimizer::with_defaults(space()));
        cut_restores_change_nothing(&bytes, || {
            let mut opt = ProOptimizer::with_defaults(space());
            run(&mut opt, |p| p[0] + p[1] + 20.0, 3);
            opt
        });
    }
}
