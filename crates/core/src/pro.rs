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

use crate::optimizer::{fill, read_tail, Incumbent, Optimizer, HISTORY_NEIGHBORS};
use harmony_params::init::{initial_simplex, InitialShape, DEFAULT_RELATIVE_SIZE};
use harmony_params::{ParamSpace, Point, Rounding, Simplex, StepKind};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::PerfDatabase;
use harmony_telemetry::{event, Field, Telemetry};
use std::ops::Range;

/// Rebuilds a simplex from checkpointed vertices.
pub(crate) fn simplex_from_vertices(verts: Vec<Point>) -> Result<Simplex, CodecError> {
    Simplex::new(verts).map_err(|e| CodecError::BadValue(format!("bad simplex: {e:?}")))
}

/// Rejects checkpointed `points` (named `what`) that are not all
/// admissible in `space`.
pub(crate) fn check_admissible(
    space: &ParamSpace,
    what: &str,
    points: &[Point],
) -> Result<(), CodecError> {
    match points.iter().find(|p| !space.is_admissible(p)) {
        Some(p) => Err(CodecError::BadValue(format!("inadmissible {what} {p:?}"))),
        None => Ok(()),
    }
}

/// Rejects a checkpointed simplex value vector that has not one finite
/// value per vertex, or (before the initial vertices are measured, when
/// `init`) any value at all.
pub(crate) fn check_values(values: &[f64], vertices: usize, init: bool) -> Result<(), CodecError> {
    let expected = if init { 0 } else { vertices };
    if values.len() != expected || values.iter().any(|v| !v.is_finite()) {
        return Err(CodecError::BadValue(format!(
            "{} simplex values {values:?} for {vertices} vertices",
            values.len()
        )));
    }
    Ok(())
}

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
    /// Chebyshev diameter below which the simplex counts as collapsed
    /// (exact 0 is reached on discrete lattices).
    pub collapse_tol: f64,
    /// Relative neighbour step for continuous parameters in the
    /// stopping-criterion probe.
    pub probe_eps: f64,
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
            collapse_tol: 1e-9,
            probe_eps: 0.01,
            continuous: false,
        }
    }
}

/// Which batch the optimizer is waiting on.
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
    space: ParamSpace,
    cfg: ProConfig,
    simplex: Simplex,
    values: Vec<f64>,
    state: State,
    pending: Vec<Point>,
    /// The successful reflection set and its values, live in
    /// [`State::ExpandCheck`] and [`State::Expand`]. The buffer is
    /// swapped with `pending`, never copied.
    reflections: Vec<Point>,
    reflection_vals: Vec<f64>,
    incumbent: Incumbent,
    history: PerfDatabase,
    iterations: usize,
    converged: bool,
    /// Reused per-iteration buffers (sort order, sorted values) so
    /// steady-state iterations allocate nothing.
    scratch_order: Vec<usize>,
    scratch_vals: Vec<f64>,
    /// Telemetry handle (disabled by default); the driver owns the
    /// logical clock, PRO only emits spans and decision events.
    tel: Telemetry,
    /// Open `pro.iteration` span id (0 when none).
    iter_span: u64,
}

impl ProOptimizer {
    /// Creates PRO over `space` with the given configuration.
    pub fn new(space: ParamSpace, cfg: ProConfig) -> Self {
        let simplex =
            initial_simplex(&space, cfg.shape, cfg.relative_size).expect("valid initial simplex");
        // every buffer is sized once for the largest batch and simplex:
        // the initial vertices, or v⁰ plus its 2N probes
        let cap = simplex.len().max(2 * space.dims() + 1);
        let mut pending = Vec::with_capacity(cap);
        pending.extend_from_slice(simplex.vertices());
        let history = PerfDatabase::new(space.clone(), HISTORY_NEIGHBORS);
        ProOptimizer {
            space,
            cfg,
            simplex,
            values: Vec::with_capacity(cap),
            state: State::Init,
            pending,
            reflections: Vec::with_capacity(cap),
            reflection_vals: Vec::with_capacity(cap),
            incumbent: Incumbent::new(),
            history,
            iterations: 0,
            converged: false,
            scratch_order: Vec::with_capacity(cap),
            scratch_vals: Vec::with_capacity(cap),
            tel: Telemetry::disabled(),
            iter_span: 0,
        }
    }

    /// PRO with the paper's defaults (symmetric 2N simplex, `r = 0.2`,
    /// toward-center projection, expansion check on).
    pub fn with_defaults(space: ParamSpace) -> Self {
        ProOptimizer::new(space, ProConfig::default())
    }

    /// Completed simplex-transform iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
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
        self.tel = if tel.enabled() {
            tel
        } else {
            Telemetry::disabled()
        };
    }

    /// Closes any open iteration span and opens the next one.
    fn telemetry_iteration_boundary(&mut self) {
        if !self.tel.enabled() {
            return;
        }
        self.close_iter_span();
        self.iter_span = self.tel.span_open(
            "pro.iteration",
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

    /// Re-anchors the search: rebuilds the initial simplex around
    /// `center` and resets the state machine (the incumbent is kept).
    /// Used by the multi-start wrapper to explore a fresh region.
    ///
    /// # Panics
    /// Panics when `center` is inadmissible.
    pub fn recenter(&mut self, center: &Point) {
        self.simplex = harmony_params::init::initial_simplex_at(
            &self.space,
            self.cfg.shape,
            self.cfg.relative_size,
            center,
        )
        .expect("valid recentered simplex");
        self.values.clear();
        self.pending.clear();
        self.pending.extend_from_slice(self.simplex.vertices());
        self.state = State::Init;
        self.converged = false;
        self.close_iter_span();
        event!(
            self.tel,
            "pro.decision",
            action = "recenter",
            iter = self.iterations
        );
    }

    /// The current simplex (for diagnostics and tests).
    pub fn simplex(&self) -> &Simplex {
        &self.simplex
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProConfig {
        &self.cfg
    }

    /// Points in continuous-monitoring mode's probe batch ahead of the
    /// probes: `v⁰` itself.
    fn probe_lead(&self) -> usize {
        usize::from(self.cfg.continuous)
    }

    /// Refills the pending batch with the stopping-criterion batch: the
    /// 2N neighbour probes, preceded (in continuous-monitoring mode) by
    /// `v⁰` itself so the running configuration is re-measured with fresh
    /// noise instead of trusting a possibly extreme-value-lucky stored
    /// estimate. Returns false when `v⁰` has no neighbour to probe.
    fn refill_pending_probes(&mut self) -> bool {
        let v0 = self.simplex.vertex(0);
        self.pending.clear();
        if self.cfg.continuous {
            self.pending.push(v0.clone());
        }
        self.space
            .probe_points(v0, self.cfg.probe_eps, &mut self.pending);
        self.pending.len() > self.probe_lead()
    }

    /// Refills the pending batch with `Π(kind(vʲ))` around `v⁰` for the
    /// vertices `j ∈ sources`, through the fused step of
    /// [`ParamSpace::project_step`]: no heap allocation.
    fn refill_pending_transformed(&mut self, kind: StepKind, sources: Range<usize>) {
        let verts = self.simplex.vertices();
        self.pending.clear();
        self.space.project_step(
            kind,
            &verts[0],
            &verts[sources],
            self.cfg.rounding,
            &mut self.pending,
        );
    }

    /// The whole non-best vertex range `1..m`.
    fn non_best(&self) -> Range<usize> {
        1..self.simplex.len()
    }

    /// Sorts the simplex by value and decides the next phase: probe when
    /// collapsed, otherwise a parallel reflection step.
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
            if !self.refill_pending_probes() {
                event!(
                    self.tel,
                    "pro.decision",
                    action = "converged",
                    iter = self.iterations
                );
                self.close_iter_span();
                self.converged = true;
                self.state = State::Done;
                self.pending.clear();
            } else {
                event!(
                    self.tel,
                    "pro.decision",
                    action = "probe",
                    iter = self.iterations,
                    points = self.pending.len()
                );
                self.state = State::Probe;
            }
        } else {
            self.refill_pending_transformed(StepKind::Reflect, self.non_best());
            event!(
                self.tel,
                "pro.decision",
                action = "reflect",
                iter = self.iterations,
                points = self.pending.len(),
                best = self.values[0]
            );
            self.state = State::Reflect;
        }
    }

    /// Advances the state machine with a complete value vector for the
    /// pending batch (measured, or measured + interpolated substitutes
    /// from [`Optimizer::observe_partial`]). Every buffer is reused, so
    /// no state transition allocates.
    fn advance(&mut self, values: &[f64]) {
        let state = std::mem::replace(&mut self.state, State::Done);
        match state {
            State::Init => {
                self.values.clear();
                self.values.extend_from_slice(values);
                self.enter_iteration();
            }
            State::Reflect => {
                let l = argmin(values);
                if values[l] < self.values[0] {
                    // successful reflection: carry the set, then check or
                    // perform expansion
                    std::mem::swap(&mut self.pending, &mut self.reflections);
                    self.reflection_vals.clear();
                    self.reflection_vals.extend_from_slice(values);
                    if self.cfg.expansion_check {
                        // expansion of the source vertex whose reflection
                        // won: source of r^j is vertex j+1
                        self.refill_pending_transformed(StepKind::Expand, l + 1..l + 2);
                        event!(
                            self.tel,
                            "pro.decision",
                            action = "expand_check",
                            iter = self.iterations,
                            r_best = values[l]
                        );
                        self.state = State::ExpandCheck;
                    } else {
                        self.refill_pending_transformed(StepKind::Expand, self.non_best());
                        event!(
                            self.tel,
                            "pro.decision",
                            action = "expand_all",
                            iter = self.iterations,
                            r_best = values[l]
                        );
                        self.state = State::Expand;
                    }
                } else {
                    // failed reflection: shrink around the best vertex
                    self.refill_pending_transformed(StepKind::Shrink, self.non_best());
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "shrink",
                        iter = self.iterations,
                        best = self.values[0]
                    );
                    self.state = State::Shrink;
                }
            }
            State::ExpandCheck => {
                let e_val = values[0];
                let best_reflection = self
                    .reflection_vals
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                if e_val < best_reflection {
                    // commit the full parallel expansion step
                    self.refill_pending_transformed(StepKind::Expand, self.non_best());
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "expand_commit",
                        iter = self.iterations,
                        e_val = e_val
                    );
                    self.state = State::Expand;
                } else {
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "accept_reflections",
                        iter = self.iterations,
                        e_val = e_val
                    );
                    self.accept_reflections();
                }
            }
            State::Expand => {
                if self.cfg.expansion_check {
                    // Algorithm 2 accepts the expansion set unconditionally
                    // once the check point succeeded
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "accept_expansions",
                        iter = self.iterations
                    );
                    self.accept_pending(values);
                } else {
                    // ablation: pick the better of the two parallel sets
                    let best_e = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let best_r = self
                        .reflection_vals
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min);
                    let keep_expansions = best_e < best_r;
                    event!(
                        self.tel,
                        "pro.decision",
                        action = if keep_expansions {
                            "keep_expansions"
                        } else {
                            "keep_reflections"
                        },
                        iter = self.iterations
                    );
                    if keep_expansions {
                        self.accept_pending(values);
                    } else {
                        self.accept_reflections();
                    }
                }
            }
            State::Shrink => self.accept_pending(values),
            State::Probe => {
                // in continuous mode the first batch entry is a fresh
                // re-measurement of v0 itself; otherwise compare probes
                // against the stored estimate
                let lead = self.probe_lead();
                let baseline = if self.cfg.continuous {
                    values[0]
                } else {
                    self.values[0]
                };
                let probe_vals = &values[lead..];
                let l = argmin(probe_vals);
                if probe_vals[l] < baseline {
                    // a neighbour improves: continue with the probe
                    // simplex (v0 kept so the running point stays a
                    // vertex)
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "probe_improved",
                        iter = self.iterations,
                        found = probe_vals[l]
                    );
                    self.simplex.replace_tail(&self.pending[lead..]);
                    self.values.clear();
                    self.values.push(baseline);
                    self.values.extend_from_slice(probe_vals);
                    self.next_iteration();
                } else if self.cfg.continuous {
                    // keep monitoring: adopt the fresh estimate of v0 and
                    // re-probe the neighbourhood next phase
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "monitor",
                        iter = self.iterations,
                        baseline = baseline
                    );
                    for v in self.values.iter_mut() {
                        *v = baseline;
                    }
                    self.refill_pending_probes();
                    self.state = State::Probe;
                } else {
                    // v0 is a local minimum: stop (§3.2.2)
                    event!(
                        self.tel,
                        "pro.decision",
                        action = "converged",
                        iter = self.iterations
                    );
                    self.close_iter_span();
                    self.converged = true;
                    self.state = State::Done;
                    self.pending.clear();
                }
            }
            State::Done => panic!("observe called after convergence"),
        }
    }

    /// Accepts the pending batch with `values` as the new non-best
    /// vertices (indices `1..m`) and starts the next iteration; the
    /// emptied pending buffer is kept for it.
    fn accept_pending(&mut self, values: &[f64]) {
        debug_assert_eq!(self.pending.len(), self.simplex.len() - 1);
        for (j, (p, &v)) in self.pending.drain(..).zip(values).enumerate() {
            self.simplex.set_vertex(j + 1, p);
            self.values[j + 1] = v;
        }
        self.next_iteration();
    }

    /// Accepts the carried reflection set as the new non-best vertices.
    fn accept_reflections(&mut self) {
        std::mem::swap(&mut self.pending, &mut self.reflections);
        let vals = std::mem::take(&mut self.reflection_vals);
        self.accept_pending(&vals);
        self.reflection_vals = vals;
    }

    fn next_iteration(&mut self) {
        self.iterations += 1;
        self.enter_iteration();
    }
}

impl Checkpoint for ProOptimizer {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("pro");
        w.points(self.simplex.vertices());
        w.f64_slice(&self.values);
        let reflections = || {
            self.reflections
                .iter()
                .zip(self.reflection_vals.iter().copied())
        };
        match self.state {
            State::Init => w.u8(0),
            State::Reflect => w.u8(1),
            State::ExpandCheck => {
                w.u8(2);
                w.pairs(reflections());
            }
            State::Expand => {
                w.u8(3);
                w.pairs(reflections());
            }
            State::Shrink => w.u8(4),
            State::Probe => w.u8(5),
            State::Done => w.u8(6),
        }
        w.points(&self.pending);
        self.incumbent.save_state(w);
        self.history.save_state(w);
        w.usize(self.iterations);
        w.bool(self.converged);
    }

    /// Restores a saved state. A simplex with an inadmissible vertex or
    /// not one finite value per vertex, inadmissible pending or carried
    /// points, or a batch whose length does not fit the state are
    /// rejected with [`CodecError::BadValue`], so every vertex the fused
    /// step of [`ParamSpace::project_step`] reads is admissible.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("pro")?;
        let simplex = simplex_from_vertices(r.points()?)?;
        let values = r.f64_vec()?;
        let state_byte = r.u8()?;
        let (state, reflections) = match state_byte {
            0 => (State::Init, Vec::new()),
            1 => (State::Reflect, Vec::new()),
            2 => (State::ExpandCheck, r.pairs()?),
            3 => (State::Expand, r.pairs()?),
            4 => (State::Shrink, Vec::new()),
            5 => (State::Probe, Vec::new()),
            6 => (State::Done, Vec::new()),
            b => return Err(CodecError::BadValue(format!("bad pro state {b}"))),
        };
        let pending = r.points()?;
        let m = simplex.len();
        check_admissible(&self.space, "vertex", simplex.vertices())?;
        check_values(&values, m, matches!(state, State::Init))?;
        check_admissible(&self.space, "pending point", &pending)?;
        let (carried, carried_vals): (Vec<Point>, Vec<f64>) = reflections.into_iter().unzip();
        check_admissible(&self.space, "reflection", &carried)?;
        let batch_ok = match state {
            State::Init => pending.len() == m,
            State::Reflect | State::Shrink => pending.len() == m - 1,
            State::ExpandCheck => pending.len() == 1,
            State::Expand => pending.len() == m - 1,
            State::Probe => pending.len() > self.probe_lead(),
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
                "pro state {state_byte} with {} pending and {} carried points for {m} vertices",
                pending.len(),
                carried.len()
            )));
        }
        let (incumbent, history, iterations, converged) = read_tail(&self.space, r)?;
        self.incumbent = incumbent;
        self.history = history;
        self.iterations = iterations;
        self.converged = converged;
        self.simplex = simplex;
        self.values.clear();
        self.values.extend_from_slice(&values);
        self.state = state;
        self.pending.clear();
        self.pending.extend_from_slice(&pending);
        self.reflections.clear();
        self.reflections.extend_from_slice(&carried);
        self.reflection_vals.clear();
        self.reflection_vals.extend_from_slice(&carried_vals);
        // span bookkeeping belongs to the previous process's telemetry
        self.iter_span = 0;
        Ok(())
    }
}

impl Optimizer for ProOptimizer {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        if matches!(self.state, State::Done) {
            return Vec::new();
        }
        self.pending.clone()
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.pending.len(),
            "observe: expected {} values, got {}",
            self.pending.len(),
            values.len()
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "observe: non-finite objective value"
        );
        for (p, &v) in self.pending.iter().zip(values.iter()) {
            self.incumbent.offer(p, v);
            self.history.insert_replacing(p, v);
        }
        self.advance(values);
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        assert_eq!(
            values.len(),
            self.pending.len(),
            "observe_partial: expected {} values, got {}",
            self.pending.len(),
            values.len()
        );
        for (p, v) in self.pending.iter().zip(values.iter()) {
            if let Some(v) = *v {
                assert!(v.is_finite(), "observe_partial: non-finite objective value");
                self.incumbent.offer(p, v);
                self.history.insert_replacing(p, v);
            }
        }
        // measured entries are on record now, so the history has at
        // least one point (the driver's quorum rule guarantees ≥ 1 Some
        // per batch); synthetic fills are NOT recorded back
        let filled = fill(&self.history, &self.pending, values);
        self.advance(&filled);
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        // deploy the current best simplex vertex — what Active Harmony
        // actually sets the application's parameters to
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
        "pro"
    }

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        Some(self)
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
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
        restore(&crafted_pro(&verts, &vals, 6, &[], &[])).unwrap();

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
