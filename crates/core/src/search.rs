//! The skeleton of the §3 simplex searches: PRO, SRO and Nelder–Mead.
//!
//! All three rank a simplex by measured value and transform its non-best
//! vertices around the best one, and the two rank-ordering methods stop
//! by probing the `2N` neighbours of `v⁰` (§3.2.2). [`Search`] holds the
//! state they share and does what they do alike: the rank sort, the
//! iteration span, the stopping probe, recording measurements, and the
//! head and tail of their checkpoints. Each algorithm's own decisions
//! stay in its module, behind [`Method`]: a search queues the points of
//! its current phase, the one `Optimizer` implementation here proposes
//! them (all at once for PRO, one at a time for SRO and Nelder–Mead),
//! and once every queued point has a value the algorithm decides the
//! next phase. Lost reports are filled with [`fill`] over the measured
//! history.

use crate::optimizer::{fill, Incumbent, Optimizer, COLLAPSE_TOL, HISTORY_NEIGHBORS, PROBE_EPS};
use harmony_params::init::{initial_simplex, InitialShape};
use harmony_params::{ParamSpace, Point, Rounding, Simplex, StepKind};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::{Objective, PerfDatabase};
use harmony_telemetry::{Field, Telemetry};
use std::ops::Range;

/// Emits the decision event `$action` of the search `$s` at its current
/// iteration, followed by any further `key = value` fields.
macro_rules! decision {
    ($s:expr, $action:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let s: &$crate::search::Search = &$s;
        harmony_telemetry::event!(
            s.tel,
            s.names.decision,
            action = $action,
            iter = s.iterations
            $(, $key = $val)*
        );
    }};
}
pub(crate) use decision;

/// The names a search reports and checkpoints itself under.
pub(crate) struct Names {
    /// [`Optimizer::name`].
    pub name: &'static str,
    /// The checkpoint section tag.
    pub tag: &'static str,
    /// The iteration span.
    pub iteration: &'static str,
    /// The decision events.
    pub decision: &'static str,
}

/// What a simplex search keeps, whatever its algorithm.
pub(crate) struct Search {
    pub names: Names,
    pub simplex: Simplex,
    /// One value per vertex once the initial vertices are measured
    /// (empty before), in vertex order.
    pub values: Vec<f64>,
    /// The points of the current phase, and the values received for the
    /// first `got.len()` of them.
    pub queue: Vec<Point>,
    pub got: Vec<f64>,
    incumbent: Incumbent,
    /// Measured points; it also holds the one `ParamSpace` searched.
    pub history: PerfDatabase,
    /// Completed simplex-transform iterations.
    pub iterations: usize,
    pub converged: bool,
    /// Reused rank order, so ranking allocates nothing.
    order: Vec<usize>,
    /// Telemetry handle (disabled by default); the session stamps the
    /// logical clock, the search only emits spans and decision events.
    pub tel: Telemetry,
    /// Open iteration span id (0 when none).
    span: u64,
}

impl Search {
    /// A search over `space` from the initial simplex of `shape` and
    /// `relative_size`, whose queue holds the initial vertices.
    pub fn new(names: Names, space: ParamSpace, shape: InitialShape, relative_size: f64) -> Self {
        let simplex = initial_simplex(&space, shape, relative_size).expect("valid initial simplex");
        // every buffer is sized once for the largest batch and simplex:
        // the initial vertices, or v⁰ plus its 2N probes
        let cap = simplex.len().max(2 * space.dims() + 1);
        let mut queue = Vec::with_capacity(cap);
        queue.extend_from_slice(simplex.vertices());
        Search {
            names,
            simplex,
            values: Vec::with_capacity(cap),
            queue,
            got: Vec::with_capacity(cap),
            incumbent: Incumbent::new(),
            history: PerfDatabase::new(space, HISTORY_NEIGHBORS),
            iterations: 0,
            converged: false,
            order: Vec::with_capacity(cap),
            tel: Telemetry::disabled(),
            span: 0,
        }
    }

    pub fn space(&self) -> &ParamSpace {
        self.history.space()
    }

    /// Attaches a telemetry handle. A handle whose sink is disabled when
    /// attached (a `NullSink`) is kept as a detached handle, so each emit
    /// site on the per-batch path costs one branch instead of a call into
    /// the sink.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = if tel.enabled() {
            tel
        } else {
            Telemetry::disabled()
        };
    }

    /// The non-best vertex range `1..m`.
    pub fn non_best(&self) -> Range<usize> {
        1..self.simplex.len()
    }

    pub fn collapsed(&self) -> bool {
        self.simplex.collapsed(COLLAPSE_TOL)
    }

    /// Starts an iteration: sorts the simplex so that `f(v⁰) ≤ … ≤ f(vⁿ)`
    /// and opens its span (fields: iteration index, simplex size, best
    /// value), closing the previous one. It runs between phases, when
    /// `got` holds nothing still needed, so `got` is the sort's buffer and
    /// is left empty.
    pub fn rank(&mut self) {
        let order = &mut self.order;
        order.clear();
        order.extend(0..self.values.len());
        // total_cmp: a stray NaN estimate sorts above every finite value
        // instead of panicking mid-session
        let values = &self.values;
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        self.simplex.permute(order);
        self.got.clear();
        self.got.extend(order.iter().map(|&i| values[i]));
        std::mem::swap(&mut self.values, &mut self.got);
        self.got.clear();

        if self.tel.enabled() {
            self.close_span();
            self.span = self.tel.span_open(
                self.names.iteration,
                vec![
                    Field::new("iter", self.iterations),
                    Field::new("k", self.simplex.len()),
                    Field::new("best", self.values[0]),
                ],
            );
        }
    }

    pub fn close_span(&mut self) {
        if self.span != 0 {
            self.tel.span_close(self.span);
            self.span = 0;
        }
    }

    /// Queues `Π(kind(vʲ))` around `v⁰` for the vertices `j ∈ sources`,
    /// through the fused step of [`ParamSpace::project_step`]: no heap
    /// allocation.
    pub fn queue_step(&mut self, kind: StepKind, sources: Range<usize>, rounding: Rounding) {
        let verts = self.simplex.vertices();
        self.queue.clear();
        self.got.clear();
        self.history.space().project_step(
            kind,
            &verts[0],
            &verts[sources],
            rounding,
            &mut self.queue,
        );
    }

    /// Queues the stopping-criterion probes: the `2N` neighbours of `v⁰`,
    /// preceded by `v⁰` itself when `remeasure`.
    pub fn queue_probes(&mut self, remeasure: bool) {
        let v0 = self.simplex.vertex(0);
        self.queue.clear();
        self.got.clear();
        if remeasure {
            self.queue.push(v0.clone());
        }
        self.history
            .space()
            .probe_points(v0, PROBE_EPS, &mut self.queue);
    }

    /// Starts the §3.2.2 probe of a collapsed simplex and returns true, or
    /// converges, with an empty queue, when `v⁰` has no neighbour.
    pub fn probe_or_converge(&mut self, remeasure: bool) -> bool {
        self.queue_probes(remeasure);
        if self.queue.len() > usize::from(remeasure) {
            decision!(self, "probe", points = self.queue.len());
            true
        } else {
            self.queue.clear();
            self.converge();
            false
        }
    }

    /// Ends a probe whose neighbours are `queue[lead..]`: when the best
    /// of their values beats `baseline`, the search continues with the
    /// probe simplex (`v⁰`, valued `baseline`, kept so the incumbent stays
    /// a vertex), the iteration count advances, and this returns true.
    pub fn probe_improved(&mut self, lead: usize, baseline: f64) -> bool {
        let found = self.got[lead..]
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("non-empty probe set");
        let improved = found < baseline;
        if improved {
            decision!(self, "probe_improved", found = found);
            self.simplex.replace_tail(&self.queue[lead..]);
            self.values.clear();
            self.values.push(baseline);
            self.values.extend_from_slice(&self.got[lead..]);
            self.iterations += 1;
        }
        improved
    }

    /// Stops the search: `v⁰` is a local minimum.
    pub fn converge(&mut self) {
        decision!(self, "converged");
        self.close_span();
        self.converged = true;
    }

    /// Takes the measured initial vertices' values.
    pub fn accept_initial(&mut self) {
        self.values.clear();
        self.values.extend_from_slice(&self.got);
    }

    /// Moves the queued points and their values into the non-best
    /// vertices `1..m`, completing an iteration.
    pub fn accept_queue(&mut self) {
        debug_assert_eq!(self.queue.len(), self.simplex.len() - 1);
        for (j, (p, &v)) in self.queue.drain(..).zip(&self.got).enumerate() {
            self.simplex.set_vertex(j + 1, p);
            self.values[j + 1] = v;
        }
        self.iterations += 1;
    }

    /// The queued points not yet measured: all of them, or the next one
    /// when `one_at_a_time`.
    fn pending(&self, one_at_a_time: bool) -> Range<usize> {
        let start = self.got.len();
        let end = if one_at_a_time {
            (start + 1).min(self.queue.len())
        } else {
            self.queue.len()
        };
        start..end
    }

    fn record(&mut self, point: usize, value: f64) {
        let p = &self.queue[point];
        self.incumbent.offer(p, value);
        self.history.insert_replacing(p, value);
    }

    /// Takes measured `values` for the pending points, recording each in
    /// the incumbent and history; true when the phase is complete.
    fn observe(&mut self, one_at_a_time: bool, values: &[f64]) -> bool {
        let pending = self.pending(one_at_a_time);
        assert_eq!(
            values.len(),
            pending.len(),
            "observe: expected {} values, got {}",
            pending.len(),
            values.len()
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "observe: non-finite objective value"
        );
        for (i, &v) in pending.zip(values) {
            self.record(i, v);
        }
        self.got.extend_from_slice(values);
        self.got.len() == self.queue.len()
    }

    /// [`Search::observe`] with holes: measured entries are recorded, and
    /// each hole takes the [`fill`] of the history (synthetic values are
    /// not recorded back).
    fn observe_partial(&mut self, one_at_a_time: bool, values: &[Option<f64>]) -> bool {
        let pending = self.pending(one_at_a_time);
        assert_eq!(
            values.len(),
            pending.len(),
            "observe_partial: expected {} values, got {}",
            pending.len(),
            values.len()
        );
        for (i, v) in pending.clone().zip(values) {
            if let Some(v) = *v {
                assert!(v.is_finite(), "observe_partial: non-finite objective value");
                self.record(i, v);
            }
        }
        // measured entries are on record now, so the history has at
        // least one point whenever the batch measured one
        let filled = fill(&self.history, &self.queue[pending], values);
        self.got.extend_from_slice(&filled);
        self.got.len() == self.queue.len()
    }

    /// Writes the head of a checkpoint: tag, vertices, values and the
    /// algorithm's phase byte (0 before the initial vertices are
    /// measured).
    pub fn save_head(&self, w: &mut StateWriter, phase: u8) {
        w.tag(self.names.tag);
        w.points(self.simplex.vertices());
        w.f64_slice(&self.values);
        w.u8(phase);
    }

    /// Writes the tail of a checkpoint: incumbent, history, iteration
    /// count and convergence flag.
    pub fn save_tail(&self, w: &mut StateWriter) {
        self.incumbent.save_state(w);
        self.history.save_state(w);
        w.usize(self.iterations);
        w.bool(self.converged);
    }

    /// Reads a head written by [`Search::save_head`], whose phase byte
    /// indexes `phases`. An unknown phase, a simplex with an inadmissible
    /// vertex, or one without a finite value per vertex (none at all in
    /// phase 0) is rejected.
    pub fn read_head<P: Copy>(
        &self,
        r: &mut StateReader,
        phases: &[P],
    ) -> Result<Head<P>, CodecError> {
        r.tag(self.names.tag)?;
        let simplex = Simplex::new(r.points()?)
            .map_err(|e| CodecError::BadValue(format!("bad simplex: {e:?}")))?;
        let values = r.f64_vec()?;
        let byte = r.u8()?;
        let tag = self.names.tag;
        let phase = *phases
            .get(usize::from(byte))
            .ok_or_else(|| CodecError::BadValue(format!("bad {tag} phase {byte}")))?;
        check_admissible(self.space(), "vertex", simplex.vertices())?;
        let expected = if byte == 0 { 0 } else { simplex.len() };
        if values.len() != expected || values.iter().any(|v| !v.is_finite()) {
            return Err(CodecError::BadValue(format!(
                "{} simplex values {values:?} for {} vertices",
                values.len(),
                simplex.len()
            )));
        }
        Ok(Head {
            simplex,
            values,
            phase,
        })
    }

    /// Reads a tail written by [`Search::save_tail`] for a checkpoint
    /// whose phase is `done` or not; an inadmissible or non-finite
    /// incumbent, or a convergence flag that disagrees with `done`, is
    /// rejected.
    pub fn read_tail(&self, r: &mut StateReader, done: bool) -> Result<Tail, CodecError> {
        let mut incumbent = Incumbent::new();
        incumbent.restore_state(r)?;
        if let Some((p, v)) = incumbent.get() {
            if !self.space().is_admissible(&p) || !v.is_finite() {
                return Err(CodecError::BadValue(format!("bad incumbent {p:?} -> {v}")));
            }
        }
        let mut history = PerfDatabase::new(self.space().clone(), HISTORY_NEIGHBORS);
        history.restore_state(r)?;
        let iterations = r.usize()?;
        let converged = r.bool()?;
        // a search converges exactly when it enters its done phase
        if converged != done {
            return Err(CodecError::BadValue(format!(
                "convergence flag {converged} for a phase with done = {done}"
            )));
        }
        Ok(Tail {
            incumbent,
            history,
            iterations,
            converged,
        })
    }

    /// Takes over a decoded and checked checkpoint. It cannot fail, so a
    /// restore that decodes and checks everything first is atomic.
    pub fn restore<P>(&mut self, head: Head<P>, queue: Vec<Point>, got: Vec<f64>, tail: Tail) {
        self.simplex = head.simplex;
        self.values.clear();
        self.values.extend_from_slice(&head.values);
        self.queue.clear();
        self.queue.extend(queue);
        self.got.clear();
        self.got.extend_from_slice(&got);
        self.incumbent = tail.incumbent;
        self.history = tail.history;
        self.iterations = tail.iterations;
        self.converged = tail.converged;
        // span bookkeeping belongs to the previous process's telemetry
        self.span = 0;
    }
}

/// A decoded checkpoint head.
pub(crate) struct Head<P> {
    pub simplex: Simplex,
    pub values: Vec<f64>,
    pub phase: P,
}

/// A decoded checkpoint tail.
pub(crate) struct Tail {
    incumbent: Incumbent,
    history: PerfDatabase,
    iterations: usize,
    converged: bool,
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

/// An algorithm's part of a simplex search: its phases and what it
/// decides when one completes. Every `Method` is an [`Optimizer`].
pub(crate) trait Method: Checkpoint {
    /// True when the queued points are proposed one at a time (SRO,
    /// Nelder–Mead) rather than as one batch (PRO).
    const ONE_AT_A_TIME: bool;

    fn search(&self) -> &Search;

    fn search_mut(&mut self) -> &mut Search;

    /// True once the search has finished.
    fn done(&self) -> bool;

    /// Acts on a complete phase: every queued point has its value in
    /// `got`.
    fn phase_complete(&mut self);
}

impl<T: Method> Optimizer for T {
    fn space(&self) -> &ParamSpace {
        self.search().space()
    }

    fn propose(&mut self) -> Vec<Point> {
        if self.done() {
            return Vec::new();
        }
        let s = self.search();
        s.queue[s.pending(T::ONE_AT_A_TIME)].to_vec()
    }

    fn observe(&mut self, values: &[f64]) {
        if self.search_mut().observe(T::ONE_AT_A_TIME, values) {
            self.phase_complete();
        }
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        if self.search_mut().observe_partial(T::ONE_AT_A_TIME, values) {
            self.phase_complete();
        }
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.search().incumbent.get()
    }

    /// The current best simplex vertex — what Active Harmony actually
    /// sets the application's parameters to — once the initial vertices
    /// are measured.
    fn recommendation(&self) -> Option<(Point, f64)> {
        let s = self.search();
        if s.values.is_empty() {
            s.incumbent.get()
        } else {
            Some((s.simplex.vertex(0).clone(), s.values[0]))
        }
    }

    fn converged(&self) -> bool {
        self.search().converged
    }

    fn name(&self) -> &str {
        self.search().names.name
    }

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        Some(self)
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}
