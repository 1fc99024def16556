//! Timing wrappers attached from outside the library at its trait
//! seams: [`Objective`] (surface), [`NoiseModel`] (variability),
//! [`Optimizer`] (optimizer and the min-of-K reductions it receives)
//! and the telemetry [`Sink`]. Every wrapper delegates each call
//! unchanged, so a wrapped session's outcome is bit-identical to an
//! unwrapped one (checked by the benchmark's tests and on every traced
//! run).

use harmony_core::Optimizer;
use harmony_params::{ParamSpace, Point};
use harmony_recovery::Checkpoint;
use harmony_surface::Objective;
use harmony_telemetry::{Record, Sink};
use harmony_variability::noise::NoiseModel;
use rand::RngCore;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Observed noise values kept for the min-of-K replay.
const CAPTURE_SAMPLES: u64 = 30_000;
/// Distinct evaluated points kept for the shared-tier query replay.
const CAPTURE_POINTS: u64 = 4_096;

thread_local! {
    /// Set on the thread that drives a session (the server thread);
    /// client threads spawned by the server leave it unset.
    static SERVER_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a session's server thread.
pub fn mark_server_thread() {
    SERVER_THREAD.with(|d| d.set(true));
}

fn on_server_thread() -> bool {
    SERVER_THREAD.with(Cell::get)
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Shared counters of one traced round. All statistics, so `Relaxed`
/// ordering suffices: nothing else is published through them, and the
/// round's threads are joined before the counters are read.
#[derive(Default)]
pub struct Probe {
    /// Noise samples drawn.
    pub draws: AtomicU64,
    /// Nanoseconds inside `NoiseModel` calls.
    pub noise_ns: AtomicU64,
    /// Noise nanoseconds on client threads.
    pub client_noise_ns: AtomicU64,
    /// Noise calls on client threads: one per executed assignment.
    pub dispatches: AtomicU64,
    /// Objective evaluations.
    pub evals: AtomicU64,
    /// Nanoseconds inside `Objective::eval`.
    pub eval_ns: AtomicU64,
    /// Objective nanoseconds on server threads.
    pub server_eval_ns: AtomicU64,
    /// Telemetry records emitted.
    pub records: AtomicU64,
    /// Nanoseconds inside the telemetry sink.
    pub emit_ns: AtomicU64,
    /// Telemetry nanoseconds on server threads.
    pub server_emit_ns: AtomicU64,
    /// Observed noise values (bounded) for the reduce replay.
    pub samples: Mutex<Vec<f64>>,
    /// Evaluated points with their costs (bounded) for the query replay.
    pub points: Mutex<Vec<(Point, f64)>>,
}

/// [`Objective`] wrapper counting and timing every evaluation.
pub struct TimedObjective<'a, O: ?Sized> {
    /// Wrapped objective.
    pub inner: &'a O,
    /// Counters.
    pub probe: &'a Probe,
}

impl<O: Objective + ?Sized> Objective for TimedObjective<'_, O> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn eval(&self, x: &Point) -> f64 {
        let t0 = Instant::now();
        let v = self.inner.eval(x);
        let ns = ns_since(t0);
        let seen = self.probe.evals.fetch_add(1, Relaxed);
        self.probe.eval_ns.fetch_add(ns, Relaxed);
        if on_server_thread() {
            self.probe.server_eval_ns.fetch_add(ns, Relaxed);
        }
        if seen < CAPTURE_POINTS {
            let mut pts = self.probe.points.lock().expect("probe capture poisoned");
            pts.push((x.clone(), v));
        }
        v
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// [`NoiseModel`] wrapper counting and timing every draw.
pub struct TimedNoise<'a, M: ?Sized> {
    /// Wrapped noise model.
    pub inner: &'a M,
    /// Counters.
    pub probe: &'a Probe,
}

impl<M: NoiseModel + ?Sized> TimedNoise<'_, M> {
    fn account(&self, t0: Instant, n: u64, values: &[f64]) {
        let ns = ns_since(t0);
        let seen = self.probe.draws.fetch_add(n, Relaxed);
        self.probe.noise_ns.fetch_add(ns, Relaxed);
        if !on_server_thread() {
            self.probe.client_noise_ns.fetch_add(ns, Relaxed);
            self.probe.dispatches.fetch_add(1, Relaxed);
        }
        if seen < CAPTURE_SAMPLES {
            let mut s = self.probe.samples.lock().expect("probe capture poisoned");
            s.extend_from_slice(values);
        }
    }
}

impl<M: NoiseModel + ?Sized> NoiseModel for TimedNoise<'_, M> {
    fn rho(&self) -> f64 {
        self.inner.rho()
    }

    fn observe(&self, f_v: f64, rng: &mut dyn RngCore) -> f64 {
        let t0 = Instant::now();
        let v = self.inner.observe(f_v, rng);
        self.account(t0, 1, &[v]);
        v
    }

    fn observe_n(&self, f_v: f64, rng: &mut dyn RngCore, out: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.observe_n(f_v, rng, out);
        self.account(t0, out.len() as u64, out);
    }

    fn expected(&self, f_v: f64) -> f64 {
        self.inner.expected(f_v)
    }

    fn n_min(&self, f_v: f64) -> f64 {
        self.inner.n_min(f_v)
    }

    fn is_heavy_tailed(&self) -> bool {
        self.inner.is_heavy_tailed()
    }
}

/// Per-session optimizer timings. Always on: besides the per-layer
/// numbers it stamps every `observe`, which is how the end-to-end
/// `band_p50_ms` is read against the outcome's quality curve.
#[derive(Debug, Default, Clone)]
pub struct OptTimes {
    /// Batches observed (complete or partial).
    pub batches: u64,
    /// Estimates delivered: one min-of-K reduction each.
    pub reduces: u64,
    /// Nanoseconds in `propose`.
    pub propose_ns: u64,
    /// Nanoseconds in `observe`/`observe_partial`.
    pub observe_ns: u64,
    /// When each `observe` returned.
    pub marks: Vec<Instant>,
}

/// [`Optimizer`] wrapper timing `propose`/`observe` and stamping each
/// observation. Checkpointing and every query delegate unchanged.
pub struct TimedOptimizer<'a> {
    /// Wrapped optimizer.
    pub inner: &'a mut dyn Optimizer,
    /// Collected timings.
    pub times: OptTimes,
}

impl<'a> TimedOptimizer<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Optimizer) -> Self {
        TimedOptimizer {
            inner,
            times: OptTimes::default(),
        }
    }

    fn after_observe(&mut self, t0: Instant, reduces: usize) {
        let now = Instant::now();
        self.times.observe_ns += (now - t0).as_nanos() as u64;
        self.times.batches += 1;
        self.times.reduces += reduces as u64;
        self.times.marks.push(now);
    }
}

impl Optimizer for TimedOptimizer<'_> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn propose(&mut self) -> Vec<Point> {
        let t0 = Instant::now();
        let batch = self.inner.propose();
        self.times.propose_ns += ns_since(t0);
        batch
    }

    fn observe(&mut self, values: &[f64]) {
        let t0 = Instant::now();
        self.inner.observe(values);
        self.after_observe(t0, values.len());
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        let t0 = Instant::now();
        self.inner.observe_partial(values);
        self.after_observe(t0, values.iter().flatten().count());
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

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        self.inner.as_checkpoint()
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        self.inner.as_checkpoint_mut()
    }
}

/// Telemetry [`Sink`] wrapper counting and timing every record handed
/// to the inner sink.
pub struct TimedSink<S> {
    /// Wrapped sink.
    pub inner: S,
    /// Counters.
    pub probe: Arc<Probe>,
}

impl<S: Sink> Sink for TimedSink<S> {
    fn record(&self, record: Record) {
        let t0 = Instant::now();
        self.inner.record(record);
        let ns = ns_since(t0);
        self.probe.records.fetch_add(1, Relaxed);
        self.probe.emit_ns.fetch_add(ns, Relaxed);
        if on_server_thread() {
            self.probe.server_emit_ns.fetch_add(ns, Relaxed);
        }
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

/// Time from `start` until the deployed configuration's true cost first
/// fell to `threshold`: the `k`-th quality-curve entry is pushed right
/// after the `k`-th observation, so it is matched with the `k`-th mark.
/// `None` when the band was never reached or the curve and the marks
/// disagree in length.
pub fn time_to_band(
    start: Instant,
    marks: &[Instant],
    quality_curve: &[(usize, f64)],
    threshold: f64,
) -> Option<f64> {
    if marks.len() != quality_curve.len() {
        return None;
    }
    let k = quality_curve.iter().position(|(_, q)| *q <= threshold)?;
    Some((marks[k] - start).as_secs_f64())
}
