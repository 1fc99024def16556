//! The on-line tuning driver: optimizer × objective × noise × cluster.
//!
//! [`OnlineTuner::run`] executes one complete tuning session the way the
//! paper's §6 simulations do: the application must run for (at least)
//! `K = max_steps` barrier-synchronised time steps; every time step runs
//! candidate configurations on the simulated cluster and contributes its
//! worst-case time `T_k` to `Total_Time(K)` (eq. 2). Once the optimizer
//! converges (or stops proposing), the remaining budget *exploits* the
//! incumbent — the tuned application simply keeps running with the best
//! parameters found.
//!
//! Multi-sample estimation (§5.2) is applied here: each proposed point
//! is measured `K` times according to the configured
//! [`Estimator`]/[`SamplingMode`] and only the reduced estimate reaches
//! the optimizer. The same loop runs adaptive-K sessions
//! ([`OnlineTuner::adaptive`], where an [`AdaptiveSampling`] policy picks
//! each batch's `K`) and non-stationary ones ([`OnlineTuner::run_phases`],
//! where the objective changes at given steps).

use crate::adaptive::AdaptiveSampling;
use crate::cache::CachedObjective;
use crate::optimizer::Optimizer;
use crate::sampling::Estimator;
use crate::server::ServerError;
use harmony_cluster::{Cluster, SamplingMode, TuningTrace};
use harmony_params::Point;
use harmony_surface::Objective;
use harmony_telemetry::{event, Field, Telemetry};
use harmony_variability::noise::NoiseModel;
use harmony_variability::seeded_rng;
use rand::RngCore;

/// The per-batch buffers of a session loop: true costs, the point-major
/// sample matrix, and the reduced estimates.
#[derive(Default)]
struct BatchScratch {
    costs: Vec<f64>,
    samples: Vec<f64>,
    estimates: Vec<f64>,
}

/// Configuration of a tuning session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Number of processors `P` in the simulated cluster.
    pub procs: usize,
    /// Time-step budget `K` of eq. 2 — the session reports
    /// `Total_Time(K)` over exactly this many steps.
    pub max_steps: usize,
    /// How raw observations reduce to the estimate fed to the optimizer.
    pub estimator: Estimator,
    /// How multi-sample evaluations are scheduled (§6.2 uses
    /// [`SamplingMode::SequentialSteps`] as the worst case).
    pub mode: SamplingMode,
    /// RNG seed; sessions are fully deterministic given the seed.
    pub seed: u64,
    /// When true, every time step occupies *all* `P` processors (idle
    /// processors rerun scheduled candidates — or the incumbent during
    /// the exploit phase — and only contribute to the barrier max of
    /// eq. 1). This is the physically faithful SPMD model; turning it
    /// off charges each step only its scheduled evaluations.
    pub full_occupancy: bool,
    /// Number of parallel instances of the tuned configuration that
    /// keep running after the optimizer stops (each exploit step costs
    /// the max of this many noise draws, eq. 1). The paper-sim value is
    /// `2N` — the converged simplex's identical vertices stay the points
    /// evaluated every step; using one value for *all* algorithms keeps
    /// cross-algorithm comparisons fair. Ignored (the full `P` is used)
    /// under `full_occupancy`.
    pub exploit_width: usize,
}

impl TunerConfig {
    /// The paper's §6 setup: 64 processors, sequential multi-sampling,
    /// full SPMD occupancy.
    pub fn paper_default(max_steps: usize, estimator: Estimator, seed: u64) -> Self {
        TunerConfig {
            procs: 64,
            max_steps,
            estimator,
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: true,
            exploit_width: 6,
        }
    }
}

/// Fault-handling counters of one tuning session. All zero on the
/// fault-free paths ([`OnlineTuner`] and a server session with a
/// fault-free plan); populated by
/// [`crate::server::run_session`] when faults fire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reports that missed their deadline (client hang, dropped report,
    /// or client death while running the assignment).
    pub missed_reports: usize,
    /// Assignments re-dispatched to a live client after a miss.
    pub retries: usize,
    /// Slots abandoned after exhausting their retry budget.
    pub abandoned_slots: usize,
    /// Clients permanently evicted after crashing.
    pub evicted_clients: usize,
    /// Batches advanced with `observe_partial` (quorum reached but some
    /// estimates missing).
    pub partial_batches: usize,
    /// Reports the fault plan delivered more than once; the extra copies
    /// are discarded by the `(batch, slot, attempt)` de-duplication rule.
    pub duplicate_reports: usize,
}

impl FaultStats {
    /// `true` when no counter fired — the session saw no fault handling.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// The record of one tuning session.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct TuningOutcome {
    /// Per-step worst-case times; at least `max_steps` long (the last
    /// algorithm batch may overshoot the budget slightly).
    pub trace: TuningTrace,
    /// The step budget `K` the session was charged for.
    pub steps_budget: usize,
    /// Best point found (by estimate).
    pub best_point: Point,
    /// The estimate that made it best.
    pub best_estimate: f64,
    /// The *true* (noise-free) cost of the best point — what the tuner
    /// actually delivered.
    pub best_true_cost: f64,
    /// Whether the optimizer's own stopping criterion fired.
    pub converged: bool,
    /// Total objective evaluations consumed (all samples).
    pub evaluations: usize,
    /// Quality-over-time: after every optimizer batch, `(steps_consumed,
    /// true cost of the configuration the optimizer would deploy)`. The
    /// last entry equals `best_true_cost` at the end of tuning.
    pub quality_curve: Vec<(usize, f64)>,
    /// Fault-handling counters (all zero on fault-free paths).
    pub faults: FaultStats,
}

impl TuningOutcome {
    /// `Total_Time(K)` — the sum of the first `K = steps_budget` step
    /// times (eq. 2).
    pub fn total_time(&self) -> f64 {
        self.trace
            .total_time_at(self.steps_budget.min(self.trace.len()))
    }

    /// Normalised total time `(1−ρ)·Total_Time` (eq. 23).
    pub fn ntt(&self, rho: f64) -> f64 {
        (1.0 - rho) * self.total_time()
    }

    /// First time step at which the deployed configuration's true cost
    /// dropped to `threshold` or below — the "time to quality" metric
    /// that complements `Total_Time` (a tuner can win eq. 2 while being
    /// slow to good configurations, Fig. 1). `None` when never reached.
    pub fn steps_to_quality(&self, threshold: f64) -> Option<usize> {
        self.quality_curve
            .iter()
            .find(|(_, q)| *q <= threshold)
            .map(|(s, _)| *s)
    }
}

/// Drives optimizers through complete on-line tuning sessions.
#[derive(Debug, Clone, Copy)]
pub struct OnlineTuner {
    cfg: TunerConfig,
    /// Per-batch adaptive sample counts in place of the fixed
    /// `cfg.estimator`/`cfg.mode` schedule.
    policy: Option<AdaptiveSampling>,
}

impl OnlineTuner {
    /// Creates a tuner.
    ///
    /// # Panics
    /// Panics when the budget or processor count is zero.
    pub fn new(cfg: TunerConfig) -> Self {
        assert!(cfg.procs > 0, "tuner needs processors");
        assert!(cfg.max_steps > 0, "tuner needs a positive step budget");
        OnlineTuner { cfg, policy: None }
    }

    /// Creates a tuner that picks each batch's sample count adaptively
    /// (the paper's §5.2 future work): every batch is sampled in rounds
    /// by [`AdaptiveSampling::sample_batch`] and the per-point minima
    /// reach the optimizer. `cfg.estimator` and `cfg.mode` are not read;
    /// every other field means what it does for [`OnlineTuner::new`].
    ///
    /// # Panics
    /// Panics when the budget or processor count is zero, or when the
    /// policy is invalid ([`AdaptiveSampling::validate`]).
    pub fn adaptive(cfg: TunerConfig, policy: AdaptiveSampling) -> Self {
        let tuner = OnlineTuner::new(cfg);
        policy.validate();
        OnlineTuner {
            policy: Some(policy),
            ..tuner
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TunerConfig {
        &self.cfg
    }

    /// Runs one tuning session to completion.
    ///
    /// The loop: propose → evaluate each point `K` times on the cluster
    /// (recording every consumed time step's `T_k`) → reduce → observe,
    /// until the optimizer converges or the budget is reached; the
    /// remaining steps run the incumbent once per step.
    ///
    /// # Errors
    /// [`ServerError::NoObservations`] when the optimizer never produced
    /// a recommendation (it proposed no batches at all).
    pub fn run<O, M>(
        &self,
        objective: &O,
        noise: &M,
        optimizer: &mut dyn Optimizer,
    ) -> Result<TuningOutcome, ServerError>
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        self.run_traced(objective, noise, optimizer, &Telemetry::disabled())
    }

    /// [`OnlineTuner::run`] with structured tracing: the session becomes
    /// a `tuner.session` span, every optimizer batch emits a
    /// `tuner.batch` event, and the exploit phase, objective memo (none
    /// over an exact table, see [`CachedObjective`]) and final
    /// [`TuningTrace`] metrics are exported at session end.
    ///
    /// The tuner *owns the logical clock*: it is set to the number of
    /// consumed time steps `trace.len()` at every batch boundary, so
    /// identical sessions produce byte-identical traces regardless of
    /// where or when they run. To also record per-iteration optimizer
    /// spans, hand the same handle to the optimizer (e.g.
    /// [`crate::ProOptimizer::set_telemetry`]) before calling this.
    pub fn run_traced<O, M>(
        &self,
        objective: &O,
        noise: &M,
        optimizer: &mut dyn Optimizer,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, ServerError>
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        let phases = [(0, CachedObjective::new(objective))];
        self.session(&phases, noise, optimizer, tel)
    }

    /// Runs one session against a *non-stationary* environment: the
    /// objective in force switches at the given step boundaries
    /// (`phases[i] = (start_step, objective)`, starts ascending, first
    /// start 0). The optimizer is **not** reset at boundaries — this is
    /// the scenario that motivates continuous monitoring
    /// (`ProConfig::continuous`): a stop-at-convergence tuner keeps
    /// exploiting a configuration that is no longer good, while a
    /// continuous tuner notices the regression through its re-probes and
    /// walks to the new optimum.
    ///
    /// The reported `best_*` fields refer to the *final* phase's
    /// objective.
    ///
    /// # Errors
    /// [`ServerError::NoObservations`] when the optimizer never produced
    /// a recommendation.
    ///
    /// # Panics
    /// Panics when `phases` is empty or the starts are not ascending
    /// from 0.
    pub fn run_phases<M>(
        &self,
        phases: &[(usize, &dyn Objective)],
        noise: &M,
        optimizer: &mut dyn Optimizer,
    ) -> Result<TuningOutcome, ServerError>
    where
        M: NoiseModel + ?Sized,
    {
        assert!(!phases.is_empty(), "need at least one phase");
        assert_eq!(phases[0].0, 0, "first phase must start at step 0");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase starts must be strictly ascending"
        );
        let cached: Vec<(usize, CachedObjective<'_, dyn Objective>)> = phases
            .iter()
            .map(|&(start, obj)| (start, CachedObjective::new(obj)))
            .collect();
        self.session(&cached, noise, optimizer, &Telemetry::disabled())
    }

    /// The one session loop behind [`OnlineTuner::run_traced`] and
    /// [`OnlineTuner::run_phases`]; a stationary session is a one-phase
    /// session.
    ///
    /// Objectives are deterministic (noise is applied by the cluster
    /// layer), so each phase memoizes its objective exactly — converged
    /// batches and the quality curve revisit the same points heavily —
    /// unless the objective is an exact table, which a memo would only
    /// slow down.
    fn session<O, M>(
        &self,
        phases: &[(usize, CachedObjective<'_, O>)],
        noise: &M,
        optimizer: &mut dyn Optimizer,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, ServerError>
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        let cluster = Cluster::new(self.cfg.procs);
        let mut rng = seeded_rng(self.cfg.seed);
        let mut trace = TuningTrace::with_capacity(self.cfg.max_steps);
        let mut evaluations = 0usize;
        let mut quality_curve: Vec<(usize, f64)> = Vec::new();
        let session = tel.enabled().then(|| {
            tel.set_clock(0);
            let k = self
                .policy
                .map_or(self.cfg.estimator.samples(), |p| p.max_k);
            tel.span_open(
                "tuner.session",
                vec![
                    Field::new("procs", self.cfg.procs),
                    Field::new("max_steps", self.cfg.max_steps),
                    Field::new("k", k),
                    Field::new("seed", self.cfg.seed),
                ],
            )
        });
        let mut batches = 0usize;
        let mut scratch = BatchScratch::default();
        // the phase in force; steps only grow, so it only moves forward
        let mut phase = 0usize;

        while trace.len() < self.cfg.max_steps && !optimizer.converged() {
            tel.set_clock(trace.len() as u64);
            let batch = optimizer.propose();
            if batch.is_empty() {
                break;
            }
            // the environment during this batch is the one in force at
            // its first step (batches are short relative to phases)
            phase = phase_at(phases, phase, trace.len());
            let (estimates, samples) = self.measure(
                &cluster,
                &phases[phase].1,
                &batch,
                noise,
                &mut rng,
                &mut trace,
                &mut scratch,
            );
            evaluations += batch.len() * samples;
            optimizer.observe(estimates);
            tel.set_clock(trace.len() as u64);
            event!(
                tel,
                "tuner.batch",
                batch = batches,
                points = batch.len(),
                steps = trace.len()
            );
            batches += 1;
            if let Some((rec, _)) = optimizer.recommendation() {
                phase = phase_at(phases, phase, trace.len().saturating_sub(1));
                quality_curve.push((trace.len(), phases[phase].1.eval(&rec)));
            }
        }

        // deploy what the algorithm recommends (its converged vertex),
        // not the luckiest raw observation — under heavy-tailed noise
        // the two can differ substantially
        let Some((best_point, best_estimate)) = optimizer.recommendation() else {
            if let Some(id) = session {
                tel.set_clock(trace.len() as u64);
                event!(tel, "tuner.failed", error = "no_observations");
                tel.span_close(id);
            }
            return Err(ServerError::NoObservations);
        };
        let last = phases.len() - 1;
        let best_true_cost = phases[last].1.eval(&best_point);

        // exploit: the application keeps running with the tuned
        // parameters for the rest of the budget. Under full occupancy
        // every processor runs it and the barrier waits for the slowest
        // of P draws; otherwise `exploit_width` parallel instances keep
        // running (the paper's simulation: the converged simplex's 2N
        // identical vertices stay the points evaluated each step).
        let width = if self.cfg.full_occupancy {
            self.cfg.procs
        } else {
            self.cfg.exploit_width.clamp(1, self.cfg.procs)
        };
        tel.set_clock(trace.len() as u64);
        let exploit_start = trace.len();
        // every exploit step runs `width` instances of the same cost and
        // keeps only the slowest, so each step is one `observe_max` into
        // the batches' sample buffer: the per-draw constants (eq. 17's β)
        // derive once per step, no step allocates, and Pareto noise
        // transforms only the draws that can hold the max. The uniform
        // stream and the max are exactly those of `width` `observe` calls
        // folded left to right with `f64::max`. The incumbent is
        // re-costed only when the phase changes.
        let exploit_obs = &mut scratch.samples;
        exploit_obs.clear();
        exploit_obs.resize(width, 0.0);
        let (mut cost_phase, mut cost) = (last, best_true_cost);
        while trace.len() < self.cfg.max_steps {
            phase = phase_at(phases, phase, trace.len());
            if phase != cost_phase {
                cost_phase = phase;
                cost = phases[phase].1.eval(&best_point);
            }
            trace
                .push(noise.observe_max(cost, &mut rng, exploit_obs))
                .expect("noise-model observations are finite and non-negative");
        }

        if let Some(id) = session {
            tel.set_clock(trace.len() as u64);
            event!(
                tel,
                "tuner.exploit",
                steps = trace.len() - exploit_start,
                cost = best_true_cost,
                width = width
            );
            event!(
                tel,
                "tuner.done",
                batches = batches,
                evaluations = evaluations,
                best = best_true_cost,
                converged = optimizer.converged()
            );
            for (_, objective) in phases {
                objective.emit_telemetry(tel);
            }
            trace.emit_telemetry(tel, None);
            tel.span_close(id);
        }

        Ok(TuningOutcome {
            trace,
            steps_budget: self.cfg.max_steps,
            best_point,
            best_estimate,
            best_true_cost,
            converged: optimizer.converged(),
            evaluations,
            quality_curve,
            faults: FaultStats::default(),
        })
    }

    /// Measures one batch: evaluates each point's true cost, samples it
    /// on `cluster` (appending every consumed step to `trace`) and
    /// reduces the samples, returning the estimates in batch order and
    /// the number of samples each point received. A fixed-K session runs
    /// `K` samples per point under the configured estimator and mode, an
    /// adaptive one runs its policy's rounds. Everything goes through
    /// `scratch`, so a session's batches share three buffers.
    #[allow(clippy::too_many_arguments)]
    fn measure<'s, O, M>(
        &self,
        cluster: &Cluster,
        objective: &O,
        batch: &[Point],
        noise: &M,
        rng: &mut dyn RngCore,
        trace: &mut TuningTrace,
        scratch: &'s mut BatchScratch,
    ) -> (&'s [f64], usize)
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        let BatchScratch {
            costs,
            samples,
            estimates,
        } = scratch;
        costs.clear();
        costs.extend(batch.iter().map(|p| objective.eval(p)));
        if let Some(policy) = &self.policy {
            let (mins, rounds) = policy.sample_batch(cluster, costs, noise, rng, trace);
            *estimates = mins;
            return (estimates, rounds);
        }
        let k = self.cfg.estimator.samples();
        cluster.run_batch_occupied(
            costs,
            k,
            self.cfg.mode,
            noise,
            rng,
            trace,
            self.cfg.full_occupancy,
            samples,
        );
        estimates.clear();
        estimates.extend(samples.chunks(k).map(|s| self.cfg.estimator.reduce(s)));
        (estimates, k)
    }
}

/// The index of the phase in force at `step`, searching forward from
/// `phase`.
fn phase_at<T>(phases: &[(usize, T)], mut phase: usize, step: usize) -> usize {
    while phase + 1 < phases.len() && phases[phase + 1].0 <= step {
        phase += 1;
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomSearch;
    use crate::pro::ProOptimizer;
    use harmony_params::{ParamDef, ParamSpace};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -20, 20, 1).unwrap(),
            ParamDef::integer("y", -20, 20, 1).unwrap(),
        ])
        .unwrap()
    }

    fn bowl() -> FnObjective<impl Fn(&Point) -> f64> {
        FnObjective::new("bowl", space(), |p| {
            2.0 + 0.05 * (p[0] * p[0] + p[1] * p[1])
        })
    }

    fn cfg(k: Estimator, steps: usize, seed: u64) -> TunerConfig {
        TunerConfig {
            procs: 64,
            max_steps: steps,
            estimator: k,
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: false,
            exploit_width: 6,
        }
    }

    #[test]
    fn noise_free_session_finds_optimum_and_fills_budget() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 100, 1));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        assert!(out.converged);
        assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
        assert_eq!(out.best_true_cost, 2.0);
        assert!(out.trace.len() >= 100);
        // exploit steps cost exactly the optimum under no noise
        let t = out.trace.step_times();
        assert_eq!(t[t.len() - 1], 2.0);
    }

    #[test]
    fn total_time_counts_exactly_k_steps() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 50, 2));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        let manual: f64 = out.trace.step_times()[..50].iter().sum();
        assert!((out.total_time() - manual).abs() < 1e-12);
        assert!((out.ntt(0.2) - 0.8 * out.total_time()).abs() < 1e-9);
    }

    #[test]
    fn multi_sampling_consumes_k_steps_per_batch() {
        // with no noise and sequential sampling, a session with K=3
        // costs ~3x the time steps per algorithm phase; Total_Time over
        // the same budget is therefore larger (the rho=0 line of Fig 10)
        let obj = bowl();
        let t1 = OnlineTuner::new(cfg(Estimator::Single, 60, 3))
            .run(
                &obj,
                &Noise::None,
                &mut ProOptimizer::with_defaults(space()),
            )
            .unwrap();
        let t3 = OnlineTuner::new(cfg(Estimator::MinOfK(3), 60, 3))
            .run(
                &obj,
                &Noise::None,
                &mut ProOptimizer::with_defaults(space()),
            )
            .unwrap();
        // same steps charged
        assert_eq!(t1.steps_budget, t3.steps_budget);
        // K=3 spends ~3x evaluations before converging
        assert!(t3.evaluations > 2 * t1.evaluations);
        // and wastes budget: total time no better
        assert!(t3.total_time() >= t1.total_time() * 0.99);
    }

    #[test]
    fn min_of_k_beats_single_under_heavy_noise() {
        // the core §5 claim, in miniature: with heavy-tailed noise,
        // min-of-3 estimates steer PRO to a better true cost than
        // single samples, averaged over replications
        let obj = bowl();
        let noise = Noise::Pareto {
            alpha: 1.7,
            rho: 0.35,
        };
        let reps = 30;
        let avg = |est: Estimator| -> f64 {
            (0..reps)
                .map(|r| {
                    let tuner = OnlineTuner::new(cfg(est, 120, 1000 + r));
                    let mut opt = ProOptimizer::with_defaults(space());
                    tuner.run(&obj, &noise, &mut opt).unwrap().best_true_cost
                })
                .sum::<f64>()
                / reps as f64
        };
        let single = avg(Estimator::Single);
        let min3 = avg(Estimator::MinOfK(3));
        assert!(min3 <= single + 0.05, "min3={min3} single={single}");
    }

    #[test]
    fn deterministic_given_seed() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let run = |seed| {
            let tuner = OnlineTuner::new(cfg(Estimator::MinOfK(2), 80, seed));
            let mut opt = ProOptimizer::with_defaults(space());
            tuner.run(&obj, &noise, &mut opt).unwrap().total_time()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn works_with_non_converging_optimizers() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 40, 4));
        let mut opt = RandomSearch::new(space(), 8, 4);
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        assert!(!out.converged);
        assert!(out.trace.len() >= 40);
        assert!(out.best_true_cost < 25.0);
    }

    #[test]
    fn quality_curve_tracks_descent() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 100, 1));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        assert!(!out.quality_curve.is_empty());
        // steps are non-decreasing; final quality equals the deployed cost
        assert!(out.quality_curve.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(out.quality_curve.last().unwrap().1, out.best_true_cost);
        // noise-free PRO descends: the last quality is the minimum
        let min_q = out
            .quality_curve
            .iter()
            .map(|(_, q)| *q)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_q, out.best_true_cost);
        // time-to-quality is monotone in the threshold
        let t_loose = out.steps_to_quality(10.0);
        let t_tight = out.steps_to_quality(2.0);
        assert!(t_loose.is_some() && t_tight.is_some());
        assert!(t_loose.unwrap() <= t_tight.unwrap());
        assert_eq!(out.steps_to_quality(0.5), None); // below the optimum
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_session() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let tuner = OnlineTuner::new(cfg(Estimator::MinOfK(2), 80, 7));

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = tuner.run(&obj, &noise, &mut plain_opt).unwrap();

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut traced_opt = ProOptimizer::with_defaults(space());
        traced_opt.set_telemetry(tel.clone());
        let traced = tuner
            .run_traced(&obj, &noise, &mut traced_opt, &tel)
            .unwrap();

        assert_eq!(plain, traced, "telemetry must not perturb the session");
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.span_count("tuner.session"), Some(1));
        assert!(summary.span_count("pro.iteration").unwrap() > 0);
        assert!(summary.event_count("tuner.batch").unwrap() > 0);
        assert_eq!(summary.event_count("tuner.done"), Some(1));
        assert_eq!(
            summary.counter_total("trace.steps"),
            Some(traced.trace.len() as u64)
        );
        assert!(summary.counter_total("cache.hits").unwrap() > 0);
    }

    #[test]
    #[should_panic(expected = "positive step budget")]
    fn zero_budget_rejected() {
        OnlineTuner::new(cfg(Estimator::Single, 0, 1));
    }

    #[test]
    fn phased_run_tracks_environment_shift() {
        // phase 1: optimum at (5, 5); phase 2: optimum at (-5, -5).
        // A continuous PRO must end near the *new* optimum.
        let obj_a = FnObjective::new("a", space(), |p| {
            2.0 + 0.05 * ((p[0] - 5.0).powi(2) + (p[1] - 5.0).powi(2))
        });
        let obj_b = FnObjective::new("b", space(), |p| {
            2.0 + 0.05 * ((p[0] + 5.0).powi(2) + (p[1] + 5.0).powi(2))
        });
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 600, 5));
        let pro_cfg = crate::pro::ProConfig {
            continuous: true,
            ..crate::pro::ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space(), pro_cfg);
        let out = tuner
            .run_phases(&[(0, &obj_a), (150, &obj_b)], &Noise::None, &mut opt)
            .unwrap();
        assert!(!out.converged);
        assert_eq!(out.best_point.as_slice(), &[-5.0, -5.0]);
        assert_eq!(out.best_true_cost, 2.0);
    }

    #[test]
    fn stop_at_convergence_misses_environment_shift() {
        // the control: the default (stopping) PRO converges in phase 1
        // and never notices phase 2
        let obj_a = FnObjective::new("a", space(), |p| {
            2.0 + 0.05 * ((p[0] - 5.0).powi(2) + (p[1] - 5.0).powi(2))
        });
        let obj_b = FnObjective::new("b", space(), |p| {
            2.0 + 0.05 * ((p[0] + 5.0).powi(2) + (p[1] + 5.0).powi(2))
        });
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 600, 5));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner
            .run_phases(&[(0, &obj_a), (150, &obj_b)], &Noise::None, &mut opt)
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.best_point.as_slice(), &[5.0, 5.0]); // stale!
        assert!(out.best_true_cost > 2.0);
    }

    #[test]
    fn one_phase_session_is_a_stationary_session() {
        let obj = bowl();
        let noise = Noise::paper_default(0.3);
        for seed in [1, 2, 3] {
            for est in [Estimator::Single, Estimator::MinOfK(3)] {
                for mode in [SamplingMode::SequentialSteps, SamplingMode::Packed] {
                    for full_occupancy in [false, true] {
                        let tuner = OnlineTuner::new(TunerConfig {
                            procs: 8,
                            mode,
                            full_occupancy,
                            ..cfg(est, 90, seed)
                        });
                        let mut a = ProOptimizer::with_defaults(space());
                        let plain = tuner.run(&obj, &noise, &mut a).unwrap();
                        let mut b = ProOptimizer::with_defaults(space());
                        let phased = tuner.run_phases(&[(0, &obj)], &noise, &mut b).unwrap();
                        let bits = |o: &TuningOutcome| -> Vec<u64> {
                            o.trace.step_times().iter().map(|t| t.to_bits()).collect()
                        };
                        assert_eq!(bits(&plain), bits(&phased));
                        assert_eq!(plain, phased);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "first phase must start at step 0")]
    fn phases_must_start_at_zero() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 10, 1));
        let mut opt = ProOptimizer::with_defaults(space());
        let _ = tuner.run_phases(
            &[(5, &obj as &dyn harmony_surface::Objective)],
            &Noise::None,
            &mut opt,
        );
    }
}
