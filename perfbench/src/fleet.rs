//! `shared_fleet`: T7-shaped sessions sharing one `SharedPerfDb` tier
//! pair. Sessions run `run_resilient_shared` with one client each
//! (so client threads in flight never exceed the worker count), warm
//! start through `warm_start_center`, use ρ = 0.1, min-of-3 and 60
//! steps, and run in waves of 8 via `par_waves_in`; both tiers flush at
//! every wave barrier. It is the only workload where shared-tier reads
//! (query, interpolate, warm-start scans) run beside writes (record,
//! flush) from concurrent sessions.

use crate::layers::{Layers, TracedSession};
use crate::probe::{
    mark_server_thread, time_to_band, OptTimes, Probe, TimedNoise, TimedObjective, TimedOptimizer,
};
use crate::{
    check_thread_budget, checked_digest, digest_words, drive, median, metric, timed_setups, Ctx,
    Digest, Report, RoundOutput, SessionSample,
};
use harmony_bench::experiments::multi_session::{K_NEIGHBORS, WAVE};
use harmony_bench::experiments::t8_surrogate::QUALITY_FACTOR;
use harmony_cluster::pool::par_waves_in;
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_resilient_shared, ServerConfig, SharedSession};
use harmony_core::{warm_start_center, Estimator, ProOptimizer, TuningOutcome};
use harmony_surface::{best_on_lattice, Gs2Model, Objective, SharedDbStats, SharedPerfDb};
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 1;
const STEPS: usize = 60;
const RHO: f64 = 0.1;
const SAMPLES: usize = 3;
/// Sessions per fleet (fresh tiers per fleet).
pub const FLEET: usize = 48;
/// Fleets per round, each with its own seed, so one round averages over
/// several fleets' warm-start and hit patterns.
pub const FLEETS: usize = 64;
const SETUPS: usize = 101;
const FLEET_SALT: u64 = 0x5F1E;

/// Everything built before the first timed fleet.
pub struct Setup {
    /// The objective.
    pub gs2: Gs2Model,
    /// The noise model.
    pub noise: Noise,
    /// Lattice optimum of the objective.
    pub optimum: f64,
    /// Concurrent sessions (pool workers).
    pub workers: usize,
}

/// One finished fleet session.
pub struct Session {
    /// Wall seconds, warm start included.
    pub wall_s: f64,
    /// The outcome, or the server's error text.
    pub result: Result<TuningOutcome, String>,
    /// The checked outcome digest, or why the session failed.
    pub checked: Result<u64, String>,
    /// Optimizer timings.
    pub times: OptTimes,
    /// Seconds to the 1.25× band, when reached.
    pub band_s: Option<f64>,
    /// Seconds in `warm_start_center`.
    pub warm_s: f64,
    /// The probe, on traced sessions.
    pub probe: Option<Arc<Probe>>,
}

/// One finished fleet.
pub struct Fleet {
    /// Sessions in index order.
    pub sessions: Vec<Session>,
    /// Cost-tier statistics after the final flush.
    pub costs: SharedDbStats,
    /// Estimate-tier statistics after the final flush.
    pub estimates: SharedDbStats,
    /// Digest of both tiers' canonical entries.
    pub tiers_digest: u64,
    /// Seconds in wave-barrier and final flushes.
    pub flush_s: f64,
    /// Cost-tier entries that differ from a fresh objective evaluation.
    pub wrong_entries: usize,
}

fn entries_digest(db: &SharedPerfDb) -> Digest {
    let mut d = Digest::default();
    for (p, v) in db.entries_canonical() {
        for x in p.iter() {
            d = d.f64(x);
        }
        d = d.f64(v);
    }
    d
}

/// Builds the objective, its lattice optimum and the worker count,
/// then runs one untimed warm-up session against throwaway tiers.
pub fn setup(nproc: usize) -> Setup {
    let gs2 = Gs2Model::paper_scale();
    let (_, optimum) = best_on_lattice(&gs2).expect("GS2 at paper scale is a lattice");
    let s = Setup {
        gs2,
        noise: Noise::paper_default(RHO),
        optimum,
        workers: nproc.min(WAVE),
    };
    let costs = SharedPerfDb::new(s.gs2.space().clone(), K_NEIGHBORS);
    let estimates = SharedPerfDb::new(s.gs2.space().clone(), K_NEIGHBORS);
    let _ = session(&s, u64::MAX, 0, &costs, &estimates, None);
    s
}

fn session(
    s: &Setup,
    seed: u64,
    i: usize,
    costs: &SharedPerfDb,
    estimates: &SharedPerfDb,
    probe: Option<Arc<Probe>>,
) -> Session {
    mark_server_thread();
    let sseed = stream_seed(stream_seed(seed, FLEET_SALT), i as u64);
    let cfg = ServerConfig::new(CLIENTS, STEPS, Estimator::MinOfK(SAMPLES), sseed)
        .expect("valid fleet-session config");
    let t0 = Instant::now();
    let mut pro = ProOptimizer::with_defaults(s.gs2.space().clone());
    let center = warm_start_center(estimates);
    let warm_s = t0.elapsed().as_secs_f64();
    if let Some(c) = &center {
        pro.recenter(c);
    }
    let mut opt = TimedOptimizer::new(&mut pro);
    let shared = SharedSession::new(costs, estimates);
    let plan = FaultPlan::none();
    let result = match &probe {
        Some(p) => run_resilient_shared(
            &TimedObjective {
                inner: &s.gs2,
                probe: p,
            },
            &TimedNoise {
                inner: &s.noise,
                probe: p,
            },
            &mut opt,
            cfg,
            &plan,
            shared,
        ),
        None => run_resilient_shared(&s.gs2, &s.noise, &mut opt, cfg, &plan, shared),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let times = opt.times;
    let band_s = result.as_ref().ok().and_then(|o| {
        time_to_band(
            t0,
            &times.marks,
            &o.quality_curve,
            QUALITY_FACTOR * s.optimum,
        )
    });
    let result = result.map_err(|e| e.to_string());
    let checked = result
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|o| checked_digest(o, None, &s.gs2));
    Session {
        wall_s,
        result,
        checked,
        times,
        band_s,
        warm_s,
        probe,
    }
}

/// Runs one fleet of [`FLEET`] sessions against fresh tiers.
pub fn fleet(s: &Setup, seed: u64, traced: bool) -> Fleet {
    let costs = SharedPerfDb::new(s.gs2.space().clone(), K_NEIGHBORS);
    let estimates = SharedPerfDb::new(s.gs2.space().clone(), K_NEIGHBORS);
    let mut flush_s = 0.0;
    let mut flush = || {
        let t0 = Instant::now();
        costs.flush();
        estimates.flush();
        flush_s += t0.elapsed().as_secs_f64();
    };
    let sessions = par_waves_in(
        s.workers,
        FLEET,
        WAVE,
        |i| {
            let probe = traced.then(|| Arc::new(Probe::default()));
            session(s, seed, i, &costs, &estimates, probe)
        },
        |_| flush(),
    );
    flush();
    let wrong_entries = costs
        .entries_canonical()
        .iter()
        .filter(|(p, v)| s.gs2.eval(p).to_bits() != v.to_bits())
        .count();
    Fleet {
        sessions,
        costs: costs.stats(),
        estimates: estimates.stats(),
        tiers_digest: entries_digest(&estimates)
            .u64(entries_digest(&costs).finish())
            .finish(),
        flush_s,
        wrong_entries,
    }
}

/// One round: [`FLEETS`] fleets.
pub struct Round {
    /// Fleets in index order.
    pub fleets: Vec<Fleet>,
}

/// Runs one round: [`FLEETS`] fleets, fleet `f` seeded by
/// `stream_seed(seed, f)`, one after the other.
pub fn round(s: &Setup, seed: u64, traced: bool) -> Round {
    Round {
        fleets: (0..FLEETS)
            .map(|f| fleet(s, stream_seed(seed, f as u64), traced))
            .collect(),
    }
}

impl RoundOutput for Round {
    /// Per fleet: every session, both tiers' digest, and the check that
    /// every cost-tier entry is the objective's value.
    fn ops(&self) -> Vec<Result<u64, String>> {
        let mut ops = Vec::new();
        for (fi, f) in self.fleets.iter().enumerate() {
            ops.extend(f.sessions.iter().map(|s| s.checked.clone()));
            ops.push(Ok(f.tiers_digest));
            ops.push(match f.wrong_entries {
                0 => Ok(0),
                n => Err(format!(
                    "fleet {fi}: {n} cost-tier entries differ from the objective"
                )),
            });
        }
        ops
    }

    fn reference_digests(&self) -> Vec<(&'static str, u64)> {
        let outcomes: Vec<u64> = self
            .fleets
            .iter()
            .flat_map(|f| &f.sessions)
            .map(|s| *s.checked.as_ref().unwrap_or(&0))
            .collect();
        let tiers: Vec<u64> = self.fleets.iter().map(|f| f.tiers_digest).collect();
        vec![
            ("outcomes", digest_words(&outcomes)),
            ("tiers", digest_words(&tiers)),
        ]
    }

    fn sessions(&self) -> Vec<SessionSample> {
        self.fleets
            .iter()
            .flat_map(|f| &f.sessions)
            .map(|x| SessionSample::new(x.wall_s, x.band_s, x.result.as_ref().ok()))
            .collect()
    }

    fn layers(&self) -> Layers {
        let mut l = Layers::default();
        for f in &self.fleets {
            for s in &f.sessions {
                let Some(probe) = s.probe.as_deref() else {
                    continue;
                };
                l.add_session(&TracedSession {
                    wall_s: s.wall_s,
                    clients: CLIENTS,
                    probe,
                    times: &s.times,
                    algorithm: "pro",
                    outcome: s.result.as_ref().ok(),
                    forced: 0,
                    other_children_s: s.warm_s,
                });
            }
            l.shared_hits += f.costs.hits;
            l.shared_misses += f.costs.misses;
            l.shared_records += f.costs.records + f.estimates.records;
            l.shared_publishes += f.costs.publishes + f.estimates.publishes;
            l.shared_entries += f.costs.entries + f.estimates.entries;
        }
        l
    }
}

fn budget(ctx: &Ctx, s: &Setup, report: &mut Report) -> std::io::Result<()> {
    check_thread_budget(s.workers, CLIENTS, ctx.nproc).map_err(std::io::Error::other)?;
    report.workers = s.workers;
    report.notes.push(format!(
        "thread budget: {} concurrent sessions x {CLIENTS} client <= nproc {}; rounds of {FLEETS} fleets of {FLEET} sessions in waves of {WAVE}",
        s.workers, ctx.nproc
    ));
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = Report::default();
    let (setup_s, s) = timed_setups(SETUPS, || Ok(setup(ctx.nproc)))?;
    budget(ctx, &s, &mut report)?;
    let d = drive(ctx, &mut report, "shared_fleet", false, |seed, traced| {
        Ok(round(&s, seed, traced))
    })?;
    d.totals.finish(&mut report, &setup_s, &d.plain, &d.window);
    Ok(report)
}

/// The traced run: per-layer metrics, plus the flush and warm-start
/// timings of the shared tiers.
pub fn run_traced(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = Report::default();
    let s = setup(ctx.nproc);
    budget(ctx, &s, &mut report)?;
    let (mut flush_s, mut warm_us) = (Vec::new(), Vec::new());
    let d = drive(ctx, &mut report, "shared_fleet", true, |seed, traced| {
        let r = round(&s, seed, traced);
        if traced && seed == ctx.seed {
            flush_s.push(r.fleets.iter().map(|f| f.flush_s).sum::<f64>());
            let warm: f64 = r
                .fleets
                .iter()
                .flat_map(|f| &f.sessions)
                .map(|x| x.warm_s)
                .sum();
            warm_us.push(warm * 1e6 / (FLEETS * FLEET) as f64);
        }
        Ok(r)
    })?;
    let sample = d.sample.as_ref().expect("at least one traced round");
    let sessions: Vec<&Session> = sample.fleets.iter().flat_map(|f| &f.sessions).collect();
    let probe0 = sessions[0].probe.as_deref().expect("traced");
    let samples = probe0.samples.lock().expect("probe capture").clone();
    let points: Vec<_> = sessions
        .iter()
        .flat_map(|x| {
            x.probe
                .as_deref()
                .expect("traced")
                .points
                .lock()
                .expect("probe capture")
                .clone()
        })
        .collect();
    d.finish_traced(&mut report, &samples, SAMPLES, s.gs2.space(), &points);
    report
        .extra
        .push(metric("surface.flush_s", median(&flush_s), "s"));
    report
        .extra
        .push(metric("surface.warm_start_us", median(&warm_us), "us"));
    Ok(report)
}
