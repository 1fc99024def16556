//! `served_session`: supervised, journaled, fault-injected server
//! sessions back to back — what a live application pays per barrier
//! step. Each session: GS2 at paper scale, `Noise::paper_default(0.2)`,
//! min-of-3, 200 steps, 2 client threads, hang/drop/duplicate faults at
//! 2% each (no crashes), the default supervisor, a directory journal
//! snapshotting every 8 batches and a flight-recorder telemetry sink.
//! Sessions alternate PRO and the surrogate optimizer.

use crate::layers::{self, JournalCapture, Layers, TracedSession};
use crate::probe::{
    mark_server_thread, time_to_band, OptTimes, Probe, TimedNoise, TimedObjective, TimedOptimizer,
    TimedSink,
};
use crate::{
    check_thread_budget, checked_digest, digest_words, drive, metric, timed_setups, Ctx, Report,
    RoundOutput, SessionSample,
};
use harmony_bench::experiments::t8_surrogate::QUALITY_FACTOR;
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_session_traced, RecoveryConfig, SupervisedOutcome};
use harmony_core::{Estimator, Optimizer, ProOptimizer, ServerConfig, SurrogateOptimizer};
use harmony_params::ParamSpace;
use harmony_recovery::{SessionJournal, SupervisorConfig};
use harmony_surface::{best_on_lattice, Gs2Model, Objective};
use harmony_telemetry::{FlightRecorder, Sink, Telemetry, TelemetryConfig};
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Client threads per session.
pub const CLIENTS: usize = 2;
const STEPS: usize = 200;
const RHO: f64 = 0.2;
const SAMPLES: usize = 3;
const FAULT_RATE: f64 = 0.02;
const SNAPSHOT_EVERY: u64 = 8;
const FLIGHT_CAPACITY: usize = 256;
/// Sessions per round; a round is the unit whose counts must repeat.
pub const ROUND: usize = 128;
/// Set-ups timed per untraced run (their median is `setup_s`).
const SETUPS: usize = 101;
const FAULT_SALT: u64 = 0xFA17;

/// Everything built before the first timed session.
pub struct Setup {
    /// The objective.
    pub gs2: Gs2Model,
    /// The noise model.
    pub noise: Noise,
    /// Lattice optimum of the objective.
    pub optimum: f64,
    /// Journal parent directory.
    pub dir: PathBuf,
}

/// Builds the objective, its lattice optimum and the journal directory,
/// then runs one untimed warm-up session.
pub fn setup(tmp: &Path) -> std::io::Result<Setup> {
    let gs2 = Gs2Model::paper_scale();
    let (_, optimum) = best_on_lattice(&gs2).expect("GS2 at paper scale is a lattice");
    let dir = tmp.join("served");
    std::fs::create_dir_all(&dir)?;
    let s = Setup {
        gs2,
        noise: Noise::paper_default(RHO),
        optimum,
        dir,
    };
    session(&s, u64::MAX, 0, None)?;
    Ok(s)
}

/// One finished session.
pub struct Session {
    /// Wall seconds of the session call.
    pub wall_s: f64,
    /// The outcome, or the server's error text.
    pub result: Result<SupervisedOutcome, String>,
    /// The checked outcome digest, or why the session failed.
    pub checked: Result<u64, String>,
    /// Optimizer timings and observation marks.
    pub times: OptTimes,
    /// Optimizer name.
    pub algorithm: &'static str,
    /// Seconds from start to the 1.25× band, when reached.
    pub band_s: Option<f64>,
    /// The probe, on traced sessions.
    pub probe: Option<Arc<Probe>>,
    /// The journal contents, on traced sessions.
    pub journal: Option<JournalCapture>,
}

impl Session {
    /// Outcome digest, or `None` when the session failed.
    pub fn digest(&self) -> Option<u64> {
        self.checked.as_ref().ok().copied()
    }
}

/// Server configuration and fault plan of session `i` of the round
/// seeded by `seed`.
pub fn session_config(seed: u64, i: usize) -> (ServerConfig, FaultPlan) {
    let sseed = stream_seed(seed, i as u64);
    let cfg = ServerConfig::new(CLIENTS, STEPS, Estimator::MinOfK(SAMPLES), sseed)
        .expect("valid served-session config");
    let plan = FaultPlan::new(
        stream_seed(sseed, FAULT_SALT),
        0.0,
        FAULT_RATE,
        FAULT_RATE,
        FAULT_RATE,
    );
    (cfg, plan)
}

/// The optimizer of session `i`: PRO on even indices, the surrogate on
/// odd ones.
pub fn session_optimizer(space: &ParamSpace, cfg: &ServerConfig, i: usize) -> Box<dyn Optimizer> {
    if i.is_multiple_of(2) {
        Box::new(ProOptimizer::with_defaults(space.clone()))
    } else {
        Box::new(SurrogateOptimizer::with_defaults(space.clone(), cfg.seed))
    }
}

/// The session's persistence policy and supervisor.
pub fn session_recovery() -> (RecoveryConfig, Option<SupervisorConfig>) {
    (
        RecoveryConfig {
            snapshot_every: SNAPSHOT_EVERY,
        },
        Some(SupervisorConfig::default()),
    )
}

/// Runs session `i` of the round seeded by `seed`, traced when `probe`
/// is given.
pub fn session(
    s: &Setup,
    seed: u64,
    i: usize,
    probe: Option<Arc<Probe>>,
) -> std::io::Result<Session> {
    let (cfg, plan) = session_config(seed, i);
    let jdir = s.dir.join(format!("s{i}"));
    let _ = std::fs::remove_dir_all(&jdir);
    let mut journal = SessionJournal::at_dir(&jdir)?;
    let mut inner = session_optimizer(s.gs2.space(), &cfg, i);
    let algorithm = if inner.name() == "surrogate" {
        "surrogate"
    } else {
        "pro"
    };
    let mut opt = TimedOptimizer::new(inner.as_mut());
    let flight = FlightRecorder::new(FLIGHT_CAPACITY);
    let sink: Arc<dyn Sink> = match &probe {
        Some(p) => Arc::new(TimedSink {
            inner: flight,
            probe: p.clone(),
        }),
        None => Arc::new(flight),
    };
    let tel = Telemetry::with_config(sink, TelemetryConfig::default());
    let (recovery, sup) = session_recovery();
    mark_server_thread();
    let t0 = Instant::now();
    let result = match &probe {
        Some(p) => run_session_traced(
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
            &tel,
            Some(&mut journal),
            recovery,
            sup,
        ),
        None => run_session_traced(
            &s.gs2,
            &s.noise,
            &mut opt,
            cfg,
            &plan,
            &tel,
            Some(&mut journal),
            recovery,
            sup,
        ),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let times = opt.times;
    let band_s = result.as_ref().ok().and_then(|r| {
        time_to_band(
            t0,
            &times.marks,
            &r.outcome.quality_curve,
            QUALITY_FACTOR * s.optimum,
        )
    });
    let journal = match probe {
        Some(_) => Some(JournalCapture::read(&jdir, &journal)?),
        None => None,
    };
    std::fs::remove_dir_all(&jdir)?;
    let result = result.map_err(|e| e.to_string());
    let checked = result
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|r| checked_digest(&r.outcome, Some(&r.supervisor), &s.gs2));
    Ok(Session {
        wall_s,
        result,
        checked,
        times,
        algorithm,
        band_s,
        probe,
        journal,
    })
}

/// One round of [`ROUND`] sessions.
pub struct Round {
    /// Sessions in index order.
    pub sessions: Vec<Session>,
}

/// Runs one round of [`ROUND`] sessions.
pub fn round(s: &Setup, seed: u64, traced: bool) -> std::io::Result<Round> {
    let sessions = (0..ROUND)
        .map(|i| session(s, seed, i, traced.then(|| Arc::new(Probe::default()))))
        .collect::<std::io::Result<_>>()?;
    Ok(Round { sessions })
}

impl RoundOutput for Round {
    fn ops(&self) -> Vec<Result<u64, String>> {
        self.sessions.iter().map(|s| s.checked.clone()).collect()
    }

    fn reference_digests(&self) -> Vec<(&'static str, u64)> {
        let words: Vec<u64> = self
            .sessions
            .iter()
            .map(|s| s.digest().unwrap_or(0))
            .collect();
        vec![("outcomes", digest_words(&words))]
    }

    fn sessions(&self) -> Vec<SessionSample> {
        self.sessions
            .iter()
            .map(|x| {
                SessionSample::new(
                    x.wall_s,
                    x.band_s,
                    x.result.as_ref().ok().map(|r| &r.outcome),
                )
            })
            .collect()
    }

    fn layers(&self) -> Layers {
        let mut l = Layers::default();
        for s in &self.sessions {
            let Some(probe) = s.probe.as_deref() else {
                continue;
            };
            let outcome = s.result.as_ref().ok();
            l.add_session(&TracedSession {
                wall_s: s.wall_s,
                clients: CLIENTS,
                probe,
                times: &s.times,
                algorithm: s.algorithm,
                outcome: outcome.map(|o| &o.outcome),
                forced: outcome.map_or(0, |o| o.supervisor.forced_batches as u64),
                other_children_s: 0.0,
            });
            if let Some(j) = &s.journal {
                l.add_journal(j);
            }
        }
        l
    }
}

fn budget(ctx: &Ctx) -> std::io::Result<Report> {
    check_thread_budget(1, CLIENTS, ctx.nproc).map_err(std::io::Error::other)?;
    let mut report = Report {
        workers: 1,
        ..Report::default()
    };
    report.notes.push(format!(
        "thread budget: 1 session x {CLIENTS} clients <= nproc {}; rounds of {ROUND} sessions",
        ctx.nproc
    ));
    Ok(report)
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = budget(ctx)?;
    let (setup_s, s) = timed_setups(SETUPS, || setup(&ctx.tmp))?;
    let d = drive(ctx, &mut report, "served_session", false, |seed, traced| {
        round(&s, seed, traced)
    })?;
    d.totals.finish(&mut report, &setup_s, &d.plain, &d.window);
    Ok(report)
}

/// The traced run: per-layer metrics, plus the journal replay.
pub fn run_traced(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = budget(ctx)?;
    let s = setup(&ctx.tmp)?;
    let d = drive(ctx, &mut report, "served_session", true, |seed, traced| {
        round(&s, seed, traced)
    })?;
    let sample = d.sample.as_ref().expect("at least one traced round");
    let probe0 = sample.sessions[0].probe.as_deref().expect("traced");
    let samples = probe0.samples.lock().expect("probe capture").clone();
    let points = probe0.points.lock().expect("probe capture").clone();
    let captures: Vec<JournalCapture> = sample
        .sessions
        .iter()
        .filter_map(|x| x.journal.clone())
        .collect();
    let (append_us, snapshot_us) = layers::replay_journal(&ctx.tmp, &captures)?;
    d.finish_traced(&mut report, &samples, SAMPLES, s.gs2.space(), &points);
    report
        .extra
        .push(metric("recovery.append_us", append_us, "us"));
    report
        .extra
        .push(metric("recovery.snapshot_us", snapshot_us, "us"));
    Ok(report)
}
