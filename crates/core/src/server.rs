//! A fault-tolerant Active-Harmony-style tuning server with real client
//! threads.
//!
//! Active Harmony structures on-line tuning as a central server owning
//! the optimizer state while the application's SPMD processes fetch
//! parameter assignments and report measured performance. This module
//! reproduces that architecture in-process: one server (the calling
//! thread) and `P` client threads exchanging messages over mpsc
//! channels. Each barrier-synchronised time step the server hands every
//! live client one `(point, sample)` evaluation slot, collects the
//! reports, charges the step the worst observation (eq. 1), and advances
//! the optimizer when a batch completes.
//!
//! Unlike [`crate::tuner::OnlineTuner`] (which models §6.2's sequential
//! worst case), the server packs `(point, sample)` slots densely over
//! processors — §5.2's observation that with `P ≥ n·K` processors,
//! multi-sampling is free: "If there are 64 parallel processors running
//! GS2 concurrently, we can set K = 10 with no additional cost."
//!
//! # Fault tolerance
//!
//! The paper's setting — a live application on a shared cluster — is
//! exactly where clients crash and reports go missing, so
//! [`run_session`] tunes *through* injected faults (the [`FaultPlan`]
//! in [`SessionOptions::plan`]) instead of panicking:
//!
//! * every dispatched assignment carries a `(batch, slot, attempt)`
//!   identity and a **deadline**: a report that is late, lost, or whose
//!   client died charges the step the deadline (escalated by the retry
//!   backoff) instead of an observation,
//! * missed assignments are **reassigned** to live clients with bounded
//!   retries; slots that exhaust their retries are abandoned,
//! * duplicate and stale reports are **de-duplicated** by assignment
//!   identity,
//! * crashed clients are permanently **evicted** — the session degrades
//!   to fewer processors instead of dying,
//! * a batch whose surviving estimates satisfy the **quorum** rule
//!   advances the optimizer via [`Optimizer::observe_partial`]
//!   (PRO/SRO/Nelder–Mead substitute the holes with performance-database
//!   interpolations); below quorum the session ends with a typed
//!   [`ServerError`].
//!
//! Fault *timing* is logical, not wall-clock: the client (standing in
//! for the transport/heartbeat layer) reports each delivery outcome
//! explicitly, so the server never blocks on a timer and the same
//! seeds + plan reproduce bit-identical sessions regardless of thread
//! scheduling.
//!
//! Under a fault-free plan the whole machinery reduces to the original
//! behaviour exactly.
//!
//! # When slots are sent
//!
//! A slot is sent as soon as the client that will run it is fixed, so
//! a client that already holds its next slot does not wait a thread
//! handoff per step. A task message carries a list of slots, which the
//! client answers with one reply holding their events in order. Rounds
//! still resolve one by one, in queue order, from an inbox that hands
//! the server one event at a time.
//!
//! * **One live client in a tuning batch** gets every queued slot up
//!   front as one send-ahead run (a single task message), and a
//!   requeued slot as a task of its own as soon as it is queued
//!   (behind the run, where its round would send it anyway). A batch
//!   whose slots all report on time therefore costs one message each
//!   way. The client runs its channel in order, so it draws the same
//!   task serials, fault decisions and noise; if it crashes, its reply
//!   ends with the crash, the slots behind it never run, and the
//!   session ends [`ServerError::AllClientsDead`] as it would have.
//! * **The exploit runner** gets every remaining step as one run; if it
//!   dies, the rest go to the next live client as another. The exploit
//!   never consults the health tracker and only a `Died` report
//!   changes the runner.
//! * **Several live clients** get one slot per round, each a task of
//!   its own, so one message each way per slot. An eviction or a
//!   breaker change can reassign later rounds, and a client cannot take
//!   back a task it has already run.
//!
//! # One entry point
//!
//! [`run_session`] is the only session driver. Its [`SessionOptions`]
//! add a fault plan, telemetry, a write-ahead journal with snapshots
//! and resume ([`RecoveryConfig`]), a supervisor, and shared
//! cross-session database tiers ([`SharedSession`]) in any combination;
//! the default is a plain fault-free session. Inside, every live round,
//! batch and exploit step builds its WAL record and commits through the
//! same code that replays the record on resume, so a resumed session
//! reproduces the outcome and, from a WAL-only resume, the telemetry of
//! an uninterrupted one.

use crate::cache::CachedObjective;
use crate::optimizer::Optimizer;
use crate::sampling::Estimator;
use crate::tuner::{FaultStats, TuningOutcome};
use harmony_cluster::fault::{Delivery, FaultPlan};
use harmony_cluster::TuningTrace;
use harmony_params::Point;
use harmony_recovery::{
    BatchRecord, Checkpoint, ExploitKind, ExploitRecord, HeaderRecord, HealthTracker, RoundDelta,
    SessionJournal, StateReader, StateWriter, SupervisorConfig, TransitionKind, WalRecord,
    WAL_VERSION,
};
use harmony_surface::{Objective, SharedPerfDb};
use harmony_telemetry::{event, Field, Telemetry};
use harmony_variability::counting::CountingRng;
use harmony_variability::noise::NoiseModel;
use harmony_variability::{seeded_rng, stream_seed};
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Default deadline (in objective-time units) after which a dispatched
/// assignment is declared missed — comfortably above typical
/// observations so the fault-free path never hits it.
pub const DEFAULT_DEADLINE: f64 = 25.0;

/// A typed server failure. The resilient server returns these instead
/// of panicking mid-session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// Every client crashed; no processor is left to run assignments.
    AllClientsDead {
        /// Time step at which the last client died.
        step: usize,
    },
    /// A batch finished below the quorum of surviving estimates.
    QuorumNotReached {
        /// Time step at which the batch gave up.
        step: usize,
        /// Estimates that survived.
        reported: usize,
        /// Estimates the quorum rule required.
        needed: usize,
    },
    /// The optimizer never produced an observable batch.
    NoObservations,
    /// The session journal could not be used to resume: corrupt records,
    /// a configuration mismatch with the WAL header, or state that no
    /// longer replays against the given optimizer.
    Recovery(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::InvalidConfig(why) => write!(f, "invalid server config: {why}"),
            ServerError::AllClientsDead { step } => {
                write!(f, "all clients dead by step {step}")
            }
            ServerError::QuorumNotReached {
                step,
                reported,
                needed,
            } => write!(
                f,
                "batch quorum not reached at step {step}: {reported} of {needed} required estimates"
            ),
            ServerError::NoObservations => {
                write!(f, "session ended before any batch was observed")
            }
            ServerError::Recovery(why) => write!(f, "session recovery failed: {why}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Configuration of a distributed tuning session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Number of client threads (simulated SPMD processes).
    pub procs: usize,
    /// Time-step budget `K`.
    pub max_steps: usize,
    /// Estimator reducing each point's samples.
    pub estimator: Estimator,
    /// Base RNG seed (each client gets a derived stream).
    pub seed: u64,
    /// Time charged to a step for each assignment whose report missed it
    /// (the server waits this long before reassigning).
    pub deadline: f64,
    /// How many times a missed slot is re-dispatched before being
    /// abandoned.
    pub max_retries: u32,
    /// Deadline escalation per retry attempt: attempt `a` charges
    /// `deadline · backoff^a` on a miss (must be ≥ 1).
    pub backoff: f64,
    /// Fraction of a batch's estimates that must survive for the batch
    /// to advance the optimizer (at least one is always required).
    pub quorum: f64,
}

impl ServerConfig {
    /// A validated configuration with default fault-handling policy:
    /// deadline [`DEFAULT_DEADLINE`], 2 retries, 1.5× backoff, 50%
    /// quorum.
    pub fn new(
        procs: usize,
        max_steps: usize,
        estimator: Estimator,
        seed: u64,
    ) -> Result<Self, ServerError> {
        ServerConfig {
            procs,
            max_steps,
            estimator,
            seed,
            deadline: DEFAULT_DEADLINE,
            max_retries: 2,
            backoff: 1.5,
            quorum: 0.5,
        }
        .validated()
    }

    /// Validates every field, returning the config unchanged when sound.
    pub fn validated(self) -> Result<Self, ServerError> {
        let fail = |why: String| Err(ServerError::InvalidConfig(why));
        if self.procs == 0 {
            return fail("server needs at least one client".into());
        }
        if self.max_steps == 0 {
            return fail("server needs a positive step budget".into());
        }
        if !(self.deadline.is_finite() && self.deadline > 0.0) {
            return fail(format!(
                "deadline must be finite and positive, got {}",
                self.deadline
            ));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return fail(format!("backoff must be ≥ 1, got {}", self.backoff));
        }
        if !(0.0..=1.0).contains(&self.quorum) {
            return fail(format!("quorum must be in [0, 1], got {}", self.quorum));
        }
        Ok(self)
    }
}

/// Identity of one dispatched evaluation: which batch, which
/// `(point, sample)` slot within it, and which retry attempt. The
/// server de-duplicates reports on this triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Assignment {
    batch: u64,
    slot: usize,
    attempt: u32,
}

/// Server→client message.
enum Task {
    /// Evaluate every `(assign, point)` in order, echoing `assign` back
    /// in its report, and answer with one reply holding all their
    /// events in the order they happened. A crash ends the run, and its
    /// `Died` ends the reply. A send-ahead run carries a whole queue;
    /// round-at-a-time dispatch sends one slot.
    Run(Vec<(Assignment, Point)>),
    /// Shut down the client loop.
    Stop,
}

/// Client→server event. In a real deployment `Lost`/`Died` would be
/// synthesised by the transport's timeout and heartbeat monitors; here
/// the client surfaces them explicitly so fault timing stays logical
/// (deterministic) instead of wall-clock.
enum Event {
    /// A measurement arrived. `late` means it arrived after the
    /// assignment's deadline had already expired (the server discards
    /// the value and treats the slot as missed). `duplicate` marks a
    /// report the fault plan delivered more than once; the server counts
    /// the duplication when it matches the first copy, so the counter
    /// does not depend on whether the extra copy is ever read.
    Report {
        assign: Assignment,
        observed: f64,
        late: bool,
        duplicate: bool,
        /// Reporting client, with its post-task progress meters: tasks
        /// processed and cumulative RNG words consumed. The server
        /// journals the meters so a resumed client can fast-forward to
        /// the exact stream position the killed run reached.
        client: usize,
        serial: usize,
        draws: u64,
    },
    /// The report was dropped in transit; the deadline expired with
    /// nothing to show. The client still ran the task, so its meters
    /// advanced.
    Lost {
        assign: Assignment,
        client: usize,
        serial: usize,
        draws: u64,
    },
    /// The client crashed while running the assignment.
    Died { client: usize, assign: Assignment },
}

/// Persistence policy of a checkpointed session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Take a full state snapshot every this many committed batches
    /// (`0` = never; the WAL alone still recovers, by replaying every
    /// record from the start). Snapshots bound replay work at the cost
    /// of snapshot bytes; WAL-only recovery additionally reproduces the
    /// *telemetry trace* byte-identically, because every record is
    /// re-emitted.
    pub snapshot_every: u64,
}

/// What the supervisor did during one session — all replay-derivable, so
/// a WAL-only resume reports identical numbers. Snapshots do not carry
/// the report: a session resumed from one counts from the snapshot on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Whether the session completed in degraded mode (at least one
    /// batch advanced below quorum, or breakers narrowed dispatch).
    pub degraded: bool,
    /// Batches the supervisor forced below quorum instead of failing
    /// with [`ServerError::QuorumNotReached`].
    pub forced_batches: usize,
    /// Circuit-breaker trips (client quarantined from dispatch).
    pub breaker_opens: usize,
    /// Circuit-breaker recoveries (probe succeeded, client readmitted).
    pub breaker_closes: usize,
    /// Narrowest dispatch width any round used (`usize::MAX` when no
    /// round ran).
    pub min_width: usize,
}

/// A [`TuningOutcome`] plus the supervisor's account of the session.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedOutcome {
    /// The tuning result.
    pub outcome: TuningOutcome,
    /// Supervisor counters; `degraded` tells whether the result came
    /// from a full-width run or a degraded one.
    pub supervisor: SupervisorReport,
}

/// The cross-session shared-database handles a session may attach (see
/// [`harmony_surface::SharedPerfDb`]). Both tiers are optional and
/// independent:
///
/// * `costs` — deterministic *true-cost* values. Clients and the
///   server's recommendation probes consult it before evaluating the
///   objective (cache-before-evaluate) and record fresh probes back.
///   Because the objective is deterministic, substitution is exact and
///   tuning outcomes are unchanged bit for bit.
/// * `estimates` — the *noisy* min-of-K batch estimates the optimizer
///   observed, published back so new sessions can warm-start from
///   neighbours' measurements ([`crate::warm_start_center`]). Estimates
///   are never substituted for evaluations — they only seed starting
///   points.
///
/// Records stay pending (invisible to readers) until someone calls
/// [`SharedPerfDb::flush`]. Sessions deliberately do **not** flush:
/// multi-session drivers flush at wave barriers so every session in a
/// wave sees the same snapshot regardless of scheduling, which is what
/// keeps aggregate hit counts deterministic.
#[derive(Clone, Copy, Default)]
pub struct SharedSession<'a> {
    /// Shared deterministic true-cost tier.
    pub costs: Option<&'a SharedPerfDb>,
    /// Shared noisy-estimate tier (warm-start seeds).
    pub estimates: Option<&'a SharedPerfDb>,
}

impl<'a> SharedSession<'a> {
    /// No shared tiers: the session touches no shared database.
    pub fn none() -> Self {
        SharedSession::default()
    }

    /// Attaches both tiers.
    pub fn new(costs: &'a SharedPerfDb, estimates: &'a SharedPerfDb) -> Self {
        SharedSession {
            costs: Some(costs),
            estimates: Some(estimates),
        }
    }
}

/// Everything about a [`run_session`] beyond its objective, noise model,
/// optimizer and [`ServerConfig`]. The default is a fault-free,
/// untraced, unjournaled, unsupervised and unshared session; set only
/// the fields a session needs:
///
/// ```
/// use harmony_core::server::{RecoveryConfig, SessionOptions};
/// use harmony_recovery::SessionJournal;
///
/// let mut journal = SessionJournal::in_memory();
/// let opts = SessionOptions {
///     journal: Some(&mut journal),
///     recovery: RecoveryConfig { snapshot_every: 4 },
///     ..SessionOptions::default()
/// };
/// # drop(opts);
/// ```
#[derive(Default)]
pub struct SessionOptions<'a> {
    /// Faults injected into the clients; see the module docs for how
    /// the server tunes through them.
    pub plan: FaultPlan,
    /// Structured tracing. The session becomes a `server.session` span,
    /// every fault-handling decision (miss, retry, abandonment,
    /// eviction, duplicate, partial batch) becomes an event, and the
    /// objective cache and final [`TuningTrace`] metrics are exported at
    /// session end. Client reports arrive in scheduling-dependent
    /// order, but every record is stamped with the *logical* clock
    /// (consumed time steps) and fault events are derived from each
    /// round's record in canonical order, so identical sessions produce
    /// byte-identical traces regardless of thread interleaving.
    pub telemetry: Telemetry,
    /// Write-ahead journal. Every committed batch and exploit step is
    /// appended, and snapshots are taken per `recovery`. A non-empty
    /// journal makes the session **resume** instead of starting over:
    /// the optimizer and session state are restored (snapshot +
    /// WAL-tail replay) and clients fast-forward their RNG streams to
    /// the journaled positions, so the resumed [`TuningOutcome`] is
    /// byte-identical to an uninterrupted one. A WAL-only resume also
    /// re-emits the replayed records' telemetry byte-identically; a
    /// snapshot resume skips the pre-snapshot events.
    pub journal: Option<&'a mut SessionJournal>,
    /// Snapshot cadence of a journaled session.
    pub recovery: RecoveryConfig,
    /// Supervision: per-client circuit breakers narrow dispatch around
    /// unhealthy clients (recovering width when they return), and a
    /// batch that finishes below quorum is salvaged with escalating
    /// re-dispatches and — when at least one estimate survives — forced
    /// through `observe_partial` as a *degraded* advance instead of
    /// failing with [`ServerError::QuorumNotReached`]. Every breaker
    /// transition is emitted as a `recovery.*` event in canonical order.
    pub supervisor: Option<SupervisorConfig>,
    /// Cross-session shared database tiers: evaluations consult
    /// `costs` before probing the objective, and observed batch
    /// estimates are published (pending) into `estimates`. The caller
    /// flushes the shared databases when the new measurements should
    /// become visible.
    pub shared: SharedSession<'a>,
}

/// Runs one tuning session: spawns `cfg.procs` client threads, drives
/// `optimizer` to convergence or budget exhaustion, exploits the
/// incumbent for the remaining steps, and joins every client on every
/// exit path, including errors. `opts` adds fault injection, tracing,
/// journaling with resume, supervision and shared database tiers in any
/// combination. Under [`SessionOptions::default`] a session cannot fail
/// unless the configuration is invalid or the optimizer never proposes.
pub fn run_session<O, M>(
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    cfg: ServerConfig,
    opts: SessionOptions<'_>,
) -> Result<SupervisedOutcome, ServerError>
where
    O: Objective + Sync + ?Sized,
    M: NoiseModel + Sync + ?Sized,
{
    let SessionOptions {
        plan,
        telemetry,
        mut journal,
        recovery,
        supervisor,
        shared,
    } = opts;
    let cfg = cfg.validated()?;
    let k = cfg.estimator.samples();
    let resume = match journal.as_deref_mut() {
        Some(j) => scan_journal(j, &cfg, k, supervisor.is_some())?,
        None => ResumePlan::fresh(cfg.procs),
    };
    if let (true, Some(j)) = (resume.fresh, journal.as_deref_mut()) {
        let header = WalRecord::Header(HeaderRecord {
            version: WAL_VERSION,
            procs: cfg.procs,
            max_steps: cfg.max_steps,
            k,
            seed: cfg.seed,
            deadline: cfg.deadline,
            max_retries: cfg.max_retries,
            backoff: cfg.backoff,
            quorum: cfg.quorum,
            supervised: supervisor.is_some(),
        });
        j.append_record(header, |_| {}).map_err(journal_io)?;
    }
    std::thread::scope(|scope| {
        let (reply_tx, replies) = channel::<Vec<Event>>();
        let clients: Vec<Sender<Task>> = (0..cfg.procs)
            .map(|c| {
                let (task_tx, task_rx) = channel::<Task>();
                let reply_tx = reply_tx.clone();
                let (plan, start, costs) = (&plan, resume.starts[c], shared.costs);
                scope.spawn(move || {
                    client_loop(
                        c, task_rx, reply_tx, objective, noise, cfg.seed, plan, start, costs,
                    )
                });
                task_tx
            })
            .collect();
        drop(reply_tx);

        let tel = &telemetry;
        let span = tel.enabled().then(|| {
            tel.set_clock(0);
            tel.span_open(
                "server.session",
                vec![
                    Field::new("procs", cfg.procs),
                    Field::new("max_steps", cfg.max_steps),
                    Field::new("k", k),
                    Field::new("seed", cfg.seed),
                ],
            )
        });
        let session = Session {
            cfg,
            tel,
            span,
            clients: &clients,
            inbox: Inbox {
                replies,
                queued: VecDeque::new(),
            },
            optimizer,
            objective: match shared.costs {
                Some(db) => CachedObjective::with_shared(objective, db),
                None => CachedObjective::new(objective),
            },
            journal,
            snapshot_every: recovery.snapshot_every,
            supervisor,
            health: supervisor.map(|sc| HealthTracker::new(cfg.procs, sc)),
            report: SupervisorReport {
                min_width: usize::MAX,
                ..SupervisorReport::default()
            },
            shared,
            trace: TuningTrace::new(),
            evaluations: 0,
            quality_curve: Vec::new(),
            fleet: Fleet {
                live: (0..cfg.procs).collect(),
                stats: FaultStats::default(),
                meters: resume.starts.clone(),
            },
            batch_id: 0,
        };
        let outcome = session.serve(&resume);
        // tolerant shutdown: crashed clients have already dropped their
        // receivers, so sends may fail — that is fine, the thread is
        // gone. The scope joins every client on both Ok and Err paths.
        for tx in &clients {
            let _ = tx.send(Task::Stop);
        }
        outcome
    })
}

/// [`run_session`] with the options passed one by one. It keeps this
/// signature only for the benchmark in `perfbench/`, which calls it;
/// new code calls [`run_session`].
#[allow(clippy::too_many_arguments)]
pub fn run_session_traced<O, M>(
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    cfg: ServerConfig,
    plan: &FaultPlan,
    tel: &Telemetry,
    journal: Option<&mut SessionJournal>,
    recovery: RecoveryConfig,
    supervisor: Option<SupervisorConfig>,
) -> Result<SupervisedOutcome, ServerError>
where
    O: Objective + Sync + ?Sized,
    M: NoiseModel + Sync + ?Sized,
{
    let opts = SessionOptions {
        plan: *plan,
        telemetry: tel.clone(),
        journal,
        recovery,
        supervisor,
        shared: SharedSession::none(),
    };
    run_session(objective, noise, optimizer, cfg, opts)
}

/// [`run_session`] under `plan` with the `shared` tiers attached,
/// returning only the tuning outcome. It keeps this signature only for
/// the benchmark in `perfbench/`, which calls it; new code calls
/// [`run_session`].
pub fn run_resilient_shared<O, M>(
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    cfg: ServerConfig,
    plan: &FaultPlan,
    shared: SharedSession<'_>,
) -> Result<TuningOutcome, ServerError>
where
    O: Objective + Sync + ?Sized,
    M: NoiseModel + Sync + ?Sized,
{
    let opts = SessionOptions {
        plan: *plan,
        shared,
        ..SessionOptions::default()
    };
    run_session(objective, noise, optimizer, cfg, opts).map(|s| s.outcome)
}

/// One simulated SPMD process: fetch task, run (evaluate objective under
/// local noise), report — with the [`FaultPlan`] deciding whether this
/// client crashes and how each report is delivered.
#[allow(clippy::too_many_arguments)]
fn client_loop<O, M>(
    id: usize,
    tasks: Receiver<Task>,
    replies: Sender<Vec<Event>>,
    objective: &O,
    noise: &M,
    seed: u64,
    plan: &FaultPlan,
    start: (usize, u64),
    shared_costs: Option<&SharedPerfDb>,
) where
    O: Objective + ?Sized,
    M: NoiseModel + ?Sized,
{
    // a resumed client reseeds the same stream and fast-forwards to the
    // meter position the journal recorded, so the noise sequence
    // continues exactly where the killed run left it
    let mut rng = CountingRng::new(seeded_rng(stream_seed(seed, id as u64 + 1)));
    let (start_serial, start_draws) = start;
    rng.fast_forward(start_draws);
    let crash_at = plan.crash_point(id);
    let mut serial = start_serial;
    while let Ok(Task::Run(slots)) = tasks.recv() {
        let mut events = Vec::with_capacity(slots.len());
        let alive = slots.iter().all(|(assign, point)| {
            let assign = *assign;
            if crash_at == Some(serial) {
                // permanent death: surface it (heartbeat monitor) and
                // never process another task
                events.push(Event::Died { client: id, assign });
                return false;
            }
            // cache-before-evaluate: a flushed cross-session entry is
            // the exact deterministic cost, so substituting it skips the
            // probe without changing any outcome
            let cost = match shared_costs {
                Some(db) => db.query(point).unwrap_or_else(|| {
                    let c = objective.eval(point);
                    db.record(point, c);
                    c
                }),
                None => objective.eval(point),
            };
            let observed = noise.observe(cost, &mut rng);
            serial += 1;
            let draws = rng.draws();
            let report = |late, duplicate| Event::Report {
                assign,
                observed,
                late,
                duplicate,
                client: id,
                serial,
                draws,
            };
            match plan.delivery(id, serial - 1) {
                Delivery::OnTime => events.push(report(false, false)),
                Delivery::Duplicated => {
                    events.push(report(false, true));
                    events.push(report(false, true));
                }
                Delivery::Late => events.push(report(true, false)),
                Delivery::Lost => events.push(Event::Lost {
                    assign,
                    client: id,
                    serial,
                    draws,
                }),
            }
            true
        });
        if replies.send(events).is_err() || !alive {
            break; // server gone, or crashed
        }
    }
}

/// What a journal scan found: the snapshot to restore (if any), the WAL
/// tail to replay on top of it, and the per-client stream positions to
/// respawn clients at.
struct ResumePlan {
    fresh: bool,
    snapshot: Option<Vec<u8>>,
    replay: Vec<WalRecord>,
    starts: Vec<(usize, u64)>,
}

impl ResumePlan {
    fn fresh(procs: usize) -> Self {
        ResumePlan {
            fresh: true,
            snapshot: None,
            replay: Vec::new(),
            starts: vec![(0, 0); procs],
        }
    }
}

fn recovery_err(why: impl Into<String>) -> ServerError {
    ServerError::Recovery(why.into())
}

fn journal_io(e: std::io::Error) -> ServerError {
    recovery_err(format!("journal I/O: {e}"))
}

/// Validates the journal against the session parameters and extracts the
/// resume plan. Floats are compared bitwise — the WAL header echoes them
/// as bits, so any drift in configuration fails loudly instead of
/// replaying against different semantics. A torn final line (a kill
/// mid-append) is cut from the journal once the rest has passed, so the
/// resumed session appends behind the last whole record; a torn header
/// with nothing after it is cut the same way, and the session starts
/// fresh. Corruption anywhere earlier, or a record the session could
/// not have written (see [`record_fits`]), is an error.
fn scan_journal(
    journal: &mut SessionJournal,
    cfg: &ServerConfig,
    k: usize,
    supervised: bool,
) -> Result<ResumePlan, ServerError> {
    let lines = journal.wal_lines().map_err(journal_io)?;
    if lines.is_empty() {
        return Ok(ResumePlan::fresh(cfg.procs));
    }
    let header = match WalRecord::from_line(&lines[0]) {
        // a lone torn header is a kill during the very first append:
        // nothing was committed, so the session starts over
        Err(_) if lines.len() == 1 => {
            journal.cut_torn_tail().map_err(journal_io)?;
            return Ok(ResumePlan::fresh(cfg.procs));
        }
        parsed => parsed.map_err(|e| recovery_err(format!("bad WAL header: {e}")))?,
    };
    let WalRecord::Header(header) = header else {
        return Err(recovery_err("first WAL line is not a header"));
    };
    if header.version != WAL_VERSION {
        return Err(recovery_err(format!(
            "WAL version {} (expected {WAL_VERSION})",
            header.version
        )));
    }
    let matches = header.procs == cfg.procs
        && header.max_steps == cfg.max_steps
        && header.k == k
        && header.seed == cfg.seed
        && header.deadline.to_bits() == cfg.deadline.to_bits()
        && header.max_retries == cfg.max_retries
        && header.backoff.to_bits() == cfg.backoff.to_bits()
        && header.quorum.to_bits() == cfg.quorum.to_bits()
        && header.supervised == supervised;
    if !matches {
        return Err(recovery_err(
            "WAL header does not match this session's configuration",
        ));
    }
    let mut records: Vec<WalRecord> = Vec::with_capacity(lines.len() - 1);
    let last = lines.len() - 1;
    let mut torn = false;
    for (i, line) in lines.iter().enumerate().skip(1) {
        match WalRecord::from_line(line) {
            Ok(WalRecord::Header(_)) => {
                return Err(recovery_err(format!(
                    "unexpected second header at line {i}"
                )))
            }
            Ok(rec) if !record_fits(&rec, cfg.procs) => {
                return Err(recovery_err(format!(
                    "WAL line {i} does not fit a {}-client session",
                    cfg.procs
                )))
            }
            Ok(rec) => records.push(rec),
            // a torn tail is the expected shape of a kill mid-append:
            // the previous commit point is the resume point
            Err(_) if i == last => torn = true,
            Err(e) => return Err(recovery_err(format!("corrupt WAL line {i}: {e}"))),
        }
    }
    let record_batch = |r: &WalRecord| match r {
        WalRecord::Batch(b) => b.batch,
        WalRecord::Exploit(e) => e.batch,
        WalRecord::Header(_) => unreachable!("headers rejected above"),
    };
    let starts = match records.last() {
        None => vec![(0, 0); cfg.procs],
        Some(rec) => {
            let (serials, draws) = match rec {
                WalRecord::Batch(b) => (&b.serials, &b.draws),
                WalRecord::Exploit(e) => (&e.serials, &e.draws),
                WalRecord::Header(_) => unreachable!("headers rejected above"),
            };
            if serials.len() != cfg.procs || draws.len() != cfg.procs {
                return Err(recovery_err("journal meters do not cover every client"));
            }
            serials.iter().copied().zip(draws.iter().copied()).collect()
        }
    };
    let snapshot = match journal.latest_snapshot().map_err(journal_io)? {
        None => None,
        Some((snap_batch, bytes)) => {
            let max_batch = records.iter().map(record_batch).max().unwrap_or(0);
            if snap_batch > max_batch {
                return Err(recovery_err(format!(
                    "snapshot at batch {snap_batch} is ahead of the WAL (last record {max_batch})"
                )));
            }
            records.retain(|r| record_batch(r) > snap_batch);
            Some(bytes)
        }
    };
    if torn {
        journal.cut_torn_tail().map_err(journal_io)?;
    }
    Ok(ResumePlan {
        fresh: false,
        snapshot,
        replay: records,
        starts,
    })
}

/// Whether a parsed record could come from a session with `procs`
/// clients: every client index in range, one `ok` flag per dispatched
/// client, per-round fault counts no larger than the round, and
/// finite, non-negative step times and finite estimates. Replay
/// indexes per-client state with these values, adds the counts to the
/// fleet's and pushes the times onto the trace, so a record that fails
/// is refused, not replayed.
fn record_fits(rec: &WalRecord, procs: usize) -> bool {
    let client = |c: &usize| *c < procs;
    let time = |t: f64| t.is_finite() && t >= 0.0;
    match rec {
        WalRecord::Header(_) => true,
        WalRecord::Batch(b) => {
            b.live.iter().all(client)
                && b.estimates.iter().flatten().all(|v| v.is_finite())
                && b.rounds.iter().all(|r| {
                    time(r.step)
                        && r.ok.len() == r.clients.len()
                        && [r.missed, r.retries, r.abandoned, r.duplicates]
                            .iter()
                            .all(|&n| n <= r.clients.len())
                        && r.clients.iter().all(client)
                        && r.evicted.iter().all(client)
                })
        }
        WalRecord::Exploit(e) => {
            time(e.step)
                && e.live.iter().all(client)
                && e.pre_evicted.iter().all(client)
                && !matches!(e.kind, ExploitKind::Died(c) if c >= procs)
        }
    }
}

/// Cumulative fault counters in the WAL's canonical order.
fn stats_to_array(s: &FaultStats) -> [usize; 6] {
    [
        s.missed_reports,
        s.retries,
        s.abandoned_slots,
        s.duplicate_reports,
        s.evicted_clients,
        s.partial_batches,
    ]
}

fn stats_from_array(a: [usize; 6]) -> FaultStats {
    FaultStats {
        missed_reports: a[0],
        retries: a[1],
        abandoned_slots: a[2],
        duplicate_reports: a[3],
        evicted_clients: a[4],
        partial_batches: a[5],
    }
}

/// Running state of the server's fault handling.
struct Fleet {
    /// Indices of clients still alive, ascending.
    live: Vec<usize>,
    stats: FaultStats,
    /// Per-client progress meters `(serial, rng words)`, updated from
    /// every received event and journaled at each commit point so a
    /// resumed session respawns clients at the exact stream positions
    /// the killed run reached.
    meters: Vec<(usize, u64)>,
}

impl Fleet {
    fn evict(&mut self, client: usize) {
        if let Some(pos) = self.live.iter().position(|&c| c == client) {
            self.live.remove(pos);
            self.stats.evicted_clients += 1;
        }
    }

    /// Folds one received event's progress meters into the fleet.
    /// Events from one client arrive in send order (per-sender FIFO),
    /// so plain assignment is monotonic.
    fn note(&mut self, event: &Event) {
        match *event {
            Event::Report {
                client,
                serial,
                draws,
                ..
            }
            | Event::Lost {
                client,
                serial,
                draws,
                ..
            } => self.meters[client] = (serial, draws),
            Event::Died { .. } => {}
        }
    }

    fn serials(&self) -> Vec<usize> {
        self.meters.iter().map(|&(s, _)| s).collect()
    }

    fn draws(&self) -> Vec<u64> {
        self.meters.iter().map(|&(_, d)| d).collect()
    }
}

/// A batch's `(slot, attempt)` pairs awaiting a round, in the order the
/// rounds take them.
struct SlotQueue {
    slots: VecDeque<(usize, u32)>,
    /// Every queued pair is already in the one live client's channel.
    sent: bool,
}

impl SlotQueue {
    fn new(slots: VecDeque<(usize, u32)>) -> Self {
        SlotQueue { slots, sent: false }
    }
}

/// Emits the terminal `server.*` failure event, closes the session span
/// (auto-closing anything still nested in it), and passes the error
/// through.
fn session_fail(tel: &Telemetry, session: Option<u64>, err: ServerError) -> ServerError {
    if tel.enabled() {
        let name = match &err {
            ServerError::AllClientsDead { .. } => "server.all_dead",
            ServerError::QuorumNotReached { .. } => "server.quorum_fail",
            ServerError::NoObservations => "server.no_observations",
            ServerError::InvalidConfig(_) => "server.invalid_config",
            ServerError::Recovery(_) => "server.recovery_fail",
        };
        tel.event(name, vec![Field::new("error", err.to_string())]);
        if let Some(id) = session {
            tel.span_close(id);
        }
    }
    err
}

/// Emits supervisor breaker transitions in the deterministic order the
/// health tracker produced them, folding trip/recovery counts into the
/// report.
fn emit_transitions(
    tel: &Telemetry,
    transitions: &[harmony_recovery::Transition],
    report: &mut SupervisorReport,
) {
    for t in transitions {
        match t.kind {
            TransitionKind::Open => {
                report.breaker_opens += 1;
                event!(tel, "recovery.breaker_open", client = t.client);
            }
            TransitionKind::HalfOpen => {
                event!(tel, "recovery.breaker_probe", client = t.client);
            }
            TransitionKind::Close => {
                report.breaker_closes += 1;
                event!(tel, "recovery.breaker_close", client = t.client);
            }
        }
    }
}

/// Reduces each point's samples to its estimate (`None` = no sample
/// survived).
fn reduce(estimator: Estimator, samples: &[Vec<f64>]) -> Vec<Option<f64>> {
    samples
        .iter()
        .map(|s| (!s.is_empty()).then(|| estimator.reduce_available(s)))
        .collect()
}

/// The server's end of the reply channel. It hands out the events of
/// every reply one at a time, in the order the clients sent them, so a
/// send-ahead run's events resolve round by round like single reports.
struct Inbox {
    replies: Receiver<Vec<Event>>,
    /// The events of the last reply not yet handed out.
    queued: VecDeque<Event>,
}

impl Inbox {
    /// The next event, or `None` once every client has hung up.
    fn next(&mut self) -> Option<Event> {
        loop {
            if let Some(event) = self.queued.pop_front() {
                return Some(event);
            }
            self.queued = self.replies.recv().ok()?.into();
        }
    }
}

/// The server side of one session: batch scheduling, deadline/retry
/// accounting, optimizer advancement, exploit fill, persistence and
/// supervision.
///
/// Every live round, batch and exploit step builds its WAL record
/// ([`RoundDelta`], [`BatchRecord`], [`ExploitRecord`]) and then takes
/// effect through [`Session::apply_round`], [`Session::commit_batch`]
/// and [`Session::apply_exploit`] — the same functions resume replay
/// calls. The journal only decides whether the record is also appended.
struct Session<'a, O: Objective + ?Sized> {
    cfg: ServerConfig,
    tel: &'a Telemetry,
    /// The `server.session` span, when tracing.
    span: Option<u64>,
    clients: &'a [Sender<Task>],
    inbox: Inbox,
    optimizer: &'a mut dyn Optimizer,
    /// Objectives are deterministic (noise is applied per client), so
    /// memoizing the recommendation probes is exact — the quality curve
    /// and best_true_cost revisit the same points heavily. A shared
    /// cost tier sits between the memo and the probe. Over an exact
    /// table without a shared tier the wrapper passes probes straight
    /// through (see [`CachedObjective`]).
    objective: CachedObjective<'a, O>,
    journal: Option<&'a mut SessionJournal>,
    snapshot_every: u64,
    supervisor: Option<SupervisorConfig>,
    health: Option<HealthTracker>,
    report: SupervisorReport,
    shared: SharedSession<'a>,
    trace: TuningTrace,
    evaluations: usize,
    quality_curve: Vec<(usize, f64)>,
    fleet: Fleet,
    batch_id: u64,
}

impl<'a, O: Objective + ?Sized> Session<'a, O> {
    /// [`session_fail`] for this session.
    fn fail(&self, err: ServerError) -> ServerError {
        session_fail(self.tel, self.span, err)
    }

    /// Restores the resume point, tunes, exploits, and reports.
    fn serve(mut self, resume: &ResumePlan) -> Result<SupervisedOutcome, ServerError> {
        if let Some(bytes) = &resume.snapshot {
            self.restore_snapshot(bytes).map_err(|e| self.fail(e))?;
        }
        for rec in &resume.replay {
            match rec {
                WalRecord::Batch(b) => self.replay_batch(b)?,
                WalRecord::Exploit(e) => self.apply_exploit(e),
                WalRecord::Header(_) => unreachable!("scan_journal rejects stray headers"),
            }
        }
        while self.trace.len() < self.cfg.max_steps && !self.optimizer.converged() {
            if !self.tune_batch()? {
                break;
            }
        }
        let Some((best_point, best_estimate)) = self.optimizer.recommendation() else {
            return Err(self.fail(ServerError::NoObservations));
        };
        let best_true_cost = self.objective.eval(&best_point);
        self.exploit(&best_point)?;

        if let Some(id) = self.span {
            let tel = self.tel;
            tel.set_clock(self.trace.len() as u64);
            event!(
                tel,
                "server.done",
                batches = self.batch_id,
                evaluations = self.evaluations,
                best = best_true_cost,
                evicted = self.fleet.stats.evicted_clients,
                converged = self.optimizer.converged()
            );
            self.objective.emit_telemetry(tel);
            self.trace.emit_telemetry(tel, None);
            // Shared-tier flush contention is scheduling-dependent, so it
            // is excluded from SharedPerfDb::stats and only surfaced here
            // when the caller explicitly opted into the wall channel.
            if tel.wall_enabled() {
                if let Some(db) = self.shared.costs {
                    tel.counter("shareddb.contended", db.stats_contended());
                }
            }
            tel.span_close(id);
        }

        let mut report = self.report;
        report.degraded = report.forced_batches > 0 || report.breaker_opens > 0;
        Ok(SupervisedOutcome {
            outcome: TuningOutcome {
                trace: self.trace,
                steps_budget: self.cfg.max_steps,
                best_point,
                best_estimate,
                best_true_cost,
                converged: self.optimizer.converged(),
                evaluations: self.evaluations,
                quality_curve: self.quality_curve,
                faults: self.fleet.stats,
            },
            supervisor: report,
        })
    }

    /// Runs one optimizer batch live: dispatch rounds until every slot
    /// resolves, salvage below quorum when supervised, then commit.
    /// Returns `false` when the optimizer has nothing left to propose.
    fn tune_batch(&mut self) -> Result<bool, ServerError> {
        let cfg = self.cfg;
        let k = cfg.estimator.samples();
        self.tel.set_clock(self.trace.len() as u64);
        let batch = self.optimizer.propose();
        if batch.is_empty() {
            return Ok(false);
        }
        self.batch_id += 1;
        let mut rounds = Vec::new();
        // flat (point, sample) slots, packed densely over live clients;
        // missed slots requeue with the next attempt number
        let mut pending = SlotQueue::new((0..batch.len() * k).map(|s| (s, 0)).collect());
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(k); batch.len()];
        while !pending.slots.is_empty() {
            if self.fleet.live.is_empty() {
                let step = self.trace.len();
                return Err(self.fail(ServerError::AllClientsDead { step }));
            }
            rounds.push(self.dispatch_round(&batch, &mut pending, &mut samples, false)?);
        }
        let mut estimates = reduce(cfg.estimator, &samples);
        let mut reported = estimates.iter().flatten().count();
        let needed = quorum_needed(batch.len(), cfg.quorum);
        if let (true, Some(sup)) = (reported < needed, self.supervisor) {
            // salvage: re-dispatch each missing point's first sample
            // slot with attempt numbers past the retry budget, so the
            // deadline charge keeps escalating; re-reduce after every
            // salvage round before deciding whether to try again
            for salvage in 0..sup.salvage_retries {
                if reported >= needed || self.fleet.live.is_empty() {
                    break;
                }
                let mut missing = SlotQueue::new(
                    estimates
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.is_none())
                        .map(|(i, _)| (i * k, cfg.max_retries + 1 + salvage))
                        .collect(),
                );
                while !missing.slots.is_empty() && !self.fleet.live.is_empty() {
                    rounds.push(self.dispatch_round(&batch, &mut missing, &mut samples, true)?);
                }
                estimates = reduce(cfg.estimator, &samples);
                reported = estimates.iter().flatten().count();
            }
        }
        let forced = reported < needed && reported > 0 && self.supervisor.is_some();
        if reported < needed && !forced {
            let step = self.trace.len();
            return Err(self.fail(ServerError::QuorumNotReached {
                step,
                reported,
                needed,
            }));
        }
        let partial = !forced && reported < batch.len();
        if partial {
            self.fleet.stats.partial_batches += 1;
        }
        let rec = WalRecord::Batch(BatchRecord {
            batch: self.batch_id,
            estimates,
            rounds,
            partial,
            forced,
            evaluations: self.evaluations,
            live: self.fleet.live.clone(),
            serials: self.fleet.serials(),
            draws: self.fleet.draws(),
            stats: stats_to_array(&self.fleet.stats),
        });
        // write-ahead commit point: the record lands *before* the
        // optimizer advances, so a kill on either side of `observe`
        // replays to the same state
        self.commit(rec, |s, rec| {
            if let WalRecord::Batch(b) = rec {
                s.commit_batch(&batch, b);
            }
        })?;
        self.snapshot_if_due()?;
        Ok(true)
    }

    /// Dispatches the front of `pending` as one round over the live
    /// clients, folds its observations into `samples`, and applies its
    /// record. A tuning round requeues each missed slot with the next
    /// attempt number while retries remain and abandons it after; a
    /// `salvage` round counts every dispatch as a retry and never
    /// requeues.
    ///
    /// With one live client, every slot of `pending` goes to that
    /// client, in queue order: the round sends the whole queue ahead as
    /// one run, and each requeued slot as its own task the moment it is
    /// queued. A batch with no miss then costs one task message and one
    /// reply, where round-at-a-time dispatch costs one of each per slot.
    fn dispatch_round(
        &mut self,
        batch: &[Point],
        pending: &mut SlotQueue,
        samples: &mut [Vec<f64>],
        salvage: bool,
    ) -> Result<RoundDelta, ServerError> {
        let (k, max_retries) = (self.cfg.estimator.samples(), self.cfg.max_retries);
        self.begin_round();
        let mut clients = match &self.health {
            Some(h) => h.dispatch_order(&self.fleet.live),
            None => self.fleet.live.clone(),
        };
        if let (false, &[only]) = (pending.sent, &self.fleet.live[..]) {
            let run = pending
                .slots
                .iter()
                .map(|&(slot, attempt)| (self.assignment(slot, attempt), batch[slot / k].clone()))
                .collect();
            self.send(only, run);
            pending.sent = true;
        }
        let take = clients.len().min(pending.slots.len());
        clients.truncate(take);
        let round: Vec<(usize, u32)> = pending.slots.drain(..take).collect();
        let mut delta = RoundDelta {
            step: 0.0,
            clients,
            ok: Vec::with_capacity(take),
            evicted: Vec::new(),
            missed: 0,
            retries: if salvage { take } else { 0 },
            abandoned: 0,
            duplicates: 0,
        };
        let observed = self
            .run_round(&round, batch, &mut delta, pending.sent)
            .map_err(|e| self.fail(e))?;
        for ((&(slot, attempt), &client), value) in round.iter().zip(&delta.clients).zip(observed) {
            delta.ok.push(value.is_some());
            match value {
                Some(v) => samples[slot / k].push(v),
                None if salvage => delta.missed += 1,
                None if attempt < max_retries => {
                    delta.missed += 1;
                    delta.retries += 1;
                    pending.slots.push_back((slot, attempt + 1));
                    if pending.sent {
                        let assign = self.assignment(slot, attempt + 1);
                        self.send(client, vec![(assign, batch[slot / k].clone())]);
                    }
                }
                None => {
                    delta.missed += 1;
                    delta.abandoned += 1;
                }
            }
        }
        self.apply_round(&delta);
        Ok(delta)
    }

    /// Sends slot `round[i]` to client `delta.clients[i]`, unless the
    /// slots were `sent` ahead, and collects until every assignment
    /// resolves. Returns each slot's observation (`None` = missed) and
    /// fills in the round's barrier time (the worst on-time
    /// observation, each miss charging the backoff-escalated deadline),
    /// its dead clients (ascending) and its matched duplicates.
    ///
    /// A lone client reads its channel in order, so a slot sent ahead
    /// runs with the same task serial — hence the same fault decision
    /// and noise draws — as one sent when its round comes, and the inbox
    /// hands out its report after every event of the slots before it:
    /// each client's event sequence is the one round-at-a-time dispatch
    /// produces, only chunked into one reply per run. The client never
    /// waits on the server inside a run, so the reply always arrives.
    /// If the client crashes, the slots behind the crash never run: the
    /// crash round evicts it and the session ends
    /// [`ServerError::AllClientsDead`] before any of their rounds.
    ///
    /// A round holds at most `procs` assignments, so the outstanding
    /// ones sit in a list scanned linearly.
    fn run_round(
        &mut self,
        round: &[(usize, u32)],
        batch: &[Point],
        delta: &mut RoundDelta,
        sent: bool,
    ) -> Result<Vec<Option<f64>>, ServerError> {
        let cfg = self.cfg;
        let k = cfg.estimator.samples();
        // deadline charge escalates with the attempt number (backoff)
        let charge = |attempt: u32| cfg.deadline * cfg.backoff.powi(attempt as i32);
        let mut outstanding: Vec<(Assignment, usize)> = Vec::with_capacity(round.len());
        // the round position of `assign`, if it is still outstanding
        let resolve = |outstanding: &mut Vec<(Assignment, usize)>, assign: Assignment| {
            let i = outstanding.iter().position(|&(a, _)| a == assign)?;
            Some(outstanding.swap_remove(i).1)
        };
        let mut observed: Vec<Option<f64>> = vec![None; round.len()];
        let mut dead: Vec<usize> = Vec::new();
        let mut t_k = f64::NEG_INFINITY;
        for (pos, (&client, &(slot, attempt))) in delta.clients.iter().zip(round).enumerate() {
            let assign = self.assignment(slot, attempt);
            if !sent && !self.send(client, vec![(assign, batch[slot / k].clone())]) {
                // client thread already gone (defensive: normally Died
                // is seen first) — immediate miss, evict
                dead.push(client);
                t_k = t_k.max(charge(attempt));
                continue;
            }
            outstanding.push((assign, pos));
        }
        while !outstanding.is_empty() {
            let Some(event) = self.inbox.next() else {
                return Err(ServerError::AllClientsDead {
                    step: self.trace.len(),
                });
            };
            self.fleet.note(&event);
            let (assign, value, duplicate) = match event {
                Event::Report {
                    assign,
                    observed,
                    late,
                    duplicate,
                    ..
                } => (assign, (!late).then_some(observed), duplicate && !late),
                Event::Lost { assign, .. } => (assign, None, false),
                Event::Died { client, assign } => {
                    dead.push(client);
                    if resolve(&mut outstanding, assign).is_some() {
                        t_k = t_k.max(charge(assign.attempt));
                    }
                    continue;
                }
            };
            // a non-outstanding assignment is a stale or extra copy of an
            // already-resolved one: de-duplicated by the (batch, slot,
            // attempt) key and discarded silently
            if let Some(pos) = resolve(&mut outstanding, assign) {
                self.evaluations += 1;
                // counted on the matched copy: the extra copy may or may
                // not ever be read (it can still be in flight at
                // shutdown), so counting discarded copies would make the
                // statistic scheduling-dependent
                delta.duplicates += usize::from(duplicate);
                t_k = t_k.max(value.unwrap_or_else(|| charge(assign.attempt)));
                observed[pos] = value;
            }
        }
        delta.step = t_k;
        delta.evicted = self
            .fleet
            .live
            .iter()
            .copied()
            .filter(|c| dead.contains(c))
            .collect();
        Ok(observed)
    }

    /// The current batch's assignment of `slot`, try `attempt`.
    fn assignment(&self, slot: usize, attempt: u32) -> Assignment {
        Assignment {
            batch: self.batch_id,
            slot,
            attempt,
        }
    }

    /// Sends `run` to `client` as one task; `false` when the client's
    /// thread is gone. A send ahead of its round ignores the result:
    /// a thread that is gone crashed on an earlier task of the same
    /// channel, whose round evicts it first.
    fn send(&self, client: usize, run: Vec<(Assignment, Point)>) -> bool {
        self.clients[client].send(Task::Run(run)).is_ok()
    }

    /// Advances the breaker clock at the start of a dispatch round
    /// (supervised sessions only), emitting any cooldown expiries.
    fn begin_round(&mut self) {
        if let Some(h) = self.health.as_mut() {
            self.tel.set_clock(self.trace.len() as u64);
            let ts = h.begin_round();
            emit_transitions(self.tel, &ts, &mut self.report);
        }
    }

    /// Applies one dispatch round, live or replayed: evicts its dead
    /// clients, folds its fault counters into the fleet, pushes its
    /// barrier time, and emits its fault handling in canonical order —
    /// evictions ascending by client index, then the miss, retry,
    /// abandon and duplicate counts. Client events arrive in
    /// scheduling-dependent order, so deriving the emission from the
    /// record is what keeps traces byte-identical across runs. Then the
    /// breakers see each dispatched client's result, and the round's
    /// time becomes a `server.step_time` sample.
    fn apply_round(&mut self, r: &RoundDelta) {
        let tel = self.tel;
        for &c in &r.evicted {
            self.fleet.evict(c);
        }
        let stats = &mut self.fleet.stats;
        stats.missed_reports += r.missed;
        stats.retries += r.retries;
        stats.abandoned_slots += r.abandoned;
        stats.duplicate_reports += r.duplicates;
        self.report.min_width = self.report.min_width.min(r.clients.len());
        self.trace
            .push(r.step)
            .expect("a round time is a noise-model draw or a WAL time record_fits checked");
        tel.set_clock(self.trace.len() as u64);
        for &c in &r.evicted {
            event!(tel, "server.evict", client = c);
        }
        if r.missed > 0 {
            event!(tel, "server.miss", count = r.missed);
        }
        if r.retries > 0 {
            event!(tel, "server.retry", count = r.retries);
        }
        if r.abandoned > 0 {
            event!(tel, "server.abandon", count = r.abandoned);
        }
        if r.duplicates > 0 {
            tel.counter("server.duplicate_reports", r.duplicates as u64);
        }
        if let Some(h) = self.health.as_mut() {
            let ts: Vec<_> = r
                .clients
                .iter()
                .zip(&r.ok)
                .filter_map(|(&c, &ok)| h.record(c, ok))
                .collect();
            emit_transitions(tel, &ts, &mut self.report);
        }
        if tel.enabled() {
            tel.sample("server.step_time", r.step);
        }
    }

    /// Replays one journaled batch: re-proposes it, applies its rounds,
    /// and commits it.
    fn replay_batch(&mut self, b: &BatchRecord) -> Result<(), ServerError> {
        self.tel.set_clock(self.trace.len() as u64);
        let batch = self.optimizer.propose();
        if batch.len() != b.estimates.len() {
            return Err(self.fail(recovery_err(format!(
                "replayed batch {} proposes {} points, WAL has {}",
                b.batch,
                batch.len(),
                b.estimates.len()
            ))));
        }
        for round in &b.rounds {
            self.begin_round();
            self.apply_round(round);
        }
        self.commit_batch(&batch, b);
        Ok(())
    }

    /// Commits one batch, live or replayed: restores the session
    /// cursors the record carries, samples its estimates as
    /// `server.estimate`, publishes them into the shared estimate tier,
    /// advances the optimizer (`observe` for a complete batch,
    /// `observe_partial` for a partial or forced one), and pushes the
    /// recommendation's true cost onto the quality curve.
    fn commit_batch(&mut self, batch: &[Point], b: &BatchRecord) {
        let tel = self.tel;
        self.batch_id = b.batch;
        self.evaluations = b.evaluations;
        self.fleet.live.clone_from(&b.live);
        self.fleet.stats = stats_from_array(b.stats);
        let reported = b.estimates.iter().flatten().count();
        if tel.enabled() {
            for v in b.estimates.iter().flatten() {
                tel.sample("server.estimate", *v);
            }
        }
        if let Some(db) = self.shared.estimates {
            for (p, v) in batch.iter().zip(&b.estimates) {
                if let Some(v) = v {
                    db.record(p, *v);
                }
            }
        }
        if b.forced {
            self.report.forced_batches += 1;
            event!(
                tel,
                "recovery.forced_partial",
                reported = reported,
                total = batch.len()
            );
            self.optimizer.observe_partial(&b.estimates);
        } else if reported == batch.len() {
            let complete: Vec<f64> = b.estimates.iter().flatten().copied().collect();
            self.optimizer.observe(&complete);
        } else {
            event!(
                tel,
                "server.partial_batch",
                reported = reported,
                total = batch.len()
            );
            self.optimizer.observe_partial(&b.estimates);
        }
        event!(
            tel,
            "server.batch",
            batch = self.batch_id,
            points = batch.len(),
            steps = self.trace.len(),
            live = self.fleet.live.len()
        );
        if let Some((rec, _)) = self.optimizer.recommendation() {
            let q = self.objective.eval(&rec);
            self.quality_curve.push((self.trace.len(), q));
        }
    }

    /// Exploit phase: one live client keeps running the tuned
    /// configuration until the step budget is spent; if it dies the next
    /// live client takes over.
    ///
    /// Every remaining step is sent to the runner as one run, each
    /// under the batch id its step will carry; the runner answers with
    /// one reply, and the steps still resolve one by one in order. This
    /// is exact: the exploit never consults the health tracker, only a
    /// `Died` report changes the runner, and a dead runner runs none of
    /// the steps behind its crash, so the next live client is sent every
    /// step from the crash on as another run. An exploit phase costs
    /// one message each way per runner.
    fn exploit(&mut self, best: &Point) -> Result<(), ServerError> {
        let deadline = self.cfg.deadline;
        let mut pre_evicted: Vec<usize> = Vec::new();
        // the runner that holds every remaining step
        let mut sent_to = None;
        while self.trace.len() < self.cfg.max_steps {
            let step = self.trace.len();
            let Some(&runner) = self.fleet.live.first() else {
                return Err(self.fail(ServerError::AllClientsDead { step }));
            };
            self.tel.set_clock(step as u64);
            self.batch_id += 1;
            let assign = self.assignment(0, 0);
            if sent_to != Some(runner) {
                let run = (0..(self.cfg.max_steps - step) as u64)
                    .map(|ahead| {
                        let batch = assign.batch + ahead;
                        (Assignment { batch, ..assign }, best.clone())
                    })
                    .collect();
                if !self.send(runner, run) {
                    self.fleet.evict(runner);
                    pre_evicted.push(runner);
                    continue;
                }
                sent_to = Some(runner);
            }
            let (kind, duplicate, t_k) = loop {
                let Some(event) = self.inbox.next() else {
                    return Err(self.fail(ServerError::AllClientsDead { step }));
                };
                self.fleet.note(&event);
                let stats = &mut self.fleet.stats;
                match event {
                    Event::Report {
                        assign: a,
                        observed,
                        late,
                        duplicate,
                        ..
                    } if a == assign => {
                        stats.duplicate_reports += usize::from(duplicate);
                        if late {
                            stats.missed_reports += 1;
                            break (ExploitKind::Late, duplicate, deadline);
                        }
                        break (ExploitKind::OnTime, duplicate, observed);
                    }
                    Event::Lost { assign: a, .. } if a == assign => {
                        stats.missed_reports += 1;
                        break (ExploitKind::Lost, false, deadline);
                    }
                    Event::Died { client, assign: a } if a == assign => {
                        stats.missed_reports += 1;
                        self.fleet.evict(client);
                        break (ExploitKind::Died(client), false, deadline);
                    }
                    _ => {} // stale or extra copy: discard silently
                }
            };
            let rec = WalRecord::Exploit(ExploitRecord {
                batch: self.batch_id,
                step: t_k,
                pre_evicted: std::mem::take(&mut pre_evicted),
                duplicate,
                kind,
                live: self.fleet.live.clone(),
                serials: self.fleet.serials(),
                draws: self.fleet.draws(),
                stats: stats_to_array(&self.fleet.stats),
            });
            self.commit(rec, |s, rec| {
                if let WalRecord::Exploit(e) = rec {
                    s.apply_exploit(e);
                }
            })?;
        }
        Ok(())
    }

    /// Applies one exploit step, live or replayed: emits its fault
    /// handling, pushes its time, and restores the session cursors the
    /// record carries.
    fn apply_exploit(&mut self, e: &ExploitRecord) {
        let tel = self.tel;
        tel.set_clock(self.trace.len() as u64);
        for &c in &e.pre_evicted {
            event!(tel, "server.evict", client = c);
        }
        if e.duplicate {
            tel.counter("server.duplicate_reports", 1);
        }
        match e.kind {
            ExploitKind::OnTime => {}
            ExploitKind::Late | ExploitKind::Lost => {
                event!(tel, "server.miss", count = 1usize);
            }
            ExploitKind::Died(c) => {
                event!(tel, "server.evict", client = c);
                event!(tel, "server.miss", count = 1usize);
            }
        }
        self.batch_id = e.batch;
        self.trace
            .push(e.step)
            .expect("an exploit time is a noise-model draw or a WAL time record_fits checked");
        self.fleet.live.clone_from(&e.live);
        self.fleet.stats = stats_from_array(e.stats);
    }

    /// Appends `rec` to the journal, when the session has one, and then
    /// applies it through `apply` (see [`SessionJournal::append_record`]).
    fn commit(
        &mut self,
        rec: WalRecord,
        apply: impl FnOnce(&mut Self, &WalRecord),
    ) -> Result<(), ServerError> {
        let Some(journal) = self.journal.take() else {
            apply(self, &rec);
            return Ok(());
        };
        let appended = journal.append_record(rec, |rec| apply(self, rec));
        self.journal = Some(journal);
        appended.map_err(|e| self.fail(journal_io(e)))
    }

    /// Takes a snapshot when one is due on a journaled session with a
    /// checkpointable optimizer.
    fn snapshot_if_due(&mut self) -> Result<(), ServerError> {
        let every = self.snapshot_every;
        if every == 0 || !self.batch_id.is_multiple_of(every) || self.journal.is_none() {
            return Ok(());
        }
        let Some(bytes) = self.save_snapshot() else {
            return Ok(());
        };
        let batch = self.batch_id;
        match self
            .journal
            .as_deref_mut()
            .map(|j| j.put_snapshot(batch, &bytes))
        {
            Some(Err(e)) => Err(self.fail(journal_io(e))),
            _ => Ok(()),
        }
    }

    /// Serialises the full mid-session state at a batch boundary:
    /// session progress, the optimizer, the objective memo, and (when
    /// supervised) the health tracker. `None` when the optimizer is not
    /// checkpointable.
    fn save_snapshot(&self) -> Option<Vec<u8>> {
        let ckpt = self.optimizer.as_checkpoint()?;
        let mut w = StateWriter::new();
        w.tag("session");
        w.u64(self.batch_id);
        w.f64_slice(self.trace.step_times());
        w.usize(self.evaluations);
        w.usize(self.quality_curve.len());
        for &(step, q) in &self.quality_curve {
            w.usize(step);
            w.f64(q);
        }
        w.usize_slice(&self.fleet.live);
        w.usize_slice(&stats_to_array(&self.fleet.stats));
        ckpt.save_state(&mut w);
        self.objective.save_state(&mut w);
        w.bool(self.health.is_some());
        if let Some(h) = &self.health {
            h.save_state(&mut w);
        }
        Some(w.into_bytes())
    }

    /// Mirror of [`Session::save_snapshot`]: restores the session state
    /// in place.
    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), ServerError> {
        let snap = |e: harmony_recovery::CodecError| recovery_err(format!("snapshot: {e}"));
        let mut r = StateReader::new(bytes).map_err(snap)?;
        r.tag("session").map_err(snap)?;
        self.batch_id = r.u64().map_err(snap)?;
        for t_k in r.f64_vec().map_err(snap)? {
            self.trace
                .push(t_k)
                .map_err(|e| recovery_err(format!("snapshot trace: {e}")))?;
        }
        self.evaluations = r.usize().map_err(snap)?;
        let n = r.usize().map_err(snap)?;
        self.quality_curve.clear();
        for _ in 0..n {
            let step = r.usize().map_err(snap)?;
            let q = r.f64().map_err(snap)?;
            self.quality_curve.push((step, q));
        }
        // the bytes come from disk: a live list the session could not
        // have written would index `clients` out of bounds later
        let live = r.usize_vec().map_err(snap)?;
        if !live.windows(2).all(|w| w[0] < w[1]) || live.last() >= Some(&self.cfg.procs) {
            return Err(recovery_err(format!(
                "snapshot live clients {live:?} are not ascending indices below {}",
                self.cfg.procs
            )));
        }
        self.fleet.live = live;
        let stats: [usize; 6] = r
            .usize_vec()
            .map_err(snap)?
            .try_into()
            .map_err(|_| recovery_err("snapshot stats arity"))?;
        self.fleet.stats = stats_from_array(stats);
        self.optimizer
            .as_checkpoint_mut()
            .ok_or_else(|| recovery_err("optimizer is not checkpointable"))?
            .restore_state(&mut r)
            .map_err(snap)?;
        self.objective.restore_state(&mut r).map_err(snap)?;
        let has_health = r.bool().map_err(snap)?;
        match (has_health, self.health.as_mut()) {
            (true, Some(h)) => h.restore_state(&mut r).map_err(snap)?,
            (false, None) => {}
            _ => return Err(recovery_err("snapshot supervision flag mismatch")),
        }
        r.finish().map_err(snap)
    }
}

/// The number of surviving estimates a batch of `n` points needs to
/// advance the optimizer: `max(1, ceil(quorum·n))`.
fn quorum_needed(n: usize, quorum: f64) -> usize {
    ((quorum * n as f64).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro::ProOptimizer;
    use harmony_params::{ParamDef, ParamSpace};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -15, 15, 1).unwrap(),
            ParamDef::integer("y", -15, 15, 1).unwrap(),
        ])
        .unwrap()
    }

    fn bowl() -> FnObjective<impl Fn(&Point) -> f64 + Sync> {
        FnObjective::new("bowl", space(), |p| 1.5 + 0.1 * (p[0] * p[0] + p[1] * p[1]))
    }

    fn cfg(estimator: Estimator, steps: usize, procs: usize) -> ServerConfig {
        ServerConfig::new(procs, steps, estimator, 42).unwrap()
    }

    /// [`run_session`] returning only the tuning outcome.
    fn outcome<O: Objective + Sync + ?Sized>(
        obj: &O,
        noise: &Noise,
        opt: &mut dyn Optimizer,
        config: ServerConfig,
        opts: SessionOptions<'_>,
    ) -> Result<TuningOutcome, ServerError> {
        run_session(obj, noise, opt, config, opts).map(|s| s.outcome)
    }

    /// Options injecting `plan` and nothing else.
    fn faults(plan: FaultPlan) -> SessionOptions<'static> {
        SessionOptions {
            plan,
            ..SessionOptions::default()
        }
    }

    /// Options injecting `plan` under tracing into `tel`.
    fn traced(plan: FaultPlan, tel: &harmony_telemetry::Telemetry) -> SessionOptions<'static> {
        SessionOptions {
            plan,
            telemetry: tel.clone(),
            ..SessionOptions::default()
        }
    }

    /// Options injecting `plan` with `journal` attached.
    fn journaled(
        plan: FaultPlan,
        journal: &mut SessionJournal,
        recovery: RecoveryConfig,
    ) -> SessionOptions<'_> {
        SessionOptions {
            plan,
            journal: Some(journal),
            recovery,
            ..SessionOptions::default()
        }
    }

    /// Options injecting `plan` under the default supervisor.
    fn supervised(plan: FaultPlan) -> SessionOptions<'static> {
        SessionOptions {
            plan,
            supervisor: Some(SupervisorConfig::default()),
            ..SessionOptions::default()
        }
    }

    #[test]
    fn distributed_session_finds_optimum() {
        let obj = bowl();
        let mut opt = ProOptimizer::with_defaults(space());
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 80, 8),
            SessionOptions::default(),
        )
        .unwrap();
        assert!(out.converged);
        assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
        assert_eq!(out.best_true_cost, 1.5);
        assert!(out.trace.len() >= 80);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn deterministic_given_seed() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let run = || {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &obj,
                &noise,
                &mut opt,
                cfg(Estimator::MinOfK(2), 60, 4),
                SessionOptions::default(),
            )
            .unwrap()
            .total_time()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_session_outcome_is_bit_identical() {
        // the shared cost tier substitutes deterministic true costs, so
        // attaching it — cold or fully warm — must not change a single
        // bit of the outcome, only how many probes reached the objective
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let config = || cfg(Estimator::MinOfK(2), 60, 4);
        let baseline = {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(&obj, &noise, &mut opt, config(), SessionOptions::default()).unwrap()
        };
        let costs = SharedPerfDb::new(space(), 4);
        let estimates = SharedPerfDb::new(space(), 4);
        let shared_run = || {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &obj,
                &noise,
                &mut opt,
                config(),
                SessionOptions {
                    shared: SharedSession::new(&costs, &estimates),
                    ..SessionOptions::default()
                },
            )
            .unwrap()
        };
        let cold = shared_run();
        assert_eq!(cold, baseline);
        // make the first session's probes visible, then rerun warm
        costs.flush();
        estimates.flush();
        assert!(!costs.is_empty());
        assert!(!estimates.is_empty());
        let hits_before = costs.stats().hits;
        let warm = shared_run();
        assert_eq!(warm, baseline);
        assert!(
            costs.stats().hits > hits_before,
            "warm session never hit the shared tier"
        );
        // published estimates give later sessions a warm-start center
        assert!(crate::warm_start_center(&estimates).is_some());
    }

    #[test]
    fn only_measured_estimates_reach_the_estimate_tier() {
        // partial batches are completed with synthetic fills inside the
        // optimizer; the tier must see exactly the journaled estimates
        for seed in [3, 11, 29] {
            let tier = SharedPerfDb::new(space(), 4);
            let mut journal = SessionJournal::in_memory();
            let mut opt = ProOptimizer::with_defaults(space());
            let opts = SessionOptions {
                plan: FaultPlan::new(seed, 0.0, 0.0, 0.5, 0.0),
                journal: Some(&mut journal),
                shared: SharedSession {
                    costs: None,
                    estimates: Some(&tier),
                },
                ..SessionOptions::default()
            };
            let config = cfg(Estimator::Single, 60, 8);
            let out = outcome(&bowl(), &Noise::paper_default(0.2), &mut opt, config, opts).unwrap();
            assert!(out.faults.partial_batches > 0, "seed {seed}");
            let measured: Vec<f64> = journal.wal_lines().unwrap()[1..]
                .iter()
                .filter_map(|l| match WalRecord::from_line(l).unwrap() {
                    WalRecord::Batch(b) => Some(b.estimates),
                    _ => None,
                })
                .flatten()
                .flatten()
                .collect();
            assert_eq!(tier.stats().records, measured.len() as u64, "seed {seed}");
            tier.flush();
            for (p, v) in tier.entries_canonical() {
                assert!(
                    measured.iter().any(|m| m.to_bits() == v.to_bits()),
                    "seed {seed}: {v} at {p:?} was never measured"
                );
            }
        }
    }

    #[test]
    fn free_parallel_multisampling() {
        // §5.2: with plenty of processors, K samples cost no extra steps.
        // The 2-D symmetric simplex proposes 4 points; with 64 clients a
        // K=10 batch still fits one step, so the converged trace length
        // matches the K=1 run's.
        let obj = bowl();
        let steps = |est: Estimator| {
            let mut opt = ProOptimizer::with_defaults(space());
            let out = outcome(
                &obj,
                &Noise::None,
                &mut opt,
                cfg(est, 50, 64),
                SessionOptions::default(),
            )
            .unwrap();
            out.evaluations
        };
        let e1 = steps(Estimator::Single);
        let e10 = steps(Estimator::MinOfK(10));
        assert!(e10 >= 9 * e1, "e1={e1} e10={e10}");
        // both sessions converged within the same step budget
    }

    #[test]
    fn fewer_procs_than_batch_splits_steps() {
        let obj = bowl();
        let mut opt = ProOptimizer::with_defaults(space());
        // 4-point batches on 2 clients: every batch takes 2 steps
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 30, 2),
            SessionOptions::default(),
        )
        .unwrap();
        assert!(out.trace.len() >= 30);
        assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn noisy_distributed_session_stays_reasonable() {
        let obj = bowl();
        let noise = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        let mut opt = ProOptimizer::with_defaults(space());
        let out = outcome(
            &obj,
            &noise,
            &mut opt,
            cfg(Estimator::MinOfK(5), 100, 32),
            SessionOptions::default(),
        )
        .unwrap();
        // heavy noise, but min-of-5 keeps the chosen point decent
        assert!(out.best_true_cost < 4.0, "true={}", out.best_true_cost);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert!(matches!(
            ServerConfig::new(0, 10, Estimator::Single, 1),
            Err(ServerError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServerConfig::new(4, 0, Estimator::Single, 1),
            Err(ServerError::InvalidConfig(_))
        ));
        let bad_quorum = ServerConfig {
            quorum: 1.5,
            ..cfg(Estimator::Single, 10, 4)
        };
        assert!(bad_quorum.validated().is_err());
        let bad_deadline = ServerConfig {
            deadline: f64::NAN,
            ..cfg(Estimator::Single, 10, 4)
        };
        assert!(bad_deadline.validated().is_err());
        let bad_backoff = ServerConfig {
            backoff: 0.5,
            ..cfg(Estimator::Single, 10, 4)
        };
        assert!(bad_backoff.validated().is_err());
    }

    #[test]
    fn all_crashed_clients_is_a_typed_error() {
        let obj = bowl();
        let mut opt = ProOptimizer::with_defaults(space());
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0);
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 4),
            faults(plan),
        );
        assert!(matches!(out, Err(ServerError::AllClientsDead { .. })));
    }

    #[test]
    fn total_report_loss_fails_quorum() {
        let obj = bowl();
        let mut opt = ProOptimizer::with_defaults(space());
        // every report is dropped: slots exhaust retries, no estimates
        let plan = FaultPlan::new(5, 0.0, 0.0, 1.0, 0.0);
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 8),
            faults(plan),
        );
        assert!(matches!(out, Err(ServerError::QuorumNotReached { .. })));
    }

    #[test]
    fn session_survives_crashes_by_evicting() {
        let obj = bowl();
        let mut opt = ProOptimizer::with_defaults(space());
        // half the clients crash early; the session degrades and finishes
        let plan = FaultPlan::new(12, 0.5, 0.0, 0.0, 0.0);
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 80, 16),
            faults(plan),
        )
        .expect("session survives partial crashes");
        assert!(out.faults.evicted_clients > 0);
        assert!(out.trace.len() >= 80);
        assert!(out.best_true_cost < 4.0, "true={}", out.best_true_cost);
    }

    #[test]
    fn duplicates_are_deduplicated_and_harmless() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let run = |dup: f64| {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &obj,
                &noise,
                &mut opt,
                cfg(Estimator::MinOfK(2), 60, 4),
                faults(FaultPlan::new(9, 0.0, 0.0, 0.0, dup)),
            )
            .expect("duplicate-only plan cannot kill a session")
        };
        let clean = run(0.0);
        let dup = run(1.0);
        assert!(dup.faults.duplicate_reports > 0);
        // identical tuning: duplicates change nothing but the counter
        assert_eq!(clean.trace, dup.trace);
        assert_eq!(clean.best_point, dup.best_point);
        assert_eq!(clean.evaluations, dup.evaluations);
    }

    #[test]
    fn hangs_charge_the_deadline_and_retry() {
        let obj = bowl();
        let run = |hang: f64| {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &obj,
                &Noise::None,
                &mut opt,
                cfg(Estimator::Single, 40, 8),
                faults(FaultPlan::new(17, 0.0, hang, 0.0, 0.0)),
            )
            .expect("moderate hang rate survivable")
        };
        let clean = run(0.0);
        let hung = run(0.25);
        assert!(hung.faults.missed_reports > 0);
        assert!(hung.faults.retries > 0);
        // misses charge the deadline, so the degraded run is honestly slower
        assert!(hung.total_time() > clean.total_time());
    }

    #[test]
    fn fault_free_resilient_run_matches_run_distributed() {
        let obj = bowl();
        let noise = Noise::paper_default(0.3);
        let config = cfg(Estimator::MinOfK(2), 70, 6);
        let mut opt_a = ProOptimizer::with_defaults(space());
        let a = outcome(&obj, &noise, &mut opt_a, config, SessionOptions::default()).unwrap();
        // a zero-rate plan injects nothing, whatever its seed
        let mut opt_b = ProOptimizer::with_defaults(space());
        let quiet = FaultPlan::new(5, 0.0, 0.0, 0.0, 0.0);
        let b = outcome(&obj, &noise, &mut opt_b, config, faults(quiet)).unwrap();
        assert_eq!(a, b);
        assert!(b.faults.is_clean());
    }

    #[test]
    fn traced_session_matches_untraced_and_counts_faults() {
        let obj = bowl();
        let plan = FaultPlan::new(12, 0.5, 0.0, 0.0, 0.0);
        let config = cfg(Estimator::Single, 80, 16);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&obj, &Noise::None, &mut plain_opt, config, faults(plan)).unwrap();

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut traced_opt = ProOptimizer::with_defaults(space());
        let traced = outcome(
            &obj,
            &Noise::None,
            &mut traced_opt,
            config,
            traced(plan, &tel),
        )
        .unwrap();

        assert_eq!(plain, traced, "telemetry must not perturb the session");
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.span_count("server.session"), Some(1));
        assert_eq!(
            summary.event_count("server.evict"),
            Some(traced.faults.evicted_clients as u64)
        );
        assert_eq!(summary.event_count("server.done"), Some(1));
        assert!(summary.event_count("server.batch").unwrap() > 0);
    }

    #[test]
    fn failed_traced_session_emits_terminal_event() {
        let obj = bowl();
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0);
        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 4),
            traced(plan, &tel),
        );
        assert!(matches!(out, Err(ServerError::AllClientsDead { .. })));
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.event_count("server.all_dead"), Some(1));
        // the terminal path closed the session span
        assert_eq!(summary.span_count("server.session"), Some(1));
    }

    /// Drives one client loop on this thread over `tasks` (sent before
    /// the loop starts) and returns its replies and how many times it
    /// evaluated the objective.
    fn drive_client(plan: FaultPlan, noise: &Noise, tasks: Vec<Task>) -> (Vec<Vec<Event>>, usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evals = AtomicUsize::new(0);
        let obj = FnObjective::new("counted", space(), |p: &Point| {
            evals.fetch_add(1, Ordering::Relaxed);
            1.5 + 0.1 * (p[0] * p[0] + p[1] * p[1])
        });
        let (task_tx, task_rx) = channel();
        let (reply_tx, replies) = channel();
        for task in tasks {
            task_tx.send(task).unwrap();
        }
        // hung up, so a loop that runs past its end returns rather than
        // blocking
        drop(task_tx);
        client_loop(0, task_rx, reply_tx, &obj, noise, 42, &plan, (0, 0), None);
        (replies.try_iter().collect(), evals.load(Ordering::Relaxed))
    }

    fn slot_task(slot: usize) -> (Assignment, Point) {
        let assign = Assignment {
            batch: 1,
            slot,
            attempt: 0,
        };
        (assign, Point::new(vec![slot as f64, 1.0]))
    }

    #[test]
    fn client_answers_a_run_with_one_reply_that_ends_at_a_crash() {
        // a plan whose client 0 crashes mid-list, after at least one
        // duplicated and one on-time report
        let crash_plan = |seed| {
            let plan = FaultPlan::new(seed, 1.0, 0.0, 0.0, 0.5);
            let c = plan.crash_point(0)?;
            let fates: Vec<Delivery> = (0..c).map(|s| plan.delivery(0, s)).collect();
            (c < 10 && fates.contains(&Delivery::Duplicated) && fates.contains(&Delivery::OnTime))
                .then_some((plan, c))
        };
        let (plan, crash) = (0..).find_map(crash_plan).unwrap();
        let noise = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        let run: Vec<_> = (0..crash + 3).map(slot_task).collect();
        let tasks = vec![Task::Run(run), Task::Run(vec![slot_task(99)])];
        let (replies, evals) = drive_client(plan, &noise, tasks);
        assert_eq!(evals, crash, "nothing runs at or after the crash");
        let [events] = &replies[..] else {
            panic!("one reply for the run and none for the task behind it");
        };

        // the meters a client that runs `crash` tasks reaches
        let mut rng = CountingRng::new(seeded_rng(stream_seed(42, 1)));
        let mut expected = Vec::new();
        for s in 0..crash {
            let cost = 1.5 + 0.1 * (s * s + 1) as f64;
            let observed = noise.observe(cost, &mut rng);
            let copies = match plan.delivery(0, s) {
                Delivery::Duplicated => 2,
                _ => 1,
            };
            for _ in 0..copies {
                expected.push((s, observed, s + 1, rng.draws()));
            }
        }
        let (last, reports) = events.split_last().unwrap();
        assert!(
            matches!(last, Event::Died { client: 0, assign } if assign.slot == crash),
            "the reply ends with the crash"
        );
        let got: Vec<_> = reports
            .iter()
            .map(|e| match *e {
                Event::Report {
                    assign,
                    observed,
                    late: false,
                    duplicate,
                    client: 0,
                    serial,
                    draws,
                } => {
                    let copies = plan.delivery(0, assign.slot) == Delivery::Duplicated;
                    assert_eq!(duplicate, copies, "slot {}", assign.slot);
                    (assign.slot, observed, serial, draws)
                }
                _ => panic!("an on-time or duplicated report before the crash"),
            })
            .collect();
        assert_eq!(got, expected, "one report per delivery, two per duplicate");
    }

    #[test]
    fn stop_behind_a_run_ends_the_client_loop() {
        let run: Vec<_> = (0..5).map(slot_task).collect();
        let tasks = vec![Task::Run(run), Task::Stop, Task::Run(vec![slot_task(7)])];
        let (replies, evals) = drive_client(FaultPlan::none(), &Noise::None, tasks);
        assert_eq!(evals, 5, "the task behind Stop never runs");
        let [events] = &replies[..] else {
            panic!("one reply for the run");
        };
        let serials: Vec<_> = events
            .iter()
            .map(|e| match *e {
                Event::Report { assign, serial, .. } => (assign.slot, serial),
                _ => panic!("fault-free reports only"),
            })
            .collect();
        assert_eq!(serials, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn quorum_needed_rule() {
        assert_eq!(quorum_needed(4, 0.5), 2);
        assert_eq!(quorum_needed(5, 0.5), 3);
        assert_eq!(quorum_needed(4, 0.0), 1);
        assert_eq!(quorum_needed(4, 1.0), 4);
        assert_eq!(quorum_needed(1, 0.5), 1);
    }

    /// An optimizer that never proposes: the session observes nothing.
    struct NeverProposes(ParamSpace);

    impl Optimizer for NeverProposes {
        fn space(&self) -> &ParamSpace {
            &self.0
        }
        fn propose(&mut self) -> Vec<Point> {
            Vec::new()
        }
        fn observe(&mut self, _: &[f64]) {}
        fn best(&self) -> Option<(Point, f64)> {
            None
        }
        fn name(&self) -> &str {
            "never-proposes"
        }
    }

    #[test]
    fn no_observations_is_a_typed_error() {
        let obj = bowl();
        let mut opt = NeverProposes(space());
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 10, 2),
            faults(FaultPlan::none()),
        );
        assert!(matches!(out, Err(ServerError::NoObservations)));
    }

    #[test]
    fn fresh_recoverable_run_matches_resilient_and_journals() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let config = cfg(Estimator::MinOfK(2), 60, 8);
        let plan = FaultPlan::new(12, 0.4, 0.0, 0.0, 0.0);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&obj, &noise, &mut plain_opt, config, faults(plan)).unwrap();

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let journaled = outcome(
            &obj,
            &noise,
            &mut opt,
            config,
            journaled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        assert_eq!(plain, journaled, "journalling must not perturb the session");
        let lines = journal.wal_lines().unwrap();
        assert!(lines[0].starts_with("{\"t\":\"hdr\""));
        assert!(lines.len() > 1, "batches were journalled");
    }

    #[test]
    fn resume_from_every_kill_point_is_identical() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 40, 8);
        let plan = FaultPlan::new(12, 0.3, 0.0, 0.2, 0.0);

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            config,
            journaled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        let records = journal.wal_lines().unwrap().len() - 1;
        assert!(records > 2, "session committed several records");
        for kill in 0..=records {
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            let mut opt = ProOptimizer::with_defaults(space());
            let resumed = outcome(
                &obj,
                &Noise::None,
                &mut opt,
                config,
                journaled(plan, &mut part, RecoveryConfig::default()),
            )
            .unwrap();
            assert_eq!(
                full, resumed,
                "kill after record {kill} must resume exactly"
            );
        }
    }

    #[test]
    fn wal_only_resume_re_emits_identical_telemetry() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::new(7, 0.3, 0.0, 0.0, 0.0);

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            config,
            SessionOptions {
                telemetry: tel.clone(),
                ..journaled(plan, &mut journal, RecoveryConfig::default())
            },
        )
        .unwrap();
        let full_records = sink.take();

        let mut part = journal.clone();
        assert_eq!(part.truncate_records(3).unwrap(), 3);
        let (tel2, sink2) = harmony_telemetry::Telemetry::memory();
        let mut opt2 = ProOptimizer::with_defaults(space());
        let resumed = outcome(
            &obj,
            &Noise::None,
            &mut opt2,
            config,
            SessionOptions {
                telemetry: tel2.clone(),
                ..journaled(plan, &mut part, RecoveryConfig::default())
            },
        )
        .unwrap();

        assert_eq!(full, resumed);
        assert_eq!(
            full_records,
            sink2.take(),
            "WAL-only resume must replay the exact telemetry stream"
        );
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_outcome() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 40, 8);
        let plan = FaultPlan::new(12, 0.3, 0.0, 0.2, 0.0);
        let recovery = RecoveryConfig { snapshot_every: 2 };

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            config,
            journaled(plan, &mut journal, recovery),
        )
        .unwrap();

        let (wal_bytes, snap_bytes) = journal.size_bytes().unwrap();
        assert!(wal_bytes > 0 && snap_bytes > 0, "snapshots were taken");
        let records = journal.wal_lines().unwrap().len() - 1;
        for kill in (0..=records).step_by(3) {
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            let mut opt = ProOptimizer::with_defaults(space());
            let resumed = outcome(
                &obj,
                &Noise::None,
                &mut opt,
                config,
                journaled(plan, &mut part, recovery),
            )
            .unwrap();
            assert_eq!(full, resumed, "snapshot resume at record {kill}");
        }
    }

    #[test]
    fn torn_final_wal_line_is_dropped_on_resume() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::new(7, 0.3, 0.0, 0.0, 0.0);
        let run = |journal: &mut SessionJournal| {
            let mut opt = ProOptimizer::with_defaults(space());
            let opts = journaled(plan, journal, RecoveryConfig::default());
            outcome(&obj, &Noise::None, &mut opt, config, opts).unwrap()
        };

        let mut journal = SessionJournal::in_memory();
        let full = run(&mut journal);
        let lines = journal.wal_lines().unwrap();

        let dir = std::env::temp_dir().join(format!("harmony-torn-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for mut part in [
            SessionJournal::in_memory(),
            SessionJournal::at_dir(&dir).unwrap(),
        ] {
            // the header and 4 records, then the torn, unparsable line a
            // kill mid-append leaves
            for line in &lines[..5] {
                part.append_wal(line).unwrap();
            }
            part.append_wal("{\"t\":\"batch\",\"b\":9,\"est\"").unwrap();
            assert_eq!(full, run(&mut part), "torn tail is dropped, not fatal");
            // the resumed run appended behind the last whole record, so
            // the journal is the uninterrupted one and resumes again
            assert_eq!(part.wal_lines().unwrap(), lines);
            assert_eq!(full, run(&mut part), "second resume");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lone_torn_header_starts_the_session_over() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 30, 1);
        let plan = FaultPlan::new(7, 0.0, 0.1, 0.1, 0.1);
        let run = |journal: &mut SessionJournal| {
            let mut opt = ProOptimizer::with_defaults(space());
            let opts = journaled(plan, journal, RecoveryConfig::default());
            outcome(&obj, &Noise::None, &mut opt, config, opts)
        };

        let mut journal = SessionJournal::in_memory();
        let full = run(&mut journal).unwrap();
        let lines = journal.wal_lines().unwrap();
        let torn = &lines[0][..lines[0].len() / 2];

        let dir = std::env::temp_dir().join(format!("harmony-torn-hdr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for mut part in [
            SessionJournal::in_memory(),
            SessionJournal::at_dir(&dir).unwrap(),
        ] {
            // a kill during the very first append
            part.append_wal(torn).unwrap();
            assert_eq!(
                full,
                run(&mut part).unwrap(),
                "a lone torn header is a fresh start"
            );
            assert_eq!(part.wal_lines().unwrap(), lines);
        }
        // on disk the torn header may lack its newline
        std::fs::write(dir.join("wal.jsonl"), torn).unwrap();
        let mut part = SessionJournal::at_dir(&dir).unwrap();
        assert_eq!(full, run(&mut part).unwrap());
        assert_eq!(part.wal_lines().unwrap(), lines);
        let _ = std::fs::remove_dir_all(&dir);

        // a bad header with records behind it is corruption, not a kill
        let mut bad = SessionJournal::in_memory();
        bad.append_wal(torn).unwrap();
        bad.append_wal(&lines[1]).unwrap();
        let out = run(&mut bad);
        assert!(
            matches!(&out, Err(ServerError::Recovery(why)) if why.contains("bad WAL header")),
            "{out:?}"
        );
    }

    #[test]
    fn deeply_nested_wal_line_fails_resume_loudly() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::new(7, 0.3, 0.0, 0.0, 0.0);

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let _ = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            config,
            journaled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        let lines = journal.wal_lines().unwrap();
        let mut part = journal.clone();
        part.truncate_records(4).unwrap();
        // corruption inside the tail (not its torn final line): a line
        // of a million open brackets, then a record that parses
        part.append_wal(&"[".repeat(1_000_000)).unwrap();
        part.append_wal(&lines[5]).unwrap();
        let mut opt2 = ProOptimizer::with_defaults(space());
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt2,
            config,
            journaled(plan, &mut part, RecoveryConfig::default()),
        );
        assert!(matches!(out, Err(ServerError::Recovery(_))), "{out:?}");
    }

    #[test]
    fn config_drift_fails_resume_loudly() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::none();

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let _ = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            config,
            journaled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        let drifted = ServerConfig { seed: 43, ..config };
        let mut opt2 = ProOptimizer::with_defaults(space());
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt2,
            drifted,
            journaled(plan, &mut journal, RecoveryConfig::default()),
        );
        assert!(matches!(out, Err(ServerError::Recovery(_))), "{out:?}");
    }

    /// A journal holding the header and the first record of kind `want`
    /// (`"batch"` or `"exploit"`) of a real 2-client session, with
    /// `tamper` applied to that record.
    fn tampered_journal(
        supervisor: Option<SupervisorConfig>,
        want: &str,
        tamper: impl FnOnce(&mut WalRecord),
    ) -> SessionJournal {
        let mut journal = SessionJournal::in_memory();
        let opts = SessionOptions {
            journal: Some(&mut journal),
            supervisor,
            ..SessionOptions::default()
        };
        let mut opt = ProOptimizer::with_defaults(space());
        run_session(
            &bowl(),
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 30, 2),
            opts,
        )
        .unwrap();
        let lines = journal.wal_lines().unwrap();
        let mut rec = lines[1..]
            .iter()
            .map(|l| WalRecord::from_line(l).unwrap())
            .find(|r| r.to_line().starts_with(&format!("{{\"t\":\"{want}\"")))
            .expect("session journaled a record of that kind");
        tamper(&mut rec);
        let mut tampered = SessionJournal::in_memory();
        tampered.append_wal(&lines[0]).unwrap();
        tampered.append_record(rec, |_| {}).unwrap();
        tampered
    }

    #[test]
    fn resume_rejects_out_of_range_clients() {
        // records that parse but name client 7 of a 2-client session,
        // carry one ok flag too few, or count more misses than the round
        // dispatched: replay would index per-client state out of bounds
        // or overflow a counter, so the scan refuses them
        let batch_cases: [fn(&mut BatchRecord); 5] = [
            |b| b.live = vec![7],
            |b| b.rounds[0].clients[0] = 7,
            |b| b.rounds[0].evicted = vec![7],
            |b| {
                b.rounds[0].ok.pop();
            },
            |b| b.rounds[0].missed = usize::MAX,
        ];
        let exploit_cases: [fn(&mut ExploitRecord); 3] = [
            |e| e.live = vec![7],
            |e| e.pre_evicted = vec![7],
            |e| e.kind = ExploitKind::Died(7),
        ];
        for supervisor in [None, Some(SupervisorConfig::default())] {
            let mut journals = Vec::new();
            for tamper in batch_cases {
                journals.push(tampered_journal(supervisor, "batch", |r| {
                    if let WalRecord::Batch(b) = r {
                        tamper(b)
                    }
                }));
            }
            for tamper in exploit_cases {
                journals.push(tampered_journal(supervisor, "exploit", |r| {
                    if let WalRecord::Exploit(e) = r {
                        tamper(e)
                    }
                }));
            }
            for mut journal in journals {
                let opts = SessionOptions {
                    journal: Some(&mut journal),
                    supervisor,
                    ..SessionOptions::default()
                };
                let mut opt = ProOptimizer::with_defaults(space());
                let out = run_session(
                    &bowl(),
                    &Noise::None,
                    &mut opt,
                    cfg(Estimator::Single, 30, 2),
                    opts,
                );
                assert!(matches!(out, Err(ServerError::Recovery(_))), "{out:?}");
            }
        }
    }

    /// A fault-free 8-client session journaled into `journal` with a
    /// snapshot every 2 batches (resuming when the journal holds one).
    fn snapshot_session(
        journal: &mut SessionJournal,
        supervisor: Option<SupervisorConfig>,
    ) -> Result<SupervisedOutcome, ServerError> {
        let mut opt = ProOptimizer::with_defaults(space());
        let recovery = RecoveryConfig { snapshot_every: 2 };
        let opts = SessionOptions {
            supervisor,
            ..journaled(FaultPlan::none(), journal, recovery)
        };
        run_session(
            &bowl(),
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 40, 8),
            opts,
        )
    }

    /// A journal of [`snapshot_session`] cut after its 4th record, so
    /// its latest snapshot is the resume point and nothing is replayed
    /// on top of it; and that snapshot's bytes.
    fn snapshot_journal(supervisor: Option<SupervisorConfig>) -> (SessionJournal, Vec<u8>) {
        let mut journal = SessionJournal::in_memory();
        snapshot_session(&mut journal, supervisor).unwrap();
        journal.truncate_records(4).unwrap();
        let (batch, bytes) = journal.latest_snapshot().unwrap().unwrap();
        assert_eq!(batch, 4, "the cut journal resumes from its last snapshot");
        (journal, bytes)
    }

    /// Resumes `journal` with its latest snapshot replaced by `bytes`.
    fn resume_with_snapshot(
        journal: &SessionJournal,
        bytes: &[u8],
        supervisor: Option<SupervisorConfig>,
    ) -> Result<SupervisedOutcome, ServerError> {
        let mut journal = journal.clone();
        journal.put_snapshot(4, bytes).unwrap();
        snapshot_session(&mut journal, supervisor)
    }

    /// `bytes` with the snapshot's live-client list replaced by `live`.
    fn with_live(bytes: &[u8], live: &[usize]) -> Vec<u8> {
        let mut r = StateReader::new(bytes).unwrap();
        let mut w = StateWriter::new();
        r.tag("session").unwrap();
        w.tag("session");
        w.u64(r.u64().unwrap());
        w.f64_slice(&r.f64_vec().unwrap());
        w.usize(r.usize().unwrap());
        let n = r.usize().unwrap();
        w.usize(n);
        for _ in 0..n {
            w.usize(r.usize().unwrap());
            w.f64(r.f64().unwrap());
        }
        // the codec is flat, so the rest of the snapshot follows the
        // live list unchanged
        let header = StateWriter::new().len();
        let mut old = StateWriter::new();
        old.usize_slice(&r.usize_vec().unwrap());
        let rest = w.len() + old.len() - header;
        w.usize_slice(live);
        let mut out = w.into_bytes();
        out.extend_from_slice(&bytes[rest..]);
        out
    }

    #[test]
    fn resume_refuses_snapshot_live_clients_out_of_range_or_repeated() {
        for supervisor in [None, Some(SupervisorConfig::default())] {
            let (journal, bytes) = snapshot_journal(supervisor);
            let fleet: Vec<usize> = (0..8).collect();
            assert_eq!(with_live(&bytes, &fleet), bytes, "a fault-free fleet");
            let intact = resume_with_snapshot(&journal, &bytes, supervisor);
            assert!(intact.is_ok(), "{intact:?}");
            for live in [&[8][..], &[0, 1, 99], &[usize::MAX], &[3, 3], &[0, 5, 2]] {
                let out = resume_with_snapshot(&journal, &with_live(&bytes, live), supervisor);
                assert!(
                    matches!(out, Err(ServerError::Recovery(_))),
                    "live {live:?}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn resume_refuses_a_snapshot_cut_at_any_byte() {
        for supervisor in [None, Some(SupervisorConfig::default())] {
            let (journal, bytes) = snapshot_journal(supervisor);
            for cut in 0..bytes.len() {
                let out = resume_with_snapshot(&journal, &bytes[..cut], supervisor);
                assert!(
                    matches!(out, Err(ServerError::Recovery(_))),
                    "cut at {cut} of {}: {out:?}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn shared_journaled_session_resumes_with_identical_tiers() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let config = cfg(Estimator::MinOfK(2), 40, 4);
        let plan = FaultPlan::new(12, 0.2, 0.05, 0.05, 0.05);
        let tiers = || (SharedPerfDb::new(space(), 4), SharedPerfDb::new(space(), 4));
        let run = |journal: &mut SessionJournal,
                   (costs, estimates): &(SharedPerfDb, SharedPerfDb)| {
            let mut opt = ProOptimizer::with_defaults(space());
            let opts = SessionOptions {
                shared: SharedSession::new(costs, estimates),
                ..journaled(plan, journal, RecoveryConfig::default())
            };
            run_session(&obj, &noise, &mut opt, config, opts)
        };
        let canonical = |(costs, estimates): &(SharedPerfDb, SharedPerfDb)| {
            costs.flush();
            estimates.flush();
            (costs.entries_canonical(), estimates.entries_canonical())
        };

        let mut journal = SessionJournal::in_memory();
        let uninterrupted = tiers();
        let full = run(&mut journal, &uninterrupted).unwrap();
        let want = canonical(&uninterrupted);
        assert!(!want.0.is_empty() && !want.1.is_empty());
        let records = journal.wal_lines().unwrap().len() - 1;
        for kill in 0..=records {
            // the tiers outlive the killed attempt, keeping what it
            // published; the resumed run must leave them as an
            // uninterrupted run would
            let survived = tiers();
            let mut attempt = SessionJournal::in_memory();
            run(&mut attempt, &survived).unwrap();
            attempt.truncate_records(kill).unwrap();
            assert_eq!(full, run(&mut attempt, &survived).unwrap(), "kill {kill}");
            assert_eq!(want, canonical(&survived), "tiers after kill {kill}");

            // WAL replay republishes every replayed batch's estimates,
            // so even empty tiers end with the full estimate tier
            let fresh = tiers();
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            assert_eq!(full, run(&mut part, &fresh).unwrap(), "kill {kill}");
            assert_eq!(want.1, canonical(&fresh).1, "estimates after kill {kill}");
        }
    }

    #[test]
    fn supervised_fault_free_run_matches_resilient() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let config = cfg(Estimator::MinOfK(2), 60, 8);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(
            &obj,
            &noise,
            &mut plain_opt,
            config,
            faults(FaultPlan::none()),
        )
        .unwrap();

        let mut opt = ProOptimizer::with_defaults(space());
        let sup = run_session(
            &obj,
            &noise,
            &mut opt,
            config,
            supervised(FaultPlan::none()),
        )
        .unwrap();

        assert_eq!(plain, sup.outcome, "healthy supervision must not perturb");
        assert!(!sup.supervisor.degraded);
        assert_eq!(sup.supervisor.forced_batches, 0);
        assert_eq!(sup.supervisor.breaker_opens, 0);
    }

    #[test]
    fn supervisor_degrades_instead_of_failing_quorum() {
        let obj = bowl();
        // every point must report — with half the reports dropped the
        // plain session dies on the first abandoned slot
        let config = ServerConfig {
            quorum: 1.0,
            ..cfg(Estimator::Single, 30, 8)
        };
        let plan = FaultPlan::new(11, 0.0, 0.0, 0.5, 0.0);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&obj, &Noise::None, &mut plain_opt, config, faults(plan));
        assert!(matches!(plain, Err(ServerError::QuorumNotReached { .. })));

        let mut opt = ProOptimizer::with_defaults(space());
        let sup = run_session(&obj, &Noise::None, &mut opt, config, supervised(plan))
            .expect("supervisor completes the session degraded");
        assert!(sup.outcome.trace.len() >= 30);
        assert!(
            sup.supervisor.degraded,
            "forced={} opens={}",
            sup.supervisor.forced_batches, sup.supervisor.breaker_opens
        );
    }

    #[test]
    fn supervised_total_loss_is_still_a_quorum_error() {
        let obj = bowl();
        let plan = FaultPlan::new(5, 0.0, 0.0, 1.0, 0.0);
        let mut opt = ProOptimizer::with_defaults(space());
        let out = run_session(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 30, 8),
            supervised(plan),
        );
        assert!(matches!(out, Err(ServerError::QuorumNotReached { .. })));
    }

    #[test]
    fn breakers_open_on_repeat_offenders() {
        let obj = bowl();
        let config = cfg(Estimator::Single, 60, 4);
        // heavy hangs: some client strings 3 consecutive misses together
        let plan = FaultPlan::new(17, 0.0, 0.6, 0.0, 0.0);
        let mut opt = ProOptimizer::with_defaults(space());
        let sup = run_session(&obj, &Noise::None, &mut opt, config, supervised(plan))
            .expect("hang-only plan is survivable under supervision");
        assert!(sup.supervisor.breaker_opens > 0);
        assert!(sup.supervisor.degraded);
        assert!(sup.supervisor.min_width <= 4);
    }

    /// Telemetry handle over a flight recorder, plus the recorder for
    /// post-mortem inspection.
    fn flight_telemetry() -> (
        harmony_telemetry::Telemetry,
        std::sync::Arc<harmony_telemetry::FlightRecorder>,
    ) {
        let fr = std::sync::Arc::new(harmony_telemetry::FlightRecorder::new(64));
        let tel = harmony_telemetry::Telemetry::with_config(
            fr.clone(),
            harmony_telemetry::TelemetryConfig::default(),
        );
        (tel, fr)
    }

    #[test]
    fn injected_terminal_failures_produce_post_mortems() {
        let obj = bowl();
        // every chaos-suite terminal failure mode: total crash, total
        // report loss, and an optimizer that never proposes
        let cases: Vec<(&str, FaultPlan, &str)> = vec![
            (
                "all_dead",
                FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0),
                "server.all_dead",
            ),
            (
                "quorum",
                FaultPlan::new(5, 0.0, 0.0, 1.0, 0.0),
                "server.quorum_fail",
            ),
        ];
        for (label, plan, event) in cases {
            let (tel, fr) = flight_telemetry();
            let mut opt = ProOptimizer::with_defaults(space());
            let out = outcome(
                &obj,
                &Noise::None,
                &mut opt,
                cfg(Estimator::Single, 60, 4),
                traced(plan, &tel),
            );
            assert!(out.is_err(), "{label} plan must fail the session");
            let pms = fr.post_mortems();
            assert!(!pms.is_empty(), "{label}: no post-mortem dumped");
            assert!(
                pms[0].text.contains(event),
                "{label}: post-mortem does not show {event}"
            );
            assert!(pms[0].text.contains("-- metrics --"));
        }

        // no observations: the optimizer proposes nothing at all
        let (tel, fr) = flight_telemetry();
        let mut opt = NeverProposes(space());
        let out = outcome(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 10, 2),
            traced(FaultPlan::none(), &tel),
        );
        assert!(matches!(out, Err(ServerError::NoObservations)));
        let pms = fr.post_mortems();
        assert!(!pms.is_empty());
        assert_eq!(pms[0].reason, "server.no_observations");
    }

    #[test]
    fn breaker_open_produces_post_mortem_with_health_state() {
        let obj = bowl();
        // heavy hangs: breakers open even though the session survives
        let plan = FaultPlan::new(17, 0.0, 0.6, 0.0, 0.0);
        let (tel, fr) = flight_telemetry();
        let mut opt = ProOptimizer::with_defaults(space());
        let sup = run_session(
            &obj,
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 4),
            SessionOptions {
                telemetry: tel.clone(),
                ..supervised(plan)
            },
        )
        .expect("hang-only plan is survivable under supervision");
        assert!(sup.supervisor.breaker_opens > 0);
        let pms = fr.post_mortems();
        assert_eq!(
            pms.len(),
            sup.supervisor.breaker_opens,
            "one post-mortem per breaker open"
        );
        assert!(pms[0].reason.starts_with("recovery.breaker_open"));
        assert!(
            pms[0].text.contains("-- client health --") && pms[0].text.contains(": open"),
            "post-mortem must show the offending client's breaker open"
        );
    }

    #[test]
    fn post_mortems_are_reproducible_across_runs() {
        let obj = bowl();
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0);
        let run = || {
            let (tel, fr) = flight_telemetry();
            let mut opt = ProOptimizer::with_defaults(space());
            let _ = outcome(
                &obj,
                &Noise::None,
                &mut opt,
                cfg(Estimator::Single, 60, 4),
                traced(plan, &tel),
            );
            fr.post_mortems()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        // real client threads, but the dump is canonical: byte-identical
        // text on every run
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
        }
    }
}
