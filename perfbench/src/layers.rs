//! Per-layer accounting of one traced round: sums of the probe counters
//! of its sessions, the exact-count digest, the additivity check, and
//! the replays of layers that expose no seam.

use crate::probe::{OptTimes, Probe};
use crate::{metric, Metric, Report, ADDITIVITY_SLACK_S, ADDITIVITY_TOLERANCE};
use harmony_core::{Estimator, TuningOutcome};
use harmony_params::{ParamSpace, Point};
use harmony_recovery::SessionJournal;
use harmony_surface::SharedPerfDb;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Minimum wall time of each replay loop, so its per-call figure is
/// not dominated by clock granularity.
const REPLAY_MIN: Duration = Duration::from_millis(5);

/// What one traced session's journal held: WAL lines and snapshots.
#[derive(Debug, Default, Clone)]
pub struct JournalCapture {
    /// WAL lines in append order.
    pub wal: Vec<String>,
    /// Snapshots as `(batch, bytes)`.
    pub snapshots: Vec<(u64, Vec<u8>)>,
    /// WAL bytes on disk.
    pub wal_bytes: u64,
    /// Snapshot bytes on disk.
    pub snapshot_bytes: u64,
}

impl JournalCapture {
    /// Reads back a directory journal after its session ended.
    pub fn read(dir: &Path, journal: &SessionJournal) -> std::io::Result<Self> {
        let (wal_bytes, snapshot_bytes) = journal.size_bytes()?;
        let mut snapshots = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(batch) = name
                .strip_prefix("snap-")
                .and_then(|r| r.strip_suffix(".bin"))
                .and_then(|b| b.parse::<u64>().ok())
            {
                snapshots.push((batch, std::fs::read(&path)?));
            }
        }
        snapshots.sort_by_key(|(b, _)| *b);
        Ok(JournalCapture {
            wal: journal.wal_lines()?,
            snapshots,
            wal_bytes: wal_bytes as u64,
            snapshot_bytes: snapshot_bytes as u64,
        })
    }
}

/// One traced session as the layer accounting sees it.
pub struct TracedSession<'a> {
    /// Session wall seconds (server thread).
    pub wall_s: f64,
    /// Client threads of the session.
    pub clients: usize,
    /// Its probe.
    pub probe: &'a Probe,
    /// Its optimizer timings.
    pub times: &'a OptTimes,
    /// Optimizer name.
    pub algorithm: &'a str,
    /// The outcome, when the session returned `Ok`.
    pub outcome: Option<&'a TuningOutcome>,
    /// Supervisor forced batches.
    pub forced: u64,
    /// Other timed children on the server thread (e.g. warm start).
    pub other_children_s: f64,
}

/// Per-round layer sums. Count fields must repeat exactly for a seed.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub draws: u64,
    pub noise_s: f64,
    pub reduces: u64,
    pub evals: u64,
    pub eval_s: f64,
    pub batches: u64,
    pub propose_s: f64,
    pub observe_s: f64,
    pub pro_batches: u64,
    pub pro_s: f64,
    pub surrogate_batches: u64,
    pub surrogate_s: f64,
    pub steps: u64,
    pub dispatches: u64,
    pub retries: u64,
    pub evictions: u64,
    pub forced: u64,
    pub self_s: f64,
    pub client_busy_s: f64,
    pub client_capacity_s: f64,
    pub records: u64,
    pub emit_s: f64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub shared_records: u64,
    pub shared_publishes: u64,
    pub shared_entries: u64,
    /// Sessions whose timed children exceeded their wall.
    pub additivity_violations: u64,
    /// Worst `children / wall` seen.
    pub worst_children_share: f64,
}

fn secs(ns: &std::sync::atomic::AtomicU64) -> f64 {
    ns.load(Relaxed) as f64 * 1e-9
}

impl Layers {
    /// Adds the counters every traced workload has: noise draws,
    /// objective evaluations and the optimizer seam.
    pub fn add_probe(&mut self, p: &Probe, times: &OptTimes, algorithm: &str) {
        self.draws += p.draws.load(Relaxed);
        self.noise_s += secs(&p.noise_ns);
        self.reduces += times.reduces;
        self.evals += p.evals.load(Relaxed);
        self.eval_s += secs(&p.eval_ns);
        self.batches += times.batches;
        let (prop, obs) = (
            times.propose_ns as f64 * 1e-9,
            times.observe_ns as f64 * 1e-9,
        );
        self.propose_s += prop;
        self.observe_s += obs;
        if algorithm == "surrogate" {
            self.surrogate_batches += times.batches;
            self.surrogate_s += prop + obs;
        } else {
            self.pro_batches += times.batches;
            self.pro_s += prop + obs;
        }
    }

    /// Adds one server session: its probe and optimizer counters, the
    /// server counters, and checks that the timed children on the
    /// server thread fit inside the session wall (`server.self_s` =
    /// wall − children must not go negative beyond the stated
    /// tolerance).
    pub fn add_session(&mut self, s: &TracedSession<'_>) {
        let p = s.probe;
        self.add_probe(p, s.times, s.algorithm);
        if let Some(out) = s.outcome {
            self.steps += out.trace.len() as u64;
            self.retries += out.faults.retries as u64;
            self.evictions += out.faults.evicted_clients as u64;
        }
        self.dispatches += p.dispatches.load(Relaxed);
        self.forced += s.forced;
        self.records += p.records.load(Relaxed);
        self.emit_s += secs(&p.emit_ns);
        let children = secs(&p.server_eval_ns)
            + secs(&p.server_emit_ns)
            + (s.times.propose_ns + s.times.observe_ns) as f64 * 1e-9
            + s.other_children_s;
        if children > s.wall_s * (1.0 + ADDITIVITY_TOLERANCE) + ADDITIVITY_SLACK_S {
            self.additivity_violations += 1;
        }
        if s.wall_s > 0.0 {
            self.worst_children_share = self.worst_children_share.max(children / s.wall_s);
        }
        self.self_s += s.wall_s - children;
        let client_busy = secs(&p.eval_ns) - secs(&p.server_eval_ns) + secs(&p.client_noise_ns);
        self.client_busy_s += client_busy;
        self.client_capacity_s += s.wall_s * s.clients as f64;
    }

    /// Adds one session's journal sizes.
    pub fn add_journal(&mut self, j: &JournalCapture) {
        self.wal_records += j.wal.len() as u64;
        self.wal_bytes += j.wal_bytes;
        self.snapshot_bytes += j.snapshot_bytes;
    }

    /// The counts that must repeat exactly for a seed.
    pub fn counts(&self) -> Vec<u64> {
        vec![
            self.draws,
            self.reduces,
            self.evals,
            self.batches,
            self.steps,
            self.dispatches,
            self.retries,
            self.evictions,
            self.forced,
            self.records,
            self.wal_records,
            self.wal_bytes,
            self.snapshot_bytes,
            self.shared_hits,
            self.shared_misses,
            self.shared_records,
            self.shared_publishes,
            self.shared_entries,
        ]
    }
}

/// The checks every traced run of a session workload makes: counts that
/// repeat exactly in every round, and timed children that fit inside
/// each session's wall.
pub fn check_rounds(report: &mut Report, rounds: &[Layers]) {
    let counts = rounds[0].counts();
    for (i, l) in rounds.iter().enumerate().skip(1) {
        report.attempted += 1;
        if l.counts() != counts {
            report.fail(format!(
                "traced round {i}: per-layer counts differ from round 0"
            ));
        }
    }
    let violations: u64 = rounds.iter().map(|l| l.additivity_violations).sum();
    let worst = rounds
        .iter()
        .map(|l| l.worst_children_share)
        .fold(0.0, f64::max);
    report.notes.push(format!(
        "additivity: timed server-thread children + server.self_s = session wall; worst children share {worst:.4}, tolerance {ADDITIVITY_TOLERANCE} + {ADDITIVITY_SLACK_S} s"
    ));
    if violations > 0 {
        report.errors.push(format!(
            "{violations} traced sessions: timed children exceed the session wall"
        ));
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn med(rounds: &[Layers], f: impl Fn(&Layers) -> f64) -> f64 {
    crate::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer metrics every workload runs, in the BENCHMARK.json
/// `per_layer` order: medians of the timed fields over traced rounds,
/// counts of the first round (all rounds agree, or the run failed).
pub fn declared_metrics(
    rounds: &[Layers],
    ns_per_reduce: f64,
    query_ns: f64,
    overhead_pct: f64,
) -> Vec<Metric> {
    let c = &rounds[0];
    vec![
        metric("variability.draws", c.draws as f64, "count"),
        metric("variability.busy_s", med(rounds, |l| l.noise_s), "s"),
        metric(
            "variability.ns_per_draw",
            med(rounds, |l| per(l.noise_s * 1e9, l.draws)),
            "ns",
        ),
        metric("sampling.reduces", c.reduces as f64, "count"),
        metric("sampling.ns_per_reduce", ns_per_reduce, "ns"),
        metric("surface.evals", c.evals as f64, "count"),
        metric("surface.eval_busy_s", med(rounds, |l| l.eval_s), "s"),
        metric("surface.query_ns", query_ns, "ns"),
        metric("optimizer.batches", c.batches as f64, "count"),
        metric("optimizer.propose_s", med(rounds, |l| l.propose_s), "s"),
        metric("optimizer.observe_s", med(rounds, |l| l.observe_s), "s"),
        metric(
            "optimizer.us_per_batch.pro",
            med(rounds, |l| per(l.pro_s * 1e6, l.pro_batches)),
            "us",
        ),
        metric("trace_overhead_pct", overhead_pct, "%"),
    ]
}

/// Metrics of the layers only some workloads run (server, recovery,
/// telemetry, the surrogate, the shared tiers), printed as `info` lines
/// on the workloads that run them: on the others they are zero by
/// construction, so they are not declared.
pub fn layer_info(rounds: &[Layers]) -> Vec<Metric> {
    let c = &rounds[0];
    let mut out = Vec::new();
    let mut count = |name: &str, v: u64, unit| {
        if v > 0 {
            out.push(metric(name, v as f64, unit));
        }
    };
    count("server.steps", c.steps, "count");
    count("server.dispatches", c.dispatches, "count");
    count("server.retries", c.retries, "count");
    count("server.evictions", c.evictions, "count");
    count("server.forced_batches", c.forced, "count");
    count("recovery.wal_records", c.wal_records, "count");
    count("recovery.wal_bytes", c.wal_bytes, "bytes");
    count("recovery.snapshot_bytes", c.snapshot_bytes, "bytes");
    count("telemetry.records", c.records, "count");
    count("surface.shared_records", c.shared_records, "count");
    count("surface.shared_publishes", c.shared_publishes, "count");
    count("surface.shared_entries", c.shared_entries, "count");
    if c.steps > 0 {
        out.push(metric("server.self_s", med(rounds, |l| l.self_s), "s"));
        out.push(metric(
            "server.client_busy_frac",
            med(rounds, |l| {
                if l.client_capacity_s > 0.0 {
                    l.client_busy_s / l.client_capacity_s
                } else {
                    0.0
                }
            }),
            "ratio",
        ));
    }
    if c.surrogate_batches > 0 {
        out.push(metric(
            "optimizer.us_per_batch.surrogate",
            med(rounds, |l| per(l.surrogate_s * 1e6, l.surrogate_batches)),
            "us",
        ));
    }
    if c.records > 0 {
        out.push(metric("telemetry.emit_s", med(rounds, |l| l.emit_s), "s"));
        out.push(metric(
            "telemetry.ns_per_record",
            med(rounds, |l| per(l.emit_s * 1e9, l.records)),
            "ns",
        ));
    }
    if c.shared_hits + c.shared_misses > 0 {
        out.push(metric(
            "surface.shared_hit_rate",
            per(c.shared_hits as f64, c.shared_hits + c.shared_misses),
            "ratio",
        ));
    }
    out
}

/// Replays `Estimator::reduce` over K-vectors cut from captured noise
/// samples; nanoseconds per reduction.
pub fn replay_reduce(samples: &[f64], k: usize) -> f64 {
    let est = Estimator::MinOfK(k);
    let chunks: Vec<&[f64]> = samples.chunks_exact(k).collect();
    if chunks.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    let mut acc = 0.0;
    while t0.elapsed() < REPLAY_MIN {
        for c in &chunks {
            acc += est.reduce(black_box(c));
        }
        n += chunks.len() as u64;
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Replays `SharedPerfDb::query` for captured evaluated points against a
/// tier holding exactly those points; nanoseconds per query.
pub fn replay_query(space: &ParamSpace, points: &[(Point, f64)]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let db = SharedPerfDb::new(space.clone(), 4);
    for (p, v) in points {
        db.record(p, *v);
    }
    db.flush();
    let t0 = Instant::now();
    let mut n = 0u64;
    let mut hits = 0u64;
    while t0.elapsed() < REPLAY_MIN {
        for (p, _) in points {
            hits += u64::from(db.query(black_box(p)).is_some());
        }
        n += points.len() as u64;
    }
    black_box(hits);
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Replays captured WAL lines and snapshots into fresh directory
/// journals under `dir`; returns mean microseconds per `append_wal` and
/// per `put_snapshot`.
pub fn replay_journal(dir: &Path, captures: &[JournalCapture]) -> std::io::Result<(f64, f64)> {
    let (mut append, mut appends, mut snap, mut snaps) =
        (Duration::ZERO, 0u64, Duration::ZERO, 0u64);
    for (i, c) in captures.iter().enumerate() {
        let jdir = dir.join(format!("replay{i}"));
        let _ = std::fs::remove_dir_all(&jdir);
        let mut j = SessionJournal::at_dir(&jdir)?;
        for line in &c.wal {
            let t0 = Instant::now();
            j.append_wal(line)?;
            append += t0.elapsed();
            appends += 1;
        }
        for (batch, bytes) in &c.snapshots {
            let t0 = Instant::now();
            j.put_snapshot(*batch, bytes)?;
            snap += t0.elapsed();
            snaps += 1;
        }
        std::fs::remove_dir_all(&jdir)?;
    }
    Ok((
        per(append.as_secs_f64() * 1e6, appends),
        per(snap.as_secs_f64() * 1e6, snaps),
    ))
}
