//! `paper_suite`: `harmony_bench::harness::run` at full scale, seed
//! 2005, on nproc workers, writing into a temp directory — what the
//! reproduction costs. Every artifact must be byte-identical to the
//! committed `results/`. The traced run also replays whole fig10 cells
//! (chosen by the workload seed) through `average_sessions_in` and
//! `OnlineTuner::run` with wrapped objective, noise and optimizer; each
//! replayed cell must equal its committed CSV value, and the layer
//! counts of the pinned cell must equal the recorded ones.

use crate::host::{Span, Window};
use crate::layers::{self, Layers};
use crate::probe::{OptTimes, Probe, TimedNoise, TimedObjective, TimedOptimizer};
use crate::{
    check_reference, check_thread_budget, digest_words, median, metric, over_rounds, quantile,
    round_metrics, timed_setups, Ctx, Report,
};
use harmony_bench::average_sessions_in;
use harmony_bench::experiments::fig10::Fig10Config;
use harmony_bench::harness::{self, HarnessReport, RunConfig};
use harmony_cluster::SamplingMode;
use harmony_core::{Estimator, OnlineTuner, ProOptimizer, TunerConfig, TuningOutcome};
use harmony_surface::{Gs2Model, Objective};
use harmony_variability::noise::{Noise, NoiseModel};
use harmony_variability::stream_seed;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Seed of the committed artifacts.
const SUITE_SEED: u64 = 2005;
/// The fig10 cell every traced run replays and whose layer counts are
/// recorded in `reference.txt`: k = 3, rho = 0.20 (grid row 2, column 4).
const PINNED_CELL: (usize, usize) = (2, 4);
const SETUPS: usize = 101;
/// Harness runs per untraced run, at least: with a single run, whether a
/// second one fits would depend on the first one's speed, and runs with
/// one sample would be compared with runs that keep the faster of two.
const MIN_RUNS: usize = 2;
/// Client threads per session of the harness's T7 fleet sessions
/// (`multi_session::fleet_with`), the largest count among its tasks.
const T7_CLIENTS: usize = 8;
const FIG10_CSV: &str = "fig10_multisample.csv";
const FIG10_FAMILY: [&str; 3] = ["fig10", "fig10_extended", "fig10_packed"];

/// The harness configuration and the committed artifacts it must
/// reproduce.
pub struct Setup {
    /// Harness configuration (full scale, seed 2005, temp `out_dir`).
    pub cfg: RunConfig,
    /// Committed CSV and SVG artifacts by file name.
    pub reference: BTreeMap<String, Vec<u8>>,
}

/// Creates a fresh output directory, the harness configuration, and
/// loads the committed artifacts from `results/` under the checkout.
pub fn setup(root: &Path, tmp: &Path, workers: usize) -> std::io::Result<Setup> {
    let out_dir = tmp.join("results");
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir)?;
    let mut cfg = RunConfig::new(true);
    cfg.seed = SUITE_SEED;
    cfg.workers = workers;
    cfg.out_dir = out_dir;
    let mut reference = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("results"))? {
        let path = entry?.path();
        if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("csv" | "svg")
        ) {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            reference.insert(name, std::fs::read(&path)?);
        }
    }
    if reference.is_empty() {
        return Err(std::io::Error::other(
            "no committed artifacts under results/",
        ));
    }
    Ok(Setup { cfg, reference })
}

/// One harness run with its artifact check.
pub struct Round {
    /// Wall, process CPU and host steal over the harness run.
    pub time: Span,
    /// The harness report.
    pub report: HarnessReport,
    /// Artifacts compared.
    pub checked: u64,
    /// Artifacts missing, extra, or not byte-identical.
    pub mismatched: Vec<String>,
}

/// Runs the harness once and compares every artifact it wrote.
pub fn round(s: &Setup) -> std::io::Result<Round> {
    let window = Window::open();
    let report = harness::run(&s.cfg);
    let time = window.span();
    let mut produced = BTreeMap::new();
    for entry in std::fs::read_dir(&s.cfg.out_dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        produced.insert(name, std::fs::read(&path)?);
        std::fs::remove_file(&path)?;
    }
    let mut mismatched = Vec::new();
    for name in s.reference.keys().chain(produced.keys()) {
        if produced.get(name) != s.reference.get(name) && !mismatched.contains(name) {
            mismatched.push(name.clone());
        }
    }
    let checked = s.reference.len().max(produced.len()) as u64;
    Ok(Round {
        time,
        report,
        checked,
        mismatched,
    })
}

fn account(report: &mut Report, r: &Round) {
    report.attempted += r.checked;
    for name in &r.mismatched {
        report.fail(format!("artifact {name} is not byte-identical to results/"));
    }
}

/// Wall seconds of every harness job (fan-out cells and merge jobs, or
/// the whole task when it is not split): the suite's unit of work.
fn job_walls(r: &HarnessReport) -> Vec<f64> {
    r.tasks
        .iter()
        .flat_map(|t| {
            if t.subtasks.is_empty() {
                vec![t.wall_s]
            } else {
                t.subtasks.iter().map(|s| s.wall_s).collect()
            }
        })
        .collect()
}

fn workers(ctx: &Ctx, report: &mut Report) -> std::io::Result<usize> {
    // the harness runs whole experiments per worker, one worker per
    // hardware thread (its own default); the guard covers those workers,
    // not the client threads a harness task spawns for itself
    check_thread_budget(ctx.nproc, 1, ctx.nproc).map_err(std::io::Error::other)?;
    report.workers = ctx.nproc;
    report.notes.push(format!(
        "thread budget: harness workers = nproc = {}; inside a task the harness spawns its own client threads (T7 sessions: {} clients each), which this guard does not cover",
        ctx.nproc, T7_CLIENTS
    ));
    Ok(ctx.nproc)
}

/// The untraced run: end-to-end metrics. At least [`MIN_RUNS`] harness
/// runs, then more while the next one is expected to fit the window.
/// A session of this workload is one harness run (one reproduction), so
/// `session_p50_ms` is the median harness-run wall. Harness jobs are
/// not the session: their walls follow the fig10 cells, which slow down
/// with the host more than the whole run does, so their
/// percentiles are printed as `info` lines only.
pub fn run(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = Report::default();
    let w = workers(ctx, &mut report)?;
    let (setup_s, s) = timed_setups(SETUPS, || setup(&ctx.root, &ctx.tmp, w))?;
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.last().is_none_or(|r| {
        rounds.len() < MIN_RUNS || start.elapsed().as_secs_f64() + r.time.wall_s <= ctx.seconds
    }) {
        let r = round(&s)?;
        account(&mut report, &r);
        rounds.push(r);
    }
    let jobs: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| job_walls(&r.report).iter().map(|x| x * 1e3).collect())
        .collect();
    let per_run = |q: f64| over_rounds(&jobs.iter().map(|j| quantile(j, q)).collect::<Vec<_>>());
    let times: Vec<Span> = rounds.iter().map(|r| r.time).collect();
    let run_ms: Vec<f64> = times.iter().map(|t| t.wall_s * 1e3).collect();
    report.declared = round_metrics(&setup_s, &times, median(&run_ms));
    report.extra = vec![
        metric("job_p50_ms", per_run(0.5), "ms"),
        metric("job_p95_ms", per_run(0.95), "ms"),
        metric(
            "suite_wall_s.with_steal",
            over_rounds(&times.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
            "s",
        ),
        metric(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    report.notes.push(format!(
        "{} harness runs (the sessions of session_p50_ms); {} artifacts compared per run; job percentiles per run (n={} each); run timings are means over the faster half of the runs",
        rounds.len(),
        rounds[0].checked,
        jobs[0].len()
    ));
    Ok(report)
}

/// A fig10 cell `(k, rho)` of the committed table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Samples per estimate.
    pub k: usize,
    /// Idle throughput.
    pub rho: f64,
}

/// The cells a traced run replays: the pinned cell, then one other
/// cell of the fig10 grid picked by the workload seed.
pub fn cells_for_seed(seed: u64) -> Vec<Cell> {
    let c = Fig10Config::default();
    let cols = c.rhos.len();
    let n = c.ks.len() * cols;
    let pinned = PINNED_CELL.0 * cols + PINNED_CELL.1;
    let mut j = 0;
    let other = loop {
        let idx = (stream_seed(seed, j) % n as u64) as usize;
        if idx != pinned {
            break idx;
        }
        j += 1;
    };
    [pinned, other]
        .into_iter()
        .map(|idx| Cell {
            k: c.ks[idx / cols],
            rho: c.rhos[idx % cols],
        })
        .collect()
}

/// The committed CSV text of `cell` in `fig10_multisample.csv`.
pub fn csv_value(csv: &str, cell: Cell) -> Option<String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let col = header
        .iter()
        .position(|h| *h == format!("rho_{:.2}", cell.rho))?;
    lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|row| row.first() == Some(&cell.k.to_string().as_str()))
        .and_then(|row| row.get(col).map(|v| v.to_string()))
}

/// Replays one fig10 cell exactly as the harness computes it (same
/// seeds, same tuner configuration) on `workers` threads. With `probe`
/// the objective, noise and optimizer are wrapped; returns the mean NTT
/// (the CSV value).
pub fn replay_cell(workers: usize, cell: Cell, probe: Option<(&Probe, &Mutex<OptTimes>)>) -> f64 {
    let cfg = Fig10Config::default();
    let gs2 = Gs2Model::paper_scale();
    let noise = if cell.rho == 0.0 {
        Noise::None
    } else {
        Noise::Pareto {
            alpha: cfg.alpha,
            rho: cell.rho,
        }
    };
    let avg = average_sessions_in(
        workers,
        cfg.reps,
        cfg.seed ^ ((cell.k as u64) << 32),
        cell.rho,
        |seed| {
            let tuner = OnlineTuner::new(TunerConfig {
                procs: cfg.procs,
                max_steps: cfg.steps,
                estimator: Estimator::MinOfK(cell.k),
                mode: SamplingMode::SequentialSteps,
                seed,
                full_occupancy: false,
                exploit_width: 6,
            });
            let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
            match probe {
                Some((p, times)) => {
                    let mut timed = TimedOptimizer::new(&mut opt);
                    let out = run_tuner(
                        &tuner,
                        &TimedObjective {
                            inner: &gs2,
                            probe: p,
                        },
                        &TimedNoise {
                            inner: &noise,
                            probe: p,
                        },
                        &mut timed,
                    );
                    let mut t = times.lock().expect("replay times poisoned");
                    t.batches += timed.times.batches;
                    t.reduces += timed.times.reduces;
                    t.propose_ns += timed.times.propose_ns;
                    t.observe_ns += timed.times.observe_ns;
                    out
                }
                None => run_tuner(&tuner, &gs2, &noise, &mut opt),
            }
        },
    );
    avg.mean_ntt
}

fn run_tuner<O: Objective + ?Sized, M: NoiseModel + ?Sized>(
    tuner: &OnlineTuner,
    obj: &O,
    noise: &M,
    opt: &mut dyn harmony_core::Optimizer,
) -> TuningOutcome {
    tuner
        .run(obj, noise, opt)
        .expect("tuning session produced a recommendation")
}

/// The traced run: one harness run for the harness-layer numbers, then
/// plain and wrapped replays of fig10 cells (the pinned one and one
/// chosen by the seed) for the variability, sampling, surface and
/// optimizer layers.
pub fn run_traced(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = Report::default();
    let w = workers(ctx, &mut report)?;
    let s = setup(&ctx.root, &ctx.tmp, w)?;
    let window = Window::open();
    let r = round(&s)?;
    account(&mut report, &r);
    let h = &r.report;
    let task_sum: f64 = h.serial_wall_s();
    let fig10_s: f64 = h
        .tasks
        .iter()
        .filter(|t| FIG10_FAMILY.contains(&t.name))
        .map(|t| t.wall_s)
        .sum();
    let csv =
        String::from_utf8_lossy(s.reference.get(FIG10_CSV).map_or(&[][..], |v| v)).into_owned();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut layers = Layers::default();
    let mut samples = Vec::new();
    let mut points = Vec::new();
    let cells = cells_for_seed(ctx.seed);
    for (i, &cell) in cells.iter().enumerate() {
        let want = csv_value(&csv, cell);
        let t0 = Instant::now();
        let plain = replay_cell(w, cell, None);
        plain_s += t0.elapsed().as_secs_f64();
        let probe = Probe::default();
        let times = Mutex::new(OptTimes::default());
        let t0 = Instant::now();
        let traced = replay_cell(w, cell, Some((&probe, &times)));
        traced_s += t0.elapsed().as_secs_f64();
        for (what, got) in [("plain", plain), ("wrapped", traced)] {
            report.attempted += 1;
            if want.as_deref() != Some(format!("{got}").as_str()) {
                report.fail(format!(
                    "{what} replay of fig10 cell k={} rho={:.2} gave {got}, CSV has {want:?}",
                    cell.k, cell.rho
                ));
            }
        }
        report.notes.push(format!(
            "replayed fig10 cell k={} rho={:.2} = {traced} (CSV {})",
            cell.k,
            cell.rho,
            want.as_deref().unwrap_or("missing")
        ));
        let times = times.into_inner().expect("replay times poisoned");
        let mut cell_layers = Layers::default();
        cell_layers.add_probe(&probe, &times, "pro");
        if i == 0 {
            let counts = digest_words(&cell_layers.counts());
            check_reference(ctx, &mut report, "paper_suite", "counts", counts);
            samples = probe.samples.lock().expect("probe capture").clone();
            points = probe.points.lock().expect("probe capture").clone();
        }
        layers.add_probe(&probe, &times, "pro");
    }
    report.declared = layers::declared_metrics(
        &[layers],
        layers::replay_reduce(&samples, cells[0].k),
        layers::replay_query(Gs2Model::paper_scale().space(), &points),
        100.0 * (traced_s / plain_s - 1.0),
    );
    report.extra = vec![
        metric("harness.task_sum_s", task_sum, "s"),
        metric("harness.critical_path_s", h.critical_path_s, "s"),
        metric(
            "harness.pool_idle_s",
            h.workers as f64 * h.total_wall_s - task_sum,
            "s",
        ),
        metric("harness.fig10_family_s", fig10_s, "s"),
        metric("suite_wall_s.traced_run", r.time.wall_s, "s"),
        metric("host_steal_s", window.span().steal_s, "s"),
    ];
    Ok(report)
}
