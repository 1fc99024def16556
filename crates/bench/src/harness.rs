//! Dependency-aware parallel experiment harness.
//!
//! `run_all` used to regenerate every figure and table serially; this
//! module turns the regeneration into a *task graph* executed on the
//! work-stealing pool ([`harmony_cluster::pool::par_graph_stats_in`]). Every
//! experiment is a named task, and the expensive sweeps (`fig10*`, the
//! baseline tables, the estimator/monitoring ablations) are further
//! split into per-cell *subtasks* — one job per `(ρ, K)` cell or per
//! algorithm — feeding a deterministic fan-in merge job per experiment
//! that reassembles the table in exact canonical order. The merge jobs
//! are also where the charts' table dependencies attach.
//!
//! Determinism under parallelism is preserved by construction:
//!
//! * every job derives its randomness purely from the global seed and
//!   its *structural* coordinates (experiments decorrelate their
//!   internal streams with the splittable hashing of
//!   `harmony_stats::splitmix` — e.g. table experiments hash the
//!   algorithm *name* into the stream, fig10 cells fold `K` into the
//!   seed, replication loops hash the replication *index*), never from
//!   claim order or thread identity;
//! * subtask jobs run their replication loops serially (the graph pool
//!   owns all parallelism) and deposit raw cell values into slots keyed
//!   by structural position; the merge job reads the slots in canonical
//!   row/column order, so the table bytes cannot depend on
//!   interleaving;
//! * each merge job renders its report into a private buffer and writes
//!   only its own output files; the buffers are printed in canonical
//!   task order after the pool joins, so the stdout report is identical
//!   for every worker count.
//!
//! The result: `run_all --full -jN` produces byte-identical CSVs and
//! SVGs to a serial `-j1` run for every `N`.

use crate::experiments::{
    ablations, charts, fault, fig01, fig02, fig03, fig04_07, fig08, fig09, fig10, multi_session,
    recovery, t8_surrogate, tables,
};
use crate::report::{emit_table_telemetry, emit_to, results_dir, Table};
use harmony_cluster::pool;
use harmony_recovery::{json, CodecError};
use harmony_telemetry::{
    to_jsonl, Field, Kind, MemorySink, MetricsRegistry, Record, Telemetry, TelemetryConfig,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A named harness task and the indices of the tasks it depends on.
pub struct TaskDef {
    /// Stable task name (used in the report and `BENCH_harness.json`).
    pub name: &'static str,
    /// Indices into [`TASKS`] that must complete first.
    pub deps: &'static [usize],
}

const FIG01: usize = 0;
const FIG02: usize = 1;
const FIG03: usize = 2;
const FIG03_CORRELATIONS: usize = 3;
const FIG04_07: usize = 4;
const FIG08: usize = 5;
const FIG09: usize = 6;
const FIG10: usize = 7;
const FIG10_EXTENDED: usize = 8;
const FIG10_PACKED: usize = 9;
const CHARTS: usize = 10;
const TABLE_QUEUE_VALIDATION: usize = 11;
const TABLE_MIN_OPERATOR: usize = 12;
const TABLE_BASELINES: usize = 13;
const TABLE_TIME_TO_QUALITY: usize = 14;
const ABLATION_EXPANSION_CHECK: usize = 15;
const ABLATION_ESTIMATORS: usize = 16;
const ABLATION_PROJECTION: usize = 17;
const ABLATION_MONITORING: usize = 18;
const ABLATION_ADAPTIVE_K: usize = 19;
const TABLE_FAULT_TOLERANCE: usize = 20;
const TABLE_RECOVERY: usize = 21;
const MULTI_SESSION: usize = 22;
const T8_SURROGATE: usize = 23;

/// The full task graph, in canonical report order. A task depends on
/// the tasks whose results it reads instead of recomputing them: the
/// chart renderer consumes the figure tables, `fig10_extended` reads
/// Fig. 10's ρ = 0.40 column, and `table_time_to_quality` reads the
/// sessions of `table_baselines`.
pub const TASKS: &[TaskDef] = &[
    TaskDef {
        name: "fig01",
        deps: &[],
    },
    TaskDef {
        name: "fig02",
        deps: &[],
    },
    TaskDef {
        name: "fig03",
        deps: &[],
    },
    TaskDef {
        name: "fig03_correlations",
        deps: &[],
    },
    TaskDef {
        name: "fig04_07",
        deps: &[],
    },
    TaskDef {
        name: "fig08",
        deps: &[],
    },
    TaskDef {
        name: "fig09",
        deps: &[],
    },
    TaskDef {
        name: "fig10",
        deps: &[],
    },
    TaskDef {
        name: "fig10_extended",
        deps: &[FIG10],
    },
    TaskDef {
        name: "fig10_packed",
        deps: &[],
    },
    TaskDef {
        name: "charts",
        deps: &[FIG01, FIG03, FIG04_07, FIG08, FIG09, FIG10],
    },
    TaskDef {
        name: "table_queue_validation",
        deps: &[],
    },
    TaskDef {
        name: "table_min_operator",
        deps: &[],
    },
    TaskDef {
        name: "table_baselines",
        deps: &[],
    },
    TaskDef {
        name: "table_time_to_quality",
        deps: &[TABLE_BASELINES],
    },
    TaskDef {
        name: "ablation_expansion_check",
        deps: &[],
    },
    TaskDef {
        name: "ablation_estimators",
        deps: &[],
    },
    TaskDef {
        name: "ablation_projection",
        deps: &[],
    },
    TaskDef {
        name: "ablation_monitoring",
        deps: &[],
    },
    TaskDef {
        name: "ablation_adaptive_k",
        deps: &[],
    },
    TaskDef {
        name: "table_fault_tolerance",
        deps: &[],
    },
    TaskDef {
        name: "table_recovery",
        deps: &[],
    },
    TaskDef {
        name: "t7_multi_session",
        deps: &[],
    },
    TaskDef {
        name: "t8_surrogate",
        deps: &[],
    },
];

/// Number of canonical experiments (= merge/report jobs).
const NE: usize = TASKS.len();

/// Estimator-ablation noise count (canonical A2 column count).
fn estimator_noise_count() -> usize {
    ablations::estimator_noises(0.3).len()
}

/// Indices into [`fig10::EXTENDED_RHOS`] of the extended rows that are
/// not a Fig. 10 column, i.e. the rows `fig10_extended` runs itself.
fn extended_own_rows(f: &fig10::Fig10Config) -> Vec<usize> {
    (0..fig10::EXTENDED_RHOS.len())
        .filter(|&ri| fig10::grid_column(f, fig10::EXTENDED_RHOS[ri]).is_none())
        .collect()
}

/// Number of fan-out subtask jobs experiment `e` is split into
/// (0 = the experiment runs whole inside its report job, or only reads
/// another experiment's subtasks).
pub fn subtask_count(e: usize) -> usize {
    let f = fig10::Fig10Config::default();
    match e {
        FIG10 | FIG10_PACKED => f.ks.len() * f.rhos.len(),
        FIG10_EXTENDED => extended_own_rows(&f).len() * f.ks.len(),
        TABLE_BASELINES => tables::BASELINES.len(),
        ABLATION_ESTIMATORS => ablations::ESTIMATORS.len() * estimator_noise_count(),
        ABLATION_MONITORING => ablations::MONITORING_RHOS.len() * 2,
        TABLE_RECOVERY => recovery::CRASH_RATES.len() * recovery::SNAPSHOT_EVERY.len(),
        MULTI_SESSION => multi_session::SESSION_COUNTS.len(),
        T8_SURROGATE => t8_surrogate::T8_RHOS.len() * t8_surrogate::T8_OPTIMIZERS.len(),
        _ => 0,
    }
}

/// Stable display label of subtask `p` of experiment `e`.
pub fn subtask_label(e: usize, p: usize) -> String {
    let f = fig10::Fig10Config::default();
    match e {
        FIG10 | FIG10_PACKED => {
            let (ki, ri) = (p / f.rhos.len(), p % f.rhos.len());
            format!("{}.k{}.rho{:.2}", TASKS[e].name, f.ks[ki], f.rhos[ri])
        }
        FIG10_EXTENDED => {
            let (ri, ki) = (extended_own_rows(&f)[p / f.ks.len()], p % f.ks.len());
            format!(
                "fig10_extended.rho{:.2}.k{}",
                fig10::EXTENDED_RHOS[ri],
                f.ks[ki]
            )
        }
        TABLE_BASELINES => {
            format!("table_baselines.{}", tables::BASELINES[p])
        }
        ABLATION_ESTIMATORS => {
            let noises = ablations::estimator_noises(0.3);
            let (ei, ni) = (p / noises.len(), p % noises.len());
            format!(
                "ablation_estimators.{}.{}",
                ablations::ESTIMATORS[ei].label(),
                noises[ni].0
            )
        }
        ABLATION_MONITORING => {
            let (ri, cont) = (p / 2, p % 2 == 1);
            format!(
                "ablation_monitoring.rho{}.{}",
                ablations::MONITORING_RHOS[ri],
                if cont { "continuous" } else { "stop" }
            )
        }
        TABLE_RECOVERY => {
            let n = recovery::SNAPSHOT_EVERY.len();
            format!(
                "table_recovery.crash{:.2}.snap{}",
                recovery::CRASH_RATES[p / n],
                recovery::SNAPSHOT_EVERY[p % n]
            )
        }
        MULTI_SESSION => {
            format!("t7_multi_session.s{}", multi_session::SESSION_COUNTS[p])
        }
        T8_SURROGATE => {
            let n = t8_surrogate::T8_OPTIMIZERS.len();
            format!(
                "t8_surrogate.{}.rho{:.2}",
                t8_surrogate::T8_OPTIMIZERS[p % n],
                t8_surrogate::T8_RHOS[p / n]
            )
        }
        _ => unreachable!("experiment {e} has no subtasks"),
    }
}

/// One schedulable unit: either an experiment's fan-in report/merge job
/// (`part == None`, job index `exp`) or one of its fan-out cells.
struct Job {
    exp: usize,
    part: Option<usize>,
    label: String,
}

/// Builds the job list: the `NE` report jobs first (job index ==
/// canonical experiment index), then every subtask job grouped by
/// experiment in part order.
fn build_jobs() -> Vec<Job> {
    let mut jobs: Vec<Job> = TASKS
        .iter()
        .enumerate()
        .map(|(e, t)| Job {
            exp: e,
            part: None,
            label: t.name.to_string(),
        })
        .collect();
    for e in 0..NE {
        for p in 0..subtask_count(e) {
            jobs.push(Job {
                exp: e,
                part: Some(p),
                label: subtask_label(e, p),
            });
        }
    }
    jobs
}

/// Total job count (report jobs + subtask jobs).
pub fn job_count() -> usize {
    NE + (0..NE).map(subtask_count).sum::<usize>()
}

/// Dependency lists for [`build_jobs`]' layout: a report job waits on
/// its own subtasks plus its experiment-level deps (the chart renderer
/// waits on the *report* jobs of the figures it consumes, which is when
/// their tables exist; a report that reads another experiment's
/// subtasks waits on that experiment's report, which waits on them);
/// subtask jobs are roots.
fn job_deps(jobs: &[Job]) -> Vec<Vec<usize>> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            if job.part.is_some() {
                return Vec::new();
            }
            let mut d: Vec<usize> = TASKS[job.exp].deps.to_vec();
            d.extend(
                jobs.iter()
                    .enumerate()
                    .skip(NE)
                    .filter(|(_, j)| j.exp == job.exp)
                    .map(|(k, _)| k),
            );
            debug_assert!(!d.contains(&i));
            d
        })
        .collect()
}

/// Minimal `*`-wildcard glob match (no character classes), used by
/// `run_all --only`.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], s: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'*') => rec(&p[1..], s) || (!s.is_empty() && rec(p, &s[1..])),
            Some(&c) => s.first() == Some(&c) && rec(&p[1..], &s[1..]),
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

/// Which experiments run: those matching any `--only` pattern plus
/// their transitive dependencies (everything when no filter is set).
fn selected_exps(only: Option<&[String]>) -> Vec<bool> {
    let mut sel = vec![only.is_none(); NE];
    if let Some(pats) = only {
        for (e, t) in TASKS.iter().enumerate() {
            if pats.iter().any(|p| glob_match(p, t.name)) {
                sel[e] = true;
            }
        }
        loop {
            let mut changed = false;
            for (e, t) in TASKS.iter().enumerate() {
                if sel[e] {
                    for &d in t.deps {
                        if !sel[d] {
                            sel[d] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    sel
}

/// Harness invocation parameters.
pub struct RunConfig {
    /// Full (paper) scale instead of the reduced quick scale.
    pub full: bool,
    /// The global seed handed to every experiment (default 2005, the
    /// publication year — the committed artifacts use it).
    pub seed: u64,
    /// Worker threads for the task graph.
    pub workers: usize,
    /// Output directory for CSVs and SVGs.
    pub out_dir: PathBuf,
    /// Emit `[done]` progress lines to stderr while jobs finish.
    pub progress: bool,
    /// Write a JSONL telemetry trace of the run to this path. Each
    /// experiment records into a private in-memory sink with its own
    /// span-id namespace; the per-experiment record streams are
    /// concatenated in canonical task order after the pool joins, so
    /// the trace bytes are identical for every worker count.
    pub trace: Option<PathBuf>,
    /// Also stamp trace records with wall-clock nanoseconds and append
    /// the pool's scheduling statistics. Wall times and scheduling are
    /// nondeterministic, so this breaks trace byte-identity across runs
    /// — leave off when comparing traces.
    pub trace_wall: bool,
    /// `--only` experiment-name glob patterns; `None` runs everything.
    pub only: Option<Vec<String>>,
    /// Write a metrics exposition snapshot (canonical Prometheus-style
    /// text, built by ingesting the merged record stream) to this path.
    /// Works with or without `trace`; on the deterministic channel the
    /// snapshot is byte-identical for every worker count.
    pub metrics: Option<PathBuf>,
}

impl RunConfig {
    /// Defaults: seed 2005, hardware worker count, `results/` (or
    /// `$HARMONY_RESULTS`), no stderr progress, no trace, no filter.
    pub fn new(full: bool) -> Self {
        RunConfig {
            full,
            seed: 2005,
            workers: pool::worker_count(job_count()),
            out_dir: results_dir(),
            progress: false,
            trace: None,
            trace_wall: false,
            only: None,
            metrics: None,
        }
    }
}

/// Wall time of one fan-out subtask job.
pub struct SubtaskReport {
    /// Stable subtask label (see [`subtask_label`]).
    pub label: String,
    /// Wall-clock seconds spent inside the subtask job.
    pub wall_s: f64,
}

/// Per-experiment outcome: the rendered stdout block and wall times.
pub struct TaskReport {
    /// Task name from [`TASKS`].
    pub name: &'static str,
    /// Serial-equivalent wall-clock seconds: the sum over the
    /// experiment's subtask jobs plus its merge job (for unsplit
    /// experiments, just the report job).
    pub wall_s: f64,
    /// The task's buffered report text.
    pub stdout: String,
    /// The task's telemetry records (empty unless tracing was on).
    pub records: Vec<Record>,
    /// Per-subtask wall times (empty for unsplit experiments); the
    /// final entry is the fan-in merge job.
    pub subtasks: Vec<SubtaskReport>,
}

/// Whole-run outcome, serialisable as `BENCH_harness.json`.
pub struct HarnessReport {
    /// `"quick"` or `"full"`.
    pub scale: &'static str,
    /// Worker threads used.
    pub workers: usize,
    /// Global seed.
    pub seed: u64,
    /// Wall-clock seconds for the whole graph.
    pub total_wall_s: f64,
    /// Longest dependency chain through the job graph, weighted by
    /// measured job wall times — the wall-clock lower bound no worker
    /// count can beat.
    pub critical_path_s: f64,
    /// Per-task reports in canonical task order (only the experiments
    /// selected by `--only`).
    pub tasks: Vec<TaskReport>,
    /// Cross-session shared-cache hit rate of the largest T7 fleet, in
    /// `[0, 1]`; `None` when `t7_multi_session` was not selected.
    pub shared_cache_hit_rate: Option<f64>,
}

impl HarnessReport {
    /// Sum of per-task wall times — the serial-equivalent cost of the
    /// run (what a one-worker schedule would pay, up to scheduler
    /// overhead).
    pub fn serial_wall_s(&self) -> f64 {
        self.tasks.iter().map(|t| t.wall_s).sum()
    }

    /// Effective parallelism: serial-equivalent cost over actual
    /// wall-clock. On a multi-core host this approximates the speedup
    /// over `-j1`; on an oversubscribed host it measures task overlap.
    pub fn speedup(&self) -> f64 {
        if self.total_wall_s > 0.0 {
            self.serial_wall_s() / self.total_wall_s
        } else {
            1.0
        }
    }

    /// Speedup per worker (1.0 = perfectly linear scaling).
    pub fn parallel_efficiency(&self) -> f64 {
        self.speedup() / self.workers.max(1) as f64
    }

    /// Machine-readable summary (the `BENCH_harness.json` payload).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"total_wall_s\": {:.3},", self.total_wall_s);
        let _ = writeln!(s, "  \"serial_wall_s\": {:.3},", self.serial_wall_s());
        let _ = writeln!(s, "  \"speedup\": {:.2},", self.speedup());
        let _ = writeln!(s, "  \"critical_path_s\": {:.3},", self.critical_path_s);
        let _ = writeln!(
            s,
            "  \"parallel_efficiency\": {:.3},",
            self.parallel_efficiency()
        );
        if let Some(rate) = self.shared_cache_hit_rate {
            let _ = writeln!(s, "  \"shared_cache_hit_rate\": {rate:.4},");
        }
        s.push_str("  \"experiments\": [\n");
        for (i, t) in self.tasks.iter().enumerate() {
            let comma = if i + 1 < self.tasks.len() { "," } else { "" };
            if t.subtasks.is_empty() {
                let _ = writeln!(
                    s,
                    "    {{\"name\": \"{}\", \"wall_s\": {:.3}}}{comma}",
                    t.name, t.wall_s
                );
            } else {
                let _ = writeln!(
                    s,
                    "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"subtasks\": [",
                    t.name, t.wall_s
                );
                for (j, sub) in t.subtasks.iter().enumerate() {
                    let sc = if j + 1 < t.subtasks.len() { "," } else { "" };
                    let _ = writeln!(
                        s,
                        "      {{\"name\": \"{}\", \"wall_s\": {:.3}}}{sc}",
                        sub.label, sub.wall_s
                    );
                }
                let _ = writeln!(s, "    ]}}{comma}");
            }
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Reads `total_wall_s` back from a [`HarnessReport::to_json`] document
/// (a committed `BENCH_harness.json`) for the `--check-against`
/// regression gate. A document that is not JSON, or has no numeric
/// `total_wall_s`, is an error.
pub fn baseline_total_wall_s(report: &str) -> Result<f64, CodecError> {
    json::parse(report)?.field("total_wall_s")?.as_f64()
}

/// Builds experiment `e`'s private telemetry: an in-memory sink and a
/// handle whose span ids live in the experiment's own `(e+1) << 32`
/// namespace, so the per-experiment streams can be merged without id
/// collisions. Namespaces are keyed by the *canonical experiment
/// index*, never by the (dynamic) job index, so the subtask fan-out
/// cannot move or collide span ids. The logical clock counts tables
/// emitted by the experiment.
fn task_telemetry(cfg: &RunConfig, e: usize) -> Option<(Telemetry, Arc<MemorySink>)> {
    // the metrics snapshot is built from the same record streams, so
    // either output turns recording on
    if cfg.trace.is_none() && cfg.metrics.is_none() {
        return None;
    }
    let sink = Arc::new(MemorySink::new());
    let tel = Telemetry::with_config(
        sink.clone(),
        TelemetryConfig {
            span_base: (e as u64 + 1) << 32,
            wall: cfg.trace_wall,
            ..TelemetryConfig::from_env()
        },
    );
    Some((tel, sink))
}

/// Asserts every span id sits inside its experiment's `(e+1) << 32`
/// namespace and that no id is reused across the merged trace —
/// the guard the dynamic job count relies on.
fn assert_no_span_collisions(exps: &[(usize, &[Record])]) {
    let mut seen: HashSet<u64> = HashSet::new();
    for &(e, records) in exps {
        let lo = (e as u64 + 1) << 32;
        let hi = (e as u64 + 2) << 32;
        for r in records {
            if let Kind::SpanEnter { id } = r.kind {
                assert!(
                    (lo..hi).contains(&id),
                    "span id {id:#x} of task {} escapes its namespace [{lo:#x}, {hi:#x})",
                    TASKS[e].name
                );
                assert!(seen.insert(id), "span id {id:#x} collides across tasks");
            }
        }
    }
}

/// Serialises the merged trace: per-task records in canonical task
/// order, then any trailing harness-level records.
fn write_trace(path: &Path, tasks: &[TaskReport], trailer: &[Record]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut out = String::new();
    for t in tasks {
        out.push_str(&to_jsonl(&t.records));
    }
    out.push_str(&to_jsonl(trailer));
    std::fs::write(path, out)
}

/// Longest dependency chain through the measured job graph.
fn critical_path(deps: &[Vec<usize>], walls: &[f64]) -> f64 {
    fn longest(i: usize, deps: &[Vec<usize>], walls: &[f64], memo: &mut [Option<f64>]) -> f64 {
        if let Some(v) = memo[i] {
            return v;
        }
        let below = deps[i]
            .iter()
            .map(|&d| longest(d, deps, walls, memo))
            .fold(0.0, f64::max);
        let v = walls[i] + below;
        memo[i] = Some(v);
        v
    }
    let mut memo = vec![None; deps.len()];
    (0..deps.len())
        .map(|i| longest(i, deps, walls, &mut memo))
        .fold(0.0, f64::max)
}

/// Per-job outcome inside the pool.
struct JobOut {
    wall_s: f64,
    stdout: String,
    records: Vec<Record>,
}

/// Executes the full job graph and returns the per-experiment reports
/// in canonical task order.
pub fn run(cfg: &RunConfig) -> HarnessReport {
    let jobs = build_jobs();
    let deps = job_deps(&jobs);
    let sel = selected_exps(cfg.only.as_deref());
    let n = jobs.len();
    let n_sel = jobs.iter().filter(|j| sel[j.exp]).count();
    let slots: Vec<OnceLock<Vec<Table>>> = (0..NE).map(|_| OnceLock::new()).collect();
    let part_slots: Vec<OnceLock<Vec<f64>>> = (NE..n).map(|_| OnceLock::new()).collect();
    let parts = Parts {
        jobs: &jobs,
        slots: &part_slots,
    };
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let (mut outs, pool_stats) = pool::par_graph_stats_in(cfg.workers, n, &deps, |i| {
        let job = &jobs[i];
        if !sel[job.exp] {
            return JobOut {
                wall_s: 0.0,
                stdout: String::new(),
                records: Vec::new(),
            };
        }
        let t0 = Instant::now();
        let mut buf = String::new();
        let mut records = Vec::new();
        if let Some(p) = job.part {
            let vals = run_part(job.exp, p, cfg);
            let _ = part_slots[i - NE].set(vals);
        } else {
            let telemetry = task_telemetry(cfg, job.exp);
            let tel = telemetry
                .as_ref()
                .map_or_else(Telemetry::disabled, |(t, _)| t.clone());
            let span = tel.span_open(
                &format!("task.{}", TASKS[job.exp].name),
                vec![Field::new("task", job.exp)],
            );
            let produced = run_report(job.exp, cfg, &slots, &parts, &mut buf);
            for t in &produced {
                emit_table_telemetry(&tel, t);
                tel.counter("harness.tables", 1);
                tel.counter("harness.rows", t.rows.len() as u64);
                tel.advance_clock(1);
            }
            tel.span_close(span);
            records = telemetry.map_or_else(Vec::new, |(_, sink)| sink.take());
            let _ = slots[job.exp].set(produced);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        if cfg.progress {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("[{k:>3}/{n_sel}] {} done in {wall_s:.3}s", job.label);
        }
        JobOut {
            wall_s,
            stdout: buf,
            records,
        }
    });
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    let critical_path_s = critical_path(&deps, &walls);
    let collision_view: Vec<(usize, &[Record])> = (0..NE)
        .filter(|&e| sel[e])
        .map(|e| (e, outs[e].records.as_slice()))
        .collect();
    assert_no_span_collisions(&collision_view);
    let mut tasks = Vec::new();
    for e in 0..NE {
        if !sel[e] {
            continue;
        }
        let mut subtasks: Vec<SubtaskReport> = jobs
            .iter()
            .enumerate()
            .skip(NE)
            .filter(|(_, j)| j.exp == e)
            .map(|(k, j)| SubtaskReport {
                label: j.label.clone(),
                wall_s: outs[k].wall_s,
            })
            .collect();
        if !subtasks.is_empty() {
            subtasks.push(SubtaskReport {
                label: format!("{}.merge", TASKS[e].name),
                wall_s: outs[e].wall_s,
            });
        }
        let wall_s = outs[e].wall_s
            + subtasks
                .iter()
                .take(subtasks.len().saturating_sub(1))
                .map(|s| s.wall_s)
                .sum::<f64>();
        tasks.push(TaskReport {
            name: TASKS[e].name,
            wall_s,
            stdout: std::mem::take(&mut outs[e].stdout),
            records: std::mem::take(&mut outs[e].records),
            subtasks,
        });
    }
    if cfg.trace.is_some() || cfg.metrics.is_some() {
        // pool scheduling statistics are nondeterministic, so they ride
        // only on the opt-in wall channel (PoolStats::emit_to refuses a
        // handle without it)
        let mut trailer = Vec::new();
        if cfg.trace_wall {
            let sink = Arc::new(MemorySink::new());
            let tel = Telemetry::with_config(
                sink.clone(),
                TelemetryConfig {
                    wall: true,
                    ..TelemetryConfig::default()
                },
            );
            pool_stats.emit_to(&tel);
            trailer = sink.take();
        }
        if let Some(path) = &cfg.trace {
            if let Err(e) = write_trace(path, &tasks, &trailer) {
                eprintln!("failed to write trace {}: {e}", path.display());
            }
        }
        if let Some(path) = &cfg.metrics {
            // ingest in canonical task order, then the trailer, so the
            // exposition snapshot matches the trace byte for byte at
            // every worker count
            let mut reg = MetricsRegistry::new();
            for t in &tasks {
                reg.ingest_all(&t.records);
            }
            reg.ingest_all(&trailer);
            if let Err(e) = std::fs::write(path, reg.render()) {
                eprintln!("failed to write metrics {}: {e}", path.display());
            }
        }
    }
    // headline shared-cache effectiveness: the largest T7 fleet's hit
    // rate (deterministic — see the multi_session module docs)
    let shared_cache_hit_rate = slots[MULTI_SESSION]
        .get()
        .and_then(|ts| ts.first())
        .and_then(|t| t.rows.last())
        .map(|row| row[1] / 100.0);
    HarnessReport {
        scale: if cfg.full { "full" } else { "quick" },
        workers: cfg.workers,
        seed: cfg.seed,
        total_wall_s: start.elapsed().as_secs_f64(),
        critical_path_s,
        tasks,
        shared_cache_hit_rate,
    }
}

/// Job index of experiment `e`'s first subtask.
fn part_base(jobs: &[Job], e: usize) -> usize {
    NE + jobs.iter().skip(NE).take_while(|j| j.exp != e).count()
}

/// Read access to the finished subtasks' cell values.
struct Parts<'a> {
    jobs: &'a [Job],
    slots: &'a [OnceLock<Vec<f64>>],
}

impl Parts<'_> {
    /// Experiment `e`'s subtask values in canonical part order. Only
    /// called once they are complete: by `e`'s own report job, or by a
    /// report job that depends on `e`'s.
    fn of(&self, e: usize) -> Vec<Vec<f64>> {
        let base = part_base(self.jobs, e) - NE;
        (0..subtask_count(e))
            .map(|p| {
                self.slots[base + p]
                    .get()
                    .expect("subtask completed before merge")
                    .clone()
            })
            .collect()
    }
}

fn fig10_config(quick: bool, seed: u64) -> fig10::Fig10Config {
    if quick {
        fig10::Fig10Config {
            reps: 50,
            seed,
            ..Default::default()
        }
    } else {
        fig10::Fig10Config {
            seed,
            ..Default::default()
        }
    }
}

/// Scale parameters shared by the T3/time-to-quality tables.
fn table_scale(quick: bool) -> (usize, usize) {
    if quick {
        (100, 20)
    } else {
        (300, 200)
    }
}

/// Scale parameters of the T8 surrogate head-to-head (min-of-3
/// estimates cost 3 evaluations per step, hence the smaller budget
/// than [`table_scale`]).
fn t8_scale(quick: bool) -> (usize, usize) {
    if quick {
        (60, 10)
    } else {
        (200, 100)
    }
}

/// Scale parameters shared by the ablation studies.
fn ablation_scale(quick: bool) -> (usize, usize) {
    if quick {
        (100, 30)
    } else {
        (200, 300)
    }
}

/// Runs subtask `p` of experiment `e` and returns its raw cell values.
/// The replication loop inside every cell runs serially (`workers ==
/// 1`): the graph pool owns all parallelism, and the cell value is
/// worker-count-independent either way.
fn run_part(e: usize, p: usize, cfg: &RunConfig) -> Vec<f64> {
    let quick = !cfg.full;
    let seed = cfg.seed;
    match e {
        FIG10 => {
            let c = fig10_config(quick, seed);
            let (ki, ri) = (p / c.rhos.len(), p % c.rhos.len());
            let (ntt, sem) = fig10::cell_with_sem_in(1, c.rhos[ri], c.ks[ki], &c);
            vec![ntt, sem]
        }
        FIG10_PACKED => {
            let c = fig10_config(quick, seed);
            let (ki, ri) = (p / c.rhos.len(), p % c.rhos.len());
            vec![fig10::packed_cell_in(1, c.rhos[ri], c.ks[ki], &c)]
        }
        FIG10_EXTENDED => {
            let c = fig10_config(quick, seed);
            let (ri, ki) = (extended_own_rows(&c)[p / c.ks.len()], p % c.ks.len());
            let (ntt, sem) = fig10::cell_with_sem_in(1, fig10::EXTENDED_RHOS[ri], c.ks[ki], &c);
            vec![ntt, sem]
        }
        TABLE_BASELINES => {
            // the T3 row, then the time-to-quality row of the same sessions
            let (steps, reps) = table_scale(quick);
            let (mut row, quality) = tables::baseline_rows_in(
                1,
                tables::BASELINES[p],
                steps,
                reps,
                0.1,
                &tables::QUALITY_FACTORS,
                seed,
            );
            row.extend(quality);
            row
        }
        ABLATION_ESTIMATORS => {
            let (steps, reps) = ablation_scale(quick);
            let nn = estimator_noise_count();
            vec![ablations::estimators_cell_in(
                1,
                p / nn,
                p % nn,
                steps,
                reps,
                0.3,
                seed,
            )]
        }
        ABLATION_MONITORING => {
            let (steps, reps) = ablation_scale(quick);
            let (ntt, bt) = ablations::monitoring_cell_in(1, p / 2, p % 2 == 1, steps, reps, seed);
            vec![ntt, bt]
        }
        TABLE_RECOVERY => {
            let (steps, reps) = if quick { (30, 3) } else { (60, 6) };
            let n = recovery::SNAPSHOT_EVERY.len();
            recovery::recovery_cell_in(1, p / n, p % n, 8, steps, reps, 0.1, seed)
        }
        MULTI_SESSION => {
            let steps = if quick { 30 } else { 60 };
            multi_session::multi_session_cell_in(1, p, steps, seed)
        }
        T8_SURROGATE => {
            let (steps, reps) = t8_scale(quick);
            let n = t8_surrogate::T8_OPTIMIZERS.len();
            t8_surrogate::t8_cell_in(1, p % n, p / n, steps, reps, seed)
        }
        _ => unreachable!("experiment {e} has no subtasks"),
    }
}

/// Runs experiment `e`'s report job: unsplit experiments compute their
/// tables whole; split experiments reassemble them from the already
/// computed `parts` (their own, and those of the experiments they read),
/// byte-identical to the monolithic computation. Emits the report into `buf` and returns the
/// tables shared with dependent tasks.
fn run_report(
    e: usize,
    cfg: &RunConfig,
    slots: &[OnceLock<Vec<Table>>],
    parts: &Parts,
    buf: &mut String,
) -> Vec<Table> {
    let quick = !cfg.full;
    let seed = cfg.seed;
    let dir = &cfg.out_dir;
    match e {
        FIG01 => {
            let c = if quick {
                fig01::Fig01Config {
                    steps: 150,
                    reps: 12,
                    seed,
                    ..Default::default()
                }
            } else {
                fig01::Fig01Config {
                    seed,
                    ..Default::default()
                }
            };
            let t = fig01::run(&c);
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG02 => {
            let t = fig02::run();
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG03 => {
            let c = fig03::Fig03Config {
                seed,
                ..Default::default()
            };
            let t = fig03::run(&c);
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG03_CORRELATIONS => {
            let c = fig03::Fig03Config {
                seed,
                ..Default::default()
            };
            let t = fig03::correlations(&c);
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG04_07 => {
            let c = fig04_07::TailConfig {
                trace: fig03::Fig03Config {
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (a, b, c2, d, e2) = fig04_07::run(&c);
            let all = vec![a, b, c2, d, e2];
            for t in &all {
                emit_to(buf, dir, t);
            }
            all
        }
        FIG08 => {
            let t = fig08::run(&fig08::Fig08Config::default());
            let _ = writeln!(buf, "fig08 local minima: {}", fig08::count_local_minima(&t));
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG09 => {
            let c = if quick {
                fig09::Fig09Config {
                    reps: 16,
                    seed,
                    ..Default::default()
                }
            } else {
                fig09::Fig09Config {
                    seed,
                    ..Default::default()
                }
            };
            let t = fig09::run(&c);
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG10 => {
            let c = fig10_config(quick, seed);
            let cells: Vec<f64> = parts.of(FIG10).iter().map(|v| v[0]).collect();
            let t = fig10::assemble_grid(&c, "fig10_multisample", &cells);
            emit_to(buf, dir, &t);
            let k = fig10::optimal_k(&t);
            emit_to(buf, dir, &k);
            vec![t]
        }
        FIG10_EXTENDED => {
            // rows that are Fig. 10 columns come from its parts, the
            // others from this experiment's own, in ρ-major order
            let c = fig10_config(quick, seed);
            let grid = parts.of(FIG10);
            let own = parts.of(FIG10_EXTENDED);
            let mut own = own.iter();
            let mut cells = Vec::with_capacity(fig10::EXTENDED_RHOS.len() * c.ks.len());
            for &rho in &fig10::EXTENDED_RHOS {
                for ki in 0..c.ks.len() {
                    let v = match fig10::grid_column(&c, rho) {
                        Some(ci) => &grid[ki * c.rhos.len() + ci],
                        None => own.next().expect("one part per unshared cell"),
                    };
                    cells.push((v[0], v[1]));
                }
            }
            let t = fig10::assemble_extended(&c, &cells);
            emit_to(buf, dir, &t);
            vec![t]
        }
        FIG10_PACKED => {
            let c = fig10_config(quick, seed);
            let cells: Vec<f64> = parts.of(FIG10_PACKED).iter().map(|v| v[0]).collect();
            let t = fig10::assemble_grid(&c, "fig10_packed", &cells);
            emit_to(buf, dir, &t);
            vec![t]
        }
        CHARTS => {
            let get = |j: usize| slots[j].get().expect("chart dependency completed");
            let tail = get(FIG04_07);
            charts::emit_all_to(
                buf,
                dir,
                &get(FIG01)[0],
                &get(FIG03)[0],
                &tail[1],
                &tail[3],
                &get(FIG08)[0],
                &get(FIG09)[0],
                &get(FIG10)[0],
            );
            Vec::new()
        }
        TABLE_QUEUE_VALIDATION | TABLE_MIN_OPERATOR => {
            let reps = if quick { 20_000 } else { 200_000 };
            let t = if e == TABLE_QUEUE_VALIDATION {
                tables::queue_validation(reps, seed)
            } else {
                tables::min_operator(reps, seed)
            };
            emit_to(buf, dir, &t);
            vec![t]
        }
        TABLE_BASELINES | TABLE_TIME_TO_QUALITY => {
            // both tables read the same sessions: a T3 row followed by a
            // time-to-quality row per algorithm
            let rows = parts.of(TABLE_BASELINES);
            let at = tables::BASELINE_COLUMNS;
            let t = if e == TABLE_BASELINES {
                let t3: Vec<Vec<f64>> = rows.iter().map(|r| r[..at].to_vec()).collect();
                tables::assemble_baselines(&t3)
            } else {
                let ttq: Vec<Vec<f64>> = rows.iter().map(|r| r[at..].to_vec()).collect();
                tables::assemble_time_to_quality(&tables::QUALITY_FACTORS, &ttq)
            };
            emit_to(buf, dir, &t);
            vec![t]
        }
        ABLATION_ESTIMATORS => {
            let cells: Vec<f64> = parts.of(e).iter().map(|v| v[0]).collect();
            let t = ablations::assemble_estimators(0.3, &cells);
            emit_to(buf, dir, &t);
            vec![t]
        }
        ABLATION_MONITORING => {
            let cells: Vec<(f64, f64)> = parts.of(e).iter().map(|v| (v[0], v[1])).collect();
            let t = ablations::assemble_monitoring(&cells);
            emit_to(buf, dir, &t);
            vec![t]
        }
        ABLATION_EXPANSION_CHECK | ABLATION_PROJECTION | ABLATION_ADAPTIVE_K => {
            let (steps, reps) = ablation_scale(quick);
            let t = match e {
                ABLATION_EXPANSION_CHECK => ablations::expansion_check(steps, reps, 0.1, seed),
                ABLATION_PROJECTION => ablations::projection(steps, reps, 0.1, seed),
                _ => ablations::adaptive_k(steps, reps, seed),
            };
            emit_to(buf, dir, &t);
            vec![t]
        }
        TABLE_FAULT_TOLERANCE => {
            let (steps, reps) = if quick { (40, 4) } else { (80, 8) };
            let t = fault::fault_tolerance(16, steps, reps, 0.1, seed);
            emit_to(buf, dir, &t);
            vec![t]
        }
        TABLE_RECOVERY => {
            let t = recovery::assemble_recovery(&parts.of(e));
            emit_to(buf, dir, &t);
            vec![t]
        }
        MULTI_SESSION => {
            let t = multi_session::assemble_multi_session(&parts.of(e));
            emit_to(buf, dir, &t);
            vec![t]
        }
        T8_SURROGATE => {
            let t = t8_surrogate::assemble_t8(&parts.of(e));
            emit_to(buf, dir, &t);
            vec![t]
        }
        _ => unreachable!("unknown task index {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_graph_is_well_formed() {
        for (i, t) in TASKS.iter().enumerate() {
            for &d in t.deps {
                assert!(d < TASKS.len(), "task {i} has out-of-range dep {d}");
                assert!(d != i, "task {i} depends on itself");
            }
        }
        // names are unique and stable
        let mut names: Vec<&str> = TASKS.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TASKS.len());
    }

    #[test]
    fn job_graph_is_well_formed() {
        let jobs = build_jobs();
        assert_eq!(jobs.len(), job_count());
        let deps = job_deps(&jobs);
        // report jobs sit at their canonical experiment index
        for (e, job) in jobs.iter().enumerate().take(NE) {
            assert_eq!(job.exp, e);
            assert!(job.part.is_none());
        }
        // every subtask job feeds exactly its own experiment's merge
        for (i, job) in jobs.iter().enumerate().skip(NE) {
            assert!(job.part.is_some());
            assert!(deps[i].is_empty());
            assert!(deps[job.exp].contains(&i));
        }
        // labels are unique (trace/report keys)
        let mut labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), jobs.len());
        // the fan-out actually splits the heavy experiments
        assert_eq!(subtask_count(FIG10), 45);
        assert_eq!(subtask_count(FIG10_PACKED), 45);
        assert_eq!(subtask_count(FIG10_EXTENDED), 20);
        assert_eq!(subtask_count(TABLE_BASELINES), 7);
        assert_eq!(subtask_count(TABLE_TIME_TO_QUALITY), 0);
        assert_eq!(subtask_count(ABLATION_ESTIMATORS), 20);
        assert_eq!(subtask_count(ABLATION_MONITORING), 8);
        assert_eq!(subtask_count(TABLE_RECOVERY), 9);
        assert_eq!(subtask_count(MULTI_SESSION), 6);
        assert_eq!(subtask_count(T8_SURROGATE), 10);
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("fig10*", "fig10_packed"));
        assert!(glob_match("fig10", "fig10"));
        assert!(!glob_match("fig10", "fig10_packed"));
        assert!(glob_match("*baselines", "table_baselines"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("table_*", "fig01"));
    }

    #[test]
    fn only_selection_pulls_chart_deps() {
        let pats = vec!["charts".to_string()];
        let sel = selected_exps(Some(&pats));
        assert!(sel[CHARTS] && sel[FIG01] && sel[FIG10]);
        assert!(!sel[FIG02] && !sel[TABLE_BASELINES]);
        // a report that reads another experiment's parts pulls it in
        let pats = vec!["fig10_extended".to_string(), "*quality".to_string()];
        let sel = selected_exps(Some(&pats));
        let picked: Vec<&str> = (0..NE).filter(|&e| sel[e]).map(|e| TASKS[e].name).collect();
        assert_eq!(
            picked,
            [
                "fig10",
                "fig10_extended",
                "table_baselines",
                "table_time_to_quality"
            ]
        );
        let none: Option<&[String]> = None;
        assert!(selected_exps(none).iter().all(|&s| s));
    }

    #[test]
    fn span_collision_guard_trips_on_reuse() {
        let (tel, sink) = Telemetry::memory();
        let span = tel.span_open("task.a", Vec::new());
        tel.span_close(span);
        let records = sink.take();
        // same records claimed by two experiments → duplicate ids
        let dup = vec![(0usize, records.as_slice()), (0usize, records.as_slice())];
        let err = std::panic::catch_unwind(|| assert_no_span_collisions(&dup));
        assert!(err.is_err());
    }

    #[test]
    fn critical_path_follows_longest_chain() {
        // 2 -> 1 -> 0 chain plus a free task 3
        let deps = vec![vec![1], vec![2], vec![], vec![]];
        let walls = vec![1.0, 2.0, 3.0, 5.5];
        assert!((critical_path(&deps, &walls) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn json_report_roundtrips_key_numbers() {
        let r = HarnessReport {
            scale: "quick",
            workers: 4,
            seed: 2005,
            total_wall_s: 1.5,
            critical_path_s: 1.25,
            tasks: vec![
                TaskReport {
                    name: "a",
                    wall_s: 1.0,
                    stdout: String::new(),
                    records: Vec::new(),
                    subtasks: Vec::new(),
                },
                TaskReport {
                    name: "b",
                    wall_s: 2.0,
                    stdout: String::new(),
                    records: Vec::new(),
                    subtasks: vec![
                        SubtaskReport {
                            label: "b.k1".into(),
                            wall_s: 1.5,
                        },
                        SubtaskReport {
                            label: "b.merge".into(),
                            wall_s: 0.5,
                        },
                    ],
                },
            ],
            shared_cache_hit_rate: Some(0.42),
        };
        let json = r.to_json();
        // five containers deep: report → experiments → task → subtasks → subtask
        let doc = json::parse(&json).expect("the report is one JSON document");
        let num = |key: &str| doc.field(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(baseline_total_wall_s(&json), Ok(1.5));
        assert_eq!(num("shared_cache_hit_rate"), 0.42);
        assert_eq!(num("serial_wall_s"), 3.0);
        assert_eq!(num("workers"), 4.0);
        assert_eq!(num("speedup"), 2.0);
        assert_eq!(num("critical_path_s"), 1.25);
        assert_eq!(num("parallel_efficiency"), 0.5);
        assert!(json.contains("{\"name\": \"a\", \"wall_s\": 1.000},"));
        assert!(json.contains("{\"name\": \"b\", \"wall_s\": 2.000, \"subtasks\": ["));
        assert!(json.contains("{\"name\": \"b.k1\", \"wall_s\": 1.500},"));
        assert!(json.contains("{\"name\": \"b.merge\", \"wall_s\": 0.500}\n"));
    }

    #[test]
    fn baseline_total_wall_s_rejects_missing_and_malformed() {
        assert!(baseline_total_wall_s("{}").is_err());
        assert!(baseline_total_wall_s("{\"total_wall_s\": \"str\"}").is_err());
        assert!(baseline_total_wall_s("{\"total_wall_s\":  42.5,").is_err());
        assert!(baseline_total_wall_s("{\"total_wall_s\": 1} x").is_err());
        assert_eq!(baseline_total_wall_s("{\"total_wall_s\":7}"), Ok(7.0));
    }

    #[test]
    fn speedup_of_empty_run_is_defined() {
        let r = HarnessReport {
            scale: "quick",
            workers: 1,
            seed: 0,
            total_wall_s: 0.0,
            critical_path_s: 0.0,
            tasks: Vec::new(),
            shared_cache_hit_rate: None,
        };
        assert_eq!(r.speedup(), 1.0);
        assert_eq!(r.parallel_efficiency(), 1.0);
    }
}
