//! Dependency-aware parallel experiment harness.
//!
//! Every experiment of the reproduction is one entry of [`EXPERIMENTS`]:
//! its name, the experiments whose results it reads, its quick and full
//! scale, its fan-out *parts* and its *report*. Adding an experiment is
//! adding one entry; the engine below (job graph, `--only` closure,
//! telemetry, trace merge, critical path) and `run_all --list` read the
//! registry and know no experiment by name.
//!
//! The expensive sweeps (`fig10*`, the baseline tables, the
//! estimator/monitoring ablations, recovery, T7, T8) split into parts —
//! one job per `(ρ, K)` cell, algorithm or fleet size — feeding a
//! deterministic fan-in report job per experiment that reassembles the
//! table in exact canonical order. The report jobs are also where
//! cross-experiment reads attach: the chart renderer waits on the figure
//! reports whose tables it draws. The graph pool
//! ([`harmony_cluster::pool::par_graph_stats_in`]) schedules every job,
//! and experiment code runs serially inside its job, so `N` workers run
//! at most `N` jobs at once. Threads are not capped at `N`: the jobs of
//! `table_fault_tolerance`, `table_recovery` and `t7_multi_session` run
//! sessions through `run_session`, which spawns one thread per client
//! (16, 8 and 8) for each session (ROADMAP "One session engine").
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
//! * part jobs deposit raw cell values into slots keyed by structural
//!   position; the report job reads the slots in canonical row/column
//!   order, so the table bytes cannot depend on interleaving;
//! * each report job renders into a private buffer and writes only its
//!   own output files; the buffers are printed in canonical experiment
//!   order after the pool joins, so the stdout report is identical for
//!   every worker count.
//!
//! The result: `run_all --full -jN` produces byte-identical CSVs and
//! SVGs to a serial `-j1` run for every `N`.

use crate::experiments::{
    ablations, charts, fault, fig01, fig02, fig03, fig04_07, fig08, fig09, fig10, multi_session,
    recovery, t8_surrogate, tables,
};
use crate::report::{emit_table_telemetry, emit_to, results_dir, Table};
use harmony_cluster::pool;
use harmony_telemetry::{
    to_jsonl, Field, Kind, MemorySink, MetricsRegistry, Record, Telemetry, TelemetryConfig,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Session steps and replications of one experiment at one scale (0
/// where the experiment has no such parameter).
#[derive(Clone, Copy)]
struct Scale {
    steps: usize,
    reps: usize,
}

const fn scale(steps: usize, reps: usize) -> Scale {
    Scale { steps, reps }
}

/// No scale parameter at either scale.
const UNSCALED: [Scale; 2] = [scale(0, 0); 2];
/// The three fig10 sweeps.
const FIG10_SCALE: [Scale; 2] = [scale(100, 50), scale(100, 2_000)];
/// The five ablation studies.
const ABLATION_SCALE: [Scale; 2] = [scale(100, 30), scale(200, 300)];

/// One fan-out job: its stable label and the computation of its raw
/// cell values.
type Part = (String, Box<dyn Fn() -> Vec<f64> + Send + Sync>);

fn part(label: String, run: impl Fn() -> Vec<f64> + Send + Sync + 'static) -> Part {
    (label, Box::new(run))
}

/// One part per `(row, col)` of a `rows × cols` grid, row-major: the
/// cell order every split experiment's report reassembles.
fn grid(rows: usize, cols: usize, mut cell: impl FnMut(usize, usize) -> Part) -> Vec<Part> {
    (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (r, c)))
        .map(|(r, c)| cell(r, c))
        .collect()
}

/// One experiment of the reproduction.
pub struct Experiment {
    /// Stable name: the report key, the `task.*` trace span and the
    /// `--only` target.
    pub name: &'static str,
    /// Experiments whose tables or parts this one reads instead of
    /// recomputing them; each names an earlier entry of
    /// [`EXPERIMENTS`]. The report job waits on their report jobs.
    pub reads: &'static [&'static str],
    /// Quick and full scale.
    scale: [Scale; 2],
    /// The fan-out parts at a scale and seed, in canonical order.
    parts: fn(Scale, u64) -> Vec<Part>,
    /// Writes the experiment's outputs and returns the tables that are
    /// traced and handed to the experiments that read this one.
    report: fn(&mut Ctx) -> Vec<Table>,
}

impl Experiment {
    /// Number of fan-out part jobs (0 = the experiment runs whole inside
    /// its report job, or only reads another experiment's parts).
    pub fn part_count(&self) -> usize {
        (self.parts)(self.scale[0], 0).len()
    }
}

/// An experiment without parts.
const fn whole(
    name: &'static str,
    reads: &'static [&'static str],
    scale: [Scale; 2],
    report: fn(&mut Ctx) -> Vec<Table>,
) -> Experiment {
    Experiment {
        name,
        reads,
        scale,
        parts: |_, _| Vec::new(),
        report,
    }
}

fn fig03_config(seed: u64) -> fig03::Fig03Config {
    fig03::Fig03Config {
        seed,
        ..Default::default()
    }
}

fn fig10_config(s: Scale, seed: u64) -> fig10::Fig10Config {
    fig10::Fig10Config {
        steps: s.steps,
        reps: s.reps,
        seed,
        ..Default::default()
    }
}

/// The `K`-major fig10 grid: one part per `(K, ρ)` cell.
fn fig10_grid(
    s: Scale,
    seed: u64,
    name: &str,
    cell: fn(f64, usize, &fig10::Fig10Config) -> Vec<f64>,
) -> Vec<Part> {
    let c = fig10_config(s, seed);
    grid(c.ks.len(), c.rhos.len(), |ki, ri| {
        let (k, rho) = (c.ks[ki], c.rhos[ri]);
        part(format!("{name}.k{k}.rho{rho:.2}"), move || {
            cell(rho, k, &fig10_config(s, seed))
        })
    })
}

fn fig10_cell(rho: f64, k: usize, c: &fig10::Fig10Config) -> Vec<f64> {
    let (ntt, sem) = fig10::cell_with_sem_in(1, rho, k, c);
    vec![ntt, sem]
}

/// Every experiment, in canonical report order. The order is
/// topological (each read names an earlier entry) and fixes the
/// experiment's index: its report job, its `(index+1) << 32` span-id
/// namespace and the `task` field of its span. Part jobs run their
/// replication loops serially (`workers == 1`); the cell values are
/// worker-count-independent either way.
pub const EXPERIMENTS: &[Experiment] = &[
    whole("fig01", &[], [scale(150, 12), scale(300, 50)], |c| {
        c.share(fig01::run(&fig01::Fig01Config {
            steps: c.scale.steps,
            reps: c.scale.reps,
            seed: c.seed,
            ..Default::default()
        }))
    }),
    whole("fig02", &[], UNSCALED, |c| c.share(fig02::run())),
    whole("fig03", &[], UNSCALED, |c| {
        c.share(fig03::run(&fig03_config(c.seed)))
    }),
    whole("fig03_correlations", &[], UNSCALED, |c| {
        c.share(fig03::correlations(&fig03_config(c.seed)))
    }),
    whole("fig04_07", &[], UNSCALED, |c| {
        let (a, b, c2, d, e) = fig04_07::run(&fig04_07::TailConfig {
            trace: fig03_config(c.seed),
            ..Default::default()
        });
        c.share_all(vec![a, b, c2, d, e])
    }),
    whole("fig08", &[], UNSCALED, |c| {
        let t = fig08::run(&fig08::Fig08Config::default());
        let minima = fig08::count_local_minima(&t);
        let _ = writeln!(c.buf, "fig08 local minima: {minima}");
        c.share(t)
    }),
    whole("fig09", &[], [scale(100, 16), scale(100, 200)], |c| {
        c.share(fig09::run(&fig09::Fig09Config {
            steps: c.scale.steps,
            reps: c.scale.reps,
            seed: c.seed,
            ..Default::default()
        }))
    }),
    Experiment {
        name: "fig10",
        reads: &[],
        scale: FIG10_SCALE,
        parts: |s, seed| fig10_grid(s, seed, "fig10", fig10_cell),
        report: |c| {
            let cells: Vec<f64> = c.parts().iter().map(|v| v[0]).collect();
            let cfg = fig10_config(c.scale, c.seed);
            let t = fig10::assemble_grid(&cfg, "fig10_multisample", &cells);
            c.emit(&t);
            // the K* table is written but neither traced nor shared
            c.emit(&fig10::optimal_k(&t));
            vec![t]
        },
    },
    Experiment {
        name: "fig10_extended",
        reads: &["fig10"],
        scale: FIG10_SCALE,
        // the extended rows that are not a Fig. 10 column
        parts: |s, seed| {
            let c = fig10_config(s, seed);
            let own: Vec<f64> = fig10::EXTENDED_RHOS
                .into_iter()
                .filter(|&rho| fig10::grid_column(&c, rho).is_none())
                .collect();
            grid(own.len(), c.ks.len(), |ri, ki| {
                let (rho, k) = (own[ri], c.ks[ki]);
                part(format!("fig10_extended.rho{rho:.2}.k{k}"), move || {
                    fig10_cell(rho, k, &fig10_config(s, seed))
                })
            })
        },
        report: |c| {
            // rows that are Fig. 10 columns come from its parts, the
            // others from this experiment's own, in ρ-major order
            let cfg = fig10_config(c.scale, c.seed);
            let grid = c.parts_of("fig10");
            let own = c.parts();
            let mut own = own.iter();
            let mut cells = Vec::with_capacity(fig10::EXTENDED_RHOS.len() * cfg.ks.len());
            for &rho in &fig10::EXTENDED_RHOS {
                for ki in 0..cfg.ks.len() {
                    let v = match fig10::grid_column(&cfg, rho) {
                        Some(ci) => &grid[ki * cfg.rhos.len() + ci],
                        None => own.next().expect("one part per unshared cell"),
                    };
                    cells.push((v[0], v[1]));
                }
            }
            c.share(fig10::assemble_extended(&cfg, &cells))
        },
    },
    Experiment {
        name: "fig10_packed",
        reads: &[],
        scale: FIG10_SCALE,
        parts: |s, seed| {
            fig10_grid(s, seed, "fig10_packed", |rho, k, c| {
                vec![fig10::packed_cell_in(1, rho, k, c)]
            })
        },
        report: |c| {
            let cells: Vec<f64> = c.parts().iter().map(|v| v[0]).collect();
            let cfg = fig10_config(c.scale, c.seed);
            c.share(fig10::assemble_grid(&cfg, "fig10_packed", &cells))
        },
    },
    whole(
        "charts",
        &["fig01", "fig03", "fig04_07", "fig08", "fig09", "fig10"],
        UNSCALED,
        |c| {
            let tail = c.tables_of("fig04_07");
            let (f01, f03) = (c.tables_of("fig01"), c.tables_of("fig03"));
            let (f08, f09) = (c.tables_of("fig08"), c.tables_of("fig09"));
            let f10 = c.tables_of("fig10");
            charts::emit_all_to(
                &mut c.buf, c.dir, &f01[0], &f03[0], &tail[1], &tail[3], &f08[0], &f09[0], &f10[0],
            );
            Vec::new()
        },
    ),
    whole(
        "table_queue_validation",
        &[],
        [scale(0, 20_000), scale(0, 200_000)],
        |c| c.share(tables::queue_validation(c.scale.reps, c.seed)),
    ),
    whole(
        "table_min_operator",
        &[],
        [scale(0, 20_000), scale(0, 200_000)],
        |c| c.share(tables::min_operator(c.scale.reps, c.seed)),
    ),
    Experiment {
        name: "table_baselines",
        reads: &[],
        scale: [scale(100, 20), scale(300, 200)],
        // each part is the T3 row, then the time-to-quality row of the
        // same sessions
        parts: |s, seed| {
            tables::BASELINES
                .into_iter()
                .map(|name| {
                    part(format!("table_baselines.{name}"), move || {
                        let (mut row, quality) = tables::baseline_rows_in(
                            1,
                            name,
                            s.steps,
                            s.reps,
                            0.1,
                            &tables::QUALITY_FACTORS,
                            seed,
                        );
                        row.extend(quality);
                        row
                    })
                })
                .collect()
        },
        report: |c| {
            let rows: Vec<Vec<f64>> = c
                .parts()
                .iter()
                .map(|r| r[..tables::BASELINE_COLUMNS].to_vec())
                .collect();
            c.share(tables::assemble_baselines(&rows))
        },
    },
    whole(
        "table_time_to_quality",
        &["table_baselines"],
        UNSCALED,
        |c| {
            let rows: Vec<Vec<f64>> = c
                .parts_of("table_baselines")
                .iter()
                .map(|r| r[tables::BASELINE_COLUMNS..].to_vec())
                .collect();
            c.share(tables::assemble_time_to_quality(
                &tables::QUALITY_FACTORS,
                &rows,
            ))
        },
    ),
    whole("ablation_expansion_check", &[], ABLATION_SCALE, |c| {
        let Scale { steps, reps } = c.scale;
        c.share(ablations::expansion_check(steps, reps, 0.1, c.seed))
    }),
    Experiment {
        name: "ablation_estimators",
        reads: &[],
        scale: ABLATION_SCALE,
        parts: |s, seed| {
            let noises = ablations::estimator_noises(0.3);
            grid(ablations::ESTIMATORS.len(), noises.len(), |ei, ni| {
                let label = format!(
                    "ablation_estimators.{}.{}",
                    ablations::ESTIMATORS[ei].label(),
                    noises[ni].0
                );
                part(label, move || {
                    vec![ablations::estimators_cell_in(
                        1, ei, ni, s.steps, s.reps, 0.3, seed,
                    )]
                })
            })
        },
        report: |c| {
            let cells: Vec<f64> = c.parts().iter().map(|v| v[0]).collect();
            c.share(ablations::assemble_estimators(0.3, &cells))
        },
    },
    whole("ablation_projection", &[], ABLATION_SCALE, |c| {
        let Scale { steps, reps } = c.scale;
        c.share(ablations::projection(steps, reps, 0.1, c.seed))
    }),
    Experiment {
        name: "ablation_monitoring",
        reads: &[],
        scale: ABLATION_SCALE,
        parts: |s, seed| {
            grid(ablations::MONITORING_RHOS.len(), 2, |ri, mode| {
                let continuous = mode == 1;
                let label = format!(
                    "ablation_monitoring.rho{}.{}",
                    ablations::MONITORING_RHOS[ri],
                    if continuous { "continuous" } else { "stop" }
                );
                part(label, move || {
                    let (ntt, bt) =
                        ablations::monitoring_cell_in(1, ri, continuous, s.steps, s.reps, seed);
                    vec![ntt, bt]
                })
            })
        },
        report: |c| {
            let cells: Vec<(f64, f64)> = c.parts().iter().map(|v| (v[0], v[1])).collect();
            c.share(ablations::assemble_monitoring(&cells))
        },
    },
    whole("ablation_adaptive_k", &[], ABLATION_SCALE, |c| {
        c.share(ablations::adaptive_k(c.scale.steps, c.scale.reps, c.seed))
    }),
    whole(
        "table_fault_tolerance",
        &[],
        [scale(40, 4), scale(80, 8)],
        |c| {
            let Scale { steps, reps } = c.scale;
            c.share(fault::fault_tolerance(16, steps, reps, 0.1, c.seed))
        },
    ),
    Experiment {
        name: "table_recovery",
        reads: &[],
        scale: [scale(30, 3), scale(60, 6)],
        parts: |s, seed| {
            let (crash, snap) = (recovery::CRASH_RATES, recovery::SNAPSHOT_EVERY);
            grid(crash.len(), snap.len(), |ci, si| {
                let label = format!("table_recovery.crash{:.2}.snap{}", crash[ci], snap[si]);
                part(label, move || {
                    recovery::recovery_cell_in(1, ci, si, 8, s.steps, s.reps, 0.1, seed)
                })
            })
        },
        report: |c| c.share(recovery::assemble_recovery(&c.parts())),
    },
    Experiment {
        name: "t7_multi_session",
        reads: &[],
        scale: [scale(30, 0), scale(60, 0)],
        parts: |s, seed| {
            multi_session::SESSION_COUNTS
                .into_iter()
                .map(|n| {
                    part(format!("t7_multi_session.s{n}"), move || {
                        multi_session::fleet_in(1, n, s.steps, seed)
                    })
                })
                .collect()
        },
        report: |c| c.share(multi_session::assemble_multi_session(&c.parts())),
    },
    Experiment {
        name: "t8_surrogate",
        reads: &[],
        scale: [scale(60, 10), scale(200, 100)],
        parts: |s, seed| {
            let (rhos, opts) = (t8_surrogate::T8_RHOS, t8_surrogate::T8_OPTIMIZERS);
            grid(rhos.len(), opts.len(), |ri, oi| {
                let label = format!("t8_surrogate.{}.rho{:.2}", opts[oi], rhos[ri]);
                part(label, move || {
                    t8_surrogate::t8_cell_in(1, oi, ri, s.steps, s.reps, seed)
                })
            })
        },
        report: |c| c.share(t8_surrogate::assemble_t8(&c.parts())),
    },
];

/// Number of experiments (= report jobs).
const NE: usize = EXPERIMENTS.len();

/// Canonical index of the experiment named `name`.
fn index_of(name: &str) -> usize {
    EXPERIMENTS
        .iter()
        .position(|x| x.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"))
}

/// What a report job reaches: its scale and seed, its output, its own
/// parts, and the tables and parts of the experiments it declares in
/// [`Experiment::reads`]. The fields behind those reads are private to
/// this module, so any other read is a compile error, and an undeclared
/// name panics at once, naming both experiments, whatever the schedule.
mod ctx {
    use super::{emit_to, index_of, OnceLock, Path, RunConfig, Scale, Table, EXPERIMENTS};

    pub(super) struct Ctx<'a> {
        pub(super) scale: Scale,
        pub(super) seed: u64,
        pub(super) dir: &'a Path,
        pub(super) buf: String,
        exp: usize,
        tables: &'a [OnceLock<Vec<Table>>],
        values: &'a [Vec<OnceLock<Vec<f64>>>],
    }

    impl<'a> Ctx<'a> {
        pub(super) fn new(
            exp: usize,
            cfg: &'a RunConfig,
            tables: &'a [OnceLock<Vec<Table>>],
            values: &'a [Vec<OnceLock<Vec<f64>>>],
        ) -> Self {
            Ctx {
                scale: EXPERIMENTS[exp].scale[usize::from(cfg.full)],
                seed: cfg.seed,
                dir: &cfg.out_dir,
                buf: String::new(),
                exp,
                tables,
                values,
            }
        }

        /// Index of the declared read `name`.
        fn read(&self, name: &str) -> usize {
            let me = &EXPERIMENTS[self.exp];
            assert!(
                me.reads.contains(&name),
                "experiment {} reads {name}, which it does not declare",
                me.name
            );
            index_of(name)
        }

        fn values_of(&self, e: usize) -> Vec<Vec<f64>> {
            self.values[e]
                .iter()
                .map(|v| v.get().expect("parts finish before the report").clone())
                .collect()
        }

        /// This experiment's part values in canonical part order.
        pub(super) fn parts(&self) -> Vec<Vec<f64>> {
            self.values_of(self.exp)
        }

        /// The part values of the declared read `name`.
        pub(super) fn parts_of(&self, name: &str) -> Vec<Vec<f64>> {
            self.values_of(self.read(name))
        }

        /// The shared tables of the declared read `name`.
        pub(super) fn tables_of(&self, name: &str) -> &'a [Table] {
            self.tables[self.read(name)]
                .get()
                .expect("a declared read reports before its reader")
        }

        /// Writes `t`'s CSV and its stdout block.
        pub(super) fn emit(&mut self, t: &Table) {
            emit_to(&mut self.buf, self.dir, t);
        }

        /// [`Self::emit`]s every table and returns them for the trace
        /// and the experiments that read this one.
        pub(super) fn share_all(&mut self, ts: Vec<Table>) -> Vec<Table> {
            for t in &ts {
                self.emit(t);
            }
            ts
        }

        pub(super) fn share(&mut self, t: Table) -> Vec<Table> {
            self.share_all(vec![t])
        }
    }
}
use ctx::Ctx;

/// The job graph of one run: the `NE` report jobs first (job index ==
/// experiment index), then every part grouped by experiment in part
/// order. A report job waits on its own parts and on the report jobs of
/// the experiments it reads (a read experiment's report waits on that
/// experiment's parts in turn); part jobs are roots.
struct Plan {
    parts: Vec<Vec<Part>>,
    /// `(experiment, part)` of every job; `None` is the report job.
    jobs: Vec<(usize, Option<usize>)>,
    deps: Vec<Vec<usize>>,
}

impl Plan {
    fn new(full: bool, seed: u64) -> Plan {
        let parts: Vec<Vec<Part>> = EXPERIMENTS
            .iter()
            .map(|x| (x.parts)(x.scale[usize::from(full)], seed))
            .collect();
        let mut jobs: Vec<(usize, Option<usize>)> = (0..NE).map(|e| (e, None)).collect();
        let mut deps: Vec<Vec<usize>> = EXPERIMENTS
            .iter()
            .map(|x| x.reads.iter().map(|r| index_of(r)).collect())
            .collect();
        for (e, ps) in parts.iter().enumerate() {
            for p in 0..ps.len() {
                deps[e].push(jobs.len());
                jobs.push((e, Some(p)));
                deps.push(Vec::new());
            }
        }
        Plan { parts, jobs, deps }
    }

    fn label(&self, i: usize) -> &str {
        match self.jobs[i] {
            (e, None) => EXPERIMENTS[e].name,
            (e, Some(p)) => &self.parts[e][p].0,
        }
    }
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
/// the experiments they read, transitively (everything when no filter
/// is set). Reads name earlier entries, so one backward pass closes the
/// selection.
fn selected_exps(only: Option<&[String]>) -> Vec<bool> {
    let mut sel = vec![only.is_none(); NE];
    if let Some(pats) = only {
        for (e, x) in EXPERIMENTS.iter().enumerate().rev() {
            sel[e] |= pats.iter().any(|p| glob_match(p, x.name));
            if sel[e] {
                for r in x.reads {
                    sel[index_of(r)] = true;
                }
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
            // uncapped: the graph pool caps workers at its job count
            workers: pool::worker_count(usize::MAX),
            out_dir: results_dir(),
            progress: false,
            trace: None,
            trace_wall: false,
            only: None,
            metrics: None,
        }
    }
}

/// Wall time of one fan-out part job.
pub struct SubtaskReport {
    /// Stable part label (`<experiment>.<cell>`, or
    /// `<experiment>.merge` for the report job).
    pub label: String,
    /// Wall-clock seconds spent inside the job.
    pub wall_s: f64,
}

/// Per-experiment outcome: the rendered stdout block and wall times.
pub struct TaskReport {
    /// Experiment name from [`EXPERIMENTS`].
    pub name: &'static str,
    /// Serial-equivalent wall-clock seconds: the sum over the
    /// experiment's part jobs plus its report job (for unsplit
    /// experiments, just the report job).
    pub wall_s: f64,
    /// The task's buffered report text.
    pub stdout: String,
    /// The task's telemetry records (empty unless tracing was on).
    pub records: Vec<Record>,
    /// Per-part wall times (empty for unsplit experiments); the final
    /// entry is the fan-in report job.
    pub subtasks: Vec<SubtaskReport>,
}

/// Whole-run outcome: per-experiment reports and wall times.
pub struct HarnessReport {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole graph.
    pub total_wall_s: f64,
    /// Longest dependency chain through the job graph, weighted by
    /// measured job wall times — the wall-clock lower bound no worker
    /// count can beat.
    pub critical_path_s: f64,
    /// Per-task reports in canonical task order (only the experiments
    /// selected by `--only`).
    pub tasks: Vec<TaskReport>,
}

impl HarnessReport {
    /// Sum of per-task wall times — the serial-equivalent cost of the
    /// run (what a one-worker schedule would pay, up to scheduler
    /// overhead).
    pub fn serial_wall_s(&self) -> f64 {
        self.tasks.iter().map(|t| t.wall_s).sum()
    }
}

/// Builds experiment `e`'s private telemetry: an in-memory sink and a
/// handle whose span ids live in the experiment's own `(e+1) << 32`
/// namespace, so the per-experiment streams can be merged without id
/// collisions. Namespaces are keyed by the *canonical experiment
/// index*, never by the (dynamic) job index, so the part fan-out
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
                    EXPERIMENTS[e].name
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
#[derive(Default)]
struct JobOut {
    wall_s: f64,
    stdout: String,
    records: Vec<Record>,
}

/// Executes the full job graph and returns the per-experiment reports
/// in canonical task order.
pub fn run(cfg: &RunConfig) -> HarnessReport {
    let plan = Plan::new(cfg.full, cfg.seed);
    let sel = selected_exps(cfg.only.as_deref());
    let n = plan.jobs.len();
    let n_sel = plan.jobs.iter().filter(|&&(e, _)| sel[e]).count();
    let tables: Vec<OnceLock<Vec<Table>>> = (0..NE).map(|_| OnceLock::new()).collect();
    let values: Vec<Vec<OnceLock<Vec<f64>>>> = plan
        .parts
        .iter()
        .map(|ps| ps.iter().map(|_| OnceLock::new()).collect())
        .collect();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let (mut outs, pool_stats) = pool::par_graph_stats_in(cfg.workers, n, &plan.deps, |i| {
        let (e, part) = plan.jobs[i];
        if !sel[e] {
            return JobOut::default();
        }
        let t0 = Instant::now();
        let mut stdout = String::new();
        let mut records = Vec::new();
        if let Some(p) = part {
            let _ = values[e][p].set((plan.parts[e][p].1)());
        } else {
            let telemetry = task_telemetry(cfg, e);
            let tel = telemetry
                .as_ref()
                .map_or_else(Telemetry::disabled, |(t, _)| t.clone());
            let x = &EXPERIMENTS[e];
            let span = tel.span_open(&format!("task.{}", x.name), vec![Field::new("task", e)]);
            let mut ctx = Ctx::new(e, cfg, &tables, &values);
            let produced = (x.report)(&mut ctx);
            stdout = ctx.buf;
            for t in &produced {
                emit_table_telemetry(&tel, t);
                tel.counter("harness.tables", 1);
                tel.counter("harness.rows", t.rows.len() as u64);
                tel.advance_clock(1);
            }
            tel.span_close(span);
            records = telemetry.map_or_else(Vec::new, |(_, sink)| sink.take());
            let _ = tables[e].set(produced);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        if cfg.progress {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("[{k:>3}/{n_sel}] {} done in {wall_s:.3}s", plan.label(i));
        }
        JobOut {
            wall_s,
            stdout,
            records,
        }
    });
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    let critical_path_s = critical_path(&plan.deps, &walls);
    let collision_view: Vec<(usize, &[Record])> = (0..NE)
        .filter(|&e| sel[e])
        .map(|e| (e, outs[e].records.as_slice()))
        .collect();
    assert_no_span_collisions(&collision_view);
    let mut tasks = Vec::new();
    for e in (0..NE).filter(|&e| sel[e]) {
        let name = EXPERIMENTS[e].name;
        let mut subtasks: Vec<SubtaskReport> = (NE..n)
            .filter(|&k| plan.jobs[k].0 == e)
            .map(|k| SubtaskReport {
                label: plan.label(k).to_string(),
                wall_s: outs[k].wall_s,
            })
            .collect();
        let parts_wall: f64 = subtasks.iter().map(|s| s.wall_s).sum();
        if !subtasks.is_empty() {
            subtasks.push(SubtaskReport {
                label: format!("{name}.merge"),
                wall_s: outs[e].wall_s,
            });
        }
        tasks.push(TaskReport {
            name,
            wall_s: outs[e].wall_s + parts_wall,
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
    HarnessReport {
        workers: cfg.workers,
        total_wall_s: start.elapsed().as_secs_f64(),
        critical_path_s,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_graph_is_well_formed() {
        // names are unique and stable
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|x| x.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NE);
        // every read names an earlier experiment, so canonical order is
        // topological (and no experiment reads itself)
        for (e, x) in EXPERIMENTS.iter().enumerate() {
            for r in x.reads {
                assert!(
                    index_of(r) < e,
                    "{} reads {r}, which is not earlier",
                    x.name
                );
            }
        }
    }

    #[test]
    fn job_graph_is_well_formed() {
        let plan = Plan::new(false, 2005);
        let parts: usize = EXPERIMENTS.iter().map(Experiment::part_count).sum();
        assert_eq!(plan.jobs.len(), NE + parts);
        assert_eq!((NE, plan.jobs.len()), (24, 194));
        // report jobs sit at their canonical experiment index
        for (e, &job) in plan.jobs.iter().enumerate().take(NE) {
            assert_eq!(job, (e, None));
        }
        // every part job feeds exactly its own experiment's report
        for (i, &(e, part)) in plan.jobs.iter().enumerate().skip(NE) {
            assert!(part.is_some());
            assert!(plan.deps[i].is_empty());
            assert!(plan.deps[e].contains(&i));
        }
        // labels are unique (trace/report keys), at both scales alike
        let mut labels: Vec<&str> = (0..plan.jobs.len()).map(|i| plan.label(i)).collect();
        let full = Plan::new(true, 7);
        assert!((0..labels.len()).all(|i| full.label(i) == labels[i]));
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), plan.jobs.len());
        // the fan-out actually splits the heavy experiments
        let count = |name: &str| EXPERIMENTS[index_of(name)].part_count();
        assert_eq!(count("fig10"), 45);
        assert_eq!(count("fig10_packed"), 45);
        assert_eq!(count("fig10_extended"), 20);
        assert_eq!(count("table_baselines"), 7);
        assert_eq!(count("table_time_to_quality"), 0);
        assert_eq!(count("ablation_estimators"), 20);
        assert_eq!(count("ablation_monitoring"), 8);
        assert_eq!(count("table_recovery"), 9);
        assert_eq!(count("t7_multi_session"), 6);
        assert_eq!(count("t8_surrogate"), 10);
    }

    #[test]
    fn undeclared_read_panics_naming_both() {
        let tables: Vec<OnceLock<Vec<Table>>> = (0..NE).map(|_| OnceLock::new()).collect();
        let values: Vec<Vec<OnceLock<Vec<f64>>>> = (0..NE).map(|_| Vec::new()).collect();
        let cfg = RunConfig::new(false);
        let read = |reader: &str, read: &str, of_tables: bool| {
            let ctx = Ctx::new(index_of(reader), &cfg, &tables, &values);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if of_tables {
                    ctx.tables_of(read);
                } else {
                    ctx.parts_of(read);
                }
            }))
            .expect_err("an undeclared read must panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        // the read experiments have not run: the check comes first
        let msg = read("table_time_to_quality", "fig10", false);
        assert!(
            msg.contains("table_time_to_quality") && msg.contains("fig10"),
            "{msg}"
        );
        let msg = read("charts", "fig02", true);
        assert!(msg.contains("charts") && msg.contains("fig02"), "{msg}");
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
        let picked = |name: &str| sel[index_of(name)];
        assert!(picked("charts") && picked("fig01") && picked("fig10"));
        assert!(!picked("fig02") && !picked("table_baselines"));
        // a report that reads another experiment's parts pulls it in
        let pats = vec!["fig10_extended".to_string(), "*quality".to_string()];
        let sel = selected_exps(Some(&pats));
        let picked: Vec<&str> = (0..NE)
            .filter(|&e| sel[e])
            .map(|e| EXPERIMENTS[e].name)
            .collect();
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
}
