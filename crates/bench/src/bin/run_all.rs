//! Regenerates every figure and table at reduced (default) or `--full`
//! scale on the dependency-aware parallel harness. See EXPERIMENTS.md
//! for the recorded outputs and DESIGN.md §4d/§4f for the determinism
//! argument and the subtask decomposition.
//!
//! Flags:
//!
//! * `--full` — paper-scale parameters (default is the quick scale)
//! * `-jN` / `--workers N` — worker threads (default:
//!   `std::thread::available_parallelism()`); the artifacts are
//!   byte-identical for every worker count
//! * `--seed N` — global experiment seed (default 2005, the committed
//!   artifacts' seed)
//! * `--only GLOB` — run only the experiments matching the `*`-glob
//!   (repeatable; dependencies are pulled in automatically)
//! * `--list` — print the experiment names, their subtask counts and
//!   the experiments whose results each reads, then exit
//! * `--check-against PATH` — read a previously committed
//!   `BENCH_harness.json` and exit nonzero when this run's total
//!   wall-clock regresses by more than 25%
//! * `--min-speedup X` — exit nonzero when the run's effective speedup
//!   (serial-equivalent over wall-clock) falls below `X`; meaningful
//!   only on hosts with at least that many cores (CI timing gates)
//! * `--trace PATH` — write a JSONL telemetry trace of the run (byte-
//!   identical for every worker count; read it with `trace_summary`)
//! * `--trace-wall` — additionally stamp wall-clock nanoseconds and
//!   pool scheduling statistics into the trace (nondeterministic)
//! * `--metrics PATH` — write a Prometheus-style metrics snapshot of
//!   the run (byte-identical for every worker count; see DESIGN.md §4j)
//! * `--verbose` — stderr progress lines while jobs finish (also
//!   enabled by a non-empty, non-`0` `HARMONY_VERBOSE`)
//!
//! Every invocation writes `BENCH_harness.json` (per-experiment and
//! per-subtask wall-clock, critical-path length, worker count,
//! effective speedup, parallel efficiency) next to the results
//! directory. The telemetry and journal overhead budgets are gated by
//! the `overhead` binary, not here.

use harmony_bench::harness::{self, RunConfig};

fn parse_or_die<T: std::str::FromStr>(what: &str, v: Option<&String>) -> T {
    let Some(v) = v else {
        eprintln!("missing value for {what}");
        std::process::exit(2);
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {what}: {v}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig::new(false);
    // progress was unconditional; diagnostics now default quiet and are
    // opted into with --verbose or HARMONY_VERBOSE
    cfg.progress = harmony_telemetry::TelemetryConfig::from_env().verbose;
    let mut check_against: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut only: Vec<String> = Vec::new();
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--full" {
            cfg.full = true;
        } else if a == "--quick" {
            cfg.full = false;
        } else if a == "--verbose" {
            cfg.progress = true;
        } else if a == "--list" {
            list = true;
        } else if a == "--only" {
            i += 1;
            let Some(p) = args.get(i) else {
                eprintln!("missing value for --only");
                std::process::exit(2);
            };
            only.push(p.clone());
        } else if a == "--trace" {
            i += 1;
            let Some(p) = args.get(i) else {
                eprintln!("missing value for --trace");
                std::process::exit(2);
            };
            cfg.trace = Some(p.into());
        } else if a == "--trace-wall" {
            cfg.trace_wall = true;
        } else if a == "--metrics" {
            i += 1;
            let Some(p) = args.get(i) else {
                eprintln!("missing value for --metrics");
                std::process::exit(2);
            };
            cfg.metrics = Some(p.into());
        } else if let Some(rest) = a.strip_prefix("-j") {
            if rest.is_empty() {
                i += 1;
                cfg.workers = parse_or_die("-j", args.get(i));
            } else {
                cfg.workers = parse_or_die("-j", Some(&rest.to_string()));
            }
        } else if a == "--workers" {
            i += 1;
            cfg.workers = parse_or_die("--workers", args.get(i));
        } else if a == "--seed" {
            i += 1;
            cfg.seed = parse_or_die("--seed", args.get(i));
        } else if a == "--check-against" {
            i += 1;
            let Some(p) = args.get(i) else {
                eprintln!("missing value for --check-against");
                std::process::exit(2);
            };
            check_against = Some(p.clone());
        } else if a == "--min-speedup" {
            i += 1;
            min_speedup = Some(parse_or_die("--min-speedup", args.get(i)));
        } else {
            eprintln!("unknown argument: {a}");
            std::process::exit(2);
        }
        i += 1;
    }
    cfg.workers = cfg.workers.max(1);

    if list {
        for (e, t) in harness::TASKS.iter().enumerate() {
            let mut notes = Vec::new();
            let parts = harness::subtask_count(e);
            if parts > 0 {
                notes.push(format!("{parts} subtasks"));
            }
            if !t.deps.is_empty() {
                let reads: Vec<&str> = t.deps.iter().map(|&d| harness::TASKS[d].name).collect();
                notes.push(format!("reads {}", reads.join(", ")));
            }
            if notes.is_empty() {
                println!("{}", t.name);
            } else {
                println!("{} ({})", t.name, notes.join("; "));
            }
        }
        println!(
            "total: {} experiments, {} schedulable jobs",
            harness::TASKS.len(),
            harness::job_count()
        );
        return;
    }
    if !only.is_empty() {
        let matched = harness::TASKS
            .iter()
            .any(|t| only.iter().any(|p| harness::glob_match(p, t.name)));
        if !matched {
            eprintln!("--only matched no experiments (see --list)");
            std::process::exit(2);
        }
        cfg.only = Some(only);
    }

    // read the committed baseline *before* running (the run overwrites
    // BENCH_harness.json, which is the usual baseline path)
    let baseline_total = check_against.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("--check-against {path}: {e}");
            std::process::exit(2);
        });
        harness::baseline_total_wall_s(&text).unwrap_or_else(|e| {
            eprintln!("--check-against {path}: {e}");
            std::process::exit(2);
        })
    });

    let scale = if cfg.full { "full" } else { "quick" };
    println!(
        "=== regenerating all paper artifacts ({scale} scale, {} workers, seed {}) ===\n",
        cfg.workers, cfg.seed
    );

    let report = harness::run(&cfg);

    for t in &report.tasks {
        print!("{}", t.stdout);
        println!("[time] {} {:.3}s\n", t.name, t.wall_s);
    }

    let json = report.to_json();
    let json_path = "BENCH_harness.json";
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("failed to write {json_path}: {e}");
    }
    println!(
        "=== done: {} experiments in {:.3}s on {} workers \
         (serial-equivalent {:.3}s, effective speedup {:.2}x, \
         critical path {:.3}s) ===",
        report.tasks.len(),
        report.total_wall_s,
        report.workers,
        report.serial_wall_s(),
        report.speedup(),
        report.critical_path_s
    );
    println!("[json] {json_path}");
    if let Some(trace) = &cfg.trace {
        println!("[trace] {}", trace.display());
    }
    if let Some(metrics) = &cfg.metrics {
        println!("[metrics] {}", metrics.display());
    }

    let mut failed = false;
    if let Some(baseline) = baseline_total {
        let limit = baseline * 1.25;
        println!(
            "[check] total {:.3}s vs baseline {baseline:.3}s (limit {limit:.3}s)",
            report.total_wall_s
        );
        if report.total_wall_s > limit {
            eprintln!(
                "FAIL: total wall-clock {:.3}s regressed more than 25% over baseline {baseline:.3}s",
                report.total_wall_s
            );
            failed = true;
        }
    }
    if let Some(min) = min_speedup {
        println!(
            "[check] effective speedup {:.2}x vs required {min:.2}x",
            report.speedup()
        );
        if report.speedup() < min {
            eprintln!(
                "FAIL: effective speedup {:.2}x below required {min:.2}x",
                report.speedup()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
