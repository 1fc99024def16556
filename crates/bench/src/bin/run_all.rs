//! Regenerates every figure and table at reduced (default) or `--full`
//! scale on the dependency-aware parallel harness. Every experiment is
//! one entry of `harness::EXPERIMENTS` (adding one is adding an entry);
//! its code runs serially inside its job, so `-jN` runs at most `N` jobs
//! at once (the server sessions of three experiments also spawn one
//! thread per client; see the `harness` module). See EXPERIMENTS.md for
//! the recorded outputs and DESIGN.md §4d/§4f for the determinism
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
//! * `--trace PATH` — write a JSONL telemetry trace of the run (byte-
//!   identical for every worker count; read it with `trace_summary`)
//! * `--trace-wall` — additionally stamp wall-clock nanoseconds and
//!   pool scheduling statistics into the trace (nondeterministic)
//! * `--metrics PATH` — write a Prometheus-style metrics snapshot of
//!   the run (byte-identical for every worker count; see DESIGN.md §4j)
//! * `--verbose` — stderr progress lines while jobs finish (also
//!   enabled by a non-empty, non-`0` `HARMONY_VERBOSE`)
//!
//! A run writes nothing outside the results directory except the
//! `--trace` and `--metrics` files. Its timing is measured by the
//! `paper_suite` workload of `perfbench/`; the telemetry and journal
//! overhead budgets are gated by the `overhead` binary.

use harmony_bench::harness::{self, RunConfig};

fn parse_or_die<T: std::str::FromStr>(what: &str, v: Option<String>) -> T {
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
    let mut cfg = RunConfig::new(false);
    // progress was unconditional; diagnostics now default quiet and are
    // opted into with --verbose or HARMONY_VERBOSE
    cfg.progress = harmony_telemetry::TelemetryConfig::from_env().verbose;
    let mut only: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => cfg.full = true,
            "--verbose" => cfg.progress = true,
            "--list" => list = true,
            "--trace-wall" => cfg.trace_wall = true,
            "--only" => only.push(parse_or_die("--only", args.next())),
            "--trace" => cfg.trace = Some(parse_or_die("--trace", args.next())),
            "--metrics" => cfg.metrics = Some(parse_or_die("--metrics", args.next())),
            "-j" | "--workers" => cfg.workers = parse_or_die(&a, args.next()),
            "--seed" => cfg.seed = parse_or_die("--seed", args.next()),
            _ => match a.strip_prefix("-j") {
                Some(n) => cfg.workers = parse_or_die("-j", Some(n.to_string())),
                None => {
                    eprintln!("unknown argument: {a}");
                    std::process::exit(2);
                }
            },
        }
    }
    cfg.workers = cfg.workers.max(1);

    if list {
        let mut jobs = harness::EXPERIMENTS.len();
        for x in harness::EXPERIMENTS {
            let mut notes = Vec::new();
            let parts = x.part_count();
            jobs += parts;
            if parts > 0 {
                notes.push(format!("{parts} subtasks"));
            }
            if !x.reads.is_empty() {
                notes.push(format!("reads {}", x.reads.join(", ")));
            }
            if notes.is_empty() {
                println!("{}", x.name);
            } else {
                println!("{} ({})", x.name, notes.join("; "));
            }
        }
        println!(
            "total: {} experiments, {jobs} schedulable jobs",
            harness::EXPERIMENTS.len()
        );
        return;
    }
    if !only.is_empty() {
        let matched = harness::EXPERIMENTS
            .iter()
            .any(|x| only.iter().any(|p| harness::glob_match(p, x.name)));
        if !matched {
            eprintln!("--only matched no experiments (see --list)");
            std::process::exit(2);
        }
        cfg.only = Some(only);
    }

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

    println!(
        "=== done: {} experiments in {:.3}s on {} workers \
         (serial-equivalent {:.3}s, critical path {:.3}s) ===",
        report.tasks.len(),
        report.total_wall_s,
        report.workers,
        report.serial_wall_s(),
        report.critical_path_s
    );
    if let Some(trace) = &cfg.trace {
        println!("[trace] {}", trace.display());
    }
    if let Some(metrics) = &cfg.metrics {
        println!("[metrics] {}", metrics.display());
    }
}
