//! Benchmark entry point:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --root <checkout>`.
//!
//! Prints the host record, every metric by name with its unit, the
//! checks it made, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics).

use perfbench::{fleet, host, served, suite, Ctx, Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["paper_suite", "served_session", "shared_fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("invalid value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .map_err(|_| format!("invalid value for {flag}: {v}"))?
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid value for --trace: {v}")),
                }
            }
            "--root" => a.root = PathBuf::from(&v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_report(args: &Args, ctx: &Ctx, r: &Report, span: host::Span) {
    let (cpu_s, steal_s) = (span.cpu_s, span.steal_s);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "host: nproc={} workers={} rev={} rustc=\"{}\" process_cpu_s={cpu_s:.3} host_steal_s={steal_s:.3} workload={} seed={} seconds={} trace={}",
        ctx.nproc,
        r.workers,
        env("PERFBENCH_REV"),
        env("PERFBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &r.notes {
        println!("note: {n}");
    }
    for e in &r.errors {
        println!("FAILED: {e}");
    }
    for m in &r.declared {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &r.extra {
        println!("info   {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        json_metrics(&r.declared)
    );
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp =
        args.root
            .join(".perfbench_tmp")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        root: args.root.clone(),
        tmp: tmp.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nproc: host::nproc(),
    };
    let window = host::Window::open();
    let result = match (args.workload.as_str(), args.trace) {
        ("paper_suite", false) => suite::run(&ctx),
        ("paper_suite", true) => suite::run_traced(&ctx),
        ("served_session", false) => served::run(&ctx),
        ("served_session", true) => served::run_traced(&ctx),
        ("shared_fleet", false) => fleet::run(&ctx),
        (_, _) => fleet::run_traced(&ctx),
    };
    let span = window.span();
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(mut r) => {
            for m in &r.declared {
                if !m.value.is_finite() {
                    r.errors
                        .push(format!("metric {} is not a finite number", m.name));
                }
            }
            for m in &mut r.declared {
                if !m.value.is_finite() {
                    m.value = 0.0;
                }
            }
            print_report(&args, &ctx, &r, span);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
