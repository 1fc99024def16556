//! Criterion benchmarks of telemetry cost on the tuning hot path: one
//! steady PRO iteration detached, recording into memory, and emitting
//! JSONL. The NullSink and metrics budgets are gated by the `overhead`
//! binary (DESIGN.md §4e); a NullSink handle attached to an optimizer
//! is the detached case, since `set_telemetry` drops a disabled handle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harmony_core::{Optimizer, ProOptimizer};
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_telemetry::{JsonlSink, Telemetry};

fn big_space(n: usize) -> ParamSpace {
    ParamSpace::new(
        (0..n)
            .map(|i| ParamDef::integer(format!("p{i}"), 0, 1_000, 1).unwrap())
            .collect(),
    )
    .unwrap()
}

fn bench_steady_iteration(c: &mut Criterion, id: &str, tel: Telemetry) {
    let space = big_space(6);
    let f = |p: &Point| -> f64 { p.iter().map(|x| (x - 300.0) * (x - 300.0)).sum() };
    let fresh = |space: &ParamSpace| {
        let mut opt = ProOptimizer::with_defaults(space.clone());
        opt.set_telemetry(tel.clone());
        opt
    };
    let mut opt = fresh(&space);
    let mut vals: Vec<f64> = Vec::new();
    c.bench_function(id, |b| {
        b.iter(|| {
            let batch = opt.propose();
            if batch.is_empty() {
                opt = fresh(&space);
                return;
            }
            vals.clear();
            vals.extend(batch.iter().map(f));
            opt.observe(black_box(&vals));
        })
    });
}

fn bench_telemetry(c: &mut Criterion) {
    bench_steady_iteration(
        c,
        "telemetry/steady_iteration_detached",
        Telemetry::disabled(),
    );
    let (tel, sink) = Telemetry::memory();
    bench_steady_iteration(c, "telemetry/steady_iteration_memory_sink", tel);
    // keep the recording case honest: the sink must have seen records
    assert!(!sink.is_empty());
    // the buffered-writer emit path: serialize + one write_all per
    // record into io::sink, isolating the JSONL emit cost from disk
    bench_steady_iteration(
        c,
        "telemetry/jsonl_emit",
        Telemetry::new(JsonlSink::new(std::io::sink())),
    );
}

criterion_group!(telemetry, bench_telemetry);
criterion_main!(telemetry);
