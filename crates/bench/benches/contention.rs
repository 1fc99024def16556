//! Criterion contention benchmark: concurrent readers against the
//! sharded lock-free [`SharedPerfDb`] versus the obvious alternative, a
//! single `Mutex<PerfDatabase>`, at 1/2/4/8 threads.
//!
//! Each thread performs a fixed number of exact-hit queries against a
//! pre-populated database — the read-dominated steady state of a
//! multi-session tuning service. The sharded reads never take a lock,
//! so throughput should scale with readers while the mutex baseline
//! serialises them.
//!
//! The `warm_start` group times [`warm_start_center`] over published
//! estimate tiers of 64 and 256 GS2 estimates — the read a fleet session
//! makes before it starts. `…/compute` republishes the tier (same
//! entries, new publication) before each timed call, so every call
//! scores the snapshot; `…/hit` times the calls after the first in a
//! publication, which reuse its center.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harmony_bench::experiments::multi_session::K_NEIGHBORS;
use harmony_core::warm_start_center;
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_stats::splitmix::hash01;
use harmony_surface::{Gs2Model, Objective, PerfDatabase, SharedPerfDb};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Queries issued per reader thread per iteration.
const QUERIES: usize = 1_000;
/// Points pre-populated before measurement (all queries hit).
const ENTRIES: usize = 512;
/// Reader-thread counts swept.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", 0, 1_023, 1).unwrap(),
        ParamDef::integer("y", 0, 1_023, 1).unwrap(),
    ])
    .unwrap()
}

fn points() -> Vec<Point> {
    (0..ENTRIES)
        .map(|i| Point::new(vec![(i % 32) as f64, (i / 32) as f64]))
        .collect()
}

fn bench_contention(c: &mut Criterion) {
    let pts = points();

    let sharded = SharedPerfDb::new(space(), 4);
    for (i, p) in pts.iter().enumerate() {
        sharded.record(p, i as f64);
    }
    sharded.flush();

    let mut plain = PerfDatabase::new(space(), 4);
    for (i, p) in pts.iter().enumerate() {
        plain.insert(p.clone(), i as f64);
    }
    let locked = Mutex::new(plain);

    for threads in THREADS {
        c.bench_function(&format!("db_contention/sharded/{threads}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let sharded = &sharded;
                        let pts = &pts;
                        s.spawn(move || {
                            let mut acc = 0.0;
                            for q in 0..QUERIES {
                                let p = &pts[(q * 7 + t * 131) % pts.len()];
                                acc += sharded.query(black_box(p)).unwrap_or(0.0);
                            }
                            black_box(acc)
                        });
                    }
                })
            })
        });
        c.bench_function(&format!("db_contention/mutex/{threads}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let locked = &locked;
                        let pts = &pts;
                        s.spawn(move || {
                            let mut acc = 0.0;
                            for q in 0..QUERIES {
                                let p = &pts[(q * 7 + t * 131) % pts.len()];
                                let db = locked.lock().unwrap();
                                acc += db.get(black_box(p)).unwrap_or(0.0);
                            }
                            black_box(acc)
                        });
                    }
                })
            })
        });
    }
}

/// An estimate tier holding `n` distinct GS2 lattice points drawn
/// around the middle of the space (where a fleet's sessions cluster, so
/// neighbour probes both hit and miss), each published at its cost
/// scaled by up to +20% noise.
fn gs2_estimates(gs2: &Gs2Model, n: usize) -> SharedPerfDb {
    let space = gs2.space();
    let db = SharedPerfDb::new(space.clone(), K_NEIGHBORS);
    let mut draw = 0u64;
    while db.len() < n {
        let unit: Vec<f64> = (0..space.dims())
            .map(|d| 0.2 + 0.6 * hash01(n as u64, 1, draw, d as u64))
            .collect();
        let p = space.point_from_unit(&unit);
        db.record(
            &p,
            gs2.eval(&p) * (1.0 + 0.2 * hash01(n as u64, 2, draw, 0)),
        );
        db.flush();
        draw += 1;
    }
    db
}

fn bench_warm_start(c: &mut Criterion) {
    let gs2 = Gs2Model::paper_scale();
    for n in [64, 256] {
        let estimates = gs2_estimates(&gs2, n);
        let (p, v) = estimates.entries_canonical().swap_remove(0);
        c.bench_function(&format!("warm_start/gs2/{n}/compute"), |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    // re-recording an entry at its own value publishes
                    // the same snapshot under a new generation
                    estimates.record(&p, v);
                    estimates.flush();
                    let start = Instant::now();
                    black_box(warm_start_center(black_box(&estimates)));
                    timed += start.elapsed();
                }
                timed
            })
        });
        c.bench_function(&format!("warm_start/gs2/{n}/hit"), |b| {
            b.iter(|| warm_start_center(black_box(&estimates)))
        });
    }
}

criterion_group!(benches, bench_contention, bench_warm_start);
criterion_main!(benches);
