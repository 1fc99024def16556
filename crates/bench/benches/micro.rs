//! Criterion micro-benchmarks of the hot building blocks: projection,
//! simplex transforms, one PRO iteration, estimators, noise sampling,
//! the DES cascade, and database interpolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harmony_core::{Estimator, Optimizer, ProOptimizer};
use harmony_params::init::{initial_simplex, InitialShape};
use harmony_params::{ParamDef, ParamSpace, Point, Rounding, StepKind};
use harmony_surface::{Gs2Model, Objective, PerfDatabase};
use harmony_variability::des::TwoPriorityDes;
use harmony_variability::dist::{Distribution, Exponential, Pareto};
use harmony_variability::noise::{Noise, NoiseModel};
use harmony_variability::seeded_rng;

fn big_space(n: usize) -> ParamSpace {
    ParamSpace::new(
        (0..n)
            .map(|i| ParamDef::integer(format!("p{i}"), 0, 1_000, 1).unwrap())
            .collect(),
    )
    .unwrap()
}

fn bench_projection(c: &mut Criterion) {
    let space = big_space(8);
    let center = space.center();
    let raw = Point::new(vec![512.3; 8]);
    c.bench_function("projection/toward_center_8d", |b| {
        b.iter(|| space.project(black_box(&raw), &center, Rounding::TowardCenter))
    });
    c.bench_function("projection/nearest_8d", |b| {
        b.iter(|| space.project(black_box(&raw), &center, Rounding::Nearest))
    });
}

fn bench_simplex(c: &mut Criterion) {
    let space = big_space(8);
    let simplex = initial_simplex(&space, InitialShape::Symmetric, 0.2).unwrap();
    c.bench_function("simplex/reflect_2n_8d", |b| {
        b.iter(|| simplex.transform_around(0, black_box(StepKind::Reflect)))
    });
    c.bench_function("simplex/rank_2n_8d", |b| b.iter(|| simplex.rank(1e-9)));
}

fn bench_pro_iteration(c: &mut Criterion) {
    let space = big_space(6);
    c.bench_function("pro/full_convergence_6d_bowl", |b| {
        b.iter(|| {
            let mut opt = ProOptimizer::with_defaults(space.clone());
            loop {
                let batch = opt.propose();
                if batch.is_empty() {
                    break;
                }
                let vals: Vec<f64> = batch
                    .iter()
                    .map(|p| p.iter().map(|x| (x - 300.0) * (x - 300.0)).sum())
                    .collect();
                opt.observe(&vals);
            }
            black_box(opt.best())
        })
    });
}

fn bench_pro_steady_iteration(c: &mut Criterion) {
    // one propose/observe cycle on a live optimizer — the scratch-buffer
    // reuse path (the optimizer is re-seeded whenever it converges)
    let space = big_space(6);
    let f = |p: &Point| -> f64 { p.iter().map(|x| (x - 300.0) * (x - 300.0)).sum() };
    let mut opt = ProOptimizer::with_defaults(space.clone());
    let mut vals: Vec<f64> = Vec::new();
    c.bench_function("pro/steady_iteration_6d", |b| {
        b.iter(|| {
            let batch = opt.propose();
            if batch.is_empty() {
                opt = ProOptimizer::with_defaults(space.clone());
                return;
            }
            vals.clear();
            vals.extend(batch.iter().map(f));
            opt.observe(black_box(&vals));
        })
    });
}

fn bench_estimators(c: &mut Criterion) {
    let samples: Vec<f64> = (0..10).map(|i| 5.0 + 0.3 * i as f64).collect();
    c.bench_function("estimator/min10", |b| {
        b.iter(|| Estimator::MinOfK(10).reduce(black_box(&samples)))
    });
    c.bench_function("estimator/median10", |b| {
        b.iter(|| Estimator::MedianOfK(10).reduce(black_box(&samples)))
    });
}

fn bench_noise(c: &mut Criterion) {
    let mut rng = seeded_rng(1);
    let pareto = Pareto::new(1.7, 2.0);
    c.bench_function("noise/pareto_sample", |b| {
        b.iter(|| black_box(pareto.sample(&mut rng)))
    });
    let model = Noise::paper_default(0.2);
    c.bench_function("noise/two_job_observe", |b| {
        b.iter(|| model.observe(black_box(3.0), &mut rng))
    });
}

fn bench_des(c: &mut Criterion) {
    let q = TwoPriorityDes::with_rho(0.3, Exponential::with_mean(0.2));
    let mut rng = seeded_rng(2);
    c.bench_function("des/finishing_time_rho0.3", |b| {
        b.iter(|| q.finishing_time(black_box(5.0), &mut rng))
    });
}

fn bench_batch_sampling(c: &mut Criterion) {
    let pareto = Pareto::new(1.7, 2.0);
    let mut rng = seeded_rng(10);
    let mut buf = vec![0.0; 1_024];
    c.bench_function("sampling/pareto_fill_1k", |b| {
        b.iter(|| {
            pareto.fill_samples(&mut rng, &mut buf);
            black_box(buf[0])
        })
    });
    c.bench_function("sampling/pareto_scalar_loop_1k", |b| {
        b.iter(|| {
            for slot in buf.iter_mut() {
                *slot = pareto.sample(&mut rng);
            }
            black_box(buf[0])
        })
    });
    let model = Noise::paper_default(0.2);
    c.bench_function("sampling/observe_n_1k", |b| {
        b.iter(|| {
            model.observe_n(black_box(3.0), &mut rng, &mut buf);
            black_box(buf[0])
        })
    });
}

fn bench_database(c: &mut Criterion) {
    let gs2 = Gs2Model::paper_scale();
    let mut rng = seeded_rng(3);
    let db = PerfDatabase::from_objective(&gs2, 0.5, 4, &mut rng);
    let hit = gs2.space().lattice().find(|p| db.contains(p)).unwrap();
    let miss = gs2.space().lattice().find(|p| !db.contains(p)).unwrap();
    c.bench_function("database/exact_hit", |b| {
        b.iter(|| db.eval(black_box(&hit)))
    });
    c.bench_function("database/knn_interpolate", |b| {
        b.iter(|| db.eval(black_box(&miss)))
    });
    c.bench_function("gs2/analytic_eval", |b| {
        b.iter(|| gs2.eval(black_box(&hit)))
    });
}

/// A fully populated n×n integer lattice database plus off-lattice
/// query points (half-integer coordinates never match an exact entry).
fn grid_db(n: i64, k: usize) -> (PerfDatabase, Vec<Point>) {
    let space = ParamSpace::new(vec![
        ParamDef::integer("x", 0, n - 1, 1).unwrap(),
        ParamDef::integer("y", 0, n - 1, 1).unwrap(),
    ])
    .unwrap();
    let mut db = PerfDatabase::new(space, k);
    for x in 0..n {
        for y in 0..n {
            db.insert(
                Point::from(&[x as f64, y as f64][..]),
                1.0 + (x * n + y) as f64 * 0.01,
            );
        }
    }
    let queries: Vec<Point> = (0..64)
        .map(|i| {
            let x = (i * 7) % (n - 1);
            let y = (i * 13) % (n - 1);
            Point::from(&[x as f64 + 0.5, y as f64 + 0.5][..])
        })
        .collect();
    (db, queries)
}

fn bench_database_scaling(c: &mut Criterion) {
    for (label, n) in [("1k", 32i64), ("10k", 100i64)] {
        let (db, queries) = grid_db(n, 4);
        let mut i = 0usize;
        c.bench_function(&format!("database{label}/interpolate"), |b| {
            b.iter(|| {
                i += 1;
                db.try_interpolate(black_box(&queries[i % queries.len()]))
                    .unwrap()
            })
        });
    }
}

fn bench_database_build(c: &mut Criterion) {
    // the Fig. 8 database: every point of the GS2 paper-scale lattice
    // (15 x 12 x 11 = 1980 entries); exercises the O(1) insert path
    let gs2 = Gs2Model::paper_scale();
    c.bench_function("database/build_gs2_full_lattice", |b| {
        b.iter(|| {
            let mut rng = seeded_rng(8);
            black_box(PerfDatabase::from_objective(&gs2, 1.0, 4, &mut rng))
        })
    });
}

fn bench_pool(c: &mut Criterion) {
    use harmony_cluster::pool::{par_map_indexed_in, worker_count};
    c.bench_function("pool/par_map_1k", |b| {
        b.iter(|| {
            black_box(par_map_indexed_in(worker_count(1_000), 1_000, |i| {
                (i as f64).sqrt()
            }))
        })
    });
}

fn bench_adaptive(c: &mut Criterion) {
    use harmony_cluster::{Cluster, TuningTrace};
    use harmony_core::adaptive::AdaptiveSampling;
    let cluster = Cluster::new(16);
    let policy = AdaptiveSampling {
        min_k: 1,
        max_k: 6,
        patience: 2,
    };
    let mut rng = seeded_rng(5);
    let noise = Noise::paper_default(0.3);
    c.bench_function("adaptive/sample_batch_6pts", |b| {
        b.iter(|| {
            let mut trace = TuningTrace::new();
            black_box(policy.sample_batch(
                &cluster,
                &[2.0, 2.1, 2.2, 2.3, 2.4, 2.5],
                &noise,
                &mut rng,
                &mut trace,
            ))
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    use harmony_stats::resample::bootstrap_mean_ci;
    use harmony_stats::streaming::{P2Quantile, Welford};
    use harmony_stats::tail::hill_estimate;
    use harmony_stats::Ecdf;
    let mut rng = seeded_rng(7);
    let pareto = Pareto::new(1.7, 1.0);
    let xs: Vec<f64> = (0..10_000).map(|_| pareto.sample(&mut rng)).collect();
    c.bench_function("stats/ecdf_build_10k", |b| {
        b.iter(|| black_box(Ecdf::new(&xs)))
    });
    c.bench_function("stats/hill_10k_k200", |b| {
        b.iter(|| black_box(hill_estimate(&xs, 200)))
    });
    let small: Vec<f64> = xs[..1_000].to_vec();
    c.bench_function("stats/bootstrap_mean_1k_x200", |b| {
        b.iter(|| black_box(bootstrap_mean_ci(&small, 200, 0.95, 1)))
    });
    c.bench_function("stats/welford_push_10k", |b| {
        b.iter(|| {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            black_box(w.mean())
        })
    });
    c.bench_function("stats/p2_quantile_push_10k", |b| {
        b.iter(|| {
            let mut q = P2Quantile::new(0.9);
            for &x in &xs {
                q.push(x);
            }
            black_box(q.get())
        })
    });
}

criterion_group!(
    micro,
    bench_projection,
    bench_simplex,
    bench_pro_iteration,
    bench_pro_steady_iteration,
    bench_estimators,
    bench_noise,
    bench_des,
    bench_batch_sampling,
    bench_database,
    bench_database_scaling,
    bench_database_build,
    bench_pool,
    bench_adaptive,
    bench_stats
);
criterion_main!(micro);
