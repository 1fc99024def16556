//! Property-based tests of the optimizer layer: PRO must behave (only
//! admissible proposals, monotone incumbent, bounded batch sizes,
//! termination) under *adversarial* objective values, not just smooth
//! functions.

use harmony::core::nelder_mead::NelderMead;
use harmony::core::sro::SroOptimizer;
use harmony::core::CachedObjective;
use harmony::prelude::*;
use harmony::surface::objective::FnObjective;
use proptest::prelude::*;

fn arb_space() -> impl Strategy<Value = ParamSpace> {
    prop::collection::vec(
        (0i64..20, 1i64..30, 1i64..4).prop_map(|(lo, span, step)| {
            ParamDef::integer("p", lo, lo + span, step).expect("valid integer param")
        }),
        1..=3,
    )
    .prop_map(|defs| ParamSpace::new(defs).expect("valid space"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pro_proposals_admissible_under_adversarial_values(
        space in arb_space(),
        values in prop::collection::vec(0.1f64..1e6, 400),
        r in 0.05f64..1.0,
    ) {
        let cfg = ProConfig { relative_size: r, ..ProConfig::default() };
        let mut opt = ProOptimizer::new(space.clone(), cfg);
        let mut cursor = 0usize;
        let mut batches = 0usize;
        while batches < 200 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            for p in &batch {
                prop_assert!(space.is_admissible(p), "inadmissible proposal {p:?}");
            }
            let vals: Vec<f64> = batch
                .iter()
                .map(|_| {
                    let v = values[cursor % values.len()];
                    cursor += 1;
                    v
                })
                .collect();
            opt.observe(&vals);
            batches += 1;
        }
        // an incumbent always exists after the first observation
        prop_assert!(opt.best().is_some());
    }

    #[test]
    fn pro_incumbent_is_monotone(
        space in arb_space(),
        values in prop::collection::vec(0.1f64..1e3, 300),
    ) {
        let mut opt = ProOptimizer::with_defaults(space);
        let mut cursor = 0usize;
        let mut best_so_far = f64::INFINITY;
        for _ in 0..100 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            let vals: Vec<f64> = batch
                .iter()
                .map(|_| {
                    let v = values[cursor % values.len()];
                    cursor += 1;
                    v
                })
                .collect();
            best_so_far = best_so_far.min(vals.iter().copied().fold(f64::INFINITY, f64::min));
            opt.observe(&vals);
            let (_, cur) = opt.best().expect("incumbent exists");
            prop_assert!((cur - best_so_far).abs() < 1e-12, "incumbent {cur} vs {best_so_far}");
        }
    }

    #[test]
    fn pro_terminates_on_deterministic_objectives(
        space in arb_space(),
        a in 0.0f64..5.0,
        b in 0.0f64..5.0,
        c in 0.0f64..5.0,
    ) {
        // arbitrary positive-definite-ish separable objective
        let mut opt = ProOptimizer::with_defaults(space.clone());
        let coefs = [a + 0.1, b + 0.1, c + 0.1];
        let target = space.center();
        let mut batches = 0;
        loop {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            let vals: Vec<f64> = batch
                .iter()
                .map(|p| {
                    (0..space.dims())
                        .map(|d| coefs[d] * (p[d] - target[d]).powi(2))
                        .sum::<f64>()
                        + 1.0
                })
                .collect();
            opt.observe(&vals);
            batches += 1;
            prop_assert!(batches < 3_000, "PRO failed to terminate");
        }
        prop_assert!(opt.converged());
        // center of the space is a global minimum here
        let (best, _) = opt.best().expect("incumbent exists");
        prop_assert_eq!(best, target);
    }

    #[test]
    fn sro_matches_pro_batch_semantics(
        space in arb_space(),
        values in prop::collection::vec(0.1f64..100.0, 200),
    ) {
        let mut opt = SroOptimizer::with_defaults(space.clone());
        for cursor in 0..150 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            prop_assert_eq!(batch.len(), 1);
            prop_assert!(space.is_admissible(&batch[0]));
            opt.observe(&[values[cursor % values.len()]]);
        }
    }

    #[test]
    fn nelder_mead_survives_adversarial_values(
        space in arb_space(),
        values in prop::collection::vec(0.1f64..1e5, 200),
    ) {
        let mut opt = NelderMead::with_defaults(space.clone());
        let mut cursor = 0usize;
        for _ in 0..150 {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            for p in &batch {
                prop_assert!(space.is_admissible(p), "inadmissible NM proposal {p:?}");
            }
            let vals: Vec<f64> = batch
                .iter()
                .map(|_| {
                    let v = values[cursor % values.len()];
                    cursor += 1;
                    v
                })
                .collect();
            opt.observe(&vals);
        }
        prop_assert!(opt.best().is_some());
    }

    #[test]
    fn cached_objective_never_changes_outcomes(
        seed in 0u64..200,
        steps in 20usize..80,
        rho in 0.0f64..0.5,
    ) {
        // memoization must be invisible: a session run on the raw
        // objective and one on an explicitly wrapped objective agree on
        // every field, bit for bit
        let space = ParamSpace::new(vec![
            ParamDef::integer("x", -10, 10, 1).expect("valid"),
            ParamDef::integer("y", -10, 10, 1).expect("valid"),
        ]).expect("valid space");
        let obj = FnObjective::new("bowl", space.clone(), |p| {
            2.0 + 0.07 * (p[0] * p[0] + p[1] * p[1])
        });
        let noise = Noise::paper_default(rho);
        let cfg = TunerConfig {
            procs: 16,
            max_steps: steps,
            estimator: Estimator::MinOfK(2),
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: true,
            exploit_width: 4,
        };
        let run = |o: &dyn Objective| {
            let mut opt = ProOptimizer::with_defaults(space.clone());
            OnlineTuner::new(cfg).run(o, &noise, &mut opt).unwrap()
        };
        let raw = run(&obj);
        let cached = CachedObjective::new(&obj);
        let wrapped = run(&cached);
        // the tuner's own internal memo absorbs repeats, so the outer
        // wrapper sees each distinct point exactly once
        prop_assert!(cached.misses() > 0 && cached.misses() == cached.len());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(raw.trace.step_times()), bits(wrapped.trace.step_times()));
        prop_assert_eq!(raw.best_point, wrapped.best_point);
        prop_assert_eq!(raw.best_estimate.to_bits(), wrapped.best_estimate.to_bits());
        prop_assert_eq!(raw.best_true_cost.to_bits(), wrapped.best_true_cost.to_bits());
        prop_assert_eq!(raw.converged, wrapped.converged);
        prop_assert_eq!(raw.evaluations, wrapped.evaluations);
        prop_assert_eq!(raw.quality_curve.len(), wrapped.quality_curve.len());
        for (a, b) in raw.quality_curve.iter().zip(wrapped.quality_curve.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn estimator_reductions_are_order_statistics(samples in prop::collection::vec(0.0f64..1e4, 1..12)) {
        let k = samples.len();
        let min = Estimator::MinOfK(k).reduce(&samples);
        let med = Estimator::MedianOfK(k).reduce(&samples);
        let mean = Estimator::MeanOfK(k).reduce(&samples);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(min, lo);
        prop_assert!(med >= lo && med <= hi);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }
}
