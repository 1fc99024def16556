//! Property-based tests of the variability layer: distribution
//! invariants, the eq. 5–7 noise contract, and min-operator algebra.

use harmony::prelude::*;
use harmony::variability::des::TwoPriorityDes;
use harmony::variability::dist::{BoundedPareto, Distribution, Exponential, Gaussian};
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    #[test]
    fn pareto_quantile_cdf_roundtrip(alpha in 0.3f64..4.0, beta in 0.01f64..100.0, p in 0.0f64..0.999) {
        let d = Pareto::new(alpha, beta);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-9);
        prop_assert!(x >= beta);
    }

    #[test]
    fn pareto_samples_respect_support(alpha in 0.3f64..4.0, beta in 0.01f64..100.0, seed in 0u64..1000) {
        let d = Pareto::new(alpha, beta);
        let mut rng = seeded_rng(seed);
        for _ in 0..64 {
            prop_assert!(d.sample(&mut rng) >= beta);
        }
    }

    #[test]
    fn survival_exponentiation_rule(alpha in 0.5f64..3.0, beta in 0.1f64..10.0, k in 1usize..8, z in 0.0f64..100.0) {
        // eq. 11: Q_min(z) = Q(z)^k
        let d = Pareto::new(alpha, beta);
        let z = beta + z;
        let single = d.survival(z);
        let k_fold = harmony::stats::minop::min_survival(alpha, beta, k, 0.0, z);
        prop_assert!((k_fold - single.powi(k as i32)).abs() < 1e-9);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds(alpha in 0.3f64..3.0, lo in 0.01f64..5.0, w in 0.1f64..50.0, seed in 0u64..500) {
        let d = BoundedPareto::new(alpha, lo, lo + w);
        let mut rng = seeded_rng(seed);
        for _ in 0..64 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= lo + w, "x={x}");
        }
    }

    #[test]
    fn quantile_roundtrips_other_distributions(p in 0.001f64..0.999) {
        fn roundtrip<D: Distribution>(d: &D, p: f64) -> f64 {
            (d.cdf(d.quantile(p)) - p).abs()
        }
        prop_assert!(roundtrip(&Exponential::with_mean(2.0), p) < 1e-9);
        prop_assert!(roundtrip(&Gaussian::new(3.0, 1.5), p) < 1e-5);
    }

    #[test]
    fn noise_floor_contract(rho in 0.01f64..0.9, f_v in 0.01f64..100.0, seed in 0u64..500) {
        // y >= f + n_min(f) for every model, every draw (eq. 5 with
        // n >= n_min)
        let mut rng = seeded_rng(seed);
        for model in [
            Noise::None,
            Noise::Pareto { alpha: 1.7, rho },
            Noise::Exponential { rho },
            Noise::Gaussian { rho, cv: 0.4 },
        ] {
            let floor = f_v + model.n_min(f_v);
            for _ in 0..16 {
                let y = model.observe(f_v, &mut rng);
                prop_assert!(y >= floor - 1e-12, "{model:?}: y={y} < floor={floor}");
            }
        }
    }

    #[test]
    fn n_min_ordering_is_preserved(rho in 0.01f64..0.9, f1 in 0.01f64..50.0, gap in 0.01f64..50.0) {
        // §5.1: f1 < f2  =>  f1 + n_min(f1) < f2 + n_min(f2)
        let m = Noise::Pareto { alpha: 1.7, rho };
        let f2 = f1 + gap;
        prop_assert!(f1 + m.n_min(f1) < f2 + m.n_min(f2));
    }

    #[test]
    fn min_of_k_never_exceeds_mean_of_k(k in 1usize..8, f_v in 0.1f64..20.0, rho in 0.0f64..0.8, seed in 0u64..500) {
        // the estimators sessions run, over one draw of K observations
        let m = Noise::Pareto { alpha: 1.7, rho };
        let mut obs = vec![0.0; k];
        m.observe_n(f_v, &mut seeded_rng(seed), &mut obs);
        let mn = Estimator::MinOfK(k).reduce(&obs);
        let mean = Estimator::MeanOfK(k).reduce(&obs);
        prop_assert!(mn <= mean + 1e-12);
    }

    #[test]
    fn des_finishing_time_at_least_demand(rho in 0.0f64..0.8, f in 0.0f64..20.0, seed in 0u64..300) {
        let q = TwoPriorityDes::with_rho(rho, Exponential::with_mean(0.3));
        let mut rng = seeded_rng(seed);
        prop_assert!(q.finishing_time(f, &mut rng) >= f);
    }

    #[test]
    fn expected_observation_matches_eq6(rho in 0.0f64..0.9, f in 0.0f64..100.0) {
        let m = Noise::Pareto { alpha: 1.7, rho };
        prop_assert!((m.expected(f) - f / (1.0 - rho)).abs() < 1e-9);
    }

    #[test]
    fn stream_seeds_injective_within_block(base in 0u64..u64::MAX / 2, a in 0u64..10_000, b in 0u64..10_000) {
        if a != b {
            prop_assert_ne!(stream_seed(base, a), stream_seed(base, b));
        }
    }

    #[test]
    fn batch_fill_matches_scalar_stream(seed in 0u64..2_000, n in 0usize..300) {
        // the batched hot path must consume the RNG exactly like the
        // scalar sampler: same draws, bit-identical outputs, and the
        // streams stay in lockstep afterwards
        fn check<D: Distribution>(d: &D, seed: u64, n: usize) -> Result<(), String> {
            let mut a = seeded_rng(seed);
            let mut b = seeded_rng(seed);
            let mut batch = vec![0.0; n];
            d.fill_samples(&mut a, &mut batch);
            for (i, &x) in batch.iter().enumerate() {
                let y = d.sample(&mut b);
                prop_assert_eq!(x.to_bits(), y.to_bits(), "sample {} diverged", i);
            }
            // post-batch draw parity: no extra/missing RNG consumption
            use rand::Rng as _;
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
            Ok(())
        }
        check(&Pareto::new(1.7, 0.4), seed, n)?;
        check(&BoundedPareto::new(1.2, 0.3, 9.0), seed, n)?;
        check(&Exponential::with_mean(2.5), seed, n)?;
        check(&Gaussian::new(3.0, 1.5), seed, n)?;
    }

    #[test]
    fn batch_fill_matches_scalar_at_lane_boundaries(seed in 0u64..2_000) {
        // the wide-lane kernels chunk by LANES (8): pin bit-identity at
        // every boundary a chunked loop can get wrong — empty, partial
        // first chunk, exact multiples, and one past
        use harmony::variability::dist::LANES;
        fn check<D: Distribution>(d: &D, seed: u64, n: usize) -> Result<(), String> {
            let mut a = seeded_rng(seed);
            let mut b = seeded_rng(seed);
            let mut batch = vec![0.0_f64; n];
            d.fill_samples(&mut a, &mut batch);
            for (i, &x) in batch.iter().enumerate() {
                let y = d.sample(&mut b);
                prop_assert_eq!(x.to_bits(), y.to_bits(), "sample {}/{} diverged", i, n);
            }
            use rand::Rng as _;
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
            Ok(())
        }
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 4 * LANES, 4 * LANES + 3] {
            check(&Pareto::new(1.7, 0.4), seed, n)?;
            check(&Gaussian::new(3.0, 1.5), seed, n)?;
            check(&Exponential::with_mean(2.5), seed, n)?;
        }
    }

    #[test]
    fn batch_observe_matches_scalar_stream(seed in 0u64..2_000, n in 0usize..200, rho in 0.01f64..0.8, f_v in 0.01f64..50.0) {
        use harmony::variability::noise::NoiseModel as _;
        for model in [
            Noise::None,
            Noise::Pareto { alpha: 1.7, rho },
            Noise::Exponential { rho },
            Noise::Gaussian { rho, cv: 0.4 },
            Noise::Spiky { rho },
        ] {
            let mut a = seeded_rng(seed);
            let mut b = seeded_rng(seed);
            let mut batch = vec![0.0; n];
            model.observe_n(f_v, &mut a, &mut batch);
            for &x in &batch {
                let y = model.observe(f_v, &mut b);
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?} diverged", model);
            }
            use rand::Rng as _;
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn pareto_shifted_max_is_the_fold_of_the_samples(
        alpha in 0.3f64..64.0,
        beta in 0.001f64..1000.0,
        shift in 0.0f64..100.0,
        width in 1usize..=128,
        script in arb_script(),
    ) {
        let d = Pareto::new(alpha, beta);
        let (mut a, mut b) = (script.clone(), script);
        let mut buf = vec![0.0; width];
        d.fill_samples(&mut a, &mut buf);
        let fold = buf.iter().map(|x| x + shift).fold(f64::NEG_INFINITY, f64::max);
        let max = d.shifted_max(shift, &mut b, &mut buf);
        prop_assert_eq!(max.to_bits(), fold.to_bits(), "alpha {} width {}", alpha, width);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn observe_max_is_observe_n_then_the_max(
        alpha in 1.05f64..64.0,
        rho in 0.01f64..0.8,
        f_v in 0.01f64..50.0,
        width in 1usize..=128,
        script in arb_script(),
    ) {
        use harmony::variability::noise::NoiseModel as _;
        // Pareto noise needs alpha > 1 (eq. 17's beta is positive);
        // smaller tail indices are covered by the distribution-level
        // property above
        for model in [
            Noise::None,
            Noise::Pareto { alpha, rho },
            Noise::Exponential { rho },
            Noise::Gaussian { rho, cv: 0.4 },
            Noise::Spiky { rho },
        ] {
            let (mut a, mut b) = (script.clone(), script.clone());
            let mut buf = vec![0.0; width];
            model.observe_n(f_v, &mut a, &mut buf);
            let fold = buf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let max = model.observe_max(f_v, &mut b, &mut buf);
            prop_assert_eq!(max.to_bits(), fold.to_bits(), "{:?} width {}", model, width);
            prop_assert_eq!(a.next_u64(), b.next_u64(), "{:?} stream diverged", model);
        }
    }
}

/// An RNG that replays scripted words, then continues with a seeded
/// stream: the script puts the uniforms where a windowed maximum is
/// easiest to get wrong.
#[derive(Clone, Debug)]
struct Scripted {
    words: Vec<u64>,
    at: usize,
    tail: rand::rngs::SmallRng,
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        match self.words.get(self.at) {
            Some(&w) => {
                self.at += 1;
                w
            }
            None => self.tail.next_u64(),
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Scripts of up to 128 words. Each word is, by kind: a 53-bit uniform
/// a few ULPs below 1.0; one a few ULPs above a per-script base (so the
/// smallest uniform has adjacent neighbours); 0 (clamped to
/// `MIN_POSITIVE`); or an ordinary draw. Small offsets repeat, giving
/// exact ties.
fn arb_script() -> impl Strategy<Value = Scripted> {
    (
        1u64..(1 << 53) - 8,
        0u64..10_000,
        prop::collection::vec((0u64..4, 0u64..4), 0..=128),
    )
        .prop_map(|(base, seed, kinds)| {
            let words = kinds
                .iter()
                .enumerate()
                .map(|(i, &(kind, off))| match kind {
                    0 => ((1 << 53) - 1 - off) << 11,
                    1 => (base + off) << 11,
                    2 => off,
                    _ => stream_seed(seed, i as u64),
                })
                .collect();
            Scripted {
                words,
                at: 0,
                tail: seeded_rng(seed),
            }
        })
}
