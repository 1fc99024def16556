//! The estimator layer (§5): how `K` raw observations of one point are
//! reduced to the single estimate fed to the optimizer.
//!
//! The conventional choice is the sample mean, but a heavy-tailed
//! `n(v)` has infinite variance so the mean never concentrates (§5.1).
//! The paper's proposal is the **minimum**: for Pareto(α) noise the min
//! of `K` samples is Pareto(`Kα`), finite-variance as soon as
//! `K > 2/α`, and `f + n_min(f)` is increasing in `f`, so comparing
//! minima preserves the true ordering of candidate points.

/// Reduction applied to the `K` observations of one candidate point.
///
/// # Example
///
/// ```
/// use harmony_core::Estimator;
///
/// let samples = [5.2, 47.0, 5.4]; // one heavy-tail outlier
/// assert_eq!(Estimator::MinOfK(3).reduce(&samples), 5.2);
/// assert!(Estimator::MeanOfK(3).reduce(&samples) > 19.0); // wrecked
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// One observation, used as-is (`K = 1`).
    Single,
    /// Minimum of `K` observations — the paper's resilient estimator
    /// (`L_y^{(K)}`, eq. 13).
    MinOfK(
        /// Number of samples `K ≥ 1`.
        usize,
    ),
    /// Mean of `K` observations — the conventional estimator that fails
    /// under infinite variance.
    MeanOfK(
        /// Number of samples `K ≥ 1`.
        usize,
    ),
    /// Median of `K` observations — a robust-statistics control.
    MedianOfK(
        /// Number of samples `K ≥ 1`.
        usize,
    ),
}

impl Estimator {
    /// The number of samples the estimator consumes per point.
    pub fn samples(&self) -> usize {
        match *self {
            Estimator::Single => 1,
            Estimator::MinOfK(k) | Estimator::MeanOfK(k) | Estimator::MedianOfK(k) => {
                assert!(k >= 1, "estimator needs at least one sample");
                k
            }
        }
    }

    /// Reduces one point's observations to its estimate.
    ///
    /// # Panics
    /// Panics when `samples` is empty or its length differs from
    /// [`Estimator::samples`].
    pub fn reduce(&self, samples: &[f64]) -> f64 {
        assert_eq!(
            samples.len(),
            self.samples(),
            "estimator expected {} samples, got {}",
            self.samples(),
            samples.len()
        );
        self.reduce_available(samples)
    }

    /// Reduces however many observations actually arrived — the
    /// fault-tolerant variant of [`Estimator::reduce`] for slots whose
    /// reports were lost or abandoned. With the full `K` samples this is
    /// `reduce` itself (the mean divides by the actual count, which then
    /// equals `K`); with fewer it degrades gracefully to the same
    /// statistic over the survivors.
    ///
    /// # Panics
    /// Panics when `samples` is empty or exceeds [`Estimator::samples`].
    pub fn reduce_available(&self, samples: &[f64]) -> f64 {
        assert!(
            !samples.is_empty(),
            "cannot estimate a point with zero surviving samples"
        );
        assert!(
            samples.len() <= self.samples(),
            "estimator expected at most {} samples, got {}",
            self.samples(),
            samples.len()
        );
        match *self {
            Estimator::Single => samples[0],
            Estimator::MinOfK(_) => samples.iter().copied().fold(f64::INFINITY, f64::min),
            Estimator::MeanOfK(_) => samples.iter().sum::<f64>() / samples.len() as f64,
            Estimator::MedianOfK(_) => {
                let mut s = samples.to_vec();
                // total_cmp: NaN samples sort to the top instead of
                // panicking, so the median still comes from the finite
                // majority
                s.sort_by(|a, b| a.total_cmp(b));
                let n = s.len();
                if n % 2 == 1 {
                    s[n / 2]
                } else {
                    0.5 * (s[n / 2 - 1] + s[n / 2])
                }
            }
        }
    }

    /// Short label for reports ("min3", "mean5", …).
    pub fn label(&self) -> String {
        match *self {
            Estimator::Single => "single".into(),
            Estimator::MinOfK(k) => format!("min{k}"),
            Estimator::MeanOfK(k) => format!("mean{k}"),
            Estimator::MedianOfK(k) => format!("median{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_variability::noise::{Noise, NoiseModel};
    use harmony_variability::seeded_rng;
    use rand::RngCore;

    /// One estimate from `est.samples()` fresh observations of `f_v`,
    /// drawn in one batch as sessions draw a point's samples.
    fn estimate(est: Estimator, m: &Noise, f_v: f64, rng: &mut dyn RngCore) -> f64 {
        let mut obs = vec![0.0; est.samples()];
        m.observe_n(f_v, rng, &mut obs);
        est.reduce(&obs)
    }

    #[test]
    fn sample_counts() {
        assert_eq!(Estimator::Single.samples(), 1);
        assert_eq!(Estimator::MinOfK(5).samples(), 5);
        assert_eq!(Estimator::MeanOfK(3).samples(), 3);
    }

    #[test]
    fn reductions() {
        assert_eq!(Estimator::Single.reduce(&[4.0]), 4.0);
        assert_eq!(Estimator::MinOfK(3).reduce(&[4.0, 2.0, 9.0]), 2.0);
        assert_eq!(Estimator::MeanOfK(3).reduce(&[4.0, 2.0, 9.0]), 5.0);
        assert_eq!(Estimator::MedianOfK(3).reduce(&[4.0, 2.0, 9.0]), 4.0);
        assert_eq!(Estimator::MedianOfK(4).reduce(&[4.0, 2.0, 9.0, 6.0]), 5.0);
    }

    #[test]
    fn labels() {
        assert_eq!(Estimator::Single.label(), "single");
        assert_eq!(Estimator::MinOfK(10).label(), "min10");
        assert_eq!(Estimator::MedianOfK(7).label(), "median7");
    }

    #[test]
    #[should_panic(expected = "expected 3 samples")]
    fn wrong_sample_count_rejected() {
        Estimator::MinOfK(3).reduce(&[1.0]);
    }

    #[test]
    fn reduce_available_matches_reduce_on_full_samples() {
        let samples = [4.0, 2.0, 9.0];
        for est in [
            Estimator::MinOfK(3),
            Estimator::MeanOfK(3),
            Estimator::MedianOfK(3),
        ] {
            assert_eq!(est.reduce_available(&samples), est.reduce(&samples));
        }
        assert_eq!(Estimator::Single.reduce_available(&[4.0]), 4.0);
    }

    #[test]
    fn reduce_available_degrades_to_survivors() {
        assert_eq!(Estimator::MinOfK(5).reduce_available(&[4.0, 2.0]), 2.0);
        assert_eq!(Estimator::MeanOfK(4).reduce_available(&[4.0, 2.0]), 3.0);
        assert_eq!(Estimator::MedianOfK(9).reduce_available(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "zero surviving samples")]
    fn reduce_available_rejects_empty() {
        Estimator::MinOfK(3).reduce_available(&[]);
    }

    #[test]
    #[should_panic(expected = "at most 2 samples")]
    fn reduce_available_rejects_excess() {
        Estimator::MinOfK(2).reduce_available(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_tolerates_nan_samples() {
        // a NaN observation (lost/corrupted report) sorts above +inf
        // under total_cmp, so the median still comes from the finite
        // majority instead of panicking
        assert_eq!(Estimator::MedianOfK(3).reduce(&[4.0, f64::NAN, 2.0]), 4.0);
        assert_eq!(
            Estimator::MedianOfK(5).reduce_available(&[9.0, f64::NAN, 1.0]),
            9.0
        );
    }

    #[test]
    fn min_beats_mean_under_outliers() {
        // one giant outlier wrecks the mean but not the min
        let clean = [5.0, 5.1, 4.9];
        let dirty = [5.0, 500.0, 4.9];
        let min_shift =
            (Estimator::MinOfK(3).reduce(&dirty) - Estimator::MinOfK(3).reduce(&clean)).abs();
        let mean_shift =
            (Estimator::MeanOfK(3).reduce(&dirty) - Estimator::MeanOfK(3).reduce(&clean)).abs();
        assert!(min_shift < 1e-12);
        assert!(mean_shift > 100.0);
    }

    #[test]
    fn min_of_k_converges_to_floor() {
        // eq. 14: P[min > f + n_min + ε] → 0 as K → ∞
        let m = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        let f_v = 5.0;
        let floor = f_v + m.n_min(f_v);
        let mut rng = seeded_rng(7);
        let eps = 0.2 * m.n_min(f_v);
        let trials = 2_000;
        let exceed_k1 = (0..trials)
            .filter(|_| estimate(Estimator::MinOfK(1), &m, f_v, &mut rng) > floor + eps)
            .count();
        let exceed_k20 = (0..trials)
            .filter(|_| estimate(Estimator::MinOfK(20), &m, f_v, &mut rng) > floor + eps)
            .count();
        assert!(
            exceed_k20 < exceed_k1 / 4,
            "k1={exceed_k1} k20={exceed_k20}"
        );
    }

    #[test]
    fn min_of_k_preserves_ordering_where_mean_fails_less() {
        // With heavy-tail noise, comparing two close points by min-of-K
        // should misorder less often than a single sample.
        let m = Noise::Pareto {
            alpha: 1.1,
            rho: 0.4,
        }; // nastier tail
        let (f1, f2) = (5.0, 6.0); // f1 truly better
        let trials = 3_000;
        let mut rng = seeded_rng(8);
        let mis_single = (0..trials)
            .filter(|_| m.observe(f1, &mut rng) > m.observe(f2, &mut rng))
            .count();
        let min5 = Estimator::MinOfK(5);
        let mis_min5 = (0..trials)
            .filter(|_| estimate(min5, &m, f1, &mut rng) > estimate(min5, &m, f2, &mut rng))
            .count();
        assert!(
            mis_min5 * 2 < mis_single,
            "single={mis_single} min5={mis_min5}"
        );
    }

    #[test]
    fn mean_of_k_matches_expectation_for_light_tails() {
        let m = Noise::Exponential { rho: 0.2 };
        let mut rng = seeded_rng(9);
        let trials = 20_000;
        let avg: f64 = (0..trials)
            .map(|_| estimate(Estimator::MeanOfK(8), &m, 4.0, &mut rng))
            .sum::<f64>()
            / trials as f64;
        assert!((avg - 5.0).abs() < 0.02, "avg={avg}");
    }

    #[test]
    fn k_estimators_match_sequential_reference() {
        let m = Noise::paper_default(0.3);
        for k in [1, 5, 32, 33, 100] {
            let mut a = seeded_rng(79);
            let mut b = seeded_rng(79);
            let obs: Vec<f64> = (0..k).map(|_| m.observe(4.0, &mut a)).collect();
            let min = obs.iter().copied().fold(f64::INFINITY, f64::min);
            let got = estimate(Estimator::MinOfK(k), &m, 4.0, &mut b);
            assert_eq!(got.to_bits(), min.to_bits(), "k={k}");
            let mut b = seeded_rng(79);
            let mean = obs.iter().fold(0.0, |acc, y| acc + y) / k as f64;
            let got = estimate(Estimator::MeanOfK(k), &m, 4.0, &mut b);
            assert_eq!(got.to_bits(), mean.to_bits(), "k={k}");
        }
    }
}
