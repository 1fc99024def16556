//! Resampling and dependence diagnostics: bootstrap confidence
//! intervals, the two-sample Kolmogorov–Smirnov statistic, and
//! autocorrelation.
//!
//! Used by the experiment harness to put uncertainty on NTT averages
//! (heavy-tailed session times make normal-theory intervals unreliable)
//! and to quantify the temporal structure of cluster traces (Fig. 3's
//! spikes are bursty, not i.i.d., across iterations).
//!
//! The bootstrap needs a uniform source; to keep this crate
//! dependency-free it uses a small embedded SplitMix64 generator seeded
//! by the caller, built on the shared [`crate::splitmix`] primitives.

/// A tiny deterministic PRNG (SplitMix64) for resampling.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        crate::splitmix::next(&mut self.state)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        crate::splitmix::u64_to_unit_f64(self.next_u64())
    }

    /// Uniform index in `0..n`.
    pub fn next_index(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate (the statistic on the original sample).
    pub estimate: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Confidence level used.
    pub level: f64,
}

/// Percentile bootstrap CI for an arbitrary statistic.
///
/// # Panics
/// Panics on an empty sample, `resamples == 0`, or a level outside
/// `(0, 1)`.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    statistic: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> BootstrapCi
where
    F: Fn(&[f64]) -> f64,
{
    assert!(!xs.is_empty(), "bootstrap of empty sample");
    assert!(resamples > 0, "need at least one resample");
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
    let mut rng = SplitMix64::new(seed);
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; xs.len()];
    for _ in 0..resamples {
        for b in buf.iter_mut() {
            *b = xs[rng.next_index(xs.len())];
        }
        stats.push(statistic(&buf));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistics"));
    let alpha = (1.0 - level) / 2.0;
    let idx = |q: f64| -> f64 {
        let pos = q * (stats.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo + 1 < stats.len() {
            stats[lo] * (1.0 - frac) + stats[lo + 1] * frac
        } else {
            stats[lo]
        }
    };
    BootstrapCi {
        estimate: statistic(xs),
        lo: idx(alpha),
        hi: idx(1.0 - alpha),
        level,
    }
}

/// Bootstrap CI for the mean (the common case in the harness).
pub fn bootstrap_mean_ci(xs: &[f64], resamples: usize, level: f64, seed: u64) -> BootstrapCi {
    bootstrap_ci(
        xs,
        |s| s.iter().sum::<f64>() / s.len() as f64,
        resamples,
        level,
        seed,
    )
}

/// Sample autocorrelation at the given lag (biased, normalised by the
/// lag-0 variance) — quantifies the burstiness of iteration-time
/// series.
///
/// # Panics
/// Panics when `lag >= xs.len()` or the series is constant.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    assert!(lag < xs.len(), "lag {lag} out of range for n={}", xs.len());
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    assert!(var > 0.0, "autocorrelation of a constant series");
    let cov: f64 = xs
        .windows(lag + 1)
        .map(|w| (w[0] - mean) * (w[lag] - mean))
        .sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn splitmix_uniform_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            let i = rng.next_index(10);
            assert!(i < 10);
        }
    }

    #[test]
    fn bootstrap_mean_ci_covers_estimate() {
        let xs = ramp(100);
        let ci = bootstrap_mean_ci(&xs, 2_000, 0.95, 7);
        assert!((ci.estimate - 49.5).abs() < 1e-12);
        assert!(ci.lo < ci.estimate && ci.estimate < ci.hi);
        // CI width for a uniform 0..99 mean with n=100: sd≈28.9/10 ≈ 2.9
        assert!(ci.hi - ci.lo > 5.0 && ci.hi - ci.lo < 20.0, "{ci:?}");
    }

    #[test]
    fn bootstrap_is_deterministic_per_seed() {
        let xs = ramp(50);
        let a = bootstrap_mean_ci(&xs, 500, 0.9, 3);
        let b = bootstrap_mean_ci(&xs, 500, 0.9, 3);
        assert_eq!(a, b);
        let c = bootstrap_mean_ci(&xs, 500, 0.9, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn bootstrap_degenerate_sample() {
        let ci = bootstrap_mean_ci(&[5.0, 5.0, 5.0], 100, 0.95, 1);
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
    }

    #[test]
    fn autocorrelation_of_trend_is_high() {
        assert!(autocorrelation(&ramp(100), 1) > 0.9);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let xs = [1.0, 3.0, 2.0, 5.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "constant series")]
    fn autocorrelation_constant_rejected() {
        autocorrelation(&[1.0, 1.0, 1.0], 1);
    }
}
