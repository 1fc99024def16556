//! Stochastic performance-variability models (§4 of the paper).
//!
//! On a real cluster the observed running time of a fixed-parameter
//! program varies between runs. The paper models the machine as a
//! strict-priority server with two job classes: all variability sources
//! are the first-priority job, the tunable application the second, so the
//! observed time is `y = f(v) + n(v)` with `E[y] = f(v)/(1-ρ)` where `ρ`
//! is the fraction of capacity the first-priority stream consumes
//! (eq. 5–7). Measurements on the GS2 code suggest `n(v)` is **heavy
//! tailed** (§4.2–4.3).
//!
//! This crate provides:
//!
//! * [`dist`] — probability distributions implemented from scratch over a
//!   uniform source (Pareto, bounded Pareto, exponential, Gaussian,
//!   uniform, degenerate), with cdf / survival / quantile / moments,
//! * [`noise`] — [`noise::NoiseModel`]s plugging into eq. 5: the paper's
//!   Pareto two-job noise (β from eq. 17), plus exponential and Gaussian
//!   alternatives and no-noise,
//! * [`des`] — a discrete-event simulation of the two-priority
//!   preemptive-resume queue that *validates* the analytic model
//!   (`E[y] ≈ f/(1-ρ)`),
//! * [`trace`] — a cluster trace generator reproducing the Fig. 3
//!   phenomenology: correlated big spikes (shared, cluster-wide bursts)
//!   plus independent small spikes (local bursts),
//! * [`seeded_rng`] — deterministic RNG construction for reproducible
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod des;
pub mod dist;
pub mod noise;
pub mod trace;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A deterministic, fast RNG seeded from a `u64` — every stochastic
/// component in the workspace takes its randomness from one of these so
/// experiments replay exactly.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a stream-specific seed from a base seed and a stream index
/// (SplitMix64 finalizer), so replications and processors get
/// decorrelated substreams.
///
/// Re-exported from the workspace's shared
/// [`harmony_stats::splitmix`] module so every crate derives streams
/// with the same mix.
pub use harmony_stats::splitmix::stream_seed;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let same = (0..64)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..10_000u64 {
            assert!(seen.insert(stream_seed(7, s)));
        }
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }
}
