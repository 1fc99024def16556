//! Noise models implementing the paper's two-job variability equation
//! `y = f(v) + n(v)` (eq. 5).
//!
//! The machine is a strict-priority server; first-priority work consumes
//! a fraction `ρ` (the *idle throughput*) of its capacity, so the
//! expected observation is `E[y] = f(v)/(1−ρ)` (eq. 6) and the expected
//! noise is `E[n(v)] = ρ/(1−ρ)·f(v)` (eq. 7) — the noise scale is a
//! *linear function of `f(v)`*, which is why `n(·)` is written as a
//! function of the parameters `v`.
//!
//! [`Noise::Pareto`] is the paper's §6.2 model: `n ~ Pareto(α, β)` with
//! `β = (α−1)ρ / ((1−ρ)α) · f(v)` (eq. 17), heavy tailed for `α < 2`.

use crate::dist::{Distribution, Exponential, Gaussian, Pareto};
use rand::RngCore;

/// An observation model turning a true cost `f(v)` into a noisy
/// measurement `y = f(v) + n(v)`.
///
/// Object safe: optimizers hold `&dyn NoiseModel`.
pub trait NoiseModel {
    /// The idle-system throughput `ρ ∈ [0, 1)` consumed by
    /// first-priority jobs.
    fn rho(&self) -> f64;

    /// Samples one observation `y = f(v) + n(v)`.
    fn observe(&self, f_v: f64, rng: &mut dyn RngCore) -> f64;

    /// Samples `out.len()` observations of the same point — the batch
    /// hot path for min-of-K / mean-of-K estimators.
    ///
    /// Consumes exactly the same uniform stream as repeated
    /// [`NoiseModel::observe`] calls and produces bit-identical values;
    /// implementations may only hoist per-call constant derivations
    /// (e.g. eq. 17's `β`, which depends only on `f_v`).
    fn observe_n(&self, f_v: f64, rng: &mut dyn RngCore, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.observe(f_v, rng);
        }
    }

    /// The largest of `out.len()` observations of the same point — the
    /// barrier time of a step whose instances all run one
    /// configuration (eq. 1).
    ///
    /// Bit-identical to [`NoiseModel::observe_n`] into `out` followed by
    /// a left-to-right `f64::max` fold from `−∞`, and consumes the same
    /// uniform stream; that is the default. `out` is scratch, and its
    /// contents afterwards are unspecified.
    fn observe_max(&self, f_v: f64, rng: &mut dyn RngCore, out: &mut [f64]) -> f64 {
        self.observe_n(f_v, rng, out);
        out.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The expected observation `E[y] = f(v)/(1−ρ)` (eq. 6).
    fn expected(&self, f_v: f64) -> f64 {
        f_v / (1.0 - self.rho())
    }

    /// The smallest noise value with non-zero probability,
    /// `n_min(v)` (§5.1) — for Pareto noise this is `β`, an increasing
    /// function of `f(v)`, which is what makes min-of-K comparisons
    /// order-preserving.
    fn n_min(&self, f_v: f64) -> f64;

    /// True when the noise distribution is heavy tailed (eq. 8).
    fn is_heavy_tailed(&self) -> bool;
}

/// The concrete noise models used throughout the reproduction.
///
/// # Example
///
/// ```
/// use harmony_variability::noise::{Noise, NoiseModel};
/// use harmony_variability::seeded_rng;
///
/// let noise = Noise::paper_default(0.2); // Pareto alpha = 1.7, rho = 0.2
/// let mut rng = seeded_rng(42);
/// let y = noise.observe(2.0, &mut rng); // one noisy measurement of f(v) = 2.0
/// assert!(y >= 2.0 + noise.n_min(2.0)); // never below the noise floor
/// assert!((noise.expected(2.0) - 2.5).abs() < 1e-12); // E[y] = f/(1-rho)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// Perfect measurements (`ρ = 0`).
    None,
    /// The paper's §6.2 model: Pareto noise with `β` from eq. 17.
    Pareto {
        /// Tail index `α`; the paper sets `α = 1.7` (finite mean,
        /// infinite variance).
        alpha: f64,
        /// Idle throughput `ρ ∈ [0, 1)`.
        rho: f64,
    },
    /// Exponential (light-tailed) noise with the eq. 7 mean — a control
    /// for estimator ablations.
    Exponential {
        /// Idle throughput `ρ ∈ [0, 1)`.
        rho: f64,
    },
    /// Truncated-at-zero Gaussian noise with the eq. 7 mean and
    /// coefficient of variation `cv` — a second light-tailed control.
    Gaussian {
        /// Idle throughput `ρ ∈ [0, 1)`.
        rho: f64,
        /// Standard deviation as a fraction of the mean.
        cv: f64,
    },
    /// A trace-faithful two-component mixture mirroring Fig. 3: *rare
    /// big* bursts (Pareto, very heavy) and *common small* bursts
    /// (milder Pareto), plus a mass of undisturbed measurements. The
    /// three components are calibrated so `E[n] = ρ/(1−ρ)·f` still
    /// holds (eq. 7).
    Spiky {
        /// Idle throughput `ρ ∈ [0, 1)`.
        rho: f64,
    },
}

/// Calibration constants of [`Noise::Spiky`]: probabilities and tail
/// indices of the big and small burst components (shapes follow the
/// Fig. 3 trace generator; scales are solved from eq. 7 at runtime).
pub mod spiky {
    /// Probability a measurement carries a big burst.
    pub const P_BIG: f64 = 0.02;
    /// Tail index of big bursts (infinite variance, near-infinite mean).
    pub const ALPHA_BIG: f64 = 1.1;
    /// Probability a measurement carries a small burst.
    pub const P_SMALL: f64 = 0.10;
    /// Tail index of small bursts.
    pub const ALPHA_SMALL: f64 = 1.7;
    /// Fraction of the total noise mean carried by the big component.
    pub const BIG_MEAN_SHARE: f64 = 0.6;
}

impl Noise {
    /// The paper's default heavy-tail noise: Pareto with `α = 1.7`.
    pub fn paper_default(rho: f64) -> Self {
        Noise::Pareto { alpha: 1.7, rho }
    }

    /// Validates parameters, panicking on out-of-range values.
    fn check(rho: f64) {
        assert!(
            (0.0..1.0).contains(&rho),
            "rho must be in [0, 1), got {rho}"
        );
    }

    /// The Pareto scale `β` of eq. 17 for a given true cost.
    pub fn pareto_beta(alpha: f64, rho: f64, f_v: f64) -> f64 {
        (alpha - 1.0) * rho / ((1.0 - rho) * alpha) * f_v
    }

    /// Specialises the model to one true cost `f(v)`, deriving every
    /// per-observation constant (validation, eq. 17's `β`, component
    /// scales) exactly once.
    ///
    /// The returned [`PreparedNoise`] draws from the identical sample
    /// stream as [`NoiseModel::observe`] on the original model — it only
    /// removes redundant re-derivation, not randomness. Use it whenever
    /// the same point is measured repeatedly (min-of-K, replication
    /// loops, the DES service sampler).
    ///
    /// # Panics
    /// Panics when `f_v < 0` or the model's `ρ` is outside `[0, 1)` —
    /// the same conditions `observe` rejects.
    pub fn prepared(&self, f_v: f64) -> PreparedNoise {
        assert!(f_v >= 0.0, "true cost must be non-negative, got {f_v}");
        let kind = match *self {
            Noise::None => Prepared::Clean,
            Noise::Pareto { alpha, rho } => {
                Noise::check(rho);
                if rho == 0.0 || f_v == 0.0 {
                    Prepared::Clean
                } else {
                    let beta = Noise::pareto_beta(alpha, rho, f_v);
                    Prepared::Pareto(Pareto::new(alpha, beta))
                }
            }
            Noise::Exponential { rho } => {
                Noise::check(rho);
                if rho == 0.0 || f_v == 0.0 {
                    Prepared::Clean
                } else {
                    let mean = rho / (1.0 - rho) * f_v;
                    Prepared::Exponential(Exponential::with_mean(mean))
                }
            }
            Noise::Gaussian { rho, cv } => {
                Noise::check(rho);
                if rho == 0.0 || f_v == 0.0 {
                    Prepared::Clean
                } else {
                    let mean = rho / (1.0 - rho) * f_v;
                    Prepared::Gaussian(Gaussian::new(mean, cv * mean))
                }
            }
            Noise::Spiky { rho } => {
                Noise::check(rho);
                if rho == 0.0 || f_v == 0.0 {
                    Prepared::Clean
                } else {
                    let total_mean = rho / (1.0 - rho) * f_v;
                    // solve each component's Pareto scale from its share
                    // of the total mean:
                    // E[component] = p * alpha*beta/(alpha-1)
                    let beta_big = spiky::BIG_MEAN_SHARE * total_mean * (spiky::ALPHA_BIG - 1.0)
                        / (spiky::P_BIG * spiky::ALPHA_BIG);
                    let beta_small =
                        (1.0 - spiky::BIG_MEAN_SHARE) * total_mean * (spiky::ALPHA_SMALL - 1.0)
                            / (spiky::P_SMALL * spiky::ALPHA_SMALL);
                    Prepared::Spiky {
                        big: Pareto::new(spiky::ALPHA_BIG, beta_big),
                        small: Pareto::new(spiky::ALPHA_SMALL, beta_small),
                    }
                }
            }
        };
        PreparedNoise { f_v, kind }
    }
}

/// A [`Noise`] model specialised to one true cost `f(v)` by
/// [`Noise::prepared`]: validation and constant derivation are done, so
/// each [`PreparedNoise::observe`] call is sampling only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedNoise {
    f_v: f64,
    kind: Prepared,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Prepared {
    /// No noise reaches this point (`Noise::None`, `ρ = 0`, or
    /// `f(v) = 0`): observations are exact and consume no randomness.
    Clean,
    Pareto(Pareto),
    Exponential(Exponential),
    Gaussian(Gaussian),
    Spiky {
        big: Pareto,
        small: Pareto,
    },
}

impl PreparedNoise {
    /// The true cost this instance was prepared for.
    pub fn f_v(&self) -> f64 {
        self.f_v
    }

    /// Samples one observation `y = f(v) + n(v)` — bit-identical to
    /// [`NoiseModel::observe`] on the originating model.
    pub fn observe(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng as _;
        match self.kind {
            Prepared::Clean => self.f_v,
            Prepared::Pareto(d) => self.f_v + d.sample(rng),
            Prepared::Exponential(d) => self.f_v + d.sample(rng),
            Prepared::Gaussian(g) => {
                // reject negative noise; clamp as a last resort so the
                // call always terminates
                for _ in 0..100 {
                    let n = g.sample(rng);
                    if n >= 0.0 {
                        return self.f_v + n;
                    }
                }
                self.f_v + g.sample(rng).max(0.0)
            }
            Prepared::Spiky { big, small } => {
                let mut n = 0.0;
                let u: f64 = rng.random();
                if u < spiky::P_BIG {
                    n += big.sample(rng);
                }
                let v: f64 = rng.random();
                if v < spiky::P_SMALL {
                    n += small.sample(rng);
                }
                self.f_v + n
            }
        }
    }

    /// Fills `out` with observations of the prepared point, using the
    /// batch [`Distribution::fill_samples`] path where the noise is a
    /// single additive draw.
    pub fn observe_n(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
        match self.kind {
            Prepared::Clean => out.fill(self.f_v),
            Prepared::Pareto(d) => {
                d.fill_samples(rng, out);
                for y in out.iter_mut() {
                    *y += self.f_v;
                }
            }
            Prepared::Exponential(d) => {
                d.fill_samples(rng, out);
                for y in out.iter_mut() {
                    *y += self.f_v;
                }
            }
            _ => {
                for slot in out.iter_mut() {
                    *slot = self.observe(rng);
                }
            }
        }
    }
}

impl PreparedNoise {
    /// The largest of `out.len()` observations, as
    /// [`NoiseModel::observe_max`]: Pareto noise transforms only the
    /// uniforms that can hold the maximum ([`Pareto::shifted_max`]),
    /// every other model draws all observations and folds them.
    pub fn observe_max(&self, rng: &mut dyn RngCore, out: &mut [f64]) -> f64 {
        match self.kind {
            Prepared::Pareto(d) => d.shifted_max(self.f_v, rng, out),
            _ => {
                self.observe_n(rng, out);
                out.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }
}

impl NoiseModel for Noise {
    fn rho(&self) -> f64 {
        match *self {
            Noise::None => 0.0,
            Noise::Pareto { rho, .. }
            | Noise::Exponential { rho }
            | Noise::Gaussian { rho, .. }
            | Noise::Spiky { rho } => rho,
        }
    }

    fn observe(&self, f_v: f64, rng: &mut dyn RngCore) -> f64 {
        self.prepared(f_v).observe(rng)
    }

    fn observe_n(&self, f_v: f64, rng: &mut dyn RngCore, out: &mut [f64]) {
        self.prepared(f_v).observe_n(rng, out);
    }

    fn observe_max(&self, f_v: f64, rng: &mut dyn RngCore, out: &mut [f64]) -> f64 {
        self.prepared(f_v).observe_max(rng, out)
    }

    fn n_min(&self, f_v: f64) -> f64 {
        match *self {
            Noise::None => 0.0,
            // n_min = β (eq. 17): linear and increasing in f(v)
            Noise::Pareto { alpha, rho } => Noise::pareto_beta(alpha, rho, f_v),
            // exponential, Gaussian, and spiky noise all put mass at (or
            // arbitrarily near) zero: most measurements carry no burst
            Noise::Exponential { .. } | Noise::Gaussian { .. } | Noise::Spiky { .. } => 0.0,
        }
    }

    fn is_heavy_tailed(&self) -> bool {
        match *self {
            Noise::Pareto { alpha, .. } => alpha < 2.0,
            Noise::Spiky { .. } => true, // alpha_big = 1.1 < 2
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn no_noise_is_identity() {
        let mut rng = seeded_rng(1);
        assert_eq!(Noise::None.observe(3.5, &mut rng), 3.5);
        assert_eq!(Noise::None.rho(), 0.0);
        assert_eq!(Noise::None.expected(3.5), 3.5);
        assert!(!Noise::None.is_heavy_tailed());
    }

    #[test]
    fn zero_rho_collapses_every_model() {
        let mut rng = seeded_rng(2);
        for m in [
            Noise::Pareto {
                alpha: 1.7,
                rho: 0.0,
            },
            Noise::Exponential { rho: 0.0 },
            Noise::Gaussian { rho: 0.0, cv: 0.3 },
        ] {
            assert_eq!(m.observe(2.0, &mut rng), 2.0);
        }
    }

    #[test]
    fn pareto_beta_matches_eq17() {
        // α=1.7, ρ=0.2, f=10: β = 0.7*0.2/(0.8*1.7)*10
        let beta = Noise::pareto_beta(1.7, 0.2, 10.0);
        assert!((beta - 0.7 * 0.2 / (0.8 * 1.7) * 10.0).abs() < 1e-12);
        // E[n] = αβ/(α−1) must equal ρ/(1−ρ)·f (eq. 7/16)
        let expected_n = 1.7 * beta / 0.7;
        assert!((expected_n - 0.2 / 0.8 * 10.0).abs() < 1e-10);
    }

    #[test]
    fn pareto_noise_mean_matches_eq6() {
        // α=1.7 has finite mean, so the sample mean converges (slowly);
        // use median-of-means style check with generous tolerance.
        let m = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        let mut rng = seeded_rng(3);
        let n = 400_000;
        let f_v = 5.0;
        let avg = (0..n).map(|_| m.observe(f_v, &mut rng)).sum::<f64>() / n as f64;
        let expect = m.expected(f_v);
        assert!(
            (avg - expect).abs() / expect < 0.05,
            "avg={avg} expect={expect}"
        );
    }

    #[test]
    fn exponential_noise_mean_matches_eq6() {
        let m = Noise::Exponential { rho: 0.25 };
        let mut rng = seeded_rng(4);
        let n = 200_000;
        let avg = (0..n).map(|_| m.observe(4.0, &mut rng)).sum::<f64>() / n as f64;
        let expect = 4.0 / 0.75;
        assert!((avg - expect).abs() / expect < 0.01, "avg={avg}");
    }

    #[test]
    fn gaussian_noise_mean_near_eq6_and_nonnegative() {
        let m = Noise::Gaussian { rho: 0.2, cv: 0.5 };
        let mut rng = seeded_rng(5);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let y = m.observe(4.0, &mut rng);
            assert!(y >= 4.0);
            sum += y;
        }
        let avg = sum / n as f64;
        let expect = 4.0 / 0.8;
        // rejection at 0 biases slightly; 2·cv truncation keeps it small
        assert!((avg - expect).abs() / expect < 0.03, "avg={avg}");
    }

    #[test]
    fn observation_never_below_f_plus_nmin() {
        let m = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        let mut rng = seeded_rng(6);
        let f_v = 7.0;
        let floor = f_v + m.n_min(f_v);
        for _ in 0..10_000 {
            assert!(m.observe(f_v, &mut rng) >= floor);
        }
    }

    #[test]
    fn n_min_is_increasing_in_f() {
        let m = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        assert!(m.n_min(1.0) < m.n_min(2.0));
        assert!(m.n_min(2.0) < m.n_min(10.0));
        // ordering property of §5.1: f1 < f2 implies
        // f1 + n_min(f1) < f2 + n_min(f2)
        assert!(1.0 + m.n_min(1.0) < 2.0 + m.n_min(2.0));
    }

    #[test]
    fn heavy_tail_flags() {
        assert!(Noise::Pareto {
            alpha: 1.7,
            rho: 0.1
        }
        .is_heavy_tailed());
        assert!(!Noise::Pareto {
            alpha: 2.5,
            rho: 0.1
        }
        .is_heavy_tailed());
        assert!(!Noise::Exponential { rho: 0.1 }.is_heavy_tailed());
    }

    #[test]
    #[should_panic(expected = "rho must be in [0, 1)")]
    fn invalid_rho_rejected() {
        let mut rng = seeded_rng(10);
        Noise::Pareto {
            alpha: 1.7,
            rho: 1.0,
        }
        .observe(1.0, &mut rng);
    }

    #[test]
    fn prepared_matches_scalar_observe_exactly() {
        for m in [
            Noise::None,
            Noise::paper_default(0.3),
            Noise::Exponential { rho: 0.2 },
            Noise::Gaussian { rho: 0.2, cv: 0.4 },
            Noise::Spiky { rho: 0.25 },
        ] {
            let f_v = 3.25;
            let p = m.prepared(f_v);
            let mut a = seeded_rng(77);
            let mut b = seeded_rng(77);
            for _ in 0..2_000 {
                assert_eq!(m.observe(f_v, &mut a), p.observe(&mut b), "{m:?}");
            }
        }
    }

    #[test]
    fn observe_n_matches_scalar_stream_exactly() {
        for m in [
            Noise::paper_default(0.3),
            Noise::Exponential { rho: 0.2 },
            Noise::Gaussian { rho: 0.2, cv: 0.4 },
            Noise::Spiky { rho: 0.25 },
        ] {
            let f_v = 5.5;
            let mut a = seeded_rng(78);
            let mut b = seeded_rng(78);
            let mut batch = [0.0; 193];
            m.observe_n(f_v, &mut b, &mut batch);
            for (i, &y) in batch.iter().enumerate() {
                assert_eq!(m.observe(f_v, &mut a), y, "{m:?} sample {i}");
            }
            // streams stay aligned after the batch
            use rand::Rng as _;
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn trait_object_usable() {
        let m: &dyn NoiseModel = &Noise::paper_default(0.2);
        let mut rng = seeded_rng(11);
        let y = m.observe(3.0, &mut rng);
        assert!(y >= 3.0);
        assert!(m.is_heavy_tailed());
    }
}
