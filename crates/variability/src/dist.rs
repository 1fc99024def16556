//! Probability distributions over a uniform source.
//!
//! Implemented from scratch (inverse-transform or Box–Muller) so the
//! workspace needs only `rand`'s uniform generator. Each distribution
//! exposes its cdf, survival function `Q(x) = P[X > x]`, quantile
//! function, and (possibly infinite) moments — the survival function is
//! the object the paper's heavy-tail analysis works with (eq. 8–11).

use rand::Rng;

/// Lane width of the batched sampling kernels: uniforms are drawn and
/// transformed in blocks of this many values so the transform loops
/// operate on short, fixed-size runs LLVM can unroll and vectorize,
/// while the uniform stream itself stays in exactly the scalar order.
pub const LANES: usize = 8;

/// A univariate distribution that can be sampled and interrogated.
pub trait Distribution {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Cumulative distribution function `P[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse cdf) at probability `p ∈ [0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Mean, or `f64::INFINITY` when it does not exist (Pareto `α ≤ 1`).
    fn mean(&self) -> f64;

    /// Variance, or `f64::INFINITY` when it does not exist
    /// (Pareto `α ≤ 2` — the property that defeats the average operator,
    /// §5.1).
    fn variance(&self) -> f64;

    /// Survival function `Q(x) = P[X > x]` (eq. 10).
    fn survival(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// True when the distribution is heavy tailed in the paper's sense
    /// (eq. 8: hyperbolic tail with index `0 < α < 2`).
    fn is_heavy_tailed(&self) -> bool {
        false
    }

    /// Fills `out` with i.i.d. samples — the batch hot path.
    ///
    /// Consumes exactly the same uniform stream as `out.len()` calls to
    /// [`Distribution::sample`] and produces bit-identical values;
    /// implementations may only hoist loop-invariant computations (e.g.
    /// a precomputed exponent) whose per-call results are exact
    /// duplicates. Callers holding a reusable buffer avoid both the
    /// allocation of [`sample_n`] and the per-sample re-derivation of
    /// distribution constants.
    fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// Draws `n` i.i.d. samples into a vector (via the batch
/// [`Distribution::fill_samples`] path).
pub fn sample_n<D: Distribution, R: Rng + ?Sized>(d: &D, n: usize, rng: &mut R) -> Vec<f64> {
    let mut out = vec![0.0; n];
    d.fill_samples(rng, &mut out);
    out
}

/// The Pareto distribution of eq. 9: `F(x) = 1 − (β/x)^α` for `x ≥ β`.
///
/// `β` is the smallest value the variable can take; for `1 < α < 2` the
/// mean `αβ/(α−1)` (eq. 16) is finite but the variance is infinite, and
/// for `α ≤ 1` both are infinite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Tail index `α > 0`.
    pub alpha: f64,
    /// Scale (minimum value) `β > 0`.
    pub beta: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `alpha > 0` and `beta > 0`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "Pareto requires alpha, beta > 0");
        Pareto { alpha, beta }
    }

    /// The largest of `out.len()` draws of `shift + X`, bit-identical
    /// to [`Distribution::fill_samples`] into `out`, adding `shift` to
    /// each sample, and folding with `f64::max` from `−∞`; the RNG
    /// advances by exactly the same draws. `out` is scratch: it holds
    /// the uniforms afterwards.
    ///
    /// `X = β·u^(−1/α)` falls as `u` grows, so only uniforms near the
    /// smallest one, `u_min`, can hold the maximum, and only those are
    /// transformed. The window is `u ≤ u_min·(1 + δ)` with
    /// `δ = α·2⁻³⁰`. A uniform above it has an exact power below
    /// `u_min`'s by a factor of at most about `1 − 2⁻³⁰` (the rounding
    /// of the bound costs less than `2⁻⁵³/α`), far more than the
    /// sub-ULP error of `powf`, so its computed sample is smaller and
    /// cannot be the maximum. Every uniform inside the window, ties and
    /// neighbours included, is transformed. Multiplying by `β > 0` and
    /// adding `shift` round monotonically, so `shift + max(β·p)` equals
    /// the max of `shift + β·p` bit for bit. Outside
    /// `2⁻²⁰ ≤ α ≤ 2²⁰`, where those bounds lose their margin, every
    /// uniform is transformed.
    pub fn shifted_max<R: Rng + ?Sized>(&self, shift: f64, rng: &mut R, out: &mut [f64]) -> f64 {
        const WINDOW_PER_ALPHA: f64 = 1.0 / (1u64 << 30) as f64;
        const ALPHA_RANGE: std::ops::RangeInclusive<f64> =
            1.0 / (1u64 << 20) as f64..=(1u64 << 20) as f64;
        if out.is_empty() {
            return f64::NEG_INFINITY;
        }
        let mut u_min = f64::INFINITY;
        for slot in out.iter_mut() {
            *slot = rng.random::<f64>().max(f64::MIN_POSITIVE);
            u_min = u_min.min(*slot);
        }
        let cut = if ALPHA_RANGE.contains(&self.alpha) {
            u_min * (1.0 + self.alpha * WINDOW_PER_ALPHA)
        } else {
            f64::INFINITY
        };
        let exp = -1.0 / self.alpha;
        let mut best = f64::NEG_INFINITY;
        for &u in out.iter() {
            if u <= cut {
                best = best.max(self.beta * u.powf(exp));
            }
        }
        shift + best
    }
}

impl Distribution for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // inverse transform on the survival function: X = β·U^(−1/α)
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        self.beta * u.powf(-1.0 / self.alpha)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.beta {
            0.0
        } else {
            1.0 - (self.beta / x).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1)");
        self.beta * (1.0 - p).powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha > 1.0 {
            self.alpha * self.beta / (self.alpha - 1.0)
        } else {
            f64::INFINITY
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha > 2.0 {
            let a = self.alpha;
            self.beta * self.beta * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        } else {
            f64::INFINITY
        }
    }

    fn is_heavy_tailed(&self) -> bool {
        self.alpha < 2.0
    }

    fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        // hoist the loop-invariant exponent; `u.powf(exp)` with the
        // precomputed quotient is the exact same operation as the
        // scalar path's `u.powf(-1.0 / self.alpha)`. Two passes per
        // lane block: draw the uniforms into the output slice (same
        // stream order as the scalar path), then transform in place.
        let exp = -1.0 / self.alpha;
        for chunk in out.chunks_mut(LANES) {
            for slot in chunk.iter_mut() {
                *slot = rng.random::<f64>().max(f64::MIN_POSITIVE);
            }
            for slot in chunk.iter_mut() {
                *slot = self.beta * slot.powf(exp);
            }
        }
    }
}

/// A Pareto distribution truncated to `[lo, hi]` — used to model the
/// *small*-spike component visible after truncating the GS2 trace
/// (Fig. 6/7): still hyperbolic over its range but with bounded support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Tail index `α > 0`.
    pub alpha: f64,
    /// Lower support bound (> 0).
    pub lo: f64,
    /// Upper support bound (> lo).
    pub hi: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `alpha > 0` and `0 < lo < hi`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(
            alpha > 0.0 && lo > 0.0 && hi > lo,
            "BoundedPareto requires alpha > 0 and 0 < lo < hi"
        );
        BoundedPareto { alpha, lo, hi }
    }

    fn norm(&self) -> f64 {
        1.0 - (self.lo / self.hi).powf(self.alpha)
    }
}

impl Distribution for BoundedPareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.random::<f64>())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (1.0 - (self.lo / x).powf(self.alpha)) / self.norm()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1)");
        let t = 1.0 - p * self.norm();
        self.lo * t.powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        let a = self.alpha;
        if (a - 1.0).abs() < 1e-12 {
            // α = 1 special case: mean = lo·hi/(hi−lo)·ln(hi/lo)/norm
            self.lo * (self.hi / self.lo).ln() / self.norm()
        } else {
            (a * self.lo.powf(a) / (a - 1.0)) * (self.lo.powf(1.0 - a) - self.hi.powf(1.0 - a))
                / self.norm()
        }
    }

    fn variance(&self) -> f64 {
        // E[X²] − mean²; E[X²] via the same integral with exponent 2
        let a = self.alpha;
        let ex2 = if (a - 2.0).abs() < 1e-12 {
            2.0 * self.lo.powf(2.0) * (self.hi / self.lo).ln() / self.norm()
        } else {
            (a * self.lo.powf(a) / (a - 2.0)) * (self.lo.powf(2.0 - a) - self.hi.powf(2.0 - a))
                / self.norm()
        };
        let m = self.mean();
        ex2 - m * m
    }

    fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        // hoist the normalisation constant and the exponent; both are
        // pure functions of the parameters, so each batched draw
        // performs the identical float ops as quantile(random())
        let norm = self.norm();
        let exp = -1.0 / self.alpha;
        for chunk in out.chunks_mut(LANES) {
            for slot in chunk.iter_mut() {
                *slot = rng.random::<f64>();
            }
            for slot in chunk.iter_mut() {
                let t = 1.0 - *slot * norm;
                *slot = self.lo * t.powf(exp);
            }
        }
    }
}

/// Exponential distribution with the given rate (mean `1/rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate `λ > 0`.
    pub rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    /// Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Exponential requires rate > 0");
        Exponential { rate }
    }

    /// Exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }
}

impl Distribution for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1)");
        -(1.0 - p).ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        // same `-ln(u)/rate` expression as the scalar path (dividing by
        // a hoisted reciprocal would change the rounding); the two-pass
        // block layout lets the ln/divide loop run over a dense slice
        for chunk in out.chunks_mut(LANES) {
            for slot in chunk.iter_mut() {
                *slot = rng.random::<f64>().max(f64::MIN_POSITIVE);
            }
            for slot in chunk.iter_mut() {
                *slot = -slot.ln() / self.rate;
            }
        }
    }
}

/// Normal distribution sampled with the Box–Muller transform; cdf via the
/// Abramowitz–Stegun `erf` approximation (7.1.26, |error| < 1.5e-7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean.
    pub mean: f64,
    /// Standard deviation `σ > 0`.
    pub sd: f64,
}

impl Gaussian {
    /// Creates a Gaussian distribution.
    ///
    /// # Panics
    /// Panics unless `sd > 0`.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd > 0.0, "Gaussian requires sd > 0");
        Gaussian { mean, sd }
    }
}

/// Error function approximation (Abramowitz–Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cdf `Φ(z)`.
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal quantile (Acklam's rational approximation,
/// relative error < 1.15e-9).
#[allow(clippy::excessive_precision)]
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal quantile requires p in (0,1)");
    // coefficients for the central and tail regions
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

impl Distribution for Gaussian {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller (one variate per call; independence across calls is
        // preserved by discarding the sibling variate)
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.sd * z
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sd)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * std_normal_quantile(p.max(f64::MIN_POSITIVE))
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        // batched Box–Muller: stage each block's (u1, u2) pairs into
        // stack lanes — drawn strictly interleaved, exactly as the
        // scalar path consumes them — then run the ln/sqrt/cos
        // transform over the dense lanes
        let mut u1 = [0.0_f64; LANES];
        let mut u2 = [0.0_f64; LANES];
        for chunk in out.chunks_mut(LANES) {
            for j in 0..chunk.len() {
                u1[j] = rng.random::<f64>().max(f64::MIN_POSITIVE);
                u2[j] = rng.random::<f64>();
            }
            for (j, slot) in chunk.iter_mut().enumerate() {
                let z = (-2.0 * u1[j].ln()).sqrt() * (2.0 * std::f64::consts::PI * u2[j]).cos();
                *slot = self.mean + self.sd * z;
            }
        }
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound (> lo).
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution.
    ///
    /// # Panics
    /// Panics unless `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "Uniform requires lo < hi");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.random::<f64>()
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.lo + (self.hi - self.lo) * p
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn fill_samples<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        let w = self.hi - self.lo;
        for slot in out.iter_mut() {
            *slot = self.lo + w * rng.random::<f64>();
        }
    }
}

/// A point mass: always returns `value` (the `ρ = 0` no-noise case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degenerate {
    /// The single admissible value.
    pub value: f64,
}

impl Distribution for Degenerate {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.value
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn quantile(&self, _p: f64) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn fill_samples<R: Rng + ?Sized>(&self, _rng: &mut R, out: &mut [f64]) {
        out.fill(self.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn mean_of<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    /// Kolmogorov–Smirnov statistic of samples against the model cdf.
    fn ks_stat<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = seeded_rng(seed);
        let mut xs = sample_n(d, n, &mut rng);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.iter()
            .enumerate()
            .map(|(i, &x)| {
                let emp_hi = (i + 1) as f64 / n as f64;
                let emp_lo = i as f64 / n as f64;
                let c = d.cdf(x);
                (c - emp_lo).abs().max((emp_hi - c).abs())
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn pareto_cdf_quantile_roundtrip() {
        let d = Pareto::new(1.7, 2.0);
        for p in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-10, "p={p}");
        }
        assert_eq!(d.cdf(1.0), 0.0); // below β
    }

    #[test]
    fn pareto_moments() {
        let d = Pareto::new(1.7, 2.0);
        assert!((d.mean() - 1.7 * 2.0 / 0.7).abs() < 1e-12); // eq. 16
        assert_eq!(d.variance(), f64::INFINITY);
        assert!(d.is_heavy_tailed());

        let finite = Pareto::new(3.0, 1.0);
        assert!(finite.variance().is_finite());
        assert!(!finite.is_heavy_tailed());

        let no_mean = Pareto::new(0.8, 1.0);
        assert_eq!(no_mean.mean(), f64::INFINITY);
    }

    #[test]
    fn pareto_sample_mean_converges_when_finite() {
        let d = Pareto::new(3.0, 1.0);
        let m = mean_of(&d, 200_000, 1);
        assert!((m - d.mean()).abs() / d.mean() < 0.02, "m={m}");
    }

    #[test]
    fn pareto_ks_fit() {
        assert!(ks_stat(&Pareto::new(1.7, 2.0), 20_000, 2) < 0.02);
    }

    #[test]
    fn pareto_min_of_k_has_index_k_alpha() {
        // §5.1: min of K Pareto(α, β) samples is Pareto(Kα, β) (eq. 19).
        // Check the survival function empirically at a few points.
        let alpha = 0.9; // infinite mean individually
        let k = 4;
        let d = Pareto::new(alpha, 1.0);
        let mut rng = seeded_rng(3);
        let n = 50_000;
        let mins: Vec<f64> = (0..n)
            .map(|_| {
                (0..k)
                    .map(|_| d.sample(&mut rng))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let model = Pareto::new(alpha * k as f64, 1.0);
        for x in [1.2, 1.5, 2.0, 3.0] {
            let emp = mins.iter().filter(|&&m| m > x).count() as f64 / n as f64;
            assert!(
                (emp - model.survival(x)).abs() < 0.01,
                "x={x} emp={emp} model={}",
                model.survival(x)
            );
        }
    }

    #[test]
    fn bounded_pareto_support_and_fit() {
        let d = BoundedPareto::new(1.1, 0.5, 5.0);
        let mut rng = seeded_rng(4);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.5..=5.0).contains(&x));
        }
        assert!(ks_stat(&d, 20_000, 5) < 0.02);
        let m = mean_of(&d, 100_000, 6);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.02,
            "m={m} vs {}",
            d.mean()
        );
    }

    #[test]
    fn bounded_pareto_alpha_one_and_two_special_cases() {
        let d1 = BoundedPareto::new(1.0, 1.0, 10.0);
        let m = mean_of(&d1, 200_000, 7);
        assert!((m - d1.mean()).abs() / d1.mean() < 0.02);
        let d2 = BoundedPareto::new(2.0, 1.0, 10.0);
        assert!(d2.variance() > 0.0 && d2.variance().is_finite());
    }

    #[test]
    fn exponential_fit_and_moments() {
        let d = Exponential::with_mean(2.5);
        assert!((d.mean() - 2.5).abs() < 1e-12);
        assert!((d.variance() - 6.25).abs() < 1e-12);
        assert!(ks_stat(&d, 20_000, 8) < 0.02);
        let m = mean_of(&d, 100_000, 9);
        assert!((m - 2.5).abs() < 0.05);
        assert!((d.quantile(d.cdf(1.3)) - 1.3).abs() < 1e-10);
    }

    #[test]
    fn gaussian_fit_and_cdf() {
        let d = Gaussian::new(10.0, 3.0);
        assert!(ks_stat(&d, 20_000, 10) < 0.02);
        assert!((d.cdf(10.0) - 0.5).abs() < 1e-7);
        // 68-95-99.7
        assert!((d.cdf(13.0) - d.cdf(7.0) - 0.6827).abs() < 1e-3);
        assert!((d.quantile(0.975) - (10.0 + 1.959964 * 3.0)).abs() < 1e-3);
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for p in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let z = std_normal_quantile(p);
            assert!((std_normal_cdf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn uniform_and_degenerate() {
        let u = Uniform::new(-1.0, 3.0);
        assert!(ks_stat(&u, 20_000, 15) < 0.02);
        assert_eq!(u.mean(), 1.0);
        let d = Degenerate { value: 4.2 };
        let mut rng = seeded_rng(16);
        assert_eq!(d.sample(&mut rng), 4.2);
        assert_eq!(d.cdf(4.2), 1.0);
        assert_eq!(d.cdf(4.1), 0.0);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha, beta > 0")]
    fn pareto_rejects_bad_params() {
        Pareto::new(0.0, 1.0);
    }

    fn assert_fill_matches_scalar<D: Distribution + std::fmt::Debug>(d: &D, seed: u64) {
        use rand::Rng as _;
        let mut a = seeded_rng(seed);
        let mut b = seeded_rng(seed);
        let mut batch = vec![0.0; 257];
        d.fill_samples(&mut b, &mut batch);
        for (i, &x) in batch.iter().enumerate() {
            assert_eq!(d.sample(&mut a), x, "{d:?} sample {i}");
        }
        // the two generators must remain in lockstep after the batch
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn fill_samples_matches_scalar_stream_exactly() {
        assert_fill_matches_scalar(&Pareto::new(1.7, 2.0), 21);
        assert_fill_matches_scalar(&BoundedPareto::new(1.1, 0.5, 5.0), 22);
        assert_fill_matches_scalar(&Exponential::with_mean(2.5), 23);
        assert_fill_matches_scalar(&Gaussian::new(10.0, 3.0), 24);
        assert_fill_matches_scalar(&Uniform::new(-1.0, 3.0), 27);
        assert_fill_matches_scalar(&Degenerate { value: 4.2 }, 28);
    }
}
