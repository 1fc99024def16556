//! Heavy-tail diagnostics: Hill estimator, tail-slope regression, and the
//! truncation used for Fig. 6/7.
//!
//! A distribution is heavy tailed in the paper's sense when
//! `P[X > x] ~ x^{−α}` with `0 < α < 2` (eq. 8). On a log-log plot the
//! survival function of such a variable is asymptotically a line of
//! slope `−α`; we quantify that two ways:
//!
//! * [`hill_estimate`] — the classical Hill estimator of `α` from the
//!   top-`k` order statistics,
//! * [`tail_slope`] — least-squares slope of the log-log survival series
//!   over the top fraction of the data (the "last part of the graph
//!   approximately forms a line" check of Fig. 5).

use crate::ecdf::Ecdf;

/// Simple least squares fit `y = slope·x + intercept` with `r²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Ordinary least squares on `(x, y)` pairs.
///
/// # Panics
/// Panics with fewer than two points or zero x-variance.
pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    assert!(points.len() >= 2, "linear fit needs at least 2 points");
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    assert!(sxx > 0.0, "linear fit with zero x-variance");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

/// The Hill estimator of the tail index `α` using the `k` largest order
/// statistics:
/// `α̂ = k / Σ_{i=1..k} (ln x_{(n−i+1)} − ln x_{(n−k)})`.
///
/// # Panics
/// Panics unless `1 ≤ k < n` and the involved order statistics are
/// positive.
pub fn hill_estimate(xs: &[f64], k: usize) -> f64 {
    assert!(k >= 1 && k < xs.len(), "hill: need 1 <= k < n");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let n = sorted.len();
    let threshold = sorted[n - k - 1];
    assert!(threshold > 0.0, "hill estimator requires positive data");
    let s: f64 = (0..k).map(|i| (sorted[n - 1 - i] / threshold).ln()).sum();
    k as f64 / s
}

/// Fits a line to the log-log survival series over the largest
/// `tail_fraction` of distinct sample values and returns the fit; the
/// estimated tail index is `−fit.slope`.
///
/// # Panics
/// Panics if fewer than two tail points remain.
pub fn tail_slope(xs: &[f64], tail_fraction: f64) -> LinearFit {
    assert!(
        (0.0..=1.0).contains(&tail_fraction) && tail_fraction > 0.0,
        "tail_fraction must be in (0, 1]"
    );
    let ll = Ecdf::new(xs).loglog_survival();
    let start = ((1.0 - tail_fraction) * ll.len() as f64).floor() as usize;
    let tail = &ll[start.min(ll.len().saturating_sub(2))..];
    linear_fit(tail)
}

/// Heuristic heavy-tail verdict from the tail regression: heavy when the
/// fitted tail index lies in `(0, 2)` and the fit is close to linear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailVerdict {
    /// Estimated tail index `α̂ = −slope`.
    pub alpha: f64,
    /// Goodness of the log-log linear fit.
    pub r2: f64,
    /// True when `0 < α̂ < 2` and `r² ≥ 0.9`.
    pub heavy: bool,
}

/// Runs [`tail_slope`] and classifies per eq. 8.
pub fn classify_tail(xs: &[f64], tail_fraction: f64) -> TailVerdict {
    let fit = tail_slope(xs, tail_fraction);
    let alpha = -fit.slope;
    TailVerdict {
        alpha,
        r2: fit.r2,
        heavy: alpha > 0.0 && alpha < 2.0 && fit.r2 >= 0.9,
    }
}

/// The Fig. 6/7 truncation: keep only samples `≤ cutoff`, isolating the
/// small-spike component.
pub fn truncate(xs: &[f64], cutoff: f64) -> Vec<f64> {
    xs.iter().copied().filter(|&x| x <= cutoff).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic Pareto(alpha, 1) sample via quantile spacing.
    fn pareto_sample(alpha: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                (1.0 - u).powf(-1.0 / alpha)
            })
            .collect()
    }

    /// Deterministic exponential(1) sample.
    fn exp_sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                -(1.0 - u).ln()
            })
            .collect()
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 1.0)).collect();
        let fit = linear_fit(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r2_drops_with_noise() {
        let pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)];
        let fit = linear_fit(&pts);
        assert!(fit.r2 < 1.0 && fit.r2 > 0.0);
    }

    #[test]
    fn hill_recovers_pareto_alpha() {
        for alpha in [0.8, 1.2, 1.7] {
            let xs = pareto_sample(alpha, 20_000);
            let a_hat = hill_estimate(&xs, 2_000);
            assert!(
                (a_hat - alpha).abs() / alpha < 0.1,
                "alpha={alpha} a_hat={a_hat}"
            );
        }
    }

    #[test]
    fn hill_on_exponential_is_large() {
        // exponential tails look like alpha -> big in the Hill estimator
        // for small k-fractions
        let xs = exp_sample(20_000);
        let a_hat = hill_estimate(&xs, 200);
        assert!(a_hat > 2.0, "a_hat={a_hat}");
    }

    #[test]
    fn tail_slope_recovers_alpha() {
        let xs = pareto_sample(1.7, 20_000);
        let fit = tail_slope(&xs, 0.2);
        assert!((-fit.slope - 1.7).abs() < 0.15, "slope={}", fit.slope);
        assert!(fit.r2 > 0.98);
    }

    #[test]
    fn classify_pareto_heavy_exponential_not() {
        let heavy = classify_tail(&pareto_sample(1.3, 20_000), 0.2);
        assert!(heavy.heavy, "{heavy:?}");
        let light = classify_tail(&exp_sample(20_000), 0.2);
        // exponential: log-log survival curve bends down; fitted alpha
        // exceeds 2 (or fit is poor)
        assert!(!light.heavy || light.alpha >= 2.0, "{light:?}");
    }

    #[test]
    fn truncation_keeps_only_small() {
        let xs = [1.0, 4.0, 5.0, 5.1, 80.0];
        assert_eq!(truncate(&xs, 5.0), vec![1.0, 4.0, 5.0]);
    }

    #[test]
    fn truncated_pareto_is_still_heavyish_over_its_range() {
        // Fig. 6/7: after removing samples > 5 the remaining small-spike
        // data still shows a hyperbolic stretch
        let xs = truncate(&pareto_sample(1.1, 50_000), 5.0);
        let fit = tail_slope(&xs, 0.3);
        assert!(fit.slope < -0.5, "slope={}", fit.slope);
    }

    #[test]
    #[should_panic(expected = "need 1 <= k < n")]
    fn hill_bad_k() {
        hill_estimate(&[1.0, 2.0], 2);
    }
}
