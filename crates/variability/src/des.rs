//! Discrete-event simulation of the two-priority machine model (§4.1).
//!
//! A single work-conserving server runs under strict priority with
//! preemptive resume. First-priority jobs arrive as a Poisson process of
//! rate `λ` with i.i.d. service demands of mean `E[S]`; the idle
//! throughput is `ρ = λ·E[S]`. The tunable application is a single
//! second-priority job of demand `f(v)` arriving at time 0 to an empty
//! system.
//!
//! Under work conservation the application's finishing time is the
//! smallest `y` with `y = f(v) + W(y)`, where `W(t)` is the total
//! first-priority work arriving in `[0, t)` — computed exactly by the
//! cascade in [`TwoPriorityDes::finishing_time`] without an event heap,
//! which validates the paper's eq. 6: `E[y] = f(v)/(1−ρ)`.

use crate::dist::Distribution;
use rand::Rng;

/// The two-priority preemptive-resume queue of §4.1.
///
/// # Example
///
/// ```
/// use harmony_variability::des::TwoPriorityDes;
/// use harmony_variability::dist::Exponential;
/// use harmony_variability::seeded_rng;
///
/// let queue = TwoPriorityDes::with_rho(0.25, Exponential::with_mean(0.2));
/// let mut rng = seeded_rng(1);
/// let (mean, _se) = queue.mean_finishing_time(3.0, 20_000, &mut rng);
/// // eq. 6: E[y] = f / (1 - rho) = 4.0
/// assert!((mean - 4.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct TwoPriorityDes<D: Distribution> {
    /// Poisson arrival rate `λ` of first-priority jobs.
    pub arrival_rate: f64,
    /// Service-demand distribution of first-priority jobs.
    pub service: D,
}

impl<D: Distribution> TwoPriorityDes<D> {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics if `arrival_rate` is negative or the implied utilisation
    /// `ρ = λ·E[S]` is ≥ 1 (the application would never finish).
    pub fn new(arrival_rate: f64, service: D) -> Self {
        assert!(arrival_rate >= 0.0, "arrival rate must be non-negative");
        let rho = arrival_rate * service.mean();
        assert!(
            rho < 1.0,
            "idle throughput rho = {rho} must be < 1 for stability"
        );
        TwoPriorityDes {
            arrival_rate,
            service,
        }
    }

    /// The idle throughput `ρ = λ·E[S]` — the fraction of capacity the
    /// first-priority stream consumes.
    pub fn rho(&self) -> f64 {
        self.arrival_rate * self.service.mean()
    }

    /// Builds a simulator achieving a target `ρ` with unit-mean scaling
    /// of the given service distribution's rate: `λ = ρ / E[S]`.
    pub fn with_rho(rho: f64, service: D) -> Self {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
        let lambda = rho / service.mean();
        TwoPriorityDes::new(lambda, service)
    }

    /// Finishing time of a second-priority job of demand `f` arriving at
    /// `t = 0` to an empty system (one sample of `y` in eq. 5).
    ///
    /// Exact under work conservation: starting from `y₀ = f`, repeatedly
    /// add the service demands of first-priority arrivals landing before
    /// the current completion estimate until no new arrival does.
    pub fn finishing_time<R: Rng + ?Sized>(&self, f: f64, rng: &mut R) -> f64 {
        assert!(f >= 0.0, "job demand must be non-negative");
        if f == 0.0 || self.arrival_rate == 0.0 {
            return f;
        }
        let mut total = f;
        let mut t_arr = self.next_interarrival(rng);
        while t_arr < total {
            total += self.service.sample(rng);
            t_arr += self.next_interarrival(rng);
        }
        total
    }

    fn next_interarrival<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.arrival_rate
    }

    /// Monte-Carlo estimate of `E[y]` over `n` replications, returned
    /// with its standard error.
    pub fn mean_finishing_time<R: Rng + ?Sized>(
        &self,
        f: f64,
        n: usize,
        rng: &mut R,
    ) -> (f64, f64) {
        assert!(n >= 2, "need at least 2 replications");
        let samples: Vec<f64> = (0..n).map(|_| self.finishing_time(f, rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / (n as f64 - 1.0);
        (mean, (var / n as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Pareto};
    use crate::seeded_rng;

    #[test]
    fn rho_zero_is_noise_free() {
        let q = TwoPriorityDes::new(0.0, Exponential::with_mean(1.0));
        let mut rng = seeded_rng(1);
        assert_eq!(q.finishing_time(3.0, &mut rng), 3.0);
        assert_eq!(q.rho(), 0.0);
    }

    #[test]
    fn finishing_time_at_least_f() {
        let q = TwoPriorityDes::with_rho(0.3, Exponential::with_mean(0.5));
        let mut rng = seeded_rng(2);
        for _ in 0..1_000 {
            assert!(q.finishing_time(2.0, &mut rng) >= 2.0);
        }
    }

    #[test]
    fn mean_matches_eq6_exponential_service() {
        // E[y] = f / (1 - rho), eq. 6
        for rho in [0.1, 0.25, 0.4] {
            let q = TwoPriorityDes::with_rho(rho, Exponential::with_mean(0.2));
            let mut rng = seeded_rng(3);
            let f = 5.0;
            let (mean, se) = q.mean_finishing_time(f, 40_000, &mut rng);
            let expect = f / (1.0 - rho);
            assert!(
                (mean - expect).abs() < 4.0 * se + 0.02 * expect,
                "rho={rho}: mean={mean} expect={expect} se={se}"
            );
        }
    }

    #[test]
    fn mean_matches_eq6_heavy_tailed_service() {
        // eq. 6 holds for any service distribution with finite mean —
        // including Pareto bursts (finite mean needs alpha > 1)
        let service = Pareto::new(2.2, 0.1); // mean ≈ 0.1833
        let q = TwoPriorityDes::with_rho(0.2, service);
        let mut rng = seeded_rng(4);
        let f = 3.0;
        let (mean, _) = q.mean_finishing_time(f, 60_000, &mut rng);
        let expect = f / 0.8;
        assert!((mean - expect).abs() / expect < 0.05, "mean={mean}");
    }

    #[test]
    fn with_rho_sets_utilisation() {
        let q = TwoPriorityDes::with_rho(0.35, Exponential::with_mean(0.7));
        assert!((q.rho() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn heavier_load_means_longer_sojourns() {
        let mut rng = seeded_rng(7);
        let lo = TwoPriorityDes::with_rho(0.1, Exponential::with_mean(0.3))
            .mean_finishing_time(4.0, 20_000, &mut rng)
            .0;
        let hi = TwoPriorityDes::with_rho(0.45, Exponential::with_mean(0.3))
            .mean_finishing_time(4.0, 20_000, &mut rng)
            .0;
        assert!(hi > lo * 1.3, "lo={lo} hi={hi}");
    }

    #[test]
    #[should_panic(expected = "must be < 1")]
    fn unstable_load_rejected() {
        TwoPriorityDes::new(3.0, Exponential::with_mean(0.5));
    }

    #[test]
    fn zero_demand_finishes_instantly() {
        let q = TwoPriorityDes::with_rho(0.4, Exponential::with_mean(0.5));
        let mut rng = seeded_rng(8);
        assert_eq!(q.finishing_time(0.0, &mut rng), 0.0);
    }
}
