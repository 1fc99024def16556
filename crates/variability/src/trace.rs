//! Cluster trace generation reproducing the Fig. 3 phenomenology.
//!
//! The paper's Fig. 3 shows per-iteration running times of GS2 on 4 of
//! 64 processors: a flat base around a couple of seconds, occasional
//! *big* spikes (an order of magnitude above base) that appear on all
//! plotted processors at the same iterations (high cross-processor
//! correlation — consistent with a shared source such as network or
//! cluster-wide housekeeping), and more frequent *small* spikes.
//! Truncating the big spikes still leaves heavy-tail evidence from the
//! small ones (Fig. 6/7).
//!
//! [`ClusterTraceModel`] composes exactly those ingredients: a shared
//! big-burst source, per-processor small bursts (with an optional shared
//! fraction), and light Gaussian jitter.

use crate::dist::{BoundedPareto, Distribution, Gaussian, Pareto};
use crate::{seeded_rng, stream_seed};
use rand::Rng;

/// Configuration of the synthetic cluster trace.
#[derive(Debug, Clone)]
pub struct ClusterTraceModel {
    /// Number of processors `P`.
    pub procs: usize,
    /// Number of iterations (time steps) per processor.
    pub iters: usize,
    /// Base per-iteration time with no disturbance (GS2-like ≈ 2.2 s).
    pub base_time: f64,
    /// Per-iteration probability of a *shared* big burst hitting every
    /// processor in that iteration.
    pub big_prob: f64,
    /// Magnitude distribution of big bursts (heavy tailed).
    pub big_burst: Pareto,
    /// Per-processor, per-iteration probability of a local small burst.
    pub small_prob: f64,
    /// Fraction of small bursts that are cluster-wide rather than local.
    pub small_shared_frac: f64,
    /// Magnitude distribution of small bursts.
    pub small_burst: BoundedPareto,
    /// Standard deviation of the benign Gaussian jitter on the base.
    pub jitter_sd: f64,
    /// Temporal clustering of the shared big bursts: when set to
    /// `(quiet_len, burst_len)` (mean epoch lengths in iterations), big
    /// bursts only fire during bursty epochs, with their in-epoch
    /// probability scaled so the *long-run* big-burst rate still equals
    /// [`ClusterTraceModel::big_prob`]. Measured traces show exactly this
    /// epoch structure (interference comes in episodes, not i.i.d.).
    pub burst_epochs: Option<(f64, f64)>,
}

impl ClusterTraceModel {
    /// Parameters calibrated to the look of Fig. 3: base ≈ 2.2 s, big
    /// spikes reaching the tens of seconds every ~2% of iterations,
    /// small spikes up to ~2.8 s above base every ~8%.
    pub fn gs2_like(procs: usize, iters: usize) -> Self {
        ClusterTraceModel {
            procs,
            iters,
            base_time: 2.2,
            big_prob: 0.02,
            big_burst: Pareto::new(1.1, 4.0),
            small_prob: 0.08,
            small_shared_frac: 0.5,
            small_burst: BoundedPareto::new(1.3, 0.3, 2.8),
            jitter_sd: 0.03,
            burst_epochs: None,
        }
    }

    /// Generates the `[proc][iter]` trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> ClusterTrace {
        assert!(self.procs > 0 && self.iters > 0, "empty trace requested");
        let mut shared_rng = seeded_rng(stream_seed(seed, 0));
        // Shared events decided once per iteration. With burst epochs,
        // the big-burst probability is concentrated into bursty episodes
        // (geometric epoch lengths) at an unchanged long-run rate.
        let mut shared_add = vec![0.0f64; self.iters];
        let mut in_burst = false;
        let mut epoch_left = 0.0f64;
        for add in shared_add.iter_mut() {
            let big_prob = match self.burst_epochs {
                None => self.big_prob,
                Some((quiet_len, burst_len)) => {
                    if epoch_left <= 0.0 {
                        in_burst = !in_burst;
                        let mean = if in_burst { burst_len } else { quiet_len };
                        let u: f64 = shared_rng.random::<f64>().max(f64::MIN_POSITIVE);
                        epoch_left = (-u.ln() * mean).max(1.0);
                    }
                    epoch_left -= 1.0;
                    if in_burst {
                        (self.big_prob * (quiet_len + burst_len) / burst_len).min(1.0)
                    } else {
                        0.0
                    }
                }
            };
            if shared_rng.random::<f64>() < big_prob {
                *add += self.big_burst.sample(&mut shared_rng);
            }
            if shared_rng.random::<f64>() < self.small_prob * self.small_shared_frac {
                *add += self.small_burst.sample(&mut shared_rng);
            }
        }
        let jitter = Gaussian::new(0.0, self.jitter_sd.max(f64::MIN_POSITIVE));
        let times = (0..self.procs)
            .map(|p| {
                let mut rng = seeded_rng(stream_seed(seed, 1 + p as u64));
                (0..self.iters)
                    .map(|k| {
                        let mut t = self.base_time + shared_add[k];
                        let local_small = self.small_prob * (1.0 - self.small_shared_frac);
                        if rng.random::<f64>() < local_small {
                            t += self.small_burst.sample(&mut rng);
                        }
                        if self.jitter_sd > 0.0 {
                            t += jitter.sample(&mut rng);
                        }
                        t.max(0.5 * self.base_time)
                    })
                    .collect()
            })
            .collect();
        ClusterTrace { times }
    }
}

/// A generated `[proc][iter]` running-time trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTrace {
    /// `times[p][k]` = running time of iteration `k` on processor `p`.
    pub times: Vec<Vec<f64>>,
}

impl ClusterTrace {
    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.times.len()
    }

    /// Number of iterations.
    pub fn iters(&self) -> usize {
        self.times.first().map_or(0, Vec::len)
    }

    /// One processor's series.
    pub fn proc(&self, p: usize) -> &[f64] {
        &self.times[p]
    }

    /// All samples from all processors, concatenated — the "pdf of all 64
    /// processors performance data" input of Fig. 4.
    pub fn flatten(&self) -> Vec<f64> {
        self.times.iter().flatten().copied().collect()
    }

    /// Pearson correlation between two processors' series — Fig. 3 notes
    /// "high correlation and similarity between the curves".
    pub fn pearson(&self, p: usize, q: usize) -> f64 {
        let (a, b) = (&self.times[p], &self.times[q]);
        assert_eq!(a.len(), b.len());
        let n = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            cov += (x - ma) * (y - mb);
            va += (x - ma) * (x - ma);
            vb += (y - mb) * (y - mb);
        }
        if va == 0.0 || vb == 0.0 {
            0.0
        } else {
            cov / (va.sqrt() * vb.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ClusterTrace {
        ClusterTraceModel::gs2_like(8, 800).generate(42)
    }

    #[test]
    fn shape_matches_config() {
        let t = trace();
        assert_eq!(t.procs(), 8);
        assert_eq!(t.iters(), 800);
        assert_eq!(t.flatten().len(), 8 * 800);
    }

    #[test]
    fn deterministic_in_seed() {
        let m = ClusterTraceModel::gs2_like(4, 100);
        assert_eq!(m.generate(7), m.generate(7));
        assert_ne!(m.generate(7), m.generate(8));
    }

    #[test]
    fn base_dominates_most_iterations() {
        let t = trace();
        let flat = t.flatten();
        let near_base =
            flat.iter().filter(|&&x| (x - 2.2).abs() < 0.3).count() as f64 / flat.len() as f64;
        assert!(near_base > 0.8, "near_base={near_base}");
    }

    #[test]
    fn big_spikes_exist_and_are_large() {
        let t = trace();
        let max = t.flatten().into_iter().fold(0.0, f64::max);
        assert!(max > 8.0, "max={max}"); // order of magnitude over base
    }

    #[test]
    fn cross_processor_correlation_is_high() {
        // shared bursts make distinct processors strongly correlated
        let t = trace();
        let r = t.pearson(0, 1);
        assert!(r > 0.5, "pearson={r}");
    }

    #[test]
    fn no_shared_sources_kills_correlation() {
        let mut m = ClusterTraceModel::gs2_like(4, 2_000);
        m.big_prob = 0.0;
        m.small_shared_frac = 0.0;
        let t = m.generate(9);
        let r = t.pearson(0, 1).abs();
        assert!(r < 0.1, "pearson={r}");
    }

    #[test]
    fn times_are_positive() {
        for x in trace().flatten() {
            assert!(x > 0.0);
        }
    }

    #[test]
    fn clustered_bursts_preserve_long_run_rate() {
        let plain = ClusterTraceModel::gs2_like(1, 60_000);
        let clustered = ClusterTraceModel {
            burst_epochs: Some((40.0, 10.0)),
            ..ClusterTraceModel::gs2_like(1, 60_000)
        };
        let count_spikes = |t: &ClusterTrace| {
            t.proc(0).iter().filter(|&&x| x > 5.0).count() as f64 / t.iters() as f64
        };
        let r_plain = count_spikes(&plain.generate(5));
        let r_clustered = count_spikes(&clustered.generate(5));
        assert!(
            (r_plain - r_clustered).abs() < 0.35 * r_plain.max(1e-9),
            "plain={r_plain} clustered={r_clustered}"
        );
    }

    #[test]
    fn clustered_bursts_are_temporally_correlated() {
        // the big-spike indicator series autocorrelates under epochs and
        // not without them
        let autocorr = |t: &ClusterTrace| {
            let ind: Vec<f64> = t
                .proc(0)
                .iter()
                .map(|&x| f64::from(u8::from(x > 5.0)))
                .collect();
            let n = ind.len() as f64;
            let mean = ind.iter().sum::<f64>() / n;
            let var: f64 = ind.iter().map(|x| (x - mean) * (x - mean)).sum();
            let cov: f64 = ind.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
            cov / var
        };
        let plain = ClusterTraceModel::gs2_like(1, 40_000).generate(9);
        let clustered = ClusterTraceModel {
            burst_epochs: Some((90.0, 10.0)),
            ..ClusterTraceModel::gs2_like(1, 40_000)
        }
        .generate(9);
        let a_plain = autocorr(&plain);
        let a_clustered = autocorr(&clustered);
        assert!(a_plain.abs() < 0.05, "plain autocorr {a_plain}");
        assert!(a_clustered > 0.08, "clustered autocorr {a_clustered}");
    }

    #[test]
    fn small_spikes_survive_truncation() {
        // mimic the Fig. 6/7 truncation: drop samples > 5, small-spike
        // mass must remain above base
        let t = trace();
        let kept: Vec<f64> = t.flatten().into_iter().filter(|&x| x <= 5.0).collect();
        let spiky = kept.iter().filter(|&&x| x > 2.6).count();
        assert!(spiky > 0, "no small spikes below the truncation level");
    }
}
