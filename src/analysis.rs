//! High-level trace analysis: the complete §4 measurement study as one
//! call.
//!
//! Combines the cluster-trace substrate (`harmony-variability`) with the
//! tail diagnostics (`harmony-stats`) into a single [`TraceReport`] —
//! everything the paper's Figures 3–7 read off a measured trace: base
//! behaviour, spike structure, cross-processor correlation, heavy-tail
//! verdicts before and after truncation, and temporal burstiness.

use crate::stats::resample::autocorrelation;
use crate::stats::tail::{classify_tail, hill_estimate, truncate, TailVerdict};
use crate::stats::{Histogram, Summary};
use crate::variability::trace::ClusterTrace;
use std::fmt;

/// The distilled §4 measurement study of one cluster trace.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Total samples analysed (procs × iterations).
    pub n: usize,
    /// Sample mean (seconds).
    pub mean: f64,
    /// Sample median — with heavy tails, far below the mean.
    pub median: f64,
    /// Largest observed iteration time.
    pub max: f64,
    /// Mass in the top 3 of 20 histogram bins (the Fig. 4 eyeball test).
    pub top_bin_mass: f64,
    /// Hill tail-index estimate at `k = n/50`.
    pub hill_alpha: f64,
    /// Log-log survival-slope verdict on the asymptotic tail (top 5 %).
    pub tail: TailVerdict,
    /// The same verdict after truncating at `cutoff` (Fig. 6/7).
    pub truncated_tail: TailVerdict,
    /// Truncation cutoff used.
    pub cutoff: f64,
    /// Fraction of samples surviving truncation.
    pub kept_fraction: f64,
    /// Mean pairwise Pearson correlation across the first four
    /// processors (Fig. 3's "high correlation" observation).
    pub mean_correlation: f64,
    /// Lag-1 autocorrelation of processor 0's series (burstiness).
    pub lag1_autocorrelation: f64,
}

impl TraceReport {
    /// Runs the full analysis with the paper's 5-second truncation.
    pub fn analyze(trace: &ClusterTrace) -> Self {
        TraceReport::analyze_with_cutoff(trace, 5.0)
    }

    /// Runs the full analysis with an explicit truncation cutoff.
    ///
    /// # Panics
    /// Panics on an empty trace or a cutoff below every sample.
    pub fn analyze_with_cutoff(trace: &ClusterTrace, cutoff: f64) -> Self {
        let samples = trace.flatten();
        assert!(!samples.is_empty(), "analysis of an empty trace");
        let summary = Summary::of(&samples);
        let hist = Histogram::from_samples(&samples, 20);
        let kept = truncate(&samples, cutoff);
        assert!(
            kept.len() >= 100,
            "cutoff {cutoff} keeps too few samples for tail analysis"
        );
        let procs = trace.procs().min(4);
        let mut corr_sum = 0.0;
        let mut corr_n = 0usize;
        for a in 0..procs {
            for b in (a + 1)..procs {
                corr_sum += trace.pearson(a, b);
                corr_n += 1;
            }
        }
        TraceReport {
            n: samples.len(),
            mean: summary.mean(),
            median: summary.median(),
            max: summary.max(),
            top_bin_mass: hist.tail_mass(3),
            hill_alpha: hill_estimate(&samples, (samples.len() / 50).max(10)),
            tail: classify_tail(&samples, 0.05),
            truncated_tail: classify_tail(&kept, 0.05),
            cutoff,
            kept_fraction: kept.len() as f64 / samples.len() as f64,
            mean_correlation: if corr_n > 0 {
                corr_sum / corr_n as f64
            } else {
                0.0
            },
            lag1_autocorrelation: autocorrelation(trace.proc(0), 1),
        }
    }

    /// The paper's bottom line: is the variability heavy tailed?
    pub fn is_heavy_tailed(&self) -> bool {
        self.tail.heavy || (self.hill_alpha > 0.0 && self.hill_alpha < 2.0)
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace analysis ({} samples)", self.n)?;
        writeln!(
            f,
            "  mean {:.2}s  median {:.2}s  max {:.2}s",
            self.mean, self.median, self.max
        )?;
        writeln!(f, "  top-3-bin mass: {:.4}", self.top_bin_mass)?;
        writeln!(
            f,
            "  tail: hill alpha {:.2}; log-log slope alpha {:.2} (r2 {:.3}) -> heavy: {}",
            self.hill_alpha,
            self.tail.alpha,
            self.tail.r2,
            self.is_heavy_tailed()
        )?;
        writeln!(
            f,
            "  truncated at {:.1}s (kept {:.1}%): slope alpha {:.2} (r2 {:.3})",
            self.cutoff,
            100.0 * self.kept_fraction,
            self.truncated_tail.alpha,
            self.truncated_tail.r2
        )?;
        write!(
            f,
            "  cross-proc correlation {:.2}; lag-1 autocorrelation {:.2}",
            self.mean_correlation, self.lag1_autocorrelation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variability::trace::ClusterTraceModel;

    fn report() -> TraceReport {
        let trace = ClusterTraceModel::gs2_like(16, 800).generate(2005);
        TraceReport::analyze(&trace)
    }

    #[test]
    fn detects_the_papers_signatures() {
        let r = report();
        assert_eq!(r.n, 16 * 800);
        assert!(r.mean > r.median, "heavy tails pull the mean up");
        assert!(r.max > 6.0);
        assert!(r.top_bin_mass > 0.0);
        assert!(r.is_heavy_tailed(), "{r}");
        assert!(r.mean_correlation > 0.5);
        assert!(r.kept_fraction > 0.9);
    }

    #[test]
    fn display_is_complete() {
        let text = report().to_string();
        for needle in ["trace analysis", "tail:", "truncated at", "correlation"] {
            assert!(text.contains(needle), "missing `{needle}` in\n{text}");
        }
    }

    #[test]
    fn quiet_trace_is_not_heavy() {
        let mut model = ClusterTraceModel::gs2_like(8, 800);
        model.big_prob = 0.0;
        model.small_prob = 0.0;
        model.jitter_sd = 0.05;
        let r = TraceReport::analyze(&model.generate(3));
        assert!(!r.is_heavy_tailed(), "{r}");
        assert!(r.max < 3.0);
    }

    #[test]
    #[should_panic(expected = "keeps too few samples")]
    fn absurd_cutoff_rejected() {
        let trace = ClusterTraceModel::gs2_like(4, 100).generate(1);
        TraceReport::analyze_with_cutoff(&trace, 0.01);
    }
}
