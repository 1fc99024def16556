//! On-line tuning performance metrics (§2, eq. 1–2, eq. 23).

use harmony_telemetry::Telemetry;

/// A step time rejected by [`TuningTrace::push`]: non-finite or
/// negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceError {
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid step time {}", self.value)
    }
}

impl std::error::Error for TraceError {}

/// The running record of a tuning session: one entry per barrier-
/// synchronised time step holding the cluster-wide worst-case time
/// `T_k = max_p t_{p,k}`.
///
/// `Total_Time(K) = Σ_{k≤K} T_k` is the paper's primary metric; the
/// *integral* nature of the metric is what makes transient behaviour
/// matter (Fig. 1): an algorithm that converges to a slightly worse
/// point but explores cheaply can beat one with a better asymptote.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TuningTrace {
    steps: Vec<f64>,
}

impl TuningTrace {
    /// An empty trace.
    pub fn new() -> Self {
        TuningTrace::default()
    }

    /// An empty trace with room for `steps` time steps, so a session that
    /// knows its budget grows the record once.
    pub fn with_capacity(steps: usize) -> Self {
        TuningTrace {
            steps: Vec::with_capacity(steps),
        }
    }

    /// Records one time step's worst-case iteration time `T_k`,
    /// rejecting non-finite or negative values.
    pub fn push(&mut self, t_k: f64) -> Result<(), TraceError> {
        if t_k.is_finite() && t_k >= 0.0 {
            self.steps.push(t_k);
            Ok(())
        } else {
            Err(TraceError { value: t_k })
        }
    }

    /// Number of recorded time steps `K`.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Per-step worst-case times `T_k` (the Fig. 1-a series).
    pub fn step_times(&self) -> &[f64] {
        &self.steps
    }

    /// `Total_Time(K)` (eq. 2).
    pub fn total_time(&self) -> f64 {
        self.steps.iter().sum()
    }

    /// `Total_Time(k)` truncated to the first `k` steps.
    ///
    /// # Panics
    /// Panics when `k` exceeds the recorded length.
    pub fn total_time_at(&self, k: usize) -> f64 {
        assert!(k <= self.len(), "k={k} exceeds trace length {}", self.len());
        self.steps[..k].iter().sum()
    }

    /// The cumulative series `(k, Total_Time(k))` for `k = 1..=K`
    /// (the Fig. 1-b series).
    pub fn cumulative(&self) -> Vec<f64> {
        self.steps
            .iter()
            .scan(0.0, |acc, t| {
                *acc += t;
                Some(*acc)
            })
            .collect()
    }

    /// Normalised total time `NTT = (1−ρ)·Total_Time` (eq. 23), which
    /// makes runs under different idle throughputs comparable.
    pub fn ntt(&self, rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
        (1.0 - rho) * self.total_time()
    }

    /// The best (smallest) single-step time seen so far.
    pub fn best_step(&self) -> Option<f64> {
        self.steps.iter().copied().reduce(f64::min)
    }

    /// Exports the trace through the telemetry metrics path shared by
    /// the T1–T5 experiment tables and live server runs: a
    /// `trace.steps` counter, `trace.total_time` / `trace.best_step`
    /// gauges, a `trace.step_time` histogram, and — when `rho` is given
    /// — the eq. 23 `trace.ntt` gauge.
    ///
    /// # Panics
    /// Panics when `rho` is given and outside `[0, 1)` (as
    /// [`TuningTrace::ntt`] does).
    pub fn emit_telemetry(&self, tel: &Telemetry, rho: Option<f64>) {
        if !tel.enabled() {
            return;
        }
        tel.counter("trace.steps", self.len() as u64);
        tel.gauge("trace.total_time", self.total_time());
        if let Some(best) = self.best_step() {
            tel.gauge("trace.best_step", best);
        }
        if let Some(rho) = rho {
            tel.gauge("trace.ntt", self.ntt(rho));
        }
        let mut hist = harmony_telemetry::QuantileSketch::new();
        for &t in &self.steps {
            hist.push(t);
        }
        hist.emit_to(tel, "trace.step_time");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_is_sum() {
        let mut tr = TuningTrace::new();
        for t in [2.0, 3.0, 1.5] {
            tr.push(t).unwrap();
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.total_time(), 6.5);
        assert_eq!(tr.total_time_at(2), 5.0);
        assert_eq!(tr.total_time_at(0), 0.0);
    }

    #[test]
    fn cumulative_series() {
        let mut tr = TuningTrace::new();
        for t in [1.0, 2.0, 3.0] {
            tr.push(t).unwrap();
        }
        assert_eq!(tr.cumulative(), vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn ntt_normalises() {
        let mut tr = TuningTrace::new();
        tr.push(10.0).unwrap();
        assert_eq!(tr.ntt(0.0), 10.0);
        assert!((tr.ntt(0.2) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn best_step_and_empty() {
        let mut tr = TuningTrace::new();
        assert!(tr.best_step().is_none());
        assert!(tr.is_empty());
        tr.push(5.0).unwrap();
        tr.push(2.0).unwrap();
        assert_eq!(tr.best_step(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "invalid step time")]
    fn rejects_negative() {
        if let Err(e) = TuningTrace::new().push(-1.0) {
            panic!("{e}");
        }
    }

    #[test]
    fn try_push_rejects_without_panicking() {
        let mut tr = TuningTrace::new();
        assert!(tr.push(1.0).is_ok());
        let err = tr.push(f64::NAN).unwrap_err();
        assert!(err.value.is_nan());
        assert_eq!(
            tr.push(-2.0),
            Err(TraceError { value: -2.0 }),
            "negative times are refused"
        );
        assert_eq!(
            tr.push(f64::INFINITY).unwrap_err().to_string().as_str(),
            "invalid step time inf"
        );
        assert_eq!(tr.len(), 1, "rejected values are not recorded");
    }

    #[test]
    fn emit_telemetry_exports_metrics() {
        let (tel, sink) = Telemetry::memory();
        let mut tr = TuningTrace::new();
        for t in [2.0, 3.0, 1.0] {
            tr.push(t).unwrap();
        }
        tr.emit_telemetry(&tel, Some(0.2));
        let records = sink.take();
        let summary = harmony_telemetry::Summary::from_records(&records);
        assert_eq!(summary.counter_total("trace.steps"), Some(3));
        assert_eq!(summary.gauge_last("trace.total_time"), Some(6.0));
        assert_eq!(summary.gauge_last("trace.best_step"), Some(1.0));
        assert!((summary.gauge_last("trace.ntt").unwrap() - 4.8).abs() < 1e-12);
        assert_eq!(summary.gauge_last("trace.step_time.count"), Some(3.0));

        // disabled handle emits nothing
        tr.emit_telemetry(&Telemetry::disabled(), None);
        assert!(sink.is_empty());
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn rejects_bad_rho() {
        let mut tr = TuningTrace::new();
        tr.push(1.0).unwrap();
        tr.ntt(1.0);
    }
}
