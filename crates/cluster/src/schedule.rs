//! Mapping candidate evaluations onto processors (§5.2).
//!
//! One algorithm phase needs `n` candidate points evaluated `K` times
//! each on `P` processors. Two policies are modelled:
//!
//! * [`SamplingMode::SequentialSteps`] — the paper's §6.2 worst case:
//!   "multiple samples for a single point are taken in subsequent time
//!   steps", i.e. sample `s` of every point runs in time step `s`. This
//!   is what makes `NTT(ρ=0)` grow linearly with `K` in Fig. 10.
//! * [`SamplingMode::Packed`] — §5.2's free-parallelism observation:
//!   with `P ≥ n·K` processors all samples fit into a single step ("If
//!   there are 64 parallel processors running GS2 concurrently, we can
//!   set K = 10 with no additional cost").

use std::ops::Range;

/// One evaluation slot: which candidate point and which of its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalSlot {
    /// Candidate point index in the phase's batch.
    pub point: usize,
    /// Sample index `0..K` for that point.
    pub sample: usize,
}

/// How multi-sample evaluations are laid out over time steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Sample `s` of every point runs in its own time step (paper §6.2
    /// worst case). Cost: `K · ⌈n/P⌉` steps.
    SequentialSteps,
    /// All `(point, sample)` pairs are packed densely onto processors.
    /// Cost: `⌈n·K/P⌉` steps.
    Packed,
}

/// A concrete layout: `steps[t]` lists the evaluations running in
/// barrier-synchronised time step `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-step evaluation slots; every inner list has length ≤ `P`.
    pub steps: Vec<Vec<EvalSlot>>,
}

impl Schedule {
    /// Plans the evaluation of `n_points × k_samples` on `procs`
    /// processors under `mode`.
    ///
    /// # Panics
    /// Panics when any argument is zero.
    pub fn plan(n_points: usize, k_samples: usize, procs: usize, mode: SamplingMode) -> Self {
        let layout = Layout::new(n_points, k_samples, procs, mode);
        let steps = layout
            .steps()
            .map(|step| step.map(|i| layout.slot(i)).collect())
            .collect();
        Schedule { steps }
    }

    /// Number of time steps the phase will consume.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total number of evaluation slots.
    pub fn n_evals(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }
}

/// The plan of [`Schedule::plan`] as arithmetic: every `(point, sample)`
/// slot has a position in the mode's *slot order* (sample-major for
/// [`SamplingMode::SequentialSteps`], point-major for
/// [`SamplingMode::Packed`]), and each time step is a run of consecutive
/// positions. The simulated cluster walks a batch through this view, so
/// planning a batch allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    n_points: usize,
    k_samples: usize,
    procs: usize,
    mode: SamplingMode,
}

impl Layout {
    /// The layout of `n_points × k_samples` on `procs` processors under
    /// `mode`.
    ///
    /// # Panics
    /// Panics when any argument is zero.
    pub fn new(n_points: usize, k_samples: usize, procs: usize, mode: SamplingMode) -> Self {
        assert!(n_points > 0, "need at least one point");
        assert!(k_samples > 0, "need at least one sample");
        assert!(procs > 0, "need at least one processor");
        Layout {
            n_points,
            k_samples,
            procs,
            mode,
        }
    }

    /// The slot at `pos` in the slot order.
    pub fn slot(&self, pos: usize) -> EvalSlot {
        match self.mode {
            SamplingMode::SequentialSteps => EvalSlot {
                point: pos % self.n_points,
                sample: pos / self.n_points,
            },
            SamplingMode::Packed => EvalSlot {
                point: pos / self.k_samples,
                sample: pos % self.k_samples,
            },
        }
    }

    /// The time steps, in order, as position ranges of at most `procs`
    /// slots. Sequential sampling never mixes samples of one point within
    /// a step: each sample round is split on its own.
    pub fn steps(&self) -> impl Iterator<Item = Range<usize>> {
        let (segment, segments) = match self.mode {
            SamplingMode::SequentialSteps => (self.n_points, self.k_samples),
            SamplingMode::Packed => (self.n_points * self.k_samples, 1),
        };
        let procs = self.procs;
        (0..segments).flat_map(move |s| {
            let base = s * segment;
            (0..segment)
                .step_by(procs)
                .map(move |c| base + c..base + (c + procs).min(segment))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_k_steps_when_points_fit() {
        let s = Schedule::plan(6, 4, 64, SamplingMode::SequentialSteps);
        assert_eq!(s.n_steps(), 4);
        assert_eq!(s.n_evals(), 24);
        // each step holds one full sample round
        for (t, step) in s.steps.iter().enumerate() {
            assert_eq!(step.len(), 6);
            for slot in step {
                assert_eq!(slot.sample, t);
            }
        }
    }

    #[test]
    fn packed_single_step_when_capacity_allows() {
        // the paper's example: 6 points, K = 10, 64 processors -> free
        let s = Schedule::plan(6, 10, 64, SamplingMode::Packed);
        assert_eq!(s.n_steps(), 1);
        assert_eq!(s.n_evals(), 60);
    }

    #[test]
    fn packed_chunks_by_processor_count() {
        let s = Schedule::plan(6, 10, 16, SamplingMode::Packed);
        assert_eq!(s.n_steps(), 4); // ceil(60/16)
        assert!(s.steps.iter().all(|st| st.len() <= 16));
        assert_eq!(s.n_evals(), 60);
    }

    #[test]
    fn sequential_splits_oversized_point_sets() {
        let s = Schedule::plan(10, 2, 4, SamplingMode::SequentialSteps);
        // per sample round: ceil(10/4) = 3 steps; 2 rounds -> 6 steps
        assert_eq!(s.n_steps(), 6);
        assert_eq!(s.n_evals(), 20);
    }

    #[test]
    fn every_pair_appears_exactly_once() {
        for mode in [SamplingMode::SequentialSteps, SamplingMode::Packed] {
            let s = Schedule::plan(5, 3, 4, mode);
            let mut seen = std::collections::HashSet::new();
            for step in &s.steps {
                for slot in step {
                    assert!(seen.insert((slot.point, slot.sample)), "{mode:?} duplicate");
                }
            }
            assert_eq!(seen.len(), 15);
        }
    }

    #[test]
    fn single_sample_modes_agree_on_step_count() {
        let a = Schedule::plan(7, 1, 3, SamplingMode::SequentialSteps);
        let b = Schedule::plan(7, 1, 3, SamplingMode::Packed);
        assert_eq!(a.n_steps(), b.n_steps());
        assert_eq!(a.n_steps(), 3); // ceil(7/3)
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        Schedule::plan(1, 1, 0, SamplingMode::Packed);
    }
}
