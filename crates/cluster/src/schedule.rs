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

/// The evaluation plan of one phase, as arithmetic: every
/// `(point, sample)` slot has a position in the mode's *slot order*
/// (sample-major for [`SamplingMode::SequentialSteps`], point-major for
/// [`SamplingMode::Packed`]), and each barrier-synchronised time step is
/// a run of consecutive positions. The simulated cluster walks a batch
/// through this view, so planning a batch allocates nothing.
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

    /// The layout's steps as lists of slots.
    fn plan(n: usize, k: usize, procs: usize, mode: SamplingMode) -> Vec<Vec<EvalSlot>> {
        let layout = Layout::new(n, k, procs, mode);
        layout
            .steps()
            .map(|step| step.map(|i| layout.slot(i)).collect())
            .collect()
    }

    #[test]
    fn sequential_is_k_steps_when_points_fit() {
        let steps = plan(6, 4, 64, SamplingMode::SequentialSteps);
        assert_eq!(steps.len(), 4);
        // each step holds one full sample round
        for (t, step) in steps.iter().enumerate() {
            assert_eq!(step.len(), 6);
            for slot in step {
                assert_eq!(slot.sample, t);
            }
        }
    }

    #[test]
    fn packed_single_step_when_capacity_allows() {
        // the paper's example: 6 points, K = 10, 64 processors -> free
        let steps = plan(6, 10, 64, SamplingMode::Packed);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].len(), 60);
    }

    #[test]
    fn packed_chunks_by_processor_count() {
        let steps = plan(6, 10, 16, SamplingMode::Packed);
        assert_eq!(steps.len(), 4); // ceil(60/16)
        assert!(steps.iter().all(|st| st.len() <= 16));
        assert_eq!(steps.iter().map(Vec::len).sum::<usize>(), 60);
    }

    #[test]
    fn sequential_splits_oversized_point_sets() {
        let steps = plan(10, 2, 4, SamplingMode::SequentialSteps);
        // per sample round: ceil(10/4) = 3 steps; 2 rounds -> 6 steps
        assert_eq!(steps.len(), 6);
        assert_eq!(steps.iter().map(Vec::len).sum::<usize>(), 20);
    }

    #[test]
    fn every_pair_appears_exactly_once() {
        for mode in [SamplingMode::SequentialSteps, SamplingMode::Packed] {
            let mut seen = std::collections::HashSet::new();
            for step in plan(5, 3, 4, mode) {
                for slot in step {
                    assert!(seen.insert((slot.point, slot.sample)), "{mode:?} duplicate");
                }
            }
            assert_eq!(seen.len(), 15);
        }
    }

    #[test]
    fn single_sample_modes_agree_on_step_count() {
        let a = Layout::new(7, 1, 3, SamplingMode::SequentialSteps);
        let b = Layout::new(7, 1, 3, SamplingMode::Packed);
        assert_eq!(a.steps().count(), b.steps().count());
        assert_eq!(a.steps().count(), 3); // ceil(7/3)
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        Layout::new(1, 1, 0, SamplingMode::Packed);
    }
}
