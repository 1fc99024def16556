//! Barrier-synchronised SPMD execution of candidate evaluations.

use crate::metrics::TuningTrace;
use crate::schedule::{Layout, SamplingMode};
use harmony_variability::noise::NoiseModel;
use rand::RngCore;

/// A simulated homogeneous SPMD cluster of `P` processors that
/// synchronize after every iteration (eq. 1's `max` is taken over
/// whatever ran in that time step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    /// Number of processors `P`.
    pub procs: usize,
}

/// The result of one barrier-synchronised time step.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct StepOutcome {
    /// Observed (noisy) time of each evaluation scheduled in the step,
    /// in schedule order.
    pub observed: Vec<f64>,
    /// The cluster-wide iteration time `T_k = max` of the observations.
    pub t_k: f64,
}

impl Cluster {
    /// Creates a cluster.
    ///
    /// # Panics
    /// Panics when `procs == 0`.
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0, "cluster needs at least one processor");
        Cluster { procs }
    }

    /// Executes one time step in which the evaluations with true costs
    /// `costs` run concurrently (one per processor). Each evaluation
    /// draws its own noise; the step's `T_k` is the worst observation.
    ///
    /// # Panics
    /// Panics when `costs` is empty or exceeds the processor count.
    pub fn execute_step<M: NoiseModel + ?Sized>(
        &self,
        costs: &[f64],
        noise: &M,
        rng: &mut dyn RngCore,
    ) -> StepOutcome {
        assert!(!costs.is_empty(), "a time step must run something");
        assert!(
            costs.len() <= self.procs,
            "{} evaluations exceed {} processors",
            costs.len(),
            self.procs
        );
        let observed: Vec<f64> = costs.iter().map(|&c| noise.observe(c, rng)).collect();
        let t_k = observed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        StepOutcome { observed, t_k }
    }

    /// Evaluates `K` samples of each candidate (true costs
    /// `point_costs`), laid out by [`Schedule::plan`](crate::Schedule::plan)
    /// under `mode`.
    /// Every consumed time step appends its `T_k` to `trace`; the
    /// returned vector holds the `K` observations of each point.
    pub fn run_batch<M: NoiseModel + ?Sized>(
        &self,
        point_costs: &[f64],
        k_samples: usize,
        mode: SamplingMode,
        noise: &M,
        rng: &mut dyn RngCore,
        trace: &mut TuningTrace,
    ) -> Vec<Vec<f64>> {
        let mut samples = Vec::new();
        self.run_batch_occupied(
            point_costs,
            k_samples,
            mode,
            noise,
            rng,
            trace,
            false,
            &mut samples,
        );
        samples.chunks(k_samples).map(<[f64]>::to_vec).collect()
    }

    /// [`Cluster::run_batch`] with optional *full occupancy*, writing the
    /// observations point-major into `samples` (the `K` samples of point
    /// `i` end up at `samples[i·K..(i+1)·K]`, in sample order; the buffer
    /// is cleared first, so callers reuse one across batches).
    ///
    /// In an SPMD application every processor runs in every time step
    /// (eq. 1's max ranges over all `P` processors), so under full
    /// occupancy a step that schedules fewer evaluations than processors
    /// has the idle processors rerun the scheduled candidates
    /// round-robin. Their draws contribute to the barrier time `T_k` but
    /// are *not* fed to the estimator — the paper's §6.2 worst case
    /// explicitly forgoes parallel samples.
    ///
    /// The batch walks the schedule's [`Layout`] and draws straight into
    /// `samples`, so it allocates nothing once the buffer has grown. Draw
    /// order and the left-to-right max are those of per-step
    /// [`Cluster::execute_step`] calls, so results are bit-identical to
    /// them.
    ///
    /// # Panics
    /// Panics when `point_costs` is empty or `k_samples` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn run_batch_occupied<M: NoiseModel + ?Sized>(
        &self,
        point_costs: &[f64],
        k_samples: usize,
        mode: SamplingMode,
        noise: &M,
        rng: &mut dyn RngCore,
        trace: &mut TuningTrace,
        full_occupancy: bool,
        samples: &mut Vec<f64>,
    ) {
        let layout = Layout::new(point_costs.len(), k_samples, self.procs, mode);
        samples.clear();
        samples.resize(point_costs.len() * k_samples, 0.0);
        for step in layout.steps() {
            let active = step.len();
            let width = if full_occupancy { self.procs } else { active };
            let mut t_k = f64::NEG_INFINITY;
            for j in 0..width {
                let slot = layout.slot(step.start + j % active);
                let obs = noise.observe(point_costs[slot.point], rng);
                if j < active {
                    samples[slot.point * k_samples + slot.sample] = obs;
                }
                t_k = t_k.max(obs);
            }
            trace.push(t_k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_variability::noise::Noise;
    use harmony_variability::seeded_rng;

    #[test]
    fn noise_free_step_is_exact_max() {
        let c = Cluster::new(4);
        let mut rng = seeded_rng(1);
        let out = c.execute_step(&[2.0, 5.0, 1.0], &Noise::None, &mut rng);
        assert_eq!(out.observed, vec![2.0, 5.0, 1.0]);
        assert_eq!(out.t_k, 5.0);
    }

    #[test]
    fn noisy_step_never_beats_true_cost() {
        let c = Cluster::new(8);
        let mut rng = seeded_rng(2);
        let noise = Noise::paper_default(0.3);
        for _ in 0..100 {
            let out = c.execute_step(&[2.0, 3.0], &noise, &mut rng);
            assert!(out.observed[0] >= 2.0);
            assert!(out.observed[1] >= 3.0);
            assert!(out.t_k >= 3.0);
        }
    }

    #[test]
    fn run_batch_sequential_consumes_k_steps() {
        let c = Cluster::new(64);
        let mut rng = seeded_rng(3);
        let mut trace = TuningTrace::new();
        let samples = c.run_batch(
            &[1.0, 2.0, 3.0],
            4,
            SamplingMode::SequentialSteps,
            &Noise::None,
            &mut rng,
            &mut trace,
        );
        assert_eq!(trace.len(), 4);
        assert_eq!(samples.len(), 3);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.len(), 4);
            assert!(s.iter().all(|&x| x == (i + 1) as f64));
        }
        // noise-free: every step's T_k is the worst candidate
        assert!(trace.step_times().iter().all(|&t| t == 3.0));
    }

    #[test]
    fn run_batch_packed_is_one_step_with_capacity() {
        let c = Cluster::new(64);
        let mut rng = seeded_rng(4);
        let mut trace = TuningTrace::new();
        let samples = c.run_batch(
            &[1.0; 6],
            10,
            SamplingMode::Packed,
            &Noise::None,
            &mut rng,
            &mut trace,
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(samples.iter().map(Vec::len).sum::<usize>(), 60);
    }

    #[test]
    fn multi_sample_total_time_scales_linearly_without_noise() {
        // the rho = 0 line of Fig. 10 in miniature
        let c = Cluster::new(16);
        let mut totals = Vec::new();
        for k in 1..=3 {
            let mut rng = seeded_rng(5);
            let mut trace = TuningTrace::new();
            c.run_batch(
                &[2.0, 4.0],
                k,
                SamplingMode::SequentialSteps,
                &Noise::None,
                &mut rng,
                &mut trace,
            );
            totals.push(trace.total_time());
        }
        assert_eq!(totals, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overcommitted_step_rejected() {
        let c = Cluster::new(2);
        let mut rng = seeded_rng(6);
        let _ = c.execute_step(&[1.0, 1.0, 1.0], &Noise::None, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must run something")]
    fn empty_step_rejected() {
        let c = Cluster::new(2);
        let mut rng = seeded_rng(7);
        let _ = c.execute_step(&[], &Noise::None, &mut rng);
    }
}
