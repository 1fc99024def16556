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

impl Cluster {
    /// Creates a cluster.
    ///
    /// # Panics
    /// Panics when `procs == 0`.
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0, "cluster needs at least one processor");
        Cluster { procs }
    }

    /// Evaluates `K` samples of each candidate (true costs
    /// `point_costs`), laid out by [`Layout`] under `mode`, with optional
    /// *full occupancy*. Every consumed time step appends its `T_k` (the
    /// worst observation of the step, eq. 1) to `trace`; the observations
    /// are written point-major into `samples` (the `K` samples of point
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
    /// The batch walks the layout's steps and draws straight into
    /// `samples`, so it allocates nothing once the buffer has grown. Each
    /// step draws one observation per slot in layout order (idle
    /// processors after them, round-robin) and folds `T_k` left to right
    /// with `f64::max` from `−∞`.
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
            trace
                .push(t_k)
                .expect("noise-model observations are finite and non-negative");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_variability::noise::Noise;
    use harmony_variability::seeded_rng;

    /// One batch without full occupancy: the observations and the trace.
    fn batch(
        c: &Cluster,
        costs: &[f64],
        k: usize,
        mode: SamplingMode,
        noise: &Noise,
        seed: u64,
    ) -> (Vec<f64>, TuningTrace) {
        let mut rng = seeded_rng(seed);
        let mut trace = TuningTrace::new();
        let mut samples = Vec::new();
        c.run_batch_occupied(
            costs,
            k,
            mode,
            noise,
            &mut rng,
            &mut trace,
            false,
            &mut samples,
        );
        (samples, trace)
    }

    #[test]
    fn noise_free_step_is_exact_max() {
        let c = Cluster::new(4);
        let (samples, trace) = batch(
            &c,
            &[2.0, 5.0, 1.0],
            1,
            SamplingMode::Packed,
            &Noise::None,
            1,
        );
        assert_eq!(samples, vec![2.0, 5.0, 1.0]);
        assert_eq!(trace.step_times(), &[5.0]);
    }

    #[test]
    fn noisy_step_never_beats_true_cost() {
        let c = Cluster::new(8);
        let noise = Noise::paper_default(0.3);
        for seed in 0..100 {
            let (samples, trace) = batch(&c, &[2.0, 3.0], 1, SamplingMode::Packed, &noise, seed);
            assert!(samples[0] >= 2.0);
            assert!(samples[1] >= 3.0);
            assert_eq!(trace.len(), 1);
            assert!(trace.step_times()[0] >= 3.0);
        }
    }

    #[test]
    fn run_batch_sequential_consumes_k_steps() {
        let c = Cluster::new(64);
        let (samples, trace) = batch(
            &c,
            &[1.0, 2.0, 3.0],
            4,
            SamplingMode::SequentialSteps,
            &Noise::None,
            3,
        );
        assert_eq!(trace.len(), 4);
        assert_eq!(samples.len(), 12);
        for (i, s) in samples.chunks(4).enumerate() {
            assert!(s.iter().all(|&x| x == (i + 1) as f64));
        }
        // noise-free: every step's T_k is the worst candidate
        assert!(trace.step_times().iter().all(|&t| t == 3.0));
    }

    #[test]
    fn run_batch_packed_is_one_step_with_capacity() {
        let c = Cluster::new(64);
        let (samples, trace) = batch(&c, &[1.0; 6], 10, SamplingMode::Packed, &Noise::None, 4);
        assert_eq!(trace.len(), 1);
        assert_eq!(samples.len(), 60);
    }

    #[test]
    fn multi_sample_total_time_scales_linearly_without_noise() {
        // the rho = 0 line of Fig. 10 in miniature
        let c = Cluster::new(16);
        let totals: Vec<f64> = (1..=3)
            .map(|k| {
                let (_, trace) = batch(
                    &c,
                    &[2.0, 4.0],
                    k,
                    SamplingMode::SequentialSteps,
                    &Noise::None,
                    5,
                );
                trace.total_time()
            })
            .collect();
        assert_eq!(totals, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_step_rejected() {
        let _ = batch(
            &Cluster::new(2),
            &[],
            1,
            SamplingMode::Packed,
            &Noise::None,
            7,
        );
    }
}
