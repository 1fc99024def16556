//! Property-based tests of the cluster layer (scheduling, execution, the
//! replication pool) and of the parameter-spec parser round-trip.

use harmony::cluster::pool::{par_map_indexed_in, worker_count};
use harmony::cluster::schedule::{EvalSlot, Layout};
use harmony::cluster::{Cluster, SamplingMode, TuningTrace};
use harmony::params::spec::{format_space, parse_space};
use harmony::params::{ParamDef, ParamSpace};
use harmony::prelude::*;
use proptest::prelude::*;
use rand::Rng;

fn arb_mode() -> impl Strategy<Value = SamplingMode> {
    prop_oneof![
        Just(SamplingMode::SequentialSteps),
        Just(SamplingMode::Packed)
    ]
}

/// The layout's time steps as lists of slots.
fn plan(n: usize, k: usize, procs: usize, mode: SamplingMode) -> Vec<Vec<EvalSlot>> {
    let layout = Layout::new(n, k, procs, mode);
    layout
        .steps()
        .map(|step| step.map(|i| layout.slot(i)).collect())
        .collect()
}

/// One `run_batch_occupied` call from a fresh stream: the point-major
/// observations, the trace, and the stream for continuing it.
fn run_batch(
    cluster: &Cluster,
    costs: &[f64],
    k: usize,
    mode: SamplingMode,
    noise: &Noise,
    seed: u64,
    full_occupancy: bool,
) -> (Vec<f64>, TuningTrace, rand::rngs::SmallRng) {
    let mut rng = seeded_rng(seed);
    let mut trace = TuningTrace::new();
    let mut samples = Vec::new();
    cluster.run_batch_occupied(
        costs,
        k,
        mode,
        noise,
        &mut rng,
        &mut trace,
        full_occupancy,
        &mut samples,
    );
    (samples, trace, rng)
}

proptest! {
    #[test]
    fn schedule_covers_every_pair_exactly_once(
        n in 1usize..20,
        k in 1usize..8,
        procs in 1usize..70,
        mode in arb_mode(),
    ) {
        let steps = plan(n, k, procs, mode);
        let mut seen = std::collections::HashSet::new();
        for step in &steps {
            prop_assert!(step.len() <= procs, "step exceeds processor count");
            prop_assert!(!step.is_empty(), "empty step scheduled");
            for slot in step {
                prop_assert!(slot.point < n && slot.sample < k);
                prop_assert!(seen.insert((slot.point, slot.sample)), "duplicate slot");
            }
        }
        prop_assert_eq!(seen.len(), n * k);
    }

    #[test]
    fn schedule_step_counts_match_closed_forms(
        n in 1usize..20,
        k in 1usize..8,
        procs in 1usize..70,
    ) {
        let seq = Layout::new(n, k, procs, SamplingMode::SequentialSteps);
        prop_assert_eq!(seq.steps().count(), k * n.div_ceil(procs));
        let packed = Layout::new(n, k, procs, SamplingMode::Packed);
        prop_assert_eq!(packed.steps().count(), (n * k).div_ceil(procs));
    }

    #[test]
    fn sequential_never_mixes_samples_of_one_point_in_a_step(
        n in 1usize..20,
        k in 2usize..6,
        procs in 1usize..40,
    ) {
        for step in plan(n, k, procs, SamplingMode::SequentialSteps) {
            let mut points = std::collections::HashSet::new();
            for slot in step {
                prop_assert!(points.insert(slot.point), "point repeated within a step");
            }
        }
    }

    #[test]
    fn run_batch_returns_k_samples_per_point(
        costs in prop::collection::vec(0.1f64..50.0, 1..10),
        k in 1usize..5,
        procs in 1usize..20,
        mode in arb_mode(),
        seed in 0u64..500,
    ) {
        let cluster = Cluster::new(procs);
        let n_steps = Layout::new(costs.len(), k, procs, mode).steps().count();
        let max_cost = costs.iter().copied().fold(0.0, f64::max);
        let min_cost = costs.iter().copied().fold(f64::INFINITY, f64::min);
        for full in [false, true] {
            let (samples, trace, _) = run_batch(&cluster, &costs, k, mode, &Noise::None, seed, full);
            prop_assert_eq!(samples.len(), costs.len() * k);
            for (i, s) in samples.chunks(k).enumerate() {
                // no noise: every sample is the true cost
                prop_assert!(s.iter().all(|&x| x == costs[i]));
            }
            // total time = sum over steps of per-step maxima: bounded below
            // by the dearest single evaluation and by steps x cheapest cost
            prop_assert_eq!(trace.len(), n_steps);
            prop_assert!(trace.total_time() >= max_cost - 1e-9);
            prop_assert!(trace.total_time() >= n_steps as f64 * min_cost - 1e-9);
        }
    }

    #[test]
    fn noisy_steps_dominate_true_costs(
        costs in prop::collection::vec(0.1f64..20.0, 1..8),
        rho in 0.05f64..0.6,
        seed in 0u64..300,
    ) {
        // at most 8 evaluations on 8 processors: one barrier step
        let cluster = Cluster::new(8);
        let noise = Noise::Pareto { alpha: 1.7, rho };
        let (_, trace, _) = run_batch(&cluster, &costs, 1, SamplingMode::Packed, &noise, seed, false);
        let max_cost = costs.iter().copied().fold(0.0, f64::max);
        prop_assert_eq!(trace.len(), 1);
        prop_assert!(trace.step_times()[0] >= max_cost);
    }

    #[test]
    fn run_batch_matches_per_step_reference(
        costs in prop::collection::vec(0.1f64..20.0, 1..10),
        k in 1usize..5,
        procs in 1usize..20,
        rho in 0.0f64..0.6,
        seed in 0u64..500,
    ) {
        // eq. 1 step by step: one observation per slot in layout order,
        // then (under full occupancy) the idle processors rerun the
        // step's slots round-robin; T_k is the left fold of f64::max
        let cluster = Cluster::new(procs);
        let noise = Noise::Pareto { alpha: 1.7, rho };
        for mode in [SamplingMode::SequentialSteps, SamplingMode::Packed] {
            for full in [false, true] {
                let (samples, trace, mut rng) = run_batch(&cluster, &costs, k, mode, &noise, seed, full);
                let mut ref_rng = seeded_rng(seed);
                let mut want = vec![f64::NAN; costs.len() * k];
                let mut want_steps = Vec::new();
                for step in plan(costs.len(), k, procs, mode) {
                    let width = if full { procs } else { step.len() };
                    let obs: Vec<f64> = (0..width)
                        .map(|j| noise.observe(costs[step[j % step.len()].point], &mut ref_rng))
                        .collect();
                    for (slot, &y) in step.iter().zip(&obs) {
                        want[slot.point * k + slot.sample] = y;
                    }
                    want_steps.push(obs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
                }
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&samples), bits(&want), "{:?} full={}", mode, full);
                prop_assert_eq!(bits(trace.step_times()), bits(&want_steps), "{:?} full={}", mode, full);
                prop_assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>());
            }
        }
    }

    #[test]
    fn par_map_matches_serial_map(n in 0usize..200, mult in 1u64..100) {
        let parallel = par_map_indexed_in(worker_count(n), n, |i| i as u64 * mult);
        let serial: Vec<u64> = (0..n).map(|i| i as u64 * mult).collect();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn pool_map_identical_across_worker_counts(n in 0usize..300, seed in 0u64..100) {
        // jobs draw randomness from index-derived streams, exactly like
        // real replications; any worker count must give the same vector
        let f = |i: usize| seeded_rng(stream_seed(seed, i as u64)).random::<f64>();
        let expect: Vec<u64> = (0..n).map(|i| f(i).to_bits()).collect();
        for workers in [1usize, 2, 3, 7] {
            let got: Vec<u64> = par_map_indexed_in(workers, n, f)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            prop_assert_eq!(&got, &expect, "workers={}", workers);
        }
    }

    #[test]
    fn spec_round_trips_arbitrary_spaces(defs in prop::collection::vec(arb_def(), 1..5)) {
        let space = ParamSpace::new(defs).unwrap();
        let spec = format_space(&space);
        let reparsed = parse_space(&spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        prop_assert_eq!(space, reparsed);
    }

    #[test]
    fn spec_parser_never_panics_on_garbage(input in "[ -~]{0,60}") {
        // arbitrary printable ASCII: must return Ok or Err, never panic
        let _ = parse_space(&input);
    }
}

/// The regression case recorded in `property_cluster.proptest-regressions`
/// (`costs = [0.1], k = 2, procs = 2, mode = Packed, seed = 0`), promoted
/// to an explicit unit test: the vendored proptest has no shrinking and
/// does not replay regression files, so historical failures live here.
/// With two processors and one point, Packed mode runs both samples in a
/// single step; the step must still deliver k samples and charge the
/// barrier the worst (here: only) cost.
#[test]
fn regression_packed_single_point_two_procs() {
    let costs = [0.1];
    let (k, procs) = (2, 2);
    let (samples, trace, _) = run_batch(
        &Cluster::new(procs),
        &costs,
        k,
        SamplingMode::Packed,
        &Noise::None,
        0,
        false,
    );
    assert_eq!(samples, vec![0.1, 0.1]);
    assert_eq!(trace.len(), 1, "both samples pack into one step");
    assert!((trace.total_time() - 0.1).abs() < 1e-12);
}

fn arb_def() -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        ("[a-z]{1,8}", -100i64..100, 1i64..50, 1i64..9).prop_map(|(name, lo, span, step)| {
            ParamDef::integer(name, lo, lo + span, step).unwrap()
        }),
        ("[a-z]{1,8}", -100i64..100, 1i64..200).prop_map(|(name, lo, span)| {
            ParamDef::continuous(name, lo as f64, (lo + span) as f64).unwrap()
        }),
        (
            "[a-z]{1,8}",
            prop::collection::btree_set(-500i64..500, 2..6)
        )
            .prop_map(|(name, set)| {
                let levels: Vec<f64> = set.into_iter().map(|v| v as f64).collect();
                ParamDef::levels(name, levels).unwrap()
            }),
    ]
}
