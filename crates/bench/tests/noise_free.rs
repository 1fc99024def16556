//! The premise behind running a noise-free cell once: with no noise and
//! PRO's seedless proposals nothing in a session reads its seed, so
//! every replication of a ρ = 0 cell is the same session, and folding
//! one replication's row `reps` times gives the bits of the full
//! replication loop.

use harmony_bench::experiments::{ablations, fig10};
use harmony_bench::{average_sessions_in, AvgResult};
use harmony_cluster::SamplingMode;
use harmony_core::TuningOutcome;

/// Seeds far apart in every bit, including the ones the sweeps derive.
const SEEDS: [u64; 5] = [0, 1, 2005, 0x9E37_79B9_7F4A_7C15, u64::MAX];

/// Asserts that `session` returns one outcome (trace, best point,
/// evaluations, quality curve, …) for every seed in [`SEEDS`].
fn assert_seed_free(what: &str, session: impl Fn(u64) -> TuningOutcome) {
    let first = session(SEEDS[0]);
    assert!(
        first.evaluations > 0,
        "{what}: the session evaluated nothing"
    );
    for &seed in &SEEDS[1..] {
        assert_eq!(session(seed), first, "{what}: seed {seed:#x} changed it");
    }
}

#[test]
fn noise_free_sessions_ignore_the_seed() {
    let cfg = fig10::Fig10Config::default();
    for k in [1, 3, 5] {
        for (mode, label) in [
            (SamplingMode::SequentialSteps, "fig10"),
            (SamplingMode::Packed, "fig10_packed"),
        ] {
            assert_seed_free(&format!("{label} k={k}"), |seed| {
                fig10::session(0.0, k, &cfg, mode, seed)
            });
        }
    }
    assert_eq!(ablations::MONITORING_RHOS[0], 0.0);
    for continuous in [false, true] {
        assert_seed_free(&format!("monitoring continuous={continuous}"), |seed| {
            ablations::monitoring_session(0, continuous, 200, seed)
        });
    }
}

#[test]
fn noise_free_cells_equal_their_full_replication_loops() {
    let cfg = fig10::Fig10Config {
        reps: 7,
        ..fig10::Fig10Config::default()
    };
    let bits = |a: AvgResult| (a.mean_ntt.to_bits(), a.sem_ntt.to_bits());
    for k in [1, 4] {
        let full = |salt: u32, mode| {
            average_sessions_in(1, cfg.reps, cfg.seed ^ ((k as u64) << salt), 0.0, |s| {
                fig10::session(0.0, k, &cfg, mode, s)
            })
        };
        let (ntt, sem) = fig10::cell_with_sem_in(1, 0.0, k, &cfg);
        let seq = full(32, SamplingMode::SequentialSteps);
        assert_eq!((ntt.to_bits(), sem.to_bits()), bits(seq), "fig10 k={k}");
        let packed = fig10::packed_cell_in(1, 0.0, k, &cfg);
        let want = full(40, SamplingMode::Packed).mean_ntt;
        assert_eq!(packed.to_bits(), want.to_bits(), "fig10_packed k={k}");
    }
    let (steps, reps, seed) = (120, 5, 2005);
    for continuous in [false, true] {
        let (ntt, best) = ablations::monitoring_cell_in(1, 0, continuous, steps, reps, seed);
        let base = harmony_variability::stream_seed(seed, u64::from(continuous) + 2);
        let full = average_sessions_in(1, reps, base, 0.0, |s| {
            ablations::monitoring_session(0, continuous, steps, s)
        });
        assert_eq!(
            (ntt.to_bits(), best.to_bits()),
            (full.mean_ntt.to_bits(), full.mean_best_true.to_bits()),
            "monitoring continuous={continuous}"
        );
    }
}
