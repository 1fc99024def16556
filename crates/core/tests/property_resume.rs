//! Resume equivalence for the three simplex searches: a PRO, SRO or
//! Nelder–Mead checkpoint taken at any batch boundary of a noisy GS2
//! session with lost reports restores into a fresh optimizer that
//! continues exactly like the uninterrupted one — the same proposals,
//! recommendation, best point and convergence, and the same final
//! checkpoint bytes.
//!
//! CI runs this file at an elevated `PROPTEST_CASES` beside the surrogate
//! properties.

use harmony_core::nelder_mead::NelderMead;
use harmony_core::sro::SroOptimizer;
use harmony_core::{Optimizer, ProOptimizer};
use harmony_params::Point;
use harmony_recovery::{restore_from_slice, save_to_vec};
use harmony_stats::splitmix::stream_seed;
use harmony_surface::{Gs2Model, Objective};
use proptest::prelude::*;

/// Batches each session runs at most.
const BATCHES: usize = 80;

/// A fresh optimizer: 0 is PRO, 1 SRO, 2 Nelder–Mead.
fn optimizer(algo: usize, gs2: &Gs2Model) -> Box<dyn Optimizer> {
    let space = gs2.space().clone();
    match algo {
        0 => Box::new(ProOptimizer::with_defaults(space)),
        1 => Box::new(SroOptimizer::with_defaults(space)),
        _ => Box::new(NelderMead::with_defaults(space)),
    }
}

/// Answers batch `b` of the session: the GS2 cost scaled by up to 30%
/// seed-hashed noise, with slot `i` lost when bit `(b + i) % 8` of `holes`
/// is set. The first batch is measured in full, and a batch of several
/// points keeps its first one when every slot would be lost, so each hole
/// has a measurement to be filled from.
fn answer(opt: &mut dyn Optimizer, gs2: &Gs2Model, seed: u64, holes: u8, b: usize) {
    let batch = opt.propose();
    let mut values: Vec<Option<f64>> = batch
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let lost = b > 0 && (holes >> ((b + i) % 8)) & 1 == 1;
            let u = stream_seed(seed, (b * 64 + i) as u64) % 1_000;
            (!lost).then(|| gs2.eval(p) * (1.0 + 0.3 * u as f64 / 1_000.0))
        })
        .collect();
    if batch.len() > 1 && values.iter().all(Option::is_none) {
        values[0] = Some(gs2.eval(&batch[0]));
    }
    match values.iter().copied().collect::<Option<Vec<f64>>>() {
        Some(complete) => opt.observe(&complete),
        None => opt.observe_partial(&values),
    }
}

/// Runs batches `from..BATCHES` of the session, returning each proposal.
fn continue_session(
    opt: &mut dyn Optimizer,
    gs2: &Gs2Model,
    seed: u64,
    holes: u8,
    from: usize,
) -> Vec<Vec<Point>> {
    let mut proposals = Vec::new();
    for b in from..BATCHES {
        let batch = opt.propose();
        if batch.is_empty() {
            break;
        }
        proposals.push(batch);
        answer(opt, gs2, seed, holes, b);
    }
    proposals
}

proptest! {
    #[test]
    fn restored_checkpoints_resume_like_the_uninterrupted_session(
        algo in 0usize..3,
        seed in 0u64..10_000,
        holes in 0u8..=255,
        cut in 0usize..=BATCHES,
    ) {
        let gs2 = Gs2Model::paper_scale();
        let mut whole = optimizer(algo, &gs2);
        let mut first = continue_session(whole.as_mut(), &gs2, seed, holes, 0);
        // spread the cut over the batches the session actually ran
        let cut = cut % (first.len() + 1);
        let rest = first.split_off(cut);

        let mut before = optimizer(algo, &gs2);
        for (b, batch) in first.iter().enumerate() {
            prop_assert_eq!(&before.propose(), batch, "batch {} diverged", b);
            answer(before.as_mut(), &gs2, seed, holes, b);
        }
        let bytes = save_to_vec(before.as_checkpoint().expect("checkpointable"));
        let mut resumed = optimizer(algo, &gs2);
        restore_from_slice(resumed.as_checkpoint_mut().expect("checkpointable"), &bytes)
            .expect("own checkpoint restores");
        prop_assert_eq!(&save_to_vec(resumed.as_checkpoint().unwrap()), &bytes);

        let after = continue_session(resumed.as_mut(), &gs2, seed, holes, cut);
        prop_assert_eq!(after, rest, "{} resumed at batch {}", whole.name(), cut);
        prop_assert_eq!(resumed.recommendation(), whole.recommendation());
        prop_assert_eq!(resumed.best(), whole.best());
        prop_assert_eq!(resumed.converged(), whole.converged());
        prop_assert_eq!(
            save_to_vec(resumed.as_checkpoint().unwrap()),
            save_to_vec(whole.as_checkpoint().unwrap())
        );
    }
}
