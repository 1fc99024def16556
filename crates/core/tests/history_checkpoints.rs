//! PRO, SRO and Nelder–Mead checkpoints taken mid-session are pinned
//! byte for byte. Their measured history is a `PerfDatabase` that folds
//! its records lazily; the checkpoint must still list exactly what eager
//! newest-wins inserts would hold, in first-seen order.

use harmony_core::nelder_mead::NelderMead;
use harmony_core::sro::SroOptimizer;
use harmony_core::{Optimizer, ProOptimizer};
use harmony_recovery::{restore_from_slice, save_to_vec};
use harmony_surface::{Gs2Model, Objective};

/// FNV-1a over the checkpoint bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh optimizer by name, on the GS2 space.
fn optimizer(name: &str, gs2: &Gs2Model) -> Box<dyn Optimizer> {
    let space = gs2.space().clone();
    match name {
        "pro" => Box::new(ProOptimizer::with_defaults(space)),
        "sro" => Box::new(SroOptimizer::with_defaults(space)),
        "nelder-mead" => Box::new(NelderMead::with_defaults(space)),
        other => unreachable!("{other}"),
    }
}

/// Saves `opt`'s checkpoint, checks that it restores into a fresh
/// optimizer and re-saves to the same bytes, and returns its `(length,
/// FNV-1a)`.
fn pin(name: &str, opt: &dyn Optimizer, gs2: &Gs2Model) -> (usize, u64) {
    let bytes = save_to_vec(opt.as_checkpoint().expect("checkpointable optimizer"));
    let mut back = optimizer(name, gs2);
    let target = back.as_checkpoint_mut().expect("checkpointable optimizer");
    restore_from_slice(target, &bytes).expect("own checkpoint restores");
    assert_eq!(
        save_to_vec(&*target),
        bytes,
        "{name}: checkpoint round trip"
    );
    (bytes.len(), fnv1a(&bytes))
}

/// The pinned checkpoints of a fixed session: after batch 6, and at its
/// end (convergence, or batch 16). Every batch's values drift by 1% of
/// the GS2 cost per batch, so re-measured points change value; batch 1
/// and the first batch of two or more points from batch 4 on lose their
/// first report.
fn session_checkpoints(name: &str) -> [(usize, u64); 2] {
    let gs2 = Gs2Model::paper_scale();
    let mut opt = optimizer(name, &gs2);
    let mut mid = None;
    let mut late_hole = true;
    for batch in 1..=16 {
        let points = opt.propose();
        if points.is_empty() {
            break;
        }
        let drift = 1.0 + 0.01 * batch as f64;
        let values: Vec<f64> = points.iter().map(|p| gs2.eval(p) * drift).collect();
        let hole = points.len() > 1 && (batch == 1 || (batch >= 4 && late_hole));
        if hole {
            late_hole &= batch == 1;
            let mut partial: Vec<Option<f64>> = values.into_iter().map(Some).collect();
            partial[0] = None;
            opt.observe_partial(&partial);
        } else {
            opt.observe(&values);
        }
        if batch == 6 {
            mid = Some(pin(name, opt.as_ref(), &gs2));
        }
    }
    [
        mid.expect("the session ran six batches"),
        pin(name, opt.as_ref(), &gs2),
    ]
}

#[test]
fn pro_mid_session_checkpoints_are_pinned() {
    assert_eq!(session_checkpoints("pro"), PRO);
}

#[test]
fn sro_mid_session_checkpoints_are_pinned() {
    assert_eq!(session_checkpoints("sro"), SRO);
}

#[test]
fn nelder_mead_mid_session_checkpoints_are_pinned() {
    assert_eq!(session_checkpoints("nelder-mead"), NELDER_MEAD);
}

// Recorded with the eagerly indexed history these checkpoints were first
// written by.
const PRO: [(usize, u64); 2] = [(1108, 0x7eaf908df1404833), (1068, 0x344b224b7331081d)];
const SRO: [(usize, u64); 2] = [(636, 0x9cce2fb8aef7a6cb), (1060, 0xd36a64e945ec77d4)];
const NELDER_MEAD: [(usize, u64); 2] = [(548, 0xa98ababf013a4a03), (828, 0x1d8b3d4fb3ee537f)];
