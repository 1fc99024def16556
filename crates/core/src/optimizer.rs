//! The batch ask/tell optimizer interface, and the bookkeeping the
//! direct-search optimizers share: the incumbent, the fault-hole
//! [`fill`] over their measured history, and the constants of the
//! simplex searches.
//!
//! PRO, SRO and Nelder–Mead (through their shared simplex-search core)
//! keep that history in a [`PerfDatabase`] — §6's performance database,
//! interpolating over the four nearest measured points — and record
//! every measured estimate with [`PerfDatabase::insert_replacing`]: a
//! re-measured point keeps its first-seen slot and takes the newest
//! value. The database only appends each record and indexes them on the
//! first read, so a fault-free session, which never reads its history,
//! never hashes a point for it. Synthetic fills are never recorded back,
//! so the history stays purely measured.

use harmony_params::{ParamSpace, Point};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::PerfDatabase;

/// A direct-search optimizer driven in batches.
///
/// The driver repeatedly calls [`Optimizer::propose`] for the next batch
/// of points to evaluate *concurrently*, measures them (applying its
/// estimator and scheduling policy), and reports the estimates through
/// [`Optimizer::observe`] in the same order. An empty proposal means the
/// algorithm has nothing more to ask (converged or exhausted).
///
/// Implementations never evaluate the objective themselves — this is
/// what lets one driver vary noise models, sample counts, and processor
/// schedules across all algorithms uniformly.
pub trait Optimizer {
    /// The admissible region being searched.
    fn space(&self) -> &ParamSpace;

    /// The next batch of admissible points to evaluate concurrently.
    /// Returns an empty batch iff the algorithm is finished.
    fn propose(&mut self) -> Vec<Point>;

    /// Reports the estimated objective values for the last proposal, in
    /// proposal order.
    ///
    /// # Panics
    /// Implementations panic if `values.len()` differs from the last
    /// proposal's length or if called before `propose`.
    fn observe(&mut self, values: &[f64]);

    /// Reports a *partial* batch: `values[i]` is `None` when slot `i`'s
    /// estimate was lost to faults (crashed client, dropped reports).
    /// The driver calls this only after its quorum rule is satisfied, so
    /// at least one entry is `Some`.
    ///
    /// The default forwards complete batches to [`Optimizer::observe`]
    /// and panics on any hole — algorithms must opt in to partial
    /// observation (PRO/SRO/Nelder–Mead substitute missing vertices with
    /// a performance-database interpolation, §6's own mechanism for
    /// unmeasured points).
    ///
    /// # Panics
    /// The default implementation panics when any entry is `None`.
    fn observe_partial(&mut self, values: &[Option<f64>]) {
        let complete: Option<Vec<f64>> = values.iter().copied().collect();
        match complete {
            Some(v) => self.observe(&v),
            None => panic!(
                "{} does not support partial batches ({} of {} estimates missing)",
                self.name(),
                values.iter().filter(|v| v.is_none()).count(),
                values.len()
            ),
        }
    }

    /// The best point and estimate seen so far (by raw estimate — under
    /// noise this is an extreme-value-biased record, useful for
    /// reporting but not what a tuning system should deploy).
    fn best(&self) -> Option<(Point, f64)>;

    /// The configuration the algorithm would *deploy now* — for simplex
    /// methods the current best vertex `v⁰`, which under noisy
    /// estimation can differ from the luckiest-ever observation.
    /// Defaults to [`Optimizer::best`].
    fn recommendation(&self) -> Option<(Point, f64)> {
        self.best()
    }

    /// True once the algorithm's own stopping criterion has fired.
    fn converged(&self) -> bool {
        false
    }

    /// Algorithm name for reports.
    fn name(&self) -> &str;

    /// The optimizer's checkpointable state, when it supports
    /// snapshot/restore persistence. The default (`None`) marks the
    /// algorithm as non-checkpointable; recovery-enabled sessions then
    /// fall back to pure write-ahead-log replay.
    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        None
    }

    /// Mutable access to the optimizer's checkpointable state; must
    /// return `Some` exactly when [`Optimizer::as_checkpoint`] does.
    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        None
    }
}

/// Neighbours an optimizer's measured history blends when estimating a
/// missing measurement.
pub(crate) const HISTORY_NEIGHBORS: usize = 4;

/// Chebyshev diameter below which a PRO, SRO or Nelder–Mead simplex
/// counts as collapsed (exact 0 is reached on discrete lattices).
pub(crate) const COLLAPSE_TOL: f64 = 1e-9;

/// Relative neighbour step of a continuous parameter in the §3.2.2
/// stopping-criterion probe of PRO and SRO.
pub const PROBE_EPS: f64 = 0.01;

/// Substitutes every hole in `values` with `history`'s interpolated
/// estimate of the corresponding point in `points` — §6's own mechanism
/// for points the performance database does not contain. When the
/// history is still empty (the very first batch arriving with holes
/// under faults, before the caller has recorded anything), holes fall
/// back to the mean of the batch's own measured entries instead of
/// panicking — the least-informative finite substitute.
///
/// # Panics
/// Panics when the lengths differ, or when a hole needs filling while
/// *both* the history and the batch are empty of measurements (drivers
/// guarantee a quorum of at least one `Some` per batch).
pub fn fill(history: &PerfDatabase, points: &[Point], values: &[Option<f64>]) -> Vec<f64> {
    assert_eq!(points.len(), values.len(), "points/values length mismatch");
    let measured: Vec<f64> = values.iter().flatten().copied().collect();
    let batch_mean = || {
        assert!(
            !measured.is_empty(),
            "cannot fill a hole: empty history and no measured value in the batch"
        );
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    points
        .iter()
        .zip(values.iter())
        .map(|(p, v)| v.unwrap_or_else(|| history.try_interpolate(p).unwrap_or_else(batch_mean)))
        .collect()
}

/// Book-keeping shared by all optimizers: remembers the best estimate
/// ever observed (the incumbent the cluster keeps running after
/// convergence).
#[derive(Debug, Clone, Default)]
pub struct Incumbent {
    best: Option<(Point, f64)>,
}

impl Incumbent {
    /// Empty incumbent.
    pub fn new() -> Self {
        Incumbent::default()
    }

    /// Offers a candidate; keeps it when strictly better.
    pub fn offer(&mut self, point: &Point, value: f64) {
        if self.best.as_ref().is_none_or(|(_, b)| value < *b) {
            self.best = Some((point.clone(), value));
        }
    }

    /// Current best, if any.
    pub fn get(&self) -> Option<(Point, f64)> {
        self.best.clone()
    }
}

impl Checkpoint for Incumbent {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("incumbent");
        match &self.best {
            Some((p, v)) => {
                w.bool(true);
                w.point(p);
                w.f64(*v);
            }
            None => w.bool(false),
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("incumbent")?;
        self.best = if r.bool()? {
            Some((r.point()?, r.f64()?))
        } else {
            None
        };
        Ok(())
    }
}

/// Test support shared by the optimizers' restore tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::Optimizer;
    use harmony_params::Point;
    use harmony_recovery::{restore_from_slice, Checkpoint};

    /// Answers up to `batches` proposals of `opt` with `f`.
    pub(crate) fn run(opt: &mut dyn Optimizer, f: impl Fn(&Point) -> f64, batches: usize) {
        for _ in 0..batches {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            let values: Vec<f64> = batch.iter().map(&f).collect();
            opt.observe(&values);
        }
    }

    /// Restores every proper prefix of `checkpoint` into an optimizer
    /// built by `make`, and asserts that each restore fails and leaves
    /// `best()` and `propose()` as they are on an untouched `make()`.
    pub(crate) fn cut_restores_change_nothing<O: Optimizer + Checkpoint>(
        checkpoint: &[u8],
        make: impl Fn() -> O,
    ) {
        let mut untouched = make();
        let (best, batch) = (untouched.best(), untouched.propose());
        for cut in 0..checkpoint.len() {
            let mut opt = make();
            assert!(
                restore_from_slice(&mut opt, &checkpoint[..cut]).is_err(),
                "a checkpoint cut at byte {cut} restored"
            );
            assert_eq!(opt.best(), best, "a restore cut at byte {cut} moved best()");
            assert_eq!(
                opt.propose(),
                batch,
                "a restore cut at byte {cut} moved propose()"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incumbent_keeps_minimum() {
        let mut inc = Incumbent::new();
        assert!(inc.get().is_none());
        let a = Point::from(&[1.0][..]);
        let b = Point::from(&[2.0][..]);
        inc.offer(&a, 5.0);
        inc.offer(&b, 7.0);
        assert_eq!(inc.get().unwrap().1, 5.0);
        inc.offer(&b, 3.0);
        let (p, v) = inc.get().unwrap();
        assert_eq!(v, 3.0);
        assert_eq!(p, b);
    }

    #[test]
    fn ties_keep_first() {
        let mut inc = Incumbent::new();
        let a = Point::from(&[1.0][..]);
        let b = Point::from(&[2.0][..]);
        inc.offer(&a, 5.0);
        inc.offer(&b, 5.0);
        assert_eq!(inc.get().unwrap().0, a);
    }

    use harmony_params::ParamDef;

    fn space_1d() -> ParamSpace {
        ParamSpace::new(vec![ParamDef::integer("x", 0, 10, 1).unwrap()]).unwrap()
    }

    /// Minimal optimizer relying on the trait's default
    /// `observe_partial`.
    struct Stub {
        space: ParamSpace,
        got: Vec<f64>,
    }

    impl Optimizer for Stub {
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn propose(&mut self) -> Vec<Point> {
            vec![Point::from(&[1.0][..]), Point::from(&[2.0][..])]
        }
        fn observe(&mut self, values: &[f64]) {
            self.got.extend_from_slice(values);
        }
        fn best(&self) -> Option<(Point, f64)> {
            None
        }
        fn name(&self) -> &str {
            "stub"
        }
    }

    #[test]
    fn default_observe_partial_forwards_complete_batches() {
        let mut stub = Stub {
            space: space_1d(),
            got: Vec::new(),
        };
        stub.observe_partial(&[Some(3.0), Some(4.0)]);
        assert_eq!(stub.got, vec![3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "stub does not support partial batches")]
    fn default_observe_partial_rejects_holes() {
        let mut stub = Stub {
            space: space_1d(),
            got: Vec::new(),
        };
        stub.observe_partial(&[Some(3.0), None]);
    }

    #[test]
    fn history_interpolator_fills_holes() {
        let mut hist = PerfDatabase::new(space_1d(), HISTORY_NEIGHBORS);
        let p2 = Point::from(&[2.0][..]);
        let p4 = Point::from(&[4.0][..]);
        let p3 = Point::from(&[3.0][..]);
        assert_eq!(hist.try_interpolate(&p3), None);
        hist.insert_replacing(&p2, 10.0);
        hist.insert_replacing(&p4, 20.0);
        assert_eq!(hist.len(), 2);
        // exact hits come back verbatim; holes get a convex combination
        let filled = fill(
            &hist,
            &[p2.clone(), p3.clone(), p4.clone()],
            &[Some(11.0), None, Some(19.0)],
        );
        assert_eq!(filled[0], 11.0);
        assert_eq!(filled[2], 19.0);
        assert!(filled[1] > 10.0 && filled[1] < 20.0, "got {}", filled[1]);
    }

    #[test]
    fn remeasured_points_keep_their_first_seen_slot() {
        let mut hist = PerfDatabase::new(space_1d(), HISTORY_NEIGHBORS);
        for (x, v) in [(2.0, 1.0), (5.0, 2.0), (2.0, 3.0)] {
            hist.insert_replacing(&Point::from(&[x][..]), v);
        }
        assert_eq!(hist.len(), 2);
        assert_eq!(hist.try_interpolate(&Point::from(&[2.0][..])), Some(3.0));
        let mut w = StateWriter::new();
        hist.save_state(&mut w);
        let mut expected = StateWriter::new();
        expected.tag("perfdb");
        expected.usize(2);
        for (x, v) in [(2.0, 3.0), (5.0, 2.0)] {
            expected.point(&Point::from(&[x][..]));
            expected.f64(v);
        }
        assert_eq!(w.into_bytes(), expected.into_bytes());
    }

    #[test]
    fn history_restore_rejects_an_oversized_length_prefix() {
        let mut hist = PerfDatabase::new(space_1d(), HISTORY_NEIGHBORS);
        hist.insert_replacing(&Point::from(&[4.0][..]), 1.5);
        let mut w = StateWriter::new();
        w.tag("perfdb");
        w.usize(1 << 40);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        assert_eq!(hist.restore_state(&mut r), Err(CodecError::UnexpectedEof));
        assert_eq!(hist.len(), 1, "a failed restore changed the history");
    }

    #[test]
    fn empty_history_falls_back_to_batch_mean() {
        // first batch with holes under faults: nothing recorded yet, so
        // holes take the mean of the batch's own measured entries
        let hist = PerfDatabase::new(space_1d(), HISTORY_NEIGHBORS);
        let filled = fill(
            &hist,
            &[
                Point::from(&[1.0][..]),
                Point::from(&[2.0][..]),
                Point::from(&[3.0][..]),
            ],
            &[Some(4.0), None, Some(8.0)],
        );
        assert_eq!(filled, vec![4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "empty history and no measured value")]
    fn history_interpolator_cannot_fill_from_nothing() {
        let hist = PerfDatabase::new(space_1d(), HISTORY_NEIGHBORS);
        let _ = fill(&hist, &[Point::from(&[1.0][..])], &[None]);
    }
}
