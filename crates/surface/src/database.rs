//! A sparse performance database with nearest-neighbour interpolation.
//!
//! §6 of the paper: *"we used a data base that contains the performance
//! of the GS2 application for different parameter values … the data base
//! does not contain all possible combinations. If a point is not in the
//! data base, we use weighted average of its closest neighbors
//! performance values to estimate its performance."*
//!
//! [`PerfDatabase`] reproduces that exactly: it stores measured values at
//! a subset of lattice points and answers missing points with an
//! inverse-distance-weighted average of the `k` nearest stored
//! neighbours (coordinates normalised by parameter width so unlike units
//! mix sensibly).
//!
//! The same type is the optimizers' measured history: PRO, SRO and
//! Nelder–Mead record every measured estimate with
//! [`PerfDatabase::insert_replacing`] and fill the holes a fault leaves
//! in a batch by interpolating over it (`harmony_core::optimizer::fill`),
//! so a missing measurement is estimated exactly as §6 estimates a
//! missing database entry.
//!
//! # Lookup
//!
//! An exact hit is one hash lookup; a missing point is answered by a
//! linear scan over the stored entries ([`idw_scan`]), selecting the `k`
//! nearest by `(distance², insertion index)`. Interpolation is off the
//! hot paths: the simulated experiments tabulate their objectives
//! directly, and the sessions that do tune against a database memoize
//! every probe above it (`CachedObjective` in `harmony-core`).
//!
//! # Lazy index
//!
//! A fault-free session writes its history on every batch and reads it
//! only if a checkpoint is taken or a fault leaves holes to fill — in
//! the simulated experiments, never. So [`PerfDatabase::insert_replacing`]
//! only appends to a log, and the point-key index is built on the first
//! read (`len`, `get`, `contains`, `try_interpolate`, `eval`,
//! `save_state`): the fold keeps each point's first-seen position and
//! newest value, exactly what eager replacing inserts would hold, so
//! every read and every checkpoint byte is unchanged. A full log folds
//! before it grows, and keeps at most twice as many records as distinct
//! points (at least 64), so a long session that never reads
//! holds O(distinct points).

use crate::objective::Objective;
use harmony_params::{ParamSpace, Point, PointKey, PointMap};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use rand::Rng;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// A recorded `parameter-point → running-time` table over a discrete
/// space, usable as an [`Objective`].
///
/// # Example
///
/// ```
/// use harmony_params::{ParamDef, ParamSpace, Point};
/// use harmony_surface::PerfDatabase;
///
/// let space = ParamSpace::new(vec![ParamDef::integer("n", 0, 10, 1).unwrap()]).unwrap();
/// let mut db = PerfDatabase::new(space, 2);
/// db.insert(Point::from(&[0.0][..]), 10.0);
/// db.insert(Point::from(&[10.0][..]), 20.0);
/// // exact hit
/// assert_eq!(db.try_interpolate(&Point::from(&[0.0][..])), Some(10.0));
/// // missing point: inverse-distance-weighted neighbours
/// let mid = db.try_interpolate(&Point::from(&[5.0][..])).unwrap();
/// assert!((mid - 15.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct PerfDatabase {
    space: ParamSpace,
    /// The measurements, folded on the first read after a write (reads
    /// take `&self`, and the server shares its objective across threads,
    /// hence the lock; writes take `&mut self` and never lock).
    log: RwLock<Log>,
    /// Inverse coordinate scales (1/width per parameter) for distance,
    /// held in a [`Point`] for its inline storage.
    inv_scale: Point,
    /// Number of neighbours used for interpolation.
    pub k_neighbors: usize,
    name: Cow<'static, str>,
}

/// Records a [`Log`] has room for at its first write. A full log folds
/// before it grows, and grows only to keep at least half its room free
/// after a fold, so it holds at most `max(LOG_FLOOR, 2 × distinct
/// points)` records. Over the 90,000 PRO sessions of `fig10 --full` an
/// optimizer's history holds 20 distinct points at the median and 57 at
/// the 99th percentile, from a few dozen records, so most sessions never
/// fold.
const LOG_FLOOR: usize = 64;

/// A measured-point log with a lazily built index.
///
/// `entries[..folded]` hold one entry per distinct point, in first-seen
/// order with its current value, and `index_of` maps each point's key to
/// its position there. `entries[folded..]` are newest-wins records not
/// yet folded in.
#[derive(Debug, Clone, Default)]
struct Log {
    entries: Vec<(Point, f64)>,
    folded: usize,
    index_of: PointMap<usize>,
}

impl Log {
    fn is_folded(&self) -> bool {
        self.folded == self.entries.len()
    }

    /// Folds the log and sizes it so that at least half of it (and at
    /// least [`LOG_FLOOR`] records) is free for new records.
    fn make_room(&mut self, space: &ParamSpace) {
        self.fold(space);
        let want = (2 * self.entries.len()).max(LOG_FLOOR);
        if self.entries.capacity() < want {
            self.entries.reserve_exact(want - self.entries.len());
        }
    }

    /// Folds the tail into the indexed prefix in place: a known point's
    /// entry takes the record's value, a new point moves to the end of
    /// the prefix. Panics on a new inadmissible point, leaving the log
    /// consistent with that record first in the tail.
    fn fold(&mut self, space: &ParamSpace) {
        let mut end = self.folded;
        for i in self.folded..self.entries.len() {
            match self.index_of.entry(PointKey::new(&self.entries[i].0)) {
                Entry::Occupied(slot) => self.entries[*slot.get()].1 = self.entries[i].1,
                Entry::Vacant(slot) => {
                    if !space.is_admissible(&self.entries[i].0) {
                        self.entries.drain(end..i);
                        self.folded = end;
                        panic!(
                            "database point must be admissible: {:?}",
                            self.entries[end].0
                        );
                    }
                    slot.insert(end);
                    self.entries.swap(end, i);
                    end += 1;
                }
            }
        }
        self.entries.truncate(end);
        self.folded = end;
    }
}

/// The per-coordinate IEEE-754 bit patterns of a point, as the sharded
/// database's snapshots store them; they order and compare like the
/// point's [`PointKey`], so both databases agree on point identity.
pub(crate) fn key_of(p: &Point) -> Vec<u64> {
    p.iter().map(f64::to_bits).collect()
}

/// Inverse coordinate scales (1/width per parameter) for the
/// width-normalised distance frame — shared with the sharded database and
/// [`idw_scan`] callers so all compute bit-identical distances.
pub fn inv_scales(space: &ParamSpace) -> Vec<f64> {
    inv_scale_iter(space).collect()
}

fn inv_scale_iter(space: &ParamSpace) -> impl Iterator<Item = f64> + '_ {
    space.params().iter().map(|p| {
        let w = p.width();
        if w > 0.0 {
            1.0 / w
        } else {
            1.0
        }
    })
}

/// The inverse-distance weighting kernel over `(distance², value)` pairs
/// in ascending selection order. [`PerfDatabase`] and the sharded
/// database accumulate through this exact loop, so their sums are
/// bit-identical whenever they select the same neighbours in the same
/// order.
pub(crate) fn idw_average(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut wsum = 0.0;
    let mut vsum = 0.0;
    for (d2, v) in pairs {
        let w = 1.0 / d2.sqrt().max(1e-12);
        wsum += w;
        vsum += w * v;
    }
    vsum / wsum
}

/// Squared distance in the width-normalised frame.
pub(crate) fn scaled_dist2(inv_scale: &[f64], a: &Point, b: &Point) -> f64 {
    a.iter()
        .zip(b.iter())
        .zip(inv_scale.iter())
        .map(|((x, y), s)| {
            let d = (x - y) * s;
            d * d
        })
        .sum()
}

/// Inserts `(d2, idx)` into the ascending `(d2, idx)`-ordered top-`k`
/// buffer, dropping the worst element when full.
fn offer(nearest: &mut Vec<(f64, usize)>, k: usize, d2: f64, idx: usize) {
    if nearest.len() == k {
        let (wd2, widx) = nearest[k - 1];
        if (d2, idx) >= (wd2, widx) {
            return;
        }
    }
    let pos = nearest.partition_point(|&(ed2, eidx)| (ed2, eidx) < (d2, idx));
    nearest.insert(pos, (d2, idx));
    nearest.truncate(k);
}

/// The inverse-distance-weighted average of the `k` entries nearest to
/// `point` (fewer when `entries` is shorter), found by a linear scan —
/// the selection by `(distance², entry index)` and the weighting order
/// of [`PerfDatabase::try_interpolate`], so any caller holding the same
/// entries in the same order gets bit-identical values. `inv_scale` is
/// the space's [`inv_scales`]. Exact entries are not special-cased:
/// callers answer a point they hold from their own index first. `None`
/// when `entries` is empty.
pub fn idw_scan(
    inv_scale: &[f64],
    entries: &[(Point, f64)],
    k: usize,
    point: &Point,
) -> Option<f64> {
    let k = k.min(entries.len());
    if k == 0 {
        return None;
    }
    let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
    for (i, (p, _)) in entries.iter().enumerate() {
        offer(&mut nearest, k, scaled_dist2(inv_scale, point, p), i);
    }
    Some(idw_average(
        nearest.iter().map(|&(d2, idx)| (d2, entries[idx].1)),
    ))
}

impl PerfDatabase {
    /// Builds an empty database over `space` interpolating with
    /// `k_neighbors` neighbours.
    pub fn new(space: ParamSpace, k_neighbors: usize) -> Self {
        assert!(k_neighbors >= 1, "need at least one neighbour");
        let inv_scale = inv_scale_iter(&space).collect();
        PerfDatabase {
            space,
            log: RwLock::default(),
            inv_scale,
            k_neighbors,
            name: Cow::Borrowed("perf-database"),
        }
    }

    /// The log, folded, for reading.
    fn folded(&self) -> RwLockReadGuard<'_, Log> {
        let read = || self.log.read().unwrap_or_else(PoisonError::into_inner);
        let log = read();
        if log.is_folded() {
            return log;
        }
        drop(log);
        // writers hold `&mut self`, so nothing can append between this
        // fold and the read below
        self.log
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .fold(&self.space);
        read()
    }

    /// Records one measurement. A point measured before keeps the
    /// *better* (lower) of the two observations — re-measuring a lattice
    /// point can only improve its entry, matching the min-of-visits
    /// reduction the paper's resilient estimators already apply.
    /// Amortised O(1): duplicates resolve via the key index (folding
    /// the log first). Panics on a non-finite value or an inadmissible
    /// new point.
    pub fn insert(&mut self, point: Point, value: f64) {
        assert!(value.is_finite(), "database value must be finite");
        let log = self.log.get_mut().unwrap_or_else(PoisonError::into_inner);
        if !log.is_folded() {
            log.fold(&self.space);
        }
        match log.index_of.entry(PointKey::new(&point)) {
            Entry::Occupied(slot) => {
                let old = &mut log.entries[*slot.get()].1;
                if value < *old {
                    *old = value;
                }
            }
            Entry::Vacant(slot) => {
                assert!(
                    self.space.is_admissible(&point),
                    "database point must be admissible: {point:?}"
                );
                slot.insert(log.entries.len());
                log.entries.push((point, value));
                log.folded += 1;
            }
        }
    }

    /// Records one measurement with *newest-wins* semantics: any
    /// previous value at the same point is replaced unconditionally, and
    /// the entry keeps its first-seen position. Measured histories use
    /// this (a later estimate of the same configuration supersedes the
    /// earlier one); cross-run aggregation should prefer
    /// [`Self::insert`].
    ///
    /// Amortised O(1) without hashing: the record is appended to the
    /// log and folded on the next read, or when the log is full (see the
    /// module docs). Panics at once on a non-finite value; an
    /// inadmissible new point panics when the log folds.
    pub fn insert_replacing(&mut self, point: &Point, value: f64) {
        assert!(value.is_finite(), "database value must be finite");
        let log = self.log.get_mut().unwrap_or_else(PoisonError::into_inner);
        if log.entries.len() == log.entries.capacity() {
            log.make_room(&self.space);
        }
        log.entries.push((point.clone(), value));
    }

    /// Folds the log now and sizes it for the records to come, so that
    /// re-measuring points already held appends without growing it. A
    /// search that starts a new descent over known ground (PRO's
    /// `recenter`) calls this at the boundary.
    pub fn compact(&mut self) {
        self.log
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .make_room(&self.space);
    }

    /// Samples `source` on its lattice, keeping each point independently
    /// with probability `keep_fraction` (the paper's database "does not
    /// contain all possible combinations"). The lattice must be finite
    /// and countable ([`ParamSpace::lattice_size`] is `Some`).
    pub fn from_objective<O: Objective + ?Sized, R: Rng + ?Sized>(
        source: &O,
        keep_fraction: f64,
        k_neighbors: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&keep_fraction) && keep_fraction > 0.0,
            "keep_fraction must be in (0, 1]"
        );
        assert!(
            source.space().lattice_size().is_some(),
            "database source must be a discrete objective"
        );
        let mut db = PerfDatabase::new(source.space().clone(), k_neighbors);
        db.name = Cow::Owned(format!("{}-db", source.name()));
        for p in source.space().lattice() {
            if keep_fraction >= 1.0 || rng.random::<f64>() < keep_fraction {
                let v = source.eval(&p);
                db.insert(p, v);
            }
        }
        assert!(
            db.len() >= k_neighbors,
            "database too sparse: {} entries for k={k_neighbors}",
            db.len()
        );
        db
    }

    /// Number of stored measurements (distinct points).
    pub fn len(&self) -> usize {
        self.folded().folded
    }

    /// True when no measurements are stored.
    pub fn is_empty(&self) -> bool {
        self.log
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .is_empty()
    }

    /// Fraction of the lattice covered by exact entries.
    pub fn coverage(&self) -> f64 {
        match self.space.lattice_size() {
            Some(n) if n > 0 => self.len() as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// True when the point has an exact entry.
    pub fn contains(&self, point: &Point) -> bool {
        self.folded().index_of.contains_key(&PointKey::new(point))
    }

    /// The stored value at an exact entry, if present (no
    /// interpolation).
    pub fn get(&self, point: &Point) -> Option<f64> {
        let log = self.folded();
        log.index_of
            .get(&PointKey::new(point))
            .map(|&i| log.entries[i].1)
    }

    /// Inverse-distance-weighted average of the `k` nearest stored
    /// neighbours (exact hit returns the stored value), or `None` on an
    /// empty database.
    pub fn try_interpolate(&self, point: &Point) -> Option<f64> {
        let log = self.folded();
        match log.index_of.get(&PointKey::new(point)) {
            Some(&i) => Some(log.entries[i].1),
            None => idw_scan(
                self.inv_scale.as_slice(),
                &log.entries,
                self.k_neighbors,
                point,
            ),
        }
    }
}

impl Clone for PerfDatabase {
    fn clone(&self) -> Self {
        PerfDatabase {
            space: self.space.clone(),
            log: RwLock::new(
                self.log
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            inv_scale: self.inv_scale.clone(),
            k_neighbors: self.k_neighbors,
            name: self.name.clone(),
        }
    }
}

impl Checkpoint for PerfDatabase {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("perfdb");
        w.pairs(self.folded().entries.iter().map(|(p, v)| (p, *v)));
    }

    /// Restores a saved entry list in its saved order. Entries that are
    /// inadmissible, non-finite or repeated are rejected with
    /// [`CodecError::BadValue`]; the whole list is checked before it
    /// replaces the current one, so a failed restore leaves the database
    /// unchanged.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("perfdb")?;
        let entries = r.pairs()?;
        let mut index_of = PointMap::default();
        for (i, (p, v)) in entries.iter().enumerate() {
            if !self.space.is_admissible(p)
                || !v.is_finite()
                || index_of.insert(PointKey::new(p), i).is_some()
            {
                return Err(CodecError::BadValue(format!(
                    "bad or repeated database entry {p:?}"
                )));
            }
        }
        *self.log.get_mut().unwrap_or_else(PoisonError::into_inner) = Log {
            folded: entries.len(),
            entries,
            index_of,
        };
        Ok(())
    }
}

impl Objective for PerfDatabase {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// # Panics
    /// Panics on an empty database.
    fn eval(&self, x: &Point) -> f64 {
        self.try_interpolate(x)
            .expect("interpolating an empty database")
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use harmony_params::ParamDef;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("a", 0, 10, 1).unwrap(),
            ParamDef::integer("b", 0, 10, 1).unwrap(),
        ])
        .unwrap()
    }

    fn plane() -> FnObjective<impl Fn(&Point) -> f64> {
        FnObjective::new("plane", space(), |p| 2.0 * p[0] + 3.0 * p[1] + 1.0)
    }

    #[test]
    fn exact_hits_return_stored_values() {
        let mut db = PerfDatabase::new(space(), 3);
        let p = Point::from(&[2.0, 3.0][..]);
        db.insert(p.clone(), 42.0);
        assert!(db.contains(&p));
        assert_eq!(db.eval(&p), 42.0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn try_interpolate_handles_empty_and_matches_interpolate() {
        let mut db = PerfDatabase::new(space(), 3);
        let p = Point::from(&[2.0, 3.0][..]);
        assert_eq!(db.try_interpolate(&p), None);
        let entries = vec![
            (Point::from(&[1.0, 1.0][..]), 7.0),
            (Point::from(&[4.0, 4.0][..]), 9.0),
        ];
        for (q, v) in &entries {
            db.insert(q.clone(), *v);
        }
        let want = idw_scan(&inv_scales(&space()), &entries, 3, &p);
        assert!(want.is_some());
        assert_eq!(db.try_interpolate(&p), want);
    }

    #[test]
    fn insert_keeps_the_better_observation() {
        let mut db = PerfDatabase::new(space(), 1);
        let p = Point::from(&[1.0, 1.0][..]);
        db.insert(p.clone(), 2.0);
        db.insert(p.clone(), 1.0); // better: kept
        assert_eq!(db.len(), 1);
        assert_eq!(db.eval(&p), 1.0);
        db.insert(p.clone(), 3.0); // worse: discarded
        assert_eq!(db.len(), 1);
        assert_eq!(db.eval(&p), 1.0);
    }

    #[test]
    fn get_returns_exact_entries_only() {
        let mut db = PerfDatabase::new(space(), 1);
        let p = Point::from(&[1.0, 1.0][..]);
        db.insert(p.clone(), 2.5);
        assert_eq!(db.get(&p), Some(2.5));
        assert_eq!(db.get(&Point::from(&[0.0, 0.0][..])), None);
    }

    #[test]
    fn insert_dedup_leaves_lookups_unchanged() {
        // re-inserting every point with worse values must not perturb
        // any lookup — exact hits or interpolations — bit for bit
        let mut rng = SmallRng::seed_from_u64(5);
        let mut db = PerfDatabase::from_objective(&plane(), 0.5, 3, &mut rng);
        let before: Vec<u64> = space().lattice().map(|p| db.eval(&p).to_bits()).collect();
        let dup: Vec<(Point, f64)> = space()
            .lattice()
            .filter(|p| db.contains(p))
            .map(|p| (p.clone(), db.eval(&p) + 5.0))
            .collect();
        let len = db.len();
        for (p, worse) in dup {
            db.insert(p, worse);
        }
        assert_eq!(db.len(), len, "duplicates must not grow the database");
        let after: Vec<u64> = space().lattice().map(|p| db.eval(&p).to_bits()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn insert_replacing_overwrites() {
        let mut db = PerfDatabase::new(space(), 1);
        let p = Point::from(&[1.0, 1.0][..]);
        db.insert_replacing(&p, 1.0);
        db.insert_replacing(&p, 2.0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.eval(&p), 2.0);
    }

    #[test]
    fn interpolation_is_convex_combination() {
        let mut db = PerfDatabase::new(space(), 4);
        db.insert(Point::from(&[0.0, 0.0][..]), 10.0);
        db.insert(Point::from(&[10.0, 0.0][..]), 20.0);
        db.insert(Point::from(&[0.0, 10.0][..]), 30.0);
        db.insert(Point::from(&[10.0, 10.0][..]), 40.0);
        let v = db.eval(&Point::from(&[5.0, 5.0][..]));
        assert!((10.0..=40.0).contains(&v), "v={v}");
        // symmetric center: equal weights -> exact average
        assert!((v - 25.0).abs() < 1e-9, "v={v}");
    }

    #[test]
    fn nearer_neighbors_dominate() {
        let mut db = PerfDatabase::new(space(), 2);
        db.insert(Point::from(&[0.0, 0.0][..]), 10.0);
        db.insert(Point::from(&[10.0, 0.0][..]), 50.0);
        let near_left = db.eval(&Point::from(&[1.0, 0.0][..]));
        assert!(near_left < 20.0, "near_left={near_left}");
    }

    #[test]
    fn from_objective_full_coverage_is_exact() {
        let mut rng = SmallRng::seed_from_u64(1);
        let db = PerfDatabase::from_objective(&plane(), 1.0, 3, &mut rng);
        assert_eq!(db.coverage(), 1.0);
        for p in space().lattice() {
            assert_eq!(db.eval(&p), plane().eval(&p));
        }
    }

    #[test]
    fn sparse_database_approximates_smooth_objective() {
        let mut rng = SmallRng::seed_from_u64(2);
        let db = PerfDatabase::from_objective(&plane(), 0.5, 4, &mut rng);
        assert!(db.coverage() > 0.3 && db.coverage() < 0.75);
        let mut worst: f64 = 0.0;
        for p in space().lattice() {
            let err = (db.eval(&p) - plane().eval(&p)).abs();
            worst = worst.max(err);
        }
        // plane ranges over [1, 51]; kNN interpolation error stays
        // bounded (corners with one-sided neighbours are the worst case)
        assert!(worst < 12.0, "worst={worst}");
    }

    #[test]
    fn interpolation_respects_anisotropic_scaling() {
        // parameter "a" spans 0..100, "b" spans 0..1; distances must be
        // normalised or "b" would be ignored
        let sp = ParamSpace::new(vec![
            ParamDef::integer("a", 0, 100, 1).unwrap(),
            ParamDef::levels("b", vec![0.0, 1.0]).unwrap(),
        ])
        .unwrap();
        let mut db = PerfDatabase::new(sp, 1);
        db.insert(Point::from(&[50.0, 0.0][..]), 100.0);
        db.insert(Point::from(&[40.0, 1.0][..]), 200.0);
        // query at (49, 1): normalised distance to the b=1 entry is
        // smaller than to the b=0 entry
        let v = db.eval(&Point::from(&[49.0, 1.0][..]));
        assert_eq!(v, 200.0);
    }

    #[test]
    fn the_lazy_log_keeps_the_database_shareable_across_threads() {
        // the threaded server takes `Objective + Sync`
        fn shareable<T: Send + Sync>() {}
        shareable::<PerfDatabase>();
    }

    #[test]
    fn clone_carries_state() {
        let mut rng = SmallRng::seed_from_u64(3);
        let db = PerfDatabase::from_objective(&plane(), 0.6, 2, &mut rng);
        let q = Point::from(&[3.0, 4.0][..]);
        let v = db.eval(&q);
        let copy = db.clone();
        assert_eq!(copy.len(), db.len());
        assert_eq!(copy.eval(&q).to_bits(), v.to_bits());
    }

    #[test]
    fn full_gs2_lattice_build_stays_within_budget() {
        // the Fig. 8 database: every point of the paper-scale GS2
        // lattice. Inserts resolve duplicates through the key index, so
        // this builds in milliseconds; the budget is deliberately
        // generous so slow CI machines pass, while a per-insert rescan
        // would still trip it on much larger spaces
        let gs2 = crate::Gs2Model::paper_scale();
        let mut rng = SmallRng::seed_from_u64(9);
        let start = std::time::Instant::now();
        let db = PerfDatabase::from_objective(&gs2, 1.0, 4, &mut rng);
        let elapsed = start.elapsed();
        assert_eq!(Some(db.len()), gs2.space().lattice_size());
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "full-lattice build took {elapsed:?}"
        );
    }

    #[test]
    fn checkpoint_round_trips_bit_identically() {
        let mut rng = SmallRng::seed_from_u64(11);
        let db = PerfDatabase::from_objective(&plane(), 0.5, 3, &mut rng);
        let bytes = harmony_recovery::save_to_vec(&db);
        let mut back = PerfDatabase::new(space(), 3);
        harmony_recovery::restore_from_slice(&mut back, &bytes).unwrap();
        assert_eq!(back.len(), db.len());
        for p in space().lattice() {
            assert_eq!(back.eval(&p).to_bits(), db.eval(&p).to_bits());
        }
        // insertion order is preserved, so a re-save is byte-identical
        assert_eq!(harmony_recovery::save_to_vec(&back), bytes);
    }

    #[test]
    #[should_panic(expected = "admissible")]
    fn inadmissible_insert_rejected() {
        let mut db = PerfDatabase::new(space(), 1);
        db.insert(Point::from(&[0.5, 0.0][..]), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn empty_interpolation_rejected() {
        let db = PerfDatabase::new(space(), 1);
        db.eval(&Point::from(&[1.0, 1.0][..]));
    }

    #[test]
    #[should_panic(expected = "discrete objective")]
    fn from_objective_refuses_an_uncountable_lattice() {
        let huge = harmony_params::spec::parse_space(
            "a int 0 1000000; b int 0 1000000; c int 0 1000000; d int 0 1000000",
        )
        .unwrap();
        let obj = FnObjective::new("huge", huge, |p| p[0]);
        let _ = PerfDatabase::from_objective(&obj, 1.0, 1, &mut SmallRng::seed_from_u64(1));
    }
}
