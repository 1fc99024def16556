//! A sparse performance database with indexed nearest-neighbour
//! interpolation.
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
//! # Performance architecture
//!
//! Interpolation queries dominate the simulated experiments (every
//! optimizer probe of a missing lattice point is one), so lookups are
//! served from a spatial *bucket-grid index*: stored points hash into
//! uniform grid cells over the width-normalised coordinates, and a query
//! expands outward cell ring by cell ring, stopping as soon as the
//! `k`-th best candidate is provably closer than any unvisited cell.
//! Only a neighbourhood of the query is ever touched instead of the full
//! entry list. Results are *bit-identical* to the brute-force scan
//! ([`PerfDatabase::try_interpolate_scan`]): both select the `k` nearest by
//! `(distance², insertion index)` and accumulate weights in that
//! ascending order.
//!
//! Repeated queries for the same missing lattice point (optimizers
//! revisit; the quality curve re-evaluates) are answered from a
//! lattice-keyed memo that is invalidated on every write.

use crate::objective::Objective;
use harmony_params::{ParamSpace, Point, PointKey, PointMap};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use rand::Rng;
use std::collections::HashMap;
use std::sync::RwLock;

/// Total-cell budget for the bucket grid (keeps memory bounded in any
/// dimensionality).
const GRID_CELL_BUDGET: f64 = 4096.0;

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
    /// Point key → index into `entries` (O(1) exact lookup and replace).
    index_of: PointMap<usize>,
    entries: Vec<(Point, f64)>,
    /// Inverse coordinate scales (1/width per parameter) for distance.
    inv_scale: Vec<f64>,
    /// Lower bound per parameter (origin of the normalised frame).
    origin: Vec<f64>,
    /// Number of neighbours used for interpolation.
    pub k_neighbors: usize,
    name: String,
    grid: Grid,
    /// Memo of interpolated values for missing points, keyed like
    /// `index_of`; cleared on every insert.
    memo: RwLock<PointMap<f64>>,
}

impl Clone for PerfDatabase {
    fn clone(&self) -> Self {
        PerfDatabase {
            space: self.space.clone(),
            index_of: self.index_of.clone(),
            entries: self.entries.clone(),
            inv_scale: self.inv_scale.clone(),
            origin: self.origin.clone(),
            k_neighbors: self.k_neighbors,
            name: self.name.clone(),
            grid: self.grid.clone(),
            memo: RwLock::new(read_lock(&self.memo).clone()),
        }
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
    space
        .params()
        .iter()
        .map(|p| {
            let w = p.width();
            if w > 0.0 {
                1.0 / w
            } else {
                1.0
            }
        })
        .collect()
}

/// The inverse-distance weighting kernel over `(distance², value)` pairs
/// in ascending selection order. Both [`PerfDatabase`] paths and the
/// sharded database accumulate through this exact loop, so their sums
/// are bit-identical whenever they select the same neighbours in the
/// same order.
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
fn scaled_dist2(inv_scale: &[f64], a: &Point, b: &Point) -> f64 {
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
/// of [`PerfDatabase::try_interpolate_scan`], so any caller holding the same
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

/// Reads a lock, recovering from poisoning (the data is a plain memo and
/// stays consistent even if a panicking thread held the lock).
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// The bucket grid: entry indices hashed by integer cell coordinates in
/// the width-normalised frame. Cells are cubes of side `1/res` per
/// (normalised) dimension; `res` is re-chosen whenever the database has
/// grown 4× since the last build, so maintenance stays amortised O(1)
/// per insert.
#[derive(Debug, Clone, Default)]
struct Grid {
    /// Cells per dimension; 0 until first build.
    res: usize,
    /// Cell coords → entry indices in ascending insertion order.
    cells: HashMap<Vec<i64>, Vec<usize>>,
    /// Entry count at the last (re)build.
    built_len: usize,
}

impl Grid {
    fn resolution_for(len: usize, dims: usize) -> usize {
        // target ~2 entries per cell, capped by the total cell budget
        let target = ((len as f64 / 2.0).powf(1.0 / dims as f64)).floor() as usize;
        let cap = GRID_CELL_BUDGET.powf(1.0 / dims as f64).floor() as usize;
        target.clamp(1, cap.max(1))
    }
}

impl PerfDatabase {
    /// Builds an empty database over `space` interpolating with
    /// `k_neighbors` neighbours.
    pub fn new(space: ParamSpace, k_neighbors: usize) -> Self {
        assert!(k_neighbors >= 1, "need at least one neighbour");
        let inv_scale = inv_scales(&space);
        let origin = space.params().iter().map(|p| p.lower()).collect();
        PerfDatabase {
            space,
            index_of: PointMap::default(),
            entries: Vec::new(),
            inv_scale,
            origin,
            k_neighbors,
            name: "perf-database".into(),
            grid: Grid::default(),
            memo: RwLock::new(PointMap::default()),
        }
    }

    /// The grid cell containing `point` (in the normalised frame).
    /// Admissible points land in `0..res` per dimension; the upper
    /// boundary is folded into the last cell.
    fn cell_of(&self, point: &Point) -> Vec<i64> {
        let res = self.grid.res as f64;
        point
            .iter()
            .zip(self.origin.iter())
            .zip(self.inv_scale.iter())
            .map(|((x, lo), s)| {
                let t = (x - lo) * s; // in [0, 1] for admissible points
                ((t * res).floor() as i64).min(self.grid.res as i64 - 1)
            })
            .collect()
    }

    fn rebuild_grid(&mut self) {
        self.grid.res = Grid::resolution_for(self.entries.len(), self.space.dims().max(1));
        self.grid.built_len = self.entries.len();
        self.grid.cells.clear();
        for i in 0..self.entries.len() {
            let cell = self.cell_of(&self.entries[i].0);
            self.grid.cells.entry(cell).or_default().push(i);
        }
    }

    /// Records one measurement. A point measured before keeps the
    /// *better* (lower) of the two observations — re-measuring a lattice
    /// point can only improve its entry, matching the min-of-visits
    /// reduction the paper's resilient estimators already apply.
    /// Amortised O(1): resolves duplicates via the key index, appends to
    /// the grid cell, and rebuilds the grid only on 4× growth.
    pub fn insert(&mut self, point: Point, value: f64) {
        self.upsert(point, value, false);
    }

    /// Records one measurement with *newest-wins* semantics: any
    /// previous value at the same point is replaced unconditionally.
    /// Rolling measured histories use this (a later estimate of the same
    /// configuration supersedes the earlier one); cross-run aggregation
    /// should prefer [`Self::insert`].
    pub fn insert_replacing(&mut self, point: Point, value: f64) {
        self.upsert(point, value, true);
    }

    fn upsert(&mut self, point: Point, value: f64, replace: bool) {
        assert!(
            self.space.is_admissible(&point),
            "database point must be admissible: {point:?}"
        );
        assert!(value.is_finite(), "database value must be finite");
        let k = PointKey::new(&point);
        if let Some(&i) = self.index_of.get(&k) {
            if !replace && value >= self.entries[i].1 {
                // keep-min no-op: stored state unchanged, memo stays valid
                return;
            }
            self.entries[i].1 = value;
        } else {
            let i = self.entries.len();
            self.index_of.insert(k, i);
            self.entries.push((point, value));
            if self.grid.res == 0 || self.entries.len() > 4 * self.grid.built_len {
                self.rebuild_grid();
            } else {
                let cell = self.cell_of(&self.entries[i].0);
                self.grid.cells.entry(cell).or_default().push(i);
            }
        }
        let mut memo = write_lock(&self.memo);
        if !memo.is_empty() {
            memo.clear();
        }
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
        db.name = format!("{}-db", source.name());
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

    /// Number of stored measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no measurements are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        self.index_of.contains_key(&PointKey::new(point))
    }

    /// The stored value at an exact entry, if present (no
    /// interpolation).
    pub fn get(&self, point: &Point) -> Option<f64> {
        self.index_of
            .get(&PointKey::new(point))
            .map(|&i| self.entries[i].1)
    }

    /// Number of memoised interpolation results currently held.
    pub fn memo_len(&self) -> usize {
        read_lock(&self.memo).len()
    }

    /// Weights the selected neighbours (ascending `(d2, idx)` order) —
    /// shared verbatim by the indexed and scan paths so both produce
    /// bit-identical sums.
    fn weighted_average(&self, nearest: &[(f64, usize)]) -> f64 {
        idw_average(nearest.iter().map(|&(d2, idx)| (d2, self.entries[idx].1)))
    }

    /// Brute-force reference interpolation: linear scan over all entries,
    /// or `None` on an empty database. Kept public as the semantic
    /// reference for [`Self::try_interpolate`] (property tests assert
    /// exact equality) and as the baseline the micro-benchmarks compare
    /// against. Does not consult or fill the memo.
    pub fn try_interpolate_scan(&self, point: &Point) -> Option<f64> {
        if self.entries.is_empty() {
            return None;
        }
        if let Some(&i) = self.index_of.get(&PointKey::new(point)) {
            return Some(self.entries[i].1);
        }
        idw_scan(&self.inv_scale, &self.entries, self.k_neighbors, point)
    }

    /// Selects the `k` nearest entries via the bucket grid: visits cell
    /// rings of increasing Chebyshev radius around the query's cell and
    /// stops once the worst kept candidate is closer than `r·h`, the
    /// least possible distance to any cell not yet visited.
    fn select_grid(&self, point: &Point, k: usize) -> Vec<(f64, usize)> {
        let res = self.grid.res;
        // normalised cell side
        let h = 1.0 / res as f64;
        // query cell, deliberately unclamped: the ring bound needs true
        // cell distances even for off-grid queries
        let qcell: Vec<i64> = point
            .iter()
            .zip(self.origin.iter())
            .zip(self.inv_scale.iter())
            .map(|((x, lo), s)| (((x - lo) * s) * res as f64).floor() as i64)
            .collect();
        let max_r = qcell
            .iter()
            .map(|&q| q.max(res as i64 - 1 - q).max(0))
            .max()
            .unwrap_or(0);

        let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for r in 0..=max_r {
            for_each_ring_cell(&qcell, r, res as i64, &mut |cell| {
                if let Some(indices) = self.grid.cells.get(cell) {
                    for &i in indices {
                        let d2 = scaled_dist2(&self.inv_scale, point, &self.entries[i].0);
                        offer(&mut nearest, k, d2, i);
                    }
                }
            });
            // after ring r every unvisited point is ≥ r·h away
            if nearest.len() == k {
                let bound = r as f64 * h;
                if nearest[k - 1].0 <= bound * bound {
                    break;
                }
            }
        }
        debug_assert_eq!(nearest.len(), k, "ring sweep visited every cell");
        nearest
    }

    /// Grid-indexed interpolation without consulting or filling the
    /// memo, or `None` on an empty database — the kernel of
    /// [`Self::try_interpolate`], exposed so benchmarks and tests can
    /// measure the index itself rather than memo hits.
    pub fn try_interpolate_indexed(&self, point: &Point) -> Option<f64> {
        if self.entries.is_empty() {
            return None;
        }
        if let Some(&i) = self.index_of.get(&PointKey::new(point)) {
            return Some(self.entries[i].1);
        }
        let k = self.k_neighbors.min(self.entries.len());
        Some(self.weighted_average(&self.select_grid(point, k)))
    }

    /// Inverse-distance-weighted average of the `k` nearest stored
    /// neighbours (exact hit returns the stored value), or `None` on an
    /// empty database. Served from the bucket-grid index plus a
    /// lattice-keyed memo; bit-identical to
    /// [`Self::try_interpolate_scan`].
    pub fn try_interpolate(&self, point: &Point) -> Option<f64> {
        if self.entries.is_empty() {
            return None;
        }
        let key = PointKey::new(point);
        if let Some(&i) = self.index_of.get(&key) {
            return Some(self.entries[i].1);
        }
        if let Some(&v) = read_lock(&self.memo).get(&key) {
            return Some(v);
        }
        let k = self.k_neighbors.min(self.entries.len());
        let nearest = self.select_grid(point, k);
        let v = self.weighted_average(&nearest);
        write_lock(&self.memo).insert(key, v);
        Some(v)
    }
}

/// Calls `f` on every valid cell (all coordinates in `0..res`) at
/// Chebyshev distance exactly `r` from `center`, enumerating only the
/// ring surface.
fn for_each_ring_cell(center: &[i64], r: i64, res: i64, f: &mut impl FnMut(&[i64])) {
    let mut cell = vec![0i64; center.len()];
    ring_rec(center, r, res, 0, false, &mut cell, f);
}

fn ring_rec(
    center: &[i64],
    r: i64,
    res: i64,
    dim: usize,
    pinned: bool,
    cell: &mut [i64],
    f: &mut impl FnMut(&[i64]),
) {
    if dim == center.len() {
        if pinned || r == 0 {
            f(cell);
        }
        return;
    }
    let last = dim + 1 == center.len();
    let lo = (center[dim] - r).max(0);
    let hi = (center[dim] + r).min(res - 1);
    for c in lo..=hi {
        let at_face = (c - center[dim]).abs() == r;
        // the final dimension must pin the radius if no earlier one did
        if last && r > 0 && !pinned && !at_face {
            continue;
        }
        cell[dim] = c;
        ring_rec(center, r, res, dim + 1, pinned || at_face, cell, f);
    }
}

impl Checkpoint for PerfDatabase {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("perfdb");
        w.usize(self.entries.len());
        for (p, v) in &self.entries {
            w.point(p);
            w.f64(*v);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("perfdb")?;
        let n = r.usize()?;
        self.index_of.clear();
        self.entries.clear();
        self.grid = Grid::default();
        write_lock(&self.memo).clear();
        for _ in 0..n {
            let p = r.point()?;
            let v = r.f64()?;
            if !self.space.is_admissible(&p) || !v.is_finite() {
                return Err(CodecError::BadValue(format!("bad database entry {p:?}")));
            }
            self.insert(p, v);
        }
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
        assert_eq!(db.try_interpolate_scan(&p), None);
        assert_eq!(db.try_interpolate_indexed(&p), None);
        db.insert(Point::from(&[1.0, 1.0][..]), 7.0);
        db.insert(Point::from(&[4.0, 4.0][..]), 9.0);
        let want = db.try_interpolate_scan(&p);
        assert!(want.is_some());
        assert_eq!(db.try_interpolate(&p), want);
        assert_eq!(db.try_interpolate_indexed(&p), want);
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
        db.insert_replacing(p.clone(), 1.0);
        db.insert_replacing(p.clone(), 2.0);
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
    fn indexed_matches_scan_on_sparse_database() {
        let mut rng = SmallRng::seed_from_u64(7);
        let db = PerfDatabase::from_objective(&plane(), 0.4, 3, &mut rng);
        for p in space().lattice() {
            let a = db.eval(&p);
            let b = db.try_interpolate_scan(&p).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "at {p:?}");
        }
    }

    #[test]
    fn memo_fills_and_invalidates() {
        let mut db = PerfDatabase::new(space(), 2);
        db.insert(Point::from(&[0.0, 0.0][..]), 10.0);
        db.insert(Point::from(&[10.0, 10.0][..]), 20.0);
        let q = Point::from(&[5.0, 5.0][..]);
        let v1 = db.eval(&q);
        assert_eq!(db.memo_len(), 1);
        assert_eq!(db.eval(&q).to_bits(), v1.to_bits());
        // a write must invalidate: the same query now sees 3 entries
        db.insert(Point::from(&[5.0, 6.0][..]), 99.0);
        assert_eq!(db.memo_len(), 0);
        let v2 = db.eval(&q);
        assert_ne!(v1.to_bits(), v2.to_bits());
        assert_eq!(v2.to_bits(), db.try_interpolate_scan(&q).unwrap().to_bits());
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
        // lattice. The indexed insert path builds this in milliseconds;
        // the budget is deliberately generous so slow CI machines pass,
        // while a reintroduced per-insert rescan would still trip it on
        // much larger spaces
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
