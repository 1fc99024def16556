//! Warm-starting new tuning sessions from neighbours' measurements.
//!
//! A session joining an ongoing multi-session tuning effort should not
//! start its simplex at the default center when dozens of neighbours
//! have already published estimates into the shared tier
//! ([`SharedPerfDb`]). [`warm_start_center`] turns those published
//! estimates into a starting point, and the caller recenters its
//! optimizer there (`harmony_core`'s `ProOptimizer::recenter`, say)
//! before the session starts.
//!
//! The raw minimum of the published estimates is an *extreme-value
//! biased* record: under min-of-K estimation the luckiest draw ever
//! seen wins, not the best configuration. So instead of trusting it,
//! each published point is scored by its own estimate averaged with the
//! inverse-distance interpolation (§6's mechanism for unmeasured
//! points) one lattice step away in every direction — a lucky outlier
//! surrounded by expensive neighbourhoods scores poorly, while a point
//! inside a genuinely cheap basin keeps its low score. The center is
//! the published point with the lowest smoothed score; among equal
//! scores, the first in canonical (lattice-key ascending) order.
//!
//! # Cost
//!
//! The tier computes the center at most once per publication
//! generation and `k_neighbors`: every [`SharedPerfDb::flush`] that
//! publishes and every [`SharedPerfDb::clear`] starts a new generation,
//! and a call that finds the center of the current one returns it. A
//! computation reads the published snapshot once
//! ([`SharedPerfDb::entries_canonical`]) and looks each admissible
//! neighbour of each entry up once. A miss must be interpolated over
//! the whole snapshot ([`idw_scan`], O(E) for E entries), and that is
//! the only O(E)-per-probe work; it runs only for the entries the bound
//! below cannot exclude. Buffers are O(E · dims). Each lookup counts as
//! one [`SharedPerfDb::query`] would, and a call that reuses the center
//! counts the same hits and misses again, so the tier's
//! [`SharedDbStats`](crate::SharedDbStats) do not depend on which call
//! computed.
//!
//! # Exactness
//!
//! An inverse-distance average of published values is a convex
//! combination, so it is never below `v_min`, the lowest published
//! value. An entry with value `v`, hit values `h` and `m` misses among
//! its `n − 1` probes therefore scores at least
//! `(v + Σh + m·v_min) / n`. Floating-point rounding in the averages and
//! the sums can undercut that by a few ulps of the magnitudes involved,
//! so the bound is lowered by `2⁻³⁰·(|v| + Σ|h| + m·max|v|) / n` (plus
//! the smallest normal number, for subnormal inputs) — orders of
//! magnitude above any rounding error for the few neighbours a point
//! has, for values of either sign. Entries are then scored exactly in
//! ascending order of that bound, and the scan stops at the first entry
//! whose bound exceeds the best exact score: every entry after it
//! scores strictly worse. A visited entry is scored exactly as a
//! plain scan over all entries would score it — probes summed in the
//! same order, each miss interpolated over the canonical entries by
//! `(distance², canonical index)`, as [`SharedPerfDb::to_database`]'s
//! interpolation selects them — and
//! the winner is the minimum of `(score, canonical index)`, the entry a
//! canonical-order scan keeping only strict improvements picks. So the
//! center is bit-identical to scoring every entry.
//!
//! # Precondition
//!
//! The center is a pure function of the published snapshot only if no
//! flush publishes while it is computed. A computation across a
//! publication is returned but not kept, so no call after a flush
//! returns gets an older snapshot's center. The drivers flush only at
//! wave barriers (`harmony_cluster::pool::par_waves_in`), so every
//! session warm-starting within a wave sees the same snapshot and
//! picks the same center regardless of scheduling, and the wave
//! computes it once.

use crate::database::{idw_scan, inv_scales};
use crate::sharded::ProbeCounts;
use crate::SharedPerfDb;
use harmony_params::{ParamSpace, Point};

/// Relative step used for continuous parameters when probing a
/// neighbour of a published point (lattice parameters step by their own
/// stride instead).
const WARM_EPS: f64 = 0.05;

/// Relative rounding slack subtracted from each entry's lower bound
/// (see the module docs).
const BOUND_SLACK: f64 = 1.0 / (1u64 << 30) as f64;

/// Calls `f` on each admissible lattice neighbour of `p`: dimensions
/// ascending, below before above — the order the score sums them in.
fn for_each_probe(space: &ParamSpace, p: &Point, mut f: impl FnMut(&Point)) {
    let mut q = p.clone();
    for (d, def) in space.params().iter().enumerate() {
        let (below, above) = def.neighbors(p[d], WARM_EPS);
        for coord in [below, above].into_iter().flatten() {
            q.as_mut_slice()[d] = coord;
            if space.is_admissible(&q) {
                f(&q);
            }
        }
        q.as_mut_slice()[d] = p[d];
    }
}

/// The starting center for a new session: the published point with the
/// lowest neighbourhood-smoothed estimate (see the module docs), or
/// `None` while nothing is published (cold start — the caller keeps its
/// default initial simplex). The returned point is always admissible:
/// it is one of the published entries. Computed once per publication
/// (see the module docs).
pub fn warm_start_center(estimates: &SharedPerfDb) -> Option<Point> {
    estimates.memo_center(|counts| compute_center(estimates, counts))
}

/// Scores the published snapshot, tallying every lookup into `counts`.
fn compute_center(estimates: &SharedPerfDb, counts: &mut ProbeCounts) -> Option<Point> {
    let entries = estimates.entries_canonical();
    let space = estimates.space();
    let v_min = entries.iter().map(|e| e.1).fold(f64::INFINITY, f64::min);
    let v_abs = entries.iter().map(|e| e.1.abs()).fold(0.0, f64::max);

    // Pass 1: every probe once, and a lower bound on every score.
    // `probes` holds each probe's hit value (`None`: a miss) in probe
    // order; `ranked` holds (bound, canonical index, first probe).
    let mut probes: Vec<Option<f64>> = Vec::new();
    let mut ranked: Vec<(f64, usize, usize)> = Vec::with_capacity(entries.len());
    for (i, (p, v)) in entries.iter().enumerate() {
        let start = probes.len();
        let (mut lo, mut mag, mut n) = (*v, v.abs(), 1.0);
        for_each_probe(space, p, |q| {
            let hit = estimates.probe(q, counts);
            let (term, size) = hit.map_or((v_min, v_abs), |h| (h, h.abs()));
            lo += term;
            mag += size;
            n += 1.0;
            probes.push(hit);
        });
        let bound = (lo - BOUND_SLACK * mag) / n - f64::MIN_POSITIVE;
        // an overflowed bound (NaN) excludes nothing
        let bound = if bound.is_nan() {
            f64::NEG_INFINITY
        } else {
            bound
        };
        ranked.push((bound, i, start));
    }
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // Pass 2: exact scores in bound order until the bound excludes the
    // rest.
    let inv_scale = inv_scales(space);
    let k = estimates.k_neighbors;
    let mut best: Option<(f64, usize)> = None;
    for &(bound, i, start) in &ranked {
        if best.is_some_and(|(score, _)| bound > score) {
            break;
        }
        let (p, v) = &entries[i];
        let mut outcomes = probes[start..].iter().copied();
        let mut sum = *v;
        let mut n = 1.0;
        for_each_probe(space, p, |q| {
            sum += outcomes.next().flatten().unwrap_or_else(|| {
                idw_scan(&inv_scale, &entries, k, q).expect("the snapshot is not empty")
            });
            n += 1.0;
        });
        let score = sum / n;
        if best.is_none_or(|b| (score, i) < b) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| entries[i].0.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::ParamDef;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("a", 0, 10, 1).unwrap(),
            ParamDef::integer("b", 0, 10, 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn empty_tier_gives_no_center() {
        let db = SharedPerfDb::new(space(), 2);
        assert_eq!(warm_start_center(&db), None);
    }

    #[test]
    fn single_entry_is_the_center() {
        let db = SharedPerfDb::new(space(), 1);
        db.record(&Point::from(&[4.0, 7.0][..]), 3.0);
        db.flush();
        assert_eq!(warm_start_center(&db), Some(Point::from(&[4.0, 7.0][..])));
    }

    #[test]
    fn lucky_outlier_loses_to_a_cheap_basin() {
        let db = SharedPerfDb::new(space(), 1);
        // a lucky min-of-K draw at (2,2) surrounded by expensive
        // measurements...
        db.record(&Point::from(&[2.0, 2.0][..]), 1.0);
        for (x, y) in [(1.0, 2.0), (3.0, 2.0), (2.0, 1.0), (2.0, 3.0)] {
            db.record(&Point::from(&[x, y][..]), 50.0);
        }
        // ...versus a consistently cheap basin around (8,8)
        db.record(&Point::from(&[8.0, 8.0][..]), 2.0);
        for (x, y) in [(7.0, 8.0), (9.0, 8.0), (8.0, 7.0), (8.0, 9.0)] {
            db.record(&Point::from(&[x, y][..]), 2.5);
        }
        db.flush();
        let center = warm_start_center(&db).unwrap();
        assert!(
            center[0] >= 7.0 && center[1] >= 7.0,
            "picked the outlier: {center:?}"
        );
        // deterministic: repeated calls agree exactly
        assert_eq!(warm_start_center(&db), Some(center));
    }
}
