//! Properties pinning `warm_start_center` to a plain scan that scores
//! every published entry: for random estimate tiers the chosen center
//! is bit-identical, and the tier's query counters end up exactly where
//! the scan leaves its twin's — also along random sequences of records,
//! publications, clears, restores and `k_neighbors` changes, which the
//! memoised center must follow. Runs at `PROPTEST_CASES=1024` in CI.

use harmony_core::warm_start_center;
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::{restore_from_slice, save_to_vec};
use harmony_surface::SharedPerfDb;
use proptest::prelude::*;

/// Relative step the center's neighbour probes take on continuous axes.
const WARM_EPS: f64 = 0.05;

/// The reference: every entry scored by its own value and the
/// estimates of its admissible neighbours (the published value, else
/// the interpolation of a single-owner database of the same entries),
/// in canonical order, keeping strict improvements only. O(E²)
/// interpolation work.
fn scan_center(estimates: &SharedPerfDb) -> Option<Point> {
    let entries = estimates.entries_canonical();
    let single = estimates.to_database();
    let space = estimates.space().clone();
    let mut best: Option<(f64, Point)> = None;
    for (p, v) in &entries {
        let mut sum = *v;
        let mut n = 1.0;
        for (d, def) in space.params().iter().enumerate() {
            let (below, above) = def.neighbors(p[d], WARM_EPS);
            for coord in [below, above].into_iter().flatten() {
                let mut q = p.clone();
                q.as_mut_slice()[d] = coord;
                if !space.is_admissible(&q) {
                    continue;
                }
                let estimate = estimates.query(&q).or_else(|| single.try_interpolate(&q));
                if let Some(iv) = estimate {
                    sum += iv;
                    n += 1.0;
                }
            }
        }
        let score = sum / n;
        if best.as_ref().is_none_or(|(bs, _)| score < *bs) {
            best = Some((score, p.clone()));
        }
    }
    best.map(|(_, p)| p)
}

/// One integer, levels or continuous parameter (continuous ones may have
/// zero width). Spans are small so random tiers are dense enough for
/// many probes to hit.
fn arb_param() -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        (-6i64..6, 0i64..14, 1i64..4).prop_map(|(lo, span, step)| {
            ParamDef::integer("i", lo, lo + span, step).expect("valid integer param")
        }),
        prop::collection::btree_set(-40i64..40, 1..8).prop_map(|levels| {
            let levels = levels.into_iter().map(|v| v as f64 * 0.25).collect();
            ParamDef::levels("l", levels).expect("valid levels param")
        }),
        (-10.0f64..10.0, 0.0f64..20.0).prop_map(|(lo, width)| {
            ParamDef::continuous("c", lo, lo + width).expect("valid continuous param")
        }),
    ]
}

fn arb_space() -> impl Strategy<Value = ParamSpace> {
    prop::collection::vec(arb_param(), 1..=4)
        .prop_map(|defs| ParamSpace::new(defs).expect("non-empty space"))
}

/// Unit-cube coordinates: either anywhere, or on the 1/20 grid that the
/// continuous neighbour step lands near.
fn arb_unit() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..1.0, (0u32..=20).prop_map(|i| f64::from(i) / 20.0)]
}

/// Estimates of both signs, with repeats and a wide range of magnitudes.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0usize..5).prop_map(|i| [-3.0, -0.5, 0.0, 2.0, 7.25][i]),
        -50.0f64..50.0,
        -1e6f64..1e6,
    ]
}

/// Two tiers holding the same published and pending records.
fn twin_tiers(
    space: &ParamSpace,
    k: usize,
    points: &[Point],
    records: &[(usize, f64, bool)],
    pending: &[(usize, f64)],
) -> (SharedPerfDb, SharedPerfDb) {
    let tiers = (
        SharedPerfDb::new(space.clone(), k),
        SharedPerfDb::new(space.clone(), k),
    );
    for db in [&tiers.0, &tiers.1] {
        for &(i, v, flush) in records {
            db.record(&points[i % points.len()], v);
            if flush {
                db.flush();
            }
        }
        db.flush();
        for &(i, v) in pending {
            db.record(&points[i % points.len()], v);
        }
    }
    tiers
}

fn bits(p: &Option<Point>) -> Option<Vec<u64>> {
    p.as_ref().map(|p| p.iter().map(f64::to_bits).collect())
}

/// The center and the tier's counters match the scan's over a twin.
fn matches_scan(ours: &SharedPerfDb, twin: &SharedPerfDb) -> Result<Option<Point>, String> {
    let center = warm_start_center(ours);
    let want = scan_center(twin);
    prop_assert_eq!(
        bits(&center),
        bits(&want),
        "center {:?} vs {:?}",
        center,
        want
    );
    prop_assert_eq!(ours.stats(), twin.stats());
    prop_assert_eq!(ours.per_shard(), twin.per_shard());
    Ok(center)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn center_and_counters_match_the_full_scan(
        space in arb_space(),
        units in prop::collection::vec(prop::collection::vec(arb_unit(), 4), 1..=200),
        records in prop::collection::vec((0usize..200, arb_value(), 0u8..16), 0..=260),
        pending in prop::collection::vec((0usize..200, arb_value()), 0..4),
        k in 1usize..=6,
    ) {
        let points: Vec<Point> = units
            .iter()
            .map(|u| space.point_from_unit(&u[..space.dims()]))
            .collect();
        let records: Vec<(usize, f64, bool)> =
            records.into_iter().map(|(i, v, f)| (i, v, f == 0)).collect();
        let (ours, twin) = twin_tiers(&space, k, &points, &records, &pending);
        prop_assert!(ours.len() <= 200);
        let center = matches_scan(&ours, &twin)?;
        prop_assert_eq!(center.is_some(), !ours.is_empty());
        if let Some(c) = &center {
            prop_assert!(ours.query(c).is_some(), "the center is a published entry");
            prop_assert!(twin.query(c).is_some());
        }
        // a second call reads the same snapshot and picks the same center
        prop_assert_eq!(bits(&matches_scan(&ours, &twin)?), bits(&center));
    }
}

/// One step of a tier's life, applied to both twins.
#[derive(Debug, Clone)]
enum Op {
    /// A pending record: invisible until flushed, so the memo stays.
    Record(usize, f64),
    /// A publishing flush (when anything is pending), then an empty one.
    Flush,
    Clear,
    /// `save_state`, which flushes, kept for a later `Restore`.
    Save,
    Restore,
    SetK(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..11, 0usize..60, arb_value(), 1usize..=6).prop_map(|(kind, i, v, k)| match kind {
        0..=3 => Op::Record(i, v),
        4..=6 => Op::Flush,
        7 => Op::Clear,
        8 => Op::Save,
        9 => Op::Restore,
        _ => Op::SetK(k),
    })
}

/// `calls` centers from `ours` (memoised) and the scan over `twin`,
/// compared after every call.
fn centers(ours: &SharedPerfDb, twin: &SharedPerfDb, calls: usize) -> Result<(), String> {
    for _ in 0..calls {
        matches_scan(ours, twin)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoised_center_and_counters_follow_every_publication(
        space in arb_space(),
        units in prop::collection::vec(prop::collection::vec(arb_unit(), 4), 1..=60),
        records in prop::collection::vec((0usize..60, arb_value(), 0u8..8), 0..=80),
        k in 1usize..=6,
        ops in prop::collection::vec((arb_op(), 1usize..=3), 1..=16),
    ) {
        let points: Vec<Point> = units
            .iter()
            .map(|u| space.point_from_unit(&u[..space.dims()]))
            .collect();
        let records: Vec<(usize, f64, bool)> =
            records.into_iter().map(|(i, v, f)| (i, v, f == 0)).collect();
        let (mut ours, mut twin) = twin_tiers(&space, k, &points, &records, &[]);
        let mut saved = save_to_vec(&ours);
        centers(&ours, &twin, 2)?;
        for (op, calls) in ops {
            match op {
                Op::Record(i, v) => {
                    for db in [&ours, &twin] {
                        db.record(&points[i % points.len()], v);
                    }
                }
                Op::Flush => {
                    ours.flush();
                    twin.flush();
                    centers(&ours, &twin, calls)?;
                    prop_assert_eq!(ours.pending_len(), 0);
                    ours.flush();
                    twin.flush();
                }
                Op::Clear => {
                    ours.clear();
                    twin.clear();
                }
                Op::Save => {
                    saved = save_to_vec(&ours);
                    prop_assert_eq!(&save_to_vec(&twin), &saved);
                }
                Op::Restore => {
                    restore_from_slice(&mut ours, &saved).expect("a saved tier restores");
                    restore_from_slice(&mut twin, &saved).expect("a saved tier restores");
                }
                Op::SetK(k) => {
                    ours.k_neighbors = k;
                    twin.k_neighbors = k;
                }
            }
            centers(&ours, &twin, calls)?;
        }
    }
}

fn point(coords: &[f64]) -> Point {
    Point::from(coords)
}

#[test]
fn equal_scores_pick_the_first_entry_in_canonical_order() {
    let line = ParamSpace::new(vec![ParamDef::integer("x", -5, 5, 1).unwrap()]).unwrap();
    // mirror images score exactly alike; 3.0's key bits sort before
    // -3.0's (the sign bit), so canonical order puts 3 first
    let records = [(0, 4.0, false), (1, 4.0, false)];
    let points = [point(&[-3.0]), point(&[3.0])];
    for k in [1, 2, 5] {
        let (ours, twin) = twin_tiers(&line, k, &points, &records, &[]);
        assert_eq!(ours.entries_canonical()[0].0, point(&[3.0]));
        let center = matches_scan(&ours, &twin).unwrap();
        assert_eq!(center, Some(point(&[3.0])), "k = {k}");
    }

    // (3,1) and (4,1) both score exactly 3 with k = 1, but (4,1) has
    // two misses against (3,1)'s one, so its bound is lower and it is
    // scored first; the canonically first (3,1) must still win
    let grid = ParamSpace::new(vec![
        ParamDef::integer("a", 0, 4, 1).unwrap(),
        ParamDef::integer("b", 0, 4, 1).unwrap(),
    ])
    .unwrap();
    let points = [
        point(&[3.0, 1.0]),
        point(&[3.0, 2.0]),
        point(&[3.0, 3.0]),
        point(&[4.0, 1.0]),
    ];
    let records = [
        (0, 2.0, false),
        (1, 8.0, false),
        (2, 8.0, false),
        (3, 1.0, false),
    ];
    let (ours, twin) = twin_tiers(&grid, 1, &points, &records, &[]);
    let center = matches_scan(&ours, &twin).unwrap();
    assert_eq!(center, Some(point(&[3.0, 1.0])));
}

#[test]
fn a_lone_low_outlier_weakens_the_bound_but_not_the_center() {
    let space = ParamSpace::new(vec![
        ParamDef::integer("a", 0, 10, 1).unwrap(),
        ParamDef::integer("b", 0, 10, 1).unwrap(),
    ])
    .unwrap();
    // the outlier at (0,0) is v_min, so every miss's bound term is -100
    // and the bound excludes nothing; its published neighbours are
    // expensive, so it still loses to the cheap basin around (8,8)
    let mut points = vec![point(&[0.0, 0.0]), point(&[1.0, 0.0]), point(&[0.0, 1.0])];
    let mut records = vec![(0, -100.0, false), (1, 500.0, false), (2, 500.0, false)];
    for (x, y, v) in [
        (8.0, 8.0, 2.0),
        (7.0, 8.0, 2.5),
        (9.0, 8.0, 2.5),
        (8.0, 7.0, 2.5),
    ] {
        records.push((points.len(), v, false));
        points.push(point(&[x, y]));
    }
    for (x, y) in [(4.0, 5.0), (5.0, 2.0), (2.0, 6.0), (6.0, 4.0), (10.0, 0.0)] {
        records.push((points.len(), 20.0 + x, false));
        points.push(point(&[x, y]));
    }
    // k beyond the entry count blends every entry
    for k in [1, 3, 6, 20] {
        let (ours, twin) = twin_tiers(&space, k, &points, &records, &[]);
        let center = matches_scan(&ours, &twin).unwrap().unwrap();
        assert!(center[0] >= 7.0 && center[1] >= 7.0, "k = {k}: {center:?}");
    }
}
