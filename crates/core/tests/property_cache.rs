//! Properties pinning the bookkeeping of a simulated tuning session to
//! the encodings and values it must reproduce exactly: the optimizers'
//! measured history (a `PerfDatabase` filled by `insert_replacing`)
//! against a plain first-seen log, and the objective memo's checkpoint
//! (`CachedObjective`) against entries sorted by their `Vec<u64>`
//! coordinate-bit keys, with the restores of both rejecting corrupt
//! lists. All run at `PROPTEST_CASES=1024` in CI.

use harmony_core::optimizer::fill;
use harmony_core::CachedObjective;
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::database::{idw_scan, inv_scales};
use harmony_surface::objective::FnObjective;
use harmony_surface::{Objective, PerfDatabase};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One integer, levels or continuous parameter (continuous ones may have
/// zero width).
fn arb_param() -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        (-20i64..20, 0i64..40, 1i64..5).prop_map(|(lo, span, step)| {
            ParamDef::integer("i", lo, lo + span, step).expect("valid integer param")
        }),
        prop::collection::btree_set(-400i64..400, 1..8).prop_map(|levels| {
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

/// Unit-cube coordinates, mapped into a space by `point_from_unit` (the
/// first `dims` of them are used).
fn arb_units(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, 4), len)
}

fn points(space: &ParamSpace, units: &[Vec<f64>]) -> Vec<Point> {
    units
        .iter()
        .map(|u| space.point_from_unit(&u[..space.dims()]))
        .collect()
}

fn saved(state: &dyn Checkpoint) -> Vec<u8> {
    let mut w = StateWriter::new();
    state.save_state(&mut w);
    w.into_bytes()
}

fn restore(state: &mut dyn Checkpoint, bytes: &[u8]) -> Result<(), CodecError> {
    let mut r = StateReader::new(bytes)?;
    state.restore_state(&mut r)?;
    r.finish()
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn same_bits(a: &Point, b: &Point) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

/// The neighbours an optimizer's history blends.
const K: usize = 4;

/// A `tag` checkpoint listing `entries` after `prefix` (the memo's
/// counters), with its length prefix claiming `len` entries, written
/// field by field.
fn raw_list(tag: &str, prefix: &[usize], len: usize, entries: &[(&[f64], f64)]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.tag(tag);
    for &n in prefix {
        w.usize(n);
    }
    w.usize(len);
    for (coords, v) in entries {
        w.f64_slice(coords);
        w.f64(*v);
    }
    w.into_bytes()
}

/// Restores `bytes` into `state`, demanding `want` (compared by variant)
/// and that the saved state is unchanged.
fn rejected(state: &mut dyn Checkpoint, bytes: &[u8], want: &CodecError) -> Result<(), String> {
    let before = saved(state);
    let err = restore(state, bytes);
    prop_assert!(
        matches!(&err, Err(e) if std::mem::discriminant(e) == std::mem::discriminant(want)),
        "{:?}",
        err
    );
    prop_assert_eq!(saved(state), before, "a rejected restore changed the state");
    Ok(())
}

/// Coordinates the memo property draws from: signed zeros, a NaN, and
/// values whose bit patterns order differently from their magnitudes.
const COORDS: [f64; 7] = [0.0, -0.0, 1.5, -2.25, 1e300, f64::NAN, 7.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn history_log_matches_database_history(
        space in arb_space(),
        pool in arb_units(1..12),
        records in prop::collection::vec((0usize..12, 0.1f64..1e3), 0..60),
        queries in arb_units(1..8),
    ) {
        let pool = points(&space, &pool);
        let mut db = PerfDatabase::new(space.clone(), K);
        // the reference: a log that overwrites a re-measured point in
        // place, at the slot where it was first seen
        let mut log: Vec<(Point, f64)> = Vec::new();
        for &(i, v) in &records {
            let p = &pool[i % pool.len()];
            db.insert_replacing(p, v);
            match log.iter_mut().find(|(q, _)| same_bits(q, p)) {
                Some(entry) => entry.1 = v,
                None => log.push((p.clone(), v)),
            }
            prop_assert_eq!(db.len(), log.len());
        }
        let inv_scale = inv_scales(&space);
        let estimate = |q: &Point| match log.iter().find(|(p, _)| same_bits(p, q)) {
            Some(&(_, v)) => Some(v),
            None => idw_scan(&inv_scale, &log, K, q),
        };
        let queries: Vec<Point> = pool.iter().cloned().chain(points(&space, &queries)).collect();
        for q in &queries {
            prop_assert_eq!(bits(db.try_interpolate(q)), bits(estimate(q)), "query {:?}", q);
        }

        // every other slot is a hole; the reference fills it from the
        // log, or from the batch mean while nothing is recorded
        let values: Vec<Option<f64>> = (0..queries.len())
            .map(|j| (j % 2 == 0).then_some(j as f64 + 0.5))
            .collect();
        let measured: Vec<f64> = values.iter().flatten().copied().collect();
        let mean = measured.iter().sum::<f64>() / measured.len() as f64;
        let expected: Vec<u64> = queries
            .iter()
            .zip(&values)
            .map(|(q, v)| v.unwrap_or_else(|| estimate(q).unwrap_or(mean)).to_bits())
            .collect();
        let filled: Vec<u64> = fill(&db, &queries, &values).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(filled, expected);

        let bytes = saved(&db);
        let listed: Vec<(&[f64], f64)> = log.iter().map(|(p, v)| (p.as_slice(), *v)).collect();
        prop_assert_eq!(&bytes, &raw_list("perfdb", &[], listed.len(), &listed));
        let mut back = PerfDatabase::new(space.clone(), K);
        back.insert_replacing(&pool[0], 1.0); // restore replaces, not merges
        prop_assert!(restore(&mut back, &bytes).is_ok());
        prop_assert_eq!(back.len(), db.len());
        prop_assert_eq!(saved(&back), bytes);
        for q in &queries {
            prop_assert_eq!(bits(back.try_interpolate(q)), bits(db.try_interpolate(q)));
        }
    }

    #[test]
    fn history_restore_rejects_bad_entries(
        space in arb_space(),
        pool in arb_units(1..6),
        value in 0.1f64..1e3,
    ) {
        let pool = points(&space, &pool);
        let mut db = PerfDatabase::new(space.clone(), K);
        for (i, p) in pool.iter().enumerate() {
            db.insert_replacing(p, value + i as f64);
        }
        let p = pool[0].as_slice();
        let upper = space.param(0).upper();
        let mut above = p.to_vec();
        above[0] = upper + 1.0 + upper.abs();
        let mut extra_dim = p.to_vec();
        extra_dim.push(0.0);
        // each corrupt entry follows a good one, which a restore that
        // inserts as it reads would already have taken in
        let good = (pool[pool.len() - 1].as_slice(), value + 7.0);
        let bad_value = CodecError::BadValue(String::new());
        for second in [(&above[..], value), (&extra_dim[..], value), (p, f64::NAN), (p, f64::INFINITY), good] {
            rejected(&mut db, &raw_list("perfdb", &[], 2, &[good, second]), &bad_value)?;
        }
        let whole = raw_list("perfdb", &[], 2, &[good, (p, value)]);
        rejected(&mut db, &whole[..whole.len() - 3], &CodecError::UnexpectedEof)?;
        rejected(&mut db, &raw_list("perfdb", &[], 1 << 40, &[good]), &CodecError::UnexpectedEof)?;
    }

    #[test]
    fn memo_checkpoint_is_the_sorted_bit_key_encoding(
        (dims, evals) in (1usize..=4).prop_flat_map(|dims| {
            let point = prop::collection::vec(0usize..COORDS.len(), dims);
            (Just(dims), prop::collection::vec(point, 0..40))
        }),
    ) {
        let defs = (0..dims).map(|_| ParamDef::integer("x", 0, 1, 1).unwrap()).collect();
        let space = ParamSpace::new(defs).unwrap();
        let obj = FnObjective::new("bits", space, |p| {
            p.iter().map(|c| (c.to_bits() % 1009) as f64).sum::<f64>() + 1.0
        });
        let cached = CachedObjective::new(&obj);
        let mut reference: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
        let (mut hits, mut misses) = (0usize, 0usize);
        for idx in &evals {
            let p = Point::new(idx.iter().map(|&i| COORDS[i]).collect());
            let v = cached.eval(&p);
            let key: Vec<u64> = p.iter().map(f64::to_bits).collect();
            if reference.insert(key, v).is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        prop_assert_eq!((cached.hits(), cached.misses(), cached.len()), (hits, misses, reference.len()));

        let mut w = StateWriter::new();
        w.tag("memo");
        w.usize(hits);
        w.usize(misses);
        w.usize(reference.len());
        for (k, v) in &reference {
            w.usize(k.len());
            for &word in k {
                w.u64(word);
            }
            w.f64(*v);
        }
        let bytes = saved(&cached);
        prop_assert_eq!(&bytes, &w.into_bytes());

        let mut back = CachedObjective::new(&obj);
        prop_assert!(restore(&mut back, &bytes).is_ok());
        prop_assert_eq!(saved(&back), bytes);
        prop_assert_eq!((back.hits(), back.misses(), back.len()), (hits, misses, reference.len()));

        // a point listed twice, or one of another dimension, after a good
        // entry: rejected, leaving the memo as it was
        let one = vec![1.0; dims];
        let other_dims = vec![1.0; dims + 1];
        let bad_value = CodecError::BadValue(String::new());
        for second in [(&one[..], f64::NAN), (&other_dims[..], 1.0)] {
            let bytes = raw_list("memo", &[0, 0], 2, &[(&one[..], 100.0), second]);
            rejected(&mut back, &bytes, &bad_value)?;
        }
        let whole = raw_list("memo", &[0, 0], 1, &[(&one[..], 100.0)]);
        rejected(&mut back, &whole[..whole.len() - 3], &CodecError::UnexpectedEof)?;
        rejected(&mut back, &raw_list("memo", &[0, 0], 1 << 40, &[(&one[..], 100.0)]), &CodecError::UnexpectedEof)?;
    }
}
