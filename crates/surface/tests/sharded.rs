//! Integration tests pinning [`SharedPerfDb`] to the single-owner
//! [`PerfDatabase`] semantics: a lockstep property test over random
//! operation sequences, a restore property over corrupt entry lists for
//! both, a thread-interleaving equivalence check, a reader/writer
//! stress test of the lock-free snapshot path, and two races on the
//! memoised warm-start center.

use harmony_surface::{warm_start_center, PerfDatabase, SharedPerfDb};
use proptest::prelude::*;

use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::{restore_from_slice, save_to_vec, CodecError, StateWriter};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", 0, 6, 1).unwrap(),
        ParamDef::integer("y", 0, 6, 1).unwrap(),
    ])
    .unwrap()
}

fn pt(x: i64, y: i64) -> Point {
    Point::new(vec![x as f64, y as f64])
}

/// Reference model: keep-min map keyed by coordinates.
fn model_insert(model: &mut BTreeMap<(u64, u64), f64>, p: &Point, v: f64) {
    let k = (p[0].to_bits(), p[1].to_bits());
    let e = model.entry(k).or_insert(v);
    if v < *e {
        *e = v;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `record`/`flush` sequences leave the sharded database
    /// observationally identical — bit for bit — to a single-owner
    /// [`PerfDatabase`] built by canonical keep-min insertion: every
    /// exact lookup agrees on the full lattice.
    #[test]
    fn lockstep_with_single_owner_database(
        ops in prop::collection::vec(
            (0i64..7, 0i64..7, 0.0f64..100.0, 0usize..4),
            1..80,
        ),
    ) {
        let shared = SharedPerfDb::new(space(), 4);
        let mut model = BTreeMap::new();
        for (x, y, v, flush_sel) in ops {
            let p = pt(x, y);
            shared.record(&p, v);
            model_insert(&mut model, &p, v);
            if flush_sel == 0 {
                shared.flush();
            }
        }
        shared.flush();

        // entry sets agree exactly
        prop_assert_eq!(shared.len(), model.len());
        let single = shared.to_database();
        prop_assert_eq!(single.len(), model.len());

        for p in space().lattice() {
            let k = (p[0].to_bits(), p[1].to_bits());
            // exact lookups agree with the model and the single owner
            let got = shared.query(&p);
            prop_assert_eq!(got, model.get(&k).copied());
            prop_assert_eq!(got, single.get(&p));
        }
    }

    /// A saved entry list with one corruption — an inadmissible, non-
    /// finite or repeated entry at any position, a cut at any byte, or a
    /// length prefix claiming 2^40 entries — fails to restore into either
    /// database and changes nothing: entries, pending records and
    /// counters stay as they were. The uncorrupted list restores.
    #[test]
    fn corrupt_entry_lists_restore_atomically(
        start in prop::collection::vec((0i64..7, 0i64..7, 0.0f64..100.0, 0usize..2), 0..12),
        points in prop::collection::btree_set((0i64..7, 0i64..7), 1..10),
        values in prop::collection::vec(0.0f64..100.0, 10),
        kind in 0usize..5,
        at in 0usize..1000,
    ) {
        let mut shared = SharedPerfDb::new(space(), 2);
        let mut single = PerfDatabase::new(space(), 2);
        for &(x, y, v, flushed) in &start {
            shared.record(&pt(x, y), v);
            if flushed == 1 {
                shared.flush();
            }
            single.insert(pt(x, y), v);
        }
        let mut entries: Vec<(Point, f64)> =
            points.iter().zip(&values).map(|(&(x, y), &v)| (pt(x, y), v)).collect();
        let encode = |tag: &str, len: usize, entries: &[(Point, f64)]| {
            let mut w = StateWriter::new();
            w.tag(tag);
            w.usize(len);
            for (p, v) in entries {
                w.point(p);
                w.f64(*v);
            }
            w.into_bytes()
        };
        let whole = |tag: &str, entries: &[(Point, f64)]| encode(tag, entries.len(), entries);
        let (good_shared, good_single) = (whole("shareddb", &entries), whole("perfdb", &entries));
        let i = at % (entries.len() + 1);
        let (bad_shared, bad_single, eof) = match kind {
            0..=2 => {
                let corrupt = match kind {
                    0 => (Point::new(vec![0.5, 0.0]), 1.0),
                    1 => (pt(3, 3), f64::NAN),
                    _ => entries[at % entries.len()].clone(),
                };
                entries.insert(i, corrupt);
                (whole("shareddb", &entries), whole("perfdb", &entries), false)
            }
            3 => {
                // keep the header and at least one byte of the tag
                let cut = |b: &[u8]| b[..b.len() - 1 - at % (b.len() - 5)].to_vec();
                (cut(&good_shared), cut(&good_single), true)
            }
            _ => (
                encode("shareddb", 1 << 40, &entries),
                encode("perfdb", 1 << 40, &entries),
                true,
            ),
        };
        let failed = |err: CodecError| {
            if eof {
                err == CodecError::UnexpectedEof
            } else {
                matches!(err, CodecError::BadValue(_))
            }
        };

        let (canonical, stats) = (shared.entries_canonical(), shared.stats());
        let err = restore_from_slice(&mut shared, &bad_shared).unwrap_err();
        prop_assert!(failed(err.clone()), "{:?}", err);
        prop_assert_eq!(shared.entries_canonical(), canonical);
        prop_assert_eq!(shared.stats(), stats);

        let before = save_to_vec(&single);
        let err = restore_from_slice(&mut single, &bad_single).unwrap_err();
        prop_assert!(failed(err.clone()), "{:?}", err);
        prop_assert_eq!(save_to_vec(&single), before);

        prop_assert!(restore_from_slice(&mut shared, &good_shared).is_ok());
        prop_assert_eq!(shared.len(), points.len());
        prop_assert!(restore_from_slice(&mut single, &good_single).is_ok());
        prop_assert_eq!(save_to_vec(&single), good_single);
    }
}

/// Records arriving from concurrent threads in arbitrary interleavings
/// publish the same state as a serial pass: keep-min merging is
/// commutative, so thread scheduling cannot leak into the snapshot.
#[test]
fn concurrent_interleavings_match_serial_application() {
    let records: Vec<(Point, f64)> = (0..84)
        .map(|i| (pt(i % 7, (i / 7) % 7), ((i * 37) % 23) as f64))
        .collect();

    let serial = SharedPerfDb::new(space(), 4);
    for (p, v) in &records {
        serial.record(p, *v);
    }
    serial.flush();

    for round in 0..8u64 {
        let shared = SharedPerfDb::new(space(), 4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let shared = &shared;
                let records = &records;
                s.spawn(move || {
                    for (i, (p, v)) in records.iter().enumerate() {
                        if i % 4 == t {
                            shared.record(p, *v);
                        }
                        // interleave flushes differently per round
                        if (i as u64 + round) % 11 == t as u64 {
                            shared.flush();
                        }
                    }
                });
            }
        });
        shared.flush();
        assert_eq!(
            shared.entries_canonical(),
            serial.entries_canonical(),
            "round {round}: interleaving leaked into the published state"
        );
    }
}

/// 8 readers hammer lock-free queries while 2
/// writers keep recording and flushing. Readers check the keep-min
/// safety invariants on every observation: published values are finite,
/// never *rise* for a key (keep-min is monotone), and the final
/// canonical snapshot is strictly key-sorted and equal to a serial
/// replay. Iteration count scales with `HARMONY_STRESS_ITERS`.
#[test]
fn readers_never_observe_torn_or_rising_values() {
    let iters: usize = std::env::var("HARMONY_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let shared = SharedPerfDb::new(space(), 4);
    let probes: Vec<Point> = space().lattice().collect();

    std::thread::scope(|s| {
        for w in 0..2u64 {
            let shared = &shared;
            s.spawn(move || {
                for i in 0..iters as u64 {
                    let x = ((i * 5 + w * 3) % 7) as i64;
                    let y = ((i * 11 + w) % 7) as i64;
                    // values drift downward so keep-min keeps winning
                    let v = 1000.0 - (i + w * 17) as f64 % 997.0;
                    shared.record(&pt(x, y), v);
                    if i % 13 == w {
                        shared.flush();
                    }
                }
                shared.flush();
            });
        }
        for r in 0..8usize {
            let shared = &shared;
            let probes = &probes;
            s.spawn(move || {
                let mut last: BTreeMap<(u64, u64), f64> = BTreeMap::new();
                for i in 0..iters {
                    let p = &probes[(i * 7 + r) % probes.len()];
                    if let Some(v) = shared.query(p) {
                        assert!(v.is_finite(), "torn read: {v}");
                        let k = (p[0].to_bits(), p[1].to_bits());
                        if let Some(&prev) = last.get(&k) {
                            assert!(v <= prev, "published value rose for {p:?}: {prev} -> {v}");
                        }
                        last.insert(k, v);
                    }
                }
            });
        }
    });

    // the final snapshot is canonical: strictly ascending keys
    let entries = shared.entries_canonical();
    assert!(!entries.is_empty());
    let keys: Vec<Vec<u64>> = entries
        .iter()
        .map(|(p, _)| p.iter().map(f64::to_bits).collect())
        .collect();
    for w in keys.windows(2) {
        assert!(w[0] < w[1], "snapshot keys out of order");
    }

    // and equals a serial replay of the same record stream
    let replay = SharedPerfDb::new(space(), 4);
    for w in 0..2u64 {
        for i in 0..iters as u64 {
            let x = ((i * 5 + w * 3) % 7) as i64;
            let y = ((i * 11 + w) % 7) as i64;
            let v = 1000.0 - (i + w * 17) as f64 % 997.0;
            replay.record(&pt(x, y), v);
        }
    }
    replay.flush();
    assert_eq!(entries, replay.entries_canonical());
}

/// `HARMONY_STRESS_ITERS`, or `default` when unset.
fn stress_iters(default: usize) -> usize {
    std::env::var("HARMONY_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The `i`-th record of the warm-start races: points sweep the grid,
/// values fall over time so keep-min keeps moving the center.
fn race_record(i: usize) -> (Point, f64) {
    let p = pt((i * 3 % 7) as i64, (i * 5 / 7 % 7) as i64);
    (p, 500.0 - (i % 487) as f64 + ((i * 37) % 11) as f64)
}

/// Per-shard `(hits, misses)`.
fn probe_counts(db: &SharedPerfDb) -> Vec<(u64, u64)> {
    db.per_shard().iter().map(|s| (s.hits, s.misses)).collect()
}

/// A fresh tier publishing `db`'s entries: nothing memoised, so its
/// first warm start computes the center of `db`'s snapshot.
fn republished(db: &SharedPerfDb) -> SharedPerfDb {
    let fresh = SharedPerfDb::new(db.space().clone(), db.k_neighbors);
    for (p, v) in db.entries_canonical() {
        fresh.record(&p, v);
    }
    fresh.flush();
    fresh
}

/// 8 readers released by one barrier onto each new publication all get
/// the center a single call computes on a fresh copy of the snapshot,
/// and the tier's hit and miss counters advance by exactly 8 times that
/// call's probes, shard by shard — whichever reader computed. Rounds
/// scale with `HARMONY_STRESS_ITERS`.
#[test]
fn barrier_released_readers_share_one_center_and_count_every_call() {
    const READERS: usize = 8;
    let rounds = stress_iters(300) / 20;
    let shared = SharedPerfDb::new(space(), 3);
    let start = Barrier::new(READERS + 1);
    let done = Barrier::new(READERS + 1);
    let got: Mutex<Vec<Option<Point>>> = Mutex::new(Vec::new());
    // the coordinator must not panic while readers wait at a barrier:
    // it notes the first wrong round and asserts after the join
    let mut wrong: Option<String> = None;

    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..rounds {
                    start.wait();
                    let center = warm_start_center(&shared);
                    got.lock().expect("no reader panicked").push(center);
                    done.wait();
                }
            });
        }
        for round in 0..rounds {
            for i in round * 3..round * 3 + 3 {
                let (p, v) = race_record(i);
                shared.record(&p, v);
            }
            shared.flush();
            let single = republished(&shared);
            let want = warm_start_center(&single);
            let one_call = probe_counts(&single);
            let before = probe_counts(&shared);

            start.wait();
            done.wait();
            let got = std::mem::take(&mut *got.lock().expect("no reader panicked"));
            let after = probe_counts(&shared);
            let gained = after
                .iter()
                .zip(&before)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1));
            let want_gained = one_call
                .iter()
                .map(|c| (c.0 * READERS as u64, c.1 * READERS as u64));
            if got != vec![want.clone(); READERS] {
                wrong.get_or_insert(format!("round {round}: centers {got:?}, want {want:?}"));
            } else if !gained.eq(want_gained) {
                wrong.get_or_insert(format!(
                    "round {round}: counters must move as {READERS} computed calls"
                ));
            }
        }
    });
    assert_eq!(wrong, None);
}

/// A flusher publishes a record at a time while 4 readers keep asking
/// for the center. The flusher's first call after each `flush()`
/// returns must give that snapshot's center (as a fresh tier holding the
/// same entries computes it) — a reader that computed across the
/// publication must not have left its result behind — and once all
/// threads join, a call gives the last snapshot's center. Iterations
/// scale with `HARMONY_STRESS_ITERS`.
#[test]
fn the_first_center_after_a_flush_is_the_new_snapshots() {
    let iters = stress_iters(300) / 4;
    let twin = SharedPerfDb::new(space(), 2);
    let want: Vec<Option<Point>> = (0..iters)
        .map(|i| {
            let (p, v) = race_record(i);
            twin.record(&p, v);
            twin.flush();
            warm_start_center(&republished(&twin))
        })
        .collect();

    let shared = SharedPerfDb::new(space(), 2);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(c) = warm_start_center(&shared) {
                        assert!(shared.space().is_admissible(&c), "center {c:?}");
                    }
                }
            });
        }
        for (i, want) in want.iter().enumerate() {
            let (p, v) = race_record(i);
            shared.record(&p, v);
            shared.flush();
            let got = warm_start_center(&shared);
            if &got != want {
                stop.store(true, Ordering::Relaxed);
                panic!("after flush {i}: center {got:?}, want {want:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(&warm_start_center(&shared), want.last().expect("iters > 0"));
    assert_eq!(shared.entries_canonical(), twin.entries_canonical());
}
