//! The lazily indexed measured history: a [`PerfDatabase`] whose
//! `insert_replacing` only appends to a log that the first read folds.
//!
//! * random interleavings of writes, reads, checkpoints and restores
//!   agree bit for bit — values and checkpoint bytes — with an eager
//!   reference model kept here;
//! * re-measuring a few points forever keeps the log bounded: after it
//!   first fills, appends and folds take no heap allocation.

use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::{restore_from_slice, save_to_vec, StateWriter};
use harmony_surface::database::{idw_scan, inv_scales};
use harmony_surface::PerfDatabase;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // const-initialised and without a destructor, so this access never
    // allocates; `try_with` fails only while the thread is being torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", 0, 9, 1).unwrap(),
        ParamDef::levels("y", vec![0.5, 1.0, 4.0]).unwrap(),
    ])
    .unwrap()
}

/// Neighbours the database blends.
const K: usize = 3;

fn same_bits(a: &Point, b: &Point) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

/// The eager reference: one entry per distinct point in first-seen
/// order, updated in place on every write.
#[derive(Clone, Default)]
struct Eager {
    entries: Vec<(Point, f64)>,
}

impl Eager {
    fn slot(&mut self, p: &Point) -> Option<&mut f64> {
        self.entries
            .iter_mut()
            .find(|(q, _)| same_bits(q, p))
            .map(|(_, v)| v)
    }

    fn insert_replacing(&mut self, p: &Point, v: f64) {
        match self.slot(p) {
            Some(old) => *old = v,
            None => self.entries.push((p.clone(), v)),
        }
    }

    fn insert(&mut self, p: &Point, v: f64) {
        match self.slot(p) {
            Some(old) => *old = old.min(v),
            None => self.entries.push((p.clone(), v)),
        }
    }

    fn get(&self, p: &Point) -> Option<f64> {
        self.entries
            .iter()
            .find(|(q, _)| same_bits(q, p))
            .map(|&(_, v)| v)
    }

    fn try_interpolate(&self, p: &Point) -> Option<f64> {
        self.get(p)
            .or_else(|| idw_scan(&inv_scales(&space()), &self.entries, K, p))
    }

    /// The `perfdb` checkpoint encoding, written field by field.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.tag("perfdb");
        w.usize(self.entries.len());
        for (p, v) in &self.entries {
            w.f64_slice(p.as_slice());
            w.f64(*v);
        }
        w.into_bytes()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A run of `insert_replacing` records, long enough to fill the log.
    InsertReplacing(Vec<(usize, f64)>),
    Insert(usize, f64),
    Get(usize),
    TryInterpolate(usize),
    SaveState,
    RestoreState,
    Len,
}

/// Writes dominate, as in a session: runs of appends between reads.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec((0usize..30, 0.1f64..1e3), 1..150).prop_map(Op::InsertReplacing),
        (0usize..30, 0.1f64..1e3).prop_map(|(i, v)| Op::Insert(i, v)),
        (0usize..30).prop_map(Op::Get),
        (0usize..30).prop_map(Op::TryInterpolate),
        Just(Op::SaveState),
        Just(Op::RestoreState),
        Just(Op::Len),
    ]
}

/// The `i`-th point of the 30-point lattice.
fn point(i: usize) -> Point {
    let levels = [0.5, 1.0, 4.0];
    Point::new(vec![(i % 10) as f64, levels[i / 10]])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_history_agrees_with_an_eager_model(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut db = PerfDatabase::new(space(), K);
        let mut eager = Eager::default();
        // the last checkpoint, with the model it was taken from
        let mut saved: Option<(Vec<u8>, Eager)> = None;
        for op in &ops {
            match *op {
                Op::InsertReplacing(ref records) => {
                    for &(i, v) in records {
                        db.insert_replacing(&point(i), v);
                        eager.insert_replacing(&point(i), v);
                    }
                }
                Op::Insert(i, v) => {
                    db.insert(point(i), v);
                    eager.insert(&point(i), v);
                }
                Op::Get(i) => {
                    let want = eager.get(&point(i)).map(f64::to_bits);
                    prop_assert_eq!(db.get(&point(i)).map(f64::to_bits), want);
                    prop_assert_eq!(db.contains(&point(i)), want.is_some());
                }
                Op::TryInterpolate(i) => prop_assert_eq!(
                    db.try_interpolate(&point(i)).map(f64::to_bits),
                    eager.try_interpolate(&point(i)).map(f64::to_bits)
                ),
                Op::SaveState => {
                    let bytes = save_to_vec(&db);
                    prop_assert_eq!(&bytes, &eager.checkpoint());
                    saved = Some((bytes, eager.clone()));
                }
                Op::RestoreState => {
                    if let Some((bytes, model)) = &saved {
                        restore_from_slice(&mut db, bytes).expect("own checkpoint restores");
                        eager = model.clone();
                    }
                }
                Op::Len => {
                    prop_assert_eq!(db.len(), eager.entries.len());
                    prop_assert_eq!(db.is_empty(), eager.entries.is_empty());
                }
            }
        }
        prop_assert_eq!(save_to_vec(&db), eager.checkpoint());
        prop_assert_eq!(save_to_vec(&db.clone()), eager.checkpoint());
    }
}

#[test]
fn re_measuring_ten_points_keeps_the_log_bounded() {
    let mut db = PerfDatabase::new(space(), K);
    let points: Vec<Point> = (0..10).map(|i| point(3 * i)).collect();
    let mut measured = 0usize;
    let mut remeasure = |rounds: usize| {
        for _ in 0..rounds {
            for p in &points {
                db.insert_replacing(p, measured as f64);
                measured += 1;
            }
        }
    };
    // the first rounds fill the log, fold it and build the index
    remeasure(100);
    let before = allocations();
    remeasure(9_900);
    assert_eq!(
        allocations() - before,
        0,
        "a log of 10 distinct points grew while re-measuring them"
    );
    assert_eq!(db.len(), 10);
    // the newest value of each point survives the folds
    let last = 100_000 - 10;
    for (i, p) in points.iter().enumerate() {
        assert_eq!(db.get(p), Some((last + i) as f64), "{p:?}");
    }
}
