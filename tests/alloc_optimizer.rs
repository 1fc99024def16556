//! The PRO step allocates nothing once it is warm.
//!
//! This binary installs a counting global allocator and drives PRO on the
//! GS2 lattice: a first session records every point it visits; the
//! optimizer is then re-anchored at the same center, so the second session
//! replays the same batches, each point already in the history. Every
//! `observe` of the replay (reflect, expansion check, expand, shrink and
//! probe batches alike) must take no heap allocation.

use harmony::core::optimizer::PROBE_EPS;
use harmony::core::{Optimizer, ProConfig, ProOptimizer};
use harmony::params::{Point, Rounding, StepKind};
use harmony::surface::{Gs2Model, Objective};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};

/// The system allocator, counting the allocations made on each thread
/// (test threads run side by side, so a global count would mix them).
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

fn key(p: &Point) -> Vec<u64> {
    p.iter().map(f64::to_bits).collect()
}

/// Names the batch PRO proposes, from its simplex: a whole reflect,
/// expand or shrink step, the single expansion-check point, the
/// stopping-criterion probes, or the initial vertices.
fn batch_kind(opt: &ProOptimizer, batch: &[Point]) -> &'static str {
    let (space, simplex) = (opt.space(), opt.simplex());
    let v0 = simplex.vertex(0);
    let step = |kind| -> Vec<Point> {
        simplex
            .transform_around(0, kind)
            .iter()
            .map(|raw| space.project(raw, v0, Rounding::TowardCenter))
            .collect()
    };
    let mut probes = Vec::new();
    space.probe_points(v0, PROBE_EPS, &mut probes);
    if batch == simplex.vertices() {
        "init"
    } else if batch == step(StepKind::Reflect) {
        "reflect"
    } else if batch == step(StepKind::Expand) {
        "expand"
    } else if batch == step(StepKind::Shrink) {
        "shrink"
    } else if batch == probes {
        "probe"
    } else if batch.len() == 1 {
        "expand_check"
    } else {
        "unknown"
    }
}

/// Runs one session of at most 400 batches; in the replay, checks that
/// every batch is already on record and that its `observe` allocates
/// nothing, tallying the batches by kind.
fn session(
    opt: &mut ProOptimizer,
    f: &dyn Fn(&Point) -> f64,
    seen: &mut HashSet<Vec<u64>>,
    replay: bool,
    kinds: &mut BTreeMap<&'static str, usize>,
) {
    for _ in 0..400 {
        let batch = opt.propose();
        if batch.is_empty() {
            return;
        }
        let values: Vec<f64> = batch.iter().map(f).collect();
        if !replay {
            seen.extend(batch.iter().map(key));
            opt.observe(&values);
            continue;
        }
        let kind = batch_kind(opt, &batch);
        assert!(
            batch.iter().all(|p| seen.contains(&key(p))),
            "replayed {kind} batch {batch:?} has a point the warm-up did not visit"
        );
        let before = allocations();
        opt.observe(&values);
        let taken = allocations() - before;
        assert_eq!(
            taken, 0,
            "observe of a warm {kind} batch allocated {taken} times"
        );
        *kinds.entry(kind).or_default() += 1;
    }
    panic!("session did not converge in 400 batches");
}

#[test]
fn warm_pro_observe_allocates_nothing_on_the_gs2_lattice() {
    let gs2 = Gs2Model::paper_scale();
    let space = gs2.space().clone();
    // the GS2 surface itself, and a plane falling toward a corner, whose
    // first steps expand
    let surface = |p: &Point| gs2.eval(p);
    let plane = |p: &Point| 1000.0 - p[0] - 2.0 * p[1] - p[2];
    let mut kinds = BTreeMap::new();
    for name in ["gs2", "plane"] {
        let f: &dyn Fn(&Point) -> f64 = if name == "gs2" { &surface } else { &plane };
        let mut opt = ProOptimizer::new(space.clone(), ProConfig::default());
        let mut seen = HashSet::new();
        session(&mut opt, f, &mut seen, false, &mut kinds);
        assert!(opt.converged(), "{name}: warm-up did not converge");
        opt.recenter(&space.center());
        session(&mut opt, f, &mut seen, true, &mut kinds);
        assert!(opt.converged(), "{name}: replay did not converge");
    }
    for kind in ["reflect", "expand_check", "expand", "shrink", "probe"] {
        assert!(
            kinds.get(kind).is_some_and(|&n| n > 0),
            "no warm {kind} batch was observed: {kinds:?}"
        );
    }
    assert!(!kinds.contains_key("unknown"), "{kinds:?}");
}
