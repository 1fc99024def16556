//! A whole fig10-shaped tuning session stays within a pinned heap
//! allocation budget.
//!
//! This binary installs the counting global allocator of
//! `tests/alloc_optimizer.rs` (extended to count bytes) and runs complete
//! sessions the way a fig10 cell does: PRO on the tabulated GS2 surface,
//! min-of-3 sampling in subsequent time steps, Pareto noise at ρ = 0.2,
//! a 100-step budget and 6 exploit instances. Each session builds its
//! own optimizer and tuner, as every replication of a cell does; the
//! table is built once, as a cell shares it.

use harmony::cluster::SamplingMode;
use harmony::core::{Estimator, OnlineTuner, ProOptimizer, TunerConfig};
use harmony::surface::{Gs2Model, LatticeTable, Objective};
use harmony::variability::noise::Noise;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations (and bytes requested)
/// made on each thread (test threads run side by side, so a global count
/// would mix them).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // const-initialised and without a destructor, so these accesses never
    // allocate; `try_with` fails only while the thread is being torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// `(allocations, bytes)` made on this thread so far.
fn counted() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// Sessions measured; the bound applies to their mean.
const SEEDS: u64 = 8;

/// Mean heap allocations of one session. This bound may only go down:
/// lower it when a change makes sessions cheaper, never raise it.
const MAX_ALLOCATIONS_PER_SESSION: f64 = 30.0;

#[test]
fn fig10_session_stays_within_its_allocation_budget() {
    let model = Gs2Model::paper_scale();
    let table = LatticeTable::new(&model);
    let noise = Noise::Pareto {
        alpha: 1.7,
        rho: 0.2,
    };
    let (mut allocations, mut bytes) = (0u64, 0u64);
    for seed in 0..SEEDS {
        let before = counted();
        let tuner = OnlineTuner::new(TunerConfig {
            procs: 64,
            max_steps: 100,
            estimator: Estimator::MinOfK(3),
            mode: SamplingMode::SequentialSteps,
            seed: 2005 + seed,
            full_occupancy: false,
            exploit_width: 6,
        });
        let mut opt = ProOptimizer::with_defaults(table.space().clone());
        let outcome = tuner
            .run(&table, &noise, &mut opt)
            .expect("session produced a recommendation");
        drop(opt);
        drop(outcome);
        let after = counted();
        allocations += after.0 - before.0;
        bytes += after.1 - before.1;
    }
    let per_session = allocations as f64 / SEEDS as f64;
    let kb_per_session = bytes as f64 / SEEDS as f64 / 1024.0;
    println!("{per_session:.1} allocations, {kb_per_session:.1} KiB per session");
    assert!(
        per_session <= MAX_ALLOCATIONS_PER_SESSION,
        "a fig10 session made {per_session:.1} heap allocations \
         ({kb_per_session:.1} KiB), over the budget of {MAX_ALLOCATIONS_PER_SESSION}"
    );
}
