//! A scoped, work-stealing worker pool for independent replications.
//!
//! The Fig. 9/10 experiments average thousands of independent tuning
//! runs per configuration. Replications are *not* uniform in cost — an
//! early-converging session finishes its step budget in a fraction of
//! the time of one that keeps exploring — so the old static chunking
//! (worker `w` takes indices `w, w+W, ...`) left workers idle behind the
//! slowest chunk. [`par_map_indexed_in`] instead dispatches indices through
//! a shared atomic counter: every worker claims the next unclaimed index
//! the moment it becomes free, so imbalance is bounded by a single job.
//!
//! Determinism is preserved by construction:
//!
//! * all randomness derives from the job *index* (via
//!   `harmony_variability::stream_seed`), never from thread identity or
//!   claim order;
//! * each worker buffers `(index, value)` pairs locally and the buffers
//!   are merged into index order after the scope joins — no lock is held
//!   while jobs run, and the output is identical for any worker count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Number of worker threads to use: the available parallelism, capped by
/// the job count.
pub fn worker_count(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    hw.min(jobs).max(1)
}

/// Applies `f` to every index in `0..n` on a scoped work-stealing pool
/// of `workers` threads and returns the results in index order. The
/// output is identical for every `workers ≥ 1`.
///
/// `f` must derive all randomness from the index (e.g. via
/// `harmony_variability::stream_seed`) for reproducibility.
pub fn par_map_indexed_in<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::with_capacity(n / workers + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for buffer in buffers {
        for (i, v) in buffer {
            debug_assert!(slots[i].is_none(), "index claimed twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("all indices filled"))
        .collect()
}

/// Shared scheduler state of [`par_graph_stats_in`]: the ready set, live
/// indegrees, and completion/panic bookkeeping, all behind one mutex.
struct GraphQueue {
    ready: Vec<usize>,
    indegree: Vec<usize>,
    remaining: usize,
    panicked: bool,
    max_ready: usize,
}

/// Scheduling observations from one [`par_graph_stats_in`] run.
///
/// These describe *how* the pool happened to schedule the graph —
/// which worker claimed how many tasks, how deep the ready queue got —
/// so unlike the task results they are **not** deterministic across
/// worker counts or runs. Telemetry must only ship them on the opt-in
/// wall-clock channel, never in a deterministic trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers the pool actually ran with (after clamping).
    pub workers: usize,
    /// Tasks executed by each worker, in worker-spawn order.
    pub tasks_per_worker: Vec<usize>,
    /// Largest ready-queue depth observed while scheduling.
    pub max_ready: usize,
}

impl PoolStats {
    /// Spread between the busiest and idlest worker — by how many
    /// tasks the stealing ended up imbalanced.
    pub fn imbalance(&self) -> usize {
        let max = self.tasks_per_worker.iter().copied().max().unwrap_or(0);
        let min = self.tasks_per_worker.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// Emits the scheduling observations as `pool.*` gauges — but only
    /// when `tel`'s opt-in wall channel is on, because these values are
    /// scheduling-dependent and must never enter a deterministic trace.
    pub fn emit_to(&self, tel: &harmony_telemetry::Telemetry) {
        if !tel.enabled() || !tel.wall_enabled() {
            return;
        }
        tel.gauge("pool.workers", self.workers as f64);
        tel.gauge("pool.max_ready", self.max_ready as f64);
        tel.gauge("pool.imbalance", self.imbalance() as f64);
        for (w, &count) in self.tasks_per_worker.iter().enumerate() {
            tel.gauge(&format!("pool.tasks.worker{w}"), count as f64);
        }
    }
}

/// Executes `n` dependency-ordered tasks on a scoped work-stealing pool
/// and returns the results in index order, with [`PoolStats`]
/// scheduling observations (queue depths, per-worker task counts).
///
/// `deps[i]` lists the task indices that must complete before task `i`
/// may start. Workers claim any ready task the moment they become free,
/// so independent subgraphs overlap; a task becomes ready exactly when
/// its last dependency finishes. As with [`par_map_indexed_in`], `f` must
/// derive all randomness from the task index — never from claim order or
/// thread identity — and the results are then identical for every
/// `workers ≥ 1`; the stats are not.
///
/// # Panics
/// Panics when `deps.len() != n`, a dependency index is out of range or
/// self-referential, or the graph contains a cycle. A panic inside `f`
/// stops the pool (no new tasks start), and the first payload is
/// re-raised on the caller's thread after all workers drain.
pub fn par_graph_stats_in<T, F>(
    workers: usize,
    n: usize,
    deps: &[Vec<usize>],
    f: F,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert_eq!(deps.len(), n, "one dependency list per task");
    if n == 0 {
        return (Vec::new(), PoolStats::default());
    }
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            assert!(d < n, "dependency {d} of task {i} out of range");
            assert_ne!(d, i, "task {i} depends on itself");
            indegree[i] += 1;
            dependents[d].push(i);
        }
    }
    let initial: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    // Kahn pre-pass: reject cycles before any worker can deadlock on a
    // ready set that will never refill.
    {
        let mut indeg = indegree.clone();
        let mut stack = initial.clone();
        let mut seen = 0usize;
        while let Some(t) = stack.pop() {
            seen += 1;
            for &d in &dependents[t] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    stack.push(d);
                }
            }
        }
        assert_eq!(seen, n, "dependency graph has a cycle");
    }

    let workers = workers.clamp(1, n);
    if workers == 1 {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut stack = initial;
        let mut max_ready = stack.len();
        while let Some(t) = stack.pop() {
            slots[t] = Some(f(t));
            for &d in &dependents[t] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    stack.push(d);
                }
            }
            max_ready = max_ready.max(stack.len());
        }
        let results = slots
            .into_iter()
            .map(|v| v.expect("all tasks executed"))
            .collect();
        return (
            results,
            PoolStats {
                workers: 1,
                tasks_per_worker: vec![n],
                max_ready,
            },
        );
    }

    let state = Mutex::new(GraphQueue {
        max_ready: initial.len(),
        ready: initial,
        indegree,
        remaining: n,
        panicked: false,
    });
    let cv = Condvar::new();
    let payload_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let state = &state;
                let cv = &cv;
                let dependents = &dependents;
                let payload_slot = &payload_slot;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let task = {
                            let mut s = state.lock().expect("graph pool mutex");
                            loop {
                                if s.panicked || s.remaining == 0 {
                                    return local;
                                }
                                if let Some(t) = s.ready.pop() {
                                    break t;
                                }
                                s = cv.wait(s).expect("graph pool mutex");
                            }
                        };
                        match catch_unwind(AssertUnwindSafe(|| f(task))) {
                            Ok(v) => {
                                local.push((task, v));
                                let mut s = state.lock().expect("graph pool mutex");
                                s.remaining -= 1;
                                let mut woke = 0usize;
                                for &d in &dependents[task] {
                                    s.indegree[d] -= 1;
                                    if s.indegree[d] == 0 {
                                        s.ready.push(d);
                                        woke += 1;
                                    }
                                }
                                s.max_ready = s.max_ready.max(s.ready.len());
                                let done = s.remaining == 0;
                                drop(s);
                                if done {
                                    cv.notify_all();
                                } else {
                                    for _ in 0..woke {
                                        cv.notify_one();
                                    }
                                }
                            }
                            Err(payload) => {
                                let mut slot = payload_slot.lock().expect("payload mutex");
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                                drop(slot);
                                state.lock().expect("graph pool mutex").panicked = true;
                                cv.notify_all();
                                return local;
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("graph worker thread panicked"))
            .collect()
    });
    if let Some(payload) = payload_slot.into_inner().expect("payload mutex") {
        resume_unwind(payload);
    }
    let stats = PoolStats {
        workers,
        tasks_per_worker: buffers.iter().map(Vec::len).collect(),
        max_ready: state.into_inner().expect("graph pool mutex").max_ready,
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for buffer in buffers {
        for (i, v) in buffer {
            debug_assert!(slots[i].is_none(), "task executed twice");
            slots[i] = Some(v);
        }
    }
    let results = slots
        .into_iter()
        .map(|v| v.expect("all tasks executed"))
        .collect();
    (results, stats)
}

/// Runs `0..n` in fixed *waves* of at most `wave` indices: every index
/// inside a wave runs concurrently on the pool, then `between(next)` is
/// called on the caller's thread before the next wave starts — a full
/// barrier. Results come back in index order.
///
/// This is the multi-session scheduling primitive: concurrent tuning
/// sessions form a wave, and the barrier is where the driver flushes
/// the shared performance database so every session in wave `w+1`
/// observes exactly the measurements of waves `0..=w` — deterministic
/// visibility for any worker count or interleaving. `between` receives
/// the index the next wave starts at (`wave`, `2·wave`, …, and is not
/// called after the final wave).
///
/// `f` must derive all randomness from the index, as with
/// [`par_map_indexed_in`].
pub fn par_waves_in<T, F, B>(workers: usize, n: usize, wave: usize, f: F, mut between: B) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    B: FnMut(usize),
{
    assert!(wave > 0, "wave size must be positive");
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let len = wave.min(n - start);
        out.extend(par_map_indexed_in(workers, len, |i| f(start + i)));
        start += len;
        if start < n {
            between(start);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The task results of [`par_graph_stats_in`].
    fn graph<T: Send>(
        workers: usize,
        n: usize,
        deps: &[Vec<usize>],
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        par_graph_stats_in(workers, n, deps, f).0
    }

    #[test]
    fn results_in_index_order() {
        let out = par_map_indexed_in(worker_count(100), 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map_indexed_in(worker_count(0), 0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_job() {
        assert_eq!(par_map_indexed_in(worker_count(1), 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = par_map_indexed_in(worker_count(500), 500, |i| i as f64 * 1.5);
        let b = par_map_indexed_in(worker_count(500), 500, |i| i as f64 * 1.5);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_across_worker_counts() {
        let f = |i: usize| (i as f64).sin();
        let expect: Vec<f64> = (0..333).map(f).collect();
        for workers in [1, 2, 3, 8, worker_count(333)] {
            assert_eq!(par_map_indexed_in(workers, 333, f), expect);
        }
    }

    #[test]
    fn uneven_job_costs_balance() {
        // a deliberately skewed workload: early indices are cheap,
        // the last one is expensive; work stealing must still return
        // index-ordered results
        let out = par_map_indexed_in(worker_count(64), 64, |i| {
            if i == 63 {
                (0..100_000).fold(0u64, |a, x| a.wrapping_add(x)) + i as u64
            } else {
                i as u64
            }
        });
        assert_eq!(out[0], 0);
        assert_eq!(out[62], 62);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1_000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn graph_respects_dependencies() {
        // diamond fan-out/fan-in repeated: 0 -> {1..=6} -> 7 -> {8..=13} -> 14;
        // every task asserts all its dependencies already completed
        let n = 15;
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| match i {
                0 => vec![],
                1..=6 => vec![0],
                7 => (1..=6).collect(),
                8..=13 => vec![7],
                _ => (8..=13).collect(),
            })
            .collect();
        let done: Vec<std::sync::atomic::AtomicBool> = (0..n)
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        for workers in [1, 2, 4, 8] {
            for flag in &done {
                flag.store(false, Ordering::SeqCst);
            }
            let out = graph(workers, n, &deps, |i| {
                for &d in &deps[i] {
                    assert!(
                        done[d].load(Ordering::SeqCst),
                        "task {i} ran before dep {d}"
                    );
                }
                done[i].store(true, Ordering::SeqCst);
                i * 10
            });
            assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn graph_identical_across_worker_counts() {
        let n = 40;
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| if i >= 3 { vec![i - 3, i - 1] } else { vec![] })
            .collect();
        let f = |i: usize| (i as f64).sin() * 1e6;
        let expect: Vec<f64> = (0..n).map(f).collect();
        for workers in [1, 2, 3, 7] {
            assert_eq!(graph(workers, n, &deps, f), expect);
        }
    }

    #[test]
    fn graph_without_edges_matches_par_map() {
        let deps = vec![Vec::new(); 50];
        assert_eq!(
            graph(worker_count(50), 50, &deps, |i| i * i),
            (0..50).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn graph_empty() {
        let out: Vec<u32> = graph(4, 0, &[], |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn graph_rejects_cycle() {
        let deps = vec![vec![1], vec![0]];
        graph(2, 2, &deps, |i| i);
    }

    #[test]
    #[should_panic(expected = "depends on itself")]
    fn graph_rejects_self_dependency() {
        let deps = vec![vec![0]];
        graph(1, 1, &deps, |i| i);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn graph_rejects_out_of_range_dependency() {
        let deps = vec![vec![5]];
        graph(1, 1, &deps, |i| i);
    }

    #[test]
    fn graph_stats_account_for_every_task() {
        let n = 30;
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| if i >= 2 { vec![i - 2] } else { vec![] })
            .collect();
        for workers in [1, 3] {
            let (out, stats) = par_graph_stats_in(workers, n, &deps, |i| i);
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert_eq!(stats.workers, workers.min(n));
            assert_eq!(stats.tasks_per_worker.len(), stats.workers);
            assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), n);
            assert!(stats.max_ready >= 1);
            assert!(stats.imbalance() <= n);
        }
    }

    #[test]
    fn graph_stats_empty() {
        let (out, stats) = par_graph_stats_in(4, 0, &[], |i| i);
        assert!(out.is_empty());
        assert_eq!(stats, PoolStats::default());
        assert_eq!(stats.imbalance(), 0);
    }

    #[test]
    fn waves_barrier_between_every_wave() {
        use std::sync::atomic::AtomicUsize;
        // barrier correctness: while index i runs, the flush count must
        // equal i's wave number — no job from wave w+1 starts early
        let flushes = AtomicUsize::new(0);
        let barriers = Mutex::new(Vec::new());
        let out = par_waves_in(
            4,
            10,
            4,
            |i| {
                assert_eq!(flushes.load(Ordering::SeqCst), i / 4, "index {i}");
                i * 3
            },
            |next| {
                flushes.fetch_add(1, Ordering::SeqCst);
                barriers.lock().unwrap().push(next);
            },
        );
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
        // 3 waves (4+4+2) → barriers after the first two only
        assert_eq!(*barriers.lock().unwrap(), vec![4, 8]);
    }

    #[test]
    fn waves_output_is_worker_count_independent() {
        let run = |workers| par_waves_in(workers, 23, 5, |i| i * i + 1, |_| {});
        assert_eq!(run(1), run(4));
        assert!(par_waves_in(3, 0, 4, |i| i, |_| {}).is_empty());
    }

    #[test]
    fn graph_propagates_task_panic() {
        let deps = vec![Vec::new(); 8];
        let caught = std::panic::catch_unwind(|| {
            graph(4, 8, &deps, |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("task 3 exploded"), "got: {msg}");
    }
}
