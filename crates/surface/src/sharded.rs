//! A concurrent, sharded cross-session performance database.
//!
//! The single-owner [`PerfDatabase`](crate::PerfDatabase) serves one
//! tuning session. When many sessions tune the *same* application
//! concurrently (the multi-tenant setting motivated by kernel_tuner's
//! shared tuning cache and production variability traces), most of
//! their probes land on lattice points some neighbour has already
//! measured — so the highest-leverage optimisation is a shared
//! cache-before-evaluate tier that every session consults before
//! paying for a fresh probe.
//!
//! [`SharedPerfDb`] is that tier:
//!
//! * **Sharded** — entries hash (by their exact lattice key) into a
//!   fixed array of [`SHARD_COUNT`] shards, so unrelated writers rarely
//!   touch the same shard.
//! * **Lock-free reads** — each shard holds an *immutable snapshot*
//!   behind an atomically swapped pointer (the private `swap::Swap`, an
//!   epoch-counted `AtomicPtr` cell). [`SharedPerfDb::query`] never
//!   takes a lock: it pins the current snapshot with a reader count,
//!   binary-searches it, and unpins.
//! * **Write-combining** — [`SharedPerfDb::record`] appends to a small
//!   per-shard pending buffer (the only mutex on the write path);
//!   [`SharedPerfDb::flush`] drains each buffer, merges keep-min into
//!   a fresh sorted snapshot, and publishes it atomically.
//! * **Deterministic** — the merge is keep-min (commutative and
//!   associative) and snapshots are sorted ascending by lattice key,
//!   so the post-flush state is independent of thread interleaving
//!   and every exact lookup agrees with the single-owner database
//!   [`SharedPerfDb::to_database`] builds from the same measurements
//!   (pinned by lockstep property tests).
//!
//! Readers observe the snapshot published by the most recent flush;
//! pending records are invisible until flushed. Drivers flush at wave
//! barriers, which is what keeps multi-session experiments
//! deterministic: within a wave every session sees the same snapshot
//! no matter how its threads interleave.
//!
//! Warm start ([`warm_start_center`](crate::warm::warm_start_center))
//! reads [`SharedPerfDb::entries_canonical`] once, probes each
//! neighbour's exact value, and interpolates misses over that one
//! snapshot with [`idw_scan`](crate::database::idw_scan), whose
//! `(distance², canonical index)` ranking is that of a
//! [`PerfDatabase`](crate::PerfDatabase) built from the canonical
//! entries; the warm-start property tests pin it against
//! [`SharedPerfDb::to_database`]'s interpolation. The tier keeps the last center it computed, keyed by its
//! publication generation (see [`SharedPerfDb::flush`]) and
//! `k_neighbors`, so the sessions of a wave compute it once.

use crate::database::key_of;
use harmony_params::{ParamSpace, Point, PointKey, PointMap};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_stats::splitmix::mix64;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of shards; a power of two comfortably above typical writer
/// counts so concurrent sessions rarely contend on one pending buffer.
pub const SHARD_COUNT: usize = 16;

/// The vetted lock-free cell: an atomically swapped boxed snapshot with
/// epoch-counted readers. This is the only unsafe code in the crate.
mod swap {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Decrements the reader count even if the read closure panics, so
    /// retired snapshots can still be reclaimed afterwards.
    struct ReadGuard<'a>(&'a AtomicUsize);

    impl Drop for ReadGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// An atomically swappable immutable value with lock-free reads.
    ///
    /// Readers pin the current value by incrementing `readers` before
    /// loading the pointer; writers swap in a fresh allocation and
    /// retire the old one, freeing retired allocations only at a moment
    /// when `readers == 0` is observed *after* the swap. Under the
    /// `SeqCst` total order that observation proves no reader still
    /// holds a retired pointer: a reader that loaded the old pointer
    /// incremented `readers` first (so the writer would have seen a
    /// non-zero count), and a reader incrementing after the writer's
    /// check loads the new pointer.
    pub(super) struct Swap<T> {
        ptr: AtomicPtr<T>,
        readers: AtomicUsize,
        retired: Mutex<Vec<*mut T>>,
    }

    // SAFETY: the raw pointers always come from `Box<T>` and are
    // handed out only as `&T`; with `T: Send + Sync` the cell is safe
    // to share and move across threads.
    unsafe impl<T: Send + Sync> Send for Swap<T> {}
    unsafe impl<T: Send + Sync> Sync for Swap<T> {}

    impl<T> Swap<T> {
        pub fn new(value: T) -> Self {
            Swap {
                ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
                readers: AtomicUsize::new(0),
                retired: Mutex::new(Vec::new()),
            }
        }

        /// Runs `f` against the current value without taking a lock.
        pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
            self.readers.fetch_add(1, Ordering::SeqCst);
            let _guard = ReadGuard(&self.readers);
            let p = self.ptr.load(Ordering::SeqCst);
            // SAFETY: `p` was published by `new` or `publish` and is
            // freed only after the writer observes `readers == 0`
            // strictly after unlinking it; our increment above precedes
            // any such observation in the SeqCst total order, so the
            // allocation outlives this borrow.
            f(unsafe { &*p })
        }

        /// Atomically replaces the value; superseded allocations are
        /// reclaimed at the next quiescent moment (no active readers).
        pub fn publish(&self, value: T) {
            let fresh = Box::into_raw(Box::new(value));
            let old = self.ptr.swap(fresh, Ordering::SeqCst);
            let mut retired = self.retired.lock().unwrap_or_else(|e| e.into_inner());
            retired.push(old);
            if self.readers.load(Ordering::SeqCst) == 0 {
                for p in retired.drain(..) {
                    // SAFETY: `p` was unlinked before the zero reader
                    // count was observed, so no reader can still hold
                    // it (see the type-level argument above), and each
                    // retired pointer is freed exactly once.
                    drop(unsafe { Box::from_raw(p) });
                }
            }
        }
    }

    impl<T> Drop for Swap<T> {
        fn drop(&mut self) {
            // `&mut self`: no readers or writers can exist.
            // SAFETY: the live pointer and every retired pointer are
            // distinct `Box` allocations owned by this cell.
            drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
            let retired = self.retired.get_mut().unwrap_or_else(|e| e.into_inner());
            for p in retired.drain(..) {
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// One shard's published state: entries sorted ascending by lattice
/// key, so exact lookups binary-search and canonical enumeration is a
/// merge.
type ShardSnap = Vec<(Vec<u64>, Point, f64)>;

/// One shard: an immutable published snapshot plus a mutex-guarded
/// pending buffer of unflushed records, with operation counters.
struct Shard {
    snap: swap::Swap<ShardSnap>,
    pending: Mutex<Vec<(Point, f64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    records: AtomicU64,
    publishes: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            snap: swap::Swap::new(Vec::new()),
            pending: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            records: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }
}

/// Per-shard `[hits, misses]` that a run of uncounted probes made,
/// indexed by shard number; [`SharedPerfDb::memo_center`] adds them to
/// the shard counters.
pub(crate) type ProbeCounts = [[u64; 2]; SHARD_COUNT];

/// The last warm-start center a tier computed, with the key it is
/// valid for and the probe counts computing it made.
struct CenterMemo {
    generation: u64,
    k_neighbors: usize,
    center: Option<Point>,
    counts: ProbeCounts,
}

/// Operation counters for a [`SharedPerfDb`] (or one of its shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedDbStats {
    /// Queries answered from a published snapshot.
    pub hits: u64,
    /// Queries that found no published entry.
    pub misses: u64,
    /// Measurements appended to pending buffers.
    pub records: u64,
    /// Snapshot publications (flushes that had work to merge).
    pub publishes: u64,
    /// `record` calls that found the pending buffer momentarily locked
    /// by another writer. Timing-dependent: always 0 in the aggregate
    /// [`SharedPerfDb::stats`] view (use
    /// [`SharedPerfDb::stats_contended`] to opt in); populated in
    /// [`SharedPerfDb::per_shard`], which is a diagnostic surface.
    pub contended: u64,
    /// Entries currently published.
    pub entries: u64,
    /// Records currently pending (invisible until the next flush).
    pub pending: u64,
}

impl SharedDbStats {
    /// Fraction of queries served from the shared tier, in `[0, 1]`
    /// (zero when nothing was queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent, sharded cross-session performance database with
/// lock-free snapshot reads and deterministic write-combining.
///
/// See the [module docs](self) for the design. The expected usage
/// pattern is *cache-before-evaluate*: sessions call
/// [`query`](Self::query) before paying for a measurement,
/// [`record`](Self::record) afterwards, and a driver calls
/// [`flush`](Self::flush) at wave barriers to make new measurements
/// visible to everyone.
///
/// # Example
///
/// ```
/// use harmony_params::{ParamDef, ParamSpace, Point};
/// use harmony_surface::SharedPerfDb;
///
/// let space = ParamSpace::new(vec![ParamDef::integer("n", 0, 10, 1).unwrap()]).unwrap();
/// let db = SharedPerfDb::new(space, 2);
/// let p = Point::from(&[4.0][..]);
/// assert_eq!(db.query(&p), None);      // cold: caller must measure
/// db.record(&p, 12.5);
/// assert_eq!(db.query(&p), None);      // pending, not yet visible
/// db.flush();
/// assert_eq!(db.query(&p), Some(12.5));
/// ```
pub struct SharedPerfDb {
    space: ParamSpace,
    /// Number of neighbours blended by warm-start interpolation and by
    /// [`Self::to_database`].
    pub k_neighbors: usize,
    shards: Vec<Shard>,
    /// Publication generation: bumped before the first and after the
    /// last snapshot a `flush` or `clear` publishes, so it is odd while
    /// a lone publication is in progress (see [`Self::flush`]). `SeqCst`,
    /// as are the snapshot cells, so a computation that reads the same
    /// generation before and after its snapshot reads saw no publish.
    generation: AtomicU64,
    /// The warm-start center of the snapshot at `generation`, if one
    /// was computed; its lock makes concurrent callers compute once.
    memo: Mutex<Option<CenterMemo>>,
}

impl std::fmt::Debug for SharedPerfDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPerfDb")
            .field("k_neighbors", &self.k_neighbors)
            .field("shards", &SHARD_COUNT)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The shard a point's coordinate bit words hash to: a splitmix fold
/// over the words. Purely a function of the point, so placement is
/// deterministic across runs and thread interleavings, and routing
/// never materialises a key vector.
fn shard_of_words(words: impl Iterator<Item = u64>) -> usize {
    let mut h = 0u64;
    for w in words {
        h = mix64(h ^ mix64(w));
    }
    (h % SHARD_COUNT as u64) as usize
}

impl SharedPerfDb {
    /// An empty shared database over `space`, interpolating with
    /// `k_neighbors` neighbours.
    pub fn new(space: ParamSpace, k_neighbors: usize) -> Self {
        assert!(k_neighbors >= 1, "need at least one neighbour");
        SharedPerfDb {
            space,
            k_neighbors,
            shards: (0..SHARD_COUNT).map(|_| Shard::new()).collect(),
            generation: AtomicU64::new(0),
            memo: Mutex::new(None),
        }
    }

    /// The parameter space the database is defined over.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Looks up the published value at exactly `point`, lock-free.
    /// `None` means no flushed measurement exists (pending records are
    /// invisible); the caller should measure and [`record`](Self::record).
    pub fn query(&self, point: &Point) -> Option<f64> {
        let (i, found) = self.lookup(point);
        let counter = match found {
            Some(_) => &self.shards[i].hits,
            None => &self.shards[i].misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`Self::query`] without touching the shard counters: the probe
    /// is tallied into `counts` instead, for [`Self::memo_center`] to
    /// replay.
    pub(crate) fn probe(&self, point: &Point, counts: &mut ProbeCounts) -> Option<f64> {
        let (i, found) = self.lookup(point);
        counts[i][usize::from(found.is_none())] += 1;
        found
    }

    /// The shard `point` routes to and its published value there.
    fn lookup(&self, point: &Point) -> (usize, Option<f64>) {
        let i = shard_of_words(point.iter().map(f64::to_bits));
        let found = self.shards[i].snap.read(|snap| {
            snap.binary_search_by(|e| {
                // lexicographic key comparison straight against the
                // point's bit patterns — no per-query allocation
                e.0.iter().copied().cmp(point.iter().map(|x| x.to_bits()))
            })
            .ok()
            .map(|i| snap[i].2)
        });
        (i, found)
    }

    /// Appends one measurement to its shard's pending buffer. Invisible
    /// to readers until the next [`flush`](Self::flush). Duplicate
    /// records of the same point merge keep-min at flush time, so the
    /// eventual state is independent of arrival order.
    pub fn record(&self, point: &Point, value: f64) {
        assert!(
            self.space.is_admissible(point),
            "database point must be admissible: {point:?}"
        );
        assert!(value.is_finite(), "database value must be finite");
        let shard = &self.shards[shard_of_words(point.iter().map(f64::to_bits))];
        let mut pending = match shard.pending.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                shard.pending.lock().unwrap_or_else(|e| e.into_inner())
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        };
        pending.push((point.clone(), value));
        shard.records.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains every shard's pending buffer into a fresh sorted snapshot
    /// (keep-min on duplicate keys) and publishes it atomically.
    ///
    /// Each shard's pending lock is held across its merge-and-publish,
    /// so concurrent flushes serialise per shard; because the keep-min
    /// merge is commutative, the state after all flushes complete is
    /// the same for every interleaving.
    ///
    /// A flush that publishes bumps the publication generation before
    /// its first and after its last shard; one that finds nothing
    /// pending publishes nothing and leaves the generation (and the
    /// memoised warm-start center) alone. Concurrent flushes may
    /// interleave their bumps, so an even generation does not prove
    /// that no flush is running; but every flush bumps after its last
    /// publish, so a generation current while a flush runs is never
    /// current once it returns.
    pub fn flush(&self) {
        let mut published = false;
        for shard in &self.shards {
            let mut pending = shard.pending.lock().unwrap_or_else(|e| e.into_inner());
            if pending.is_empty() {
                continue;
            }
            if !published {
                self.generation.fetch_add(1, Ordering::SeqCst);
                published = true;
            }
            let mut map: BTreeMap<Vec<u64>, (Point, f64)> = shard
                .snap
                .read(|snap| snap.clone())
                .into_iter()
                .map(|(k, p, v)| (k, (p, v)))
                .collect();
            for (p, v) in pending.drain(..) {
                match map.entry(key_of(&p)) {
                    Entry::Occupied(mut e) => {
                        if v < e.get().1 {
                            e.get_mut().1 = v;
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert((p, v));
                    }
                }
            }
            let snap: ShardSnap = map.into_iter().map(|(k, (p, v))| (k, p, v)).collect();
            shard.snap.publish(snap);
            shard.publishes.fetch_add(1, Ordering::Relaxed);
        }
        if published {
            self.generation.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The warm-start center `compute` finds in the published snapshot,
    /// computed at most once per publication generation and
    /// `k_neighbors`.
    ///
    /// `compute` probes through [`Self::probe`]; the counts it tallies
    /// are kept with the center and added to the shard counters on
    /// every call, so [`Self::stats`] and [`Self::per_shard`] move as if
    /// each call had computed. The memo's lock is held while computing,
    /// so concurrent callers wait for one computation instead of
    /// repeating it. A result is stored only if the generation was even
    /// and did not change while it was computed; one computed across a
    /// publication is returned but not kept.
    pub(crate) fn memo_center(
        &self,
        compute: impl FnOnce(&mut ProbeCounts) -> Option<Point>,
    ) -> Option<Point> {
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        let generation = self.generation.load(Ordering::SeqCst);
        let (center, counts) = match memo.as_ref() {
            Some(m) if m.generation == generation && m.k_neighbors == self.k_neighbors => {
                (m.center.clone(), m.counts)
            }
            _ => {
                let mut counts = [[0; 2]; SHARD_COUNT];
                let center = compute(&mut counts);
                if generation.is_multiple_of(2)
                    && self.generation.load(Ordering::SeqCst) == generation
                {
                    *memo = Some(CenterMemo {
                        generation,
                        k_neighbors: self.k_neighbors,
                        center: center.clone(),
                        counts,
                    });
                }
                (center, counts)
            }
        };
        drop(memo);
        for (shard, [hits, misses]) in self.shards.iter().zip(counts) {
            shard.hits.fetch_add(hits, Ordering::Relaxed);
            shard.misses.fetch_add(misses, Ordering::Relaxed);
        }
        center
    }

    /// Number of published entries across all shards (excludes pending
    /// records).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.snap.read(|snap| snap.len()))
            .sum()
    }

    /// True when nothing is published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records waiting for the next flush.
    pub fn pending_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.pending.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// All published entries in canonical (lattice-key ascending)
    /// order — the deterministic enumeration used by checkpoints and
    /// by [`Self::to_database`].
    pub fn entries_canonical(&self) -> Vec<(Point, f64)> {
        let mut all: Vec<(Vec<u64>, Point, f64)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            shard.snap.read(|snap| all.extend(snap.iter().cloned()));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all.into_iter().map(|(_, p, v)| (p, v)).collect()
    }

    /// Materialises the published state as a single-owner
    /// [`PerfDatabase`](crate::PerfDatabase) (canonical insertion
    /// order), whose lookups are bit-identical to this database's.
    pub fn to_database(&self) -> crate::PerfDatabase {
        let mut db = crate::PerfDatabase::new(self.space.clone(), self.k_neighbors);
        for (p, v) in self.entries_canonical() {
            db.insert(p, v);
        }
        db
    }

    /// Aggregate operation counters plus current sizes.
    ///
    /// Every field here is a deterministic function of the operations
    /// performed; the one timing-dependent counter (`contended`) is
    /// deliberately reported as 0 so this struct is safe to put in
    /// deterministic artifacts. Callers that want the real contention
    /// count must opt in via [`Self::stats_contended`].
    pub fn stats(&self) -> SharedDbStats {
        let mut total = SharedDbStats::default();
        for s in self.per_shard() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.records += s.records;
            total.publishes += s.publishes;
            total.entries += s.entries;
            total.pending += s.pending;
        }
        total
    }

    /// Total `record` calls that found a pending buffer momentarily
    /// locked by another writer.
    ///
    /// **Timing-dependent**: the value depends on thread scheduling and
    /// varies run to run, so it is excluded from [`Self::stats`] and
    /// must only be surfaced on the opt-in wall-clock telemetry channel
    /// (never in a deterministic trace or artifact).
    pub fn stats_contended(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.contended.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard counters, indexed by shard number — the telemetry
    /// surface for spotting skewed shards or contended writers.
    pub fn per_shard(&self) -> Vec<SharedDbStats> {
        self.shards
            .iter()
            .map(|s| SharedDbStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                records: s.records.load(Ordering::Relaxed),
                publishes: s.publishes.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                entries: s.snap.read(|snap| snap.len()) as u64,
                pending: s.pending.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            })
            .collect()
    }

    /// Discards all published entries and pending records (counters are
    /// kept; they are cumulative). Bumps the publication generation like
    /// a [`flush`](Self::flush) that publishes.
    pub fn clear(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        for shard in &self.shards {
            let mut pending = shard.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.clear();
            shard.snap.publish(Vec::new());
        }
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
}

impl Checkpoint for SharedPerfDb {
    fn save_state(&self, w: &mut StateWriter) {
        self.flush();
        let entries = self.entries_canonical();
        w.tag("shareddb");
        w.pairs(entries.iter().map(|(p, v)| (p, *v)));
    }

    /// Replaces the published entries (and drops pending records) with a
    /// saved list. Entries that are inadmissible, non-finite or repeated
    /// are rejected with [`CodecError::BadValue`]; the whole list is
    /// checked first, so a failed restore changes neither the entries nor
    /// the counters.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("shareddb")?;
        let entries = r.pairs()?;
        let mut seen = PointMap::default();
        for (p, v) in &entries {
            if !self.space.is_admissible(p)
                || !v.is_finite()
                || seen.insert(PointKey::new(p), ()).is_some()
            {
                return Err(CodecError::BadValue(format!(
                    "bad or repeated shared entry {p:?}"
                )));
            }
        }
        self.clear();
        for (p, v) in &entries {
            self.record(p, *v);
        }
        self.flush();
        Ok(())
    }
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
    fn query_sees_only_flushed_records() {
        let db = SharedPerfDb::new(space(), 2);
        let p = Point::from(&[3.0, 4.0][..]);
        assert_eq!(db.query(&p), None);
        db.record(&p, 7.0);
        assert_eq!(db.query(&p), None, "pending records are invisible");
        assert_eq!(db.pending_len(), 1);
        db.flush();
        assert_eq!(db.query(&p), Some(7.0));
        assert_eq!(db.pending_len(), 0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn keep_min_merge_is_order_independent() {
        let p = Point::from(&[5.0, 5.0][..]);
        let orders: [&[f64]; 2] = [&[3.0, 1.0, 2.0], &[2.0, 1.0, 3.0]];
        for vals in orders {
            let db = SharedPerfDb::new(space(), 2);
            for &v in vals {
                db.record(&p, v);
                db.flush();
            }
            assert_eq!(db.query(&p), Some(1.0));
            assert_eq!(db.len(), 1);
        }
    }

    #[test]
    fn stats_count_operations() {
        let db = SharedPerfDb::new(space(), 2);
        let p = Point::from(&[2.0, 2.0][..]);
        assert_eq!(db.query(&p), None);
        db.record(&p, 1.0);
        db.flush();
        db.flush(); // empty: no publish
        assert_eq!(db.query(&p), Some(1.0));
        let s = db.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.records, 1);
        assert_eq!(s.publishes, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.pending, 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(db.per_shard().len(), SHARD_COUNT);
    }

    #[test]
    fn memo_center_computes_once_per_publication_and_k() {
        let mut db = SharedPerfDb::new(space(), 2);
        let p = Point::from(&[2.0, 2.0][..]);
        let computes = std::cell::Cell::new(0);
        let center = |db: &SharedPerfDb| {
            db.memo_center(|counts| {
                computes.set(computes.get() + 1);
                db.probe(&p, counts);
                db.probe(&Point::from(&[3.0, 2.0][..]), counts);
                Some(p.clone())
            })
        };
        let calls = |db: &SharedPerfDb, n: u64, computed: u64| {
            let before = (db.stats(), computes.get());
            for _ in 0..n {
                assert_eq!(center(db), Some(p.clone()));
            }
            let s = db.stats();
            // every call replays the two probes, computed or not
            assert_eq!(s.hits + s.misses, before.0.hits + before.0.misses + 2 * n);
            assert_eq!(computes.get(), before.1 + computed);
        };
        calls(&db, 3, 1);
        assert_eq!(db.stats().misses, 6);
        db.flush(); // empty: no publication keeps the memo
        calls(&db, 2, 0);
        db.record(&p, 1.0);
        db.flush();
        calls(&db, 2, 1);
        assert_eq!(db.stats().hits, 2, "the new snapshot's probe hits");
        db.k_neighbors = 3;
        calls(&db, 2, 1);
        db.clear();
        calls(&db, 2, 1);
        let bytes = harmony_recovery::save_to_vec(&db);
        harmony_recovery::restore_from_slice(&mut db, &bytes).unwrap();
        calls(&db, 2, 1);

        // a publication in progress, or one during the computation:
        // the result is returned but not kept
        db.generation.fetch_add(1, Ordering::SeqCst);
        calls(&db, 2, 2);
        db.generation.fetch_add(1, Ordering::SeqCst);
        let start = db.generation.load(Ordering::SeqCst);
        let during = db.memo_center(|_| {
            db.record(&p, 0.5);
            db.flush();
            None
        });
        assert_eq!(during, None);
        let kept = db.memo.lock().unwrap().as_ref().map(|m| m.generation);
        assert_ne!(kept, Some(start), "kept a center computed across a flush");
        calls(&db, 2, 1);
    }

    #[test]
    fn checkpoint_round_trips_canonically() {
        let db = SharedPerfDb::new(space(), 2);
        for (x, y, v) in [(1.0, 2.0, 5.0), (8.0, 3.0, 2.5), (4.0, 4.0, 9.0)] {
            db.record(&Point::from(&[x, y][..]), v);
        }
        // save flushes pending records itself
        let bytes = harmony_recovery::save_to_vec(&db);
        let mut back = SharedPerfDb::new(space(), 2);
        harmony_recovery::restore_from_slice(&mut back, &bytes).unwrap();
        assert_eq!(back.entries_canonical(), db.entries_canonical());
        assert_eq!(harmony_recovery::save_to_vec(&back), bytes);
    }

    #[test]
    fn clear_empties_published_and_pending() {
        let db = SharedPerfDb::new(space(), 1);
        db.record(&Point::from(&[1.0, 1.0][..]), 1.0);
        db.flush();
        db.record(&Point::from(&[2.0, 2.0][..]), 2.0);
        db.clear();
        assert!(db.is_empty());
        assert_eq!(db.pending_len(), 0);
    }

    #[test]
    #[should_panic(expected = "admissible")]
    fn inadmissible_record_rejected() {
        let db = SharedPerfDb::new(space(), 1);
        db.record(&Point::from(&[0.5, 0.0][..]), 1.0);
    }
}
