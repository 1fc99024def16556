//! Transparent memoization of objective evaluations.
//!
//! The tuning driver evaluates the true objective far more often than
//! the optimizer asks for *distinct* points: a converged simplex
//! proposes the same vertices every batch, the quality curve re-probes
//! the incumbent after every step, and the exploit phase pins one point
//! for the rest of the budget. When the objective is itself expensive —
//! a [`harmony_surface::PerfDatabase`] interpolation, or a user's real
//! measurement replay — those repeats are pure waste.
//!
//! [`CachedObjective`] wraps any [`Objective`] with a lattice-keyed memo
//! (points keyed by their exact `f64` bit patterns, held inline in a
//! [`PointKey`], so no tolerance is involved and a lookup allocates
//! nothing). Because the wrapped objective must be deterministic —
//! everything in this workspace is; noise is applied *outside* the
//! objective by the cluster layer — the memo returns exactly the value
//! the inner objective would have, and tuning outcomes are unchanged
//! bit for bit. [`OnlineTuner`](crate::tuner::OnlineTuner) and the
//! threaded server wrap their objective automatically.
//!
//! One rule decides whether the memo runs at all: an objective that
//! answers from a precomputed exact table
//! ([`Objective::is_exact_table`], e.g. a
//! [`LatticeTable`](harmony_surface::LatticeTable)) is already one index
//! computation and an array read, so without a shared tier the wrapper
//! passes every evaluation straight through. It then counts nothing and
//! exports no `cache.*` telemetry.

use harmony_params::{ParamSpace, Point, PointKey, PointMap};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_surface::{Objective, SharedPerfDb};
use harmony_telemetry::Telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// A memoizing [`Objective`] wrapper. Evaluations at previously seen
/// points are served from the memo; determinism of the inner objective
/// makes the substitution exact.
///
/// With [`CachedObjective::with_shared`], the memo becomes the first
/// tier of a three-tier *cache-before-evaluate* path: session-local
/// memo → shared cross-session [`SharedPerfDb`] → fresh probe of the
/// inner objective. Shared hits are memoized locally and fresh probes
/// are recorded back to the shared tier (visible to other sessions
/// after its next flush). Because every tier stores the deterministic
/// true cost, lookups substitute exactly and outcomes are unchanged
/// bit for bit.
pub struct CachedObjective<'a, O: Objective + ?Sized> {
    inner: &'a O,
    /// Evaluations bypass the memo: the inner objective is an exact
    /// table and no shared tier is attached.
    direct: bool,
    memo: RwLock<PointMap<f64>>,
    /// Cross-session shared tier, consulted between the memo and the
    /// inner objective.
    shared: Option<&'a SharedPerfDb>,
    hits: AtomicUsize,
    shared_hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'a, O: Objective + ?Sized> CachedObjective<'a, O> {
    /// Wraps `inner` with an empty memo, or passes evaluations straight
    /// through when `inner` is an exact table.
    pub fn new(inner: &'a O) -> Self {
        CachedObjective::tiered(inner, None)
    }

    /// Wraps `inner` with an empty memo backed by the cross-session
    /// shared tier `shared`: misses consult it before probing `inner`,
    /// and fresh probes are recorded back for other sessions. The memo
    /// stays on even over an exact table, since the tier it fronts
    /// records what the session probes.
    pub fn with_shared(inner: &'a O, shared: &'a SharedPerfDb) -> Self {
        CachedObjective::tiered(inner, Some(shared))
    }

    fn tiered(inner: &'a O, shared: Option<&'a SharedPerfDb>) -> Self {
        CachedObjective {
            inner,
            direct: shared.is_none() && inner.is_exact_table(),
            memo: RwLock::new(PointMap::default()),
            shared,
            hits: AtomicUsize::new(0),
            shared_hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The wrapped objective.
    pub fn inner(&self) -> &'a O {
        self.inner
    }

    /// Number of evaluations answered from the memo.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of evaluations answered by the shared cross-session tier
    /// (always 0 without [`Self::with_shared`]).
    pub fn shared_hits(&self) -> usize {
        self.shared_hits.load(Ordering::Relaxed)
    }

    /// Number of evaluations that reached the inner objective.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct points memoized.
    pub fn len(&self) -> usize {
        self.memo.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of evaluations answered without probing the inner
    /// objective — `(hits + shared_hits) / (hits + shared_hits +
    /// misses)`; `None` before any evaluation. Deterministic for a given
    /// session. Checkpoints carry `hits` and `misses` but not
    /// `shared_hits`, so after a restore the rate counts shared hits only
    /// from the restore on.
    pub fn hit_rate(&self) -> Option<f64> {
        let served = self.hits() + self.shared_hits();
        let total = served + self.misses();
        (total > 0).then(|| served as f64 / total as f64)
    }

    /// Exports the memo's effectiveness as `cache.hits` / `cache.misses`
    /// / `cache.entries` telemetry counters (`cache.shared_hits` too
    /// when a shared tier is attached) plus a `cache.hit_rate` gauge.
    /// A wrapper that passes evaluations straight to an exact table has
    /// no memo and exports nothing.
    pub fn emit_telemetry(&self, tel: &Telemetry) {
        if !tel.enabled() || self.direct {
            return;
        }
        tel.counter("cache.hits", self.hits() as u64);
        tel.counter("cache.misses", self.misses() as u64);
        tel.counter("cache.entries", self.len() as u64);
        if self.shared.is_some() {
            tel.counter("cache.shared_hits", self.shared_hits() as u64);
        }
        if let Some(rate) = self.hit_rate() {
            tel.gauge("cache.hit_rate", rate);
        }
    }
}

impl<O: Objective + ?Sized> Checkpoint for CachedObjective<'_, O> {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("memo");
        w.usize(self.hits());
        w.usize(self.misses());
        let memo = self.memo.read().unwrap_or_else(|e| e.into_inner());
        // table iteration order is unobservable; sort by key (the order of
        // the coordinate bit words) so identical logical state always
        // serialises to identical bytes
        let mut entries: Vec<(&PointKey, &f64)> = memo.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        // a point is written as its length-prefixed bit words
        w.pairs(entries.into_iter().map(|(k, v)| (k.point(), *v)));
    }

    /// Restores the counters and the memo. A point listed twice, or one
    /// whose dimension is not the space's, is rejected with
    /// [`CodecError::BadValue`]; on any error the wrapper is left
    /// unchanged.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("memo")?;
        let hits = r.usize()?;
        let misses = r.usize()?;
        let entries = r.pairs()?;
        let dims = self.inner.space().dims();
        let mut memo = PointMap::default();
        for (p, v) in entries {
            if p.dims() != dims || memo.insert(PointKey::new(&p), v).is_some() {
                return Err(CodecError::BadValue(format!(
                    "misshapen or repeated memo entry {p:?}"
                )));
            }
        }
        self.hits.store(hits, Ordering::Relaxed);
        self.misses.store(misses, Ordering::Relaxed);
        *self.memo.write().unwrap_or_else(|e| e.into_inner()) = memo;
        Ok(())
    }
}

impl<O: Objective + ?Sized> Objective for CachedObjective<'_, O> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn eval(&self, x: &Point) -> f64 {
        if self.direct {
            return self.inner.eval(x);
        }
        let key = PointKey::new(x);
        if let Some(&v) = self
            .memo
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        if let Some(db) = self.shared {
            if let Some(v) = db.query(x) {
                self.shared_hits.fetch_add(1, Ordering::Relaxed);
                self.memo
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key, v);
                return v;
            }
        }
        let v = self.inner.eval(x);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(db) = self.shared {
            db.record(x, v);
        }
        self.memo
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, v);
        v
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::ParamDef;
    use harmony_surface::objective::FnObjective;
    use std::sync::atomic::AtomicUsize as Counter;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![ParamDef::integer("x", -5, 5, 1).unwrap()]).unwrap()
    }

    #[test]
    fn second_eval_is_a_hit_with_identical_value() {
        let calls = Counter::new(0);
        let obj = FnObjective::new("f", space(), |p| {
            calls.fetch_add(1, Ordering::Relaxed);
            (p[0] * 0.3).exp()
        });
        let cached = CachedObjective::new(&obj);
        let p = Point::from(&[2.0][..]);
        let a = cached.eval(&p);
        let b = cached.eval(&p);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!((cached.hits(), cached.misses()), (1, 1));
        assert_eq!(cached.len(), 1);
    }

    #[test]
    fn distinct_points_are_distinct_entries() {
        let obj = FnObjective::new("f", space(), |p| p[0] * 2.0);
        let cached = CachedObjective::new(&obj);
        for x in -5..=5 {
            cached.eval(&Point::from(&[x as f64][..]));
        }
        assert_eq!(cached.len(), 11);
        assert_eq!(cached.hits(), 0);
    }

    #[test]
    fn emit_telemetry_reports_hit_miss_counters() {
        let obj = FnObjective::new("f", space(), |p| p[0]);
        let cached = CachedObjective::new(&obj);
        let p = Point::from(&[1.0][..]);
        cached.eval(&p);
        cached.eval(&p);
        let (tel, sink) = Telemetry::memory();
        cached.emit_telemetry(&tel);
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.counter_total("cache.hits"), Some(1));
        assert_eq!(summary.counter_total("cache.misses"), Some(1));
        assert_eq!(summary.counter_total("cache.entries"), Some(1));
    }

    #[test]
    fn shared_tier_sits_between_memo_and_probe() {
        let calls = Counter::new(0);
        let obj = FnObjective::new("f", space(), |p| {
            calls.fetch_add(1, Ordering::Relaxed);
            p[0] * 3.0
        });
        let shared = SharedPerfDb::new(space(), 1);
        let p = Point::from(&[2.0][..]);
        // one session probes fresh and records back to the shared tier
        {
            let first = CachedObjective::with_shared(&obj, &shared);
            assert_eq!(first.eval(&p), 6.0);
            assert_eq!((first.shared_hits(), first.misses()), (0, 1));
        }
        shared.flush();
        // the next session is served without touching the objective
        let second = CachedObjective::with_shared(&obj, &shared);
        assert_eq!(second.eval(&p), 6.0); // shared hit, memoized
        assert_eq!(second.eval(&p), 6.0); // memo hit
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(
            (second.hits(), second.shared_hits(), second.misses()),
            (1, 1, 0)
        );
        let (tel, sink) = Telemetry::memory();
        second.emit_telemetry(&tel);
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.counter_total("cache.shared_hits"), Some(1));
    }

    fn saved(cached: &CachedObjective<'_, impl Objective>) -> Vec<u8> {
        let mut w = StateWriter::new();
        cached.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn save_restore_pins_hits_misses_and_entries() {
        let obj = FnObjective::new("f", space(), |p| p[0] * 2.0);
        let cached = CachedObjective::new(&obj);
        for x in [1.0, 2.0, 1.0, -3.0, 2.0, 1.0] {
            cached.eval(&Point::from(&[x][..]));
        }
        assert_eq!((cached.hits(), cached.misses(), cached.len()), (3, 3, 3));
        let bytes = saved(&cached);
        let mut back = CachedObjective::new(&obj);
        let mut r = StateReader::new(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((back.hits(), back.misses(), back.len()), (3, 3, 3));
        assert_eq!(back.eval(&Point::from(&[-3.0][..])), -6.0);
        assert_eq!((back.hits(), back.misses()), (4, 3));
    }

    #[test]
    fn restore_rejects_an_oversized_length_prefix() {
        // a 33-byte checkpoint claiming 2^40 entries must fail on the
        // missing bytes, not reserve a table for the claim first
        let obj = FnObjective::new("f", space(), |p| p[0]);
        let mut cached = CachedObjective::new(&obj);
        cached.eval(&Point::from(&[1.0][..]));
        let before = saved(&cached);
        let mut w = StateWriter::new();
        w.tag("memo");
        w.usize(7);
        w.usize(9);
        w.usize(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 33);
        let mut r = StateReader::new(&bytes).unwrap();
        assert_eq!(cached.restore_state(&mut r), Err(CodecError::UnexpectedEof));
        assert_eq!(saved(&cached), before, "a failed restore changed the memo");
    }

    #[test]
    fn an_exact_table_skips_the_memo_unless_a_shared_tier_is_attached() {
        let calls = Counter::new(0);
        let obj = FnObjective::new("f", space(), |p| {
            calls.fetch_add(1, Ordering::Relaxed);
            p[0] * 5.0
        });
        let table = harmony_surface::LatticeTable::new(&obj);
        let tabulated = calls.load(Ordering::Relaxed);
        let p = Point::from(&[3.0][..]);
        let direct = CachedObjective::new(&table);
        assert_eq!((direct.eval(&p), direct.eval(&p)), (15.0, 15.0));
        assert_eq!((direct.hits(), direct.misses(), direct.len()), (0, 0, 0));
        assert_eq!(calls.load(Ordering::Relaxed), tabulated);
        let (tel, sink) = Telemetry::memory();
        direct.emit_telemetry(&tel);
        assert!(
            sink.take().is_empty(),
            "a direct wrapper has no memo to report"
        );
        // behind a reference the table is still a table
        let by_ref = &table;
        let through_ref = CachedObjective::new(&by_ref);
        through_ref.eval(&p);
        assert_eq!(through_ref.misses(), 0);
        // a shared tier keeps the memo, so the tier sees the probes
        let shared = SharedPerfDb::new(space(), 1);
        let tiered = CachedObjective::with_shared(&table, &shared);
        assert_eq!((tiered.eval(&p), tiered.eval(&p)), (15.0, 15.0));
        assert_eq!((tiered.hits(), tiered.misses()), (1, 1));
    }

    #[test]
    fn passes_through_space_and_name() {
        let obj = FnObjective::new("passthrough", space(), |p| p[0]);
        let cached = CachedObjective::new(&obj);
        assert_eq!(cached.name(), "passthrough");
        assert_eq!(cached.space(), obj.space());
        assert!(cached.is_empty());
    }
}
