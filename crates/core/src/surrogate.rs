//! TPE-style surrogate-model optimizer (Bayesian optimization tier).
//!
//! The paper's direct-search methods (PRO/SRO, §3) spend most of their
//! budget walking the simplex; BO-FSS-style tuners instead *model* the
//! observed (configuration, estimate) history and spend each batch
//! where the model says good configurations are likely. This module
//! implements that tier from scratch on std only, as a
//! **Tree-structured Parzen Estimator**:
//!
//! 1. Order the observed history by estimate and split it at the γ
//!    quantile into a *good* set (the cheapest γ fraction) and a *bad*
//!    set (the rest).
//! 2. Model each set with independent per-dimension kernel-density
//!    estimators: smoothed level-index histograms on discrete axes,
//!    Gaussian kernels mixed with a uniform floor on continuous axes.
//! 3. Draw a deterministic candidate pool from splitmix-hashed unit
//!    coordinates and propose the batch maximizing the density ratio
//!    `ℓ(x)/g(x)` (equivalently `Σ_d ln ℓ_d − ln g_d`).
//!
//! Why TPE instead of a Gaussian process on this substrate: the GS2
//! surfaces are *discrete lattices* with categorical level sets, where
//! a GP needs an ad-hoc kernel over level indices, O(n³) solves, and
//! jittered Cholesky factorizations to stay positive-definite under
//! min-of-K noise. The density-ratio formulation needs only counting
//! and is exactly as discrete as the axes themselves, so every proposal
//! is admissible by construction and the whole model round-trips
//! through the recovery codec as a list of `(point, estimate)` pairs.
//!
//! Cost: the history's ascending `(estimate, index)` order and every
//! entry's level indices are state derived from the history — updated
//! as pairs are recorded, rebuilt on restore, never checkpointed. A
//! model batch over `n` observations therefore costs O(batch · log n)
//! comparisons to place the previous batch's pairs (plus a shift of at
//! most `n` indices each) and O(n) counting per axis for the two
//! densities, instead of a sort of the whole history and a binary
//! search per member and axis.
//!
//! Determinism: all randomness is a pure function of
//! `(seed, round, candidate index, dimension)` via
//! [`harmony_stats::splitmix::hash01`] — never an RNG object, so
//! checkpoint/restore resumes the exact candidate stream and a resumed
//! session is bit-identical to an uninterrupted one.

use crate::optimizer::{Incumbent, Optimizer, HISTORY_NEIGHBORS};
use crate::search::check_admissible;
use harmony_params::{ParamSpace, Point};
use harmony_recovery::{save_to_vec, Checkpoint, CodecError, StateReader, StateWriter};
use harmony_stats::splitmix::hash01;
use harmony_surface::PerfDatabase;
use harmony_telemetry::{event, Telemetry};

/// Salt decorrelating the startup space-filling stream.
const SALT_STARTUP: u64 = 0x005A_1107;
/// Salt decorrelating the model-phase candidate-pool stream.
const SALT_CANDIDATE: u64 = 0x005A_110C;

/// Tunable knobs of the surrogate optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateConfig {
    /// Points proposed per batch (the parallel evaluation width).
    pub batch_size: usize,
    /// Observations collected by deterministic space-filling sampling
    /// before the density model takes over (the model needs both a
    /// good and a bad set to split).
    pub startup: usize,
    /// Good-set quantile γ: the cheapest `γ` fraction of the history
    /// forms the "good" density ℓ, the rest the "bad" density g.
    pub gamma: f64,
    /// Candidate-pool size scored per model-phase batch.
    pub candidates: usize,
    /// Smoothing pseudo-count added to every level histogram and to the
    /// continuous uniform floor; keeps both densities strictly positive
    /// so the log-ratio is always finite.
    pub prior_weight: f64,
    /// Continuous-axis kernel bandwidth as a fraction of the parameter
    /// width.
    pub bandwidth: f64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            batch_size: 8,
            startup: 16,
            gamma: 0.25,
            candidates: 64,
            prior_weight: 1.0,
            bandwidth: 0.12,
        }
    }
}

/// The TPE-style surrogate optimizer. See the [module docs](self) for
/// the algorithm and the determinism contract.
///
/// # Example
///
/// The same ask/tell loop as every other optimizer — the driver owns
/// evaluation:
///
/// ```
/// use harmony_core::{Optimizer, SurrogateConfig, SurrogateOptimizer};
/// use harmony_params::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new(vec![
///     ParamDef::integer("x", -20, 20, 1).unwrap(),
///     ParamDef::integer("y", -20, 20, 1).unwrap(),
/// ])
/// .unwrap();
/// let mut opt = SurrogateOptimizer::new(space, SurrogateConfig::default(), 7);
/// for _ in 0..40 {
///     let batch = opt.propose();
///     let values: Vec<f64> = batch.iter().map(|p| p[0] * p[0] + p[1] * p[1]).collect();
///     opt.observe(&values);
/// }
/// let (best, _) = opt.best().unwrap();
/// assert!(best[0].abs() <= 4.0 && best[1].abs() <= 4.0);
/// ```
pub struct SurrogateOptimizer {
    space: ParamSpace,
    cfg: SurrogateConfig,
    seed: u64,
    /// Every measured `(point, estimate)` pair, in observation order —
    /// the whole model state.
    history: Vec<(Point, f64)>,
    /// `history` indices in ascending `(estimate, index)` order under
    /// `total_cmp`: the good/bad split is a prefix. Derived from
    /// `history` (kept in step by `push_history`, rebuilt on restore),
    /// never checkpointed.
    order: Vec<usize>,
    /// Level index of each history entry on each axis, row-major
    /// (`history.len() × dims`; 0 on continuous axes). Derived like
    /// `order`.
    level_idx: Vec<usize>,
    /// Batch awaiting observation (empty between observe and the next
    /// propose).
    pending: Vec<Point>,
    /// Batches observed so far; indexes the candidate hash streams.
    /// Its arithmetic wraps, since a restored checkpoint may carry any
    /// value.
    round: usize,
    incumbent: Incumbent,
    /// Ascending admissible levels per discrete dimension (`None` for
    /// continuous axes); derived from the space, not checkpointed.
    levels: Vec<Option<Vec<f64>>>,
    tel: Telemetry,
}

/// One per-dimension density: a smoothed level-index histogram
/// (discrete) or a Gaussian mixture over observed coordinates with a
/// uniform floor (continuous). Both are strictly positive everywhere.
enum AxisDensity {
    Discrete {
        log_mass: Vec<f64>,
    },
    Continuous {
        centers: Vec<f64>,
        h: f64,
        width: f64,
        prior: f64,
    },
}

impl AxisDensity {
    fn log_density(&self, levels: Option<&Vec<f64>>, x: f64) -> f64 {
        match self {
            AxisDensity::Discrete { log_mass } => {
                let levels = levels.expect("discrete axis has a level table");
                let idx = level_index(levels, x);
                log_mass[idx]
            }
            AxisDensity::Continuous {
                centers,
                h,
                width,
                prior,
            } => {
                let mut acc = prior / width.max(f64::MIN_POSITIVE);
                for &c in centers {
                    let t = (x - c) / h;
                    acc += (-0.5 * t * t).exp() / (h * (2.0 * std::f64::consts::PI).sqrt());
                }
                (acc / (prior + centers.len() as f64)).ln()
            }
        }
    }
}

/// Index of admissible value `x` in the ascending level table.
fn level_index(levels: &[f64], x: f64) -> usize {
    // levels are exact admissible values, so an exact match exists for
    // every admissible coordinate; fall back to the nearest level for
    // robustness against callers scoring projected floats
    match levels.binary_search_by(|l| l.total_cmp(&x)) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i >= levels.len() {
                levels.len() - 1
            } else if (x - levels[i - 1]).abs() <= (levels[i] - x).abs() {
                i - 1
            } else {
                i
            }
        }
    }
}

impl SurrogateOptimizer {
    /// Creates the surrogate over `space`. All candidate randomness is
    /// a pure function of `seed` and structural indices.
    pub fn new(space: ParamSpace, cfg: SurrogateConfig, seed: u64) -> Self {
        assert!(cfg.batch_size >= 1, "batch_size must be at least 1");
        assert!(
            cfg.candidates >= cfg.batch_size,
            "candidate pool smaller than batch"
        );
        assert!(
            cfg.gamma > 0.0 && cfg.gamma < 1.0,
            "gamma must be in (0, 1)"
        );
        assert!(cfg.prior_weight > 0.0, "prior_weight must be positive");
        assert!(cfg.bandwidth > 0.0, "bandwidth must be positive");
        let levels = space
            .params()
            .iter()
            .map(|p| {
                p.cardinality()
                    .map(|m| (0..m).map(|i| p.level(i)).collect())
            })
            .collect();
        SurrogateOptimizer {
            space,
            cfg,
            seed,
            history: Vec::new(),
            order: Vec::new(),
            level_idx: Vec::new(),
            pending: Vec::new(),
            round: 0,
            incumbent: Incumbent::new(),
            levels,
            tel: Telemetry::disabled(),
        }
    }

    /// The surrogate with default knobs (the T8 benchmark
    /// configuration).
    pub fn with_defaults(space: ParamSpace, seed: u64) -> Self {
        SurrogateOptimizer::new(space, SurrogateConfig::default(), seed)
    }

    /// The configuration in use.
    pub fn config(&self) -> &SurrogateConfig {
        &self.cfg
    }

    /// Batches observed so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Attaches a telemetry handle: every batch decision emits a
    /// `surrogate.decision` event (startup vs model phase, good/bad
    /// split sizes, pool size). The caller drives the logical clock,
    /// exactly as with [`crate::ProOptimizer::set_telemetry`].
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// A point from hashed unit coordinates in stream `(salt, k)`.
    fn hashed_point(&self, salt: u64, k: u64) -> Point {
        let unit: Vec<f64> = (0..self.space.dims())
            .map(|d| hash01(self.seed, salt, k, d as u64))
            .collect();
        self.space.point_from_unit(&unit)
    }

    /// Deterministic space-filling startup batch for the current round.
    fn startup_batch(&self) -> Vec<Point> {
        let b = self.cfg.batch_size;
        let base = self.round.wrapping_mul(b);
        (0..b)
            .map(|i| self.hashed_point(SALT_STARTUP, base.wrapping_add(i) as u64))
            .collect()
    }

    /// Builds one per-dimension density set from the coordinates of
    /// `members` (indices into the history); `level_of(i, d)` is entry
    /// `i`'s level index on discrete axis `d`.
    fn densities(
        &self,
        members: &[usize],
        level_of: impl Fn(usize, usize) -> usize,
    ) -> Vec<AxisDensity> {
        (0..self.space.dims())
            .map(|d| match &self.levels[d] {
                Some(levels) => {
                    let m = levels.len();
                    let mut counts = vec![0usize; m];
                    for &i in members {
                        counts[level_of(i, d)] += 1;
                    }
                    let total = members.len() as f64 + self.cfg.prior_weight;
                    let log_mass = counts
                        .iter()
                        .map(|&c| ((c as f64 + self.cfg.prior_weight / m as f64) / total).ln())
                        .collect();
                    AxisDensity::Discrete { log_mass }
                }
                None => {
                    let p = self.space.param(d);
                    AxisDensity::Continuous {
                        centers: members.iter().map(|&i| self.history[i].0[d]).collect(),
                        h: (self.cfg.bandwidth * p.width()).max(f64::MIN_POSITIVE),
                        width: p.width(),
                        prior: self.cfg.prior_weight,
                    }
                }
            })
            .collect()
    }

    /// Model-phase batch: split the history at the γ quantile, build
    /// the good/bad densities, score a hashed candidate pool by the
    /// log density ratio, and keep the best distinct `batch_size`.
    fn model_batch(&self) -> (Vec<Point>, usize, usize) {
        let n = self.history.len();
        let n_good = ((self.cfg.gamma * n as f64).ceil() as usize).clamp(1, n - 1);
        let (good, bad) = self.order.split_at(n_good);
        let dims = self.space.dims();
        let level_of = |i: usize, d: usize| self.level_idx[i * dims + d];
        let good_d = self.densities(good, level_of);
        let bad_d = self.densities(bad, level_of);
        (self.select(&good_d, &bad_d), n_good, n - n_good)
    }

    /// Scores this round's hashed candidate pool by the log density
    /// ratio of the good and bad densities and keeps the best distinct
    /// `batch_size`.
    fn select(&self, good_d: &[AxisDensity], bad_d: &[AxisDensity]) -> Vec<Point> {
        let mut scored: Vec<(f64, usize, Point)> = (0..self.cfg.candidates)
            .map(|c| {
                let k = self.round.wrapping_mul(self.cfg.candidates).wrapping_add(c) as u64;
                let cand = self.hashed_point(SALT_CANDIDATE, k);
                let score: f64 = (0..self.space.dims())
                    .map(|d| {
                        good_d[d].log_density(self.levels[d].as_ref(), cand[d])
                            - bad_d[d].log_density(self.levels[d].as_ref(), cand[d])
                    })
                    .sum();
                (score, c, cand)
            })
            .collect();
        // highest ratio first; candidate index breaks ties so the
        // selection is a pure function of the pool
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut batch: Vec<Point> = Vec::with_capacity(self.cfg.batch_size);
        for (_, _, cand) in &scored {
            if !batch.contains(cand) {
                batch.push(cand.clone());
                if batch.len() == self.cfg.batch_size {
                    break;
                }
            }
        }
        // tiny lattices can hold fewer distinct candidates than the
        // batch width; pad with the top candidate (re-measuring the
        // favourite refines its estimate under noise)
        while batch.len() < self.cfg.batch_size {
            batch.push(scored[0].2.clone());
        }
        batch
    }

    /// Generates the next pending batch if none is outstanding.
    fn refill_pending(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        if self.history.len() < self.cfg.startup {
            self.pending = self.startup_batch();
            event!(
                self.tel,
                "surrogate.decision",
                action = "startup",
                round = self.round,
                points = self.pending.len(),
                observed = self.history.len()
            );
        } else {
            let (batch, n_good, n_bad) = self.model_batch();
            self.pending = batch;
            event!(
                self.tel,
                "surrogate.decision",
                action = "model",
                round = self.round,
                points = self.pending.len(),
                good = n_good,
                bad = n_bad,
                pool = self.cfg.candidates
            );
        }
    }

    /// Records one measured pair.
    fn record(&mut self, point: &Point, value: f64) {
        self.incumbent.offer(point, value);
        self.push_history(point.clone(), value);
    }

    /// Appends a history entry and keeps `order` and `level_idx` in
    /// step: the new, highest index goes after every entry whose
    /// estimate is not greater, which is where a stable sort of the
    /// whole history puts it. O(log n) to find the place, O(n) to
    /// insert.
    fn push_history(&mut self, point: Point, value: f64) {
        let i = self.history.len();
        // total_cmp: a NaN estimate orders above every finite value
        // instead of poisoning the comparison (NaN hardening)
        let pos = self
            .order
            .partition_point(|&j| self.history[j].1.total_cmp(&value).is_le());
        self.order.insert(pos, i);
        for (d, levels) in self.levels.iter().enumerate() {
            let idx = levels.as_ref().map_or(0, |l| level_index(l, point[d]));
            self.level_idx.push(idx);
        }
        self.history.push((point, value));
    }

    /// Replaces the history, rebuilding its derived order and level
    /// indices.
    fn set_history(&mut self, history: Vec<(Point, f64)>) {
        self.history.clear();
        self.order.clear();
        self.level_idx.clear();
        for (p, v) in history {
            self.push_history(p, v);
        }
    }

    /// `history` as a measured-history [`PerfDatabase`] (newest value per
    /// point, first-seen order): the `"perfdb"` section the PRO, SRO and
    /// Nelder–Mead checkpoints carry, derived rather than kept.
    fn measured(&self, history: &[(Point, f64)]) -> PerfDatabase {
        let mut db = PerfDatabase::new(self.space.clone(), HISTORY_NEIGHBORS);
        for (p, v) in history {
            db.insert_replacing(p, *v);
        }
        db
    }
}

impl Optimizer for SurrogateOptimizer {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        // the model never exhausts: re-measuring refines estimates under
        // noise, so the driver's budget is the only stopping rule and
        // the batch is never empty (empty-iff-finished with finished ≡
        // false)
        self.refill_pending();
        self.pending.clone()
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.pending.len(),
            "observe: expected {} values, got {}",
            self.pending.len(),
            values.len()
        );
        assert!(!self.pending.is_empty(), "observe before propose");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "observe: non-finite objective value"
        );
        let pending = std::mem::take(&mut self.pending);
        for (p, &v) in pending.iter().zip(values.iter()) {
            self.record(p, v);
        }
        self.round = self.round.wrapping_add(1);
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        assert_eq!(
            values.len(),
            self.pending.len(),
            "observe_partial: expected {} values, got {}",
            self.pending.len(),
            values.len()
        );
        assert!(!self.pending.is_empty(), "observe before propose");
        // a population model needs no synthetic substitutes: only the
        // measured pairs enter the densities, so holes simply shrink
        // this round's training contribution
        let pending = std::mem::take(&mut self.pending);
        let mut holes = 0usize;
        for (p, v) in pending.iter().zip(values.iter()) {
            match *v {
                Some(v) => {
                    assert!(v.is_finite(), "observe_partial: non-finite objective value");
                    self.record(p, v);
                }
                None => holes += 1,
            }
        }
        event!(
            self.tel,
            "surrogate.decision",
            action = "partial",
            round = self.round,
            holes = holes,
            measured = pending.len() - holes
        );
        self.round = self.round.wrapping_add(1);
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        // deploy the good-set representative: the minimum-estimate pair
        // (for a density model the incumbent *is* the deployment pick)
        self.incumbent.get()
    }

    fn name(&self) -> &str {
        "surrogate"
    }

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        Some(self)
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for SurrogateOptimizer {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("surrogate");
        w.u64(self.seed);
        w.pairs(self.history.iter().map(|(p, v)| (p, *v)));
        w.points(&self.pending);
        w.usize(self.round);
        self.incumbent.save_state(w);
        self.measured(&self.history).save_state(w);
    }

    /// Restores a saved state. Inadmissible or non-finite history
    /// entries, inadmissible pending points, and a `"perfdb"` section
    /// that is not the one the history derives are rejected with
    /// [`CodecError::BadValue`]; on any error the optimizer is left
    /// unchanged.
    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("surrogate")?;
        let seed = r.u64()?;
        let history = r.pairs()?;
        let pending = r.points()?;
        let round = r.usize()?;
        let mut incumbent = Incumbent::new();
        incumbent.restore_state(r)?;
        let mut section = PerfDatabase::new(self.space.clone(), HISTORY_NEIGHBORS);
        section.restore_state(r)?;
        if let Some((p, _)) = history
            .iter()
            .find(|(p, v)| !self.space.is_admissible(p) || !v.is_finite())
        {
            return Err(CodecError::BadValue(format!("bad history entry {p:?}")));
        }
        check_admissible(&self.space, "pending point", &pending)?;
        if save_to_vec(&section) != save_to_vec(&self.measured(&history)) {
            return Err(CodecError::BadValue(
                "perfdb section disagrees with the history".into(),
            ));
        }
        self.seed = seed;
        self.set_history(history);
        self.pending = pending;
        self.round = round;
        self.incumbent = incumbent;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::ParamDef;
    use harmony_recovery::{restore_from_slice, save_to_vec};
    use harmony_stats::splitmix::hash01;
    use proptest::prelude::*;

    /// The reference model batch: sorts the whole history and finds
    /// every member's level by binary search on each call, as the
    /// surrogate did before it kept `order` and `level_idx`.
    fn full_sort_model_batch(opt: &SurrogateOptimizer) -> (Vec<Point>, usize, usize) {
        let n = opt.history.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| opt.history[a].1.total_cmp(&opt.history[b].1));
        let n_good = ((opt.cfg.gamma * n as f64).ceil() as usize).clamp(1, n - 1);
        let (good, bad) = order.split_at(n_good);
        let level_of = |i: usize, d: usize| {
            let levels = opt.levels[d].as_ref().expect("discrete axis");
            level_index(levels, opt.history[i].0[d])
        };
        let good_d = opt.densities(good, level_of);
        let bad_d = opt.densities(bad, level_of);
        (opt.select(&good_d, &bad_d), n_good, n - n_good)
    }

    /// Integer, level and continuous axes, as in the GS2 space.
    fn mixed_space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -6, 6, 1).unwrap(),
            ParamDef::levels("l", vec![1.0, 2.0, 5.0, 9.0]).unwrap(),
            ParamDef::continuous("z", -1.0, 1.0).unwrap(),
        ])
        .unwrap()
    }

    proptest! {
        /// Every model batch equals the full-sort reference's, over
        /// estimates quantised to `levels` values (so ties are common),
        /// batches with holes, and a save/restore partway through.
        #[test]
        fn kept_order_matches_a_full_sort(
            seed in 0u64..1_000,
            levels in 1u64..6,
            holes in 0u64..4,
            rounds in 3usize..40,
            restore_at in 0usize..40,
        ) {
            let space = mixed_space();
            let mut opt = SurrogateOptimizer::with_defaults(space.clone(), seed);
            for r in 0..rounds {
                if r == restore_at {
                    let mut twin = SurrogateOptimizer::with_defaults(space.clone(), 0);
                    restore_from_slice(&mut twin, &save_to_vec(&opt)).unwrap();
                    opt = twin;
                }
                if opt.pending.is_empty() && opt.history.len() >= opt.cfg.startup {
                    prop_assert_eq!(opt.model_batch(), full_sort_model_batch(&opt));
                }
                let batch = opt.propose();
                let values: Vec<Option<f64>> = batch
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let u = hash01(seed, r as u64, i as u64, 0);
                        let q = (u * levels as f64).floor() + p[0].abs() / 8.0;
                        (hash01(seed, r as u64, i as u64, 1) * 8.0 >= holes as f64).then_some(q)
                    })
                    .collect();
                opt.observe_partial(&values);
            }
        }
    }

    fn lattice_space(lo: i64, hi: i64) -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", lo, hi, 1).unwrap(),
            ParamDef::integer("y", lo, hi, 1).unwrap(),
        ])
        .unwrap()
    }

    fn drive<F: Fn(&Point) -> f64>(opt: &mut SurrogateOptimizer, f: F, batches: usize) {
        for _ in 0..batches {
            let batch = opt.propose();
            assert!(!batch.is_empty());
            let vals: Vec<f64> = batch.iter().map(&f).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    fn finds_bowl_minimum_neighbourhood() {
        let space = lattice_space(-50, 50);
        let mut opt = SurrogateOptimizer::with_defaults(space, 11);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1] + 3.0, 60);
        let (best, val) = opt.best().unwrap();
        assert!(
            val < 3.0 + 200.0,
            "surrogate stuck far from optimum: {best:?} @ {val}"
        );
    }

    #[test]
    fn beats_uniform_random_at_equal_budget() {
        // the model phase must concentrate probes: compare the mean best
        // value against pure startup-style sampling with the same budget
        let space = lattice_space(-50, 50);
        let f = |p: &Point| (p[0] - 17.0).powi(2) + (p[1] + 23.0).powi(2);
        let mut surrogate_best = 0.0;
        let mut random_best = 0.0;
        for seed in 0..5u64 {
            let mut opt = SurrogateOptimizer::with_defaults(space.clone(), seed);
            drive(&mut opt, f, 40);
            surrogate_best += opt.best().unwrap().1;
            let mut rnd = crate::baselines::RandomSearch::new(space.clone(), 8, seed);
            for _ in 0..40 {
                let batch = rnd.propose();
                let vals: Vec<f64> = batch.iter().map(f).collect();
                rnd.observe(&vals);
            }
            random_best += rnd.best().unwrap().1;
        }
        assert!(
            surrogate_best < random_best,
            "surrogate {surrogate_best} should beat random {random_best}"
        );
    }

    #[test]
    fn all_proposals_are_admissible() {
        let space = ParamSpace::new(vec![
            ParamDef::integer("x", 0, 30, 3).unwrap(),
            ParamDef::levels("y", vec![1.0, 2.0, 5.0, 9.0]).unwrap(),
            ParamDef::continuous("z", -1.0, 1.0).unwrap(),
        ])
        .unwrap();
        let mut opt = SurrogateOptimizer::with_defaults(space.clone(), 3);
        for _ in 0..30 {
            let batch = opt.propose();
            for p in &batch {
                assert!(space.is_admissible(p), "inadmissible proposal {p:?}");
            }
            let vals: Vec<f64> = batch.iter().map(|p| p[0] + p[1] + p[2]).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    fn deterministic_given_same_observations() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 3.0).powi(2) + (p[1] - 2.0).powi(2);
        let run = || {
            let mut opt = SurrogateOptimizer::with_defaults(space.clone(), 5);
            let mut log = Vec::new();
            for _ in 0..30 {
                let batch = opt.propose();
                log.extend(batch.iter().map(|p| (p[0], p[1])));
                let vals: Vec<f64> = batch.iter().map(f).collect();
                opt.observe(&vals);
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observe_partial_complete_batch_matches_observe() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] - 3.0).powi(2) + (p[1] - 2.0).powi(2);
        let run = |partial: bool| {
            let mut opt = SurrogateOptimizer::with_defaults(space.clone(), 5);
            let mut log = Vec::new();
            for _ in 0..30 {
                let batch = opt.propose();
                log.extend(batch.iter().map(|p| (p[0], p[1])));
                if partial {
                    let vals: Vec<Option<f64>> = batch.iter().map(|p| Some(f(p))).collect();
                    opt.observe_partial(&vals);
                } else {
                    let vals: Vec<f64> = batch.iter().map(f).collect();
                    opt.observe(&vals);
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn observe_partial_with_holes_keeps_proposing() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| p[0].abs() + p[1].abs();
        let mut opt = SurrogateOptimizer::with_defaults(space, 9);
        let mut k = 0usize;
        for _ in 0..30 {
            let batch = opt.propose();
            assert!(!batch.is_empty());
            let vals: Vec<Option<f64>> = batch
                .iter()
                .map(|p| {
                    k += 1;
                    if k.is_multiple_of(4) {
                        None
                    } else {
                        Some(f(p))
                    }
                })
                .collect();
            opt.observe_partial(&vals);
        }
        assert!(opt.best().is_some());
        assert!(!opt.history.is_empty());
    }

    #[test]
    fn restored_huge_round_proposes_without_overflow() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| p[0].abs() + p[1].abs();
        for partial in [false, true] {
            let mut opt = SurrogateOptimizer::with_defaults(space.clone(), 5);
            drive(&mut opt, f, 1);
            // a checkpoint may carry any round: the next batch hashes a
            // startup stream, the one after a model-phase candidate
            // pool, and the second observe wraps the count to 0
            opt.round = usize::MAX - 1;
            let bytes = save_to_vec(&opt);
            let mut restored = SurrogateOptimizer::with_defaults(space.clone(), 0);
            restore_from_slice(&mut restored, &bytes).unwrap();
            for _ in 0..2 {
                let batch = restored.propose();
                assert_eq!(batch.len(), restored.cfg.batch_size);
                assert!(batch.iter().all(|p| space.is_admissible(p)));
                if partial {
                    let vals: Vec<Option<f64>> = batch.iter().map(|p| Some(f(p))).collect();
                    restored.observe_partial(&vals);
                } else {
                    let vals: Vec<f64> = batch.iter().map(f).collect();
                    restored.observe(&vals);
                }
            }
            assert_eq!(restored.rounds(), 0);
            assert_eq!(restored.history.len(), 3 * restored.cfg.batch_size);
        }
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let space = lattice_space(-20, 20);
        let f = |p: &Point| (p[0] + 7.0).powi(2) + (p[1] - 5.0).powi(2);
        let mut opt = SurrogateOptimizer::with_defaults(space.clone(), 13);
        drive(&mut opt, f, 10);
        let bytes = save_to_vec(&opt);
        let mut restored = SurrogateOptimizer::with_defaults(space, 0);
        restore_from_slice(&mut restored, &bytes).unwrap();
        // identical futures: both continue with the same proposals
        for _ in 0..10 {
            let a = opt.propose();
            let b = restored.propose();
            assert_eq!(a, b);
            let va: Vec<f64> = a.iter().map(f).collect();
            opt.observe(&va);
            restored.observe(&va);
        }
        assert_eq!(opt.best(), restored.best());
    }

    /// A surrogate on a 3×3 lattice after 6 batches whose values drift
    /// up and down between visits, so points are re-measured with both
    /// better and worse values.
    fn remeasured_session() -> SurrogateOptimizer {
        let mut opt = SurrogateOptimizer::with_defaults(lattice_space(0, 2), 3);
        let mut k = 0.0;
        for _ in 0..6 {
            let batch = opt.propose();
            let vals: Vec<f64> = batch
                .iter()
                .map(|p| {
                    k += 1.0;
                    p[0] + 3.0 * p[1] + (k * 1.7f64).sin()
                })
                .collect();
            opt.observe(&vals);
        }
        opt.propose();
        opt
    }

    #[test]
    fn checkpoint_bytes_derive_the_history_section() {
        let opt = remeasured_session();
        let same = |a: &Point, b: &Point| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        // newest value per point, in first-seen order
        let mut latest: Vec<(Point, f64)> = Vec::new();
        let mut worse_remeasure = false;
        for (p, v) in &opt.history {
            match latest.iter_mut().find(|(q, _)| same(q, p)) {
                Some(entry) => {
                    worse_remeasure |= *v > entry.1;
                    entry.1 = *v;
                }
                None => latest.push((p.clone(), *v)),
            }
        }
        assert!(
            worse_remeasure,
            "no point was re-measured with a worse value"
        );
        assert!(
            latest
                .windows(2)
                .any(|w| w[0].0.as_slice() > w[1].0.as_slice()),
            "first-seen order is key order"
        );

        let mut w = StateWriter::new();
        w.tag("surrogate");
        w.u64(3);
        w.usize(opt.history.len());
        for (p, v) in &opt.history {
            w.point(p);
            w.f64(*v);
        }
        w.points(&opt.pending);
        w.usize(6);
        let (best, best_val) = opt.best().unwrap();
        w.tag("incumbent");
        w.bool(true);
        w.point(&best);
        w.f64(best_val);
        w.tag("perfdb");
        w.usize(latest.len());
        for (p, v) in &latest {
            w.point(p);
            w.f64(*v);
        }
        assert_eq!(save_to_vec(&opt), w.into_bytes());
    }

    #[test]
    fn restore_rejects_a_section_that_disagrees_with_the_history() {
        let opt = remeasured_session();
        let bytes = save_to_vec(&opt);
        let mut fresh = SurrogateOptimizer::with_defaults(lattice_space(0, 2), 0);
        restore_from_slice(&mut fresh, &bytes).unwrap();
        assert_eq!(save_to_vec(&fresh), bytes);

        // the checkpoint ends with the derived section; swap in the one
        // a keep-better database would write
        let header = harmony_recovery::codec::MAGIC.len();
        let section = save_to_vec(&opt.measured(&opt.history)).len() - header;
        let mut keep_better = PerfDatabase::new(lattice_space(0, 2), HISTORY_NEIGHBORS);
        for (p, v) in &opt.history {
            keep_better.insert(p.clone(), *v);
        }
        let mut tampered = bytes[..bytes.len() - section].to_vec();
        tampered.extend_from_slice(&save_to_vec(&keep_better)[header..]);
        assert_ne!(tampered, bytes);

        let before = save_to_vec(&fresh);
        let err = restore_from_slice(&mut fresh, &tampered).unwrap_err();
        assert!(matches!(err, CodecError::BadValue(_)), "{err:?}");
        assert_eq!(
            save_to_vec(&fresh),
            before,
            "a failed restore changed the optimizer"
        );
    }

    #[test]
    fn model_phase_engages_after_startup() {
        let space = lattice_space(-10, 10);
        let cfg = SurrogateConfig::default();
        let mut opt = SurrogateOptimizer::new(space, cfg, 21);
        let mut rounds = 0;
        while opt.history.len() < cfg.startup {
            let batch = opt.propose();
            let vals: Vec<f64> = batch.iter().map(|p| p[0] * p[0] + p[1] * p[1]).collect();
            opt.observe(&vals);
            rounds += 1;
            assert!(rounds < 100, "startup never completed");
        }
        // next batch comes from the density model and is still valid
        let batch = opt.propose();
        assert_eq!(batch.len(), cfg.batch_size);
    }

    #[test]
    fn nan_estimate_does_not_poison_the_model() {
        // NaN cannot arrive via observe (asserted finite) or restore
        // (rejected), but the total_cmp order must keep the model usable
        // whatever the history holds
        let space = lattice_space(-10, 10);
        let mut opt = SurrogateOptimizer::with_defaults(space.clone(), 2);
        drive(&mut opt, |p| p[0] * p[0] + p[1] * p[1], 4);
        opt.push_history(space.center(), f64::NAN);
        assert_eq!(opt.order.last(), Some(&(opt.history.len() - 1)));
        let (batch, n_good, _) = opt.model_batch();
        assert_eq!(batch.len(), opt.cfg.batch_size);
        assert!(n_good >= 1);
        for p in &batch {
            assert!(space.is_admissible(p));
        }
    }

    #[test]
    fn tiny_lattice_pads_batch() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", 0, 1, 1).unwrap()]).unwrap();
        let cfg = SurrogateConfig {
            startup: 2,
            ..SurrogateConfig::default()
        };
        let mut opt = SurrogateOptimizer::new(space, cfg, 1);
        for _ in 0..6 {
            let batch = opt.propose();
            assert_eq!(batch.len(), opt.cfg.batch_size);
            let vals: Vec<f64> = batch.iter().map(|p| p[0]).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    #[should_panic(expected = "observe: expected")]
    fn wrong_observation_length_panics() {
        let space = lattice_space(-5, 5);
        let mut opt = SurrogateOptimizer::with_defaults(space, 1);
        let n = opt.propose().len();
        assert!(n > 1);
        opt.observe(&[1.0]);
    }

    #[test]
    fn telemetry_emits_decisions_without_perturbing_the_trajectory() {
        let space = lattice_space(-10, 10);
        let f = |p: &Point| p[0] * p[0] + p[1] * p[1];
        let mut plain = SurrogateOptimizer::with_defaults(space.clone(), 5);
        drive(&mut plain, f, 6);

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut traced = SurrogateOptimizer::with_defaults(space, 5);
        traced.set_telemetry(tel);
        drive(&mut traced, f, 6);

        assert_eq!(plain.recommendation(), traced.recommendation());
        let records = sink.take();
        let decisions: Vec<_> = records
            .iter()
            .filter(|r| r.name == "surrogate.decision")
            .collect();
        assert!(decisions.len() >= 6, "one decision event per refill");
        let has_action = |want: &str| {
            decisions.iter().any(|r| {
                r.fields
                    .iter()
                    .any(|f| f.key == "action" && format!("{:?}", f.value).contains(want))
            })
        };
        assert!(has_action("startup"), "startup decisions traced");
        assert!(has_action("model"), "model decisions traced");
    }
}
