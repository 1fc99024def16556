//! End-to-end and per-layer benchmark of the harmony tuning stack.
//!
//! Three closed-loop workloads drive the library through its public
//! API only:
//!
//! * [`suite`] — `harness::run` at full scale (what the reproduction
//!   costs), with traced replays of whole fig10 cells;
//! * [`served`] — supervised, journaled, fault-injected two-client
//!   server sessions back to back (what a live application pays per
//!   barrier step);
//! * [`fleet`] — waves of single-client sessions sharing one
//!   `SharedPerfDb` tier pair (the only workload where shared-tier reads
//!   run beside writes).
//!
//! Per-layer numbers come from timing wrappers attached at the trait
//! seams the library already exposes ([`probe`]) and from replaying
//! captured inputs through a layer's public functions where no seam
//! exists. Nothing inside the library changes.

pub mod fleet;
pub mod host;
pub mod layers;
pub mod probe;
pub mod served;
pub mod suite;

use harmony_core::server::SupervisorReport;
use harmony_core::TuningOutcome;
use std::path::PathBuf;
use std::time::Instant;

/// Per-session outcome check tolerance for the additivity test: timed
/// children may exceed their enclosing wall by this share plus
/// [`ADDITIVITY_SLACK_S`] before the trace is declared inconsistent.
pub const ADDITIVITY_TOLERANCE: f64 = 0.01;
/// Absolute slack of the additivity check (clock granularity).
pub const ADDITIVITY_SLACK_S: f64 = 1e-4;

/// What a run reports for a per-round timing: the mean of the faster
/// half of its rounds. Host interference (steal, co-tenants) only ever
/// adds time, so, like the paper's min-of-K estimator, this discards the
/// rounds the host slowed down, while a change that slows every round
/// still moves it. A mean rather than a quantile, because CPU time comes
/// in 10 ms `/proc` ticks: a quantile would read the same tick count on
/// many runs.
pub fn over_rounds(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s.truncate(s.len().div_ceil(2));
    if s.is_empty() {
        f64::NAN
    } else {
        s.iter().sum::<f64>() / s.len() as f64
    }
}

/// Where a run may write: a private temp directory under the checkout,
/// removed when the run ends.
pub struct Ctx {
    /// Checkout root (holds `results/`).
    pub root: PathBuf,
    /// Private scratch directory for journals and harness output.
    pub tmp: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Hardware threads available to the process.
    pub nproc: usize,
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as cited by BENCHMARK.json.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Worker threads the workload ran on.
    pub workers: usize,
    /// Operations attempted (sessions, artifacts, replayed cells).
    pub attempted: u64,
    /// Operations that failed an output check or returned an error.
    pub failed: u64,
    /// Metrics declared in BENCHMARK.json for this mode, in order.
    pub declared: Vec<Metric>,
    /// Further metrics printed for people but not part of the result
    /// object (workload-specific or zero by construction).
    pub extra: Vec<Metric>,
    /// Free-form lines explaining the run (checks, sample counts).
    pub notes: Vec<String>,
    /// Checks that failed, with a reason each.
    pub errors: Vec<String>,
}

impl Report {
    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Counts one failed operation; keeps the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(why);
        }
    }
}

/// Failure reasons kept per run; the count in `failed` is complete.
const MAX_ERRORS: usize = 20;

/// Times `n` set-ups, keeping the last one built.
pub fn timed_setups<T>(
    n: usize,
    mut build: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<(Vec<f64>, T)> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t0 = std::time::Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("at least one set-up")))
}

/// One session as the end-to-end metrics see it.
#[derive(Debug, Clone, Copy)]
pub struct SessionSample {
    /// Wall seconds of the session.
    pub wall_s: f64,
    /// Seconds to the 1.25× quality band, when reached.
    pub band_s: Option<f64>,
    /// Barrier steps completed.
    pub steps: u64,
    /// Objective evaluations, counting every sample.
    pub probes: u64,
}

impl SessionSample {
    /// Builds a sample from a session's wall, band time and outcome.
    pub fn new(wall_s: f64, band_s: Option<f64>, outcome: Option<&TuningOutcome>) -> Self {
        SessionSample {
            wall_s,
            band_s,
            steps: outcome.map_or(0, |o| o.trace.len() as u64),
            probes: outcome.map_or(0, |o| o.evaluations as u64),
        }
    }
}

/// Session-level totals of an untraced run. Session percentiles are
/// taken per round and reported [`over_rounds`], so a host pause that
/// lands in a few sessions of some rounds does not move them.
#[derive(Debug, Default)]
pub struct SessionTotals {
    /// Median session wall of every round, ms.
    pub round_p50_ms: Vec<f64>,
    /// 95th-percentile session wall of every round, ms.
    pub round_p95_ms: Vec<f64>,
    /// Sessions seen.
    pub sessions: u64,
    /// Time to the quality band of every session that reached it, ms.
    pub band_ms: Vec<f64>,
    /// Barrier steps completed.
    pub steps: u64,
    /// Objective evaluations, counting every sample.
    pub probes: u64,
}

impl SessionTotals {
    /// Adds one round's sessions.
    pub fn add_round(&mut self, sessions: &[SessionSample]) {
        let ms: Vec<f64> = sessions.iter().map(|s| s.wall_s * 1e3).collect();
        self.round_p50_ms.push(quantile(&ms, 0.5));
        self.round_p95_ms.push(quantile(&ms, 0.95));
        self.sessions += sessions.len() as u64;
        for s in sessions {
            self.band_ms.extend(s.band_s.map(|b| b * 1e3));
            self.steps += s.steps;
            self.probes += s.probes;
        }
    }

    /// Fills the end-to-end metrics of a run whose `rounds` ran inside
    /// `window`.
    pub fn finish(
        &self,
        report: &mut Report,
        setup_s: &[f64],
        rounds: &[host::Span],
        window: &host::Window,
    ) {
        let run = window.span();
        let (wall, cpu, steal) = (run.wall_s, run.cpu_s, run.steal_s);
        report.declared = round_metrics(setup_s, rounds, over_rounds(&self.round_p50_ms));
        report.extra = vec![
            metric("session_p95_ms", over_rounds(&self.round_p95_ms), "ms"),
            metric(
                "suite_wall_s.with_steal",
                over_rounds(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
                "s",
            ),
            metric("steps_per_s", self.steps as f64 / wall, "1/s"),
            metric("probes_per_s", self.probes as f64 / wall, "1/s"),
            metric("band_p50_ms", quantile(&self.band_ms, 0.5), "ms"),
            metric(
                "cpu_per_step_us",
                cpu / self.steps.max(1) as f64 * 1e6,
                "us",
            ),
            metric(
                "failed_frac",
                report.failed as f64 / report.attempted.max(1) as f64,
                "ratio",
            ),
            metric("host_steal_s", steal, "s"),
        ];
        report.notes.push(format!(
            "{} rounds of {} sessions; {} of {} sessions reached the quality band; session percentiles per round (n={} each); round timings are means over the faster half of the rounds",
            rounds.len(),
            self.sessions / rounds.len().max(1) as u64,
            self.band_ms.len(),
            self.sessions,
            self.sessions / rounds.len().max(1) as u64,
        ));
    }
}

/// The declared end-to-end metrics, in BENCHMARK.json order, of a run
/// whose set-ups took `setup_s` and whose rounds took `rounds`:
/// `suite_wall_s` is the round wall less the host steal over it.
pub fn round_metrics(setup_s: &[f64], rounds: &[host::Span], p50_ms: f64) -> Vec<Metric> {
    let of = |f: fn(&host::Span) -> f64| over_rounds(&rounds.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("suite_wall_s", of(host::Span::unstolen_s), "s"),
        metric("suite_cpu_s", of(|r| r.cpu_s), "s"),
        metric("session_p50_ms", p50_ms, "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// What one round of a session workload hands to [`drive`].
pub trait RoundOutput {
    /// One entry per checked operation, in a fixed order: its digest,
    /// or why it failed. A round must repeat the first round's digests.
    fn ops(&self) -> Vec<Result<u64, String>>;
    /// Digests compared with `reference.txt` for [`PINNED_SEED`].
    fn reference_digests(&self) -> Vec<(&'static str, u64)>;
    /// The sessions, for the end-to-end metrics.
    fn sessions(&self) -> Vec<SessionSample>;
    /// Layer sums; meaningful on traced rounds.
    fn layers(&self) -> layers::Layers;
}

/// What [`drive`] measured.
pub struct Driven<R> {
    /// Wall, CPU and steal of every plain round.
    pub plain: Vec<host::Span>,
    /// Wall seconds of every traced round.
    pub traced_walls: Vec<f64>,
    /// Layer sums of every traced round.
    pub layers: Vec<layers::Layers>,
    /// The first traced round, for the replays.
    pub sample: Option<R>,
    /// Session totals of the plain rounds.
    pub totals: SessionTotals,
    /// The measurement window.
    pub window: host::Window,
}

/// Runs a session workload's rounds for `ctx.seconds`. First, untimed,
/// one traced round of [`PINNED_SEED`] is checked against
/// `reference.txt`, so the outcome check does not depend on `--seed`.
/// Then plain rounds of `ctx.seed` repeat (with `traced`, each followed
/// by a traced round, so their difference is the tracing overhead), and
/// every round's operations must repeat the first round's digests.
pub fn drive<R: RoundOutput>(
    ctx: &Ctx,
    report: &mut Report,
    workload: &str,
    traced: bool,
    mut round: impl FnMut(u64, bool) -> std::io::Result<R>,
) -> std::io::Result<Driven<R>> {
    check_pinned(ctx, report, workload, &round(PINNED_SEED, true)?);
    let mut d = Driven {
        plain: Vec::new(),
        traced_walls: Vec::new(),
        layers: Vec::new(),
        sample: None,
        totals: SessionTotals::default(),
        window: host::Window::open(),
    };
    let mut first: Option<Vec<Option<u64>>> = None;
    while first.is_none() || d.window.span().wall_s < ctx.seconds {
        let w = host::Window::open();
        let plain = round(ctx.seed, false)?;
        d.plain.push(w.span());
        check_repeats(report, &mut first, &plain);
        d.totals.add_round(&plain.sessions());
        if traced {
            let t0 = Instant::now();
            let r = round(ctx.seed, true)?;
            d.traced_walls.push(t0.elapsed().as_secs_f64());
            check_repeats(report, &mut first, &r);
            d.layers.push(r.layers());
            d.sample.get_or_insert(r);
        }
    }
    if traced {
        layers::check_rounds(report, &d.layers);
    }
    Ok(d)
}

impl<R> Driven<R> {
    /// Fills a traced run's metrics: the declared per-layer set (with
    /// the min-of-`k` and shared-tier query replays over the captured
    /// `samples` and `points`, and the tracing overhead), then `info`
    /// lines for the workload's own layers and the host steal.
    pub fn finish_traced(
        &self,
        report: &mut Report,
        samples: &[f64],
        k: usize,
        space: &harmony_params::ParamSpace,
        points: &[(harmony_params::Point, f64)],
    ) {
        let plain: Vec<f64> = self.plain.iter().map(|r| r.wall_s).collect();
        let overhead = 100.0 * (median(&self.traced_walls) / median(&plain) - 1.0);
        report.declared = layers::declared_metrics(
            &self.layers,
            layers::replay_reduce(samples, k),
            layers::replay_query(space, points),
            overhead,
        );
        report.extra = layers::layer_info(&self.layers);
        report
            .extra
            .push(metric("host_steal_s", self.window.span().steal_s, "s"));
        report.notes.push(format!(
            "{} plain and {} traced rounds; layer timings are medians of per-round sums",
            self.plain.len(),
            self.traced_walls.len()
        ));
    }
}

/// Counts every operation of `r` and fails those that errored or whose
/// digest differs from the first round's.
fn check_repeats<R: RoundOutput>(report: &mut Report, first: &mut Option<Vec<Option<u64>>>, r: &R) {
    let ops = r.ops();
    let want = first.get_or_insert_with(|| ops.iter().map(|o| o.as_ref().ok().copied()).collect());
    for (i, op) in ops.iter().enumerate() {
        report.attempted += 1;
        match op {
            Err(e) => report.fail(format!("operation {i}: {e}")),
            Ok(d) if want.get(i) != Some(&Some(*d)) => report.fail(format!(
                "operation {i}: outcome digest differs between rounds"
            )),
            Ok(_) => {}
        }
    }
}

/// Checks a traced round of [`PINNED_SEED`]: every operation succeeds,
/// and its outcome, tier and layer-count digests equal the recorded ones.
fn check_pinned<R: RoundOutput>(ctx: &Ctx, report: &mut Report, workload: &str, r: &R) {
    for (i, op) in r.ops().iter().enumerate() {
        report.attempted += 1;
        if let Err(e) = op {
            report.fail(format!("pinned seed {PINNED_SEED}, operation {i}: {e}"));
        }
    }
    let counts = digest_words(&r.layers().counts());
    for (key, got) in r
        .reference_digests()
        .into_iter()
        .chain([("counts", counts)])
    {
        check_reference(ctx, report, workload, key, got);
    }
}

/// Refuses a configuration whose client threads in flight (concurrent
/// sessions × clients per session) exceed the hardware threads, so the
/// benchmark never measures its own oversubscription.
pub fn check_thread_budget(concurrent: usize, clients: usize, nproc: usize) -> Result<(), String> {
    let need = concurrent.saturating_mul(clients);
    if need == 0 || need > nproc {
        Err(format!(
            "thread budget exceeded: {concurrent} concurrent sessions x {clients} clients = {need} > nproc {nproc}"
        ))
    } else {
        Ok(())
    }
}

/// 64-bit FNV-1a, the digest of every outcome and count check.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds one word.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its bits.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of the parts of a session outcome the benchmark checks: best
/// point, `best_true_cost` bits, evaluations, `total_time` bits, fault
/// counters and (when supervised) supervisor counters.
pub fn outcome_digest(out: &TuningOutcome, sup: Option<&SupervisorReport>) -> u64 {
    let mut d = Digest::default();
    for x in out.best_point.iter() {
        d = d.f64(x);
    }
    let f = &out.faults;
    d = d
        .f64(out.best_true_cost)
        .u64(out.evaluations as u64)
        .f64(out.total_time())
        .u64(out.trace.len() as u64);
    for c in [
        f.missed_reports,
        f.retries,
        f.abandoned_slots,
        f.evicted_clients,
        f.partial_batches,
        f.duplicate_reports,
    ] {
        d = d.u64(c as u64);
    }
    if let Some(s) = sup {
        d = d
            .u64(u64::from(s.degraded))
            .u64(s.forced_batches as u64)
            .u64(s.breaker_opens as u64)
            .u64(s.breaker_closes as u64)
            .u64(s.min_width as u64);
    }
    d.finish()
}

/// The outcome digest of a session that returned `Ok`, after checking
/// that its `best_true_cost` is the objective's value at its best point
/// (an invariant that holds for every seed, recorded or not).
pub fn checked_digest(
    out: &TuningOutcome,
    sup: Option<&SupervisorReport>,
    objective: &dyn harmony_surface::Objective,
) -> Result<u64, String> {
    let want = objective.eval(&out.best_point);
    if out.best_true_cost.to_bits() != want.to_bits() {
        return Err(format!(
            "best_true_cost {} is not the objective at the best point ({want})",
            out.best_true_cost
        ));
    }
    Ok(outcome_digest(out, sup))
}

/// Digest of a sequence of words (session digests of a round, counts).
pub fn digest_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(Digest::default(), |d, w| d.u64(*w))
        .finish()
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Seed whose outcome, tier and layer-count digests every run checks
/// against `perfbench/reference.txt`, whatever its `--seed`.
pub const PINNED_SEED: u64 = 0;

/// Reads the digest recorded for `workload` and `key` in
/// `perfbench/reference.txt` (lines `workload key hex`).
pub fn reference(root: &std::path::Path, workload: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(root.join("perfbench/reference.txt")).ok()?;
    text.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, k, v) = (it.next()?, it.next()?, it.next()?);
        (w == workload && k == key)
            .then(|| u64::from_str_radix(v, 16).ok())
            .flatten()
    })
}

/// Compares `got` with the digest recorded for `workload` and `key`; a
/// missing record fails like a mismatch. Prints `reference <key>: <hex>`
/// either way (`record_reference.py` reads these lines).
pub fn check_reference(ctx: &Ctx, report: &mut Report, workload: &str, key: &str, got: u64) {
    report.attempted += 1;
    match reference(&ctx.root, workload, key) {
        Some(want) if want == got => report
            .notes
            .push(format!("reference {key}: {got:016x} matches")),
        Some(want) => {
            report
                .notes
                .push(format!("reference {key}: {got:016x} recorded {want:016x}"));
            report.fail(format!("{workload} {key} differ from reference.txt"));
        }
        None => {
            report
                .notes
                .push(format!("reference {key}: {got:016x} not recorded"));
            report.fail(format!("{workload} {key} has no record in reference.txt"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_guard() {
        assert!(check_thread_budget(1, 2, 2).is_ok());
        assert!(check_thread_budget(2, 1, 2).is_ok());
        assert!(check_thread_budget(2, 2, 2).is_err());
        assert!(check_thread_budget(1, 8, 2).is_err());
        assert!(check_thread_budget(0, 1, 2).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn over_rounds_averages_the_faster_half() {
        assert_eq!(over_rounds(&[9.0, 1.0, 3.0, 100.0]), 2.0);
        assert_eq!(over_rounds(&[4.0, 2.0, 30.0]), 3.0);
        assert_eq!(over_rounds(&[5.0]), 5.0);
        assert!(over_rounds(&[]).is_nan());
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest_words(&[1, 2]), digest_words(&[2, 1]));
        assert_eq!(digest_words(&[1, 2]), digest_words(&[1, 2]));
    }
}
