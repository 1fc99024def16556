//! Deterministic fault injection for distributed tuning sessions.
//!
//! The paper tunes a *live* SPMD application on a shared 64-node
//! cluster — an environment where nodes crash, daemons stall processes,
//! and measurement reports arrive late or never. A [`FaultPlan`] decides,
//! as a pure function of `(plan seed, client id, task serial)`, whether a
//! client crashes permanently and how each of its reports is delivered:
//! on time, duplicated, later than the server's deadline, or not at all.
//!
//! Because every decision is a hash (not a wall-clock race), a session
//! replayed with the same seeds and the same plan produces bit-identical
//! results regardless of thread scheduling — faults are reproducible
//! experiments, not flakes. The plan drives the real-thread tuning
//! server's client loops; the simulated [`crate::spmd::Cluster`] is
//! fault-free.

use harmony_stats::splitmix;

/// A crashing client dies while running one of its first
/// `CRASH_HORIZON` tasks, so crashes land during the exploration phase
/// (where they stress retry/reassignment) rather than arbitrarily late.
pub const CRASH_HORIZON: usize = 24;

/// How a client's measurement report reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Delivery {
    /// The report arrives before the deadline.
    OnTime,
    /// The report arrives on time *twice* (e.g. a retransmit after a
    /// lost ack); the server must de-duplicate.
    Duplicated,
    /// The client hangs: its report arrives only after the server's
    /// deadline has expired, so the measurement is stale on arrival.
    Late,
    /// The report is dropped in transit and never arrives.
    Lost,
}

/// A seeded, deterministic schedule of client crashes and report
/// delivery faults.
///
/// Rates are probabilities in `[0, 1]`. `crash` is per *client* (a
/// crashing client dies while running one of its first
/// [`CRASH_HORIZON`] tasks); `hang`, `drop` and `duplicate` are per
/// *report* and must sum to at most 1 (the remainder is delivered
/// [`Delivery::OnTime`]). The default is [`FaultPlan::none`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crash: f64,
    hang: f64,
    drop: f64,
    duplicate: f64,
}

// Salts decorrelating the plan's independent decision streams.
const SALT_CRASH: u64 = 0xC4A5;
const SALT_WHEN: u64 = 0x3E17;
const SALT_DELIVERY: u64 = 0xD311;

/// A uniform draw in `[0, 1)` as a pure function of its inputs — the
/// workspace-shared chained-SplitMix64 mix.
fn hash01(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    splitmix::hash01(seed, salt, a, b)
}

impl FaultPlan {
    /// Creates a plan.
    ///
    /// # Panics
    /// Panics when any rate is outside `[0, 1]` or when
    /// `hang + drop + duplicate > 1`.
    pub fn new(seed: u64, crash: f64, hang: f64, drop: f64, duplicate: f64) -> Self {
        for (name, rate) in [
            ("crash", crash),
            ("hang", hang),
            ("drop", drop),
            ("duplicate", duplicate),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} rate {rate} outside [0, 1]"
            );
        }
        assert!(
            hang + drop + duplicate <= 1.0,
            "per-report rates sum to {} > 1",
            hang + drop + duplicate
        );
        FaultPlan {
            seed,
            crash,
            hang,
            drop,
            duplicate,
        }
    }

    /// The plan that injects nothing: every client lives forever and
    /// every report is delivered exactly once, on time.
    pub fn none() -> Self {
        FaultPlan::new(0, 0.0, 0.0, 0.0, 0.0)
    }

    /// `true` when no fault can ever fire under this plan.
    pub fn is_fault_free(&self) -> bool {
        self.crash == 0.0 && self.hang == 0.0 && self.drop == 0.0 && self.duplicate == 0.0
    }

    /// The task serial (0-based count of tasks the client has started)
    /// at which `client` crashes, or `None` if it never crashes.
    pub fn crash_point(&self, client: usize) -> Option<usize> {
        if hash01(self.seed, SALT_CRASH, client as u64, 0) < self.crash {
            let when = hash01(self.seed, SALT_WHEN, client as u64, 0);
            Some((when * CRASH_HORIZON as f64) as usize)
        } else {
            None
        }
    }

    /// How `client`'s report for its `serial`-th task is delivered.
    pub fn delivery(&self, client: usize, serial: usize) -> Delivery {
        if self.is_fault_free() {
            return Delivery::OnTime;
        }
        let u = hash01(self.seed, SALT_DELIVERY, client as u64, serial as u64);
        if u < self.hang {
            Delivery::Late
        } else if u < self.hang + self.drop {
            Delivery::Lost
        } else if u < self.hang + self.drop + self.duplicate {
            Delivery::Duplicated
        } else {
            Delivery::OnTime
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_fault_free());
        for client in 0..64 {
            assert_eq!(plan.crash_point(client), None);
            for serial in 0..64 {
                assert_eq!(plan.delivery(client, serial), Delivery::OnTime);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(7, 0.3, 0.2, 0.1, 0.05);
        let b = FaultPlan::new(7, 0.3, 0.2, 0.1, 0.05);
        for client in 0..32 {
            assert_eq!(a.crash_point(client), b.crash_point(client));
            for serial in 0..32 {
                assert_eq!(a.delivery(client, serial), b.delivery(client, serial));
            }
        }
    }

    #[test]
    fn crash_fraction_tracks_rate() {
        let plan = FaultPlan::new(11, 0.25, 0.0, 0.0, 0.0);
        let crashed = (0..4000).filter(|&c| plan.crash_point(c).is_some()).count();
        let frac = crashed as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "crash fraction {frac}");
        for c in 0..4000 {
            if let Some(when) = plan.crash_point(c) {
                assert!(when < CRASH_HORIZON);
            }
        }
    }

    #[test]
    fn delivery_fractions_track_rates() {
        let plan = FaultPlan::new(13, 0.0, 0.2, 0.1, 0.05);
        let mut counts = [0usize; 4];
        let total = 20_000;
        for client in 0..100 {
            for serial in 0..200 {
                let i = match plan.delivery(client, serial) {
                    Delivery::Late => 0,
                    Delivery::Lost => 1,
                    Delivery::Duplicated => 2,
                    Delivery::OnTime => 3,
                };
                counts[i] += 1;
            }
        }
        let frac = |i: usize| counts[i] as f64 / total as f64;
        assert!((frac(0) - 0.2).abs() < 0.02, "late {}", frac(0));
        assert!((frac(1) - 0.1).abs() < 0.02, "lost {}", frac(1));
        assert!((frac(2) - 0.05).abs() < 0.02, "dup {}", frac(2));
        assert!((frac(3) - 0.65).abs() < 0.02, "on-time {}", frac(3));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, 0.5, 0.0, 0.0, 0.0);
        let b = FaultPlan::new(2, 0.5, 0.0, 0.0, 0.0);
        let same = (0..256)
            .filter(|&c| a.crash_point(c).is_some() == b.crash_point(c).is_some())
            .count();
        assert!(same < 256, "independent seeds produced identical plans");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn negative_rate_rejected() {
        FaultPlan::new(0, -0.1, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_report_rates_rejected() {
        FaultPlan::new(0, 0.0, 0.5, 0.4, 0.2);
    }
}
