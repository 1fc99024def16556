//! The `harmony-tune` command-line driver: pick an objective (the GS2
//! model or its §6 performance database), an algorithm, a noise level,
//! and an estimator, and run one on-line tuning session.
//!
//! ```text
//! harmony-tune --objective gs2 --algo pro --rho 0.2 --estimator min3
//! harmony-tune --objective database --algo sro --steps 200 --seed 7
//! ```

use crate::core::baselines::{ExhaustiveSweep, GeneticAlgorithm, RandomSearch, SimulatedAnnealing};
use crate::core::nelder_mead::NelderMead;
use crate::core::sro::SroOptimizer;
use crate::core::surrogate::SurrogateOptimizer;
use crate::core::{Estimator, OnlineTuner, Optimizer, ProConfig, ProOptimizer, TunerConfig};
use crate::params::ParamSpace;
use crate::surface::{best_on_lattice, Gs2Model, Objective, PerfDatabase};
use crate::variability::noise::Noise;
use crate::variability::seeded_rng;
use harmony_cluster::SamplingMode;

/// Parsed command-line configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CliConfig {
    /// Objective name: `gs2` or `database`.
    pub objective: String,
    /// Algorithm: `pro`, `sro`, `nelder-mead`, `surrogate`, `random`,
    /// `sa`, `ga`, `exhaustive`.
    pub algo: String,
    /// Idle throughput `ρ` of the Pareto noise (0 disables noise).
    pub rho: f64,
    /// Pareto tail index (finite, > 1).
    pub alpha: f64,
    /// Estimator spec: `single`, `minK`, `meanK`, `medianK` (e.g. `min3`).
    pub estimator: String,
    /// Time-step budget.
    pub steps: usize,
    /// Simulated processors (at least 1).
    pub procs: usize,
    /// RNG seed.
    pub seed: u64,
    /// PRO continuous-monitoring mode.
    pub continuous: bool,
    /// Print the per-step trace as CSV to stdout.
    pub print_trace: bool,
    /// Number of independent replications to average (1 = single run).
    pub reps: usize,
}

impl Default for CliConfig {
    fn default() -> Self {
        CliConfig {
            objective: "gs2".into(),
            algo: "pro".into(),
            rho: 0.2,
            alpha: 1.7,
            estimator: "min2".into(),
            steps: 100,
            procs: 64,
            seed: 2005,
            continuous: false,
            print_trace: false,
            reps: 1,
        }
    }
}

/// Usage text.
pub const USAGE: &str =
    "harmony-tune — on-line parameter tuning (PRO / Active Harmony reproduction)

USAGE:
  harmony-tune [--objective gs2|database]
               [--algo pro|sro|nelder-mead|surrogate|random|sa|ga|exhaustive]
               [--rho <0..1>] [--alpha <pareto tail index, > 1>]
               [--estimator single|min<K>|mean<K>|median<K>]
               [--steps <n>] [--procs <n>] [--seed <n>]
               [--continuous] [--trace] [--reps <n>] [--help]
";

impl CliConfig {
    /// Parses command-line arguments (without the program name).
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags, missing or
    /// malformed values.
    pub fn parse<I, S>(args: I) -> Result<CliConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = CliConfig::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            let mut value = |flag: &str| -> Result<String, String> {
                it.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match arg {
                "--objective" => cfg.objective = value("--objective")?,
                "--algo" => cfg.algo = value("--algo")?,
                "--rho" => {
                    cfg.rho = value("--rho")?
                        .parse()
                        .map_err(|_| "--rho expects a number".to_string())?;
                }
                "--alpha" => {
                    cfg.alpha = value("--alpha")?
                        .parse()
                        .map_err(|_| "--alpha expects a number".to_string())?;
                }
                "--estimator" => cfg.estimator = value("--estimator")?,
                "--steps" => {
                    cfg.steps = value("--steps")?
                        .parse()
                        .map_err(|_| "--steps expects an integer".to_string())?;
                }
                "--procs" => {
                    cfg.procs = value("--procs")?
                        .parse()
                        .map_err(|_| "--procs expects an integer".to_string())?;
                }
                "--seed" => {
                    cfg.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects an integer".to_string())?;
                }
                "--reps" => {
                    cfg.reps = value("--reps")?
                        .parse()
                        .map_err(|_| "--reps expects an integer".to_string())?;
                    if cfg.reps == 0 {
                        return Err("--reps must be at least 1".into());
                    }
                }
                "--continuous" => cfg.continuous = true,
                "--trace" => cfg.print_trace = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
            }
        }
        if !(0.0..1.0).contains(&cfg.rho) {
            return Err("--rho must be in [0, 1)".into());
        }
        // eq. 17's beta is 0 at alpha = 1 and negative below it
        if !(cfg.alpha.is_finite() && cfg.alpha > 1.0) {
            return Err("--alpha must be finite and greater than 1".into());
        }
        if cfg.procs == 0 {
            return Err("--procs must be at least 1".into());
        }
        cfg.parse_estimator()?; // validate early
        Ok(cfg)
    }

    /// Resolves the estimator spec.
    pub fn parse_estimator(&self) -> Result<Estimator, String> {
        let e = self.estimator.as_str();
        if e == "single" {
            return Ok(Estimator::Single);
        }
        for (prefix, make) in [
            ("min", Estimator::MinOfK as fn(usize) -> Estimator),
            ("mean", Estimator::MeanOfK as fn(usize) -> Estimator),
            ("median", Estimator::MedianOfK as fn(usize) -> Estimator),
        ] {
            if let Some(k) = e.strip_prefix(prefix) {
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("estimator `{e}`: expected e.g. {prefix}3"))?;
                if k == 0 {
                    return Err("estimator needs K >= 1".into());
                }
                return Ok(make(k));
            }
        }
        Err(format!(
            "unknown estimator `{e}` (single, minK, meanK, medianK)"
        ))
    }

    fn build_objective(&self) -> Result<Box<dyn Objective>, String> {
        match self.objective.as_str() {
            "gs2" => Ok(Box::new(Gs2Model::paper_scale())),
            "database" => {
                let mut rng = seeded_rng(self.seed ^ 0xDB);
                Ok(Box::new(PerfDatabase::from_objective(
                    &Gs2Model::paper_scale(),
                    0.6,
                    4,
                    &mut rng,
                )))
            }
            other => Err(format!("unknown objective `{other}`")),
        }
    }

    fn build_optimizer(&self, space: ParamSpace) -> Result<Box<dyn Optimizer>, String> {
        Ok(match self.algo.as_str() {
            "pro" => Box::new(ProOptimizer::new(
                space,
                ProConfig {
                    continuous: self.continuous,
                    ..ProConfig::default()
                },
            )),
            "sro" => Box::new(SroOptimizer::with_defaults(space)),
            "nelder-mead" => Box::new(NelderMead::with_defaults(space)),
            "surrogate" => Box::new(SurrogateOptimizer::with_defaults(space, self.seed)),
            "random" => Box::new(RandomSearch::new(space, 6, self.seed)),
            "sa" => Box::new(SimulatedAnnealing::new(space, 2.0, 0.99, self.seed)),
            "ga" => Box::new(GeneticAlgorithm::new(space, 12, 0.4, self.seed)),
            "exhaustive" => Box::new(ExhaustiveSweep::new(space, self.procs)),
            other => return Err(format!("unknown algorithm `{other}`")),
        })
    }

    /// Runs the configured session, returning the printed report.
    ///
    /// # Errors
    /// Propagates configuration errors (objective/algorithm).
    pub fn run(&self) -> Result<String, String> {
        if self.reps > 1 {
            return self.run_averaged();
        }
        let objective = self.build_objective()?;
        let mut optimizer = self.build_optimizer(objective.space().clone())?;
        let estimator = self.parse_estimator()?;
        let noise = if self.rho == 0.0 {
            Noise::None
        } else {
            Noise::Pareto {
                alpha: self.alpha,
                rho: self.rho,
            }
        };
        let tuner = OnlineTuner::new(TunerConfig {
            procs: self.procs,
            max_steps: self.steps,
            estimator,
            mode: SamplingMode::SequentialSteps,
            seed: self.seed,
            full_occupancy: false,
            exploit_width: 6,
        });
        let out = tuner
            .run(objective.as_ref(), &noise, optimizer.as_mut())
            .map_err(|e| e.to_string())?;

        let mut report = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(report, "objective:   {}", objective.name());
        let _ = writeln!(report, "algorithm:   {}", optimizer.name());
        let _ = writeln!(
            report,
            "estimator:   {} | rho {} | alpha {}",
            self.estimator, self.rho, self.alpha
        );
        let names = objective.space().names();
        let coords: Vec<String> = names
            .iter()
            .zip(out.best_point.iter())
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let _ = writeln!(report, "best config: {}", coords.join(", "));
        let _ = writeln!(report, "true cost:   {:.4} s/iter", out.best_true_cost);
        let _ = writeln!(
            report,
            "Total_Time({}) = {:.2} s  (NTT {:.2})",
            self.steps,
            out.total_time(),
            out.ntt(self.rho)
        );
        let _ = writeln!(
            report,
            "evaluations: {}  converged: {}",
            out.evaluations, out.converged
        );
        if let Some((p, v)) = best_on_lattice(objective.as_ref()) {
            let _ = writeln!(report, "global opt:  {:?} -> {v:.4} s/iter", p.as_slice());
        }
        if self.print_trace {
            let _ = writeln!(report, "step,t_k");
            for (i, t) in out.trace.step_times().iter().enumerate() {
                let _ = writeln!(report, "{},{t}", i + 1);
            }
        }
        Ok(report)
    }
}

impl CliConfig {
    /// Averaged mode (`--reps > 1`): runs independent replications and
    /// reports mean outcomes with bootstrap confidence intervals.
    fn run_averaged(&self) -> Result<String, String> {
        use crate::stats::resample::bootstrap_mean_ci;
        let estimator = self.parse_estimator()?;
        let noise = if self.rho == 0.0 {
            Noise::None
        } else {
            Noise::Pareto {
                alpha: self.alpha,
                rho: self.rho,
            }
        };
        let objective = self.build_objective()?;
        let mut ntts = Vec::with_capacity(self.reps);
        let mut costs = Vec::with_capacity(self.reps);
        for r in 0..self.reps {
            let mut optimizer = self.build_optimizer(objective.space().clone())?;
            let tuner = OnlineTuner::new(TunerConfig {
                procs: self.procs,
                max_steps: self.steps,
                estimator,
                mode: SamplingMode::SequentialSteps,
                seed: crate::variability::stream_seed(self.seed, r as u64),
                full_occupancy: false,
                exploit_width: 6,
            });
            let out = tuner
                .run(objective.as_ref(), &noise, optimizer.as_mut())
                .map_err(|e| e.to_string())?;
            ntts.push(out.ntt(self.rho));
            costs.push(out.best_true_cost);
        }
        let ntt_ci = bootstrap_mean_ci(&ntts, 1_000, 0.95, 7);
        let cost_ci = bootstrap_mean_ci(&costs, 1_000, 0.95, 7);
        let mut report = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(report, "objective:   {}", objective.name());
        let _ = writeln!(report, "algorithm:   {}", self.algo);
        let _ = writeln!(
            report,
            "estimator:   {} | rho {} | alpha {} | {} reps",
            self.estimator, self.rho, self.alpha, self.reps
        );
        let _ = writeln!(
            report,
            "mean NTT({}):    {:.2}  (95% CI {:.2}..{:.2})",
            self.steps, ntt_ci.estimate, ntt_ci.lo, ntt_ci.hi
        );
        let _ = writeln!(
            report,
            "mean true cost: {:.4}  (95% CI {:.4}..{:.4})",
            cost_ci.estimate, cost_ci.lo, cost_ci.hi
        );
        if let Some((p, v)) = best_on_lattice(objective.as_ref()) {
            let _ = writeln!(
                report,
                "global opt:     {:?} -> {v:.4} s/iter",
                p.as_slice()
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_flags() {
        let cfg = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cfg, CliConfig::default());
        let cfg = CliConfig::parse([
            "--objective",
            "database",
            "--algo",
            "sro",
            "--rho",
            "0.3",
            "--steps",
            "50",
            "--estimator",
            "min4",
            "--continuous",
        ])
        .unwrap();
        assert_eq!(cfg.objective, "database");
        assert_eq!(cfg.algo, "sro");
        assert_eq!(cfg.rho, 0.3);
        assert_eq!(cfg.steps, 50);
        assert!(cfg.continuous);
        assert_eq!(cfg.parse_estimator().unwrap(), Estimator::MinOfK(4));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(CliConfig::parse(["--bogus"]).is_err());
        assert!(CliConfig::parse(["--rho"]).is_err());
        assert!(CliConfig::parse(["--rho", "1.5"]).is_err());
        for alpha in ["0.5", "nan", "1.0", "1", "inf"] {
            let err = CliConfig::parse(["--alpha", alpha]).unwrap_err();
            assert!(err.contains("--alpha"), "{alpha}: {err}");
        }
        let err = CliConfig::parse(["--procs", "0"]).unwrap_err();
        assert!(err.contains("--procs"), "{err}");
        let err = CliConfig::parse(["--procs", "0", "--algo", "exhaustive"]).unwrap_err();
        assert!(err.contains("--procs"), "{err}");
        assert!(CliConfig::parse(["--estimator", "min0"]).is_err());
        assert!(CliConfig::parse(["--estimator", "max3"]).is_err());
        assert!(CliConfig::parse(["--help"]).is_err()); // usage via Err
    }

    #[test]
    fn estimator_specs() {
        let mut cfg = CliConfig::default();
        for (s, e) in [
            ("single", Estimator::Single),
            ("min3", Estimator::MinOfK(3)),
            ("mean5", Estimator::MeanOfK(5)),
            ("median7", Estimator::MedianOfK(7)),
        ] {
            cfg.estimator = s.into();
            assert_eq!(cfg.parse_estimator().unwrap(), e);
        }
    }

    #[test]
    fn runs_gs2_session() {
        let cfg = CliConfig {
            steps: 60,
            ..CliConfig::default()
        };
        let report = cfg.run().unwrap();
        assert!(report.contains("objective:   gs2"));
        assert!(report.contains("best config: ntheta="));
        assert!(report.contains("Total_Time(60)"));
    }

    #[test]
    fn trace_flag_prints_steps() {
        let cfg = CliConfig {
            steps: 10,
            print_trace: true,
            rho: 0.0,
            estimator: "single".into(),
            ..CliConfig::default()
        };
        let report = cfg.run().unwrap();
        assert!(report.contains("step,t_k"));
        assert!(report.contains("10,"));
    }

    #[test]
    fn averaged_mode_reports_cis() {
        let cfg = CliConfig {
            reps: 5,
            steps: 40,
            ..CliConfig::default()
        };
        let report = cfg.run().unwrap();
        assert!(report.contains("5 reps"), "{report}");
        assert!(report.contains("95% CI"), "{report}");
        assert!(report.contains("mean true cost"), "{report}");
    }

    #[test]
    fn reps_flag_parses_and_validates() {
        let cfg = CliConfig::parse(["--reps", "10"]).unwrap();
        assert_eq!(cfg.reps, 10);
        assert!(CliConfig::parse(["--reps", "0"]).is_err());
        assert!(CliConfig::parse(["--reps", "x"]).is_err());
    }

    #[test]
    fn every_algorithm_runs() {
        for algo in ["pro", "sro", "nelder-mead", "random", "sa", "ga"] {
            let cfg = CliConfig {
                algo: algo.into(),
                steps: 30,
                estimator: "single".into(),
                ..CliConfig::default()
            };
            let report = cfg.run().unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(report.contains("true cost:"), "{algo}");
        }
    }
}
