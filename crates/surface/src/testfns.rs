//! Standard optimization test functions, offset to be strictly positive
//! (they stand in for running times) and available on either continuous
//! boxes or integer lattices.
//!
//! These are used by unit tests ("does PRO descend a bowl?"), by the
//! Fig. 1 algorithm comparison, and by estimator ablations where a known
//! global optimum is needed.

use crate::objective::Objective;
use harmony_params::{ParamDef, ParamSpace, Point};

/// How a test function's domain is represented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Domain {
    /// Continuous box `[lo, hi]^N`.
    Continuous {
        /// Lower bound per coordinate.
        lo: f64,
        /// Upper bound per coordinate.
        hi: f64,
    },
    /// Integer lattice: `steps` evenly spaced admissible values per
    /// coordinate, mapped affinely onto `[lo, hi]`.
    Lattice {
        /// Lower bound per coordinate.
        lo: f64,
        /// Upper bound per coordinate.
        hi: f64,
        /// Number of admissible levels per coordinate (≥ 2).
        steps: usize,
    },
}

impl Domain {
    fn space(&self, dims: usize) -> ParamSpace {
        let defs = (0..dims)
            .map(|i| {
                let name = format!("x{i}");
                match *self {
                    Domain::Continuous { lo, hi } => ParamDef::continuous(name, lo, hi),
                    Domain::Lattice { lo, hi, steps } => {
                        assert!(steps >= 2, "lattice needs at least 2 steps");
                        let levels = (0..steps)
                            .map(|k| lo + (hi - lo) * k as f64 / (steps - 1) as f64)
                            .collect();
                        ParamDef::levels(name, levels)
                    }
                }
            })
            .collect::<Result<Vec<_>, _>>()
            .expect("valid test-function domain");
        ParamSpace::new(defs).expect("non-empty space")
    }
}

/// Which classical function to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestFunction {
    /// `Σ xᵢ²` — convex bowl, unique minimum at 0.
    Sphere,
    /// `Σ 100(xᵢ₊₁ − xᵢ²)² + (1 − xᵢ)²` — curved valley, minimum at 1.
    Rosenbrock,
    /// `10N + Σ (xᵢ² − 10cos(2πxᵢ))` — a grid of local minima,
    /// global at 0. The closest standard analogue of the rugged Fig. 8
    /// surface.
    Rastrigin,
    /// Ackley's function — exponential well with a ripply floor.
    Ackley,
    /// Griewank's function — quadratic bowl with cosine ripple.
    Griewank,
}

impl TestFunction {
    /// Raw function value (before the positivity offset).
    pub fn raw(&self, x: &[f64]) -> f64 {
        match self {
            TestFunction::Sphere => x.iter().map(|v| v * v).sum(),
            TestFunction::Rosenbrock => x
                .windows(2)
                .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
                .sum(),
            TestFunction::Rastrigin => {
                10.0 * x.len() as f64
                    + x.iter()
                        .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                        .sum::<f64>()
            }
            TestFunction::Ackley => {
                let n = x.len() as f64;
                let s1 = x.iter().map(|v| v * v).sum::<f64>() / n;
                let s2 = x
                    .iter()
                    .map(|v| (2.0 * std::f64::consts::PI * v).cos())
                    .sum::<f64>()
                    / n;
                -20.0 * (-0.2 * s1.sqrt()).exp() - s2.exp() + 20.0 + std::f64::consts::E
            }
            TestFunction::Griewank => {
                let s = x.iter().map(|v| v * v).sum::<f64>() / 4000.0;
                let p = x
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v / ((i + 1) as f64).sqrt()).cos())
                    .product::<f64>();
                s - p + 1.0
            }
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TestFunction::Sphere => "sphere",
            TestFunction::Rosenbrock => "rosenbrock",
            TestFunction::Rastrigin => "rastrigin",
            TestFunction::Ackley => "ackley",
            TestFunction::Griewank => "griewank",
        }
    }
}

/// A test function bound to a domain, offset so every value is ≥
/// `base_cost` (objective values model running times and must stay
/// positive for the noise models of eq. 17).
pub struct TestObjective {
    function: TestFunction,
    space: ParamSpace,
    /// Additive offset; the global minimum value equals this.
    pub base_cost: f64,
}

impl TestObjective {
    /// Binds `function` to `domain` in `dims` dimensions with the default
    /// positivity offset of 1.0.
    pub fn new(function: TestFunction, domain: Domain, dims: usize) -> Self {
        assert!(dims >= 1, "need at least one dimension");
        TestObjective {
            function,
            space: domain.space(dims),
            base_cost: 1.0,
        }
    }

    /// The wrapped classical function.
    pub fn function(&self) -> TestFunction {
        self.function
    }
}

impl Objective for TestObjective {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn eval(&self, x: &Point) -> f64 {
        self.base_cost + self.function.raw(x.as_slice())
    }

    fn name(&self) -> &str {
        self.function.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::best_on_lattice;

    #[test]
    fn sphere_minimum_at_origin() {
        let o = TestObjective::new(
            TestFunction::Sphere,
            Domain::Continuous { lo: -5.0, hi: 5.0 },
            3,
        );
        assert_eq!(o.eval(&Point::zeros(3)), 1.0);
        assert!(o.eval(&Point::from(&[1.0, 0.0, 0.0][..])) > 1.0);
    }

    #[test]
    fn rosenbrock_minimum_at_ones() {
        let o = TestObjective::new(
            TestFunction::Rosenbrock,
            Domain::Continuous { lo: -2.0, hi: 2.0 },
            2,
        );
        assert!((o.eval(&Point::from(&[1.0, 1.0][..])) - 1.0).abs() < 1e-12);
        assert!(o.eval(&Point::from(&[0.0, 0.0][..])) > 1.0);
    }

    #[test]
    fn rastrigin_has_local_minima() {
        let f = TestFunction::Rastrigin;
        // x = 1 is a local minimum with value > global
        let at0 = f.raw(&[0.0, 0.0]);
        let at1 = f.raw(&[0.95, 0.0]); // near the x=1 local basin
        let at_half = f.raw(&[0.5, 0.0]); // ridge between basins
        assert!(at0 < at1);
        assert!(at1 < at_half);
    }

    #[test]
    fn ackley_and_griewank_zero_at_origin() {
        assert!(TestFunction::Ackley.raw(&[0.0, 0.0]).abs() < 1e-9);
        assert!(TestFunction::Griewank.raw(&[0.0, 0.0, 0.0]).abs() < 1e-12);
    }

    #[test]
    fn lattice_domain_contains_global_min() {
        // odd number of steps over symmetric range includes 0
        let o = TestObjective::new(
            TestFunction::Rastrigin,
            Domain::Lattice {
                lo: -5.0,
                hi: 5.0,
                steps: 21,
            },
            2,
        );
        let (argmin, min) = best_on_lattice(&o).unwrap();
        assert_eq!(argmin.as_slice(), &[0.0, 0.0]);
        assert!((min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lattice_space_has_expected_cardinality() {
        let o = TestObjective::new(
            TestFunction::Sphere,
            Domain::Lattice {
                lo: 0.0,
                hi: 1.0,
                steps: 5,
            },
            3,
        );
        assert_eq!(o.space().lattice_size(), Some(125));
    }

    #[test]
    fn names() {
        assert_eq!(TestFunction::Rastrigin.name(), "rastrigin");
        let o = TestObjective::new(
            TestFunction::Ackley,
            Domain::Continuous { lo: -1.0, hi: 1.0 },
            2,
        );
        assert_eq!(o.name(), "ackley");
    }
}
