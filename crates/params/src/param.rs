use crate::{ParamError, Rounding};

/// The admissible-value structure of a single tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// A real-valued parameter admissible anywhere in `[lo, hi]`.
    Continuous {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// An integer-stepped parameter with admissible values
    /// `lo, lo+step, lo+2·step, …` up to `hi` (inclusive when aligned).
    Integer {
        /// Lowest admissible value.
        lo: i64,
        /// Highest candidate value (the last admissible value is the
        /// largest `lo + k·step ≤ hi`).
        hi: i64,
        /// Positive step between admissible values.
        step: i64,
    },
    /// An explicit ascending list of admissible levels (e.g. the node
    /// counts a batch scheduler will actually grant).
    Levels(
        /// Ascending, finite, non-empty admissible values.
        Vec<f64>,
    ),
}

/// A named tunable parameter: what the user hands to the tuning system
/// ("a list of the tunable parameters, and their type and range", §1).
///
/// The bounds `l(i)`, `u(i)` and the cardinality are computed once, at
/// construction, so the projection on every simplex step does no integer
/// division.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    name: String,
    kind: ParamKind,
    lower: f64,
    /// The highest admissible value (the step-aligned bound of an
    /// integer parameter, not its `hi`).
    upper: f64,
    cardinality: Option<usize>,
    /// True for an integer parameter whose lattice lies within `±2⁵⁰`:
    /// there every value `3c − 2v` of lattice points `c`, `v` is computed
    /// exactly, so a reflected or expanded lattice point clamped into
    /// `[l(i), u(i)]` is already a lattice point.
    exact_lattice: bool,
}

/// Bound on integer-lattice magnitudes within which reflection and
/// expansion of lattice points are exact in `f64` (`5·2⁵⁰ < 2⁵³`).
const EXACT_LATTICE_BOUND: f64 = (1u64 << 50) as f64;

impl ParamDef {
    /// A continuous parameter on `[lo, hi]`.
    pub fn continuous(name: impl Into<String>, lo: f64, hi: f64) -> Result<Self, ParamError> {
        let name = name.into();
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(ParamError::InvalidRange {
                reason: format!("continuous range [{lo}, {hi}] is empty or non-finite"),
                name,
            });
        }
        Ok(ParamDef {
            name,
            kind: ParamKind::Continuous { lo, hi },
            lower: lo,
            upper: hi,
            cardinality: None,
            exact_lattice: false,
        })
    }

    /// An integer parameter on `{lo, lo+step, …} ∩ [lo, hi]`.
    pub fn integer(
        name: impl Into<String>,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Result<Self, ParamError> {
        let name = name.into();
        if lo > hi {
            return Err(ParamError::InvalidRange {
                reason: format!("integer range [{lo}, {hi}] is empty"),
                name,
            });
        }
        if step <= 0 {
            return Err(ParamError::InvalidRange {
                reason: format!("step {step} must be positive"),
                name,
            });
        }
        // the last level index k = (hi − lo)/step and the level count
        // k + 1; a span past i64::MAX would overflow every level formula
        let Some(k) = hi.checked_sub(lo).map(|span| span / step) else {
            return Err(ParamError::InvalidRange {
                reason: format!("integer range [{lo}, {hi}] is wider than {}", i64::MAX),
                name,
            });
        };
        let Some(cardinality) = usize::try_from(k).ok().and_then(|k| k.checked_add(1)) else {
            return Err(ParamError::InvalidRange {
                reason: format!("integer range [{lo}, {hi}] has more levels than a usize counts"),
                name,
            });
        };
        let (lower, upper) = (lo as f64, (lo + k * step) as f64);
        Ok(ParamDef {
            name,
            kind: ParamKind::Integer { lo, hi, step },
            lower,
            upper,
            cardinality: Some(cardinality),
            exact_lattice: lower.abs().max(upper.abs()) <= EXACT_LATTICE_BOUND,
        })
    }

    /// A parameter restricted to an explicit ascending list of levels.
    pub fn levels(name: impl Into<String>, values: Vec<f64>) -> Result<Self, ParamError> {
        let name = name.into();
        if values.is_empty() {
            return Err(ParamError::InvalidLevels {
                reason: "level list is empty".into(),
                name,
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ParamError::InvalidLevels {
                reason: "level list contains non-finite values".into(),
                name,
            });
        }
        if values.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ParamError::InvalidLevels {
                reason: "level list must be strictly ascending".into(),
                name,
            });
        }
        Ok(ParamDef {
            name,
            lower: values[0],
            upper: values[values.len() - 1],
            cardinality: Some(values.len()),
            exact_lattice: false,
            kind: ParamKind::Levels(values),
        })
    }

    /// Parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Admissible-value structure.
    pub fn kind(&self) -> &ParamKind {
        &self.kind
    }

    /// Lowest admissible value `l(i)`.
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Highest admissible value `u(i)`.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Range width `u(i) − l(i)` used to scale initial simplex offsets
    /// (`bᵢ = r·(u(i) − l(i))/2`, §3.2.3 / §6.1).
    pub fn width(&self) -> f64 {
        self.upper() - self.lower()
    }

    /// True when the parameter is continuous (no discreteness constraint).
    pub fn is_continuous(&self) -> bool {
        matches!(self.kind, ParamKind::Continuous { .. })
    }

    /// Number of admissible values, or `None` for a continuous parameter.
    pub fn cardinality(&self) -> Option<usize> {
        self.cardinality
    }

    /// The `idx`-th admissible value of a discrete parameter (ascending).
    ///
    /// # Panics
    /// Panics if the parameter is continuous or `idx` is out of range.
    pub fn level(&self, idx: usize) -> f64 {
        match &self.kind {
            ParamKind::Continuous { .. } => panic!("level() on continuous parameter"),
            ParamKind::Integer { lo, step, .. } => {
                let card = self.cardinality().expect("integer is discrete");
                assert!(idx < card, "level index {idx} out of range {card}");
                (lo + idx as i64 * step) as f64
            }
            ParamKind::Levels(v) => v[idx],
        }
    }

    /// The index of the level whose bit pattern is exactly `x` (the
    /// inverse of [`ParamDef::level`]), or `None` for a continuous
    /// parameter or a value that is no level (`-0.0` is not `0.0`).
    pub(crate) fn level_index(&self, x: f64) -> Option<usize> {
        match &self.kind {
            ParamKind::Continuous { .. } => None,
            ParamKind::Integer { lo, step, .. } => {
                let idx = ((x - *lo as f64) / *step as f64).round();
                if !(0.0..self.cardinality()? as f64).contains(&idx) {
                    return None;
                }
                let level = (lo + idx as i64 * step) as f64;
                (level.to_bits() == x.to_bits()).then_some(idx as usize)
            }
            // `total_cmp` equality is bit equality
            ParamKind::Levels(v) => v.binary_search_by(|l| l.total_cmp(&x)).ok(),
        }
    }

    /// True when `x` is an admissible value for this parameter.
    pub fn is_admissible(&self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        match &self.kind {
            ParamKind::Continuous { lo, hi } => (*lo..=*hi).contains(&x),
            ParamKind::Integer { lo, hi, step } => {
                if x < *lo as f64 || x > *hi as f64 || x.fract() != 0.0 {
                    return false;
                }
                let xi = x as i64;
                (xi - lo) % step == 0
            }
            ParamKind::Levels(v) => v.contains(&x),
        }
    }

    /// Clamps `x` to `[l(i), u(i)]` (boundary constraints of §3.2.1).
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lower(), self.upper())
    }

    /// The bracketing admissible values `(l, u)` with `l ≤ x ≤ u` for a
    /// clamped coordinate; `l == u` iff `x` is itself admissible (or the
    /// parameter is continuous).
    pub fn bracket(&self, x: f64) -> (f64, f64) {
        let x = self.clamp(x);
        match &self.kind {
            ParamKind::Continuous { .. } => (x, x),
            ParamKind::Integer { lo, step, .. } => {
                let k = ((x - *lo as f64) / *step as f64).floor() as i64;
                let l = (*lo + k * step) as f64;
                if l == x {
                    (x, x)
                } else {
                    (l, (*lo + (k + 1) * step) as f64)
                }
            }
            ParamKind::Levels(v) => {
                // partition_point: count of levels <= x
                let n_le = v.partition_point(|&l| l <= x);
                if n_le > 0 && v[n_le - 1] == x {
                    (x, x)
                } else if n_le == 0 {
                    (v[0], v[0])
                } else if n_le == v.len() {
                    let last = v[v.len() - 1];
                    (last, last)
                } else {
                    (v[n_le - 1], v[n_le])
                }
            }
        }
    }

    /// Projects `x` onto an admissible value, rounding discrete values
    /// toward `center` — the paper's `Π(·)` per-coordinate rule (§3.2.1):
    /// round to the bracketing value on the same side as the
    /// transformation center, so repeated shrinks collapse onto the
    /// center exactly.
    pub fn project_toward(&self, x: f64, center: f64) -> f64 {
        let x = self.clamp(x);
        let (l, u) = self.bracket(x);
        if l == u {
            return l;
        }
        if center < x {
            l
        } else if center > x {
            u
        } else {
            // Center coincides with the inadmissible coordinate (cannot
            // happen when the center is itself admissible); fall back to
            // nearest rounding.
            if x - l <= u - x {
                l
            } else {
                u
            }
        }
    }

    /// Projects `x` onto an admissible value under `rounding`, `center`
    /// being the transformation center's coordinate (§3.2.1).
    pub(crate) fn project(&self, x: f64, center: f64, rounding: Rounding) -> f64 {
        match rounding {
            Rounding::TowardCenter => self.project_toward(x, center),
            Rounding::Nearest => self.project_nearest(x),
        }
    }

    /// True for an integer parameter on which a reflected or expanded
    /// lattice point, clamped into `[l(i), u(i)]`, is a lattice point.
    pub(crate) fn exact_lattice(&self) -> bool {
        self.exact_lattice
    }

    /// Projects `x` onto the nearest admissible value (plain rounding;
    /// used as an ablation alternative to [`ParamDef::project_toward`]).
    pub fn project_nearest(&self, x: f64) -> f64 {
        let x = self.clamp(x);
        let (l, u) = self.bracket(x);
        if l == u {
            return l;
        }
        if x - l <= u - x {
            l
        } else {
            u
        }
    }

    /// The admissible neighbours `(below, above)` of an admissible value,
    /// as used by the stopping-criterion probe simplex (§3.2.2):
    /// `None` on the respective side when `x` sits on a boundary. For a
    /// continuous parameter the neighbours are `x ∓ eps·width`.
    pub fn neighbors(&self, x: f64, eps: f64) -> (Option<f64>, Option<f64>) {
        match &self.kind {
            ParamKind::Continuous { lo, hi } => {
                let h = eps * self.width();
                let below = if x - h >= *lo { Some(x - h) } else { None };
                let above = if x + h <= *hi { Some(x + h) } else { None };
                (below, above)
            }
            ParamKind::Integer { lo, step, .. } => {
                let upper = self.upper();
                let below = if x - *step as f64 >= *lo as f64 {
                    Some(x - *step as f64)
                } else {
                    None
                };
                let above = if x + *step as f64 <= upper {
                    Some(x + *step as f64)
                } else {
                    None
                };
                (below, above)
            }
            ParamKind::Levels(v) => {
                let i = v.iter().position(|&l| l == x);
                match i {
                    Some(i) => (
                        if i > 0 { Some(v[i - 1]) } else { None },
                        if i + 1 < v.len() {
                            Some(v[i + 1])
                        } else {
                            None
                        },
                    ),
                    None => (None, None),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(ParamDef::continuous("x", 0.0, 1.0).is_ok());
        assert!(ParamDef::continuous("x", 1.0, 0.0).is_err());
        assert!(ParamDef::continuous("x", 0.0, f64::NAN).is_err());
        assert!(ParamDef::integer("n", 1, 10, 2).is_ok());
        assert!(ParamDef::integer("n", 10, 1, 1).is_err());
        assert!(ParamDef::integer("n", 1, 10, 0).is_err());
        assert!(ParamDef::levels("l", vec![1.0, 2.0, 4.0]).is_ok());
        assert!(ParamDef::levels("l", vec![]).is_err());
        assert!(ParamDef::levels("l", vec![2.0, 1.0]).is_err());
        assert!(ParamDef::levels("l", vec![1.0, 1.0]).is_err());
        assert!(ParamDef::levels("l", vec![1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn integer_range_wider_than_i64_is_rejected() {
        for (lo, hi, step) in [
            (i64::MIN, i64::MAX, 1),
            (i64::MIN, i64::MAX, 1 << 62),
            (i64::MIN, 0, 1),
            (-1, i64::MAX, 7),
        ] {
            let err = ParamDef::integer("a", lo, hi, step).unwrap_err();
            assert!(
                matches!(&err, ParamError::InvalidRange { name, .. } if name == "a"),
                "[{lo}, {hi}] step {step}: {err:?}"
            );
        }
        // the widest span that fits still counts its levels
        let widest = ParamDef::integer("a", -1, i64::MAX - 1, 1).unwrap();
        assert_eq!(widest.cardinality(), Some(1usize << 63));
        assert_eq!(widest.upper(), (i64::MAX - 1) as f64);
        let coarse = ParamDef::integer("a", i64::MIN, -1, 1 << 62).unwrap();
        assert_eq!(coarse.cardinality(), Some(2));
        assert_eq!(coarse.upper(), -(2f64.powi(62)));
    }

    #[test]
    fn cached_bounds_equal_the_formulas() {
        for (lo, hi, step) in [(2, 10, 3), (0, 10, 2), (-7, 7, 5), (16, 128, 8), (5, 5, 9)] {
            let p = ParamDef::integer("n", lo, hi, step).unwrap();
            let k = (hi - lo) / step;
            assert_eq!(
                p.upper(),
                (lo + k * step) as f64,
                "[{lo}, {hi}] step {step}"
            );
            assert_eq!(p.cardinality(), Some((k + 1) as usize));
            assert_eq!(p.lower(), lo as f64);
            assert!(p.exact_lattice());
        }
        let l = ParamDef::levels("l", vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!((l.lower(), l.upper(), l.cardinality()), (1.0, 4.0, Some(3)));
        assert!(!l.exact_lattice());
        let c = ParamDef::continuous("c", -1.5, 2.5).unwrap();
        assert_eq!((c.lower(), c.upper(), c.cardinality()), (-1.5, 2.5, None));
        assert!(!c.exact_lattice());
        // past ±2⁵⁰ reflections of lattice points may round: no shortcut
        let big = 1i64 << 50;
        assert!(ParamDef::integer("b", -big, big, 1)
            .unwrap()
            .exact_lattice());
        assert!(!ParamDef::integer("b", -big - 1, big, 1)
            .unwrap()
            .exact_lattice());
        assert!(!ParamDef::integer("b", 0, big + 1, 1)
            .unwrap()
            .exact_lattice());
    }

    #[test]
    fn integer_upper_respects_step_alignment() {
        // admissible: 2, 5, 8 (11 > 10)
        let p = ParamDef::integer("n", 2, 10, 3).unwrap();
        assert_eq!(p.lower(), 2.0);
        assert_eq!(p.upper(), 8.0);
        assert_eq!(p.cardinality(), Some(3));
        assert_eq!(p.level(0), 2.0);
        assert_eq!(p.level(2), 8.0);
    }

    #[test]
    fn admissibility() {
        let c = ParamDef::continuous("c", 0.0, 1.0).unwrap();
        assert!(c.is_admissible(0.5));
        assert!(c.is_admissible(0.0));
        assert!(!c.is_admissible(1.5));
        assert!(!c.is_admissible(f64::NAN));

        let i = ParamDef::integer("i", 2, 10, 3).unwrap();
        assert!(i.is_admissible(2.0));
        assert!(i.is_admissible(5.0));
        assert!(i.is_admissible(8.0));
        assert!(!i.is_admissible(3.0));
        assert!(!i.is_admissible(11.0));
        assert!(!i.is_admissible(4.5));

        let l = ParamDef::levels("l", vec![1.0, 2.0, 4.0]).unwrap();
        assert!(l.is_admissible(2.0));
        assert!(!l.is_admissible(3.0));
    }

    #[test]
    fn bracket_integer() {
        let i = ParamDef::integer("i", 0, 10, 2).unwrap();
        assert_eq!(i.bracket(3.0), (2.0, 4.0));
        assert_eq!(i.bracket(4.0), (4.0, 4.0));
        assert_eq!(i.bracket(-5.0), (0.0, 0.0)); // clamped to boundary
        assert_eq!(i.bracket(99.0), (10.0, 10.0));
        assert_eq!(i.bracket(0.1), (0.0, 2.0));
        assert_eq!(i.bracket(9.9), (8.0, 10.0));
    }

    #[test]
    fn bracket_levels() {
        let l = ParamDef::levels("l", vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(l.bracket(3.0), (2.0, 4.0));
        assert_eq!(l.bracket(2.0), (2.0, 2.0));
        assert_eq!(l.bracket(0.0), (1.0, 1.0));
        assert_eq!(l.bracket(9.0), (4.0, 4.0));
        assert_eq!(l.bracket(1.5), (1.0, 2.0));
    }

    #[test]
    fn projection_rounds_toward_center() {
        let i = ParamDef::integer("i", 0, 10, 2).unwrap();
        // x = 5 (inadmissible), center below x -> round down to 4
        assert_eq!(i.project_toward(5.0, 2.0), 4.0);
        // center above x -> round up to 6
        assert_eq!(i.project_toward(5.0, 8.0), 6.0);
        // admissible values pass through unchanged
        assert_eq!(i.project_toward(6.0, 0.0), 6.0);
        // out-of-bounds clamps first
        assert_eq!(i.project_toward(-3.0, 10.0), 0.0);
        assert_eq!(i.project_toward(15.0, 0.0), 10.0);
    }

    #[test]
    fn projection_nearest() {
        let i = ParamDef::integer("i", 0, 10, 4); // 0,4,8
        let i = i.unwrap();
        assert_eq!(i.project_nearest(1.0), 0.0);
        assert_eq!(i.project_nearest(3.0), 4.0);
        assert_eq!(i.project_nearest(2.0), 0.0); // ties round down
        assert_eq!(i.project_nearest(7.9), 8.0);
    }

    #[test]
    fn continuous_projection_is_clamp_only() {
        let c = ParamDef::continuous("c", 0.0, 1.0).unwrap();
        assert_eq!(c.project_toward(0.25, 0.9), 0.25);
        assert_eq!(c.project_toward(-2.0, 0.5), 0.0);
        assert_eq!(c.project_toward(7.0, 0.5), 1.0);
    }

    #[test]
    fn shrink_converges_to_center_under_projection() {
        // §3.2.1: "after a finite number of consecutive shrinking
        // transformations, all discrete parameters become equal to the
        // center". Simulate repeated x <- Π(0.5(x + c)).
        let i = ParamDef::integer("i", 0, 100, 1).unwrap();
        let c = 37.0;
        let mut x = 93.0;
        for _ in 0..64 {
            if x == c {
                break;
            }
            x = i.project_toward(0.5 * (x + c), c);
        }
        assert_eq!(x, c);
    }

    #[test]
    fn neighbors_integer() {
        let i = ParamDef::integer("i", 0, 10, 2).unwrap();
        assert_eq!(i.neighbors(4.0, 0.0), (Some(2.0), Some(6.0)));
        assert_eq!(i.neighbors(0.0, 0.0), (None, Some(2.0)));
        assert_eq!(i.neighbors(10.0, 0.0), (Some(8.0), None));
    }

    #[test]
    fn neighbors_levels_and_continuous() {
        let l = ParamDef::levels("l", vec![1.0, 2.0, 4.0]).unwrap();
        assert_eq!(l.neighbors(2.0, 0.0), (Some(1.0), Some(4.0)));
        assert_eq!(l.neighbors(1.0, 0.0), (None, Some(2.0)));
        assert_eq!(l.neighbors(3.0, 0.0), (None, None)); // not admissible

        let c = ParamDef::continuous("c", 0.0, 10.0).unwrap();
        let (b, a) = c.neighbors(5.0, 0.01);
        assert_eq!(b, Some(5.0 - 0.1));
        assert_eq!(a, Some(5.0 + 0.1));
        let (b, _) = c.neighbors(0.0, 0.01);
        assert_eq!(b, None);
    }

    #[test]
    fn width() {
        let i = ParamDef::integer("i", 2, 10, 3).unwrap(); // 2..8
        assert_eq!(i.width(), 6.0);
    }
}
