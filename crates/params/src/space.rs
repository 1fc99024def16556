use crate::{ParamDef, ParamError, Point, StepKind};

/// How the projection operator rounds inadmissible discrete coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// The paper's rule (§3.2.1): round to the bracketing admissible value
    /// on the side of the transformation center, guaranteeing that
    /// repeated shrinks collapse exactly onto the center.
    TowardCenter,
    /// Plain nearest rounding (ablation alternative; loses the shrink
    /// convergence guarantee on discrete lattices).
    Nearest,
}

/// The admissible region of a tuning problem: an ordered list of
/// [`ParamDef`]s defining a box (with per-coordinate discreteness
/// constraints) in `R^N`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl ParamSpace {
    /// Creates a space from parameter definitions.
    pub fn new(params: Vec<ParamDef>) -> Result<Self, ParamError> {
        if params.is_empty() {
            return Err(ParamError::EmptySpace);
        }
        Ok(ParamSpace { params })
    }

    /// Number of tunable parameters `N`.
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// The parameter definitions, in coordinate order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// The `i`-th parameter definition.
    pub fn param(&self, i: usize) -> &ParamDef {
        &self.params[i]
    }

    /// Parameter names in coordinate order.
    pub fn names(&self) -> Vec<&str> {
        self.params.iter().map(|p| p.name()).collect()
    }

    /// Coordinate index of the parameter called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// The named coordinate of a point.
    ///
    /// # Panics
    /// Panics when the name is unknown or the point has the wrong
    /// dimensionality.
    pub fn value_of(&self, point: &Point, name: &str) -> f64 {
        assert_eq!(point.dims(), self.dims(), "value_of: dimension mismatch");
        let i = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown parameter `{name}`"));
        point[i]
    }

    /// Formats a point with parameter names: `ntheta=64, nodes=8`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn describe(&self, point: &Point) -> String {
        assert_eq!(point.dims(), self.dims(), "describe: dimension mismatch");
        self.params
            .iter()
            .zip(point.iter())
            .map(|(p, v)| format!("{}={v}", p.name()))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The center `c` of the admissible region: the midpoint of each
    /// parameter's range, rounded to the nearest admissible value. Used
    /// as the anchor of the initial simplex (§3.2.3).
    pub fn center(&self) -> Point {
        self.params
            .iter()
            .map(|p| p.project_nearest(0.5 * (p.lower() + p.upper())))
            .collect()
    }

    /// True when every coordinate of `x` is admissible.
    pub fn is_admissible(&self, x: &Point) -> bool {
        x.dims() == self.dims()
            && self
                .params
                .iter()
                .zip(x.iter())
                .all(|(p, c)| p.is_admissible(c))
    }

    /// The projection operator `Π(·)` of §3.2.1: clamps to bounds and
    /// rounds each discrete coordinate according to `rounding`, using
    /// `center` (the transformation center `v⁰`) as the rounding anchor.
    /// The result is built in place (no heap allocation for points of up
    /// to [`Point::INLINE_CAP`] dimensions).
    ///
    /// # Panics
    /// Panics on dimension mismatch; transform outputs always share the
    /// space's dimensionality, so a mismatch is a programming error.
    pub fn project(&self, x: &Point, center: &Point, rounding: Rounding) -> Point {
        assert_eq!(x.dims(), self.dims(), "project: point dimension mismatch");
        assert_eq!(
            center.dims(),
            self.dims(),
            "project: center dimension mismatch"
        );
        self.params
            .iter()
            .zip(x.iter().zip(center.iter()))
            .map(|(p, (xi, ci))| p.project(xi, ci, rounding))
            .collect()
    }

    /// One fused simplex step: appends `Π(w₀·v⁰ + w₁·vʲ)` to `out` for
    /// every `vʲ` of `vertices`, where `(w₀, w₁)` are `kind`'s weights
    /// and `v⁰` is `center`, the rounding anchor. Bit for bit the same as
    /// [`crate::Simplex::transform_around`] followed by
    /// [`ParamSpace::project`] of each point, but each coordinate is
    /// transformed and projected in one pass, straight into the caller's
    /// reused batch (no heap allocation for points of up to
    /// [`Point::INLINE_CAP`] dimensions).
    ///
    /// Each raw coordinate is `0.0 + w₀·c + w₁·v`, the order of
    /// [`Point::affine`]; starting from `0.0` turns a `−0.0` sum into
    /// `+0.0`. Under reflect and expand, an integer coordinate whose
    /// lattice is computed exactly (see [`ParamDef`]) skips the bracket
    /// search: `2c − v` and `3c − 2v` of lattice points lie on the
    /// unbounded lattice, so clamping to `[l(i), u(i)]` is the whole
    /// projection. That shortcut needs `center` and every vertex to be
    /// admissible, as the vertices of an optimizer's simplex always are.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn project_step(
        &self,
        kind: StepKind,
        center: &Point,
        vertices: &[Point],
        rounding: Rounding,
        out: &mut Vec<Point>,
    ) {
        assert_eq!(
            center.dims(),
            self.dims(),
            "project_step: center dimension mismatch"
        );
        debug_assert!(
            self.is_admissible(center),
            "project_step: inadmissible center"
        );
        let (w0, w1) = kind.weights();
        let lattice_closed = kind != StepKind::Shrink;
        for v in vertices {
            assert_eq!(
                v.dims(),
                self.dims(),
                "project_step: vertex dimension mismatch"
            );
            debug_assert!(self.is_admissible(v), "project_step: inadmissible vertex");
            let mut p = v.clone();
            for ((x, &c), param) in p
                .as_mut_slice()
                .iter_mut()
                .zip(center.as_slice())
                .zip(&self.params)
            {
                let raw = 0.0 + w0 * c + w1 * *x;
                *x = if lattice_closed && param.exact_lattice() {
                    param.clamp(raw)
                } else {
                    param.project(raw, c, rounding)
                };
            }
            out.push(p);
        }
    }

    /// Clamps every coordinate into its `[l(i), u(i)]` box without any
    /// discreteness rounding.
    pub fn clamp(&self, x: &Point) -> Point {
        self.params
            .iter()
            .zip(x.iter())
            .map(|(p, c)| p.clamp(c))
            .collect()
    }

    /// Maps unit-interval coordinates to an admissible point: continuous
    /// coordinates are linearly interpolated, discrete coordinates pick
    /// the `⌊u·card⌋`-th level. This is the crate's randomness injection
    /// point — callers supply `u ∈ [0,1)^N` from their own RNG.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn point_from_unit(&self, unit: &[f64]) -> Point {
        assert_eq!(
            unit.len(),
            self.dims(),
            "point_from_unit: dimension mismatch"
        );
        self.params
            .iter()
            .zip(unit.iter())
            .map(|(p, &u)| {
                let u = u.clamp(0.0, 1.0 - f64::EPSILON);
                match p.cardinality() {
                    None => p.lower() + u * p.width(),
                    Some(card) => p.level((u * card as f64) as usize),
                }
            })
            .collect()
    }

    /// Total number of admissible lattice points, or `None` if any
    /// parameter is continuous or the count overflows `usize` (such a
    /// lattice cannot be enumerated or tabulated either).
    pub fn lattice_size(&self) -> Option<usize> {
        self.params
            .iter()
            .try_fold(1usize, |acc, p| acc.checked_mul(p.cardinality()?))
    }

    /// The position of `x` in [`ParamSpace::lattice`] order, or `None`
    /// when `x` is not a lattice point: wrong dimension, a continuous
    /// parameter, a lattice too large to count, or a coordinate whose
    /// bit pattern matches no level (so `-0.0` is not the level `0.0`,
    /// and NaN matches nothing).
    ///
    /// The exact inverse of the lattice order: for the `i`-th point `p`
    /// of `lattice()`, `lattice_index(&p) == Some(i)`.
    pub fn lattice_index(&self, x: &Point) -> Option<usize> {
        if x.dims() != self.dims() {
            return None;
        }
        self.params
            .iter()
            .zip(x.iter())
            .try_fold(0usize, |acc, (p, c)| {
                acc.checked_mul(p.cardinality()?)?
                    .checked_add(p.level_index(c)?)
            })
    }

    /// Iterates over every admissible lattice point (row-major, first
    /// parameter slowest), for fully discrete spaces.
    ///
    /// Returns an empty iterator if any parameter is continuous.
    pub fn lattice(&self) -> LatticeIter<'_> {
        let discrete = self.params.iter().all(|p| p.cardinality().is_some());
        LatticeIter {
            space: self,
            idx: vec![0; self.dims()],
            done: !discrete,
        }
    }

    /// The stopping-criterion probe points of §3.2.2, appended to `out`:
    /// up to `2N` points `{v⁰ + uᵢ·eᵢ, v⁰ − lᵢ·eᵢ}` where the offsets step
    /// to the discrete neighbours of `v⁰(i)` (or `eps·width` for
    /// continuous parameters). Probes falling outside the boundary are
    /// omitted ("if v⁰(i) is a lower (upper) boundary value, then lᵢ (uᵢ)
    /// is zero").
    pub fn probe_points(&self, v0: &Point, eps: f64, out: &mut Vec<Point>) {
        assert_eq!(v0.dims(), self.dims(), "probe_points: dimension mismatch");
        for (i, p) in self.params.iter().enumerate() {
            let (below, above) = p.neighbors(v0[i], eps);
            for nb in [below, above].into_iter().flatten() {
                let mut probe = v0.clone();
                probe.as_mut_slice()[i] = nb;
                out.push(probe);
            }
        }
    }
}

/// Row-major iterator over all admissible points of a fully discrete
/// [`ParamSpace`]. See [`ParamSpace::lattice`].
#[derive(Debug)]
pub struct LatticeIter<'a> {
    space: &'a ParamSpace,
    idx: Vec<usize>,
    done: bool,
}

impl Iterator for LatticeIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.done {
            return None;
        }
        let point: Point = self
            .space
            .params
            .iter()
            .zip(self.idx.iter())
            .map(|(p, &i)| p.level(i))
            .collect();
        // advance odometer, last coordinate fastest
        let mut pos = self.space.dims();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            let card = self.space.params[pos]
                .cardinality()
                .expect("lattice iteration requires discrete params");
            self.idx[pos] += 1;
            if self.idx[pos] < card {
                break;
            }
            self.idx[pos] = 0;
        }
        Some(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_2d() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("a", 0, 10, 2).unwrap(),
            ParamDef::continuous("b", -1.0, 1.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn empty_space_rejected() {
        assert_eq!(ParamSpace::new(vec![]).unwrap_err(), ParamError::EmptySpace);
    }

    #[test]
    fn center_is_admissible_midpoint() {
        let s = space_2d();
        let c = s.center();
        assert!(s.is_admissible(&c));
        assert_eq!(c[0], 4.0); // midpoint 5 rounds down (tie) to 4
        assert_eq!(c[1], 0.0);
    }

    #[test]
    fn admissibility_checks_dims_and_coords() {
        let s = space_2d();
        assert!(s.is_admissible(&Point::from(&[2.0, 0.5][..])));
        assert!(!s.is_admissible(&Point::from(&[3.0, 0.5][..])));
        assert!(!s.is_admissible(&Point::from(&[2.0, 2.0][..])));
        assert!(!s.is_admissible(&Point::from(&[2.0][..])));
    }

    #[test]
    fn projection_maps_into_admissible_region() {
        let s = space_2d();
        let c = s.center();
        let wild = Point::from(&[97.3, -44.0][..]);
        let proj = s.project(&wild, &c, Rounding::TowardCenter);
        assert!(s.is_admissible(&proj));
        assert_eq!(proj.as_slice(), &[10.0, -1.0]);
    }

    #[test]
    fn projection_rounding_modes_differ() {
        let s = ParamSpace::new(vec![ParamDef::integer("a", 0, 10, 10).unwrap()]).unwrap();
        // admissible: 0, 10. x = 9.0, center = 0 -> toward-center gives 0,
        // nearest gives 10.
        let x = Point::from(&[9.0][..]);
        let c = Point::from(&[0.0][..]);
        assert_eq!(s.project(&x, &c, Rounding::TowardCenter)[0], 0.0);
        assert_eq!(s.project(&x, &c, Rounding::Nearest)[0], 10.0);
    }

    #[test]
    fn point_from_unit_covers_range() {
        let s = space_2d();
        let low = s.point_from_unit(&[0.0, 0.0]);
        assert_eq!(low.as_slice(), &[0.0, -1.0]);
        let high = s.point_from_unit(&[0.999999, 1.0]);
        assert_eq!(high[0], 10.0);
        assert!(high[1] <= 1.0 && high[1] > 0.99);
        for u in [0.0, 0.1, 0.3, 0.77, 0.9999] {
            assert!(s.is_admissible(&s.point_from_unit(&[u, u])));
        }
    }

    #[test]
    fn lattice_size_and_iteration() {
        let s = ParamSpace::new(vec![
            ParamDef::integer("a", 0, 2, 1).unwrap(),       // 3 values
            ParamDef::levels("b", vec![1.0, 4.0]).unwrap(), // 2 values
        ])
        .unwrap();
        assert_eq!(s.lattice_size(), Some(6));
        let pts: Vec<_> = s.lattice().collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].as_slice(), &[0.0, 1.0]);
        assert_eq!(pts[1].as_slice(), &[0.0, 4.0]);
        assert_eq!(pts[5].as_slice(), &[2.0, 4.0]);
        // all unique and admissible
        for p in &pts {
            assert!(s.is_admissible(p));
        }
    }

    #[test]
    fn lattice_size_overflow_is_none() {
        // 1_000_001^4 ≈ 1e24 points: more than usize can count
        let huge = crate::spec::parse_space(
            "a int 0 1000000; b int 0 1000000; c int 0 1000000; d int 0 1000000",
        )
        .unwrap();
        assert_eq!(huge.lattice_size(), None);
        assert_eq!(huge.lattice_index(&huge.center()), None);
        // three of them still fit
        let big =
            crate::spec::parse_space("a int 0 1000000; b int 0 1000000; c int 0 1000000").unwrap();
        assert_eq!(big.lattice_size(), Some(1_000_001usize.pow(3)));
        let last = Point::from(&[1e6, 1e6, 1e6][..]);
        assert_eq!(big.lattice_index(&last), Some(1_000_001usize.pow(3) - 1));
    }

    #[test]
    fn lattice_of_continuous_space_is_empty() {
        let s = space_2d();
        assert_eq!(s.lattice_size(), None);
        assert_eq!(s.lattice().count(), 0);
    }

    #[test]
    fn probe_points_interior() {
        let s = ParamSpace::new(vec![
            ParamDef::integer("a", 0, 10, 2).unwrap(),
            ParamDef::integer("b", 0, 4, 1).unwrap(),
        ])
        .unwrap();
        let v0 = Point::from(&[4.0, 2.0][..]);
        let mut probes = vec![v0.clone()];
        s.probe_points(&v0, 0.01, &mut probes);
        assert_eq!(probes.remove(0), v0, "probes are appended");
        assert_eq!(probes.len(), 4);
        let slices: Vec<_> = probes.iter().map(|p| p.as_slice().to_vec()).collect();
        assert!(slices.contains(&vec![2.0, 2.0]));
        assert!(slices.contains(&vec![6.0, 2.0]));
        assert!(slices.contains(&vec![4.0, 1.0]));
        assert!(slices.contains(&vec![4.0, 3.0]));
    }

    #[test]
    fn probe_points_skip_boundary_sides() {
        let s = ParamSpace::new(vec![ParamDef::integer("a", 0, 4, 1).unwrap()]).unwrap();
        let mut at_lo = Vec::new();
        s.probe_points(&Point::from(&[0.0][..]), 0.01, &mut at_lo);
        assert_eq!(at_lo.len(), 1);
        assert_eq!(at_lo[0][0], 1.0);
        let mut at_hi = Vec::new();
        s.probe_points(&Point::from(&[4.0][..]), 0.01, &mut at_hi);
        assert_eq!(at_hi.len(), 1);
        assert_eq!(at_hi[0][0], 3.0);
    }

    #[test]
    fn names() {
        assert_eq!(space_2d().names(), vec!["a", "b"]);
    }

    #[test]
    fn named_point_access() {
        let s = space_2d();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zzz"), None);
        let p = Point::from(&[4.0, 0.5][..]);
        assert_eq!(s.value_of(&p, "a"), 4.0);
        assert_eq!(s.describe(&p), "a=4, b=0.5");
    }
}
