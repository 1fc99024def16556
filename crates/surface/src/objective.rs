//! The deterministic objective interface.

use harmony_params::{ParamSpace, Point};

/// A deterministic "true cost" function `f(v)` over a parameter space —
/// for on-line tuning, the per-iteration running time the application
/// would exhibit with parameters `v` on an otherwise idle system.
///
/// Implementations must be deterministic; stochastic measurement noise
/// `n(v)` is layered on top by the cluster simulator via
/// `harmony_variability::noise::NoiseModel` (eq. 5 of the paper).
///
/// Object safe: optimizers and harnesses hold `&dyn Objective`.
pub trait Objective {
    /// The admissible region.
    fn space(&self) -> &ParamSpace;

    /// Evaluates the true cost at an admissible point.
    ///
    /// Implementations may project or panic on inadmissible input; the
    /// optimizers in this workspace only evaluate projected points.
    fn eval(&self, x: &Point) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "objective"
    }

    /// True when every admissible point is answered from a precomputed
    /// table of exact values, so an evaluation is already as cheap as a
    /// memo lookup would be ([`LatticeTable`]). Session drivers skip
    /// their memo over such an objective.
    fn is_exact_table(&self) -> bool {
        false
    }
}

impl<T: Objective + ?Sized> Objective for &T {
    fn space(&self) -> &ParamSpace {
        (**self).space()
    }
    fn eval(&self, x: &Point) -> f64 {
        (**self).eval(x)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn is_exact_table(&self) -> bool {
        (**self).is_exact_table()
    }
}

/// Exhaustively evaluates a fully discrete objective and returns the
/// global optimum `(argmin, min)`; `None` when the space is continuous.
/// Used as ground truth in tests and experiment reports.
pub fn best_on_lattice<O: Objective + ?Sized>(obj: &O) -> Option<(Point, f64)> {
    obj.space().lattice_size()?;
    let mut best: Option<(Point, f64)> = None;
    for p in obj.space().lattice() {
        let v = obj.eval(&p);
        if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
            best = Some((p, v));
        }
    }
    best
}

/// An objective tabulated over its lattice: the inner objective is
/// evaluated once per lattice point up front, and every lattice point
/// is then answered from the table. Off-lattice points fall back to
/// the inner objective, so the table equals `inner.eval` bit for bit on
/// any input.
///
/// The stand-in for the paper's §6 methodology, which prices each
/// configuration by looking it up in a recorded GS2 performance
/// database: a sweep cell builds one table and shares it across its
/// replications instead of recomputing the model in every session. It
/// reports [`Objective::is_exact_table`], so a session evaluates it
/// directly instead of through a memo.
pub struct LatticeTable<'a, O: Objective + ?Sized> {
    inner: &'a O,
    /// `inner.eval` of the `i`-th point of `space().lattice()`.
    values: Vec<f64>,
}

impl<'a, O: Objective + ?Sized> LatticeTable<'a, O> {
    /// Tabulates `inner` over its lattice.
    ///
    /// # Panics
    /// Panics when the space has no finite lattice, or one too large to
    /// count ([`ParamSpace::lattice_size`] is `None`).
    pub fn new(inner: &'a O) -> Self {
        assert!(
            inner.space().lattice_size().is_some(),
            "a lattice table needs a finite, countable lattice"
        );
        let values = inner.space().lattice().map(|p| inner.eval(&p)).collect();
        LatticeTable { inner, values }
    }
}

impl<O: Objective + ?Sized> Objective for LatticeTable<'_, O> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn eval(&self, x: &Point) -> f64 {
        match self.inner.space().lattice_index(x) {
            Some(i) => self.values[i],
            None => self.inner.eval(x),
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_exact_table(&self) -> bool {
        true
    }
}

/// A closure-backed objective, convenient for tests.
pub struct FnObjective<F: Fn(&Point) -> f64> {
    space: ParamSpace,
    f: F,
    name: String,
}

impl<F: Fn(&Point) -> f64> FnObjective<F> {
    /// Wraps a closure over a space.
    pub fn new(name: impl Into<String>, space: ParamSpace, f: F) -> Self {
        FnObjective {
            space,
            f,
            name: name.into(),
        }
    }
}

impl<F: Fn(&Point) -> f64> Objective for FnObjective<F> {
    fn space(&self) -> &ParamSpace {
        &self.space
    }
    fn eval(&self, x: &Point) -> f64 {
        (self.f)(x)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::ParamDef;

    fn lattice_space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("a", -3, 3, 1).unwrap(),
            ParamDef::integer("b", -2, 2, 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn best_on_lattice_finds_global_min() {
        let obj = FnObjective::new("bowl", lattice_space(), |p| {
            (p[0] - 1.0).powi(2) + (p[1] + 1.0).powi(2) + 5.0
        });
        let (argmin, min) = best_on_lattice(&obj).unwrap();
        assert_eq!(argmin.as_slice(), &[1.0, -1.0]);
        assert_eq!(min, 5.0);
    }

    #[test]
    fn best_on_lattice_none_for_continuous() {
        let space = ParamSpace::new(vec![ParamDef::continuous("x", 0.0, 1.0).unwrap()]).unwrap();
        let obj = FnObjective::new("id", space, |p| p[0]);
        assert!(best_on_lattice(&obj).is_none());
    }

    #[test]
    fn lattice_table_equals_gs2_bit_for_bit() {
        let gs2 = crate::Gs2Model::paper_scale();
        let table = LatticeTable::new(&gs2);
        assert_eq!(table.name(), gs2.name());
        let bits = |o: &dyn Objective, p: &Point| o.eval(p).to_bits();
        for p in gs2.space().lattice() {
            assert_eq!(bits(&table, &p), bits(&gs2, &p), "{p:?}");
        }
        // off the lattice: between steps, between levels, -0.0 against
        // no level, and outside the box all reach the model itself
        for c in [
            [20.0, 8.0, 4.0],
            [16.0, 6.0, 4.0],
            [16.0, 8.0, 5.0],
            [16.0, 8.0, 3.5],
            [136.0, 8.0, 4.0],
            [16.0, 8.0, -0.0],
        ] {
            let p = Point::from(&c[..]);
            assert_eq!(gs2.space().lattice_index(&p), None, "{p:?}");
            assert_eq!(bits(&table, &p), bits(&gs2, &p), "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "finite, countable lattice")]
    fn lattice_table_refuses_an_uncountable_lattice() {
        let space = harmony_params::spec::parse_space(
            "a int 0 1000000; b int 0 1000000; c int 0 1000000; d int 0 1000000",
        )
        .unwrap();
        let obj = FnObjective::new("huge", space, |p| p[0]);
        let _ = LatticeTable::new(&obj);
    }

    #[test]
    fn trait_object_and_reference_impls() {
        let obj = FnObjective::new("f", lattice_space(), |p| p[0] + p[1]);
        let dyn_obj: &dyn Objective = &obj;
        assert_eq!(dyn_obj.name(), "f");
        let p = Point::from(&[1.0, 2.0][..]);
        assert_eq!(dyn_obj.eval(&p), 3.0);
        // &T forwards
        let by_ref = &obj;
        assert_eq!(Objective::eval(&by_ref, &p), 3.0);
        assert!(!Objective::is_exact_table(&by_ref));
        let table = LatticeTable::new(&obj);
        let (by_ref, dyn_table): (&LatticeTable<'_, _>, &dyn Objective) = (&table, &table);
        assert!(Objective::is_exact_table(&by_ref));
        assert!(dyn_table.is_exact_table());
    }
}
