//! Property-based tests of the objective layer: cost models must be
//! positive, finite, and deterministic everywhere; the database
//! interpolator must stay within the convex hull of its data; the
//! measurement-band compression must never reorder configurations.

use harmony::params::PointKey;
use harmony::prelude::*;
use harmony::surface::database::{idw_scan, inv_scales};
use harmony::surface::PerfDatabase;
use proptest::prelude::*;
use rand::Rng;

fn unit_coords() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 3)
}

proptest! {
    #[test]
    fn gs2_is_positive_finite_deterministic(u in unit_coords()) {
        let m = Gs2Model::paper_scale();
        let p = m.space().point_from_unit(&u);
        let v = m.eval(&p);
        prop_assert!(v.is_finite() && v > 0.0, "f({p:?}) = {v}");
        prop_assert_eq!(v, m.eval(&p));
    }

    #[test]
    fn compression_is_monotone(a in 0.01f64..300.0, b in 0.01f64..300.0) {
        let m = Gs2Model::paper_scale();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.compress(lo) <= m.compress(hi) + 1e-12);
        // and continuous across the knee
        let eps = 1e-6;
        let below = m.compress(m.compress_knee - eps);
        let above = m.compress(m.compress_knee + eps);
        prop_assert!((below - above).abs() < 1e-3);
    }

    #[test]
    fn database_interpolation_stays_in_hull(
        u in unit_coords(),
        keep in 0.3f64..1.0,
        seed in 0u64..200,
    ) {
        let gs2 = Gs2Model::paper_scale();
        let mut rng = seeded_rng(seed);
        let db = PerfDatabase::from_objective(&gs2, keep, 4, &mut rng);
        let p = db.space().point_from_unit(&u);
        let v = db.eval(&p);
        // interpolation is a convex combination of stored values
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for q in gs2.space().lattice() {
            let w = gs2.eval(&q);
            lo = lo.min(w);
            hi = hi.max(w);
        }
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "v={v} outside [{lo}, {hi}]");
    }

    #[test]
    fn full_database_is_exact(u in unit_coords()) {
        let gs2 = Gs2Model::paper_scale();
        let mut rng = seeded_rng(1);
        let db = PerfDatabase::from_objective(&gs2, 1.0, 4, &mut rng);
        let p = gs2.space().point_from_unit(&u);
        prop_assert_eq!(db.eval(&p), gs2.eval(&p));
    }

    #[test]
    fn indexed_interpolation_matches_scan_exactly(
        defs in prop::collection::vec((-20i64..20, 1i64..12, 1i64..4), 1..4),
        keep in 0.05f64..1.0,
        k in 1usize..8,
        seed in 0u64..300,
    ) {
        // random anisotropic integer spaces (widths differ per dim), a
        // random sparse subset stored, k possibly exceeding the entry
        // count: a stored point answers with its value, any other with
        // the IDW scan over the entries in insertion order, bit for bit
        let space = ParamSpace::new(
            defs.iter()
                .enumerate()
                .map(|(i, &(lo, span, step))| {
                    ParamDef::integer(format!("p{i}"), lo, lo + span, step).unwrap()
                })
                .collect(),
        )
        .unwrap();
        let mut rng = seeded_rng(seed);
        let mut db = PerfDatabase::new(space.clone(), k);
        let mut entries = Vec::new();
        for (i, p) in space.lattice().enumerate() {
            if i == 0 || rng.random::<f64>() < keep {
                let v = rng.random::<f64>() * 100.0 + 0.1;
                db.insert(p.clone(), v);
                entries.push((p, v));
            }
        }
        let inv_scale = inv_scales(&space);
        for _ in 0..20 {
            let u: Vec<f64> = (0..space.dims()).map(|_| rng.random::<f64>()).collect();
            let q = space.point_from_unit(&u);
            let key = PointKey::new(&q);
            let want = match entries.iter().find(|(p, _)| PointKey::new(p) == key) {
                Some(&(_, v)) => v,
                None => idw_scan(&inv_scale, &entries, k, &q).unwrap(),
            };
            prop_assert_eq!(db.try_interpolate(&q).unwrap().to_bits(), want.to_bits(), "at {:?}", &q);
        }
    }

    #[test]
    fn subcycle_factor_decreases_with_resolution(
        nt in 0usize..14,
        ne in 0usize..11,
    ) {
        // finer grids never increase the sub-cycling factor
        let m = Gs2Model::paper_scale();
        let sp = m.space();
        let p_coarse = Point::from(
            &[sp.param(0).level(nt), sp.param(1).level(ne), 16.0][..],
        );
        let p_finer = Point::from(
            &[sp.param(0).level(nt + 1), sp.param(1).level(ne + 1), 16.0][..],
        );
        prop_assert!(m.subcycle_factor(&p_finer) <= m.subcycle_factor(&p_coarse));
    }
}
