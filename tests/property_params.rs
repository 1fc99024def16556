//! Property-based tests of the parameter-space layer: the projection
//! operator, simplex transforms, and initial simplices must satisfy
//! their invariants for *arbitrary* admissible-region shapes.

use harmony::params::init::{initial_simplex, InitialShape};
use harmony::params::{ParamDef, ParamSpace, Point, Rounding, Simplex, StepKind};
use proptest::prelude::*;

/// Strategy: an arbitrary mixed parameter space of 1–4 dimensions.
fn arb_space() -> impl Strategy<Value = ParamSpace> {
    prop::collection::vec(arb_param(), 1..=4)
        .prop_map(|defs| ParamSpace::new(defs).expect("valid space"))
}

fn arb_param() -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        // continuous
        (-100.0f64..100.0, 0.1f64..200.0).prop_map(|(lo, w)| {
            ParamDef::continuous("c", lo, lo + w).expect("valid continuous")
        }),
        // integer with step
        (-50i64..50, 1i64..40, 1i64..7).prop_map(|(lo, span, step)| {
            ParamDef::integer("i", lo, lo + span, step).expect("valid integer")
        }),
        // explicit levels
        prop::collection::btree_set(-1000i64..1000, 2..8).prop_map(|set| {
            let levels: Vec<f64> = set.into_iter().map(|v| v as f64).collect();
            ParamDef::levels("l", levels).expect("valid levels")
        }),
    ]
}

/// Strategy: a parameter for checking the fused simplex step: integers
/// whose `hi` is mostly off the step lattice, levels, and continuous
/// ranges, many of them containing 0 so `±0.0` coordinates occur.
fn arb_step_param() -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        (-30i64..30, 1i64..7, 0i64..6, 0i64..7).prop_map(|(lo, step, k, r)| {
            ParamDef::integer("i", lo, lo + k * step + r % step, step).expect("valid integer")
        }),
        prop::collection::btree_set(-40i64..40, 2..8).prop_map(|set| {
            let levels: Vec<f64> = set.into_iter().map(|v| v as f64).collect();
            ParamDef::levels("l", levels).expect("valid levels")
        }),
        (-100.0f64..0.0, 0.0f64..100.0)
            .prop_map(|(lo, hi)| ParamDef::continuous("z", lo, hi).expect("valid continuous")),
        (-100.0f64..100.0, 0.1f64..200.0)
            .prop_map(|(lo, w)| ParamDef::continuous("c", lo, lo + w).expect("valid continuous")),
    ]
}

/// An admissible coordinate of `p` chosen by `sel`: a bound, `+0.0` or
/// `-0.0` where 0 is admissible, else the value at unit position `u`.
fn step_coordinate(p: &ParamDef, (sel, u): (u8, f64)) -> f64 {
    match sel {
        0 => p.lower(),
        1 => p.upper(),
        2 if p.is_admissible(0.0) => 0.0,
        3 if p.is_admissible(-0.0) => -0.0,
        _ => match p.cardinality() {
            Some(card) => p.level(((u * card as f64) as usize).min(card - 1)),
            None => (p.lower() + u * p.width()).min(p.upper()),
        },
    }
}

/// Strategy: a mixed space with an admissible center and 1–5 admissible
/// vertices, rich in bounds and signed zeros.
fn space_center_vertices() -> impl Strategy<Value = (ParamSpace, Point, Vec<Point>)> {
    prop::collection::vec(arb_step_param(), 1..=4).prop_flat_map(|defs| {
        let space = ParamSpace::new(defs).expect("valid space");
        let n = space.dims();
        let coord = || (0u8..6, 0.0f64..1.0);
        (
            Just(space),
            prop::collection::vec(coord(), n),
            prop::collection::vec(prop::collection::vec(coord(), n), 1..=5),
        )
            .prop_map(|(space, c, vs)| {
                let point = |sel: &[(u8, f64)]| -> Point {
                    space
                        .params()
                        .iter()
                        .zip(sel)
                        .map(|(p, &s)| step_coordinate(p, s))
                        .collect()
                };
                let center = point(&c);
                let vertices = vs.iter().map(|v| point(v)).collect();
                (space, center, vertices)
            })
    })
}

fn bits(points: &[Point]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|p| p.iter().map(f64::to_bits).collect())
        .collect()
}

/// Strategy: a space plus a wild raw point of matching dimension.
fn space_and_point() -> impl Strategy<Value = (ParamSpace, Point)> {
    arb_space().prop_flat_map(|space| {
        let n = space.dims();
        (
            Just(space),
            prop::collection::vec(-1e4f64..1e4, n).prop_map(Point::new),
        )
    })
}

proptest! {
    #[test]
    fn projection_always_lands_admissible((space, raw) in space_and_point()) {
        let center = space.center();
        for rounding in [Rounding::TowardCenter, Rounding::Nearest] {
            let p = space.project(&raw, &center, rounding);
            prop_assert!(space.is_admissible(&p), "{raw:?} -> {p:?}");
        }
    }

    #[test]
    fn projection_is_idempotent((space, raw) in space_and_point()) {
        let center = space.center();
        let once = space.project(&raw, &center, Rounding::TowardCenter);
        let twice = space.project(&once, &center, Rounding::TowardCenter);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn admissible_points_are_fixed_points(space in arb_space(), u in prop::collection::vec(0.0f64..1.0, 4)) {
        let x = space.point_from_unit(&u[..space.dims()]);
        prop_assert!(space.is_admissible(&x));
        let center = space.center();
        let p = space.project(&x, &center, Rounding::TowardCenter);
        prop_assert_eq!(p, x);
    }

    #[test]
    fn center_is_admissible(space in arb_space()) {
        prop_assert!(space.is_admissible(&space.center()));
    }

    #[test]
    fn repeated_shrink_collapses_to_center((space, raw) in space_and_point()) {
        // §3.2.1's termination property: x <- Pi(0.5(x + c)) reaches c
        // in finitely many steps on any (projected) start
        let center = space.center();
        let mut x = space.project(&raw, &center, Rounding::TowardCenter);
        for _ in 0..200 {
            if x == center {
                break;
            }
            let mid = Point::affine(&[(0.5, &x), (0.5, &center)]);
            let next = space.project(&mid, &center, Rounding::TowardCenter);
            x = next;
        }
        // continuous coordinates converge geometrically, discrete ones
        // must land exactly
        for (i, p) in space.params().iter().enumerate() {
            if p.is_continuous() {
                prop_assert!((x[i] - center[i]).abs() <= 1e-6 * (1.0 + p.width()));
            } else {
                prop_assert_eq!(x[i], center[i], "axis {}", i);
            }
        }
    }

    #[test]
    fn reflection_is_an_involution(coords in prop::collection::vec(-100.0f64..100.0, 1..6),
                                   center in prop::collection::vec(-100.0f64..100.0, 6)) {
        let n = coords.len();
        let x = Point::new(coords);
        let c = Point::new(center[..n].to_vec());
        let back = x.reflect_through(&c).reflect_through(&c);
        prop_assert!(back.approx_eq(&x, 1e-9));
    }

    #[test]
    fn expansion_is_reflection_of_shrink_scaled(coords in prop::collection::vec(-50.0f64..50.0, 1..5),
                                                center in prop::collection::vec(-50.0f64..50.0, 5)) {
        // e = 3c - 2x and r = 2c - x satisfy e - c = 2(r - c)
        let n = coords.len();
        let x = Point::new(coords);
        let c = Point::new(center[..n].to_vec());
        let e = x.expand_through(&c);
        let r = x.reflect_through(&c);
        for i in 0..n {
            prop_assert!(((e[i] - c[i]) - 2.0 * (r[i] - c[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn initial_simplices_admissible_and_sized(space in arb_space(), r in 0.05f64..1.0) {
        for shape in [InitialShape::Minimal, InitialShape::Symmetric] {
            let s = initial_simplex(&space, shape, r).expect("initial simplex");
            let expected = match shape {
                InitialShape::Minimal => space.dims() + 1,
                InitialShape::Symmetric => 2 * space.dims(),
            };
            prop_assert_eq!(s.len(), expected);
            for v in s.vertices() {
                prop_assert!(space.is_admissible(v), "vertex {v:?}");
            }
        }
    }

    #[test]
    fn simplex_transforms_preserve_vertex_count(coords in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 3..7)) {
        let verts: Vec<Point> = coords.into_iter().map(Point::new).collect();
        let s = Simplex::new(verts).expect("valid simplex");
        for kind in [StepKind::Reflect, StepKind::Expand, StepKind::Shrink] {
            prop_assert_eq!(s.transform_around(0, kind).len(), s.len() - 1);
        }
    }

    #[test]
    fn probe_points_are_admissible_neighbors(space in arb_space(), u in prop::collection::vec(0.0f64..1.0, 4)) {
        let v0 = space.point_from_unit(&u[..space.dims()]);
        let mut probes = Vec::new();
        space.probe_points(&v0, 0.01, &mut probes);
        for probe in probes {
            prop_assert!(space.is_admissible(&probe));
            // differs from v0 in exactly one coordinate
            let diffs = (0..space.dims()).filter(|&i| probe[i] != v0[i]).count();
            prop_assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn step_kernel_matches_transform_then_project((space, center, vertices) in space_center_vertices()) {
        for v in std::iter::once(&center).chain(&vertices) {
            prop_assert!(space.is_admissible(v), "{v:?}");
        }
        let mut verts = vec![center.clone()];
        verts.extend(vertices.iter().cloned());
        let simplex = Simplex::new(verts).expect("valid simplex");
        let sentinel = Point::from(&[f64::NAN][..]);
        for kind in [StepKind::Reflect, StepKind::Expand, StepKind::Shrink] {
            for rounding in [Rounding::TowardCenter, Rounding::Nearest] {
                let reference: Vec<Point> = simplex
                    .transform_around(0, kind)
                    .iter()
                    .map(|raw| space.project(raw, &center, rounding))
                    .collect();
                let mut fused = vec![sentinel.clone()];
                space.project_step(kind, &center, &vertices, rounding, &mut fused);
                prop_assert_eq!(fused[0].as_slice()[0].to_bits(), f64::NAN.to_bits(), "appends");
                prop_assert_eq!(
                    bits(&fused[1..]),
                    bits(&reference),
                    "{:?} {:?} around {:?} of {:?}",
                    kind,
                    rounding,
                    center,
                    vertices
                );
            }
        }
    }

    #[test]
    fn step_kernel_collapse_rejection_matches_diameter(
        coords in prop::collection::vec(prop::collection::vec(0usize..5, 3), 2..7),
        t in 0usize..6,
    ) {
        // a coarse grid with signed zeros, so collapsed and spread
        // simplices, and ones within `tol` of v0 but not pairwise, all occur
        const GRID: [f64; 5] = [-1.0, -0.0, 0.0, 0.5, 1.0];
        let tol = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0][t];
        let verts: Vec<Point> = coords
            .iter()
            .map(|c| c.iter().map(|&i| GRID[i]).collect())
            .collect();
        let s = Simplex::new(verts).expect("valid simplex");
        prop_assert_eq!(s.collapsed(tol), s.diameter() <= tol, "{:?} tol {}", s, tol);
    }

    #[test]
    fn lattice_iteration_matches_cardinality(space in arb_space()) {
        if let Some(n) = space.lattice_size() {
            if n <= 4096 {
                let pts: Vec<Point> = space.lattice().collect();
                prop_assert_eq!(pts.len(), n);
                for (i, p) in pts.iter().enumerate() {
                    prop_assert!(space.is_admissible(p));
                    prop_assert_eq!(space.lattice_index(p), Some(i));
                    // every level is an integer within ±1000, so `x + 0.5`
                    // and `x + 1e4` are off the lattice; `-0.0` is not the
                    // level `0.0`
                    for j in 0..p.dims() {
                        let mut bad: Vec<f64> = vec![p[j] + 0.5, p[j] + 1e4, f64::NAN];
                        if p[j] == 0.0 {
                            bad.push(-p[j]);
                        }
                        for x in bad {
                            let mut q = p.clone();
                            q.as_mut_slice()[j] = x;
                            prop_assert_eq!(space.lattice_index(&q), None, "{:?}", q);
                        }
                    }
                    let mut longer = p.clone().into_vec();
                    longer.push(0.0);
                    prop_assert_eq!(space.lattice_index(&Point::new(longer)), None);
                    let shorter = &p.as_slice()[..p.dims() - 1];
                    prop_assert_eq!(space.lattice_index(&Point::from(shorter)), None);
                }
            }
        } else {
            prop_assert_eq!(space.lattice_index(&space.center()), None);
        }
    }
}
