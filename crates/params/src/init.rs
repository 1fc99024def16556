//! Initial-simplex constructions (§3.2.3, studied in §6.1 / Fig. 9).
//!
//! Both constructions are anchored at the center `c` of the admissible
//! region with per-axis offsets `bᵢ = r·(u(i) − l(i))/2`, where `r` is the
//! *initial simplex relative size*. The paper's default is `r = 0.2`
//! (equivalently `bᵢ = 0.1·(u(i) − l(i))`).
//!
//! On coarse lattices the projection `Π` can round an offset vertex back
//! onto the center; the builders then push that coordinate to the
//! adjacent admissible level instead so the simplex keeps its shape
//! wherever the lattice permits.

use crate::{ParamError, ParamSpace, Point, Rounding, Simplex};

/// The paper's default relative size for the initial simplex (§3.2.3).
pub const DEFAULT_RELATIVE_SIZE: f64 = 0.2;

/// Shape of the initial simplex (compared in Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialShape {
    /// Minimal simplex: the center plus `N` positive-offset vertices
    /// (`N+1` vertices total).
    Minimal,
    /// Symmetric simplex: `±` offsets on every axis (`2N` vertices).
    /// The paper observes this "performs much better" for discrete
    /// parameters.
    Symmetric,
}

/// Builds the initial simplex of the requested shape and relative size
/// around the center of `space`.
///
/// Offset coordinates that project back onto the center are nudged to the
/// adjacent admissible level in the offset direction (falling back to the
/// opposite side at a boundary) so the simplex spans as many axes as the
/// lattice allows.
pub fn initial_simplex(
    space: &ParamSpace,
    shape: InitialShape,
    relative_size: f64,
) -> Result<Simplex, ParamError> {
    initial_simplex_at(space, shape, relative_size, &space.center())
}

/// [`initial_simplex`] anchored at an explicit admissible center —
/// used to start a search from a warm-start center.
///
/// # Panics
/// Panics when `center` is not admissible.
pub fn initial_simplex_at(
    space: &ParamSpace,
    shape: InitialShape,
    relative_size: f64,
    center: &Point,
) -> Result<Simplex, ParamError> {
    assert!(
        space.is_admissible(center),
        "initial simplex center must be admissible: {center:?}"
    );
    let n = space.dims();
    // room for the largest simplex an optimizer builds from this one:
    // v⁰ plus up to 2N stopping-criterion probes (§3.2.2)
    let mut verts = Vec::with_capacity(2 * n + 1);
    if shape == InitialShape::Minimal {
        verts.push(center.clone());
    }
    for i in 0..n {
        verts.push(offset_vertex(space, center, i, relative_size));
        if shape == InitialShape::Symmetric {
            verts.push(offset_vertex(space, center, i, -relative_size));
        }
    }
    Simplex::new(verts)
}

/// `Π(c + sign(r)·bᵢ·eᵢ)` with anti-collapse nudging.
fn offset_vertex(space: &ParamSpace, center: &Point, axis: usize, r: f64) -> Point {
    let p = space.param(axis);
    let b = r * p.width() / 2.0;
    let mut raw = center.clone();
    raw.as_mut_slice()[axis] += b;
    // Round *away* from the center (Nearest then fix-up) so small offsets
    // survive on coarse lattices.
    let mut proj = space.project(&raw, center, Rounding::Nearest);
    if proj[axis] == center[axis] {
        let (below, above) = p.neighbors(center[axis], 0.01);
        let nudged = if b >= 0.0 {
            above.or(below)
        } else {
            below.or(above)
        };
        if let Some(nb) = nudged {
            proj.as_mut_slice()[axis] = nb;
        }
    }
    proj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamDef;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("a", 0, 100, 1).unwrap(),
            ParamDef::integer("b", 0, 50, 1).unwrap(),
            ParamDef::continuous("c", -1.0, 1.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn minimal_has_n_plus_1_vertices() {
        let s = initial_simplex(&space(), InitialShape::Minimal, 0.2).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.spans_space(1e-9));
    }

    #[test]
    fn symmetric_has_2n_vertices() {
        let s = initial_simplex(&space(), InitialShape::Symmetric, 0.2).unwrap();
        assert_eq!(s.len(), 6);
        assert!(s.spans_space(1e-9));
    }

    #[test]
    fn all_vertices_admissible() {
        let sp = space();
        for shape in [InitialShape::Minimal, InitialShape::Symmetric] {
            for r in [0.05, 0.2, 0.5, 0.9, 1.0] {
                let s = initial_simplex(&sp, shape, r).unwrap();
                for v in s.vertices() {
                    assert!(sp.is_admissible(v), "r={r} vertex {v:?} inadmissible");
                }
            }
        }
    }

    #[test]
    fn offsets_match_paper_formula() {
        // width(a)=100, r=0.2 => b = 10; center(a)=50
        let sp = space();
        let s = initial_simplex(&sp, InitialShape::Symmetric, 0.2).unwrap();
        let c = sp.center();
        assert_eq!(s.vertex(0)[0], c[0] + 10.0);
        assert_eq!(s.vertex(1)[0], c[0] - 10.0);
        // off-axis coordinates equal the center's
        assert_eq!(s.vertex(0)[1], c[1]);
        assert_eq!(s.vertex(0)[2], c[2]);
    }

    #[test]
    fn tiny_r_on_coarse_lattice_nudges_to_neighbor() {
        // width 10 with step 5: b = 0.05*10/2 = 0.25, rounds onto center;
        // the builder must nudge to the adjacent level (5 above / below 5... center=5)
        let sp = ParamSpace::new(vec![ParamDef::integer("a", 0, 10, 5).unwrap()]).unwrap();
        let s = initial_simplex(&sp, InitialShape::Symmetric, 0.05).unwrap();
        let c = sp.center();
        assert_eq!(c[0], 5.0);
        assert_eq!(s.vertex(0)[0], 10.0);
        assert_eq!(s.vertex(1)[0], 0.0);
    }

    #[test]
    fn nudge_falls_back_across_boundary() {
        // center of [0,1] step 1 lattice rounds to 0 (tie rounds down);
        // the negative-offset vertex has no level below 0 and must fall
        // back to the level above.
        let sp = ParamSpace::new(vec![ParamDef::integer("a", 0, 1, 1).unwrap()]).unwrap();
        let s = initial_simplex(&sp, InitialShape::Symmetric, 0.1).unwrap();
        let c = sp.center();
        assert_eq!(c[0], 0.0);
        let coords: Vec<f64> = s.vertices().iter().map(|v| v[0]).collect();
        assert!(coords.contains(&1.0));
    }

    #[test]
    fn anchored_simplex_uses_given_center() {
        let sp = space();
        let center = Point::from(&[10.0, 40.0, -0.5][..]);
        let s = initial_simplex_at(&sp, InitialShape::Symmetric, 0.2, &center).unwrap();
        assert_eq!(s.vertex(0)[0], 20.0); // 10 + 0.1*100
        assert_eq!(s.vertex(1)[0], 0.0); // 10 - 10
        assert_eq!(s.vertex(2)[1], 45.0); // 40 + 0.1*50
        for v in s.vertices() {
            assert!(sp.is_admissible(v));
        }
    }

    #[test]
    #[should_panic(expected = "must be admissible")]
    fn anchored_simplex_rejects_bad_center() {
        let sp = space();
        initial_simplex_at(
            &sp,
            InitialShape::Minimal,
            0.2,
            &Point::from(&[0.5, 0.0, 0.0][..]),
        )
        .unwrap();
    }

    #[test]
    fn default_relative_size_matches_paper() {
        assert_eq!(DEFAULT_RELATIVE_SIZE, 0.2);
        // b_i = 0.1 (u - l) per §3.2.3
        let sp = space();
        let s = initial_simplex(&sp, InitialShape::Symmetric, DEFAULT_RELATIVE_SIZE).unwrap();
        let c = sp.center();
        assert_eq!((s.vertex(0)[0] - c[0]).abs(), 0.1 * 100.0);
    }
}
