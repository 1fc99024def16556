use crate::{ParamError, Point};

/// The three simplex transformations of the rank-ordering algorithms
/// (Fig. 2 of the paper), always taken *around the best vertex* `v⁰`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// `vʲ ↦ 2·v⁰ − vʲ`
    Reflect,
    /// `vʲ ↦ 3·v⁰ − 2·vʲ`
    Expand,
    /// `vʲ ↦ ½(v⁰ + vʲ)`
    Shrink,
}

impl StepKind {
    /// The weights `(w₀, w₁)` of the transform `vʲ ↦ w₀·v⁰ + w₁·vʲ`.
    pub(crate) fn weights(self) -> (f64, f64) {
        match self {
            StepKind::Reflect => (2.0, -1.0),
            StepKind::Expand => (3.0, -2.0),
            StepKind::Shrink => (0.5, 0.5),
        }
    }

    /// Applies the transform to a single vertex around `center`.
    pub fn apply(self, vertex: &Point, center: &Point) -> Point {
        let (w0, w1) = self.weights();
        Point::affine(&[(w0, center), (w1, vertex)])
    }
}

/// A set of `m ≥ 2` vertices in `R^N` maintained by a direct-search
/// algorithm.
///
/// Unlike the classical Nelder–Mead polytope (always `N+1` vertices), the
/// rank-ordering algorithms allow any `m ≥ N+1`; the paper finds a
/// symmetric `2N`-vertex simplex "performs much better" on discrete
/// problems (§3.2.3, Fig. 9).
///
/// The simplex is purely geometric — objective values are tracked by the
/// optimizer, which is responsible for keeping vertex order in sync.
#[derive(Debug, Clone, PartialEq)]
pub struct Simplex {
    verts: Vec<Point>,
}

impl Simplex {
    /// Creates a simplex, validating that there are at least two vertices
    /// of equal, nonzero dimensionality with finite coordinates.
    pub fn new(verts: Vec<Point>) -> Result<Self, ParamError> {
        if verts.len() < 2 {
            return Err(ParamError::InvalidSimplex(format!(
                "need at least 2 vertices, got {}",
                verts.len()
            )));
        }
        let n = verts[0].dims();
        if n == 0 {
            return Err(ParamError::InvalidSimplex(
                "vertices have zero dimension".into(),
            ));
        }
        for (i, v) in verts.iter().enumerate() {
            if v.dims() != n {
                return Err(ParamError::InvalidSimplex(format!(
                    "vertex {i} has dimension {} (expected {n})",
                    v.dims()
                )));
            }
            if v.has_non_finite() {
                return Err(ParamError::InvalidSimplex(format!(
                    "vertex {i} has non-finite coordinates"
                )));
            }
        }
        Ok(Simplex { verts })
    }

    /// Number of vertices `m`.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Always false — a simplex has at least two vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dimensionality `N` of the ambient space.
    pub fn dims(&self) -> usize {
        self.verts[0].dims()
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Point] {
        &self.verts
    }

    /// The `i`-th vertex.
    pub fn vertex(&self, i: usize) -> &Point {
        &self.verts[i]
    }

    /// Replaces the `i`-th vertex.
    ///
    /// # Panics
    /// Panics if the replacement has a different dimensionality.
    pub fn set_vertex(&mut self, i: usize, v: Point) {
        assert_eq!(v.dims(), self.dims(), "set_vertex dimension mismatch");
        self.verts[i] = v;
    }

    /// Reorders vertices by the permutation `order` (new position `k`
    /// holds old vertex `order[k]`), as done after every rank-ordering
    /// iteration so that `f(v⁰) ≤ … ≤ f(vⁿ)`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..len`.
    pub fn permute(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.len(), "permutation length mismatch");
        let m = self.len();
        if m <= 128 {
            // validate and apply with bitmasks — no allocation; this is
            // the every-iteration path (m = 2N is small)
            let mut seen: u128 = 0;
            for &i in order {
                assert!(i < m && seen & (1 << i) == 0, "order is not a permutation");
                seen |= 1 << i;
            }
            // in-place cycle-following: position k receives old vertex
            // order[k]
            let mut done: u128 = 0;
            for start in 0..m {
                if done & (1 << start) != 0 {
                    continue;
                }
                let mut cur = start;
                loop {
                    done |= 1 << cur;
                    let src = order[cur];
                    if src == start {
                        break;
                    }
                    self.verts.swap(cur, src);
                    cur = src;
                }
            }
        } else {
            let mut seen = vec![false; m];
            for &i in order {
                assert!(i < m && !seen[i], "order is not a permutation");
                seen[i] = true;
            }
            self.verts = order.iter().map(|&i| self.verts[i].clone()).collect();
        }
    }

    /// Applies `kind` to every vertex except `center_idx`, returning the
    /// transformed points in vertex order (the center keeps its place).
    /// This is one whole-simplex step of Algorithms 1/2, unprojected; the
    /// optimizers take the step with [`crate::ParamSpace::project_step`].
    pub fn transform_around(&self, center_idx: usize, kind: StepKind) -> Vec<Point> {
        let center = &self.verts[center_idx];
        self.verts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != center_idx)
            .map(|(_, v)| kind.apply(v, center))
            .collect()
    }

    /// Replaces every vertex after `v⁰` with a copy of `points`, reusing
    /// the vertex buffer; the simplex then has `1 + points.len()`
    /// vertices (the stopping-criterion probe simplex of §3.2.2).
    ///
    /// # Panics
    /// Panics when `points` is empty or holds a point of another
    /// dimension or with non-finite coordinates.
    pub fn replace_tail(&mut self, points: &[Point]) {
        assert!(
            !points.is_empty(),
            "replace_tail: a simplex keeps at least 2 vertices"
        );
        let n = self.dims();
        assert!(
            points.iter().all(|p| p.dims() == n && !p.has_non_finite()),
            "replace_tail: vertex of wrong dimension or non-finite"
        );
        self.verts.truncate(1);
        self.verts.extend_from_slice(points);
    }

    /// The centroid of all vertices.
    pub fn centroid(&self) -> Point {
        let w = 1.0 / self.len() as f64;
        Point::affine(&self.verts.iter().map(|v| (w, v)).collect::<Vec<_>>())
    }

    /// The centroid of all vertices *except* `excluded` — the anchor used
    /// by classical Nelder–Mead (eq. 3 of the paper).
    pub fn centroid_excluding(&self, excluded: usize) -> Point {
        let w = 1.0 / (self.len() - 1) as f64;
        let terms: Vec<_> = self
            .verts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != excluded)
            .map(|(_, v)| (w, v))
            .collect();
        Point::affine(&terms)
    }

    /// The largest pairwise Chebyshev distance between vertices — zero
    /// exactly when all vertices coincide (the discrete convergence test
    /// of §3.2.2).
    pub fn diameter(&self) -> f64 {
        let mut d: f64 = 0.0;
        for i in 0..self.len() {
            for j in (i + 1)..self.len() {
                d = d.max(self.verts[i].chebyshev(&self.verts[j]));
            }
        }
        d
    }

    /// True when every pair of vertices is within `tol` (Chebyshev), i.e.
    /// `diameter() <= tol`. A vertex farther than `tol` from `v⁰` already
    /// bounds the diameter from below, so that case is rejected in O(m);
    /// only a simplex within `tol` of `v⁰` pays for the O(m²) pairwise
    /// scan.
    pub fn collapsed(&self, tol: f64) -> bool {
        let v0 = &self.verts[0];
        self.verts[1..].iter().all(|v| v0.chebyshev(v) <= tol) && self.diameter() <= tol
    }

    /// The rank of the edge matrix `{vʲ − v⁰}` computed by Gaussian
    /// elimination with partial pivoting and tolerance `tol`.
    ///
    /// A simplex *spans* the space (is non-degenerate) iff the rank is
    /// `N`; Nelder–Mead can deform its polytope until this fails, which is
    /// one of the shortcomings motivating rank ordering (§3.1).
    pub fn rank(&self, tol: f64) -> usize {
        let n = self.dims();
        let m = self.len() - 1;
        // rows = edge vectors from vertex 0
        let mut a: Vec<Vec<f64>> = (1..self.len())
            .map(|j| {
                (0..n)
                    .map(|k| self.verts[j][k] - self.verts[0][k])
                    .collect()
            })
            .collect();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..n {
            if row >= m {
                break;
            }
            // find pivot
            let (pivot_row, pivot_val) =
                (row..m)
                    .map(|r| (r, a[r][col].abs()))
                    .fold(
                        (row, 0.0),
                        |acc, (r, v)| if v > acc.1 { (r, v) } else { acc },
                    );
            if pivot_val <= tol {
                continue;
            }
            a.swap(row, pivot_row);
            let pivot_row_vals = a[row].clone();
            for below in a.iter_mut().skip(row + 1) {
                let factor = below[col] / pivot_row_vals[col];
                for (b, pv) in below.iter_mut().zip(&pivot_row_vals).skip(col) {
                    *b -= factor * pv;
                }
            }
            rank += 1;
            row += 1;
        }
        rank
    }

    /// True when the simplex spans the full `N`-dimensional space.
    pub fn spans_space(&self, tol: f64) -> bool {
        self.rank(tol) == self.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::from(c)
    }

    fn tri() -> Simplex {
        // the Fig. 2 style 3-point simplex in 2-D
        Simplex::new(vec![p(&[1.0, 1.0]), p(&[3.0, 1.0]), p(&[2.0, 3.0])]).unwrap()
    }

    #[test]
    fn construction_validations() {
        assert!(Simplex::new(vec![p(&[1.0])]).is_err());
        assert!(Simplex::new(vec![p(&[1.0]), p(&[1.0, 2.0])]).is_err());
        assert!(Simplex::new(vec![p(&[]), p(&[])]).is_err());
        assert!(Simplex::new(vec![p(&[1.0]), p(&[f64::NAN])]).is_err());
        assert!(Simplex::new(vec![p(&[1.0]), p(&[2.0])]).is_ok());
    }

    #[test]
    fn reflect_around_best_matches_figure2() {
        let s = tri();
        let reflected = s.transform_around(0, StepKind::Reflect);
        assert_eq!(reflected.len(), 2);
        // 2*(1,1) - (3,1) = (-1,1);  2*(1,1) - (2,3) = (0,-1)
        assert_eq!(reflected[0], p(&[-1.0, 1.0]));
        assert_eq!(reflected[1], p(&[0.0, -1.0]));
    }

    #[test]
    fn expand_around_best_matches_figure2() {
        let s = tri();
        let expanded = s.transform_around(0, StepKind::Expand);
        // 3*(1,1) - 2*(3,1) = (-3,1);  3*(1,1) - 2*(2,3) = (-1,-3)
        assert_eq!(expanded[0], p(&[-3.0, 1.0]));
        assert_eq!(expanded[1], p(&[-1.0, -3.0]));
    }

    #[test]
    fn shrink_around_best_matches_figure2() {
        let s = tri();
        let shrunk = s.transform_around(0, StepKind::Shrink);
        // midpoints with (1,1)
        assert_eq!(shrunk[0], p(&[2.0, 1.0]));
        assert_eq!(shrunk[1], p(&[1.5, 2.0]));
    }

    #[test]
    fn transform_around_nonzero_center() {
        let s = tri();
        let reflected = s.transform_around(2, StepKind::Reflect);
        // around (2,3): 2*(2,3)-(1,1) = (3,5); 2*(2,3)-(3,1) = (1,5)
        assert_eq!(reflected[0], p(&[3.0, 5.0]));
        assert_eq!(reflected[1], p(&[1.0, 5.0]));
    }

    #[test]
    fn centroid_and_exclusion() {
        let s = tri();
        assert!(s.centroid().approx_eq(&p(&[2.0, 5.0 / 3.0]), 1e-12));
        // excluding the worst vertex (index 2): centroid of first two
        assert!(s.centroid_excluding(2).approx_eq(&p(&[2.0, 1.0]), 1e-12));
    }

    #[test]
    fn diameter_and_collapse() {
        let s = tri();
        assert_eq!(s.diameter(), 2.0);
        assert!(!s.collapsed(1.0));
        let c = Simplex::new(vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[1.0, 1.0])]).unwrap();
        assert!(c.collapsed(0.0));
    }

    #[test]
    fn rank_full_and_degenerate() {
        assert!(tri().spans_space(1e-12));
        // collinear points: rank 1 in 2-D
        let degenerate =
            Simplex::new(vec![p(&[0.0, 0.0]), p(&[1.0, 1.0]), p(&[2.0, 2.0])]).unwrap();
        assert_eq!(degenerate.rank(1e-12), 1);
        assert!(!degenerate.spans_space(1e-12));
    }

    #[test]
    fn rank_of_2n_simplex() {
        // symmetric 2N simplex around center spans the space even though
        // it has 2N (> N+1) vertices
        let s = Simplex::new(vec![
            p(&[1.0, 0.0]),
            p(&[-1.0, 0.0]),
            p(&[0.0, 1.0]),
            p(&[0.0, -1.0]),
        ])
        .unwrap();
        assert!(s.spans_space(1e-12));
    }

    #[test]
    fn permute_reorders() {
        let mut s = tri();
        s.permute(&[2, 0, 1]);
        assert_eq!(s.vertex(0), &p(&[2.0, 3.0]));
        assert_eq!(s.vertex(1), &p(&[1.0, 1.0]));
        assert_eq!(s.vertex(2), &p(&[3.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        tri().permute(&[0, 0, 1]);
    }

    #[test]
    fn permute_matches_collect_reference_on_all_orders() {
        // exhaustively check the in-place cycle application against the
        // straightforward clone-and-collect semantics for m = 4
        let verts = [
            p(&[0.0, 0.0]),
            p(&[1.0, 0.0]),
            p(&[0.0, 1.0]),
            p(&[1.0, 1.0]),
        ];
        let mut orders = vec![];
        for a in 0..4usize {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let o = [a, b, c, d];
                        let mut sorted = o;
                        sorted.sort_unstable();
                        if sorted == [0, 1, 2, 3] {
                            orders.push(o);
                        }
                    }
                }
            }
        }
        assert_eq!(orders.len(), 24);
        for order in orders {
            let mut s = Simplex::new(verts.to_vec()).unwrap();
            s.permute(&order);
            for (k, &src) in order.iter().enumerate() {
                assert_eq!(s.vertex(k), &verts[src], "order {order:?} position {k}");
            }
        }
    }

    #[test]
    fn replace_tail_keeps_v0_and_resizes() {
        let mut s = tri();
        s.replace_tail(&[p(&[5.0, 5.0])]);
        assert_eq!(s.vertices(), &[p(&[1.0, 1.0]), p(&[5.0, 5.0])]);
        s.replace_tail(&[p(&[0.0, 1.0]), p(&[2.0, 1.0]), p(&[1.0, 0.0])]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.vertex(0), &p(&[1.0, 1.0]));
        assert_eq!(s.vertex(3), &p(&[1.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "replace_tail")]
    fn replace_tail_rejects_a_wrong_dimension() {
        tri().replace_tail(&[p(&[1.0])]);
    }

    #[test]
    fn collapsed_rejects_early_exactly_when_the_diameter_does() {
        // v2 is within 1 of v0 but 2 from v1: only the pairwise scan sees it
        let s = Simplex::new(vec![p(&[0.0]), p(&[1.0]), p(&[-1.0])]).unwrap();
        assert!(!s.collapsed(1.0));
        assert!(s.collapsed(2.0));
        assert!(!tri().collapsed(1.9));
        assert!(tri().collapsed(2.0));
    }

    #[test]
    fn reflection_preserves_span() {
        // reflecting all non-best vertices is an affine map with full-rank
        // linear part, so span is preserved
        let s = tri();
        let mut refl = vec![s.vertex(0).clone()];
        refl.extend(s.transform_around(0, StepKind::Reflect));
        let rs = Simplex::new(refl).unwrap();
        assert!(rs.spans_space(1e-12));
    }
}
