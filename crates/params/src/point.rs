use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::ops::Index;
use std::sync::OnceLock;

/// A point in `R^N`.
///
/// Direct-search transforms are affine combinations of simplex vertices;
/// [`Point::affine`] and the named helpers ([`Point::reflect_through`],
/// [`Point::expand_through`], [`Point::shrink_toward`]) implement exactly
/// the combinations used by the rank-ordering algorithms of the paper:
///
/// * reflection: `2·v⁰ − vʲ`
/// * expansion:  `3·v⁰ − 2·vʲ`
/// * shrink:     `½·v⁰ + ½·vʲ`
///
/// (Algorithm 1 lines 9/11/13; the same formulas are used per-vertex by
/// the parallel variant, Algorithm 2.)
///
/// Points of up to [`Point::INLINE_CAP`] dimensions are stored inline on
/// the stack — tuning spaces are low-dimensional (GS2 has 3 parameters),
/// so simplex transforms, projections, and candidate generation run
/// without touching the heap. Higher-dimensional points transparently
/// fall back to heap storage.
#[derive(Clone)]
pub struct Point {
    storage: Storage,
}

#[derive(Clone)]
enum Storage {
    /// `len` live coordinates at the front of a fixed buffer.
    Inline {
        buf: [f64; Point::INLINE_CAP],
        len: u8,
    },
    Heap(Vec<f64>),
}

impl Point {
    /// Largest dimension stored inline (no heap allocation).
    pub const INLINE_CAP: usize = 8;

    /// Creates a point from raw coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        if coords.len() <= Self::INLINE_CAP {
            Self::from_slice(&coords)
        } else {
            Point {
                storage: Storage::Heap(coords),
            }
        }
    }

    /// Creates a point by copying a coordinate slice (allocation-free
    /// for dimensions up to [`Point::INLINE_CAP`]).
    pub fn from_slice(coords: &[f64]) -> Self {
        if coords.len() <= Self::INLINE_CAP {
            let mut buf = [0.0; Self::INLINE_CAP];
            buf[..coords.len()].copy_from_slice(coords);
            Point {
                storage: Storage::Inline {
                    buf,
                    len: coords.len() as u8,
                },
            }
        } else {
            Point {
                storage: Storage::Heap(coords.to_vec()),
            }
        }
    }

    /// The origin of `R^n`.
    pub fn zeros(n: usize) -> Self {
        if n <= Self::INLINE_CAP {
            Point {
                storage: Storage::Inline {
                    buf: [0.0; Self::INLINE_CAP],
                    len: n as u8,
                },
            }
        } else {
            Point {
                storage: Storage::Heap(vec![0.0; n]),
            }
        }
    }

    /// Number of coordinates.
    pub fn dims(&self) -> usize {
        match &self.storage {
            Storage::Inline { len, .. } => usize::from(*len),
            Storage::Heap(v) => v.len(),
        }
    }

    /// Coordinates as a slice.
    pub fn as_slice(&self) -> &[f64] {
        match &self.storage {
            Storage::Inline { buf, len } => &buf[..usize::from(*len)],
            Storage::Heap(v) => v,
        }
    }

    /// Mutable coordinates.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match &mut self.storage {
            Storage::Inline { buf, len } => &mut buf[..usize::from(*len)],
            Storage::Heap(v) => v,
        }
    }

    /// Consumes the point, returning its coordinate vector.
    pub fn into_vec(self) -> Vec<f64> {
        match self.storage {
            Storage::Inline { buf, len } => buf[..usize::from(len)].to_vec(),
            Storage::Heap(v) => v,
        }
    }

    /// Iterator over coordinates.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.as_slice().iter().copied()
    }

    /// General affine combination `Σ wᵢ·pᵢ` of points of equal dimension.
    ///
    /// # Panics
    /// Panics if `terms` is empty or dimensions differ; transform inputs
    /// always come from one simplex, so a mismatch is a programming error.
    pub fn affine(terms: &[(f64, &Point)]) -> Point {
        let n = terms
            .first()
            .expect("affine combination of zero points")
            .1
            .dims();
        let mut out = Point::zeros(n);
        let acc = out.as_mut_slice();
        for (w, p) in terms {
            assert_eq!(p.dims(), n, "affine combination dimension mismatch");
            for (o, c) in acc.iter_mut().zip(p.iter()) {
                *o += w * c;
            }
        }
        out
    }

    /// Reflection of `self` through `center`: `2·center − self`.
    pub fn reflect_through(&self, center: &Point) -> Point {
        Point::affine(&[(2.0, center), (-1.0, self)])
    }

    /// Expansion of `self` through `center`: `3·center − 2·self`
    /// (the reflected point pushed twice as far from the center).
    pub fn expand_through(&self, center: &Point) -> Point {
        Point::affine(&[(3.0, center), (-2.0, self)])
    }

    /// Shrink of `self` toward `center`: the midpoint `½(center + self)`.
    pub fn shrink_toward(&self, center: &Point) -> Point {
        Point::affine(&[(0.5, center), (0.5, self)])
    }

    /// Euclidean distance to another point.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn distance(&self, other: &Point) -> f64 {
        assert_eq!(self.dims(), other.dims(), "distance dimension mismatch");
        self.iter()
            .zip(other.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Chebyshev (max-coordinate) distance to another point.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn chebyshev(&self, other: &Point) -> f64 {
        assert_eq!(self.dims(), other.dims(), "chebyshev dimension mismatch");
        self.iter()
            .zip(other.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every coordinate differs by at most `tol`.
    pub fn approx_eq(&self, other: &Point, tol: f64) -> bool {
        self.dims() == other.dims() && self.chebyshev(other) <= tol
    }

    /// True when any coordinate is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.iter().any(|c| !c.is_finite())
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::from_slice(coords)
    }
}

/// Collects coordinates straight into the inline buffer, spilling to the
/// heap only past [`Point::INLINE_CAP`] — no intermediate `Vec` for
/// low-dimensional points.
impl FromIterator<f64> for Point {
    fn from_iter<I: IntoIterator<Item = f64>>(coords: I) -> Self {
        let mut coords = coords.into_iter();
        let mut buf = [0.0; Self::INLINE_CAP];
        let mut len = 0;
        while let Some(c) = coords.next() {
            if len == Self::INLINE_CAP {
                let mut heap = buf.to_vec();
                heap.push(c);
                heap.extend(coords);
                return Point {
                    storage: Storage::Heap(heap),
                };
            }
            buf[len] = c;
            len += 1;
        }
        Point {
            storage: Storage::Inline {
                buf,
                len: len as u8,
            },
        }
    }
}

/// A [`Point`] compared, ordered and hashed by the IEEE-754 bit patterns
/// of its coordinates — the exact-identity key of memo tables (`-0.0`
/// and `0.0` are distinct keys; a NaN equals itself bit for bit).
///
/// The key holds the point itself, so points of up to
/// [`Point::INLINE_CAP`] dimensions key a table without touching the
/// heap, and hashing covers only the live coordinates. The order is the
/// lexicographic order of the coordinate bit words, shorter first on a
/// common prefix — the order of the same words collected into a
/// `Vec<u64>`. Tables of keys are [`PointMap`]s.
#[derive(Clone, Debug)]
pub struct PointKey(Point);

impl PointKey {
    /// The key of `point`.
    pub fn new(point: &Point) -> Self {
        PointKey(point.clone())
    }

    /// The keyed point.
    pub fn point(&self) -> &Point {
        &self.0
    }

    fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(f64::to_bits)
    }
}

impl PartialEq for PointKey {
    fn eq(&self, other: &Self) -> bool {
        self.bits().eq(other.bits())
    }
}

impl Eq for PointKey {}

impl std::hash::Hash for PointKey {
    /// Feeds one `write_u64` per coordinate bit word, then the length
    /// (so a [`PointHasher`] mixes the last coordinate once more).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for word in self.bits() {
            state.write_u64(word);
        }
        state.write_u64(self.0.dims() as u64);
    }
}

/// A hash table keyed by [`PointKey`] with the [`PointBuildHasher`].
pub type PointMap<V> = HashMap<PointKey, V, PointBuildHasher>;

/// The [`BuildHasher`] of [`PointKey`] tables: a [`PointHasher`] seeded
/// with one random word per process.
///
/// The seed keeps a table's iteration order unobservable (code that
/// needs an order sorts by key) and keeps keys that collide by
/// construction, such as crafted checkpoint bytes, from being computed
/// ahead of time.
#[derive(Clone, Copy, Debug)]
pub struct PointBuildHasher {
    seed: u64,
}

impl Default for PointBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
        PointBuildHasher { seed }
    }
}

impl BuildHasher for PointBuildHasher {
    type Hasher = PointHasher;

    fn build_hasher(&self) -> PointHasher {
        PointHasher { hash: self.seed }
    }
}

/// A folded-multiply hasher over 64-bit words: each word is XORed into
/// the state, which becomes the XOR of the two halves of its 128-bit
/// product with an odd constant. Built by [`PointBuildHasher`].
///
/// The high half brings the bits of integer-valued `f64` coordinates,
/// which differ only in their high bits, down to the low bits a table
/// indexes with. Folding also makes every input difference reach the
/// state through carries that depend on the seed: a plain
/// multiply-and-rotate passes a flipped top bit (a coordinate's sign)
/// through unchanged, so keys colliding for every seed could be written
/// down in advance.
#[derive(Clone, Copy, Debug)]
pub struct PointHasher {
    hash: u64,
}

impl PointHasher {
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for PointHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(Self::MULTIPLIER);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    /// Byte input (keys other than [`PointKey`]) as little-endian words,
    /// the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

impl Ord for PointKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bits().cmp(other.bits())
    }
}

impl PartialOrd for PointKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Index<usize> for Point {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.as_slice())
    }
}

/// `Display` prints coordinates comma-separated in parentheses,
/// e.g. `(1, 2.5)`.
impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::from(c)
    }

    #[test]
    fn reflection_matches_paper_formula() {
        let v0 = p(&[1.0, 1.0]);
        let vj = p(&[3.0, 0.0]);
        // 2*v0 - vj = (-1, 2)
        assert_eq!(vj.reflect_through(&v0), p(&[-1.0, 2.0]));
    }

    #[test]
    fn expansion_matches_paper_formula() {
        let v0 = p(&[1.0, 1.0]);
        let vj = p(&[3.0, 0.0]);
        // 3*v0 - 2*vj = (-3, 3)
        assert_eq!(vj.expand_through(&v0), p(&[-3.0, 3.0]));
    }

    #[test]
    fn shrink_is_midpoint() {
        let v0 = p(&[1.0, 1.0]);
        let vj = p(&[3.0, 0.0]);
        assert_eq!(vj.shrink_toward(&v0), p(&[2.0, 0.5]));
    }

    #[test]
    fn expansion_is_reflection_applied_to_reflection_midstep() {
        // e = 3v0 - 2vj is the reflection r = 2v0 - vj moved one more
        // (v0 - vj) step: e = r + (v0 - vj).
        let v0 = p(&[0.5, -2.0, 7.0]);
        let vj = p(&[1.5, 4.0, -1.0]);
        let r = vj.reflect_through(&v0);
        let e = vj.expand_through(&v0);
        let step = Point::affine(&[(1.0, &v0), (-1.0, &vj)]);
        let expected = Point::affine(&[(1.0, &r), (1.0, &step)]);
        assert!(e.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn reflecting_center_is_identity() {
        let v0 = p(&[2.0, -3.0]);
        assert_eq!(v0.reflect_through(&v0), v0);
        assert_eq!(v0.expand_through(&v0), v0);
        assert_eq!(v0.shrink_toward(&v0), v0);
    }

    #[test]
    fn distances() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, 4.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.chebyshev(&b), 4.0);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = p(&[1.0, 2.0]);
        let b = p(&[1.0 + 1e-9, 2.0 - 1e-9]);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        // dimension mismatch is never approximately equal
        assert!(!a.approx_eq(&p(&[1.0]), 1.0));
    }

    #[test]
    fn non_finite_detection() {
        assert!(!p(&[1.0, 2.0]).has_non_finite());
        assert!(p(&[1.0, f64::NAN]).has_non_finite());
        assert!(p(&[f64::INFINITY]).has_non_finite());
    }

    #[test]
    fn display_and_debug() {
        let a = p(&[1.0, 2.5]);
        assert_eq!(format!("{a}"), "(1, 2.5)");
        assert_eq!(format!("{a:?}"), "Point[1.0, 2.5]");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn affine_rejects_mixed_dims() {
        let _ = Point::affine(&[(1.0, &p(&[1.0])), (1.0, &p(&[1.0, 2.0]))]);
    }

    #[test]
    fn inline_and_heap_storage_agree() {
        // below, at, and above the inline capacity
        for n in [0, 1, Point::INLINE_CAP, Point::INLINE_CAP + 1, 20] {
            let coords: Vec<f64> = (0..n).map(|i| i as f64 * 1.5 - 3.0).collect();
            let a = Point::new(coords.clone());
            let b = Point::from_slice(&coords);
            assert_eq!(a, b);
            assert_eq!(a.dims(), n);
            assert_eq!(a.as_slice(), &coords[..]);
            assert_eq!(a.clone().into_vec(), coords);
            let mut z = Point::zeros(n);
            z.as_mut_slice().copy_from_slice(&coords);
            assert_eq!(z, a);
        }
    }

    #[test]
    fn collect_matches_new_across_inline_boundary() {
        for n in [0, 1, Point::INLINE_CAP, Point::INLINE_CAP + 1, 20] {
            let coords: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
            let collected: Point = coords.iter().copied().collect();
            assert_eq!(collected, Point::new(coords.clone()));
            assert_eq!(collected.as_slice(), &coords[..]);
        }
    }

    #[test]
    fn point_key_is_bitwise_and_orders_like_bit_vectors() {
        let key = |c: &[f64]| PointKey::new(&Point::from(c));
        assert_ne!(key(&[0.0]), key(&[-0.0]));
        assert_eq!(key(&[f64::NAN]), key(&[f64::NAN]));
        assert_ne!(key(&[1.0]), key(&[1.0, 0.0]));
        let long: Vec<f64> = (0..Point::INLINE_CAP + 3).map(|i| i as f64).collect();
        assert_eq!(key(&long), key(&long));
        let samples: Vec<Vec<f64>> = vec![
            vec![],
            vec![1.0],
            vec![1.0, 0.0],
            vec![-1.0, 2.0],
            vec![0.5, -0.0, 3.0],
            long,
        ];
        let words = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for a in &samples {
            for b in &samples {
                assert_eq!(key(a).cmp(&key(b)), words(a).cmp(&words(b)), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn point_hasher_spreads_integer_lattice_keys() {
        // integer-valued coordinates vary only in their high bits; the
        // table indexes with the low bits and tags with the top seven
        use std::collections::HashSet;
        let nodes = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0];
        let build = PointBuildHasher::default();
        let mut hashes = Vec::new();
        for a in (16..=128).step_by(8) {
            for b in (4..=48).step_by(4) {
                for &c in &nodes {
                    let key = PointKey::new(&p(&[a as f64, b as f64, c]));
                    hashes.push(build.hash_one(&key));
                }
            }
        }
        let n = hashes.len();
        let distinct =
            |f: &dyn Fn(u64) -> u64| hashes.iter().map(|&h| f(h)).collect::<HashSet<_>>().len();
        assert_eq!(distinct(&|h| h), n);
        // a uniform hash fills 2048·(1 − e^(−1980/2048)) ≈ 1268 buckets
        assert!(distinct(&|h| h & 2047) > 1150);
        assert_eq!(distinct(&|h| h >> 57), 128);
    }

    #[test]
    fn point_hasher_has_no_seed_independent_sign_flip_collisions() {
        // flipping a coordinate's sign and one bit of the next must not
        // collide whatever the seed (it does under multiply-and-rotate)
        for seed in [0, 1, 0x5EED_5EED_5EED_5EED] {
            let build = PointBuildHasher { seed };
            for (x, y) in [(16.0, 4.0), (1.5, -2.0), (0.0, 64.0)] {
                let h = build.hash_one(PointKey::new(&p(&[x, y])));
                for bit in 0..64 {
                    let flipped = f64::from_bits(y.to_bits() ^ (1 << bit));
                    let g = build.hash_one(PointKey::new(&p(&[-x, flipped])));
                    assert_ne!(h, g, "seed {seed:#x}: ({x}, {y}) bit {bit}");
                }
            }
        }
    }

    #[test]
    fn transforms_cross_inline_boundary() {
        let n = Point::INLINE_CAP + 2;
        let v0 = Point::new((0..n).map(|i| i as f64).collect());
        let vj = Point::new((0..n).map(|i| (i as f64) * 2.0).collect());
        let r = vj.reflect_through(&v0);
        for i in 0..n {
            assert_eq!(r[i], 2.0 * (i as f64) - 2.0 * (i as f64));
        }
    }
}
