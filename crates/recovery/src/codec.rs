//! The versioned binary state codec.
//!
//! Layout: a 4-byte magic (`HRC\x01` — the trailing byte is the format
//! version), then a flat stream of primitives. Every composite value is
//! length-prefixed and every logical section starts with a short ASCII
//! *tag* that the reader verifies, so a mismatched or truncated buffer
//! fails with a typed [`CodecError`] instead of silently misparsing.
//! Floats are stored as `f64::to_bits` words — round-trips are exact,
//! including NaN payloads and signed zeros.

use harmony_params::Point;
use std::fmt;

/// Codec magic + version byte. Bump the last byte on breaking layout
/// changes; [`StateReader::new`] rejects unknown versions.
pub const MAGIC: [u8; 4] = *b"HRC\x01";

/// A typed serialisation/deserialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer (or JSON line) ended before the value was complete.
    UnexpectedEof,
    /// The buffer does not start with the codec magic.
    BadMagic,
    /// The buffer's version byte is not one this build understands.
    BadVersion(u8),
    /// A section tag did not match the expected one.
    BadTag {
        /// Tag the reader demanded.
        expected: String,
        /// Tag found in the buffer.
        found: String,
    },
    /// A decoded value was structurally invalid (bad enum discriminant,
    /// impossible length, non-UTF-8 string, …).
    BadValue(String),
    /// Trailing bytes remained after the value was fully restored.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "input truncated"),
            CodecError::BadMagic => write!(f, "not a harmony checkpoint (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CodecError::BadTag { expected, found } => {
                write!(
                    f,
                    "checkpoint section mismatch: expected {expected:?}, found {found:?}"
                )
            }
            CodecError::BadValue(why) => write!(f, "invalid value: {why}"),
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialises primitives into a growing byte buffer.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// A fresh buffer holding only the magic/version header.
    pub fn new() -> Self {
        StateWriter {
            buf: MAGIC.to_vec(),
        }
    }

    /// Consumes the writer, returning the serialised bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (including the header).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing beyond the header was written.
    pub fn is_empty(&self) -> bool {
        self.buf.len() <= MAGIC.len()
    }

    /// Writes a short ASCII section tag (verified on read).
    pub fn tag(&mut self, tag: &str) {
        debug_assert!(tag.len() <= u8::MAX as usize);
        self.buf.push(tag.len() as u8);
        self.buf.extend_from_slice(tag.as_bytes());
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed raw byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed slice of `f64`s.
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Writes a length-prefixed slice of `usize`s.
    pub fn usize_slice(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// Writes a [`Point`] as its coordinate vector.
    pub fn point(&mut self, p: &Point) {
        self.f64_slice(p.as_slice());
    }

    /// Writes a length-prefixed sequence of [`Point`]s.
    pub fn points(&mut self, ps: &[Point]) {
        self.usize(ps.len());
        for p in ps {
            self.point(p);
        }
    }

    /// Writes a length-prefixed list of `(point, value)` pairs.
    pub fn pairs<'a>(&mut self, pairs: impl ExactSizeIterator<Item = (&'a Point, f64)>) {
        self.usize(pairs.len());
        for (p, v) in pairs {
            self.point(p);
            self.f64(v);
        }
    }

    /// Writes an `Option<f64>` (presence byte + bits).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.f64(x);
            }
            None => self.bool(false),
        }
    }
}

/// Reads the [`StateWriter`] stream back, validating as it goes.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Opens a buffer, verifying magic and version.
    pub fn new(buf: &'a [u8]) -> Result<Self, CodecError> {
        if buf.len() < MAGIC.len() || buf[..3] != MAGIC[..3] {
            return Err(CodecError::BadMagic);
        }
        if buf[3] != MAGIC[3] {
            return Err(CodecError::BadVersion(buf[3]));
        }
        Ok(StateReader {
            buf,
            pos: MAGIC.len(),
        })
    }

    /// Asserts the stream was fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(left))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads and verifies a section tag.
    pub fn tag(&mut self, expected: &str) -> Result<(), CodecError> {
        let n = self.u8()? as usize;
        let raw = self.take(n)?;
        let found =
            std::str::from_utf8(raw).map_err(|_| CodecError::BadValue("non-UTF-8 tag".into()))?;
        if found != expected {
            return Err(CodecError::BadTag {
                expected: expected.into(),
                found: found.into(),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadValue(format!("usize overflow: {v}")))
    }

    /// Reads an exact-bits `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadValue(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.bounded_len()?;
        let raw = self.take(n)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadValue("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed raw byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.bounded_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `Vec<f64>`.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.bounded_len()?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `Vec<usize>`.
    pub fn usize_vec(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.bounded_len()?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// Reads a [`Point`].
    pub fn point(&mut self) -> Result<Point, CodecError> {
        Ok(Point::new(self.f64_vec()?))
    }

    /// Reads a length-prefixed sequence of [`Point`]s.
    pub fn points(&mut self) -> Result<Vec<Point>, CodecError> {
        let n = self.bounded_len()?;
        (0..n).map(|_| self.point()).collect()
    }

    /// Reads a length-prefixed list of `(point, value)` pairs.
    pub fn pairs(&mut self) -> Result<Vec<(Point, f64)>, CodecError> {
        let n = self.bounded_len()?;
        (0..n).map(|_| Ok((self.point()?, self.f64()?))).collect()
    }

    /// Reads an `Option<f64>`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    /// A length prefix, sanity-bounded by the bytes actually left so a
    /// corrupt length cannot trigger a huge allocation.
    fn bounded_len(&mut self) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.tag("t");
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.f64_slice(&[1.5, f64::INFINITY]);
        w.usize_slice(&[9, 8]);
        w.point(&Point::new(vec![3.0, -4.5]));
        w.opt_f64(None);
        w.opt_f64(Some(2.25));
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes).unwrap();
        r.tag("t").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f64_vec().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(r.usize_vec().unwrap(), vec![9, 8]);
        assert_eq!(r.point().unwrap().as_slice(), &[3.0, -4.5]);
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(2.25));
        r.finish().unwrap();
    }

    #[test]
    fn typed_failures() {
        assert_eq!(StateReader::new(b"nope").unwrap_err(), CodecError::BadMagic);
        assert_eq!(
            StateReader::new(b"HRC\x7f").unwrap_err(),
            CodecError::BadVersion(0x7f)
        );
        let mut w = StateWriter::new();
        w.tag("abc");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        assert!(matches!(r.tag("xyz"), Err(CodecError::BadTag { .. })));

        let mut w = StateWriter::new();
        w.u64(1); // claims 1 f64 follows, then nothing
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        assert_eq!(r.f64_vec().unwrap_err(), CodecError::UnexpectedEof);

        let mut w = StateWriter::new();
        w.u8(0);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        r.u8().unwrap();
        assert_eq!(r.finish().unwrap_err(), CodecError::TrailingBytes(1));
    }

    #[test]
    fn pairs_round_trip_and_reject_an_oversized_prefix() {
        let pairs = [
            (Point::new(vec![1.0, -0.0]), 2.5),
            (Point::new(vec![]), f64::NAN),
        ];
        let mut w = StateWriter::new();
        w.pairs(pairs.iter().map(|(p, v)| (p, *v)));
        w.pairs(std::iter::empty());
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        let back = r.pairs().unwrap();
        assert_eq!(back.len(), 2);
        for ((p, v), (q, u)) in back.iter().zip(&pairs) {
            let bits = |p: &Point| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p), bits(q));
            assert_eq!(v.to_bits(), u.to_bits());
        }
        assert_eq!(r.pairs().unwrap(), vec![]);
        r.finish().unwrap();

        // a prefix claiming 2^40 pairs fails on the missing bytes
        let mut w = StateWriter::new();
        w.usize(1 << 40);
        w.point(&Point::new(vec![1.0]));
        w.f64(1.0);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        assert_eq!(r.pairs(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn corrupt_length_is_bounded() {
        let mut w = StateWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes).unwrap();
        assert_eq!(r.bytes().unwrap_err(), CodecError::UnexpectedEof);
    }
}
