//! The workspace's single seed-derivation primitive: the SplitMix64
//! finalizer and the `(seed, key) → u64` stream-splitting helpers built
//! on it.
//!
//! Several subsystems need decorrelated deterministic randomness keyed
//! by structure rather than by call order — replication substreams
//! (`harmony_variability::stream_seed`), fault-plan decision streams
//! (`harmony_cluster::fault`), bootstrap resampling
//! ([`crate::resample::SplitMix64`]), and the experiment harness's
//! per-experiment streams. Before this module each of them hand-rolled
//! the same three-round mix; they now all call into here, so the mixing
//! constants exist in exactly one place and the derivations are
//! guaranteed to agree bit-for-bit across crates.
//!
//! Everything here is a pure function: no global state, no wall clock,
//! no thread identity. That purity is what makes parallel experiment
//! execution reproducible — a stream derived from `(seed, key)` is the
//! same stream no matter which worker claims the job or when.

/// The SplitMix64 additive constant (golden-ratio increment).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective avalanche mix of one `u64`.
///
/// This is the exact finalizer from Steele, Lea & Flood's SplitMix64,
/// also used by `rand`'s `SmallRng` seeding in this workspace.
#[inline]
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances a SplitMix64 generator state and returns the next output.
#[inline]
pub fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// Derives a stream-specific seed from a base seed and a stream index,
/// so replications, processors, and experiments get decorrelated
/// substreams.
///
/// Exactly the historical `harmony_variability::stream_seed` mix (which
/// now delegates here): `mix64(base + γ·(stream+1))`.
#[inline]
#[must_use]
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    mix64(base.wrapping_add(GOLDEN_GAMMA.wrapping_mul(stream.wrapping_add(1))))
}

/// A uniform draw in `[0, 1)` as a pure function of `(seed, salt, a, b)`
/// — two chained [`stream_seed`] derivations with the top 53 bits used
/// as the mantissa. The fault-injection decision streams are built on
/// this.
#[inline]
#[must_use]
pub fn hash01(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    let z = stream_seed(stream_seed(seed ^ salt.wrapping_mul(0x9E37_79B9), a), b);
    u64_to_unit_f64(z)
}

/// Maps a `u64` to `[0, 1)` using its top 53 bits (the standard
/// double-precision mantissa construction).
#[inline]
#[must_use]
pub fn u64_to_unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic hash of a string key to a `u64` stream index — the
/// polynomial byte hash the experiment tables have always used to salt
/// per-case streams, now shared so the harness derives per-experiment
/// seeds the same way.
#[inline]
#[must_use]
pub fn hash_str(name: &str) -> u64 {
    name.bytes().fold(0u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(u64::from(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_samples() {
        // spot-check injectivity over a dense sample
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
            assert!(seen.insert(mix64((i + 1).wrapping_mul(0x1234_5678_9ABC_DEF1))));
        }
    }

    #[test]
    fn next_matches_manual_sequence() {
        let mut s = 42u64;
        let a = next(&mut s);
        let b = next(&mut s);
        assert_ne!(a, b);
        // replay
        let mut t = 42u64;
        assert_eq!(next(&mut t), a);
        assert_eq!(next(&mut t), b);
    }

    #[test]
    fn stream_seed_matches_legacy_formula() {
        // the exact expression previously hand-rolled in
        // harmony_variability::stream_seed
        for (base, stream) in [(0u64, 0u64), (7, 3), (u64::MAX, 12_345), (2005, 99)] {
            let mut z = base.wrapping_add(GOLDEN_GAMMA.wrapping_mul(stream.wrapping_add(1)));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            assert_eq!(stream_seed(base, stream), z);
        }
    }

    #[test]
    fn hash01_in_unit_interval_and_deterministic() {
        for a in 0..100 {
            let u = hash01(7, 0xC4A5, a, 3);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, hash01(7, 0xC4A5, a, 3));
        }
    }

    #[test]
    fn hash_str_matches_legacy_table_hash() {
        // the polynomial hash the bench tables used before extraction
        let legacy = |name: &str| {
            name.bytes().fold(0u64, |acc, b| {
                acc.wrapping_mul(131).wrapping_add(u64::from(b))
            })
        };
        for name in ["pro", "nelder-mead", "sro", "fig10_packed", ""] {
            assert_eq!(hash_str(name), legacy(name));
        }
    }

    #[test]
    fn unit_f64_uses_top_53_bits() {
        assert_eq!(u64_to_unit_f64(0), 0.0);
        assert!(u64_to_unit_f64(u64::MAX) < 1.0);
        assert!((u64_to_unit_f64(1u64 << 63) - 0.5).abs() < 1e-12);
    }
}
