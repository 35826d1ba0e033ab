//! A fast hasher for shadow-memory keys.
//!
//! Shadow tables and bitmaps are keyed by address-derived `u64`s and are
//! probed several times per instrumented access; SipHash (std's default,
//! HashDoS-resistant) is the wrong trade-off here. This is Fibonacci
//! (multiplicative) hashing — one multiply, high bits well mixed —
//! which is what race-detection shadow maps want.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys.
#[derive(Default)]
pub struct FibHasher {
    state: u64,
}

/// 2^64 / φ, the classic Fibonacci-hashing multiplier.
pub(crate) const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FibHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (used for non-integer keys, rare here).
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(FIB);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = v.wrapping_mul(FIB) ^ (v >> 32);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FibHasher`].
pub type FibBuildHasher = BuildHasherDefault<FibHasher>;

/// A `HashMap` using [`FibHasher`] — the map type of all shadow
/// structures.
pub type FastMap<K, V> = HashMap<K, V, FibBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        let mut h1 = FibHasher::default();
        h1.write_u64(1);
        let mut h2 = FibHasher::default();
        h2.write_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_works() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn sequential_keys_spread() {
        // Adjacent chunk keys must not collide in the low bits the map
        // actually uses.
        let hashes: Vec<u64> = (0..64u64)
            .map(|k| {
                let mut h = FibHasher::default();
                h.write_u64(k);
                h.finish()
            })
            .collect();
        let mut low7: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        low7.sort();
        low7.dedup();
        assert!(low7.len() > 32, "poor spread: {}", low7.len());
    }

    #[test]
    fn byte_path_hashes() {
        let mut h = FibHasher::default();
        h.write(b"abc");
        assert_ne!(h.finish(), 0);
    }
}
