//! A fast non-cryptographic hasher for the pipeline's internal maps.
//!
//! The trace walker hits its loop-iteration and branch-pattern maps on
//! every control transfer, and the simulator hits its store and
//! predictor maps on every memory instruction and task; the std default
//! SipHash costs more than the rest of the lookup for these tiny keys.
//! This is the classic multiply-xor "Fx" construction (as used by rustc)
//! — std-only and deterministic. Callers keep every `FxMap` out of
//! iteration-order-sensitive positions (lookups only), so the hasher
//! cannot perturb a generated trace or a timing statistic.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher over machine words.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxMap<u64, u64> = FxMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn deterministic_across_instances() {
        use std::hash::Hash;
        let h = |v: u64| {
            let mut h = FxHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }
}
