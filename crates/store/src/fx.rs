//! A fast, non-cryptographic hasher for the store's hot lookup tables.
//!
//! The default `std` hasher (SipHash-1-3) is keyed and DoS-resistant,
//! which none of our internal tables need: they are keyed by dense ids
//! we mint ourselves (`Triple`, `FactId`) or by interned strings. On
//! the cold-start path the triple table alone hashes every fact in the
//! segment, and SipHash was the single largest line item in that
//! profile. This is the word-at-a-time multiply-rotate scheme used by
//! rustc ("FxHash"), reimplemented here because the container image
//! carries no external hashing crate.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub(crate) type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Zero-sized builder for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over 64-bit words; not collision-resistant
/// against adversarial keys, which the store never feeds it.
#[derive(Default, Clone, Copy)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        for i in 0..10_000u32 {
            assert_eq!(m.insert((i, i ^ 7, i / 3), i), None);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(&(i, i ^ 7, i / 3)), Some(&i));
        }
    }

    #[test]
    fn string_keys_hash_consistently() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1_000 {
            m.insert(format!("term_{i}"), i);
        }
        for i in 0..1_000 {
            assert_eq!(m[&format!("term_{i}")], i);
        }
    }
}
