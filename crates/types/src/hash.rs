//! A deterministic Fx-style hasher for small integer keys.
//!
//! The protocol state machines keep per-instance maps keyed by process ids,
//! `(ProcessId, tag)` pairs and log slots — small integers bounded by `n`
//! and the pipeline window, never attacker-chosen byte strings. SipHash's
//! flooding resistance buys nothing there, and its per-process random seed
//! makes iteration order differ between runs. [`FxBuildHasher`] is the
//! multiply-rotate hash rustc uses for the same kind of keys: a few cycles
//! per word, and the same order on every run.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// Multiply-rotate word hasher (the "Fx" hash of rustc and Firefox).
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; stateless, so every map hashes identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxBuildHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_small_keys() {
        assert_eq!(hash_of(&(3usize, 7u64)), hash_of(&(3usize, 7u64)));
        let mut hashes: Vec<u64> = (0u64..1024).map(|i| hash_of(&i)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 1024);
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
    }

    #[test]
    fn iteration_order_repeats_across_maps() {
        let keys = [9u64, 1, 400, 17, 3, 65, 2];
        let build = || -> Vec<u64> {
            let mut m: FxHashMap<u64, ()> = FxHashMap::default();
            for k in keys {
                m.insert(k, ());
            }
            m.keys().copied().collect()
        };
        assert_eq!(build(), build());
    }
}
