//! A tiny Fx-style hasher for the hot ingest and snapshot index maps.
//!
//! The std `HashMap` defaults to SipHash-1-3, which is DoS-resistant but
//! costs ~1ns/byte plus finalization — measurable when the epoch pipeline
//! performs one map probe per rating and tens of thousands per close. The
//! keys hashed here are fixed-width integers — [`crate::id::NodeId`]s,
//! pairs of them, and stream session ids — for which the multiply-xor
//! mix of the rustc/Firefox "FxHash" family is ~5× faster.
//!
//! **Exposure.** Fx is unkeyed: anyone who chooses the keys can choose
//! colliding ones and turn each probe into a linear scan. Some maps keyed
//! through it are fed from the wire, so their keys *are* client-chosen:
//! a manager's session table (`sessions`, keyed by the client's session
//! id) and the [`crate::sharded::ShardedSnapshot`] index, which interns
//! every id a rating names. These are not DoS-resistant today;
//! keyed hashing for them is an open ROADMAP item.
//! [`crate::history::InteractionHistory`] is fed only from offline input
//! (audits, simulations, traces).
//!
//! Determinism note: none of the detection outputs depend on map iteration
//! order (deltas are sorted before use, verdicts live in a `BTreeMap`), so
//! swapping the hasher cannot change results — only probe cost. This is
//! asserted by the bit-identity tests across the workspace.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (golden-ratio derived, same constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher specialized for small integer keys.
///
/// Each `write_*` folds the word in with a rotate + xor + multiply; there
/// is no finalization. Quality is adequate for interned ids; do not use it
/// for untrusted variable-length input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        // Fixed-width chunks; the id/pair keys hashed here always arrive
        // through the integer fast paths below, this is just completeness.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_word_sensitive() {
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(b.hash_one(42u64), b.hash_one(43u64));
        assert_ne!(b.hash_one((1u64, 2u64)), b.hash_one((2u64, 1u64)));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        for k in 0..1000u64 {
            *m.entry((k % 37, k / 37)).or_default() += k;
        }
        let mut n: std::collections::HashMap<(u64, u64), u64> = Default::default();
        for k in 0..1000u64 {
            *n.entry((k % 37, k / 37)).or_default() += k;
        }
        assert_eq!(m.len(), n.len());
        for (k, v) in &n {
            assert_eq!(m.get(k), Some(v), "key {k:?}");
        }
    }

    #[test]
    fn byte_slice_path_matches_width() {
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
