//! A fast set of unordered dense-index pairs for the epoch close's candidate
//! dedup.
//!
//! The close fans each touched cell out to candidate pairs, and one pair can
//! arrive from several cells, so it needs a real set. Both indices fit in a
//! `u32`, so the unordered pair packs into one `u64` and hashes with a single
//! splitmix64 round instead of a SipHash of sixteen bytes. The detectors'
//! full row walks need no set at all: they recognise a repeat pair from the
//! CSR order (see `OptimizedDetector::detect_pruned`).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// One-round splitmix64 finalizer — statistically strong enough for table
/// placement of packed pair keys, and a fraction of SipHash's cost.
#[derive(Default)]
pub struct SplitMixHasher {
    state: u64,
}

impl Hasher for SplitMixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // generic fallback (not used by PairSet, which only writes u64)
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        let mut z = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
    }
}

type PairHasher = BuildHasherDefault<SplitMixHasher>;

/// Set of *unordered* `{a, b}` pairs of dense `u32` indices.
#[derive(Debug, Default)]
pub struct PairSet {
    set: HashSet<u64, PairHasher>,
}

impl PairSet {
    #[inline]
    fn key(a: u32, b: u32) -> u64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ((lo as u64) << 32) | hi as u64
    }

    /// Insert `{a, b}`; returns `true` if it was new.
    #[inline]
    pub fn insert(&mut self, a: u32, b: u32) -> bool {
        self.set.insert(Self::key(a, b))
    }

    /// Remove every pair, keeping the allocated table for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.set.clear();
    }

    /// Number of pairs stored.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_unordered() {
        let mut s = PairSet::default();
        assert!(s.insert(3, 7));
        assert!(!s.insert(7, 3));
        assert!(!s.insert(3, 7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn distinct_pairs_distinct_keys() {
        let mut s = PairSet::default();
        assert!(s.is_empty());
        for a in 0..20u32 {
            for b in (a + 1)..20u32 {
                assert!(s.insert(a, b), "{a},{b} collided");
            }
        }
        assert_eq!(s.len(), 190);
        assert!(!s.insert(19, 5));
        assert_eq!(s.len(), 190);
    }
}
