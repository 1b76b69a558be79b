//! Ring membership, ownership and finger tables.
//!
//! The ring holds the set of live node keys in sorted order. Ownership
//! follows Chord: the owner of key `k` is `successor(k)` — the first live
//! node at or clockwise-after `k`. Finger tables are derived from the member
//! set, i.e. the ring is modeled in its *stabilized* state after every join
//! or leave; the routing layer then simulates the hop-by-hop lookups a real
//! deployment would perform over those tables.

use crate::hash::hash_address;
use crate::id::Key;
use std::collections::BTreeSet;

/// A stabilized Chord ring.
#[derive(Clone, Debug)]
pub struct ChordRing {
    bits: u8,
    members: BTreeSet<u64>,
}

impl ChordRing {
    /// Ring over the full 64-bit identifier space.
    pub fn new() -> Self {
        ChordRing::with_bits(64)
    }

    /// Ring over a `2^bits` identifier space (the paper's Figure 2 uses 4).
    pub fn with_bits(bits: u8) -> Self {
        assert!((1..=64).contains(&bits), "bit width must be 1..=64, got {bits}");
        ChordRing { bits, members: BTreeSet::new() }
    }

    /// The identifier-space width in bits.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `key` is a live node.
    pub fn contains(&self, key: Key) -> bool {
        self.check_space(key);
        self.members.contains(&key.raw())
    }

    /// All live node keys in ascending order.
    pub fn members(&self) -> impl Iterator<Item = Key> + '_ {
        self.members.iter().map(move |&v| Key::new(v, self.bits))
    }

    /// Add a node with an explicit key. Returns `false` if the key is taken.
    pub fn join_with_key(&mut self, key: Key) -> bool {
        self.check_space(key);
        self.members.insert(key.raw())
    }

    /// Add a node by hashing its address (consistent hashing of the IP, as
    /// the paper specifies). Returns the node's key, or `None` on collision.
    pub fn join_address(&mut self, address: &str) -> Option<Key> {
        let key = hash_address(address, self.bits);
        if self.join_with_key(key) {
            Some(key)
        } else {
            None
        }
    }

    /// Remove a node. Returns `false` if it was not a member.
    pub fn leave(&mut self, key: Key) -> bool {
        self.check_space(key);
        self.members.remove(&key.raw())
    }

    /// The owner of `key`: the first live node at or clockwise-after `key`.
    /// Panics on an empty ring.
    pub fn owner(&self, key: Key) -> Key {
        self.check_space(key);
        assert!(!self.members.is_empty(), "owner() on empty ring");
        let v = self
            .members
            .range(key.raw()..)
            .next()
            .or_else(|| self.members.iter().next())
            .copied()
            .expect("non-empty ring");
        Key::new(v, self.bits)
    }

    /// The live node strictly clockwise-after node `key` (its successor in
    /// the ring). For a single-node ring this is the node itself.
    pub fn successor_of(&self, key: Key) -> Key {
        self.check_space(key);
        assert!(!self.members.is_empty(), "successor_of() on empty ring");
        let v = self
            .members
            .range(key.raw().wrapping_add(1)..)
            .next()
            .or_else(|| self.members.iter().next())
            .copied()
            .expect("non-empty ring");
        // wrapping_add overflow at key = MAX in a 64-bit space falls back to
        // the first member, which is correct (full wrap).
        Key::new(v, self.bits)
    }

    /// The live node strictly counter-clockwise-before node `key`.
    pub fn predecessor_of(&self, key: Key) -> Key {
        self.check_space(key);
        assert!(!self.members.is_empty(), "predecessor_of() on empty ring");
        let v = self
            .members
            .range(..key.raw())
            .next_back()
            .or_else(|| self.members.iter().next_back())
            .copied()
            .expect("non-empty ring");
        Key::new(v, self.bits)
    }

    /// The finger table of node `node`: entry `i` is
    /// `owner(node + 2^i mod 2^m)` for `i ∈ 0..m`.
    pub fn finger_table(&self, node: Key) -> Vec<Key> {
        self.check_space(node);
        (0..self.bits).map(|i| self.owner(node.finger_start(i))).collect()
    }

    /// The arc of keys a node owns: `(predecessor(node), node]`. Returns the
    /// number of keys in that arc (its load share).
    pub fn owned_arc_len(&self, node: Key) -> u64 {
        self.check_space(node);
        assert!(self.contains(node), "node not in ring");
        if self.members.len() == 1 {
            // sole node owns the entire space; saturate at u64::MAX for m=64
            return if self.bits == 64 { u64::MAX } else { 1u64 << self.bits };
        }
        self.predecessor_of(node).distance_to(node)
    }

    #[inline]
    fn check_space(&self, key: Key) {
        assert_eq!(
            key.bits(),
            self.bits,
            "key from a {}-bit space used on a {}-bit ring",
            key.bits(),
            self.bits
        );
    }
}

impl Default for ChordRing {
    fn default() -> Self {
        ChordRing::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2_ring() -> ChordRing {
        // the paper's Figure 2: 4-bit space, nodes 0, 6, 10, 15
        let mut ring = ChordRing::with_bits(4);
        for v in [0u64, 6, 10, 15] {
            assert!(ring.join_with_key(Key::new(v, 4)));
        }
        ring
    }

    #[test]
    fn figure2_ownership() {
        let ring = figure2_ring();
        let owner = |v| ring.owner(Key::new(v, 4)).raw();
        assert_eq!(owner(10), 10, "node 10 is its own trust host");
        assert_eq!(owner(7), 10);
        assert_eq!(owner(11), 15);
        assert_eq!(owner(0), 0);
        assert_eq!(owner(1), 6);
    }

    #[test]
    fn successor_and_predecessor_wrap() {
        let ring = figure2_ring();
        assert_eq!(ring.successor_of(Key::new(15, 4)).raw(), 0);
        assert_eq!(ring.successor_of(Key::new(10, 4)).raw(), 15);
        assert_eq!(ring.predecessor_of(Key::new(0, 4)).raw(), 15);
        assert_eq!(ring.predecessor_of(Key::new(6, 4)).raw(), 0);
    }

    #[test]
    fn finger_table_matches_chord_definition() {
        let ring = figure2_ring();
        // node 0: starts 1,2,4,8 → owners 6,6,6,10
        assert_eq!(
            ring.finger_table(Key::new(0, 4)).iter().map(|k| k.raw()).collect::<Vec<_>>(),
            vec![6, 6, 6, 10]
        );
        // node 10: starts 11,12,14,2 → owners 15,15,15,6
        assert_eq!(
            ring.finger_table(Key::new(10, 4)).iter().map(|k| k.raw()).collect::<Vec<_>>(),
            vec![15, 15, 15, 6]
        );
    }

    #[test]
    fn join_collision_rejected() {
        let mut ring = figure2_ring();
        assert!(!ring.join_with_key(Key::new(10, 4)));
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn leave_moves_ownership_to_successor() {
        let mut ring = figure2_ring();
        assert!(ring.leave(Key::new(10, 4)));
        assert_eq!(ring.owner(Key::new(8, 4)).raw(), 15);
        assert!(!ring.leave(Key::new(10, 4)), "double-leave returns false");
    }

    #[test]
    fn single_node_owns_everything() {
        let mut ring = ChordRing::with_bits(4);
        ring.join_with_key(Key::new(7, 4));
        for v in 0..16 {
            assert_eq!(ring.owner(Key::new(v, 4)).raw(), 7);
        }
        assert_eq!(ring.successor_of(Key::new(7, 4)).raw(), 7);
        assert_eq!(ring.predecessor_of(Key::new(7, 4)).raw(), 7);
        assert_eq!(ring.owned_arc_len(Key::new(7, 4)), 16);
    }

    #[test]
    fn owned_arcs_partition_the_space() {
        let ring = figure2_ring();
        let total: u64 = ring.members().map(|n| ring.owned_arc_len(n)).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn join_address_is_deterministic() {
        let mut a = ChordRing::new();
        let mut b = ChordRing::new();
        let ka = a.join_address("10.0.0.1:4000").unwrap();
        let kb = b.join_address("10.0.0.1:4000").unwrap();
        assert_eq!(ka, kb);
        assert!(a.join_address("10.0.0.1:4000").is_none(), "collision on same address");
    }

    #[test]
    #[should_panic(expected = "owner() on empty ring")]
    fn owner_on_empty_ring_panics() {
        let ring = ChordRing::with_bits(4);
        let _ = ring.owner(Key::new(0, 4));
    }

    #[test]
    #[should_panic(expected = "bit space")]
    fn cross_space_key_rejected() {
        let ring = ChordRing::with_bits(4);
        let _ = ring.contains(Key::new(0, 8));
    }

    #[test]
    fn members_sorted_ascending() {
        let ring = figure2_ring();
        let keys: Vec<u64> = ring.members().map(|k| k.raw()).collect();
        assert_eq!(keys, vec![0, 6, 10, 15]);
    }
}
