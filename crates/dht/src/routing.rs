//! Iterative Chord lookups over finger tables.
//!
//! A [`Router`] simulates the hop-by-hop `find_successor` procedure a real
//! Chord node executes: starting at some node, repeatedly forward the query
//! to the closest finger preceding the target key until the key falls in
//! `(current, successor(current)]`. Each forwarding step is one hop (one
//! network message); Chord guarantees `O(log n)` hops with high probability,
//! which the tests verify statistically.

use crate::error::DhtError;
use crate::id::Key;
use crate::ring::ChordRing;

/// Outcome of one lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// The node owning the key.
    pub owner: Key,
    /// Number of routing hops (messages) taken, excluding the local table
    /// consultation at the starting node.
    pub hops: u32,
    /// The nodes visited, starting node first, owner last.
    pub path: Vec<Key>,
}

/// A lookup engine bound to a ring snapshot.
#[derive(Debug)]
pub struct Router<'a> {
    ring: &'a ChordRing,
}

impl<'a> Router<'a> {
    /// Router over a ring.
    pub fn new(ring: &'a ChordRing) -> Self {
        Router { ring }
    }

    /// The closest finger of `node` that strictly precedes `key`, per the
    /// Chord pseudo-code. Returns `node` itself when no finger qualifies.
    pub fn closest_preceding_node(&self, node: Key, key: Key) -> Key {
        let fingers = self.ring.finger_table(node);
        for f in fingers.iter().rev() {
            if f.in_interval_oo(node, key) {
                return *f;
            }
        }
        node
    }

    /// Iterative `find_successor(key)` from `start`. Panics if `start` is
    /// not a ring member or the ring is empty; converged-model callers that
    /// can guarantee membership use this, everyone else goes through
    /// [`Router::try_lookup`].
    pub fn lookup(&self, start: Key, key: Key) -> LookupResult {
        assert!(self.ring.contains(start), "lookup start {start:?} not in ring");
        match self.try_lookup(start, key) {
            Ok(res) => res,
            Err(e) => panic!("routing loop detected resolving {key:?} from {start:?}: {e}"),
        }
    }

    /// Fallible `find_successor(key)` from `start`: returns [`DhtError`]
    /// instead of panicking when the ring is empty, the origin is not a
    /// member (it may have crashed between retries), or the hop cap is hit
    /// while the ring is healing.
    pub fn try_lookup(&self, start: Key, key: Key) -> Result<LookupResult, DhtError> {
        if self.ring.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        if !self.ring.contains(start) {
            return Err(DhtError::NotAMember(start));
        }
        let mut current = start;
        let mut hops = 0u32;
        let mut path = vec![current];
        // Safety cap: a correct ring resolves within `bits` + len steps.
        let cap = self.ring.bits() as u32 + self.ring.len() as u32 + 2;
        loop {
            let succ = self.ring.successor_of(current);
            if key.in_interval_oc(current, succ) {
                if succ != current {
                    hops += 1;
                    path.push(succ);
                }
                return Ok(LookupResult { owner: succ, hops, path });
            }
            if current == succ {
                // single-node ring owns everything
                return Ok(LookupResult { owner: current, hops, path });
            }
            let next = self.closest_preceding_node(current, key);
            let next = if next == current { succ } else { next };
            hops += 1;
            path.push(next);
            current = next;
            if hops > cap {
                return Err(DhtError::Unroutable { key, hops });
            }
        }
    }

    /// Average hop count over every (member, key) pair in `keys` — used by
    /// benchmarks and the `O(log n)` scaling tests.
    pub fn average_hops(&self, keys: &[Key]) -> f64 {
        let members: Vec<Key> = self.ring.members().collect();
        if members.is_empty() || keys.is_empty() {
            return 0.0;
        }
        let mut total = 0u64;
        let mut count = 0u64;
        for &start in &members {
            for &key in keys {
                total += self.lookup(start, key).hops as u64;
                count += 1;
            }
        }
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::consistent_hash;

    fn figure2_ring() -> ChordRing {
        let mut ring = ChordRing::with_bits(4);
        for v in [0u64, 6, 10, 15] {
            ring.join_with_key(Key::new(v, 4));
        }
        ring
    }

    #[test]
    fn lookup_finds_owner_from_any_start() {
        let ring = figure2_ring();
        let router = Router::new(&ring);
        for start in ring.members() {
            for v in 0..16u64 {
                let key = Key::new(v, 4);
                let res = router.lookup(start, key);
                assert_eq!(res.owner, ring.owner(key), "start {start:?} key {key:?}");
                assert_eq!(*res.path.last().unwrap(), res.owner);
                assert_eq!(res.path[0], start);
            }
        }
    }

    #[test]
    fn figure2_example_lookup_10() {
        // n6 queries Lookup(10): 10 ∈ (6, 10] so the successor 10 answers.
        let ring = figure2_ring();
        let router = Router::new(&ring);
        let res = router.lookup(Key::new(6, 4), Key::new(10, 4));
        assert_eq!(res.owner.raw(), 10);
        assert_eq!(res.hops, 1);
    }

    #[test]
    fn local_key_costs_zero_extra_hops() {
        let ring = figure2_ring();
        let router = Router::new(&ring);
        // key 5 is owned by 6; querying from 0 whose successor is 6:
        let res = router.lookup(Key::new(0, 4), Key::new(5, 4));
        assert_eq!(res.owner.raw(), 6);
        assert_eq!(res.hops, 1);
    }

    #[test]
    fn single_node_ring_resolves_immediately() {
        let mut ring = ChordRing::with_bits(4);
        ring.join_with_key(Key::new(3, 4));
        let router = Router::new(&ring);
        let res = router.lookup(Key::new(3, 4), Key::new(12, 4));
        assert_eq!(res.owner.raw(), 3);
        assert_eq!(res.hops, 0);
    }

    #[test]
    fn closest_preceding_node_respects_interval() {
        let ring = figure2_ring();
        let router = Router::new(&ring);
        // from node 0 toward key 14: fingers of 0 are [6,6,6,10]; 10 ∈ (0,14)
        assert_eq!(router.closest_preceding_node(Key::new(0, 4), Key::new(14, 4)).raw(), 10);
        // from node 0 toward key 4: no finger in (0,4) → returns node itself
        assert_eq!(router.closest_preceding_node(Key::new(0, 4), Key::new(4, 4)).raw(), 0);
    }

    #[test]
    fn hops_scale_logarithmically() {
        // 256 nodes in a 32-bit space: average hops should be around
        // ~0.5·log2(256) = 4, and certainly far below linear (128).
        let mut ring = ChordRing::with_bits(32);
        for i in 0..256u64 {
            ring.join_with_key(consistent_hash(i, 32));
        }
        let router = Router::new(&ring);
        let keys: Vec<Key> = (1000..1100).map(|i| consistent_hash(i, 32)).collect();
        let avg = router.average_hops(&keys);
        assert!(avg > 0.5, "suspiciously few hops: {avg}");
        assert!(avg < 12.0, "hops not logarithmic: {avg}");
    }

    #[test]
    fn lookup_consistent_after_churn() {
        let mut ring = ChordRing::with_bits(32);
        for i in 0..64u64 {
            ring.join_with_key(consistent_hash(i, 32));
        }
        let victim = consistent_hash(7, 32);
        ring.leave(victim);
        let router = Router::new(&ring);
        for i in 200..240u64 {
            let key = consistent_hash(i, 32);
            let res = router.lookup(ring.owner(Key::new(0, 32)), key);
            assert_eq!(res.owner, ring.owner(key));
            assert_ne!(res.owner, victim);
        }
    }

    #[test]
    #[should_panic(expected = "not in ring")]
    fn lookup_from_non_member_panics() {
        let ring = figure2_ring();
        let router = Router::new(&ring);
        let _ = router.lookup(Key::new(1, 4), Key::new(5, 4));
    }

    #[test]
    fn try_lookup_reports_errors_instead_of_panicking() {
        let empty = ChordRing::with_bits(4);
        assert_eq!(
            Router::new(&empty).try_lookup(Key::new(0, 4), Key::new(5, 4)),
            Err(crate::error::DhtError::EmptyRing)
        );
        let ring = figure2_ring();
        let router = Router::new(&ring);
        assert_eq!(
            router.try_lookup(Key::new(1, 4), Key::new(5, 4)),
            Err(crate::error::DhtError::NotAMember(Key::new(1, 4)))
        );
    }

    #[test]
    fn try_lookup_agrees_with_lookup_on_members() {
        let ring = figure2_ring();
        let router = Router::new(&ring);
        for start in ring.members() {
            for v in 0..16u64 {
                let key = Key::new(v, 4);
                assert_eq!(router.try_lookup(start, key).unwrap(), router.lookup(start, key));
            }
        }
    }
}
