//! The `Insert` / `Lookup` key-value layer on top of the ring, with
//! successor-list replication.
//!
//! §IV.A: "A node uses DHT function `Insert(ID_i, r_i)` to send the rating
//! of node `n_i` to its reputation manager, and uses `Lookup(ID_i)` to query
//! the reputation value of node `n_i`."
//!
//! Values are multi-valued per key (a reputation manager accumulates many
//! ratings under one node's ID). Every operation is routed through the
//! [`Router`] from an explicit origin node so message costs are realistic
//! and countable; [`StorageStats`] accumulates them.
//!
//! # Replication and failover
//!
//! With replication factor `r > 1` every key is stored at its owner **and**
//! the `r - 1` ring successors of the owner. When a node crashes
//! ([`DhtStorage::node_crash`]) its copies vanish, but the key's new owner
//! — the crashed node's first successor — already holds a replica, so
//! lookups keep answering with no repair round at all (failover handoff).
//! [`DhtStorage::heal`] (driven by the stabilization layer after membership
//! changes) then re-establishes the full replication factor. With `r = 1`
//! the behavior is exactly the original unreplicated store: graceful leaves
//! hand data over, crashes lose it.

use crate::id::Key;
use crate::ring::ChordRing;
use crate::routing::Router;
use std::collections::HashMap;

/// Cumulative message accounting for a storage instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// `Insert` operations executed.
    pub inserts: u64,
    /// `Lookup` operations executed.
    pub lookups: u64,
    /// Total routing hops across all operations.
    pub hops: u64,
    /// Copies pushed to backup holders at insert time (one message each).
    pub replica_writes: u64,
    /// Copies moved or re-created by [`DhtStorage::heal`] after membership
    /// changes (one message each).
    pub repair_copies: u64,
    /// Keys whose every replica disappeared in a crash — irrecoverable.
    pub lost_keys: u64,
}

impl StorageStats {
    /// Average hops per operation (0 when no operations ran).
    pub fn average_hops(&self) -> f64 {
        let ops = self.inserts + self.lookups;
        if ops == 0 {
            0.0
        } else {
            self.hops as f64 / ops as f64
        }
    }
}

/// A DHT-backed multi-map: each key stores the sequence of values inserted
/// under it, held by the key's current owner node and (with replication
/// factor `r > 1`) the owner's `r - 1` ring successors.
#[derive(Clone, Debug)]
pub struct DhtStorage<V> {
    ring: ChordRing,
    /// holder node key → (data key → values)
    data: HashMap<u64, HashMap<u64, Vec<V>>>,
    stats: StorageStats,
    /// Total copies per key, including the owner's primary. Always ≥ 1.
    replication: usize,
}

impl<V: Clone> DhtStorage<V> {
    /// Unreplicated storage over a ring (which must already have members
    /// before the first operation).
    pub fn new(ring: ChordRing) -> Self {
        Self::with_replication(ring, 1)
    }

    /// Storage keeping `replication` total copies of every key (owner plus
    /// `replication - 1` successors).
    pub fn with_replication(ring: ChordRing, replication: usize) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        DhtStorage { ring, data: HashMap::new(), stats: StorageStats::default(), replication }
    }

    /// The underlying ring.
    pub fn ring(&self) -> &ChordRing {
        &self.ring
    }

    /// Configured replication factor (total copies per key).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Message statistics so far.
    pub fn stats(&self) -> StorageStats {
        self.stats
    }

    /// The nodes that should hold `key`: its owner followed by successors,
    /// up to the replication factor (fewer when the ring is smaller).
    pub fn replica_holders(&self, key: Key) -> Vec<Key> {
        let mut holders = Vec::with_capacity(self.replication);
        if self.ring.is_empty() {
            return holders;
        }
        let mut cur = self.ring.owner(key);
        for _ in 0..self.replication {
            if holders.contains(&cur) {
                break; // ring smaller than the replication factor
            }
            holders.push(cur);
            cur = self.ring.successor_of(cur);
        }
        holders
    }

    /// `Insert(key, value)` issued by ring member `origin`. The value is
    /// routed to the owner and pushed to each backup holder (one extra hop
    /// and one `replica_writes` count per backup). Returns the owner.
    pub fn insert(&mut self, origin: Key, key: Key, value: V) -> Key {
        let res = Router::new(&self.ring).lookup(origin, key);
        self.stats.inserts += 1;
        self.stats.hops += res.hops as u64;
        for (i, holder) in self.replica_holders(key).into_iter().enumerate() {
            if i > 0 {
                // owner → backup push: one direct message
                self.stats.replica_writes += 1;
                self.stats.hops += 1;
            }
            self.data
                .entry(holder.raw())
                .or_default()
                .entry(key.raw())
                .or_default()
                .push(value.clone());
        }
        res.owner
    }

    /// `Lookup(key)` issued by ring member `origin`. Returns the stored
    /// values (empty when the key has none). The owner answers; after a
    /// crash the new owner is the crashed node's successor, which already
    /// holds a replica, so no repair round is needed to keep answering.
    pub fn lookup(&mut self, origin: Key, key: Key) -> Vec<V> {
        let res = Router::new(&self.ring).lookup(origin, key);
        self.stats.lookups += 1;
        self.stats.hops += res.hops as u64;
        self.data.get(&res.owner.raw()).and_then(|m| m.get(&key.raw())).cloned().unwrap_or_default()
    }

    /// Direct (cost-free) view of the values a given holder has for a key;
    /// used by reputation managers reading their own local store.
    pub fn local_values(&self, owner: Key, key: Key) -> &[V] {
        self.data
            .get(&owner.raw())
            .and_then(|m| m.get(&key.raw()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All keys currently stored at `owner`, unsorted.
    pub fn local_keys(&self, owner: Key) -> Vec<Key> {
        self.data
            .get(&owner.raw())
            .map(|m| m.keys().map(|&k| Key::new(k, self.ring.bits())).collect())
            .unwrap_or_default()
    }

    /// Node `node` joins the ring; placement is re-established so the new
    /// node holds every key it now owns or backs up. Returns the number of
    /// keys whose ownership moved to `node`.
    pub fn node_join(&mut self, node: Key) -> usize {
        if !self.ring.join_with_key(node) {
            return 0;
        }
        let migrated = self
            .distinct_keys()
            .into_iter()
            .filter(|&k| self.ring.owner(Key::new(k, self.ring.bits())) == node)
            .count();
        self.heal();
        migrated
    }

    /// Node `node` leaves gracefully: its copies are handed over before it
    /// departs, so nothing is lost regardless of the replication factor.
    /// Returns the number of keys it held, or `None` if not a member.
    pub fn node_leave(&mut self, node: Key) -> Option<usize> {
        if !self.ring.contains(node) {
            return None;
        }
        let held = self.data.get(&node.raw()).map(HashMap::len).unwrap_or(0);
        self.ring.leave(node);
        if self.ring.is_empty() {
            self.data.clear();
            return Some(0); // data lost with the last node
        }
        // Graceful handoff: the departing node's copies stay available as a
        // source for heal(), which redistributes them to the new holders.
        self.heal();
        Some(held)
    }

    /// Node `node` crashes abruptly: every copy it held is gone. Keys with a
    /// surviving replica are re-replicated by [`DhtStorage::heal`]; keys
    /// without one are counted in [`StorageStats::lost_keys`]. Returns the
    /// number of irrecoverably lost keys, or `None` if not a member.
    pub fn node_crash(&mut self, node: Key) -> Option<usize> {
        if !self.ring.contains(node) {
            return None;
        }
        let crashed_copies = self.data.remove(&node.raw());
        self.ring.leave(node);
        if self.ring.is_empty() {
            self.data.clear();
            return Some(crashed_copies.map(|m| m.len()).unwrap_or(0));
        }
        let lost = crashed_copies
            .map(|m| {
                m.keys().filter(|k| !self.data.values().any(|held| held.contains_key(k))).count()
            })
            .unwrap_or(0);
        self.stats.lost_keys += lost as u64;
        self.heal();
        Some(lost)
    }

    /// Re-establish the placement invariant after a membership change: every
    /// key ends up exactly on its replica holders, copied from the owner's
    /// copy when present, else from the longest surviving replica. Each copy
    /// placed on a holder that did not already have the key costs one
    /// message (`repair_copies`). Returns the number of such copies.
    pub fn heal(&mut self) -> usize {
        let bits = self.ring.bits();
        let mut previously_held: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&holder, map) in &self.data {
            for &k in map.keys() {
                previously_held.entry(k).or_default().push(holder);
            }
        }
        let old = std::mem::take(&mut self.data);
        // Pick the authoritative copy per key: prefer the current owner's
        // (it has every write), else the longest replica that survived.
        let mut best: HashMap<u64, (bool, Vec<V>)> = HashMap::new();
        for (holder, map) in old {
            for (k, vals) in map {
                let is_owner = self.ring.owner(Key::new(k, bits)).raw() == holder;
                match best.get_mut(&k) {
                    None => {
                        best.insert(k, (is_owner, vals));
                    }
                    Some(cur) => {
                        if (is_owner && !cur.0) || (is_owner == cur.0 && vals.len() > cur.1.len()) {
                            *cur = (is_owner, vals);
                        }
                    }
                }
            }
        }
        let mut copies = 0usize;
        for (k, (_, vals)) in best {
            let key = Key::new(k, bits);
            let had = previously_held.remove(&k).unwrap_or_default();
            for holder in self.replica_holders(key) {
                if !had.contains(&holder.raw()) {
                    copies += 1;
                }
                self.data.entry(holder.raw()).or_default().insert(k, vals.clone());
            }
        }
        self.stats.repair_copies += copies as u64;
        self.stats.hops += copies as u64;
        copies
    }

    /// Check the placement invariant: every stored key lives exactly at its
    /// replica holders (owner plus successors). Returns the number of
    /// violations — copies on wrong holders plus missing copies — which is 0
    /// when healthy.
    pub fn misplaced_keys(&self) -> usize {
        let bits = self.ring.bits();
        let mut violations = 0;
        let mut correct_copies: HashMap<u64, usize> = HashMap::new();
        for (&holder, map) in &self.data {
            for &k in map.keys() {
                let key = Key::new(k, bits);
                if self.replica_holders(key).iter().any(|h| h.raw() == holder) {
                    *correct_copies.entry(k).or_insert(0) += 1;
                } else {
                    violations += 1;
                    correct_copies.entry(k).or_insert(0);
                }
            }
        }
        for (&k, &n) in &correct_copies {
            let expected = self.replica_holders(Key::new(k, bits)).len();
            violations += expected.saturating_sub(n);
        }
        violations
    }

    /// All distinct keys stored anywhere, unsorted.
    fn distinct_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.data.values().flat_map(|m| m.keys().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::consistent_hash;

    fn ring4() -> ChordRing {
        let mut ring = ChordRing::with_bits(4);
        for v in [0u64, 6, 10, 15] {
            ring.join_with_key(Key::new(v, 4));
        }
        ring
    }

    fn k4(v: u64) -> Key {
        Key::new(v, 4)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        let owner = store.insert(k4(6), k4(10), 7);
        assert_eq!(owner.raw(), 10);
        store.insert(k4(0), k4(10), -1);
        assert_eq!(store.lookup(k4(15), k4(10)), vec![7, -1]);
        assert_eq!(store.stats().inserts, 2);
        assert_eq!(store.stats().lookups, 1);
    }

    #[test]
    fn lookup_missing_key_is_empty() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        assert!(store.lookup(k4(0), k4(9)).is_empty());
    }

    #[test]
    fn local_views_do_not_cost_messages() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        store.insert(k4(6), k4(10), 1);
        let before = store.stats();
        assert_eq!(store.local_values(k4(10), k4(10)), &[1]);
        assert_eq!(store.local_keys(k4(10)), vec![k4(10)]);
        assert!(store.local_values(k4(0), k4(10)).is_empty());
        assert_eq!(store.stats(), before);
    }

    #[test]
    fn hops_accumulate_in_stats() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        store.insert(k4(6), k4(10), 1);
        store.lookup(k4(0), k4(14));
        assert!(store.stats().hops >= 2);
        assert!(store.stats().average_hops() >= 1.0);
    }

    #[test]
    fn node_leave_migrates_to_successor() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        store.insert(k4(6), k4(9), 42); // owned by node 10
        let migrated = store.node_leave(k4(10)).unwrap();
        assert_eq!(migrated, 1);
        // key 9 now owned by 15
        assert_eq!(store.lookup(k4(0), k4(9)), vec![42]);
        assert_eq!(store.misplaced_keys(), 0);
    }

    #[test]
    fn node_join_takes_over_arc() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        store.insert(k4(6), k4(8), 5); // owned by node 10
        store.insert(k4(6), k4(10), 6); // owned by node 10
        let migrated = store.node_join(k4(8)); // new node 8 owns (6, 8]
        assert_eq!(migrated, 1);
        assert_eq!(store.lookup(k4(0), k4(8)), vec![5]);
        assert_eq!(store.lookup(k4(0), k4(10)), vec![6]);
        assert_eq!(store.misplaced_keys(), 0);
    }

    #[test]
    fn leave_of_non_member_is_none() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        assert_eq!(store.node_leave(k4(9)), None);
    }

    #[test]
    fn join_collision_migrates_nothing() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        assert_eq!(store.node_join(k4(10)), 0);
    }

    #[test]
    fn last_node_leaving_drops_data() {
        let mut ring = ChordRing::with_bits(4);
        ring.join_with_key(k4(3));
        let mut store: DhtStorage<i32> = DhtStorage::new(ring);
        store.insert(k4(3), k4(1), 9);
        assert_eq!(store.node_leave(k4(3)), Some(0));
        assert!(store.ring().is_empty());
    }

    #[test]
    fn placement_invariant_holds_under_churn() {
        let mut ring = ChordRing::with_bits(32);
        for i in 0..32u64 {
            ring.join_with_key(consistent_hash(i, 32));
        }
        let mut store: DhtStorage<u64> = DhtStorage::new(ring);
        let origin = store.ring().members().next().unwrap();
        for i in 0..200u64 {
            let key = consistent_hash(1000 + i, 32);
            store.insert(origin, key, i);
        }
        // churn: 8 leaves, 8 joins
        for i in 0..8u64 {
            store.node_leave(consistent_hash(i, 32));
        }
        for i in 100..108u64 {
            store.node_join(consistent_hash(i, 32));
        }
        assert_eq!(store.misplaced_keys(), 0);
        // all values still reachable
        let origin = store.ring().members().next().unwrap();
        let mut found = 0;
        for i in 0..200u64 {
            let key = consistent_hash(1000 + i, 32);
            found += store.lookup(origin, key).len();
        }
        assert_eq!(found, 200);
    }

    #[test]
    fn replicated_insert_places_all_copies() {
        let mut store: DhtStorage<i32> = DhtStorage::with_replication(ring4(), 2);
        store.insert(k4(6), k4(9), 42); // owner 10, backup 15
        assert_eq!(store.local_values(k4(10), k4(9)), &[42]);
        assert_eq!(store.local_values(k4(15), k4(9)), &[42]);
        assert_eq!(store.stats().replica_writes, 1);
        assert_eq!(store.misplaced_keys(), 0);
    }

    #[test]
    fn crash_with_replication_keeps_data_available() {
        let mut store: DhtStorage<i32> = DhtStorage::with_replication(ring4(), 2);
        store.insert(k4(6), k4(9), 42); // owner 10, backup 15
        let lost = store.node_crash(k4(10)).unwrap();
        assert_eq!(lost, 0, "backup must survive the owner crash");
        // key 9 now owned by 15, which already held the replica
        assert_eq!(store.lookup(k4(0), k4(9)), vec![42]);
        assert_eq!(store.misplaced_keys(), 0);
        assert_eq!(store.stats().lost_keys, 0);
    }

    #[test]
    fn crash_without_replication_loses_data() {
        let mut store: DhtStorage<i32> = DhtStorage::new(ring4());
        store.insert(k4(6), k4(9), 42); // owned by node 10, no backup
        let lost = store.node_crash(k4(10)).unwrap();
        assert_eq!(lost, 1);
        assert!(store.lookup(k4(0), k4(9)).is_empty());
        assert_eq!(store.stats().lost_keys, 1);
    }

    #[test]
    fn heal_restores_replication_factor_after_crash() {
        let mut store: DhtStorage<i32> = DhtStorage::with_replication(ring4(), 2);
        store.insert(k4(6), k4(9), 42); // owner 10, backup 15
        store.node_crash(k4(10));
        // after heal: owner 15 and its successor 0 both hold the key
        assert_eq!(store.local_values(k4(15), k4(9)), &[42]);
        assert_eq!(store.local_values(k4(0), k4(9)), &[42]);
        assert!(store.stats().repair_copies >= 1);
    }

    #[test]
    fn replication_capped_by_ring_size() {
        let mut ring = ChordRing::with_bits(4);
        ring.join_with_key(k4(3));
        ring.join_with_key(k4(9));
        let store: DhtStorage<i32> = DhtStorage::with_replication(ring, 5);
        assert_eq!(store.replica_holders(k4(1)).len(), 2);
    }

    #[test]
    fn replicated_churn_preserves_every_value() {
        let mut ring = ChordRing::with_bits(32);
        for i in 0..32u64 {
            ring.join_with_key(consistent_hash(i, 32));
        }
        let mut store: DhtStorage<u64> = DhtStorage::with_replication(ring, 3);
        let origin = store.ring().members().next().unwrap();
        for i in 0..200u64 {
            store.insert(origin, consistent_hash(1000 + i, 32), i);
        }
        // abrupt crashes (not graceful leaves) plus joins
        for i in 0..6u64 {
            assert_eq!(store.node_crash(consistent_hash(i, 32)), Some(0));
        }
        for i in 100..106u64 {
            store.node_join(consistent_hash(i, 32));
        }
        assert_eq!(store.misplaced_keys(), 0);
        let origin = store.ring().members().next().unwrap();
        let mut found = 0;
        for i in 0..200u64 {
            found += store.lookup(origin, consistent_hash(1000 + i, 32)).len();
        }
        assert_eq!(found, 200, "replication factor 3 must survive 6 spaced crashes");
    }
}
