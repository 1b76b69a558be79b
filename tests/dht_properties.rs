//! Property-based tests over the Chord DHT substrate.

use collusion::prelude::*;
use collusion_dht::hash::consistent_hash;
use proptest::prelude::*;

proptest! {
    /// Every lookup resolves to the ring's true owner, from any member.
    #[test]
    fn lookup_always_finds_owner(
        node_seeds in prop::collection::btree_set(0u64..10_000, 2..40),
        key_seed in 0u64..1_000_000,
    ) {
        let mut ring = ChordRing::with_bits(32);
        for s in &node_seeds {
            ring.join_with_key(consistent_hash(*s, 32));
        }
        let key = consistent_hash(key_seed, 32);
        let owner = ring.owner(key);
        for start in ring.members() {
            let res = Router::new(&ring).lookup(start, key);
            prop_assert_eq!(res.owner, owner);
            prop_assert!(res.hops as usize <= ring.len() + 32);
        }
    }

    /// Owned arcs partition the identifier space exactly.
    #[test]
    fn arcs_partition_space(node_seeds in prop::collection::btree_set(0u64..10_000, 1..50)) {
        let mut ring = ChordRing::with_bits(24);
        for s in &node_seeds {
            ring.join_with_key(consistent_hash(*s, 24));
        }
        let total: u64 = ring.members().map(|n| ring.owned_arc_len(n)).sum();
        prop_assert_eq!(total, 1u64 << 24);
    }

    /// successor/predecessor are inverse on ring members.
    #[test]
    fn successor_predecessor_inverse(node_seeds in prop::collection::btree_set(0u64..10_000, 2..40)) {
        let mut ring = ChordRing::with_bits(32);
        for s in &node_seeds {
            ring.join_with_key(consistent_hash(*s, 32));
        }
        for n in ring.members() {
            prop_assert_eq!(ring.predecessor_of(ring.successor_of(n)), n);
            prop_assert_eq!(ring.successor_of(ring.predecessor_of(n)), n);
        }
    }

    /// Finger tables always point at live members and respect the Chord
    /// definition.
    #[test]
    fn finger_tables_valid(node_seeds in prop::collection::btree_set(0u64..10_000, 1..30)) {
        let mut ring = ChordRing::with_bits(16);
        for s in &node_seeds {
            ring.join_with_key(consistent_hash(*s, 16));
        }
        for n in ring.members() {
            let fingers = ring.finger_table(n);
            prop_assert_eq!(fingers.len(), 16);
            for (i, f) in fingers.iter().enumerate() {
                prop_assert!(ring.contains(*f));
                prop_assert_eq!(*f, ring.owner(n.finger_start(i as u8)));
            }
        }
    }
}
