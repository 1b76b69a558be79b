//! Property-based tests for the CSR detection snapshot.
//!
//! The snapshot is a frozen view of an [`InteractionHistory`]; these
//! properties pin the two invariants the detectors lean on: the view is
//! faithful under every history mutation path (`record`, `merge`,
//! `split_off_ratee`) and under `apply_epoch`, and the rater lists that
//! feed the CSR rows never contain duplicates.

use collusion_reputation::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn ratings_strategy(n: u64, max_len: usize) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..n, 0..n, 0..3u8, 0..500u64).prop_map(move |(a, b, v, t)| {
            let value = match v {
                0 => RatingValue::Negative,
                1 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            Rating::new(NodeId(a), NodeId(b), value, SimTime(t))
        }),
        0..max_len,
    )
}

fn history_of(ratings: &[Rating]) -> InteractionHistory {
    let mut h = InteractionHistory::new();
    for r in ratings {
        h.record(*r);
    }
    h
}

const N: u64 = 6;

/// Shard counts every property runs over: one shard, an uneven split, and
/// more shards than rows.
const SHARD_COUNTS: [usize; 3] = [1, 3, 64];

/// Logical equality of two frozen views: same interned nodes, totals,
/// rows, frequent aggregates and frequent index — regardless of how either
/// was advanced or how the rows are sharded.
fn assert_same_rows(a: &ShardedSnapshot, b: &ShardedSnapshot) {
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.nnz(), b.nnz());
    assert_eq!(a.frequent_t_n(), b.frequent_t_n());
    let t_n = a.frequent_t_n().unwrap_or(0);
    for i in 0..a.n() as u32 {
        assert_eq!(a.totals_of(i), b.totals_of(i), "totals of row {i}");
        assert_eq!(a.row(i), b.row(i), "row {i}");
        assert_eq!(a.frequent_agg(t_n, i), b.frequent_agg(t_n, i), "frequent agg of {i}");
        assert_eq!(a.frequent_ratees_of(i), b.frequent_ratees_of(i), "frequent ratees of {i}");
        assert!(a.frequent_raters_of(i).eq(b.frequent_raters_of(i)), "frequent raters of {i}");
    }
}

/// An empty slice (a manager that owns nothing yet) snapshots to zero rows,
/// and the epoch that brings its first nodes interns them.
#[test]
fn empty_slice_then_first_node() {
    let mut h = InteractionHistory::new();
    let mut snap = ShardedSnapshot::build(&h, &[], 1);
    assert_eq!(snap.n(), 0);
    assert_eq!(snap.nnz(), 0);
    let first = Rating::positive(NodeId(1), NodeId(2), SimTime(0));
    h.record(first);
    let mut buf = EpochBuffer::new();
    buf.record(first);
    assert_eq!(snap.apply_epoch(&mut buf, 1), Some(Vec::new()));
    assert_same_rows(&snap, &ShardedSnapshot::build(&h, &[], 1));
    assert_eq!(snap.nodes(), &[NodeId(1), NodeId(2)]);
}

proptest! {
    /// Merging two histories and snapshotting equals snapshotting the
    /// history that recorded the concatenated rating stream directly,
    /// independent of how the counters were accumulated.
    #[test]
    fn merge_then_snapshot_equals_snapshot_of_merged(
        first in ratings_strategy(N, 200),
        second in ratings_strategy(N, 200),
    ) {
        let nodes: Vec<NodeId> = (0..N).map(NodeId).collect();
        let mut merged = history_of(&first);
        merged.merge(&history_of(&second));
        let all: Vec<Rating> = first.iter().chain(second.iter()).copied().collect();
        let direct = history_of(&all);
        for shards in SHARD_COUNTS {
            let a = ShardedSnapshot::build(&merged, &nodes, shards);
            let b = ShardedSnapshot::build(&direct, &nodes, shards);
            assert_same_rows(&a, &b);
        }
    }

    /// `raters_of` stays duplicate-free for every ratee across `merge` and
    /// `split_off_ratee` round-trips (the CSR build trusts this: each rater
    /// contributes exactly one column to a row).
    #[test]
    fn raters_of_duplicate_free_across_round_trips(
        first in ratings_strategy(N, 200),
        second in ratings_strategy(N, 200),
        moved in 0..N,
    ) {
        let mut h = history_of(&first);
        h.merge(&history_of(&second));
        // split one ratee's row out and merge it back in
        let slice = h.split_off_ratee(NodeId(moved));
        h.merge(&slice);
        for ratee in (0..N).map(NodeId) {
            let raters = h.raters_of(ratee);
            let unique: BTreeSet<NodeId> = raters.iter().copied().collect();
            prop_assert_eq!(
                unique.len(),
                raters.len(),
                "duplicate rater for {}: {:?}",
                ratee,
                raters
            );
            // and every listed rater genuinely rated the ratee
            for &rater in raters {
                prop_assert!(h.pair(rater, ratee).total > 0);
            }
        }
    }

    /// Closes that drain random logs into a standing snapshot — repeat
    /// pairs, self-ratings, and fresh ids as ratee and as rater, landing
    /// between the interned (even) ids and beyond them — at 1–64 shards.
    /// After each close every probe equals a fresh build over the history
    /// of the same ratings, the applied rows are the rows of the
    /// comparison-sort oracle's entries, and the remap is strictly
    /// monotone.
    #[test]
    fn apply_epoch_equals_rebuild(
        base in ratings_strategy(2 * N, 120),
        closes in prop::collection::vec(ratings_strategy(2 * N + 4, 80), 1..5),
        shards in 1usize..=64,
        threads in 1usize..=3,
    ) {
        const T_N: u64 = 2;
        let nodes: Vec<NodeId> = (0..N).map(|k| NodeId(2 * k)).collect();
        let mut h = history_of(&base);
        let mut snap = ShardedSnapshot::build_with_frequent(&h, &nodes, shards, T_N);
        for close in &closes {
            let mut buf = EpochBuffer::new();
            for r in close {
                h.record(*r);
                buf.record(*r);
            }
            let oracle = buf.clone().drain();
            let old_nodes = snap.nodes().to_vec();
            let remap = snap.apply_epoch(&mut buf, threads);
            prop_assert!(buf.is_empty());
            assert_same_rows(&snap, &ShardedSnapshot::build_with_frequent(&h, &nodes, shards, T_N));
            let rows: Vec<u32> = oracle
                .entries
                .iter()
                .map(|&(ratee, _, _)| snap.index(ratee).expect("ratee interned"))
                .collect();
            prop_assert_eq!(snap.applied_rows().collect::<Vec<_>>(), rows);
            match remap {
                None => prop_assert_eq!(snap.nodes(), &old_nodes[..]),
                Some(remap) => {
                    prop_assert_eq!(remap.len(), old_nodes.len());
                    prop_assert!(remap.windows(2).all(|w| w[0] < w[1]), "remap not monotone");
                    for (old, &new) in remap.iter().enumerate() {
                        prop_assert_eq!(snap.node_id(new), old_nodes[old]);
                    }
                }
            }
        }
    }
}
