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

/// Logical equality of two frozen views: same interned nodes, same totals,
/// same rows — regardless of how either was advanced or how the rows are
/// sharded.
fn assert_same_rows(a: &ShardedSnapshot, b: &ShardedSnapshot) {
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.nnz(), b.nnz());
    for i in 0..a.n() as u32 {
        assert_eq!(a.totals_of(i), b.totals_of(i), "totals of row {i}");
        assert_eq!(a.row(i), b.row(i), "row {i}");
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
    assert_eq!(snap.apply_epoch(&buf.drain(), 1), Some(Vec::new()));
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

    /// `apply_epoch` of the extra ratings converges to the same snapshot a
    /// full rebuild produces, no matter how the extra ratings are spread.
    #[test]
    fn apply_epoch_equals_rebuild(
        base in ratings_strategy(N, 200),
        extra in ratings_strategy(N, 60),
    ) {
        let nodes: Vec<NodeId> = (0..N).map(NodeId).collect();
        let mut h = history_of(&base);
        let mut snaps = SHARD_COUNTS.map(|shards| ShardedSnapshot::build(&h, &nodes, shards));
        let mut buf = EpochBuffer::new();
        for r in &extra {
            h.record(*r);
            buf.record(*r);
        }
        let delta = buf.drain();
        for (snap, shards) in snaps.iter_mut().zip(SHARD_COUNTS) {
            snap.apply_epoch(&delta, 1);
            assert_same_rows(snap, &ShardedSnapshot::build(&h, &nodes, shards));
        }
    }
}
