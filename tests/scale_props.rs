//! Property-based guarantees for the scale path: sharded CSR snapshots,
//! Formula (2) band pruning, and the epoch-incremental engine are all
//! *bit-identical* to a full pass of the raw-history detectors — the
//! correctness contract that lets `BENCH_scale.json` compare their costs
//! honestly.

use collusion::core::epoch::{EpochEngine, EpochMethod};
use collusion::core::policy::DetectionPolicy;
use collusion::prelude::*;
use proptest::prelude::*;

const N: u64 = 24;

/// Strategy: a rating stream over `N` nodes with enough repeat mass that
/// frequent pairs (and therefore suspects) actually form.
fn ratings_strategy(max_len: usize) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (1..=N, 1..=N, 0..10u8, 0..1_000_000u64).prop_map(|(a, b, v, t)| {
            let value = match v {
                0 | 1 => RatingValue::Negative,
                2 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            Rating::new(NodeId(a), NodeId(b), value, SimTime(t))
        }),
        0..max_len,
    )
}

fn thresholds() -> Thresholds {
    Thresholds::new(1.0, 3, 0.8, 0.4)
}

fn nodes() -> Vec<NodeId> {
    (1..=N).map(NodeId).collect()
}

proptest! {
    /// Sharded detection is bit-identical to the raw-history detectors —
    /// pairs *and* metered cost — for any shard count, both detectors, both
    /// policies.
    #[test]
    fn sharded_detect_bit_identical(ratings in ratings_strategy(400), shards in 1usize..=16) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let t = thresholds();
        let nodes = nodes();
        let raw_in = DetectionInput::from_signed_history(&h, &nodes);
        for policy in [DetectionPolicy::STRICT, DetectionPolicy::EXTENDED] {
            let shard = if policy.community_excludes_frequent {
                ShardedSnapshot::build_with_frequent(&h, &nodes, shards, t.t_n)
            } else {
                ShardedSnapshot::build(&h, &nodes, shards)
            };
            let shard_in = SnapshotInput::from_signed(&shard, &nodes);
            let opt = OptimizedDetector::with_policy(t, policy);
            let a = opt.detect(&raw_in);
            let b = opt.detect_snapshot(&shard_in);
            prop_assert_eq!(&a.pairs, &b.pairs, "optimized pairs, {:?}", policy);
            prop_assert_eq!(a.cost, b.cost, "optimized cost, {:?}", policy);
            let basic = BasicDetector::with_policy(t, policy);
            let a = basic.detect(&raw_in);
            let b = basic.detect_snapshot(&shard_in);
            prop_assert_eq!(&a.pairs, &b.pairs, "basic pairs, {:?}", policy);
            prop_assert_eq!(a.cost, b.cost, "basic cost, {:?}", policy);
        }
    }

    /// Random refresh sequences: a sharded snapshot patched wave by wave
    /// from the dirty set detects identically — pairs and cost — to the
    /// raw-history detector at every step.
    #[test]
    fn sharded_refresh_sequences_bit_identical(
        waves in prop::collection::vec(ratings_strategy(120), 1..5),
        shards in 1usize..=8,
    ) {
        let t = thresholds();
        let nodes = nodes();
        let mut h = InteractionHistory::new();
        let mut shard = ShardedSnapshot::build(&h, &nodes, shards);
        h.clear_dirty();
        let opt = OptimizedDetector::new(t);
        for wave in &waves {
            for r in wave {
                h.record(*r);
            }
            let dirty: Vec<NodeId> = h.take_dirty().into_iter().collect();
            shard.refresh(&h, &dirty);
            let a = opt.detect(&DetectionInput::from_signed_history(&h, &nodes));
            let b = opt.detect_snapshot(&SnapshotInput::from_signed(&shard, &nodes));
            prop_assert_eq!(a.pairs, b.pairs);
            prop_assert_eq!(a.cost, b.cost);
        }
    }

    /// Band pruning never discards a pair the unpruned detector flags: the
    /// pruned report equals the full report exactly, while the skip
    /// counters account for every candidate pair once.
    #[test]
    fn band_pruning_never_skips_a_flagged_pair(
        ratings in ratings_strategy(400),
        shards in 1usize..=8,
        t_n in 0u64..6,
        mutual in any::<bool>(),
    ) {
        let t = Thresholds::new(1.0, t_n, 0.8, 0.4);
        let policy = DetectionPolicy { require_mutual: mutual, community_excludes_frequent: false };
        let nodes = nodes();
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let shard = ShardedSnapshot::build(&h, &nodes, shards);
        let input = SnapshotInput::from_signed(&shard, &nodes);
        let opt = OptimizedDetector::with_policy(t, policy);
        let full = opt.detect_snapshot(&input);
        let (pruned, stats) = opt.detect_pruned(&input);
        prop_assert_eq!(&full.pairs, &pruned.pairs);
        // every flagged pair must have been examined, never pruned
        prop_assert!(stats.pairs_examined >= full.pairs.len() as u64);
        prop_assert!(stats.skip_rate() >= 0.0 && stats.skip_rate() <= 1.0);
    }

    /// The epoch engine's standing suspect set after each close equals a
    /// full detector pass over the same cumulative ratings, for arbitrary
    /// epoch boundaries — under all four policies and both kernels, with
    /// `T_N` small enough that frequent cells are common (and 0, where an
    /// absent cell is frequent), and with fresh node ids arriving
    /// mid-stream (ids above `N` re-intern the snapshot).
    #[test]
    fn epoch_engine_matches_full_pass(
        epochs in prop::collection::vec(
            (ratings_strategy(150), prop::collection::vec((1..=N + 6, 1..=N + 6), 0..8)),
            1..5,
        ),
        shards in 1usize..=8,
        prune in any::<bool>(),
        t_n in prop_oneof![Just(0u64), Just(2u64), Just(3u64)],
        // (T_R, T_b): the usual pair, and one loose enough that a never-rated
        // stranger is high on arrival and a direction can hold on few ratings
        loose in any::<bool>(),
    ) {
        let (t_r, t_b) = if loose { (-1.0, 0.7) } else { (1.0, 0.4) };
        let t = Thresholds::new(t_r, t_n, 0.8, t_b);
        let nodes = nodes();
        let mut engines = Vec::new();
        for require_mutual in [true, false] {
            for community_excludes_frequent in [true, false] {
                let policy = DetectionPolicy { require_mutual, community_excludes_frequent };
                for method in [EpochMethod::Basic, EpochMethod::Optimized] {
                    engines.push((
                        policy,
                        method,
                        EpochEngine::new(&nodes, shards, method, t, policy, prune),
                    ));
                }
            }
        }
        let mut h = InteractionHistory::new();
        for (batch, strangers) in &epochs {
            let arrivals = strangers
                .iter()
                .map(|&(a, b)| Rating::new(NodeId(a), NodeId(b), RatingValue::Positive, SimTime(0)));
            for r in batch.iter().copied().chain(arrivals) {
                h.record(r);
                for (_, _, engine) in &mut engines {
                    engine.record(r);
                }
            }
            for (policy, method, engine) in &mut engines {
                let report = engine.close_epoch();
                let full = if policy.community_excludes_frequent {
                    ShardedSnapshot::build_with_frequent(&h, &nodes, 1, t.t_n)
                } else {
                    ShardedSnapshot::build(&h, &nodes, 1)
                };
                // every interned id is examined, strangers included
                let input = SnapshotInput::from_signed(&full, full.nodes());
                let expect = match method {
                    EpochMethod::Basic => {
                        BasicDetector::with_policy(t, *policy).detect_snapshot(&input)
                    }
                    EpochMethod::Optimized => {
                        OptimizedDetector::with_policy(t, *policy).detect_snapshot(&input)
                    }
                };
                prop_assert_eq!(&report.pairs, &expect.pairs, "{:?} {:?}", policy, method);
            }
        }
    }
}

/// Probe-level equality of two sharded snapshots: interning, every forward
/// row, totals, frequent reverse index and patched-row count must all agree.
fn assert_sharded_eq(a: &ShardedSnapshot, b: &ShardedSnapshot) {
    prop_assert_eq!(a.n(), b.n());
    prop_assert_eq!(a.nodes(), b.nodes());
    prop_assert_eq!(a.nnz(), b.nnz());
    prop_assert_eq!(a.patched_rows(), b.patched_rows());
    for idx in 0..a.n() as u32 {
        let (ac, av) = a.row(idx);
        let (bc, bv) = b.row(idx);
        prop_assert_eq!(ac, bc, "row cols @ {}", idx);
        prop_assert_eq!(av, bv, "row cells @ {}", idx);
        prop_assert_eq!(a.totals_of(idx), b.totals_of(idx), "totals @ {}", idx);
        prop_assert_eq!(
            a.frequent_ratees_of(idx),
            b.frequent_ratees_of(idx),
            "frequent ratees @ {}",
            idx
        );
    }
}

proptest! {
    /// `apply_epoch` under fork-join is bit-identical to the serial merge
    /// for any thread width — including snapshots carrying overlay-patched
    /// rows from prior `refresh` waves (compacted inside the merge) and
    /// deltas that intern fresh nodes (the re-interning remap path).
    #[test]
    fn parallel_apply_epoch_matches_serial_across_widths(
        base in ratings_strategy(200),
        waves in prop::collection::vec(ratings_strategy(60), 0..3),
        deltas in prop::collection::vec(
            prop::collection::vec(
                (1..=N + 6, 1..=N + 6, 0..3u8, 0..1_000_000u64).prop_map(|(a, b, v, t)| {
                    let value = match v {
                        0 => RatingValue::Negative,
                        1 => RatingValue::Neutral,
                        _ => RatingValue::Positive,
                    };
                    Rating::new(NodeId(a), NodeId(b), value, SimTime(t))
                }),
                1..80,
            ),
            1..4,
        ),
        shards in 1usize..=8,
    ) {
        let nodes = nodes();
        // seed a snapshot, then overlay-patch it with refresh waves
        let mut h = InteractionHistory::new();
        for r in &base {
            h.record(*r);
        }
        // with a T_N, so the frequent reverse index has entries to compare
        let mut oracle = ShardedSnapshot::build_with_frequent(&h, &nodes, shards, 2);
        h.clear_dirty();
        for wave in &waves {
            for r in wave {
                h.record(*r);
            }
            let dirty: Vec<NodeId> = h.take_dirty().into_iter().collect();
            oracle.refresh(&h, &dirty);
        }

        let mut wides: Vec<ShardedSnapshot> =
            [2usize, 4, 8].iter().map(|_| oracle.clone()).collect();
        for batch in &deltas {
            let mut buf = EpochBuffer::new();
            for r in batch {
                buf.record(*r);
            }
            let delta = buf.drain();
            let want_remap = oracle.apply_epoch(&delta, 1);
            for (wide, width) in wides.iter_mut().zip([2usize, 4, 8]) {
                let remap = wide.apply_epoch(&delta, width);
                prop_assert_eq!(&remap, &want_remap, "remap @ width {}", width);
                assert_sharded_eq(wide, &oracle);
            }
        }
    }
}
