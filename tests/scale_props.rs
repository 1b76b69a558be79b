//! Property-based guarantees for the scale path: sharded CSR snapshots,
//! Formula (2) band pruning, and the epoch-incremental engine are all
//! *bit-identical* to a full pass of the raw-history detectors — the
//! correctness contract that lets the benchmark's `audit-batch` and
//! `engine-churn` workloads compare their costs honestly. The batch band
//! kernel and the fork-join close are checked against their serial oracles
//! here too, and one seeded n = 2 000 trace pins the prune and epoch
//! counters exactly.

use collusion::core::epoch::{EpochEngine, EpochMethod};
use collusion::core::policy::DetectionPolicy;
use collusion::prelude::*;
use collusion::reputation::history::NodeTotals;
use collusion::reputation::sharded::TotalsColumns;
use collusion::trace::scale::ScaleConfig;
use proptest::prelude::*;

const N: u64 = 24;

/// Strategy: a rating stream over nodes `1..=n` (self-ratings included —
/// every intake path must reject them consistently) with enough repeat
/// mass that frequent pairs (and therefore suspects) actually form.
fn ratings_strategy(n: u64, max_len: usize) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (1..=n, 1..=n, 0..10u8, 0..1_000_000u64).prop_map(|(a, b, v, t)| {
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
    fn sharded_detect_bit_identical(ratings in ratings_strategy(N, 400), shards in 1usize..=16) {
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
        waves in prop::collection::vec(ratings_strategy(N, 120), 1..5),
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
        ratings in ratings_strategy(N, 400),
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
            (ratings_strategy(N, 150), prop::collection::vec((1..=N + 6, 1..=N + 6), 0..8)),
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

/// The seeded n = 2 000 scale trace (20 planted pairs) through the pruned
/// full pass, the plain full pass and a 20-epoch incremental engine: all
/// three find exactly the planted pairs, and the prune and epoch counters
/// are pinned, so a change in how much work either path does shows here.
#[test]
fn scale_trace_counters_are_pinned() {
    let cfg = ScaleConfig::at_scale(2_000, 42);
    let ratings = cfg.generate();
    assert_eq!(ratings.len(), 41_600);
    let nodes = cfg.node_ids();
    let t = Thresholds::new(1.0, 20, 0.8, 0.2);
    let det = OptimizedDetector::with_policy(t, DetectionPolicy::STRICT);

    let mut h = InteractionHistory::new();
    for &r in &ratings {
        h.record(r);
    }
    let shard = ShardedSnapshot::build(&h, &nodes, 2);
    let input = SnapshotInput::from_signed(&shard, &nodes);
    let (pruned, stats) = det.detect_pruned(&input);
    let ids: Vec<(NodeId, NodeId)> = pruned.pairs.iter().map(|p| p.ids()).collect();
    assert_eq!(ids, cfg.planted_pairs());
    assert_eq!(
        stats,
        PruneStats { rows_pruned: 1_405, pairs_pruned: 33_605, pairs_examined: 5_979 }
    );
    assert_eq!(det.detect_snapshot(&input).pairs, pruned.pairs);

    let mut engine =
        EpochEngine::new(&nodes, 2, EpochMethod::Optimized, t, DetectionPolicy::STRICT, true);
    let mut report = None;
    for epoch in ratings.chunks(ratings.len().div_ceil(20)) {
        for &r in epoch {
            engine.record(r);
        }
        report = Some(engine.close_epoch());
    }
    assert_eq!(report.expect("20 epochs closed").pairs, pruned.pairs);
    let stats = engine.stats();
    assert_eq!((stats.epochs, stats.candidates, stats.checked, stats.pruned), (20, 20, 20, 0));
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
        base in ratings_strategy(N, 200),
        waves in prop::collection::vec(ratings_strategy(N, 60), 0..3),
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

/// Strategy: one row's raw totals component, weighted toward the band
/// kernel's edge cases — empty rows, counts at the `T_N` boundary, the
/// `1_000_000` upper-rule cutoff, and saturating values around `i64::MAX`
/// where [`NodeTotals::signed`] clamps.
fn totals_component() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0..200u64,
        1 => Just(0u64),
        1 => Just(1_000_000u64),
        1 => Just(1_000_001u64),
        1 => Just(i64::MAX as u64),
        1 => Just(i64::MAX as u64 + 1),
        1 => Just(u64::MAX),
        2 => any::<u64>(),
    ]
}

proptest! {
    /// The batch band kernel ([`OptimizedDetector::rows_prunable_batch`],
    /// SoA columns, branch-free lanes, `2·T_a·T_N` hoisted) must agree
    /// with the scalar oracle [`OptimizedDetector::row_prunable`] lane for
    /// lane on *arbitrary* totals, including saturating counts the clamp
    /// rules exist for. Both forms read the same raw fields, so
    /// independent per-component generation is valid and strictly more
    /// adversarial than realistic rows.
    #[test]
    fn batch_prunability_matches_scalar_oracle_lane_for_lane(
        rows in prop::collection::vec(
            (totals_component(), totals_component(), totals_component()),
            0..67,
        ),
        t_n in prop_oneof![Just(0u64), 1..64u64, Just(1_000_000u64), Just(u64::MAX)],
        t_a in 0.0f64..=1.0,
        t_b in prop_oneof![2 => 0.0f64..=1.0, 1 => 0.99f64..=1.0],
        base in 0u32..1000,
    ) {
        let det = OptimizedDetector::new(Thresholds::new(0.05, t_n, t_a, t_b));
        let total: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let positive: Vec<u64> = rows.iter().map(|r| r.1).collect();
        let negative: Vec<u64> = rows.iter().map(|r| r.2).collect();
        let cols = TotalsColumns { base, total: &total, positive: &positive, negative: &negative };
        // poison the flags so a lane the kernel skipped would be caught
        let mut flags = vec![2u8; rows.len()];
        det.rows_prunable_batch(&cols, &mut flags);
        for (k, &(t, p, n)) in rows.iter().enumerate() {
            let want = det.row_prunable(NodeTotals { total: t, positive: p, negative: n });
            prop_assert_eq!(
                flags[k],
                u8::from(want),
                "lane {} diverged from the scalar oracle: totals=({},{},{})", k, t, p, n
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fork-join epoch close is bit-identical to the serial oracle at
    /// every width: per-epoch suspect pairs *and* metered cost, the final
    /// snapshot state, and the persisted image all match `close_threads=1`
    /// exactly, for both kernels, both policies, pruning on and off.
    /// Seeding only a prefix of the id space forces later epochs to intern
    /// fresh nodes, so the deterministic re-interning remap runs under
    /// fork-join too.
    #[test]
    fn parallel_close_matches_serial_oracle_across_widths(
        ratings in ratings_strategy(12, 240),
        epoch_len in 5usize..40,
        shards in 1usize..5,
        basic in any::<bool>(),
        extended in any::<bool>(),
        prune in any::<bool>(),
    ) {
        let method = if basic { EpochMethod::Basic } else { EpochMethod::Optimized };
        let policy = if extended { DetectionPolicy::EXTENDED } else { DetectionPolicy::STRICT };
        let t = Thresholds::new(1.0, 4, 0.6, 0.4);
        let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let epochs: Vec<&[Rating]> = ratings.chunks(epoch_len).collect();

        let mut oracle = EpochEngine::new(&nodes, shards, method, t, policy, prune);
        oracle.set_close_threads(1);
        let mut oracle_reports = Vec::with_capacity(epochs.len());
        for epoch in &epochs {
            for &r in *epoch {
                oracle.record(r);
            }
            oracle_reports.push(oracle.close_epoch());
        }

        for width in [2usize, 4, 8] {
            let mut wide = EpochEngine::new(&nodes, shards, method, t, policy, prune);
            wide.set_close_threads(width);
            for (epoch, want) in epochs.iter().zip(&oracle_reports) {
                for &r in *epoch {
                    wide.record(r);
                }
                let got = wide.close_epoch();
                prop_assert_eq!(&got.pairs, &want.pairs, "pairs @ width {}", width);
                prop_assert_eq!(got.cost, want.cost, "cost @ width {}", width);
            }
            prop_assert!(
                wide.state_eq(&oracle),
                "width {} diverged: {:?}",
                width,
                wide.state_diff(&oracle)
            );
            prop_assert_eq!(
                wide.persist_bytes(0),
                oracle.persist_bytes(0),
                "persisted image @ width {}",
                width
            );
        }
    }
}
