//! Property-based guarantees for the scale path: sharded CSR snapshots,
//! Formula (2) band pruning, and the epoch-incremental engine are all
//! *bit-identical* to their oracles — the Basic detector over the raw
//! history and, for the Optimized walks, the reference walk below — the
//! correctness contract that lets the benchmark's `audit-batch` and
//! `engine-churn` workloads compare their costs honestly. The batch band
//! kernel and the fork-join close are checked against their serial oracles
//! here too, and one seeded n = 2 000 trace pins the prune and epoch
//! counters exactly.

use collusion::core::epoch::{EpochEngine, EpochMethod};
use collusion::core::model::DirectionEvidence;
use collusion::core::policy::DetectionPolicy;
use collusion::prelude::*;
use collusion::reputation::history::NodeTotals;
use collusion::reputation::sharded::TotalsColumns;
use collusion::trace::scale::ScaleConfig;
use proptest::prelude::*;
use std::collections::HashSet;

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
    /// Sharded detection is bit-identical to its oracle — pairs *and*
    /// metered cost — for any shard count, both detectors, both policies:
    /// Basic to `BasicDetector::detect` on the raw history, Optimized to
    /// [`reference_walk`].
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
            let (a, _) = reference_walk(&opt, &shard_in, false);
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

    /// Random epoch sequences: a sharded snapshot advanced wave by wave
    /// through `apply_epoch` equals a fresh build of the same history at
    /// every step, probe for probe, and detects identically — pairs and
    /// cost.
    #[test]
    fn sharded_epoch_sequences_bit_identical(
        waves in prop::collection::vec(ratings_strategy(N, 120), 1..5),
        shards in 1usize..=8,
    ) {
        let t = thresholds();
        let nodes = nodes();
        let mut h = InteractionHistory::new();
        let mut shard = ShardedSnapshot::build(&h, &nodes, shards);
        let mut buf = EpochBuffer::new();
        let opt = OptimizedDetector::new(t);
        for wave in &waves {
            for r in wave {
                h.record(*r);
                buf.record(*r);
            }
            shard.apply_epoch(&buf.drain(), 1);
            let fresh = ShardedSnapshot::build(&h, &nodes, shards);
            assert_sharded_eq(&shard, &fresh);
            let a = opt.detect_snapshot(&SnapshotInput::from_signed(&fresh, &nodes));
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

/// Strategy: rating bursts over nodes `1..=n` — a pair rated `1..6` times
/// with one value, in one direction or in both — so frequent pairs, one-way
/// pairs, mutual pairs and negative-reputation rows all form.
fn bursts_strategy(n: u64) -> impl Strategy<Value = Vec<Rating>> {
    let burst = (1..=n, 1..=n, 1..6usize, 0..4u8, any::<bool>());
    prop::collection::vec(burst, 0..60).prop_map(|bursts| {
        let mut out = Vec::new();
        for (a, b, count, v, both) in bursts.into_iter().filter(|b| b.0 != b.1) {
            let value = match v {
                0 => RatingValue::Negative,
                1 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            for _ in 0..count {
                out.push(Rating::new(NodeId(a), NodeId(b), value, SimTime(out.len() as u64)));
                if both {
                    out.push(Rating::new(NodeId(b), NodeId(a), value, SimTime(out.len() as u64)));
                }
            }
        }
        out
    })
}

/// The Optimized row walk as specified: every high row ascending, a
/// first-wins `HashSet` of unordered pairs, one element check per stored
/// cell, the band pre-filter when `prune`, and the Formula (2) direction
/// test written out and metered where the detector meters it.
fn reference_walk(
    opt: &OptimizedDetector,
    input: &SnapshotInput<'_>,
    prune: bool,
) -> (DetectionReport, PruneStats) {
    let (t, snap, meter) = (opt.thresholds, input.snapshot, CostMeter::new());
    let high = input.high_reputed_idx(&t);
    let dead = |x: u32| prune && opt.row_prunable(snap.totals_of(x));
    let rows_pruned = high.iter().filter(|&&x| dead(x)).count() as u64;
    let mut stats = PruneStats { rows_pruned, ..PruneStats::default() };
    let mut scanned = HashSet::new();
    let mut dir = |ratee: u32, rater: u32| {
        meter.element_check();
        let pair = snap.pair(rater, ratee);
        if !t.is_frequent(pair.total) {
            return None;
        }
        let totals = snap.totals_of(ratee);
        let (mut n, mut r) = (totals.total, totals.signed());
        if opt.policy.community_excludes_frequent {
            if scanned.insert(ratee) {
                meter.row_scan(snap.row(ratee).0.len() as u64);
            }
            let (freq_n, freq_signed) = snap.row_freq(ratee, t.t_n);
            (n, r) = (n - freq_n + pair.total, r - freq_signed + pair.signed());
        }
        if n == pair.total {
            return None;
        }
        meter.band_check();
        let band = formula_band(t.t_a, t.t_b, n, pair.total);
        band.contains(r as f64).then_some(DirectionEvidence {
            pair_ratings: pair.total,
            fraction_a: None,
            fraction_b: None,
            signed_reputation: r,
        })
    };
    let (mut seen, mut pairs) = (HashSet::new(), Vec::new());
    for &i in &high {
        for &j in snap.row(i).0 {
            meter.element_check();
            if high.binary_search(&j).is_err() || !seen.insert((i.min(j), i.max(j))) {
                continue;
            }
            // under `require_mutual` one prunable row or one failed direction
            // rules the pair out; otherwise it takes both
            let mutual = opt.policy.require_mutual;
            if prune {
                let skip = if mutual { dead(i) || dead(j) } else { dead(i) && dead(j) };
                if skip {
                    stats.pairs_pruned += 1;
                    continue;
                }
                stats.pairs_examined += 1;
            }
            let fwd = dir(i, j);
            if mutual && fwd.is_none() {
                continue;
            }
            let rev = dir(j, i);
            let flagged = if mutual { rev.is_some() } else { fwd.is_some() || rev.is_some() };
            if flagged {
                pairs.push(SuspectPair::new(snap.node_id(j), snap.node_id(i), fwd, rev));
            }
        }
    }
    (DetectionReport::new(pairs, meter.snapshot()), stats)
}

proptest! {
    /// The detectors meet each pair once from the CSR order alone; this
    /// pins that to first-wins `HashSet` walks. Optimized's
    /// `detect_snapshot` and `detect_pruned` equal the reference walk above,
    /// and Basic's `detect_snapshot` equals `BasicDetector::detect`, the
    /// paper's procedure with its marking set, on the raw history — the
    /// report's normalised pairs, metered cost and prune counters — under
    /// every policy, at 1, 3 and 64 shards, over a view that leaves some
    /// raters out, with `T_R` low enough that rows of negative reputation
    /// are walked too.
    #[test]
    fn row_walks_match_a_first_wins_reference(
        ratings in bursts_strategy(12),
        outside in prop::collection::vec(1..=12u64, 1..5),
        shards in prop::sample::select(vec![1usize, 3, 64]),
        t_r in prop::sample::select(vec![-2.0, 0.0, 1.0]),
        t_n in 0u64..5,
    ) {
        let all: Vec<NodeId> = (1..=12).map(NodeId).collect();
        let view: Vec<NodeId> =
            all.iter().copied().filter(|id| !outside.contains(&id.0)).collect();
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let t = Thresholds::new(t_r, t_n, 0.8, 0.4);
        for (mutual, excl) in [(true, false), (false, false), (true, true), (false, true)] {
            let policy =
                DetectionPolicy { require_mutual: mutual, community_excludes_frequent: excl };
            let snap = if excl {
                ShardedSnapshot::build_with_frequent(&h, &all, shards, t_n)
            } else {
                ShardedSnapshot::build(&h, &all, shards)
            };
            let input = SnapshotInput::from_signed(&snap, &view);
            let opt = OptimizedDetector::with_policy(t, policy);
            let plain = (opt.detect_snapshot(&input), PruneStats::default());
            let walks = [
                (plain, reference_walk(&opt, &input, false)),
                (opt.detect_pruned(&input), reference_walk(&opt, &input, !excl)),
            ];
            for ((got, got_stats), (expect, stats)) in walks {
                prop_assert_eq!(&got.pairs, &expect.pairs, "optimized pairs, {:?}", policy);
                prop_assert_eq!(got.cost, expect.cost, "optimized cost, {:?}", policy);
                prop_assert_eq!(got_stats, stats, "prune stats, {:?}", policy);
            }
            let basic = BasicDetector::with_policy(t, policy);
            let got = basic.detect_snapshot(&input);
            let expect = basic.detect(&DetectionInput::from_signed_history(&h, &view));
            prop_assert_eq!(&got.pairs, &expect.pairs, "basic pairs, {:?}", policy);
            prop_assert_eq!(got.cost, expect.cost, "basic cost, {:?}", policy);
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
/// row, totals and frequent reverse index must all agree.
fn assert_sharded_eq(a: &ShardedSnapshot, b: &ShardedSnapshot) {
    prop_assert_eq!(a.n(), b.n());
    prop_assert_eq!(a.nodes(), b.nodes());
    prop_assert_eq!(a.nnz(), b.nnz());
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
    /// for any thread width — including deltas that intern fresh nodes (the
    /// re-interning remap path).
    #[test]
    fn parallel_apply_epoch_matches_serial_across_widths(
        base in ratings_strategy(N, 200),
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
        let mut h = InteractionHistory::new();
        for r in &base {
            h.record(*r);
        }
        // with a T_N, so the frequent reverse index has entries to compare
        let mut oracle = ShardedSnapshot::build_with_frequent(&h, &nodes, shards, 2);

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
    /// fresh nodes, so the forked merge also runs over a re-interned
    /// partition.
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
