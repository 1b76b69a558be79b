//! Cross-crate equivalence tests: the four detector deployments (Basic /
//! Optimized × centralized / decentralized) agree on randomized workloads.

use collusion::core::decentralized::Method;
use collusion::core::policy::DetectionPolicy;
use collusion::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random marketplace history with `pairs` injected colluding pairs.
fn random_history(seed: u64, n_nodes: u64, pairs: u64) -> (InteractionHistory, Vec<NodeId>) {
    let mut h = InteractionHistory::new();
    for r in random_ratings(seed, n_nodes, pairs) {
        h.record(r);
    }
    (h, (1..=n_nodes).map(NodeId).collect())
}

/// The rating stream behind [`random_history`], in recording order.
fn random_ratings(seed: u64, n_nodes: u64, pairs: u64) -> Vec<Rating> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ratings = Vec::new();
    let mut t = 0u64;
    let mut tick = || {
        t += 1;
        SimTime(t)
    };
    // background traffic: mostly positive about honest nodes, mostly
    // negative about the low-QoS colluders (C2)
    for _ in 0..n_nodes * 30 {
        let a = rng.random_range(1..=n_nodes);
        let mut b = rng.random_range(1..=n_nodes);
        if a == b {
            b = 1 + b % n_nodes;
        }
        let positive = if b <= 2 * pairs { rng.random_bool(0.1) } else { rng.random_bool(0.8) };
        ratings.push(if positive {
            Rating::positive(NodeId(a), NodeId(b), tick())
        } else {
            Rating::negative(NodeId(a), NodeId(b), tick())
        });
    }
    // colluding pairs on the low ids: mutual boost + community disdain
    for p in 0..pairs {
        let a = NodeId(1 + 2 * p);
        let b = NodeId(2 + 2 * p);
        let boost = rng.random_range(45..70);
        for _ in 0..boost {
            ratings.push(Rating::positive(a, b, tick()));
            ratings.push(Rating::positive(b, a, tick()));
        }
        for _ in 0..rng.random_range(5..15) {
            let rater = NodeId(rng.random_range(2 * pairs + 1..=n_nodes));
            ratings.push(Rating::negative(rater, a, tick()));
            ratings.push(Rating::negative(rater, b, tick()));
        }
    }
    ratings
}

/// Feed `ratings` through a partitioned [`DecentralizedSystem`] on
/// `managers` and run one detection round: its report and the system's
/// cumulative stats.
fn system_detect(
    ratings: &[Rating],
    n_nodes: u64,
    managers: &[NodeId],
    method: Method,
) -> (DetectionReport, SystemStats) {
    let mut sys = DecentralizedSystem::new(managers, thresholds(), method, DetectionPolicy::STRICT);
    for id in 1..=n_nodes {
        sys.register(NodeId(id));
    }
    for &r in ratings {
        sys.submit(r);
    }
    let report = sys.detect();
    (report, sys.stats())
}

fn thresholds() -> Thresholds {
    Thresholds::new(1.0, 20, 0.8, 0.2)
}

/// `det`'s plain row walk over a one-shard snapshot of `h`.
fn optimized(det: OptimizedDetector, h: &InteractionHistory, nodes: &[NodeId]) -> DetectionReport {
    let snap = ShardedSnapshot::build(h, nodes, 1);
    det.detect_snapshot(&SnapshotInput::from_signed(&snap, nodes))
}

#[test]
fn all_four_deployments_agree_across_seeds() {
    for seed in 0..10u64 {
        let (h, nodes) = random_history(seed, 40, 3);
        let ratings = random_ratings(seed, 40, 3);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let basic = BasicDetector::new(thresholds()).detect(&input);
        let optimized = optimized(OptimizedDetector::new(thresholds()), &h, &nodes);
        let managers: Vec<NodeId> = (1000..1008).map(NodeId).collect();
        let (dec_basic, _) = system_detect(&ratings, 40, &managers, Method::Basic);
        let (dec_opt, _) = system_detect(&ratings, 40, &managers, Method::Optimized);
        assert_eq!(basic.pair_ids(), optimized.pair_ids(), "seed {seed}: basic vs optimized");
        assert_eq!(basic.pair_ids(), dec_basic.pair_ids(), "seed {seed}: dec basic");
        assert_eq!(optimized.pair_ids(), dec_opt.pair_ids(), "seed {seed}: dec optimized");
    }
}

#[test]
fn injected_pairs_are_recovered() {
    for seed in 0..5u64 {
        let (h, nodes) = random_history(100 + seed, 50, 4);
        let report = optimized(OptimizedDetector::new(thresholds()), &h, &nodes);
        let truth: Vec<(NodeId, NodeId)> =
            (0..4).map(|p| (NodeId(1 + 2 * p), NodeId(2 + 2 * p))).collect();
        let cm = report.score(&truth, nodes.len());
        assert_eq!(cm.false_negatives, 0, "seed {seed}: missed a colluding pair");
        assert_eq!(cm.false_positives, 0, "seed {seed}: flagged an innocent pair");
    }
}

#[test]
fn extended_policy_finds_a_superset_of_strict() {
    for seed in 0..10u64 {
        let (h, nodes) = random_history(300 + seed, 40, 3);
        let strict = optimized(OptimizedDetector::new(thresholds()), &h, &nodes);
        let extended = optimized(
            OptimizedDetector::with_policy(thresholds(), DetectionPolicy::EXTENDED),
            &h,
            &nodes,
        );
        let ext_set: std::collections::BTreeSet<_> = extended.pair_ids().into_iter().collect();
        for p in strict.pair_ids() {
            assert!(ext_set.contains(&p), "seed {seed}: extended missed strict pair {p:?}");
        }
    }
}

#[test]
fn detection_is_deterministic() {
    let (h, nodes) = random_history(7, 40, 3);
    let a = optimized(OptimizedDetector::new(thresholds()), &h, &nodes);
    let b = optimized(OptimizedDetector::new(thresholds()), &h, &nodes);
    assert_eq!(a.pair_ids(), b.pair_ids());
    assert_eq!(a.cost, b.cost);
}

/// Shard counts every snapshot equivalence runs over: the one shard the
/// paper-scale call sites use, uneven splits, and more shards than rows.
const SHARD_COUNTS: [usize; 4] = [1, 3, 8, 64];

/// Basic's `detect_snapshot` over `snap` must reproduce the oracle,
/// `BasicDetector::detect` over the raw history, exactly: same suspect
/// pairs AND the same metered cost, under both policies. The Optimized walks
/// are pinned to `scale_props`' reference walk instead.
fn assert_snapshot_matches_raw(
    snap: &ShardedSnapshot,
    h: &InteractionHistory,
    nodes: &[NodeId],
    ctx: &str,
) {
    let raw_input = DetectionInput::from_signed_history(h, nodes);
    let snap_input = SnapshotInput::from_signed(snap, nodes);
    for policy in [DetectionPolicy::STRICT, DetectionPolicy::EXTENDED] {
        let basic = BasicDetector::with_policy(thresholds(), policy);
        let raw = basic.detect(&raw_input);
        let fast = basic.detect_snapshot(&snap_input);
        assert_eq!(raw.pairs, fast.pairs, "{ctx}, {policy:?}: basic pairs");
        assert_eq!(raw.cost, fast.cost, "{ctx}, {policy:?}: basic cost");
    }
}

#[test]
fn snapshot_paths_are_bit_identical_across_seeds() {
    for seed in 0..10u64 {
        let (h, nodes) = random_history(400 + seed, 40, 3);
        for shards in SHARD_COUNTS {
            let snap = ShardedSnapshot::build(&h, &nodes, shards);
            assert_snapshot_matches_raw(
                &snap,
                &h,
                &nodes,
                &format!("seed {seed}, {shards} shards"),
            );
        }
    }
}

#[test]
fn precomputed_frequent_aggregates_stay_bit_identical() {
    // build_with_frequent serves the Optimized walk's frequent sums from the
    // precomputed table, but neither report may change: the meter models
    // the paper's algorithm, not our shortcut.
    for seed in 0..5u64 {
        let (h, nodes) = random_history(500 + seed, 40, 3);
        for shards in SHARD_COUNTS {
            let snap = ShardedSnapshot::build_with_frequent(&h, &nodes, shards, thresholds().t_n);
            let ctx = format!("seed {seed}, {shards} shards");
            assert_snapshot_matches_raw(&snap, &h, &nodes, &ctx);
            let plain = ShardedSnapshot::build(&h, &nodes, shards);
            for policy in [DetectionPolicy::STRICT, DetectionPolicy::EXTENDED] {
                let det = OptimizedDetector::with_policy(thresholds(), policy);
                let table = det.detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
                let rows = det.detect_snapshot(&SnapshotInput::from_signed(&plain, &nodes));
                assert_eq!(table.pairs, rows.pairs, "{ctx}, {policy:?}: optimized pairs");
                assert_eq!(table.cost, rows.cost, "{ctx}, {policy:?}: optimized cost");
            }
        }
    }
}

#[test]
fn incremental_epoch_matches_fresh_build_detection() {
    // Grow a history, fold the same second wave into the live snapshot
    // through an epoch buffer, and check both the snapshot and the
    // detection it feeds are identical to a from-scratch rebuild.
    for seed in 0..5u64 {
        let (mut h, nodes) = random_history(700 + seed, 40, 2);
        let mut buf = EpochBuffer::new();
        let mut snap = ShardedSnapshot::build_with_frequent(&h, &nodes, 1, thresholds().t_n);
        // second wave of traffic, including a fresh colluding pair
        let mut rng = SmallRng::seed_from_u64(9000 + seed);
        let mut t = 1_000_000u64;
        let mut wave = Vec::new();
        for _ in 0..60 {
            let a = rng.random_range(1..=40u64);
            let mut b = rng.random_range(1..=40u64);
            if a == b {
                b = 1 + b % 40;
            }
            wave.push(Rating::negative(NodeId(a), NodeId(b), SimTime(t)));
            t += 1;
        }
        for _ in 0..50 {
            wave.push(Rating::positive(NodeId(31), NodeId(32), SimTime(t)));
            wave.push(Rating::positive(NodeId(32), NodeId(31), SimTime(t)));
            t += 1;
        }
        for r in wave {
            h.record(r);
            buf.record(r);
        }
        assert!(snap.apply_epoch(&mut buf, 1).is_none(), "seed {seed}: no fresh node");
        let rebuilt = ShardedSnapshot::build_with_frequent(&h, &nodes, 1, thresholds().t_n);
        for i in 0..rebuilt.n() as u32 {
            assert_eq!(snap.row(i), rebuilt.row(i), "seed {seed}: advanced row {i} diverged");
        }
        let det = OptimizedDetector::with_policy(thresholds(), DetectionPolicy::EXTENDED);
        let patched = det.detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
        let fresh = det.detect_snapshot(&SnapshotInput::from_signed(&rebuilt, &nodes));
        assert_eq!(patched.pairs, fresh.pairs, "seed {seed}: pairs");
        assert_eq!(patched.cost, fresh.cost, "seed {seed}: cost");
        assert_snapshot_matches_raw(&snap, &h, &nodes, &format!("seed {seed}, advanced"));
    }
}

#[test]
fn decentralized_message_count_scales_with_manager_dispersion() {
    let ratings = random_ratings(11, 60, 4);
    let (one, one_stats) = system_detect(&ratings, 60, &[NodeId(1000)], Method::Optimized);
    let many_managers: Vec<NodeId> = (1000..1128).map(NodeId).collect();
    let (many, many_stats) = system_detect(&ratings, 60, &many_managers, Method::Optimized);
    assert_eq!(one_stats.detection_messages, 0);
    assert!(many_stats.detection_messages >= one_stats.detection_messages);
    assert_eq!(one.pair_ids(), many.pair_ids());
}

#[test]
fn sharded_snapshot_paths_are_bit_identical_across_seeds() {
    // The same row walk with the band gate armed (`detect_pruned`), at every
    // shard count, against the ungated walk over one shard: under the
    // extended policy the gate disarms itself, so pairs AND cost are the
    // ungated walk's; under the strict policy the pairs are and every
    // metered counter can only go down.
    for seed in 0..10u64 {
        let (h, nodes) = random_history(900 + seed, 40, 3);
        let one = ShardedSnapshot::build(&h, &nodes, 1);
        let one_input = SnapshotInput::from_signed(&one, &nodes);
        for shards in SHARD_COUNTS {
            let snap = ShardedSnapshot::build(&h, &nodes, shards);
            let input = SnapshotInput::from_signed(&snap, &nodes);
            for policy in [DetectionPolicy::STRICT, DetectionPolicy::EXTENDED] {
                let det = OptimizedDetector::with_policy(thresholds(), policy);
                let raw = det.detect_snapshot(&one_input);
                let (pruned, stats) = det.detect_pruned(&input);
                let ctx = format!("seed {seed}, {shards} shards, {policy:?}");
                assert_eq!(raw.pairs, pruned.pairs, "{ctx}: pruned pairs");
                if policy.community_excludes_frequent {
                    assert_eq!(raw.cost, pruned.cost, "{ctx}: disarmed gate must not change cost");
                    assert_eq!(stats, PruneStats::default(), "{ctx}");
                } else {
                    assert!(stats.pairs_examined >= pruned.pairs.len() as u64, "{ctx}");
                    assert!(pruned.cost.element_checks <= raw.cost.element_checks, "{ctx}");
                    assert!(pruned.cost.band_checks <= raw.cost.band_checks, "{ctx}");
                }
            }
        }
    }
}
