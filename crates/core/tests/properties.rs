//! Property-based tests for the collusion detectors.

use collusion_core::basic::BasicDetector;
use collusion_core::decentralized::Method;
use collusion_core::group::{GroupDetector, GroupDetectorConfig};
use collusion_core::input::{DetectionInput, SnapshotInput};
use collusion_core::mitigation::apply_mitigation;
use collusion_core::optimized::OptimizedDetector;
use collusion_core::policy::DetectionPolicy;
use collusion_core::prelude::Thresholds;
use collusion_core::report::DetectionReport;
use collusion_core::system::DecentralizedSystem;
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingValue};
use collusion_reputation::sharded::ShardedSnapshot;
use proptest::prelude::*;
use std::collections::HashMap;

fn ratings_strategy(n: u64, max_len: usize) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..n, 0..n, prop::bool::ANY, 0..500u64).prop_map(move |(a, b, pos, t)| {
            let value = if pos { RatingValue::Positive } else { RatingValue::Negative };
            Rating::new(NodeId(a), NodeId(b), value, SimTime(t))
        }),
        0..max_len,
    )
}

/// Strict Optimized detection over a one-shard snapshot of `h`.
fn optimized(th: Thresholds, h: &InteractionHistory, nodes: &[NodeId]) -> DetectionReport {
    let snap = ShardedSnapshot::build(h, nodes, 1);
    OptimizedDetector::new(th).detect_snapshot(&SnapshotInput::from_signed(&snap, nodes))
}

fn build(ratings: &[Rating]) -> InteractionHistory {
    let mut h = InteractionHistory::new();
    for r in ratings {
        h.record(*r);
    }
    h
}

proptest! {
    /// Every reported pair satisfies the full §IV predicate, reconstructed
    /// independently from the raw history (soundness of the detector).
    #[test]
    fn reported_pairs_satisfy_predicate(
        ratings in ratings_strategy(10, 500),
        t_n in 5u64..25,
    ) {
        let h = build(&ratings);
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let th = Thresholds::new(1.0, t_n, 0.8, 0.3);
        let report = BasicDetector::new(th).detect(&input);
        for pair in &report.pairs {
            for (ratee, rater) in [(pair.low, pair.high), (pair.high, pair.low)] {
                // both high-reputed
                prop_assert!(h.signed_reputation(ratee) as f64 >= th.t_r);
                // frequency
                let c = h.pair(rater, ratee);
                prop_assert!(c.total >= th.t_n);
                // a-test
                prop_assert!(c.positive_fraction().unwrap() >= th.t_a);
                // b-test on the community
                let n_other = h.ratings_excluding(rater, ratee);
                prop_assert!(n_other > 0);
                let b = h.positive_excluding(rater, ratee) as f64 / n_other as f64;
                prop_assert!(b < th.t_b);
            }
        }
    }

    /// Mitigation is idempotent and only touches implicated nodes.
    #[test]
    fn mitigation_idempotent(ratings in ratings_strategy(10, 400)) {
        let h = build(&ratings);
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let report = optimized(Thresholds::new(1.0, 10, 0.8, 0.3), &h, &nodes);
        let mut reps: HashMap<NodeId, f64> =
            nodes.iter().map(|&n| (n, h.signed_reputation(n) as f64)).collect();
        let baseline = reps.clone();
        let zeroed1 = apply_mitigation(&report, &mut reps);
        let snapshot = reps.clone();
        let zeroed2 = apply_mitigation(&report, &mut reps);
        prop_assert_eq!(&zeroed1, &zeroed2);
        prop_assert_eq!(&reps, &snapshot, "second application changed state");
        for (&n, &v) in &reps {
            if report.is_colluder(n) {
                prop_assert_eq!(v, 0.0);
            } else {
                prop_assert_eq!(v, baseline[&n]);
            }
        }
    }

    /// Decentralized detection equals centralized for any manager count,
    /// under either policy: each direction reads only the ratee's row (its
    /// frequent aggregate included), and the ratee's manager holds that
    /// row whole. Planted pairs make the compared sets non-empty.
    #[test]
    fn decentralized_invariant_to_manager_count(
        background in ratings_strategy(12, 400),
        planted in prop::collection::vec((0..12u64, 0..12u64), 0..3),
        managers in 1usize..20,
        policy in prop::sample::select(vec![DetectionPolicy::STRICT, DetectionPolicy::EXTENDED]),
    ) {
        let mut ratings = background;
        for (a, b) in planted.into_iter().filter(|(a, b)| a != b) {
            // 30 boosts each way, and every other node rates both down twice
            let (a, b) = (NodeId(a), NodeId(b));
            for t in 0..30 {
                ratings.push(Rating::new(a, b, RatingValue::Positive, SimTime(t)));
                ratings.push(Rating::new(b, a, RatingValue::Positive, SimTime(t)));
            }
            for c in (0..12).map(NodeId).filter(|&c| c != a && c != b) {
                let down = |x| Rating::new(c, x, RatingValue::Negative, SimTime(0));
                ratings.extend([a, b, a, b].map(down));
            }
        }
        let h = build(&ratings);
        let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
        let th = Thresholds::new(1.0, 8, 0.8, 0.3);
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let central = OptimizedDetector::with_policy(th, policy)
            .detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
        let manager_ids: Vec<NodeId> = (500..500 + managers as u64).map(NodeId).collect();
        let mut sys = DecentralizedSystem::new(&manager_ids, th, Method::Optimized, policy);
        for &node in &nodes {
            sys.register(node);
        }
        for &r in &ratings {
            sys.submit(r);
        }
        prop_assert_eq!(sys.detect().pair_ids(), central.pair_ids());
        prop_assert_eq!(sys.stats().detection_messages % 2, 0);
    }

    /// Detection reports are insensitive to rating order.
    #[test]
    fn detection_order_independent(ratings in ratings_strategy(8, 300)) {
        let h1 = build(&ratings);
        let reversed: Vec<Rating> = ratings.iter().rev().copied().collect();
        let h2 = build(&reversed);
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let th = Thresholds::new(1.0, 8, 0.8, 0.3);
        let r1 = optimized(th, &h1, &nodes);
        let r2 = optimized(th, &h2, &nodes);
        prop_assert_eq!(r1.pair_ids(), r2.pair_ids());
    }

    /// Raising T_N can only shrink the detected set (monotonicity).
    #[test]
    fn frequency_threshold_monotone(ratings in ratings_strategy(10, 500)) {
        let h = build(&ratings);
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let lo = optimized(Thresholds::new(1.0, 5, 0.8, 0.3), &h, &nodes);
        let hi = optimized(Thresholds::new(1.0, 15, 0.8, 0.3), &h, &nodes);
        let lo_set: std::collections::BTreeSet<_> = lo.pair_ids().into_iter().collect();
        for p in hi.pair_ids() {
            prop_assert!(lo_set.contains(&p), "pair {p:?} appeared only at higher T_N");
        }
    }

    /// Group detection subsumes mutual pairs: every strictly-mutual pair the
    /// pair detector flags belongs to some group in the group report when
    /// T_G = 2·T_N.
    #[test]
    fn groups_cover_mutual_pairs(ratings in ratings_strategy(10, 500)) {
        let h = build(&ratings);
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let th = Thresholds::new(1.0, 8, 0.8, 0.3);
        let pairs = BasicDetector::new(th).detect(&input);
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let groups = GroupDetector::new(GroupDetectorConfig { thresholds: th, t_g: 16 })
            .detect(&SnapshotInput::from_signed(&snap, &nodes));
        for p in &pairs.pairs {
            // A mutually-boosting pair forms a mutual-boost edge, so both
            // ends live in the same boost-graph component. The group report
            // either rejected that whole component (its *collective*
            // community verdict can diverge from the pair's) or reported a
            // group containing BOTH members — never exactly one of them.
            let containing: Vec<_> = groups
                .groups
                .iter()
                .filter(|g| g.members.contains(&p.low) || g.members.contains(&p.high))
                .collect();
            for g in containing {
                prop_assert!(
                    g.members.contains(&p.low) && g.members.contains(&p.high),
                    "group {g:?} split the mutual pair {p}"
                );
            }
        }
    }
}
