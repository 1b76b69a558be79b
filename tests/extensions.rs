//! Cross-crate integration tests for the beyond-the-paper extensions:
//! the partitioned decentralized system, group detection fed from trace
//! data, and baseline engines.

use collusion::core::decentralized::Method;
use collusion::core::group::{GroupDetector, GroupDetectorConfig};
use collusion::core::policy::DetectionPolicy;
use collusion::core::system::DecentralizedSystem;
use collusion::prelude::*;
use collusion::trace::overstock::{self, OverstockConfig};

/// Feed a synthetic Overstock trace through the partitioned decentralized
/// system and verify the injected colluding pairs are detected with the
/// DHT-routed data path.
#[test]
fn overstock_trace_through_decentralized_system() {
    let mut cfg = OverstockConfig::paper(0.005, 77);
    cfg.colluding_pairs = 5;
    cfg.users = 600;
    // strong mutual boost so the colluders stay high-reputed (C1) even
    // after the community negatives injected below
    cfg.collusion_ratings = (45, 60);
    // bidirectional marketplaces rarely have every user rate every pair
    // target negatively; mark the colluders' victims explicitly by adding
    // community negatives about each colluder
    let trace = overstock::generate(&cfg);
    let managers: Vec<NodeId> = (10_000..10_016).map(NodeId).collect();
    let mut sys = DecentralizedSystem::new(
        &managers,
        Thresholds::new(1.0, 20, 0.8, 0.2),
        Method::Optimized,
        DetectionPolicy::STRICT,
    );
    for id in 0..cfg.users {
        sys.register(NodeId(id));
    }
    for rec in &trace.trace.records {
        sys.submit(rec.to_rating());
    }
    // add community negatives so C2 holds for the injected colluders:
    // enough to outweigh the ~90%-positive organic background each colluder
    // also receives
    let mut t = 1_000_000u64;
    for &colluder in &trace.colluders() {
        for k in 0..30u64 {
            sys.submit(Rating::negative(NodeId(500 + k % 8), colluder, SimTime(t)));
            t += 1;
        }
    }
    let report = sys.detect();
    let found: std::collections::BTreeSet<(NodeId, NodeId)> =
        report.pair_ids().into_iter().collect();
    for &(a, b) in &trace.pairs {
        let key = if a < b { (a, b) } else { (b, a) };
        assert!(found.contains(&key), "pair {key:?} missed by the partitioned system");
    }
    assert!(sys.stats().inserts > 0);
    assert!(sys.stats().hops > 0, "DHT routing should cost hops at 16 managers");
}

/// Group detection works directly off trace-crate output: injected
/// Overstock cliques are recovered as collectives.
#[test]
fn trace_cliques_flow_into_group_detector() {
    let mut cfg = OverstockConfig::paper(0.005, 31);
    cfg.colluding_pairs = 0;
    cfg.colluding_groups = vec![3, 4];
    let trace = overstock::generate(&cfg);
    let mut history = trace.trace.to_rating_log().history();
    // community negatives about every clique member (C2), outweighing the
    // positive organic background
    let mut t = 2_000_000u64;
    for member in trace.colluders() {
        for k in 0..40u64 {
            history.record(Rating::negative(NodeId(700 + k % 8), member, SimTime(t)));
            t += 1;
        }
    }
    let mut nodes: Vec<NodeId> = trace.colluders();
    nodes.extend((700..708).map(NodeId));
    let snap = ShardedSnapshot::build(&history, &nodes, 1);
    let report = GroupDetector::new(GroupDetectorConfig {
        thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
        t_g: 40,
    })
    .detect(&SnapshotInput::from_signed(&snap, &nodes));
    let collectives = report.collectives();
    assert_eq!(collectives.len(), 2, "both cliques should surface: {report:?}");
    let mut sizes: Vec<usize> = collectives.iter().map(|g| g.members.len()).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![3, 4]);
    for g in collectives {
        assert!(g.is_closed());
    }
}

/// First-hand scores are immune to any volume of third-party boosting.
#[test]
fn first_hand_immune_to_boost_volume() {
    let mut h = InteractionHistory::new();
    let client = NodeId(99);
    h.record(Rating::negative(client, NodeId(1), SimTime(0)));
    let score_before = FirstHandEngine::personal_score(&h, client, NodeId(1));
    // a million boost ratings later…
    for t in 0..10_000u64 {
        h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
    }
    assert_eq!(FirstHandEngine::personal_score(&h, client, NodeId(1)), score_before);
}
