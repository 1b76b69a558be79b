//! End-to-end §III trace pipeline tests: generation → statistics →
//! suspicious filter → behaviour patterns → interaction graph, validated
//! against the generators' ground truth.

use collusion::prelude::*;
use collusion::trace::amazon::{self, AmazonConfig};
use collusion::trace::graph::{ComponentKind, InteractionGraph};
use collusion::trace::overstock::{self, OverstockConfig};
use collusion::trace::patterns::{classify_all_raters, RaterPattern};
use collusion::trace::stats::TraceStats;
use collusion::trace::suspicious::find_suspicious;
use std::collections::BTreeSet;

#[test]
fn amazon_pipeline_recovers_all_ground_truth() {
    for seed in [1u64, 7, 2012] {
        let trace = amazon::generate(&AmazonConfig::paper(0.02, seed));
        let stats = TraceStats::compute(&trace.trace);
        let report = find_suspicious(&trace.trace, &stats, 20);
        // every injected colluding seller is flagged
        let found: BTreeSet<NodeId> = report.sellers.iter().copied().collect();
        for seller in trace.colluding_sellers() {
            assert!(found.contains(&seller), "seed {seed}: missed seller {seller}");
        }
        // every flagged rater is an injected booster or rival
        let truth_raters: BTreeSet<NodeId> = trace
            .boosters
            .iter()
            .map(|&(b, _)| b)
            .chain(trace.rivals.iter().map(|&(r, _)| r))
            .collect();
        for rater in &report.raters {
            assert!(truth_raters.contains(rater), "seed {seed}: false-positive rater {rater}");
        }
        // calibration close to the paper's published statistics
        assert!(report.avg_a > 0.95, "seed {seed}: avg a {:.4}", report.avg_a);
        assert!(report.avg_b < 0.05, "seed {seed}: avg b {:.4}", report.avg_b);
    }
}

#[test]
fn c1_high_reputed_sellers_attract_more_ratings() {
    // C1 / Figure 1(a): rating volume increases with reputation tier.
    let trace = amazon::generate(&AmazonConfig::paper(0.02, 3));
    let stats = TraceStats::compute(&trace.trace);
    let ordered = stats.by_reputation_desc();
    let top_third: u64 = ordered.iter().take(32).map(|s| s.total).sum();
    let bottom_third: u64 = ordered.iter().rev().take(32).map(|s| s.total).sum();
    assert!(
        top_third > 2 * bottom_third,
        "high-reputed sellers should see far more transactions: {top_third} vs {bottom_third}"
    );
}

#[test]
fn c4_colluder_pair_frequency_far_exceeds_normal() {
    // C4: max pair frequency ~55/yr for colluders vs ≤15/yr normal.
    let trace = amazon::generate(&AmazonConfig::paper(0.02, 5));
    let stats = TraceStats::compute(&trace.trace);
    let booster_max = trace.boosters.iter().map(|&(b, s)| stats.pair_count(b, s)).max().unwrap();
    let truth_specials: BTreeSet<NodeId> = trace
        .boosters
        .iter()
        .map(|&(b, _)| b)
        .chain(trace.rivals.iter().map(|&(r, _)| r))
        .collect();
    let normal_max = stats
        .pairs()
        .filter(|(rater, _, _)| !truth_specials.contains(rater))
        .map(|(_, _, c)| c)
        .max()
        .unwrap();
    assert!(booster_max >= 40, "booster frequency should approach 55: {booster_max}");
    assert!(normal_max <= 15, "normal pair frequency should stay ≤15: {normal_max}");
}

#[test]
fn figure_1b_patterns_present_on_every_colluding_seller() {
    let trace = amazon::generate(&AmazonConfig::paper(0.02, 9));
    for seller in trace.colluding_sellers() {
        let rows = classify_all_raters(&trace.trace, seller, 15, 0.1);
        let boosters = rows.iter().filter(|r| r.2 == RaterPattern::Booster).count();
        assert!(boosters >= 4, "seller {seller}: only {boosters} boosters visible");
        assert!(
            rows.iter().any(|r| r.2 == RaterPattern::Rival),
            "seller {seller}: rival pattern missing"
        );
    }
}

#[test]
fn overstock_graph_is_pairwise_and_complete() {
    // C5 / Figure 1(d): every injected pair visible, zero closed structures.
    for seed in [2u64, 8, 2012] {
        let trace = overstock::generate(&OverstockConfig::paper(0.02, seed));
        let graph = InteractionGraph::from_trace(&trace.trace, 20);
        for &(a, b) in &trace.pairs {
            assert!(graph.has_edge(a, b), "seed {seed}: pair ({a},{b}) invisible");
        }
        let (_, _, closed) = graph.structure_census();
        assert_eq!(closed, 0, "seed {seed}: unexpected closed structure");
        assert_eq!(graph.triangle_count(), 0, "seed {seed}: triangles present");
    }
}

#[test]
fn future_work_group_collusion_is_visible_as_closed_structures() {
    // §VI future work: group collusion (≥3) shows up as closed structures
    // that the pair-wise analysis *can* see in the graph even though the
    // pair detector does not target it.
    let mut cfg = OverstockConfig::paper(0.02, 4);
    cfg.colluding_groups = vec![3, 4, 5];
    let trace = overstock::generate(&cfg);
    let graph = InteractionGraph::from_trace(&trace.trace, 20);
    let components = graph.components();
    let closed: Vec<_> = components.iter().filter(|c| c.kind == ComponentKind::Closed).collect();
    assert_eq!(closed.len(), 3);
    let mut sizes: Vec<usize> = closed.iter().map(|c| c.nodes.len()).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![3, 4, 5]);
    // triangles: C(3,3) + C(4,3) + C(5,3) = 1 + 4 + 10
    assert_eq!(graph.triangle_count(), 15);
}

#[test]
fn trace_detection_bridge_flags_booster_relationships() {
    // The trace crate's output feeds the core detector directly: build a
    // collusion-model marketplace (bad-service colluders) and verify the
    // extended-policy detector recovers the booster relationships.
    use collusion::core::policy::DetectionPolicy;
    let mut cfg = AmazonConfig::paper(0.02, 6);
    cfg.sellers = (0..10)
        .map(|k| collusion::trace::amazon::SellerSpec {
            organic_positive_rate: if k < 4 { 0.25 } else { 0.8 },
            annual_ratings: 800,
            colluding: k < 4,
        })
        .collect();
    cfg.boosters_per_colluder = 10;
    cfg.booster_ratings = (25, 55);
    let trace = amazon::generate(&cfg);
    let history = trace.trace.to_rating_log().history();
    let mut nodes: Vec<NodeId> = trace.seller_ids();
    nodes.extend(trace.boosters.iter().map(|&(b, _)| b));
    nodes.extend(trace.rivals.iter().map(|&(r, _)| r));
    let snap = ShardedSnapshot::build(&history, &nodes, 1);
    let report = OptimizedDetector::with_policy(
        Thresholds::new(0.0, 20, 0.8, 0.5),
        DetectionPolicy::EXTENDED,
    )
    .detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
    let truth: BTreeSet<(NodeId, NodeId)> =
        trace.boosters.iter().map(|&(b, s)| if b < s { (b, s) } else { (s, b) }).collect();
    let found: BTreeSet<(NodeId, NodeId)> = report.pair_ids().into_iter().collect();
    let recovered = found.intersection(&truth).count();
    assert!(
        recovered as f64 >= 0.7 * truth.len() as f64,
        "only {recovered}/{} booster relationships recovered",
        truth.len()
    );
    // flagged sellers are exactly the colluding ones
    let flagged_sellers: BTreeSet<NodeId> =
        report.colluders().into_iter().filter(|n| n.raw() < 10).collect();
    for s in &flagged_sellers {
        assert!(trace.sellers[s.raw() as usize].colluding, "honest seller {s} flagged");
    }
}
