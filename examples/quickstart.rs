//! Quickstart: detect a colluding pair in a hand-built rating history.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the paper's collusion model by hand — two nodes frequently rating
//! each other +1 (C3/C4) while the community rates them −1 (C2) — and runs
//! both detectors, printing the evidence each one gathered.

use collusion::prelude::*;

fn main() {
    // 1. Record a period of ratings.
    let mut history = InteractionHistory::new();
    let colluder_a = NodeId(1);
    let colluder_b = NodeId(2);
    let honest = NodeId(3);

    let mut t = 0u64;
    let mut tick = || {
        t += 1;
        SimTime(t)
    };

    // The colluders boost each other 30 times (paper trace: up to 55/year
    // vs ≤15/year for normal pairs).
    for _ in 0..30 {
        history.record(Rating::positive(colluder_a, colluder_b, tick()));
        history.record(Rating::positive(colluder_b, colluder_a, tick()));
    }
    // The community's actual experience with them is poor…
    for k in 0..8u64 {
        history.record(Rating::negative(NodeId(10 + k), colluder_a, tick()));
        history.record(Rating::negative(NodeId(10 + k), colluder_b, tick()));
    }
    // …while the honest node earns genuine praise.
    for k in 0..10u64 {
        history.record(Rating::positive(NodeId(10 + k % 8), honest, tick()));
    }

    // 2. Build the manager's view: nodes + reputations (signed sums here).
    let nodes: Vec<NodeId> = (1..=3).chain(10..18).map(NodeId).collect();
    let input = DetectionInput::from_signed_history(&history, &nodes);
    for &node in &[colluder_a, colluder_b, honest] {
        println!(
            "{node}: reputation {:+}, received {} ratings",
            input.signed_reputation(node),
            history.ratings_for(node)
        );
    }

    // 3. Run both detectors with trace-calibrated thresholds.
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);
    let basic = BasicDetector::new(thresholds).detect(&input);
    let snapshot = ShardedSnapshot::build(&history, &nodes, 1);
    let optimized = OptimizedDetector::new(thresholds)
        .detect_snapshot(&SnapshotInput::from_signed(&snapshot, &nodes));

    println!("\nBasic   (O(m·n²)) found: {:?}", basic.pair_ids());
    println!("Optimized (O(m·n)) found: {:?}", optimized.pair_ids());
    assert_eq!(basic.pair_ids(), optimized.pair_ids());

    // 4. Inspect the evidence.
    for pair in &basic.pairs {
        let fwd = pair.low_boosts_high.expect("mutual detection");
        println!(
            "\npair {pair}: {} ratings from {} for {}, a = {:.1}%, b = {:.1}%",
            fwd.pair_ratings,
            pair.low,
            pair.high,
            fwd.fraction_a.unwrap() * 100.0,
            fwd.fraction_b.unwrap() * 100.0,
        );
    }
    println!(
        "\ncost: basic scanned {} row elements, optimized ran {} O(1) band checks",
        basic.cost.scanned_elements, optimized.cost.band_checks
    );

    // 5. Mitigate: zero the colluders' reputations.
    let mut reputations: std::collections::HashMap<NodeId, f64> =
        nodes.iter().map(|&n| (n, input.signed_reputation(n) as f64)).collect();
    let zeroed = apply_mitigation(&optimized, &mut reputations);
    println!("zeroed reputations of {zeroed:?}");
    assert!(!zeroed.contains(&honest));
}
