//! Group collusion (Sybil-style collectives) — the paper's future work
//! (§VI) made concrete.
//!
//! ```text
//! cargo run --release --example group_collusion -- [group_size] [seed]
//! ```
//!
//! A collective of `k ≥ 3` nodes spreads its mutual boosting across all
//! `k·(k−1)` ordered pairs, keeping each *pair's* rating frequency low.
//! This demo shows:
//!
//! 1. the §IV pair detector stays blind while per-pair counts sit below
//!    `T_N`,
//! 2. the group detector ([`collusion::core::group`]) finds the collective
//!    from the mutual-boost graph and the lifted C2 community test,
//! 3. inside the full P2P simulation, the `GroupAware` detector zeroes the
//!    entire collective.

use collusion::core::group::{GroupDetector, GroupDetectorConfig};
use collusion::core::policy::DetectionPolicy;
use collusion::prelude::*;
use collusion::sim::config::{DetectorKind, SimConfig};
use collusion::sim::engine::Simulation;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: u64 = args.next().map(|s| s.parse().expect("group size")).unwrap_or(5);
    let seed: u64 = args.next().map(|s| s.parse().expect("seed")).unwrap_or(2012);
    assert!(k >= 3, "a group needs at least 3 members");

    // --- static history demo ------------------------------------------------
    let mut h = InteractionHistory::new();
    let mut t = 0u64;
    let mut tick = || {
        t += 1;
        SimTime(t)
    };
    // the collective: 12 mutual ratings per ordered pair (below T_N = 20)
    for i in 1..=k {
        for j in 1..=k {
            if i != j {
                for _ in 0..12 {
                    h.record(Rating::positive(NodeId(i), NodeId(j), tick()));
                }
            }
        }
    }
    // community experience with collective members is poor
    for m in 1..=k {
        for r in 0..6u64 {
            h.record(Rating::negative(NodeId(100 + r), NodeId(m), tick()));
        }
    }
    // honest background
    for r in 0..6u64 {
        for s in 0..6u64 {
            if r != s {
                h.record(Rating::positive(NodeId(100 + r), NodeId(100 + s), tick()));
            }
        }
    }
    let mut nodes: Vec<NodeId> = (1..=k).map(NodeId).collect();
    nodes.extend((100..106).map(NodeId));
    let snap = ShardedSnapshot::build(&h, &nodes, 1);
    let input = SnapshotInput::from_signed(&snap, &nodes);
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);

    let pair_report = OptimizedDetector::with_policy(thresholds, DetectionPolicy::EXTENDED)
        .detect_snapshot(&input);
    println!(
        "pair detector (T_N = 20, per-pair count 12): {} pairs found — structurally blind",
        pair_report.pairs.len()
    );

    let group_report =
        GroupDetector::new(GroupDetectorConfig { thresholds, t_g: 20 }).detect(&input);
    for g in &group_report.groups {
        println!(
            "group detector: collective {:?} — {} internal edges, {} internal ratings, \
             community fraction {:.1}%{}",
            g.members.iter().map(|m| m.raw()).collect::<Vec<_>>(),
            g.internal_edges,
            g.internal_ratings,
            g.community_fraction * 100.0,
            if g.is_closed() { " (closed structure)" } else { "" }
        );
    }
    assert_eq!(group_report.groups.len(), 1);
    assert_eq!(group_report.groups[0].members.len(), k as usize);

    // --- full simulation demo -----------------------------------------------
    println!("\nfull P2P simulation with a {k}-member collective (GroupAware detector):");
    let mut cfg = SimConfig::paper_baseline(seed);
    cfg.colluders = Vec::new();
    cfg.colluding_groups = vec![(4..4 + k).map(NodeId).collect()];
    cfg.colluder_good_prob = 0.2;
    cfg.detector = DetectorKind::GroupAware;
    cfg.sim_cycles = 10;
    let m = Simulation::new(cfg).run();
    let detected: Vec<u64> = m.detected.iter().map(|n| n.raw()).collect();
    println!("detected collective members: {detected:?}");
    println!("requests served by the collective: {:.2}%", m.fraction_to_colluders() * 100.0);
    for id in 4..4 + k {
        assert!(m.detected.contains(&NodeId(id)), "member n{id} escaped");
    }
    println!("entire collective neutralized ✓");
}
