//! Fault-tolerance acceptance tests: decentralized detection under message
//! loss, manager churn, and replication, on the paper's standard 200-node
//! evaluation scenario.
//!
//! The contract under test (ISSUE acceptance criteria):
//!
//! * at 10% message drop **plus** per-period manager churn, bounded retries
//!   and successor replication keep the *confirmed* suspect-pair set equal
//!   to the fault-free set;
//! * at 30% drop the system degrades gracefully: any pair it cannot
//!   confirm is *reported* as unconfirmed, never silently dropped;
//! * the whole fault pipeline is deterministic in its seeds.
//!
//! A crashed in-process manager's orphans come back from replicas only;
//! recovery from disk is `DurableEngine`'s, tested by the crash matrix,
//! `tests/durability_props.rs` and the TCP cluster's kill/rejoin.

use collusion::core::fault::FaultPlan;
use collusion::sim::robustness::{run_robustness, RobustnessConfig};

/// The standard 200-node scenario, trimmed to 4 workload cycles so the full
/// drop × churn matrix stays fast; colluding pairs still exchange
/// 10 × 20 × 4 = 800 mutual ratings, far above `T_N = 100`.
fn standard(seed: u64) -> RobustnessConfig {
    let mut cfg = RobustnessConfig::standard(seed);
    cfg.sim.sim_cycles = 4;
    cfg
}

#[test]
fn drop_and_churn_with_replication_preserve_the_confirmed_set() {
    // 10% drop + one crash and one join per detection period, replication 3
    let cfg = standard(1).with_plan(FaultPlan::with_drop(0.1, 21).with_churn(1, 1, 77));
    let out = run_robustness(&cfg);
    assert_eq!(out.baseline_pairs.len(), 4, "baseline must find the 4 ground-truth pairs");
    assert!(out.crashed >= 4, "churn must actually crash managers (got {})", out.crashed);
    assert_eq!(out.lost_nodes, 0, "replication 3 must cover every crash");
    assert!(out.recovered_nodes > 0, "crashes must exercise the replica rebuild");
    assert_eq!(
        out.confirmed_pairs, out.baseline_pairs,
        "confirmed set must equal the fault-free set (unconfirmed: {:?})",
        out.unconfirmed_pairs
    );
    assert_eq!(out.recall, 1.0);
}

#[test]
fn heavy_drop_degrades_to_unconfirmed_not_dropped() {
    // 30% drop with no retry budget: some confirmations must fail — and
    // every baseline pair must still be accounted for somewhere
    // P(an exchange survives) = 0.7² = 0.49; P(all 4 survive) ≈ 0.058 per
    // seed, so 8 seeds miss with probability ≈ 1e-10
    let mut saw_unconfirmed = false;
    for seed in 0..8u64 {
        let cfg = standard(2).with_plan(FaultPlan::with_drop(0.3, seed).retries(0));
        let out = run_robustness(&cfg);
        for p in &out.confirmed_pairs {
            assert!(out.baseline_pairs.contains(p), "seed {seed}: spurious confirmation {p:?}");
        }
        assert_eq!(
            out.reported_fraction, 1.0,
            "seed {seed}: a baseline pair vanished instead of degrading"
        );
        saw_unconfirmed |= !out.unconfirmed_pairs.is_empty();
    }
    assert!(saw_unconfirmed, "30% drop without retries must strand at least one pair");
}

#[test]
fn fault_matrix_reports_every_baseline_pair() {
    // drop ∈ {0, 0.1, 0.3} with default tolerance: confirmed ⊆ baseline and
    // confirmed ∪ unconfirmed ⊇ baseline at every point
    for drop in [0.0, 0.1, 0.3] {
        let plan = if drop > 0.0 { FaultPlan::with_drop(drop, 5) } else { FaultPlan::none() };
        let out = run_robustness(&standard(3).with_plan(plan));
        for p in &out.confirmed_pairs {
            assert!(out.baseline_pairs.contains(p), "drop {drop}: spurious {p:?}");
        }
        assert_eq!(out.reported_fraction, 1.0, "drop {drop}: pair lost");
        if drop == 0.0 {
            assert_eq!(out.message_overhead, 1.0, "none plan must cost exactly baseline");
            assert!(out.unconfirmed_pairs.is_empty());
        } else {
            assert!(out.message_overhead >= 1.0);
        }
    }
}

#[test]
fn same_fault_seed_same_partition_and_counts() {
    let cfg = standard(4).with_plan(FaultPlan::with_drop(0.3, 11).retries(1).with_churn(1, 1, 9));
    let a = run_robustness(&cfg);
    let b = run_robustness(&cfg);
    assert_eq!(a.confirmed_pairs, b.confirmed_pairs);
    assert_eq!(a.unconfirmed_pairs, b.unconfirmed_pairs);
    assert_eq!(a.fault, b.fault, "message counts must replay exactly");
    assert_eq!(a.detection_messages, b.detection_messages);
    assert_eq!((a.crashed, a.joined), (b.crashed, b.joined));
    assert_eq!((a.recovered_nodes, a.lost_nodes), (b.recovered_nodes, b.lost_nodes));
}
