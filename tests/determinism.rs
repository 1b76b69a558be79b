//! Repository-wide determinism: every figure-generating pipeline must be
//! bit-stable for a fixed seed, across repeated invocations within one
//! process (cross-process stability is guaranteed by the sorted float
//! accumulation in the engines — see `reputation::eigentrust`).

use collusion::prelude::*;
use collusion::sim::config::DetectorKind;
use collusion::sim::scenario;
use collusion::trace::amazon::{self, AmazonConfig};
use collusion::trace::overstock::{self, OverstockConfig};
use collusion::trace::stats::TraceStats;
use collusion::trace::suspicious::find_suspicious;

#[test]
fn trace_pipeline_is_bit_stable() {
    let a = amazon::generate(&AmazonConfig::paper(0.01, 99));
    let b = amazon::generate(&AmazonConfig::paper(0.01, 99));
    assert_eq!(a.trace.records, b.trace.records);
    assert_eq!(a.boosters, b.boosters);
    let sa = TraceStats::compute(&a.trace);
    let sb = TraceStats::compute(&b.trace);
    let ra = find_suspicious(&a.trace, &sa, 20);
    let rb = find_suspicious(&b.trace, &sb, 20);
    assert_eq!(ra.sellers, rb.sellers);
    assert_eq!(ra.raters, rb.raters);
    assert_eq!(ra.avg_a.to_bits(), rb.avg_a.to_bits());
    let oa = overstock::generate(&OverstockConfig::paper(0.01, 99));
    let ob = overstock::generate(&OverstockConfig::paper(0.01, 99));
    assert_eq!(oa.trace.records, ob.trace.records);
}

#[test]
fn simulation_scenarios_are_bit_stable() {
    for cfg in [scenario::fig5(7), scenario::fig10(7), scenario::fig11(7)] {
        let mut small = cfg.clone();
        small.n_nodes = 60;
        small.sim_cycles = 4;
        let a = run_averaged(&small, 2);
        let b = run_averaged(&small, 2);
        assert_eq!(
            a.reputation.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.reputation.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.detection_counts, b.detection_counts);
        assert_eq!(a.fraction_to_colluders.to_bits(), b.fraction_to_colluders.to_bits());
    }
}

#[test]
fn sweep_series_are_bit_stable() {
    let run = || {
        let cfg = scenario::sweep_config(3, 18, DetectorKind::Optimized);
        let mut small = cfg;
        small.n_nodes = 60;
        small.sim_cycles = 3;
        run_averaged(&small, 2).fraction_to_colluders
    };
    assert_eq!(run().to_bits(), run().to_bits());
}

#[test]
fn different_seeds_actually_differ() {
    // a broken RNG wiring (ignored seed) would silently undermine every
    // averaged experiment; assert seeds matter end to end
    let mut a = scenario::fig6(1);
    let mut b = scenario::fig6(2);
    a.n_nodes = 60;
    a.sim_cycles = 3;
    b.n_nodes = 60;
    b.sim_cycles = 3;
    let ma = run_averaged(&a, 1);
    let mb = run_averaged(&b, 1);
    assert_ne!(
        ma.reputation.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        mb.reputation.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    let ta = amazon::generate(&AmazonConfig::paper(0.01, 1));
    let tb = amazon::generate(&AmazonConfig::paper(0.01, 2));
    assert_ne!(ta.trace.records, tb.trace.records);
}

#[test]
fn detection_reports_stable_across_node_list_permutations() {
    // the manager's node enumeration order must not affect verdicts
    let mut h = InteractionHistory::new();
    let mut t = 0u64;
    for _ in 0..30 {
        h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
        h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
        t += 1;
    }
    for k in 0..5u64 {
        h.record(Rating::negative(NodeId(10 + k), NodeId(1), SimTime(t + k)));
        h.record(Rating::negative(NodeId(10 + k), NodeId(2), SimTime(t + k)));
    }
    let forward: Vec<NodeId> = (1..=2).chain(10..15).map(NodeId).collect();
    let mut reversed = forward.clone();
    reversed.reverse();
    let th = Thresholds::new(1.0, 20, 0.8, 0.2);
    let snap = ShardedSnapshot::build(&h, &forward, 1);
    let a =
        OptimizedDetector::new(th).detect_snapshot(&SnapshotInput::from_signed(&snap, &forward));
    let b =
        OptimizedDetector::new(th).detect_snapshot(&SnapshotInput::from_signed(&snap, &reversed));
    assert_eq!(a.pair_ids(), b.pair_ids());
    assert_eq!(a.cost, b.cost);
}
