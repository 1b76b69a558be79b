//! Decentralized detection over a Chord DHT (§IV's distributed setting,
//! Figure 2).
//!
//! ```text
//! cargo run --release --example decentralized_dht -- [managers] [seed]
//! ```
//!
//! Builds a rating stream with three colluding pairs, submits it to a
//! partitioned system with an increasing number of reputation managers
//! (power nodes) on a Chord ring, and runs detection, showing that the
//! detected pairs never change while the cross-manager confirmation
//! messages and DHT routing hops grow.

use collusion::core::decentralized::Method;
use collusion::core::policy::DetectionPolicy;
use collusion::prelude::*;
use std::collections::HashMap;

fn build_ratings() -> (Vec<Rating>, Vec<NodeId>) {
    let mut ratings = Vec::new();
    let mut t = 0u64;
    let mut tick = || {
        t += 1;
        SimTime(t)
    };
    for (a, b) in [(1u64, 2u64), (20, 21), (40, 41)] {
        for _ in 0..30 {
            ratings.push(Rating::positive(NodeId(a), NodeId(b), tick()));
            ratings.push(Rating::positive(NodeId(b), NodeId(a), tick()));
        }
        for k in 0..6 {
            ratings.push(Rating::negative(NodeId(60 + k), NodeId(a), tick()));
            ratings.push(Rating::negative(NodeId(60 + k), NodeId(b), tick()));
        }
    }
    // honest cross-traffic among the community
    for k in 0..10u64 {
        for l in 0..10u64 {
            if k != l {
                ratings.push(Rating::positive(NodeId(60 + k), NodeId(60 + l), tick()));
            }
        }
    }
    (ratings, (1..=70).map(NodeId).collect())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let max_managers: u64 = args.next().map(|s| s.parse().expect("managers")).unwrap_or(32);
    let _seed: u64 = args.next().map(|s| s.parse().expect("seed")).unwrap_or(2012);

    let (ratings, nodes) = build_ratings();
    let mut history = InteractionHistory::new();
    for &r in &ratings {
        history.record(r);
    }
    let snapshot = ShardedSnapshot::build(&history, &nodes, 1);
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);

    // Centralized reference.
    let central = OptimizedDetector::new(thresholds)
        .detect_snapshot(&SnapshotInput::from_signed(&snapshot, &nodes));
    println!("centralized detection: {:?}\n", central.pair_ids());

    println!("managers  pairs  messages  DHT hops  max load");
    let mut m = 1u64;
    while m <= max_managers {
        let managers: Vec<NodeId> = (1000..1000 + m).map(NodeId).collect();
        let mut sys = DecentralizedSystem::new(
            &managers,
            thresholds,
            Method::Optimized,
            DetectionPolicy::STRICT,
        );
        for &node in &nodes {
            sys.register(node);
        }
        for &r in &ratings {
            sys.submit(r);
        }
        // the detection round's share of the network cost
        let before = sys.stats();
        let report = sys.detect();
        let after = sys.stats();
        assert_eq!(
            report.pair_ids(),
            central.pair_ids(),
            "decentralized result must match centralized"
        );
        let mut load: HashMap<NodeId, usize> = HashMap::new();
        for &node in &nodes {
            *load.entry(sys.manager_of(node).expect("registered")).or_default() += 1;
        }
        let max_load = load.values().copied().max().unwrap_or(0);
        println!(
            "{m:>8}  {:>5}  {:>8}  {:>8}  {max_load:>8}",
            report.pairs.len(),
            after.detection_messages - before.detection_messages,
            after.hops - before.hops
        );
        m *= 2;
    }

    // Show the Figure 2 example ring for reference.
    let mut ring = ChordRing::with_bits(4);
    for key in [0u64, 6, 10, 15] {
        ring.join_with_key(Key::new(key, 4));
    }
    println!(
        "\nFigure 2's 4-bit example ring: members {:?}",
        ring.members().map(|k| k.raw()).collect::<Vec<_>>()
    );
    println!("owner of key 10 (n10's trust host): {}", ring.owner(Key::new(10, 4)));
    let router = Router::new(&ring);
    let res = router.lookup(Key::new(6, 4), Key::new(10, 4));
    println!(
        "Lookup(10) from n6 resolves via {:?} in {} hop(s)",
        res.path.iter().map(|k| k.raw()).collect::<Vec<_>>(),
        res.hops
    );
}
