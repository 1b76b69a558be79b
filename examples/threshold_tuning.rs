//! Threshold tuning — the paper's stated future work (§VI).
//!
//! ```text
//! cargo run --release --example threshold_tuning -- [scale] [seed]
//! ```
//!
//! Sweeps `(T_a, T_b, T_N)` over a marketplace trace with known ground
//! truth and prints the precision/recall frontier, demonstrating the
//! trade-off §IV.B describes: "If we want to reduce the false negatives …
//! we can decrease T_a and increase T_b. On the other hand, if we want to
//! reduce the number of false positives … we can increase T_a and decrease
//! T_b."
//!
//! The trace instantiates the §IV collusion model directly: colluding
//! sellers deliver genuinely poor service (organic positive rate 15%, so C2
//! holds) and are kept afloat by booster accounts; detection runs with the
//! extended one-directional policy since marketplace sellers never rate
//! their boosters back.

use collusion::core::policy::DetectionPolicy;
use collusion::core::sweep::{best_f1, sweep_thresholds};
use collusion::prelude::*;
use collusion::trace::amazon::{self, AmazonConfig, SellerSpec};

fn config(scale: f64, seed: u64) -> AmazonConfig {
    let mut cfg = AmazonConfig::paper(scale, seed);
    // Instantiate the collusion model: colluders offer low QoS (C2, organic
    // positive rate p = 0.25) and owe their standing to boosters. With a
    // boost fraction β of a colluder's volume, its signed reputation per
    // rating is β + (1−β)(2p−1); β = 0.5 keeps it comfortably positive
    // (+0.25/rating) at any scale, so the C1 filter always applies.
    cfg.sellers = Vec::new();
    let vol = |v: u64| ((v as f64 * scale) as u64).max(400);
    let colluder_annual = vol(40_000);
    for k in 0..12 {
        cfg.sellers.push(SellerSpec {
            organic_positive_rate: 0.25,
            annual_ratings: colluder_annual + 10 * (k % 5),
            colluding: true,
        });
    }
    for k in 0..60 {
        cfg.sellers.push(SellerSpec {
            organic_positive_rate: 0.75 + 0.002 * (k % 12) as f64,
            annual_ratings: vol(10_000 + 700 * (k % 9)),
            colluding: false,
        });
    }
    // β = 0.5: boosters cover half the volume at ~40 ratings each
    cfg.boosters_per_colluder = (colluder_annual / 80).max(4);
    cfg.booster_ratings = (25, 55);
    cfg
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().map(|s| s.parse().expect("scale")).unwrap_or(0.02);
    let seed: u64 = args.next().map(|s| s.parse().expect("seed")).unwrap_or(2012);

    let trace = amazon::generate(&config(scale, seed));
    let history = trace.trace.to_rating_log().history();
    let mut nodes: Vec<NodeId> = trace.seller_ids();
    nodes.extend(trace.boosters.iter().map(|&(b, _)| b));
    nodes.extend(trace.rivals.iter().map(|&(r, _)| r));
    let snapshot = ShardedSnapshot::build(&history, &nodes, 1);
    let input = SnapshotInput::from_signed(&snapshot, &nodes);
    let truth: Vec<(NodeId, NodeId)> = trace.boosters.clone();

    println!(
        "trace: {} ratings, {} sellers ({} colluding), {} booster relationships\n",
        trace.trace.len(),
        trace.sellers.len(),
        trace.colluding_sellers().len(),
        truth.len()
    );

    // T_R = 0: raters have no seller reputation of their own in a one-sided
    // marketplace, so the C1 filter is left to the seller side.
    let base = Thresholds::new(0.0, 20, 0.8, 0.2);
    let t_a_grid = [0.6, 0.7, 0.8, 0.9, 0.95];
    let t_b_grid = [0.05, 0.1, 0.2, 0.3, 0.5];
    let t_n_grid = [10, 20, 40, 80];
    let points = sweep_thresholds(
        &input,
        base,
        DetectionPolicy::EXTENDED,
        &t_a_grid,
        &t_b_grid,
        &t_n_grid,
        &truth,
    );

    println!("   T_a    T_b   T_N  precision  recall     F1");
    for p in points.iter().filter(|p| p.t_n == 20 && (p.t_b == 0.05 || p.t_b == 0.3)) {
        println!(
            "  {:>4.2}  {:>5.2}  {:>4}  {:>9.3}  {:>6.3}  {:>6.3}",
            p.t_a, p.t_b, p.t_n, p.precision, p.recall, p.f1
        );
    }
    let best = best_f1(&points).expect("non-empty sweep");
    println!(
        "\nbest F1 = {:.3} at T_a={}, T_b={}, T_N={} (precision {:.3}, recall {:.3})",
        best.f1, best.t_a, best.t_b, best.t_n, best.precision, best.recall
    );
    assert!(best.f1 > 0.9, "a well-tuned detector should recover the boosters");

    // Demonstrate the §IV.B knob explicitly.
    let strict = points.iter().find(|p| p.t_a == 0.95 && p.t_b == 0.05 && p.t_n == 20).unwrap();
    let relaxed = points.iter().find(|p| p.t_a == 0.6 && p.t_b == 0.5 && p.t_n == 20).unwrap();
    println!(
        "\nstrict  (T_a=0.95, T_b=0.05): precision {:.3}, recall {:.3}",
        strict.precision, strict.recall
    );
    println!(
        "relaxed (T_a=0.60, T_b=0.50): precision {:.3}, recall {:.3}",
        relaxed.precision, relaxed.recall
    );
    println!("→ relaxing T_a/T_b trades false positives for false negatives, as §IV.B states.");
}
