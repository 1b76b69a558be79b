//! Scale benchmark: the sharded detection kernels, full-pass vs
//! epoch-incremental, across population sizes (`BENCH_scale.json`).
//!
//! ```text
//! cargo run --release -p collusion-bench --bin scale_json [-- --smoke] [--out FILE]
//! ```
//!
//! The full grid runs `n ∈ {200, 2 000, 20 000, 100 000}` over the seeded
//! [`ScaleConfig`] trace and reports, per point:
//!
//! * build / refresh / detect wall-clock medians for the
//!   [`ShardedSnapshot`],
//! * the Formula (2) band-pruned pass with its skip counters,
//! * the [`EpochEngine`]'s median epoch-close time against the full-pass
//!   "refresh + full detect" period, and the derived speedup,
//! * resident-set sizes from `/proc/self/status`.
//!
//! Every kernel variant must produce the identical suspect set — asserted
//! on every grid point and every epoch, not sampled.
//!
//! `--smoke` runs only `n = 2 000` and writes the *deterministic* fields
//! (counts, suspect sets sizes, prune/epoch counters — no timings, no RSS)
//! so CI can diff the output against a committed expectation
//! (`scripts/BENCH_scale_smoke_expected.json`).

use collusion_core::epoch::{EpochEngine, EpochMethod};
use collusion_core::input::SnapshotInput;
use collusion_core::optimized::{OptimizedDetector, PruneStats};
use collusion_core::policy::DetectionPolicy;
use collusion_core::prelude::Thresholds;
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::NodeId;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_trace::scale::ScaleConfig;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const EPOCHS: usize = 20;

fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn median_of(mut times: Vec<u128>) -> u128 {
    times.sort_unstable();
    if times.is_empty() {
        0
    } else {
        times[times.len() / 2]
    }
}

/// `(VmRSS, VmHWM)` in kilobytes from `/proc/self/status` (0 when absent).
fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn suspect_ids(pairs: &[collusion_core::model::SuspectPair]) -> Vec<(u64, u64)> {
    pairs.iter().map(|p| (p.low.raw(), p.high.raw())).collect()
}

struct GridPoint {
    n: u64,
    ratings: usize,
    planted: usize,
    shards: usize,
    suspects: usize,
    prune: PruneStats,
    engine_candidates: u64,
    engine_checked: u64,
    engine_pruned: u64,
    build_sharded_ns: u128,
    detect_sharded_ns: u128,
    detect_pruned_ns: u128,
    refresh_sharded_ns: u128,
    epoch_close_median_ns: u128,
    full_pass_median_ns: u128,
    rss_kb: u64,
    peak_rss_kb: u64,
}

fn run_point(n: u64, iters: usize, epochs: usize) -> GridPoint {
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);
    let det = OptimizedDetector::with_policy(thresholds, DetectionPolicy::STRICT);
    let cfg = ScaleConfig::at_scale(n, SEED);
    let ratings = cfg.generate();
    let nodes = cfg.node_ids();
    let shards = (n as usize / 1024).clamp(2, 64);
    eprintln!("n={n}: {} ratings, {shards} shard(s)…", ratings.len());

    let mut history = InteractionHistory::new();
    for &r in &ratings {
        history.record(r);
    }
    history.clear_dirty();

    // builds
    let build_sharded_ns = median_ns(iters, || {
        black_box(ShardedSnapshot::build(black_box(&history), black_box(&nodes), shards));
    });
    let shard = ShardedSnapshot::build(&history, &nodes, shards);

    // full-pass detects: plain and band-pruned — identical sets
    let input_shard = SnapshotInput::from_signed(&shard, &nodes);
    let detect_sharded_ns = median_ns(iters, || {
        black_box(det.detect_snapshot(black_box(&input_shard)));
    });
    let detect_pruned_ns = median_ns(iters, || {
        black_box(det.detect_pruned(black_box(&input_shard)));
    });
    let report_shard = det.detect_snapshot(&input_shard);
    let (report_pruned, prune) = det.detect_pruned(&input_shard);
    assert_eq!(
        suspect_ids(&report_shard.pairs),
        suspect_ids(&report_pruned.pairs),
        "band-pruned detect diverged at n={n}"
    );
    for (a, b) in cfg.planted_pairs() {
        assert!(
            report_shard.pairs.iter().any(|p| p.ids() == (a, b)),
            "planted pair ({a},{b}) missed at n={n}"
        );
    }
    let suspects = report_shard.pairs.len();

    // refresh with ~1 % dirty ratees (background-shaped extra ratings)
    let mut s = SEED ^ 0xf5e5;
    let honest = n - 2 * cfg.colluding_pairs;
    for k in 0..(n / 100).max(1) {
        let rater = 1 + splitmix(&mut s) % honest;
        let mut ratee = 1 + splitmix(&mut s) % honest;
        if ratee == rater {
            ratee = 1 + ratee % honest;
        }
        if ratee == rater {
            continue;
        }
        history.record(collusion_reputation::rating::Rating::positive(
            NodeId(rater),
            NodeId(ratee),
            collusion_reputation::id::SimTime(10_000_000 + k),
        ));
    }
    let dirty: Vec<NodeId> = history.dirty_ratees().collect();
    let refresh_sharded_ns = median_of(
        (0..iters)
            .map(|_| {
                let mut fresh = shard.clone();
                let start = Instant::now();
                black_box(fresh.refresh(black_box(&history), black_box(&dirty)));
                start.elapsed().as_nanos()
            })
            .collect(),
    );
    drop(shard);

    // epoch-incremental vs full pass (refresh + detect), over `epochs` closes
    let mut engine = EpochEngine::new(
        &nodes,
        shards,
        EpochMethod::Optimized,
        thresholds,
        DetectionPolicy::STRICT,
        true,
    );
    let mut full_hist = InteractionHistory::new();
    let mut full_snap = ShardedSnapshot::build(&full_hist, &nodes, shards);
    full_hist.clear_dirty();
    let chunk = ratings.len().div_ceil(epochs);
    let mut close_times = Vec::with_capacity(epochs);
    let mut full_times = Vec::with_capacity(epochs);
    for batch in ratings.chunks(chunk) {
        for &r in batch {
            engine.record(r);
            full_hist.record(r);
        }
        let start = Instant::now();
        let incremental = engine.close_epoch();
        close_times.push(start.elapsed().as_nanos());

        let dirty: Vec<NodeId> = full_hist.take_dirty().into_iter().collect();
        let start = Instant::now();
        full_snap.refresh(&full_hist, &dirty);
        let input = SnapshotInput::from_signed(&full_snap, &nodes);
        let full = det.detect_snapshot(&input);
        full_times.push(start.elapsed().as_nanos());
        assert_eq!(
            suspect_ids(&incremental.pairs),
            suspect_ids(&full.pairs),
            "epoch engine diverged from full pass at n={n}"
        );
    }
    let stats = engine.stats();
    let (rss, peak) = rss_kb();
    GridPoint {
        n,
        ratings: ratings.len(),
        planted: cfg.colluding_pairs as usize,
        shards,
        suspects,
        prune,
        engine_candidates: stats.candidates,
        engine_checked: stats.checked,
        engine_pruned: stats.pruned,
        build_sharded_ns,
        detect_sharded_ns,
        detect_pruned_ns,
        refresh_sharded_ns,
        epoch_close_median_ns: median_of(close_times),
        full_pass_median_ns: median_of(full_times),
        rss_kb: rss,
        peak_rss_kb: peak,
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn json_point(p: &GridPoint, smoke: bool) -> String {
    let mut j = String::from("    {\n");
    j.push_str(&format!("      \"n\": {},\n", p.n));
    j.push_str(&format!("      \"ratings\": {},\n", p.ratings));
    j.push_str(&format!("      \"planted_pairs\": {},\n", p.planted));
    j.push_str(&format!("      \"shards\": {},\n", p.shards));
    j.push_str(&format!("      \"suspects\": {},\n", p.suspects));
    j.push_str("      \"identical_suspect_sets\": true,\n");
    j.push_str(&format!(
        "      \"prune\": {{\"rows_pruned\": {}, \"pairs_pruned\": {}, \"pairs_examined\": {}, \"skip_rate\": {:.4}}},\n",
        p.prune.rows_pruned,
        p.prune.pairs_pruned,
        p.prune.pairs_examined,
        p.prune.skip_rate()
    ));
    j.push_str(&format!(
        "      \"epoch_engine\": {{\"candidates\": {}, \"checked\": {}, \"pruned\": {}}}",
        p.engine_candidates, p.engine_checked, p.engine_pruned
    ));
    if smoke {
        j.push('\n');
    } else {
        let speedup = p.full_pass_median_ns as f64 / p.epoch_close_median_ns.max(1) as f64;
        j.push_str(",\n");
        j.push_str(&format!("      \"build_sharded_ns\": {},\n", p.build_sharded_ns));
        j.push_str(&format!("      \"detect_sharded_ns\": {},\n", p.detect_sharded_ns));
        j.push_str(&format!("      \"detect_pruned_ns\": {},\n", p.detect_pruned_ns));
        j.push_str(&format!("      \"refresh_sharded_ns\": {},\n", p.refresh_sharded_ns));
        j.push_str(&format!("      \"epoch_close_median_ns\": {},\n", p.epoch_close_median_ns));
        j.push_str(&format!("      \"full_pass_median_ns\": {},\n", p.full_pass_median_ns));
        j.push_str(&format!("      \"incremental_speedup\": {speedup:.2},\n"));
        j.push_str(&format!("      \"rss_kb\": {},\n", p.rss_kb));
        j.push_str(&format!("      \"peak_rss_kb\": {}\n", p.peak_rss_kb));
    }
    j.push_str("    }");
    j
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            if smoke {
                "BENCH_scale_smoke.json".into()
            } else {
                "BENCH_scale.json".into()
            }
        });
    let (grid, iters): (&[u64], usize) =
        if smoke { (&[2_000], 1) } else { (&[200, 2_000, 20_000, 100_000], 3) };

    let points: Vec<GridPoint> = grid.iter().map(|&n| run_point(n, iters, EPOCHS)).collect();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"epochs\": {EPOCHS},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"grid\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&json_point(p, smoke));
        json.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write output file");
    eprintln!("wrote {out}");
    if !smoke {
        for p in &points {
            let speedup = p.full_pass_median_ns as f64 / p.epoch_close_median_ns.max(1) as f64;
            eprintln!(
                "n={}: sharded incremental close {:.2}ms vs full pass {:.2}ms ({speedup:.1}x), prune skip rate {:.1}%",
                p.n,
                p.epoch_close_median_ns as f64 / 1e6,
                p.full_pass_median_ns as f64 / 1e6,
                p.prune.skip_rate() * 100.0
            );
        }
    }
}
