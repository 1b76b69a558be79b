//! Recovery benchmark: crash-recovery time and replay volume as a function
//! of checkpoint cadence (`BENCH_recovery.json`).
//!
//! ```text
//! cargo run --release -p collusion-bench --bin recovery_json [-- --smoke] [--out FILE]
//! ```
//!
//! The full grid runs `n ∈ {200, 2 000, 20 000}` over the seeded
//! [`ScaleConfig`] trace. Each point streams the workload through a
//! [`DurableEngine`] (20 epoch closes) under three checkpoint cadences —
//! none (WAL-only), every close, every 3rd close (leaving a replay tail) — then kills the process
//! image and measures [`DurableEngine::recover`]:
//!
//! * recovery wall-clock median,
//! * WAL records replayed vs skipped (covered by the checkpoint),
//! * WAL / checkpoint footprint on disk,
//! * resident-set sizes from `/proc/self/status`.
//!
//! Every recovery must reproduce the crashed engine's serialized state
//! byte for byte — asserted on every grid point and cadence, not sampled.
//!
//! `--smoke` runs only `n = 2 000` and writes the *deterministic* fields
//! (counts, replay volumes, identity flags — no timings, no RSS) so CI can
//! diff the output against a committed expectation
//! (`scripts/BENCH_recovery_smoke_expected.json`).

use collusion_core::durability::{scratch_dir, DurabilityConfig, DurableEngine, EngineSetup};
use collusion_core::epoch::EpochMethod;
use collusion_core::policy::DetectionPolicy;
use collusion_core::prelude::Thresholds;
use collusion_reputation::wal::SyncPolicy;
use collusion_trace::scale::ScaleConfig;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const EPOCHS: usize = 20;
const CADENCES: [u64; 3] = [0, 1, 3];

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

struct CadencePoint {
    checkpoint_interval: u64,
    checkpoints_written: u64,
    checkpoint_bytes: u64,
    replayed_records: u64,
    skipped_records: u64,
    recovered_identical: bool,
    recover_median_ns: u128,
}

struct GridPoint {
    n: u64,
    ratings: usize,
    shards: usize,
    suspects: usize,
    wal_records: u64,
    wal_bytes: u64,
    cadences: Vec<CadencePoint>,
    rss_kb: u64,
    peak_rss_kb: u64,
}

fn run_point(n: u64, iters: usize) -> GridPoint {
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);
    let cfg = ScaleConfig::at_scale(n, SEED);
    let ratings = cfg.generate();
    let nodes = cfg.node_ids();
    let shards = (n as usize / 1024).clamp(2, 64);
    let setup = EngineSetup {
        target_shards: shards,
        method: EpochMethod::Optimized,
        thresholds,
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    eprintln!("n={n}: {} ratings, {shards} shard(s)…", ratings.len());

    let chunk = ratings.len().div_ceil(EPOCHS);
    let mut suspects = 0usize;
    let mut wal_records = 0u64;
    let mut wal_bytes = 0u64;
    let mut cadences = Vec::with_capacity(CADENCES.len());
    for &interval in &CADENCES {
        let dcfg = DurabilityConfig {
            sync_policy: SyncPolicy::EveryK(64),
            checkpoint_interval: interval,
            keep_checkpoints: 2,
            pair_watermark: None,
        };
        let dir = scratch_dir(&format!("recovery-bench-{n}-{interval}"));
        let mut engine =
            DurableEngine::create(&dir, &nodes, setup, dcfg).expect("create durable engine");
        for batch in ratings.chunks(chunk) {
            for &r in batch {
                engine.record(r).expect("durable record");
            }
            engine.close_epoch().expect("durable close");
        }
        engine.sync().expect("final fsync");
        engine.wait_checkpoint().expect("last checkpoint on disk");
        suspects = engine.report().pairs.len();
        let expected_state = engine.engine().persist_bytes(0);
        wal_records = engine.wal().next_seq();
        wal_bytes = engine.wal().len_bytes();
        let checkpoints_written = engine.stats().checkpoints;
        let checkpoint_bytes: u64 = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        drop(engine); // process dies; only the directory survives

        let mut first: Option<(u64, u64, bool)> = None;
        let mut times = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            let (recovered, report) =
                DurableEngine::recover(&dir, &nodes, setup, dcfg).expect("recover");
            times.push(start.elapsed().as_nanos());
            let identical = recovered.engine().persist_bytes(0) == expected_state;
            assert!(identical, "n={n} interval={interval}: recovered state diverged");
            black_box(&recovered);
            first.get_or_insert((report.replayed_records, report.skipped_records, identical));
        }
        let (replayed_records, skipped_records, recovered_identical) =
            first.expect("at least one recovery iteration");
        cadences.push(CadencePoint {
            checkpoint_interval: interval,
            checkpoints_written,
            checkpoint_bytes,
            replayed_records,
            skipped_records,
            recovered_identical,
            recover_median_ns: median_of(times),
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    let (rss, peak) = rss_kb();
    GridPoint {
        n,
        ratings: ratings.len(),
        shards,
        suspects,
        wal_records,
        wal_bytes,
        cadences,
        rss_kb: rss,
        peak_rss_kb: peak,
    }
}

fn json_point(p: &GridPoint, smoke: bool) -> String {
    let mut j = String::from("    {\n");
    j.push_str(&format!("      \"n\": {},\n", p.n));
    j.push_str(&format!("      \"ratings\": {},\n", p.ratings));
    j.push_str(&format!("      \"shards\": {},\n", p.shards));
    j.push_str(&format!("      \"suspects\": {},\n", p.suspects));
    j.push_str(&format!("      \"epochs\": {EPOCHS},\n"));
    j.push_str(&format!("      \"wal_records\": {},\n", p.wal_records));
    if !smoke {
        j.push_str(&format!("      \"wal_bytes\": {},\n", p.wal_bytes));
    }
    j.push_str("      \"cadences\": [\n");
    for (i, c) in p.cadences.iter().enumerate() {
        j.push_str("        {");
        j.push_str(&format!("\"checkpoint_interval\": {}, ", c.checkpoint_interval));
        j.push_str(&format!("\"checkpoints_written\": {}, ", c.checkpoints_written));
        j.push_str(&format!("\"replayed_records\": {}, ", c.replayed_records));
        j.push_str(&format!("\"skipped_records\": {}, ", c.skipped_records));
        j.push_str(&format!("\"recovered_identical\": {}", c.recovered_identical));
        if !smoke {
            j.push_str(&format!(", \"checkpoint_bytes\": {}", c.checkpoint_bytes));
            j.push_str(&format!(", \"recover_median_ns\": {}", c.recover_median_ns));
        }
        j.push('}');
        j.push_str(if i + 1 == p.cadences.len() { "\n" } else { ",\n" });
    }
    j.push_str("      ]");
    if !smoke {
        j.push_str(",\n");
        j.push_str(&format!("      \"rss_kb\": {},\n", p.rss_kb));
        j.push_str(&format!("      \"peak_rss_kb\": {}\n", p.peak_rss_kb));
    } else {
        j.push('\n');
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
                "BENCH_recovery_smoke.json".into()
            } else {
                "BENCH_recovery.json".into()
            }
        });
    let (grid, iters): (&[u64], usize) =
        if smoke { (&[2_000], 1) } else { (&[200, 2_000, 20_000], 3) };

    let points: Vec<GridPoint> = grid.iter().map(|&n| run_point(n, iters)).collect();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
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
            for c in &p.cadences {
                eprintln!(
                    "n={}: checkpoint every {} close(s) → recover {:.2}ms, {} replayed / {} skipped",
                    p.n,
                    c.checkpoint_interval,
                    c.recover_median_ns as f64 / 1e6,
                    c.replayed_records,
                    c.skipped_records
                );
            }
        }
    }
}
