//! Ingest benchmark: pipelined concurrent intake vs the serial durable
//! engine (`BENCH_ingest.json`).
//!
//! ```text
//! cargo run --release -p collusion-bench --bin ingest_json [-- --smoke] [--out FILE]
//! ```
//!
//! The full grid streams the seeded [`ScaleConfig`] trace at
//! `n ∈ {20 000, 100 000}` through:
//!
//! * the serial **baseline** — a [`DurableEngine`] folding every rating on
//!   the caller's thread: buffered WAL appends under
//!   [`SyncPolicy::ASYNC_DEFAULT`] (the fsync runs on the group-commit
//!   thread), detection inline at every close;
//! * the staged [`PipelinedEngine`] at **1..8 producer threads** — sharded
//!   lock-striped intake, batched WAL appends on a dedicated stage thread,
//!   group-commit fsync at epoch closes, merge and detect stages overlapped
//!   with intake.
//!
//! Reported per point: sustained ratings/sec over the whole stream, the
//! median epoch-close latency (close → report), WAL record/sync counts,
//! per-stage busy fractions (how occupied the WAL, merge, and detect
//! stage threads were — where the pipeline's headroom is), and — via a
//! counting global allocator — heap allocations of the first vs a
//! steady-state serial close, confirming the reused detection-scratch
//! buffers stop allocating once warm.
//!
//! Every measured point asserts bit-identity, not sampled: each pipelined
//! close's suspect set must equal the serial engine's for the same epoch,
//! and the finished pipelined engine's full state (snapshot cells, high
//! flags, verdict map, stats) must equal the serial engine's.
//!
//! `--smoke` runs only `n = 2 000` with producer counts {1, 4}. The
//! deterministic fields (record counts, suspect sets, identity flags) are
//! byte-diffed against `scripts/BENCH_ingest_smoke_expected.json` by CI;
//! the serial `ratings_per_sec` and `allocs_steady_close` fields are
//! machine-dependent, so `scripts/check.sh` filters them from the diff
//! and gates them separately (a generous perf ratio against the recorded
//! reference, and a hard allocation budget for a steady-state close).

use collusion_core::durability::{scratch_dir, DurabilityConfig, DurableEngine, EngineSetup};
use collusion_core::epoch::EpochMethod;
use collusion_core::pipeline::{IngestHandle, PipelineConfig, PipelinedEngine};
use collusion_core::policy::DetectionPolicy;
use collusion_core::prelude::Thresholds;
use collusion_core::report::DetectionReport;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::wal::SyncPolicy;
use collusion_trace::scale::ScaleConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator: every heap allocation bumps a counter, so the bench
/// can report how many allocations an epoch close costs (the detection
/// scratch buffers are reused — steady-state closes should allocate far
/// less than the first).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const SEED: u64 = 42;
const EPOCHS: usize = 10;

fn median_of(mut times: Vec<u128>) -> u128 {
    times.sort_unstable();
    if times.is_empty() {
        0
    } else {
        times[times.len() / 2]
    }
}

fn pair_ids(report: &DetectionReport) -> Vec<(u64, u64)> {
    report.pairs.iter().map(|p| (p.low.raw(), p.high.raw())).collect()
}

/// Drain outstanding writeback before the next measured window opens:
/// the scratch WALs live on a disk-backed tmpdir, and a prior run's dirty
/// pages being flushed mid-run is the dominant cross-run noise source.
fn settle() {
    let _ = std::process::Command::new("sync").status();
}

struct SerialRun {
    engine: collusion_core::epoch::EpochEngine,
    epoch_reports: Vec<Vec<(u64, u64)>>,
    wal_records: u64,
    elapsed_ns: u128,
    close_median_ns: u128,
    /// Median per-close sub-stage spend (advance / enumerate / re-check),
    /// from [`EpochEngine::last_close_timings`]: where the close budget
    /// goes, so the next bottleneck is visible straight from the JSON.
    advance_median_ns: u128,
    enumerate_median_ns: u128,
    recheck_median_ns: u128,
    allocs_first_close: u64,
    allocs_steady_close: u64,
}

/// The baseline: a serial durable engine folding the stream on one thread
/// (buffered WAL encode, asynchronous group-commit fsync on a background
/// committer thread, detection inline at closes).
fn run_serial(nodes: &[NodeId], setup: EngineSetup, chunks: &[&[Rating]]) -> SerialRun {
    let dcfg = DurabilityConfig {
        sync_policy: SyncPolicy::ASYNC_DEFAULT,
        checkpoint_interval: 0, // WAL-only: measure ingest, not snapshots
        keep_checkpoints: 2,
        pair_watermark: None,
    };
    let dir = scratch_dir("ingest-bench-serial");
    let mut engine = DurableEngine::create(&dir, nodes, setup, dcfg).expect("create baseline");
    let mut epoch_reports = Vec::with_capacity(chunks.len());
    let mut closes = Vec::with_capacity(chunks.len());
    let mut advances = Vec::with_capacity(chunks.len());
    let mut enumerates = Vec::with_capacity(chunks.len());
    let mut rechecks = Vec::with_capacity(chunks.len());
    let mut allocs_first_close = 0u64;
    let mut allocs_steady_close = 0u64;
    let start = Instant::now();
    for (e, chunk) in chunks.iter().enumerate() {
        for &r in *chunk {
            engine.record(r).expect("baseline record");
        }
        let a0 = allocs_now();
        let t0 = Instant::now();
        let report = engine.close_epoch().expect("baseline close");
        closes.push(t0.elapsed().as_nanos());
        let timings = engine.engine().last_close_timings();
        advances.push(timings.advance_ns as u128);
        enumerates.push(timings.enumerate_ns as u128);
        rechecks.push(timings.recheck_ns as u128);
        let cost = allocs_now() - a0;
        if e == 0 {
            allocs_first_close = cost;
        }
        allocs_steady_close = cost; // last close = steady state
        epoch_reports.push(pair_ids(&report));
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let wal_records = engine.wal().next_seq();
    let engine = engine.into_engine();
    std::fs::remove_dir_all(&dir).ok();
    settle();
    SerialRun {
        engine,
        epoch_reports,
        wal_records,
        elapsed_ns,
        close_median_ns: median_of(closes),
        advance_median_ns: median_of(advances),
        enumerate_median_ns: median_of(enumerates),
        recheck_median_ns: median_of(rechecks),
        allocs_first_close,
        allocs_steady_close,
    }
}

/// One `close_threads` sweep point: the same serial stream re-run with an
/// explicit close fork-join width, checked bit-identical against the
/// baseline (every epoch's suspect set and the final engine state).
struct SweepRun {
    threads: usize,
    close_median_ns: u128,
    identical: bool,
}

fn run_close_sweep(
    nodes: &[NodeId],
    setup: EngineSetup,
    chunks: &[&[Rating]],
    baseline: &SerialRun,
    widths: &[usize],
) -> Vec<SweepRun> {
    widths
        .iter()
        .map(|&threads| {
            let run = run_serial(nodes, EngineSetup { close_threads: threads, ..setup }, chunks);
            let identical = run.epoch_reports == baseline.epoch_reports
                && run.engine.state_eq(&baseline.engine);
            eprintln!(
                "  close_threads={threads}: close_median {} ns, identical={identical}",
                run.close_median_ns
            );
            SweepRun { threads, close_median_ns: run.close_median_ns, identical }
        })
        .collect()
}

struct PipelinedRun {
    producers: usize,
    elapsed_ns: u128,
    close_median_ns: u128,
    wal_records: u64,
    wal_syncs: u64,
    batches: u64,
    suspects: usize,
    reports_identical: bool,
    state_identical: bool,
    /// Busy fractions of the three stage threads over the run (message
    /// processing time / stage lifetime): where the pipeline's headroom is.
    wal_occupancy: f64,
    merge_occupancy: f64,
    detect_occupancy: f64,
    /// Cumulative close sub-stage spend across the run's epochs, from
    /// [`PipelineStats`]: advance + enumerate on the merge stage thread,
    /// re-check on the detect stage thread.
    close_advance_ns: u64,
    close_enumerate_ns: u64,
    close_recheck_ns: u64,
}

/// One pipelined run: `producers` threads submit each epoch's ratings
/// round-robin through their own handles, the epoch closes through the
/// staged pipeline, and every close's suspect set is checked against the
/// serial baseline's.
fn run_pipelined(
    nodes: &[NodeId],
    setup: EngineSetup,
    chunks: &[&[Rating]],
    producers: usize,
    serial: &SerialRun,
) -> PipelinedRun {
    let dir = scratch_dir("ingest-bench-piped");
    let mut cfg = PipelineConfig::new(setup);
    cfg.batch = 256;
    let mut piped = PipelinedEngine::with_wal(&dir, nodes, cfg).expect("create pipelined");
    let mut closes = Vec::with_capacity(chunks.len());
    let mut reports_identical = true;
    // one handle per producer for the whole run: the per-producer delta
    // maps and batch buffers stay warm across epochs instead of being
    // reallocated from zero capacity ten times per producer
    let mut handles: Vec<IngestHandle> = (0..producers).map(|_| piped.handle()).collect();
    let start = Instant::now();
    for (e, chunk) in chunks.iter().enumerate() {
        std::thread::scope(|scope| {
            for (p, h) in handles.iter_mut().enumerate() {
                scope.spawn(move || {
                    for r in chunk.iter().skip(p).step_by(producers) {
                        h.submit(*r);
                    }
                    h.flush();
                });
            }
        });
        let t0 = Instant::now();
        let report = piped.close_epoch_sync();
        closes.push(t0.elapsed().as_nanos());
        if pair_ids(&report) != serial.epoch_reports[e] {
            reports_identical = false;
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();
    drop(handles);
    let (finished, pstats) = piped.finish();
    let state_identical = finished.state_eq(&serial.engine);
    if let Some(diff) = finished.state_diff(&serial.engine) {
        eprintln!("  !! {producers} producers: state diverged: {diff}");
    }
    let suspects = finished.report().pairs.len();
    std::fs::remove_dir_all(&dir).ok();
    settle();
    PipelinedRun {
        producers,
        elapsed_ns,
        close_median_ns: median_of(closes),
        wal_records: pstats.wal_appends,
        wal_syncs: pstats.wal_syncs,
        batches: pstats.batches,
        suspects,
        reports_identical,
        state_identical,
        wal_occupancy: pstats.wal_occupancy(),
        merge_occupancy: pstats.merge_occupancy(),
        detect_occupancy: pstats.detect_occupancy(),
        close_advance_ns: pstats.close_advance_ns,
        close_enumerate_ns: pstats.close_enumerate_ns,
        close_recheck_ns: pstats.close_recheck_ns,
    }
}

struct GridPoint {
    n: u64,
    ratings: usize,
    serial: SerialRun,
    sweep: Vec<SweepRun>,
    runs: Vec<PipelinedRun>,
}

fn run_point(n: u64, producer_counts: &[usize], sweep_widths: &[usize]) -> GridPoint {
    let cfg = ScaleConfig::at_scale(n, SEED);
    let ratings = cfg.generate();
    let nodes = cfg.node_ids();
    let shards = (n as usize / 1024).clamp(2, 64);
    let setup = EngineSetup {
        target_shards: shards,
        method: EpochMethod::Optimized,
        thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    eprintln!("n={n}: {} ratings…", ratings.len());
    let chunks: Vec<&[Rating]> = ratings.chunks(ratings.len().div_ceil(EPOCHS)).collect();

    let serial = run_serial(&nodes, setup, &chunks);
    eprintln!(
        "  serial: {:.0} ratings/s ({} WAL records; close adv/enum/recheck {}/{}/{} ns)",
        ratings.len() as f64 / (serial.elapsed_ns as f64 / 1e9),
        serial.wal_records,
        serial.advance_median_ns,
        serial.enumerate_median_ns,
        serial.recheck_median_ns
    );
    let sweep = run_close_sweep(&nodes, setup, &chunks, &serial, sweep_widths);
    let runs: Vec<PipelinedRun> = producer_counts
        .iter()
        .map(|&p| {
            // best of two: one background writeback stall sinks a whole
            // multi-second measurement window on a disk-backed tmpdir, so
            // a single sample per point flakes the monotonicity gate.
            // Identity is ANDed across both runs — never masked by noise.
            let a = run_pipelined(&nodes, setup, &chunks, p, &serial);
            let b = run_pipelined(&nodes, setup, &chunks, p, &serial);
            let identical = a.reports_identical
                && a.state_identical
                && b.reports_identical
                && b.state_identical;
            let mut run = if a.elapsed_ns <= b.elapsed_ns { a } else { b };
            run.reports_identical = identical;
            run.state_identical = identical;
            eprintln!(
                "  {p} producer(s): {:.0} ratings/s ({:.2}x), identical={}",
                ratings.len() as f64 / (run.elapsed_ns as f64 / 1e9),
                serial.elapsed_ns as f64 / run.elapsed_ns as f64,
                identical
            );
            run
        })
        .collect();
    GridPoint { n, ratings: ratings.len(), serial, sweep, runs }
}

fn json_point(p: &GridPoint, smoke: bool) -> String {
    let rps = |elapsed_ns: u128| p.ratings as f64 / (elapsed_ns as f64 / 1e9);
    let mut j = String::from("    {\n");
    j.push_str(&format!("      \"n\": {},\n", p.n));
    j.push_str(&format!("      \"ratings\": {},\n", p.ratings));
    j.push_str(&format!("      \"epochs\": {EPOCHS},\n"));
    j.push_str("      \"serial\": {");
    j.push_str(&format!("\"wal_records\": {}, ", p.serial.wal_records));
    j.push_str(&format!("\"suspects\": {}", p.serial.engine.report().pairs.len()));
    // ratings_per_sec and allocs_steady_close are emitted in smoke mode
    // too: check.sh filters them out of the byte diff and gates them
    // separately (perf ratio with generous tolerance, alloc budget)
    j.push_str(&format!(", \"ratings_per_sec\": {:.1}", rps(p.serial.elapsed_ns)));
    if !smoke {
        j.push_str(&format!(", \"close_median_ns\": {}", p.serial.close_median_ns));
        j.push_str(&format!(", \"close_advance_median_ns\": {}", p.serial.advance_median_ns));
        j.push_str(&format!(", \"close_enumerate_median_ns\": {}", p.serial.enumerate_median_ns));
        j.push_str(&format!(", \"close_recheck_median_ns\": {}", p.serial.recheck_median_ns));
        j.push_str(&format!(", \"allocs_first_close\": {}", p.serial.allocs_first_close));
    }
    j.push_str(&format!(", \"allocs_steady_close\": {}", p.serial.allocs_steady_close));
    j.push_str("},\n");
    // serial closes re-run at explicit fork-join widths; the timing field
    // is machine-dependent (check.sh filters it from the smoke byte diff
    // and gates the 1-vs-parallel ratio separately), identity is not
    j.push_str("      \"close_threads_sweep\": [\n");
    for (i, s) in p.sweep.iter().enumerate() {
        j.push_str("        {");
        j.push_str(&format!("\"threads\": {}, ", s.threads));
        j.push_str(&format!("\"identical\": {}", s.identical));
        j.push_str(&format!(", \"close_median_ns\": {}", s.close_median_ns));
        j.push('}');
        j.push_str(if i + 1 == p.sweep.len() { "\n" } else { ",\n" });
    }
    j.push_str("      ],\n");
    j.push_str("      \"producers\": [\n");
    for (i, r) in p.runs.iter().enumerate() {
        j.push_str("        {");
        j.push_str(&format!("\"producers\": {}, ", r.producers));
        j.push_str(&format!("\"wal_records\": {}, ", r.wal_records));
        j.push_str(&format!("\"suspects\": {}, ", r.suspects));
        j.push_str(&format!("\"reports_identical\": {}, ", r.reports_identical));
        j.push_str(&format!("\"state_identical\": {}", r.state_identical));
        if !smoke {
            j.push_str(&format!(", \"ratings_per_sec\": {:.1}", rps(r.elapsed_ns)));
            j.push_str(&format!(
                ", \"speedup_vs_serial\": {:.3}",
                p.serial.elapsed_ns as f64 / r.elapsed_ns as f64
            ));
            j.push_str(&format!(", \"close_median_ns\": {}", r.close_median_ns));
            j.push_str(&format!(", \"wal_syncs\": {}", r.wal_syncs));
            j.push_str(&format!(", \"batches\": {}", r.batches));
            // stage-thread busy fractions: which stage a faster stream
            // would saturate first (wall-clock-dependent, like the rates)
            j.push_str(&format!(", \"wal_occupancy\": {:.3}", r.wal_occupancy));
            j.push_str(&format!(", \"merge_occupancy\": {:.3}", r.merge_occupancy));
            j.push_str(&format!(", \"detect_occupancy\": {:.3}", r.detect_occupancy));
            j.push_str(&format!(", \"close_advance_ns\": {}", r.close_advance_ns));
            j.push_str(&format!(", \"close_enumerate_ns\": {}", r.close_enumerate_ns));
            j.push_str(&format!(", \"close_recheck_ns\": {}", r.close_recheck_ns));
        }
        j.push('}');
        j.push_str(if i + 1 == p.runs.len() { "\n" } else { ",\n" });
    }
    j.push_str("      ]\n");
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
                "BENCH_ingest_smoke.json".into()
            } else {
                "BENCH_ingest.json".into()
            }
        });
    let serial_only = std::env::var_os("INGEST_SERIAL_ONLY").is_some();
    let (mut grid, producer_counts, sweep_widths): (Vec<u64>, &[usize], &[usize]) = if smoke {
        (vec![2_000], &[1, 4], &[1, 4])
    } else if serial_only {
        (vec![20_000], &[], &[])
    } else {
        (vec![20_000, 100_000], &[1, 2, 3, 4, 5, 6, 7, 8], &[1, 2, 4, 8])
    };
    // INGEST_N=<n> narrows the grid to one point (iteration aid)
    if let Some(n) = std::env::var("INGEST_N").ok().and_then(|v| v.parse::<u64>().ok()) {
        grid = vec![n];
    }

    // Drain writeback *before* the first measured window too — a prior
    // build or bench leaving gigabytes of dirty pages behind otherwise
    // deflates the whole first grid point.
    settle();
    let points: Vec<GridPoint> =
        grid.iter().map(|&n| run_point(n, producer_counts, sweep_widths)).collect();

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

    let identical =
        points.iter().all(|p| p.runs.iter().all(|r| r.reports_identical && r.state_identical));
    assert!(identical, "pipelined output diverged from the serial baseline");
    let sweep_identical = points.iter().all(|p| p.sweep.iter().all(|s| s.identical));
    assert!(sweep_identical, "a close_threads width diverged from the serial baseline");

    // producer-curve monotonicity gate: the curve may flatten, but no
    // producer count may collapse below 0.6x the best rate at the same n
    // (regression gate for the intake-stripe / oversubscription interaction)
    if !smoke {
        for p in &points {
            let rps: Vec<f64> =
                p.runs.iter().map(|r| p.ratings as f64 / (r.elapsed_ns as f64 / 1e9)).collect();
            let best = rps.iter().cloned().fold(0.0f64, f64::max);
            for (r, &rate) in p.runs.iter().zip(&rps) {
                assert!(
                    rate >= 0.6 * best,
                    "n={}: {} producer(s) collapsed to {:.0}/s (best {:.0}/s)",
                    p.n,
                    r.producers,
                    rate,
                    best
                );
            }
        }
    }
}
