//! Allocation budgets of a warm record loop, of a steady-state epoch close
//! and of a checkpoint restore.
//!
//! A rating is one WAL append and one push onto the open epoch's log, and
//! both keep their buffers across epochs, so once the first epoch has
//! grown them the record loop allocates nothing: the last epoch's loop is
//! held to zero allocations.
//!
//! The close reuses its detection scratch (candidate dedup set, prunability
//! flags, re-check cache) across epochs, so once warm it should allocate
//! little beyond the report it returns. A counting global allocator
//! measures the last close of the seeded n = 2 000 scale stream through a
//! [`DurableEngine`] at the auto close width (`close_threads: 0`); the
//! pre-scratch code cost thousands of allocations there, the reused
//! scratch about 140.
//!
//! A restore decodes the image's rows straight into the snapshot's shard
//! arenas, so it allocates per shard and per frequent reverse-index list,
//! not per row: re-folding the rows through a hash-map history cost about
//! 7 400 allocations on the same engine.
//!
//! The allocator counts every thread of the process, so this file holds a
//! single test: no other test thread can allocate during the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use collusion::core::durability::{scratch_dir, DurabilityConfig, DurableEngine, EngineSetup};
use collusion::core::epoch::{EpochEngine, EpochMethod};
use collusion::core::policy::DetectionPolicy;
use collusion::reputation::thresholds::Thresholds;
use collusion::reputation::wal::SyncPolicy;
use collusion::trace::scale::ScaleConfig;

/// Every heap allocation (and reallocation) bumps a counter.
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

/// Allocations a steady-state close may make: headroom over the measured
/// cost, far under the pre-scratch cost.
const BUDGET: u64 = 1_000;

/// Allocations a restore of the closed engine's image may make: headroom
/// over the measured cost (about 120), far under a re-fold's.
const RESTORE_BUDGET: u64 = 500;

const EPOCHS: usize = 10;

#[test]
fn steady_state_close_stays_inside_its_allocation_budget() {
    let cfg = ScaleConfig::at_scale(2_000, 42);
    let ratings = cfg.generate();
    let nodes = cfg.node_ids();
    let setup = EngineSetup {
        target_shards: 2,
        method: EpochMethod::Optimized,
        thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    let dcfg = DurabilityConfig {
        sync_policy: SyncPolicy::ASYNC_DEFAULT,
        checkpoint_interval: 0,
        keep_checkpoints: 2,
        pair_watermark: None,
    };
    let dir = scratch_dir("close-allocs");
    let mut engine = DurableEngine::create(&dir, &nodes, setup, dcfg).expect("create");
    let mut costs = Vec::with_capacity(EPOCHS);
    let mut record_costs = Vec::with_capacity(EPOCHS);
    for chunk in ratings.chunks(ratings.len().div_ceil(EPOCHS)) {
        let before = ALLOCS.load(Ordering::Relaxed);
        for &r in chunk {
            engine.record(r).expect("record");
        }
        record_costs.push(ALLOCS.load(Ordering::Relaxed) - before);
        let before = ALLOCS.load(Ordering::Relaxed);
        engine.close_epoch().expect("close");
        costs.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    let suspects = engine.engine().report().pairs.len();

    let image = engine.engine().persist_bytes(0);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (restored, _) = EpochEngine::recover_from_bytes(
        &image,
        setup.target_shards,
        setup.method,
        setup.thresholds,
        setup.policy,
        setup.prune,
    )
    .expect("restore");
    let restore = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(restored.state_eq(engine.engine()), "the restored engine differs");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(costs.len(), EPOCHS);
    let warm_records = *record_costs.last().expect("epochs ran");
    assert_eq!(
        warm_records, 0,
        "the last epoch's record loop allocated; per epoch: {record_costs:?}"
    );
    assert!(suspects > 0, "the stream plants colluders; none were found");
    let steady = *costs.last().expect("closes ran");
    assert!(
        steady <= BUDGET,
        "steady-state close allocated {steady} times (budget {BUDGET}); per close: {costs:?}"
    );
    assert!(
        restore <= RESTORE_BUDGET,
        "restore allocated {restore} times (budget {RESTORE_BUDGET})"
    );
}
