//! Figure 13 kernel: Basic (`O(m·n²)`) vs Optimized (`O(m·n)`) detection
//! cost as the number of colluders grows — the Basic oracle over the raw
//! history (`basic`) vs the CSR [`ShardedSnapshot`] kernels and the
//! band-pruned walk (`optimized_pruned`, the audit's full scan), plus a
//! full build vs one epoch applied to a standing snapshot.

use collusion_core::basic::BasicDetector;
use collusion_core::input::{DetectionInput, SnapshotInput};
use collusion_core::optimized::OptimizedDetector;
use collusion_core::prelude::Thresholds;
use collusion_reputation::epoch::EpochBuffer;
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingValue};
use collusion_reputation::sharded::ShardedSnapshot;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Synthetic manager view: `n` nodes, `colluders` colluding (paired), plus
/// honest background traffic.
fn build_history(n: u64, colluders: u64, seed: u64) -> (InteractionHistory, Vec<NodeId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = InteractionHistory::new();
    let mut t = 0u64;
    // colluding pairs: mutual positives, community negatives
    for pair in 0..colluders / 2 {
        let a = NodeId(1 + 2 * pair);
        let b = NodeId(2 + 2 * pair);
        for _ in 0..30 {
            h.record(Rating::positive(a, b, SimTime(t)));
            h.record(Rating::positive(b, a, SimTime(t)));
            t += 1;
        }
        for _ in 0..8 {
            let rater = NodeId(rng.random_range(colluders + 1..=n));
            h.record(Rating::negative(rater, a, SimTime(t)));
            h.record(Rating::negative(rater, b, SimTime(t)));
            t += 1;
        }
    }
    // honest background: sparse mostly-positive ratings
    for _ in 0..n * 20 {
        let i = NodeId(rng.random_range(1..=n));
        let mut j = NodeId(rng.random_range(1..=n));
        if i == j {
            j = NodeId(1 + j.raw() % n);
        }
        let v = if rng.random_bool(0.8) { RatingValue::Positive } else { RatingValue::Negative };
        h.record(Rating::new(i, j, v, SimTime(t)));
        t += 1;
    }
    (h, (1..=n).map(NodeId).collect())
}

fn bench_detection(c: &mut Criterion) {
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);
    let mut group = c.benchmark_group("detection_cost");
    for &colluders in &[8u64, 28, 58] {
        let (h, nodes) = build_history(200, colluders, 42);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        group.bench_with_input(BenchmarkId::new("basic", colluders), &input, |bench, input| {
            let det = BasicDetector::new(thresholds);
            bench.iter(|| black_box(det.detect(black_box(input))));
        });
        // snapshot variants: the CSR view is built once per detection pass,
        // so it lives outside the timed loop (the snapshot_apply group below
        // times the build itself)
        let snap = ShardedSnapshot::build_with_frequent(&h, &nodes, 1, thresholds.t_n);
        let sinput = SnapshotInput::from_signed(&snap, &nodes);
        group.bench_with_input(
            BenchmarkId::new("basic_snapshot", colluders),
            &sinput,
            |bench, input| {
                let det = BasicDetector::new(thresholds);
                bench.iter(|| black_box(det.detect_snapshot(black_box(input))));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("optimized_snapshot", colluders),
            &sinput,
            |bench, input| {
                let det = OptimizedDetector::new(thresholds);
                bench.iter(|| black_box(det.detect_snapshot(black_box(input))));
            },
        );
        // the production full scan: the same walk behind the band pre-filter
        group.bench_with_input(
            BenchmarkId::new("optimized_pruned", colluders),
            &sinput,
            |bench, input| {
                let det = OptimizedDetector::new(thresholds);
                bench.iter(|| black_box(det.detect_pruned(black_box(input))));
            },
        );
    }
    group.finish();
}

/// Full CSR build vs [`ShardedSnapshot::apply_epoch`] on a standing
/// snapshot when only a small fraction of the ratees was rated since the
/// last detection period.
fn bench_snapshot_apply(c: &mut Criterion) {
    let thresholds = Thresholds::new(1.0, 20, 0.8, 0.2);
    let n = 2000u64;
    let (mut h, nodes) = build_history(n, 58, 42);
    let base = ShardedSnapshot::build_with_frequent(&h, &nodes, 1, thresholds.t_n);
    // re-rate ~2% of the ratees with one extra rating each
    let mut epoch = EpochBuffer::new();
    let mut rng = SmallRng::seed_from_u64(7);
    for t in 10_000_000u64..10_000_000 + n / 50 {
        let i = NodeId(rng.random_range(1..=n));
        let mut j = NodeId(rng.random_range(1..=n));
        if i == j {
            j = NodeId(1 + j.raw() % n);
        }
        let rating = Rating::positive(i, j, SimTime(t));
        h.record(rating);
        epoch.record(rating);
    }
    let delta = epoch.drain();

    let mut group = c.benchmark_group("snapshot_apply");
    group.bench_function(BenchmarkId::new("full_build", n), |bench| {
        bench.iter(|| {
            black_box(ShardedSnapshot::build_with_frequent(
                black_box(&h),
                black_box(&nodes),
                1,
                thresholds.t_n,
            ))
        });
    });
    group.bench_function(BenchmarkId::new("apply_epoch_2pct", n), |bench| {
        bench.iter(|| {
            let mut snap = base.clone();
            black_box(snap.apply_epoch(black_box(&delta), 1))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_detection, bench_snapshot_apply);
criterion_main!(benches);
