//! Chord lookup cost: `O(log n)` hops over growing rings (the decentralized
//! detection's messaging substrate, §IV Figure 2).

use collusion_dht::hash::consistent_hash;
use collusion_dht::id::Key;
use collusion_dht::ring::ChordRing;
use collusion_dht::routing::Router;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn build_ring(n: u64) -> ChordRing {
    let mut ring = ChordRing::new();
    for i in 0..n {
        ring.join_with_key(consistent_hash(i, 64));
    }
    ring
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dht_lookup");
    for &n in &[16u64, 128, 1024] {
        let ring = build_ring(n);
        let start = ring.owner(Key::new(0, 64));
        let keys: Vec<Key> = (10_000..10_100).map(|i| consistent_hash(i, 64)).collect();
        group.bench_with_input(BenchmarkId::new("lookup_100", n), &ring, |bench, ring| {
            let router = Router::new(ring);
            bench.iter(|| {
                let mut hops = 0u64;
                for &k in &keys {
                    hops += router.lookup(start, k).hops as u64;
                }
                black_box(hops)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
