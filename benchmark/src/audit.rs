//! `audit-batch`: the paper's centralized one-shot mode. No WAL, no
//! sockets, no epoch engine — fold every rating into an
//! `InteractionHistory`, build a sharded snapshot, run the band-pruned
//! full scan. The control workload for WAL, network and close work.

use crate::common::{expect_pairs, Metrics, Rep, Workload, ORACLE_NODES, SPAN_CHUNK};
use crate::sut::{self, History, Pairs, Pruning, Res, Snapshot, Trace};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;

pub struct AuditWorkload {
    trace: Arc<Trace>,
    /// The small trace of the Basic-vs-pruned oracle check.
    oracle: Trace,
}

/// Phase times of one audit.
pub struct Audit {
    pub fold_s: f64,
    pub build_s: f64,
    pub detect_s: f64,
    pub pairs: Pairs,
    pub pruning: Pruning,
    pub snapshot: Snapshot,
}

/// One audit of `trace`, phase by phase.
pub fn audit(trace: &Trace, tracer: &mut Tracer, id: u64) -> Audit {
    let t = Instant::now();
    let mut history = History::new();
    for block in trace.ratings.chunks(SPAN_CHUNK) {
        let span = tracer.enter("history.fold", id);
        for &r in block {
            history.record(r);
        }
        tracer.exit(span);
    }
    let fold_s = t.elapsed().as_secs_f64();

    let span = tracer.enter("sharded.build", id);
    let t = Instant::now();
    let snapshot = Snapshot::build(&history, &trace.nodes);
    let build_s = t.elapsed().as_secs_f64();
    tracer.exit(span);

    let span = tracer.enter("optimized.detect_pruned", id);
    let t = Instant::now();
    let (pairs, pruning) = snapshot.detect_pruned(&trace.nodes);
    let detect_s = t.elapsed().as_secs_f64();
    tracer.exit(span);
    Audit { fold_s, build_s, detect_s, pairs, pruning, snapshot }
}

/// The SoA band kernel alone: `rows_prunable_batch` over every shard's
/// totals columns, nanoseconds per row.
pub fn band_ns_per_row(snapshot: &Snapshot) -> f64 {
    /// Scans timed together: one scan of 100 k rows is ~0.3 ms.
    const SCANS: u32 = 64;
    let mut flags = Vec::new();
    let mut rows = 0;
    let t = Instant::now();
    for _ in 0..SCANS {
        rows += std::hint::black_box(snapshot.band_scan(&mut flags)).0;
    }
    t.elapsed().as_secs_f64() * 1e9 / rows as f64
}

/// The correctness oracle and the Fig 13 shape: the paper's O(m·n²)
/// `BasicDetector::detect` against the band-pruned scan on one small
/// history. Returns `(basic_s, pruned_s)`; the pruned side is snapshot
/// build + `detect_pruned`, since both start from the history.
pub fn oracle_check(trace: &Trace) -> Res<(f64, f64)> {
    let mut history = History::new();
    for &r in &trace.ratings {
        history.record(r);
    }
    let t = Instant::now();
    let basic = sut::basic_detect(&history, &trace.nodes);
    let basic_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (pruned, _) = Snapshot::build(&history, &trace.nodes).detect_pruned(&trace.nodes);
    let pruned_s = t.elapsed().as_secs_f64();
    expect_pairs("BasicDetector::detect", &basic, &trace.planted)?;
    expect_pairs("detect_pruned against BasicDetector::detect", &pruned, &basic)?;
    Ok((basic_s, pruned_s))
}

impl AuditWorkload {
    pub fn prepare(n: u64, seed: u64) -> Res<Self> {
        Ok(AuditWorkload {
            trace: Arc::new(sut::generate(n, seed)),
            oracle: sut::generate(ORACLE_NODES, seed),
        })
    }
}

impl Workload for AuditWorkload {
    fn rep(&mut self, tracer: &mut Tracer, id: u64, first: bool) -> Res<Rep> {
        let mut rep = Rep { ratings: self.trace.ratings.len() as u64, ..Rep::default() };
        let root = tracer.enter("rep", id);
        let a = audit(&self.trace, tracer, id);
        rep.ingest_s = a.fold_s + a.build_s + a.detect_s;
        // last rating folded → verdict
        rep.sample("close_ms", (a.build_s + a.detect_s) * 1e3);
        rep.attempted = rep.ratings + 2;
        let span = tracer.enter("gate", id);
        expect_pairs("audit suspect set", &a.pairs, &self.trace.planted)?;
        tracer.exit(span);
        tracer.exit(root);
        if tracer.enabled() {
            rep.values.insert("optimized.band_ns_per_row", band_ns_per_row(&a.snapshot));
        }
        drop(a.snapshot);
        if first {
            let (basic_s, pruned_s) = oracle_check(&self.oracle)?;
            rep.values.insert("basic.detect_s", basic_s);
            rep.values.insert("optimized.detect_small_s", pruned_s);
            rep.attempted += 2;
        }
        rep.values.insert("audit_s", rep.ingest_s);
        rep.values.insert("history.fold_ns_per_rating", a.fold_s * 1e9 / rep.ratings as f64);
        rep.values.insert("sharded.build_ms", a.build_s * 1e3);
        rep.values.insert("optimized.detect_pruned_ms", a.detect_s * 1e3);
        rep.values.insert("optimized.skip_rate", a.pruning.skip_rate);
        rep.values.insert("optimized.pairs_examined", a.pruning.pairs_examined as f64);
        Ok(rep)
    }

    fn layer_metrics(&self, _traced: &Rep, _tracer: &Tracer) -> Metrics {
        // each phase is one call, so the rep's own values are the figures
        Metrics::new()
    }

    fn input(&self) -> &Arc<Trace> {
        &self.trace
    }

    fn warms_up(&self) -> bool {
        true
    }
}
