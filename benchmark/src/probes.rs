//! Standalone replays for the traced run: every layer a workload reaches
//! only through another layer (or not at all) is called directly here, on
//! the workload's own generated input, so a traced run of any workload
//! yields every per-layer metric. The network layers of an in-process
//! workload are replayed on a small cluster (`SIDECAR_NODES`).
//!
//! A probe runs only when one of its metrics is still missing: what the
//! workload measured on its own run stands.

use crate::audit::{audit, band_ns_per_row, oracle_check};
use crate::common::{
    dir_bytes, expect_pairs, split, Metrics, Scratch, Workload, ORACLE_NODES, SIDECAR_NODES,
    SPAN_CHUNK,
};
use crate::engine::{EngineWorkload, BULK};
use crate::spec::PER_LAYER;
use crate::sut::{self, BareEngine, Checkpoints, Intake, Res, Trace, WalFile};
use crate::trace::Tracer;
use crate::wire::WireWorkload;
use std::sync::Arc;
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Adds `found` for the names `m` does not have yet.
fn merge_missing(m: &mut Metrics, found: Metrics) {
    for (name, value) in found {
        m.entry(name).or_insert(value);
    }
}

fn lacks(m: &Metrics, prefixes: &[&str]) -> bool {
    PER_LAYER
        .iter()
        .any(|p| prefixes.iter().any(|x| p.name.starts_with(x)) && !m.contains_key(p.name))
}

/// `Wal::{append_ratings, sync}` and `wal::replay_bytes` on the input.
fn wal(trace: &Trace, scratch: &Scratch) -> Res<Metrics> {
    let dir = scratch.fresh("wal")?;
    let path = dir.join("probe.wal");
    let ratings = trace.ratings.len() as f64;
    let mut m = Metrics::new();
    let mut wal = WalFile::create(&path)?;
    let t = Instant::now();
    for block in trace.ratings.chunks(SPAN_CHUNK) {
        wal.append_ratings(block)?;
    }
    m.insert("wal.append_ns_per_rating", t.elapsed().as_secs_f64() * 1e9 / ratings);
    let t = Instant::now();
    wal.sync()?;
    m.insert("wal.sync_ms", ms(t));
    m.insert("wal.fsyncs", wal.fsyncs() as f64);
    m.insert("wal.bytes_per_rating", wal.len_bytes() as f64 / ratings);
    drop(wal);
    let image = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let t = Instant::now();
    let records = sut::wal_replay(&image)?;
    m.insert("wal.replay_ms", ms(t));
    if records != trace.ratings.len() as u64 {
        return Err(format!("the log replays {records} records of {ratings} appended"));
    }
    scratch.remove(&dir);
    Ok(m)
}

/// The bare `EpochEngine` record path, then its state through
/// `persist_bytes` → `CheckpointStore::{save, load_latest}` →
/// `recover_from_bytes`.
fn epoch_and_checkpoint(trace: &Trace, scratch: &Scratch) -> Res<Metrics> {
    let mut m = Metrics::new();
    let mut engine = BareEngine::new(&trace.nodes);
    let mut record_s = 0.0;
    for range in split(trace.ratings.len(), BULK.epochs) {
        let t = Instant::now();
        for &r in &trace.ratings[range] {
            engine.record(r);
        }
        record_s += t.elapsed().as_secs_f64();
        engine.close_epoch();
    }
    m.insert("epoch.record_ns_per_rating", record_s * 1e9 / trace.ratings.len() as f64);
    expect_pairs("bare engine suspect set", &engine.suspects(), &trace.planted)?;

    let t = Instant::now();
    let payload = engine.persist_bytes(trace.ratings.len() as u64);
    m.insert("epoch.persist_ms", ms(t));
    let dir = scratch.fresh("checkpoint")?;
    let store = Checkpoints::new(&dir)?;
    let t = Instant::now();
    store.save(trace.ratings.len() as u64, &payload)?;
    m.insert("checkpoint.save_ms", ms(t));
    m.insert("checkpoint.bytes", dir_bytes(&dir) as f64);
    let t = Instant::now();
    let loaded = store.load_latest()?;
    m.insert("checkpoint.load_ms", ms(t));
    let t = Instant::now();
    let restored = BareEngine::restore(&loaded)?;
    m.insert("epoch.restore_ms", ms(t));
    expect_pairs("restored engine suspect set", &restored.suspects(), &trace.planted)?;
    scratch.remove(&dir);
    Ok(m)
}

/// `ShardedIntake::{record, drain}`, the manager's stream fold.
fn intake(trace: &Trace) -> Res<Metrics> {
    let mut m = Metrics::new();
    let intake = Intake::new();
    let t = Instant::now();
    for &r in &trace.ratings {
        intake.record(r);
    }
    m.insert(
        "ingest.fold_ns_per_rating",
        t.elapsed().as_secs_f64() * 1e9 / trace.ratings.len() as f64,
    );
    let t = Instant::now();
    let drained = intake.drain();
    m.insert("ingest.drain_ms", ms(t));
    if drained != trace.ratings.len() as u64 {
        return Err(format!("the intake drained {drained} of {} ratings", trace.ratings.len()));
    }
    Ok(m)
}

/// The one-shot audit's phases, and the SoA band kernel alone.
fn audit_and_band(trace: &Trace) -> Res<Metrics> {
    let mut m = Metrics::new();
    let a = audit(trace, &mut Tracer::new(false), 0);
    expect_pairs("audit suspect set", &a.pairs, &trace.planted)?;
    let ratings = trace.ratings.len() as f64;
    m.insert("audit_s", a.fold_s + a.build_s + a.detect_s);
    m.insert("history.fold_ns_per_rating", a.fold_s * 1e9 / ratings);
    m.insert("sharded.build_ms", a.build_s * 1e3);
    m.insert("optimized.detect_pruned_ms", a.detect_s * 1e3);
    m.insert("optimized.skip_rate", a.pruning.skip_rate);
    m.insert("optimized.pairs_examined", a.pruning.pairs_examined as f64);
    m.insert("optimized.band_ns_per_row", band_ns_per_row(&a.snapshot));
    Ok(m)
}

/// `InsertStream` frames of 256 ratings through `encode_insert_stream` +
/// `encode_frame_into`, and back through `decode_frame` + `Request::decode`.
fn codec(trace: &Trace) -> Res<Metrics> {
    let mut m = Metrics::new();
    let ratings = trace.ratings.len() as f64;
    let mut bytes = Vec::new();
    let t = Instant::now();
    for (seq, frame) in trace.ratings.chunks(256).enumerate() {
        sut::encode_stream_frame(seq as u64 + 1, frame, &mut bytes);
    }
    m.insert("wire.encode_ns_per_rating", t.elapsed().as_secs_f64() * 1e9 / ratings);
    m.insert("wire.bytes_per_rating", bytes.len() as f64 / ratings);
    let (mut at, mut decoded) = (0, 0);
    let t = Instant::now();
    while at < bytes.len() {
        let (n, used) = sut::decode_stream_frame(&bytes[at..])?;
        decoded += n;
        at += used;
    }
    m.insert("wire.decode_ns_per_rating", t.elapsed().as_secs_f64() * 1e9 / ratings);
    if decoded != trace.ratings.len() {
        return Err(format!("decoded {decoded} of {ratings} encoded ratings"));
    }
    Ok(m)
}

/// One traced rep of `workload`, as per-layer metrics.
fn traced_rep(mut workload: impl Workload) -> Res<Metrics> {
    let mut tracer = Tracer::new(true);
    let rep = workload.rep(&mut tracer, 0, true)?;
    let mut m = workload.layer_metrics(&rep, &tracer);
    m.extend(rep.recover_s.map(|s| ("recover_s", s)));
    m.extend(rep.values);
    Ok(m)
}

/// Fill every per-layer metric `m` does not hold yet.
pub fn fill_missing(m: &mut Metrics, trace: &Arc<Trace>, seed: u64, scratch: &Scratch) -> Res<()> {
    if lacks(m, &["wal."]) {
        merge_missing(m, wal(trace, scratch)?);
    }
    if lacks(m, &["checkpoint.", "epoch.persist", "epoch.restore", "epoch.record"]) {
        merge_missing(m, epoch_and_checkpoint(trace, scratch)?);
    }
    if lacks(m, &["durability.", "epoch.", "disk_bytes", "recover_s"]) {
        merge_missing(m, traced_rep(EngineWorkload::over(Arc::clone(trace), BULK, scratch)?)?);
    }
    if lacks(m, &["ingest."]) {
        merge_missing(m, intake(trace)?);
    }
    if lacks(m, &["history.", "sharded.", "optimized.detect_pruned", "optimized.band", "audit_s"]) {
        merge_missing(m, audit_and_band(trace)?);
    }
    if lacks(m, &["basic.", "optimized.detect_small"]) {
        let (basic_s, pruned_s) = oracle_check(&sut::generate(ORACLE_NODES, seed))?;
        m.insert("basic.detect_s", basic_s);
        m.insert("optimized.detect_small_s", pruned_s);
    }
    if lacks(m, &["wire."]) {
        merge_missing(m, codec(trace)?);
    }
    if lacks(m, &["client.", "server.", "gen.", "ack_p50", "query_p50", "round_s"]) {
        let sidecar = WireWorkload::prepare(SIDECAR_NODES, 1, 100, seed, scratch)?;
        merge_missing(m, traced_rep(sidecar)?);
    }
    match PER_LAYER.iter().find(|p| !m.contains_key(p.name)) {
        Some(p) => Err(format!("no layer reported {}", p.name)),
        None => Ok(()),
    }
}
