//! Durable detection: [`EpochEngine`] behind a write-ahead log and atomic
//! checkpoints, with crash-recovery that reproduces the in-memory state
//! bit-for-bit.
//!
//! # Protocol
//!
//! * Every accepted rating is appended to the WAL
//!   ([`collusion_reputation::wal`]) before it is folded into the engine;
//!   fsync scheduling follows [`DurabilityConfig::sync_policy`] — per
//!   record ([`SyncPolicy::PerRecord`]), or asynchronous group commit on
//!   a background committer thread ([`SyncPolicy::Async`]; the default is
//!   [`SyncPolicy::ASYNC_DEFAULT`]): the record path never blocks on
//!   fsync, and closes barrier on the committer's durable watermark.
//! * Every epoch close — scheduled or forced by the epoch-buffer memory
//!   watermark — appends an epoch-close marker and fsyncs, so epoch
//!   boundaries are always durable.
//! * Every [`DurabilityConfig::checkpoint_interval`] closes, the engine
//!   state is checkpointed atomically
//!   ([`collusion_reputation::checkpoint`]): serialized via
//!   [`EpochEngine::persist_bytes`] at the boundary, then handed to a
//!   background writer thread that checksums it a word at a time, writes
//!   it once to a temp file, fsyncs and renames it. The close does not
//!   wait for that: its ratings are already durable in the log, which is
//!   never truncated. One image is in flight at a time, the next close
//!   waits for it, and a failed save is returned by the next
//!   [`DurableEngine::checkpoint`] or [`DurableEngine::wait_checkpoint`].
//!
//! # Recovery
//!
//! [`DurableEngine::recover`] loads the newest checkpoint that validates
//! (corrupt ones are skipped, stale `.tmp` litter from a mid-checkpoint
//! crash is ignored, and so is a checkpoint in a previous file format —
//! the log is never truncated, so the worst case is a full replay),
//! rebuilds the engine from it, then replays the WAL
//! tail — every record at or past the checkpoint's replay cursor — through
//! the same `record`/`close_epoch` entry points the live path uses, each
//! record folded as the scanner decodes it from a window over the file
//! ([`Wal::open_with`]), so neither the log's image nor its decoded
//! records are ever held in memory. A torn
//! or corrupt final WAL record ends the replay and is physically truncated
//! away; the loss is reported in [`RecoveryReport`], never a panic. Because
//! detection state is a pure fold over the record stream, the recovered
//! suspect set and every [`collusion_reputation::history::PairCounters`]
//! cell are bit-identical to an uncrashed engine that processed the same
//! durable prefix (property-tested per kill-point in
//! `tests/durability_props.rs`).
//!
//! The epoch-buffer watermark is disarmed while replaying: the durable
//! epoch-close markers already encode exactly where every close (forced or
//! scheduled) happened, so replay must follow the log rather than re-trigger
//! the watermark itself.
//!
//! [`KillPoint`] and [`DurableEngine::crash`] simulate the interesting
//! crash instants by manipulating the on-disk state the way a real crash
//! would leave it; the seeded crash matrix lives in
//! `collusion-sim::robustness`.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use collusion_reputation::checkpoint::{encode_checkpoint, CheckpointError, CheckpointStore};
use collusion_reputation::codec::CodecError;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::wal::{SyncPolicy, Wal, WalError, WalRecord};

use crate::epoch::{EpochEngine, EpochMethod, EpochStats};
use crate::policy::DetectionPolicy;
use crate::report::DetectionReport;

/// Engine construction parameters shared by the create and recover paths
/// (recovery must rebuild the engine with the same detection configuration
/// the crashed instance ran).
#[derive(Clone, Copy, Debug)]
pub struct EngineSetup {
    /// Target shard count for the sharded snapshot.
    pub target_shards: usize,
    /// Detection kernel.
    pub method: EpochMethod,
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Detection policy.
    pub policy: DetectionPolicy,
    /// Whether the Formula (2) band pre-filter is armed.
    pub prune: bool,
    /// Fork-join width for the epoch close's `advance` stage (per-shard
    /// merge and high-flag recompute). `0` = auto (`RAYON_NUM_THREADS` override,
    /// else available parallelism); `1` = the serial oracle. Every width
    /// produces bit-identical state, reports, and cost.
    pub close_threads: usize,
}

/// Durability tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// When rating appends are fsync'd (see [`SyncPolicy`]). Epoch closes
    /// always fsync regardless.
    pub sync_policy: SyncPolicy,
    /// Checkpoint every this many epoch closes; 0 disables periodic
    /// checkpoints (the WAL alone still makes every record durable).
    pub checkpoint_interval: u64,
    /// How many completed checkpoints to retain.
    pub keep_checkpoints: usize,
    /// Epoch-buffer memory watermark, in buffered ratings: the open epoch
    /// closes when it holds this many (see
    /// [`EpochEngine::set_pair_watermark`]).
    pub pair_watermark: Option<usize>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_policy: SyncPolicy::ASYNC_DEFAULT,
            checkpoint_interval: 1,
            keep_checkpoints: 2,
            pair_watermark: None,
        }
    }
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum DurabilityError {
    /// WAL file operation failed.
    Wal(WalError),
    /// Checkpoint file operation failed.
    Checkpoint(CheckpointError),
    /// A checkpoint payload passed its checksum but failed structural
    /// decoding — corruption beyond what the checksum models, or a
    /// configuration mismatch between the crashed and recovering instance.
    CorruptState(CodecError),
    /// Other filesystem I/O failed.
    Io(io::Error),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Wal(e) => write!(f, "durability WAL error: {e}"),
            DurabilityError::Checkpoint(e) => write!(f, "durability checkpoint error: {e}"),
            DurabilityError::CorruptState(e) => write!(f, "corrupt checkpoint state: {e}"),
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        DurabilityError::Wal(e)
    }
}

impl From<CheckpointError> for DurabilityError {
    fn from(e: CheckpointError) -> Self {
        DurabilityError::Checkpoint(e)
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// What recovery found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Replay cursor of the checkpoint used, if any.
    pub checkpoint_cursor: Option<u64>,
    /// Completed checkpoint files skipped as invalid.
    pub invalid_checkpoints: usize,
    /// Stale checkpoint `.tmp` files found (mid-checkpoint crash evidence).
    pub stale_tmp: usize,
    /// WAL records replayed into the engine.
    pub replayed_records: u64,
    /// Ratings among the replayed records.
    pub replayed_ratings: u64,
    /// Epoch closes among the replayed records.
    pub replayed_closes: u64,
    /// WAL records skipped because the checkpoint already covered them.
    pub skipped_records: u64,
    /// Bytes discarded from the WAL as a torn/corrupt tail.
    pub truncated_bytes: u64,
    /// Why the WAL scan stopped early, if it did.
    pub wal_corruption: Option<CodecError>,
    /// Sequence number the resumed WAL will assign next — the client's
    /// replay-from point for any ratings whose append never became durable.
    pub next_seq: u64,
    /// Ratings the log holds that an engine folds: every rating record of
    /// the valid prefix, the ones a checkpoint covers included, self-ratings
    /// (logged, never folded) excluded.
    pub folded_ratings: u64,
    /// The last `StreamSession` marker of each session in the valid prefix:
    /// `session → (frame_seq, accepted)`. A rejoining server rebuilds its
    /// session table from this.
    pub stream_sessions: BTreeMap<u64, (u64, u64)>,
}

/// Live-path bookkeeping counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (ratings + epoch-close markers).
    pub wal_appends: u64,
    /// Group fsyncs issued.
    pub wal_syncs: u64,
    /// Checkpoints completed: saved by the writer and collected by a
    /// close, a checkpoint or [`DurableEngine::wait_checkpoint`].
    pub checkpoints: u64,
    /// Times a close or a checkpoint found the previous image still being
    /// written and waited for it.
    pub checkpoint_waits: u64,
}

/// Crash instants the injection harness can simulate. Each leaves the
/// on-disk state exactly as a process death at that point would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// Death mid-`write(2)` of a WAL record: the final record is torn in
    /// half. Recovery must truncate it and resume one sequence number back.
    MidWalAppend,
    /// Death between writing the checkpoint temp file and renaming it: a
    /// partial `.tmp` litters the directory, the previous checkpoint (if
    /// any) is still the newest valid one, and the WAL is intact.
    MidCheckpointWrite,
    /// Death immediately after the checkpoint rename: the new checkpoint is
    /// complete and recovery should replay nothing beyond it.
    PostCheckpointRename,
}

impl KillPoint {
    /// All kill-points, for crash-matrix sweeps.
    pub const ALL: [KillPoint; 3] =
        [KillPoint::MidWalAppend, KillPoint::MidCheckpointWrite, KillPoint::PostCheckpointRename];
}

/// WAL file name inside a durability directory.
const WAL_FILE: &str = "engine.wal";

/// The background checkpoint writer: the save in flight, on a thread of
/// its own that runs [`CheckpointStore::save`] on one image, frees it and
/// exits. One image is in flight at a time. Dropping the writer joins the
/// save in flight, so an image handed off before the drop is on disk when
/// the drop returns — without a `Drop` on [`DurableEngine`] itself, which
/// [`DurableEngine::crash`] and [`DurableEngine::into_engine`] take apart.
///
/// A thread per save rather than one per engine: a thread that has
/// allocated holds a glibc malloc arena for as long as it lives, and on
/// the benchmark's `wire-mixed` (2-core box) three long-lived writers, one
/// per manager, pushed the process into more arenas, each growing to a
/// manager's transient footprint: `peak_rss_mb` 354 → 437 MB. A save's
/// thread lives for the few milliseconds of the save, and spawning it
/// costs tens of microseconds.
#[derive(Debug, Default)]
struct CheckpointWriter {
    /// The save in flight.
    saving: Option<JoinHandle<Result<(), CheckpointError>>>,
    /// A failed save, held until a checkpoint or
    /// [`DurableEngine::wait_checkpoint`] returns it.
    failed: Option<CheckpointError>,
}

impl CheckpointWriter {
    /// Save `image`, taken at WAL cursor `cursor`, in the background. The
    /// previous save must have been settled.
    fn hand_off(&mut self, store: &CheckpointStore, cursor: u64, image: Vec<u8>) -> io::Result<()> {
        debug_assert!(self.saving.is_none(), "one image in flight");
        let store = store.clone();
        let saving = std::thread::Builder::new()
            .name("checkpoint-writer".into())
            .spawn(move || store.save(cursor, &image).map(drop))?;
        self.saving = Some(saving);
        Ok(())
    }

    /// Collect the save in flight, if any, blocking until it is on disk:
    /// count it in `stats`, latch a failure in `failed`.
    fn settle(&mut self, stats: &mut DurabilityStats) {
        let Some(saving) = self.saving.take() else { return };
        if !saving.is_finished() {
            stats.checkpoint_waits += 1;
        }
        let panicked = || io::Error::other("checkpoint writer thread panicked");
        match saving.join().unwrap_or_else(|_| Err(CheckpointError::Io(panicked()))) {
            Ok(()) => stats.checkpoints += 1,
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }
}

impl Drop for CheckpointWriter {
    /// Wait for the save in flight. Its failure has no caller left to take
    /// it; [`DurableEngine::wait_checkpoint`] first to see it.
    fn drop(&mut self) {
        if let Some(saving) = self.saving.take() {
            let _ = saving.join();
        }
    }
}

/// An [`EpochEngine`] whose rating stream and epoch state are durable.
#[derive(Debug)]
pub struct DurableEngine {
    engine: EpochEngine,
    wal: Wal,
    store: CheckpointStore,
    writer: CheckpointWriter,
    cfg: DurabilityConfig,
    setup: EngineSetup,
    closes_since_ckpt: u64,
    stats: DurabilityStats,
}

impl DurableEngine {
    /// Create a fresh durable engine over `dir` (created if absent; any
    /// previous WAL there is truncated — use [`DurableEngine::recover`] to
    /// resume instead).
    pub fn create(
        dir: &Path,
        nodes: &[NodeId],
        setup: EngineSetup,
        cfg: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(dir)?;
        let store = CheckpointStore::new(dir, cfg.keep_checkpoints)?;
        let mut wal = Wal::create(&dir.join(WAL_FILE), 0)?;
        if let SyncPolicy::Async { max_bytes, max_delay_micros } = cfg.sync_policy {
            wal.enable_group_commit(max_bytes, max_delay_micros)?;
        }
        let mut engine = EpochEngine::new(
            nodes,
            setup.target_shards,
            setup.method,
            setup.thresholds,
            setup.policy,
            setup.prune,
        );
        engine.set_pair_watermark(cfg.pair_watermark);
        engine.set_close_threads(setup.close_threads);
        Ok(DurableEngine {
            engine,
            wal,
            store,
            writer: CheckpointWriter::default(),
            cfg,
            setup,
            closes_since_ckpt: 0,
            stats: DurabilityStats::default(),
        })
    }

    /// Recover a durable engine from `dir`: newest valid checkpoint plus
    /// WAL-tail replay. `nodes` and `setup` must match the crashed
    /// instance's configuration (they are not stored on disk).
    pub fn recover(
        dir: &Path,
        nodes: &[NodeId],
        setup: EngineSetup,
        cfg: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let store = CheckpointStore::new(dir, cfg.keep_checkpoints)?;
        let load = store.load_latest()?;
        let mut report = RecoveryReport {
            invalid_checkpoints: load.invalid_skipped,
            stale_tmp: load.stale_tmp,
            ..RecoveryReport::default()
        };
        let (mut engine, replay_from) = match load.latest {
            Some((cursor, payload)) => {
                let (engine, cursor2) = EpochEngine::recover_from_bytes(
                    &payload,
                    setup.target_shards,
                    setup.method,
                    setup.thresholds,
                    setup.policy,
                    setup.prune,
                )
                .map_err(DurabilityError::CorruptState)?;
                debug_assert_eq!(cursor, cursor2);
                report.checkpoint_cursor = Some(cursor2);
                (engine, cursor2)
            }
            None => (
                EpochEngine::new(
                    nodes,
                    setup.target_shards,
                    setup.method,
                    setup.thresholds,
                    setup.policy,
                    setup.prune,
                ),
                0,
            ),
        };
        engine.set_close_threads(setup.close_threads);

        let wal_path = dir.join(WAL_FILE);
        let wal = if wal_path.exists() {
            // fold, count and close as the log is decoded: a
            // multi-million-rating log is never held, as bytes or as records
            let (wal, scan) = Wal::open_with(&wal_path, |seq, record| {
                // whole-log facts first: they cover the records a checkpoint
                // makes the engine skip, too
                match record {
                    WalRecord::Rating(r) if !r.is_self_rating() => report.folded_ratings += 1,
                    // the durable prefix ends mid-session exactly at the
                    // last marker that hit disk; frames past it were never
                    // acked and the resuming client retransmits them
                    WalRecord::StreamSession { session, frame_seq, accepted } => {
                        report.stream_sessions.insert(session, (frame_seq, accepted));
                    }
                    _ => {}
                }
                if seq < replay_from {
                    report.skipped_records += 1;
                    return;
                }
                report.replayed_records += 1;
                match record {
                    WalRecord::Rating(r) => {
                        report.replayed_ratings += 1;
                        engine.record(r);
                    }
                    WalRecord::EpochClose { forced } => {
                        report.replayed_closes += 1;
                        if forced {
                            engine.close_epoch_forced();
                        } else {
                            engine.close_epoch();
                        }
                    }
                    // Session watermarks are data-plane bookkeeping, not
                    // detection state; they were collected into
                    // `RecoveryReport::stream_sessions` above.
                    WalRecord::StreamSession { .. } => {}
                }
            })?;
            report.truncated_bytes = scan.truncated_bytes;
            report.wal_corruption = scan.corruption;
            if wal.next_seq() < replay_from {
                // A torn tail ate records the newest checkpoint already
                // covers (e.g. a close marker whose checkpoint hit disk
                // before the marker's sector). The checkpoint is
                // authoritative; restart the log at its cursor so sequence
                // numbers stay monotonic and a later checkpoint's cursor
                // can never move backwards.
                drop(wal);
                Wal::create(&wal_path, replay_from)?
            } else {
                wal
            }
        } else {
            Wal::create(&wal_path, replay_from)?
        };
        let mut wal = wal;
        if let SyncPolicy::Async { max_bytes, max_delay_micros } = cfg.sync_policy {
            wal.enable_group_commit(max_bytes, max_delay_micros)?;
        }
        report.next_seq = wal.next_seq();
        // replay followed the durable close markers; arm the watermark only
        // now that the log has been consumed
        engine.set_pair_watermark(cfg.pair_watermark);
        // A torn tail can eat the marker of a watermark-forced close while
        // the triggering rating stayed durable. An uncrashed engine folding
        // that prefix would have closed, so re-trigger the close here —
        // deterministic from the log bytes, hence stable across repeated
        // recoveries.
        if engine.buffer_over_watermark() {
            engine.close_epoch_forced();
        }
        store.clear_stale_tmp()?;
        Ok((
            DurableEngine {
                engine,
                wal,
                store,
                writer: CheckpointWriter::default(),
                cfg,
                setup,
                closes_since_ckpt: 0,
                stats: DurabilityStats::default(),
            },
            report,
        ))
    }

    /// Log and fold one rating. Returns the WAL sequence number under which
    /// the rating is (or will be, at the next group fsync) durable.
    pub fn record(&mut self, rating: Rating) -> Result<u64, DurabilityError> {
        let seq = self.wal.append(&WalRecord::Rating(rating))?;
        self.stats.wal_appends += 1;
        if self.cfg.sync_policy == SyncPolicy::PerRecord {
            self.wal.sync()?;
            self.stats.wal_syncs += 1;
        }
        let epochs_before = self.engine.stats().epochs;
        self.engine.record(rating);
        if self.engine.stats().epochs > epochs_before {
            // the memory watermark forced an early close
            self.log_close(true)?;
        }
        Ok(seq)
    }

    /// Log and fold a batch of ratings — the streaming data plane's entry
    /// point. Semantically a loop over [`DurableEngine::record`] (and
    /// implemented as one, so forced-close markers interleave with the
    /// rating records exactly as they did when each rating was folded —
    /// replay reproduces the same state); the WAL's internal write
    /// buffering already amortizes the syscalls across the batch. Returns
    /// the WAL byte length after the batch: once
    /// [`DurableEngine::durable_len`] reaches that target, every rating of
    /// the batch is crash-durable — the ack-at-durable watermark.
    pub fn record_batch(&mut self, ratings: &[Rating]) -> Result<u64, DurabilityError> {
        for &r in ratings {
            self.record(r)?;
        }
        Ok(self.wal.len_bytes())
    }

    /// Log one resumable-stream frame: the ratings, then the session
    /// watermark marker sealing them — a WAL replay that sees the marker
    /// is guaranteed to have seen every rating of the frame, so the
    /// rebuilt session table never claims durability the rating stream
    /// lacks. Returns the WAL byte length after the marker; once
    /// [`DurableEngine::durable_len`] covers it, the frame is
    /// crash-durable and may be acked.
    pub fn record_stream_frame(
        &mut self,
        ratings: &[Rating],
        session: u64,
        frame_seq: u64,
        accepted: u64,
    ) -> Result<u64, DurabilityError> {
        for &r in ratings {
            self.record(r)?;
        }
        self.wal.append(&WalRecord::StreamSession { session, frame_seq, accepted })?;
        self.stats.wal_appends += 1;
        if self.cfg.sync_policy == SyncPolicy::PerRecord {
            self.wal.sync()?;
            self.stats.wal_syncs += 1;
        }
        Ok(self.wal.len_bytes())
    }

    /// The WAL durable watermark in bytes (see [`Wal::durable_len`]).
    #[inline]
    pub fn durable_len(&self) -> u64 {
        self.wal.durable_len()
    }

    /// Non-blocking durability nudge (see [`Wal::request_durable`]): under
    /// [`SyncPolicy::Async`] the background committer picks up everything
    /// appended so far, letting stream acks advance without a barrier.
    pub fn request_durable(&mut self) -> Result<(), DurabilityError> {
        self.wal.request_durable()?;
        Ok(())
    }

    /// Close the open epoch durably: fold, append the close marker, fsync,
    /// and checkpoint if the interval came due.
    pub fn close_epoch(&mut self) -> Result<DetectionReport, DurabilityError> {
        let report = self.engine.close_epoch();
        self.log_close(false)?;
        Ok(report)
    }

    fn log_close(&mut self, forced: bool) -> Result<(), DurabilityError> {
        self.wal.append(&WalRecord::EpochClose { forced })?;
        self.stats.wal_appends += 1;
        self.wal.sync()?;
        self.stats.wal_syncs += 1;
        self.closes_since_ckpt += 1;
        if self.cfg.checkpoint_interval > 0
            && self.closes_since_ckpt >= self.cfg.checkpoint_interval
        {
            self.checkpoint()?;
        } else {
            // an image never outlives the epoch after the one it was
            // taken in, so after any close the directory is settled; a
            // failure waits for the next checkpoint or wait_checkpoint
            self.writer.settle(&mut self.stats);
        }
        Ok(())
    }

    /// Take a checkpoint now. Must be called at an epoch boundary (the
    /// engine's open buffer is empty right after a close; `record` never
    /// leaves one open across a forced close).
    ///
    /// The engine state is serialized here, at the current WAL cursor;
    /// writing, fsyncing and renaming the file happen on a background
    /// writer thread, and this returns as soon as the image is handed off.
    /// One image is in flight at a time: a hand-off first waits for the
    /// previous save and returns its error, if it failed, without taking a
    /// new checkpoint.
    pub fn checkpoint(&mut self) -> Result<(), DurabilityError> {
        self.wait_checkpoint()?;
        let cursor = self.wal.next_seq();
        let image = self.engine.persist_bytes(cursor);
        self.writer.hand_off(&self.store, cursor, image)?;
        self.closes_since_ckpt = 0;
        Ok(())
    }

    /// Wait until the checkpoint in flight, if any, is on disk, and return
    /// the error of a failed background save not yet returned — once:
    /// the next call returns `Ok`. [`DurableEngine::sync`] never waits for
    /// the writer; this is the one wait.
    pub fn wait_checkpoint(&mut self) -> Result<(), DurabilityError> {
        self.writer.settle(&mut self.stats);
        match self.writer.failed.take() {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// The wrapped engine (read-only; mutations must go through the logged
    /// entry points).
    #[inline]
    pub fn engine(&self) -> &EpochEngine {
        &self.engine
    }

    /// Consume the durable wrapper and return the in-memory engine. The
    /// WAL file handle closes and a checkpoint in flight lands; the
    /// directory is left on disk for [`DurableEngine::recover`].
    pub fn into_engine(self) -> EpochEngine {
        self.engine
    }

    /// The standing suspect set (no kernel work).
    pub fn report(&self) -> DetectionReport {
        self.engine.report()
    }

    /// Cumulative engine counters.
    #[inline]
    pub fn engine_stats(&self) -> EpochStats {
        self.engine.stats()
    }

    /// Durability bookkeeping counters.
    #[inline]
    pub fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// The underlying WAL (for harnesses that inspect spans/paths).
    #[inline]
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The checkpoint store.
    #[inline]
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The engine construction parameters this instance runs with (recovery
    /// must be handed the same values).
    #[inline]
    pub fn setup(&self) -> EngineSetup {
        self.setup
    }

    /// The durability configuration.
    #[inline]
    pub fn config(&self) -> DurabilityConfig {
        self.cfg
    }

    /// Force any buffered WAL appends to stable storage. A WAL barrier
    /// only: it never waits for the checkpoint writer (see
    /// [`DurableEngine::wait_checkpoint`]), so a stream ack never waits on
    /// a checkpoint.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.wal.sync()?;
        self.stats.wal_syncs += 1;
        Ok(())
    }

    /// Simulate a crash at `kill`, consuming the engine and leaving the
    /// durability directory exactly as a process death at that instant
    /// would. The in-memory state is discarded unconditionally; only the
    /// on-disk mutation differs per kill-point. A checkpoint still being
    /// written lands first: the kill-point is the instant after it.
    pub fn crash(mut self, kill: KillPoint) -> Result<(), DurabilityError> {
        self.wait_checkpoint()?;
        let DurableEngine { engine, mut wal, store, .. } = self;
        match kill {
            KillPoint::MidWalAppend => {
                // the final record's bytes only partially reached the disk
                wal.sync()?;
                let (start, end) = wal.last_record_span();
                let path = wal.path().to_path_buf();
                drop(wal);
                if end > start {
                    let tear_at = start + (end - start) / 2;
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(tear_at)?;
                    f.sync_data()?;
                }
            }
            KillPoint::MidCheckpointWrite => {
                // checkpoint temp file half-written, never renamed. The tmp
                // is torn garbage either way, so mid-epoch crashes use a
                // placeholder payload instead of a boundary serialization.
                wal.sync()?;
                let cursor = wal.next_seq();
                let payload = if engine.pending_ratings() == 0 {
                    engine.persist_bytes(cursor)
                } else {
                    vec![0u8; 256]
                };
                let image = encode_checkpoint(cursor, &payload);
                std::fs::write(store.tmp_path(cursor), &image[..image.len() / 2])?;
            }
            KillPoint::PostCheckpointRename => {
                // only meaningful at an epoch boundary (checkpoints are only
                // ever written there); harnesses drive it after close_epoch
                wal.sync()?;
                let cursor = wal.next_seq();
                let payload = engine.persist_bytes(cursor);
                store.save(cursor, &payload)?;
            }
        }
        Ok(())
    }
}

/// Create a unique scratch directory for durability tests and benches
/// (under the system temp dir; callers clean up with `remove_dir_all`).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "collusion-durable-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
