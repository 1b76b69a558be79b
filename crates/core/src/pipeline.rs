//! Pipelined concurrent ingest: sharded multi-producer intake, staged
//! epoch closes, and lock-free snapshot publication for readers.
//!
//! The serial [`EpochEngine`] runs its lifecycle — fold ratings, WAL
//! append + fsync, merge the epoch delta, re-detect candidates — on one
//! thread, so fsync latency and detection CPU serialize with intake. The
//! [`PipelinedEngine`] splits the lifecycle into three stage threads plus
//! any number of producer threads, overlapping the phases the way the
//! paper's always-on reputation manager must:
//!
//! ```text
//!  producers ──► ShardedIntake (lock-striped epoch delta, no global lock)
//!      │ rating batches
//!      ▼
//!  WAL stage ──── batch append + SyncPolicy fsync (epoch E)
//!      │ close marker + delta
//!      ▼
//!  merge stage ── apply_epoch + high flags + candidates (epoch E−1)
//!      │ ClosePlan (candidates + DetectSlice)
//!      ▼
//!  detect stage ─ kernel re-checks, verdict map (epoch E−2)
//!      │                    │
//!      │ verdict keys       ▼
//!      └──► merge     ViewCell::publish ──► ViewReader::get (queries)
//! ```
//!
//! While the WAL stage is group-committing epoch E's ratings, the merge
//! stage is folding epoch E−1's delta into the sharded snapshot, and the
//! detect stage is re-checking epoch E−2's candidates — the three phases
//! whose latencies previously added now run concurrently.
//!
//! # Bit-identical to the serial engine
//!
//! Every stage reuses the serial engine's own code: the intake drains
//! into the same sorted [`EpochDelta`] (counter arithmetic commutes, so
//! producer interleaving is erased by the sort), the merge stage runs
//! [`advance_epoch_state`]/[`enumerate_candidates`] and the detect stage
//! runs [`recheck_candidates`] — the exact functions
//! [`EpochEngine::close_epoch`] calls. The only cross-stage data
//! dependency, "candidate enumeration reads the verdict keys left by the
//! previous close", is preserved by a key echo: the detect stage returns
//! the verdict key set after every close and the merge stage blocks on
//! the echo *only* at its enumeration step, after the expensive snapshot
//! merge already ran. [`PipelinedEngine::finish`] reassembles a plain
//! [`EpochEngine`] whose entire state — snapshot cells, high flags,
//! verdict map, stats — is bit-identical to a serial engine fed the same
//! ratings (asserted by [`EpochEngine::state_eq`] in this module's tests,
//! `tests/pipeline_props.rs`, and the ingest bench).
//!
//! # Lock-free read publication
//!
//! After every close the detect stage publishes an immutable
//! [`PublishedView`] (reputations + standing suspect set) through a
//! [`ViewCell`]. Readers hold a [`ViewReader`] whose `get` fast path is a
//! single atomic version load — no lock, no allocation — and only on a
//! version change clones the new `Arc` out of the cell. Memory ordering:
//! the publisher stores the new `Arc` into the slot *before* bumping the
//! version with `Release`; a reader that observes the bumped version with
//! `Acquire` therefore synchronizes-with the bump, and everything
//! sequenced before it — including the slot store — is visible to the
//! reader's subsequent slot read. A reader that races ahead of the bump
//! simply keeps serving the previous immutable view: readers never block
//! writers, writers never wait for readers.
//!
//! # Durability
//!
//! With [`PipelinedEngine::with_wal`] the WAL stage writes the same
//! `engine.wal` format the [`crate::durability::DurableEngine`] uses:
//! rating records batched per producer flush, an epoch-close marker +
//! fsync at every close (closes are always durable), rating appends
//! fsync'd per the configured [`SyncPolicy`]. A crashed pipelined
//! directory is recovered by `DurableEngine::recover` — with no
//! checkpoints present it replays the whole log through the serial
//! engine, which the pipelined engine is bit-identical to. Checkpoints
//! and the epoch-buffer watermark are not supported in pipelined mode.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use collusion_reputation::epoch::EpochDelta;
use collusion_reputation::fxhash::FxHashMap;
use collusion_reputation::history::{NodeTotals, PairCounters};
use collusion_reputation::id::NodeId;
use collusion_reputation::ingest::ShardedIntake;
use collusion_reputation::par;
use collusion_reputation::rating::Rating;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::view::SnapshotView;
use collusion_reputation::wal::{SyncPolicy, Wal, WalRecord};

use crate::basic::BasicDetector;
use crate::durability::{DurabilityError, EngineSetup};
use crate::epoch::{
    advance_epoch_state, enumerate_candidates, initial_state, recheck_candidates, CandidateParams,
    CloseScratch, EngineParts, EpochEngine, EpochStats, RecheckKernels, RecheckScratch,
};
use crate::model::SuspectPair;
use crate::optimized::OptimizedDetector;
use crate::report::DetectionReport;

/// WAL file name inside a pipelined durability directory (same layout as
/// the serial [`crate::durability::DurableEngine`], so its recovery path
/// applies unchanged).
const WAL_FILE: &str = "engine.wal";

/// Tuning knobs of the pipelined engine.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Detection configuration (shared with the serial engine).
    pub setup: EngineSetup,
    /// Lock stripes in the sharded intake (≥ 1).
    pub intake_shards: usize,
    /// Ratings buffered per producer before a WAL batch is shipped.
    pub batch: usize,
    /// Fsync schedule for rating appends; epoch closes always fsync.
    /// Defaults to [`SyncPolicy::Group`] — the pipeline's group commit:
    /// rating appends ride on the next close's fsync.
    pub sync_policy: SyncPolicy,
}

impl PipelineConfig {
    /// Defaults around a detection setup: 8 intake stripes, 256-rating
    /// producer batches, group-commit durability.
    pub fn new(setup: EngineSetup) -> Self {
        PipelineConfig { setup, intake_shards: 8, batch: 256, sync_policy: SyncPolicy::Group }
    }
}

/// Pipeline bookkeeping counters (the engine counters live in
/// [`EpochStats`] as usual).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// WAL records appended (ratings + close markers); 0 without a WAL.
    pub wal_appends: u64,
    /// Fsyncs issued by the WAL stage; 0 without a WAL.
    pub wal_syncs: u64,
    /// Rating batches shipped by producers.
    pub batches: u64,
    /// Microseconds the WAL stage spent appending and fsyncing.
    pub wal_busy_us: u64,
    /// WAL stage lifetime, microseconds (spawn → finish).
    pub wal_elapsed_us: u64,
    /// Microseconds the merge stage spent folding deltas and enumerating
    /// candidates (the verdict-key echo wait is excluded — that is time
    /// blocked on the detect stage, not merge work).
    pub merge_busy_us: u64,
    /// Merge stage lifetime, microseconds.
    pub merge_elapsed_us: u64,
    /// Microseconds the detect stage spent re-checking and publishing.
    pub detect_busy_us: u64,
    /// Detect stage lifetime, microseconds.
    pub detect_elapsed_us: u64,
    /// Nanoseconds spent in [`advance_epoch_state`] across all closes
    /// (steps 1–2: delta merge + high-flag recompute, merge stage).
    pub close_advance_ns: u64,
    /// Nanoseconds spent in [`enumerate_candidates`] across all closes
    /// (step 3, merge stage).
    pub close_enumerate_ns: u64,
    /// Nanoseconds spent in [`recheck_candidates`] across all closes
    /// (step 4, detect stage).
    pub close_recheck_ns: u64,
}

impl PipelineStats {
    /// Busy fraction of the WAL stage over its lifetime, in `[0, 1]`.
    pub fn wal_occupancy(&self) -> f64 {
        occupancy(self.wal_busy_us, self.wal_elapsed_us)
    }

    /// Busy fraction of the merge stage over its lifetime, in `[0, 1]`.
    pub fn merge_occupancy(&self) -> f64 {
        occupancy(self.merge_busy_us, self.merge_elapsed_us)
    }

    /// Busy fraction of the detect (re-check) stage over its lifetime, in
    /// `[0, 1]`.
    pub fn detect_occupancy(&self) -> f64 {
        occupancy(self.detect_busy_us, self.detect_elapsed_us)
    }
}

fn occupancy(busy_us: u64, elapsed_us: u64) -> f64 {
    if elapsed_us == 0 {
        return 0.0;
    }
    (busy_us as f64 / elapsed_us as f64).min(1.0)
}

// ----- Lock-free read publication ---------------------------------------

/// An immutable read view published at an epoch close: everything a
/// query path needs, behind one `Arc`.
#[derive(Clone, Debug)]
pub struct PublishedView {
    /// The close (1-based) this view reflects; 0 = initial empty state.
    pub epoch: u64,
    /// Interned node ids, ascending (dense index → id). Shared behind an
    /// `Arc`: the id set only changes when a close interns fresh nodes, so
    /// successive views usually alias one allocation instead of each close
    /// copying the full vector.
    pub nodes: Arc<Vec<NodeId>>,
    /// Signed reputation per dense index.
    pub signed: Vec<i64>,
    /// Standing suspect set as of this close.
    pub report: DetectionReport,
}

impl PublishedView {
    /// Signed reputation of `id`, `None` if never rated.
    pub fn reputation(&self, id: NodeId) -> Option<i64> {
        self.nodes.binary_search(&id).ok().map(|i| self.signed[i])
    }
}

/// Single-writer multi-reader cell holding the current [`PublishedView`].
///
/// Publication protocol (the module docs give the full argument): the
/// writer replaces the slot, then bumps `version` with `Release`; readers
/// check `version` with `Acquire` and reread the slot only on a change.
/// The `RwLock` is held only for the duration of an `Arc` clone or store
/// — never while detection or query work runs — and the reader fast path
/// does not touch it at all.
#[derive(Debug)]
pub struct ViewCell {
    slot: RwLock<Arc<PublishedView>>,
    version: AtomicU64,
}

impl ViewCell {
    /// Cell starting at `initial` (version 0). Public so other single-writer
    /// owners — the TCP [`crate::net::server::ManagerNode`] — can reuse the
    /// same publication protocol the pipelined engine uses.
    pub fn new(initial: PublishedView) -> Self {
        ViewCell { slot: RwLock::new(Arc::new(initial)), version: AtomicU64::new(0) }
    }

    /// Monotonic publication counter (bumped once per close).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clone the current view out of the cell.
    pub fn load(&self) -> Arc<PublishedView> {
        self.slot.read().expect("view cell poisoned").clone()
    }

    /// Replace the published view and bump the version. Single-writer by
    /// convention: only the cell's owning stage/server calls this.
    pub fn publish(&self, view: Arc<PublishedView>) {
        *self.slot.write().expect("view cell poisoned") = view;
        // Release: the slot store above happens-before any Acquire load
        // that observes the bumped version
        self.version.fetch_add(1, Ordering::Release);
    }

    /// A lock-free reader handle over this cell.
    pub fn reader(self: &Arc<Self>) -> ViewReader {
        ViewReader { cached: self.load(), seen: self.version(), cell: Arc::clone(self) }
    }
}

/// A query-side handle whose `get` fast path is one atomic load.
#[derive(Debug)]
pub struct ViewReader {
    cell: Arc<ViewCell>,
    cached: Arc<PublishedView>,
    seen: u64,
}

impl ViewReader {
    /// The current view. Wait-free when nothing was published since the
    /// last call (one `Acquire` version load); on a version change, one
    /// brief read-lock to clone the new `Arc` out.
    pub fn get(&mut self) -> &Arc<PublishedView> {
        let v = self.cell.version.load(Ordering::Acquire);
        if v != self.seen {
            self.cached = self.cell.load();
            self.seen = v;
        }
        &self.cached
    }
}

// ----- Detect slice ------------------------------------------------------

/// One snapshot row frozen for the detect stage.
#[derive(Clone, Debug)]
struct SliceRow {
    id: NodeId,
    cols: Vec<u32>,
    cells: Vec<PairCounters>,
    totals: NodeTotals,
    /// What `ShardedSnapshot::frequent_agg(t_n, idx)` returned at slice
    /// build time (`None` when aggregates are not precomputed — the
    /// kernels then fall back to `row_freq` over `cols`/`cells`, exactly
    /// as they would on the full snapshot).
    freq: Option<(u64, i64)>,
}

/// A partial [`SnapshotView`] covering exactly the candidate-pair
/// endpoints of one close, frozen by the merge stage so the detect stage
/// can re-check candidates while the merge stage already folds the next
/// epoch. [`recheck_candidates`] probes only endpoint rows, totals and
/// pair cells — all mirrored here cell-for-cell — so running it over the
/// slice is bit-identical to running it over the snapshot the slice was
/// cut from.
#[derive(Clone, Debug, Default)]
pub(crate) struct DetectSlice {
    n: usize,
    t_n: u64,
    rows: HashMap<u32, SliceRow>,
}

impl DetectSlice {
    /// Freeze the rows of every endpoint in `cands` out of `snap`.
    fn build(snap: &ShardedSnapshot, cands: &[(u32, u32)], t_n: u64) -> Self {
        let mut rows = HashMap::with_capacity(cands.len() * 2);
        for &(i, j) in cands {
            for idx in [i, j] {
                rows.entry(idx).or_insert_with(|| {
                    let (cols, cells) = snap.row(idx);
                    SliceRow {
                        id: snap.node_id(idx),
                        cols: cols.to_vec(),
                        cells: cells.to_vec(),
                        totals: snap.totals_of(idx),
                        freq: snap.frequent_agg(t_n, idx),
                    }
                });
            }
        }
        DetectSlice { n: snap.n(), t_n, rows }
    }

    fn row_of(&self, idx: u32) -> &SliceRow {
        self.rows.get(&idx).expect("detect slice missing a candidate endpoint row")
    }
}

impl SnapshotView for DetectSlice {
    fn n(&self) -> usize {
        self.n
    }

    fn nodes(&self) -> &[NodeId] {
        &[] // not probed by the re-check kernels
    }

    fn node_id(&self, idx: u32) -> NodeId {
        self.row_of(idx).id
    }

    fn index(&self, _id: NodeId) -> Option<u32> {
        None // not probed by the re-check kernels
    }

    fn nnz(&self) -> usize {
        0 // not probed by the re-check kernels
    }

    fn row(&self, idx: u32) -> (&[u32], &[PairCounters]) {
        let r = self.row_of(idx);
        (&r.cols, &r.cells)
    }

    fn pair(&self, rater: u32, ratee: u32) -> PairCounters {
        // same probe the sharded snapshot uses: binary search inside the
        // ratee's forward row
        let (cols, cells) = self.row(ratee);
        match cols.binary_search(&rater) {
            Ok(pos) => cells[pos],
            Err(_) => PairCounters::default(),
        }
    }

    fn totals_of(&self, idx: u32) -> NodeTotals {
        self.row_of(idx).totals
    }

    fn frequent_agg(&self, t_n: u64, idx: u32) -> Option<(u64, i64)> {
        if t_n != self.t_n {
            return None;
        }
        self.row_of(idx).freq
    }
}

// ----- Stage messages ----------------------------------------------------

enum WalMsg {
    /// A producer's flushed rating batch.
    Ratings(Vec<Rating>),
    /// Close the epoch whose delta was drained from the intake.
    Close {
        delta: EpochDelta,
    },
    Finish,
}

enum MergeMsg {
    Close { epoch: u64, delta: EpochDelta },
    Finish,
}

/// Everything the detect stage needs for one close, frozen by the merge
/// stage.
struct ClosePlan {
    epoch: u64,
    ratings: u64,
    cands: Vec<(u32, u32)>,
    slice: DetectSlice,
    high: Vec<bool>,
    /// Per-row prunability flags batch-computed by the merge stage from
    /// the same snapshot state the slice was frozen from; empty when
    /// pruning is off (or the close was empty).
    prunable: Vec<u8>,
    nodes: Arc<Vec<NodeId>>,
    signed: Vec<i64>,
}

enum DetectMsg {
    Plan(Box<ClosePlan>),
    Finish,
}

struct WalStageOut {
    appends: u64,
    syncs: u64,
    busy_us: u64,
    elapsed_us: u64,
}

struct MergeStageOut {
    snap: ShardedSnapshot,
    high: Vec<bool>,
    epochs: u64,
    ratings: u64,
    candidates: u64,
    busy_us: u64,
    elapsed_us: u64,
    advance_ns: u64,
    enumerate_ns: u64,
}

struct DetectStageOut {
    verdicts: BTreeMap<(NodeId, NodeId), SuspectPair>,
    checked: u64,
    pruned: u64,
    busy_us: u64,
    elapsed_us: u64,
    recheck_ns: u64,
}

// ----- Producer handle ---------------------------------------------------

/// A producer-thread handle: aggregates ratings into a private delta map
/// and ships them to the shared intake and the WAL stage in batches.
/// Cheap to create, one per producer thread. Dropping the handle flushes
/// its open batch.
///
/// The private map is what makes producer scaling monotone: a submit
/// touches no shared state at all (no lock, no atomic), so N producers
/// only meet at flush boundaries — once per `batch` ratings — where
/// [`ShardedIntake::merge_cells`] locks each stripe once per flush
/// instead of once per rating.
///
/// Quiesce contract: every handle must be flushed (or dropped) before
/// [`PipelinedEngine::close_epoch`] — producer sends then happen-before
/// the close marker's send, so the WAL stage appends every rating of the
/// epoch before its marker.
#[derive(Debug)]
pub struct IngestHandle {
    intake: Arc<ShardedIntake>,
    tx: Sender<WalMsg>,
    buf: Vec<Rating>,
    /// Producer-local (ratee, rater) → counter aggregation since the last
    /// flush; folded into the shared intake via `merge_cells`.
    local: FxHashMap<(NodeId, NodeId), PairCounters>,
    /// Reused drain buffer for the local map's cells.
    cells: Vec<(NodeId, NodeId, PairCounters)>,
    /// Raw ratings aggregated in `local`.
    local_ratings: u64,
    batch: usize,
    batches: Arc<AtomicU64>,
}

impl IngestHandle {
    /// Fold one rating into the open epoch (self-ratings rejected, like
    /// [`EpochEngine::record`]). Touches only producer-local state; the
    /// shared intake sees the aggregate at the next flush.
    pub fn submit(&mut self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        self.local.entry((rating.ratee, rating.rater)).or_default().accumulate(rating.value);
        self.local_ratings += 1;
        self.buf.push(rating);
        if self.buf.len() >= self.batch {
            self.flush();
        }
        true
    }

    /// Fold the local aggregate into the shared intake and ship the open
    /// rating batch to the WAL stage (no-op when empty).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.cells.extend(self.local.drain().map(|((ratee, rater), c)| (ratee, rater, c)));
        self.intake.merge_cells(&mut self.cells, self.local_ratings);
        self.local_ratings = 0;
        // hand the batch off at full capacity: `take` would leave an empty
        // buffer that regrows through every power of two on the next fill
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch));
        self.batches.fetch_add(1, Ordering::Relaxed);
        // the engine may already be finishing; ratings are then folded but
        // unlogged, exactly like a crash before the tail fsync
        let _ = self.tx.send(WalMsg::Ratings(batch));
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

// ----- The engine --------------------------------------------------------

/// The staged concurrent twin of [`EpochEngine`] (see module docs).
#[derive(Debug)]
pub struct PipelinedEngine {
    intake: Arc<ShardedIntake>,
    wal_tx: Sender<WalMsg>,
    reports_rx: Receiver<(u64, DetectionReport)>,
    view: Arc<ViewCell>,
    batch: usize,
    batches: Arc<AtomicU64>,
    epochs_closed: u64,
    setup: EngineSetup,
    wal_join: JoinHandle<WalStageOut>,
    merge_join: JoinHandle<MergeStageOut>,
    detect_join: JoinHandle<DetectStageOut>,
}

impl PipelinedEngine {
    /// In-memory pipelined engine (no WAL) over `nodes`.
    pub fn new(nodes: &[NodeId], cfg: PipelineConfig) -> Self {
        Self::build(nodes, cfg, None)
    }

    /// Pipelined engine whose WAL stage logs to `dir` (created if absent;
    /// a previous `engine.wal` there is truncated). Recover the directory
    /// after a crash with [`crate::durability::DurableEngine::recover`].
    pub fn with_wal(
        dir: &Path,
        nodes: &[NodeId],
        cfg: PipelineConfig,
    ) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(dir)?;
        let wal = Wal::create(&dir.join(WAL_FILE), 0)?;
        Ok(Self::build(nodes, cfg, Some(wal)))
    }

    fn build(nodes: &[NodeId], cfg: PipelineConfig, wal: Option<Wal>) -> Self {
        let setup = cfg.setup;
        let (snap, high) = initial_state(nodes, setup.target_shards, setup.thresholds);
        let initial = PublishedView {
            epoch: 0,
            nodes: Arc::new(snap.nodes().to_vec()),
            signed: (0..snap.n() as u32).map(|i| snap.signed(i)).collect(),
            report: DetectionReport::default(),
        };
        let view = Arc::new(ViewCell::new(initial));

        let (wal_tx, wal_rx) = channel::<WalMsg>();
        let (merge_tx, merge_rx) = channel::<MergeMsg>();
        let (detect_tx, detect_rx) = channel::<DetectMsg>();
        let (keys_tx, keys_rx) = channel::<Vec<(NodeId, NodeId)>>();
        let (reports_tx, reports_rx) = channel::<(u64, DetectionReport)>();

        let wal_join =
            std::thread::spawn(move || wal_stage(wal, cfg.sync_policy, wal_rx, merge_tx));
        let merge_join = std::thread::spawn(move || {
            merge_stage(snap, high, setup, merge_rx, keys_rx, detect_tx)
        });
        let view_for_detect = Arc::clone(&view);
        let detect_join = std::thread::spawn(move || {
            detect_stage(setup, detect_rx, keys_tx, reports_tx, view_for_detect)
        });

        PipelinedEngine {
            intake: Arc::new(ShardedIntake::new(cfg.intake_shards)),
            wal_tx,
            reports_rx,
            view,
            batch: cfg.batch.max(1),
            batches: Arc::new(AtomicU64::new(0)),
            epochs_closed: 0,
            setup,
            wal_join,
            merge_join,
            detect_join,
        }
    }

    /// A new producer handle (one per producer thread).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            intake: Arc::clone(&self.intake),
            tx: self.wal_tx.clone(),
            buf: Vec::with_capacity(self.batch),
            local: FxHashMap::default(),
            cells: Vec::new(),
            local_ratings: 0,
            batch: self.batch,
            batches: Arc::clone(&self.batches),
        }
    }

    /// A lock-free reader over the published views.
    pub fn reader(&self) -> ViewReader {
        ViewReader {
            cached: self.view.load(),
            seen: self.view.version(),
            cell: Arc::clone(&self.view),
        }
    }

    /// The current published view (one-shot; use [`PipelinedEngine::reader`]
    /// on hot query paths).
    pub fn view(&self) -> Arc<PublishedView> {
        self.view.load()
    }

    /// Close the open epoch asynchronously: drain the intake and hand the
    /// delta to the pipeline. Returns the 1-based epoch number; its report
    /// arrives via [`PipelinedEngine::wait_epoch`] (or the published
    /// view). All producer handles must be flushed first (quiesce
    /// contract — see [`IngestHandle`]).
    pub fn close_epoch(&mut self) -> u64 {
        let delta = self.intake.drain();
        self.epochs_closed += 1;
        self.wal_tx.send(WalMsg::Close { delta }).expect("pipeline WAL stage hung up");
        self.epochs_closed
    }

    /// Block until `epoch`'s report is available and return it. Reports
    /// arrive in close order; waiting on epoch `k` also drains `< k`.
    pub fn wait_epoch(&mut self, epoch: u64) -> DetectionReport {
        loop {
            let (e, report) = self.reports_rx.recv().expect("pipeline detect stage hung up");
            if e >= epoch {
                return report;
            }
        }
    }

    /// [`PipelinedEngine::close_epoch`] + [`PipelinedEngine::wait_epoch`]:
    /// the serial-engine-shaped synchronous close.
    pub fn close_epoch_sync(&mut self) -> DetectionReport {
        let epoch = self.close_epoch();
        self.wait_epoch(epoch)
    }

    /// Epochs closed so far.
    #[inline]
    pub fn epochs_closed(&self) -> u64 {
        self.epochs_closed
    }

    /// Ratings folded into the open epoch (exact once producers quiesce).
    #[inline]
    pub fn pending_ratings(&self) -> u64 {
        self.intake.ratings()
    }

    /// Drain the pipeline and reassemble the serial [`EpochEngine`] it is
    /// bit-identical to, plus the pipeline counters. All producer handles
    /// must be dropped or flushed first; ratings still in the intake were
    /// never closed, so they are re-folded into the returned engine's open
    /// buffer, preserving `pending_ratings` semantics.
    pub fn finish(self) -> (EpochEngine, PipelineStats) {
        // anything still in the intake was never closed; re-fold it into
        // the returned engine's open buffer below
        let tail = self.intake.drain();
        self.wal_tx.send(WalMsg::Finish).expect("pipeline WAL stage hung up");
        let wal_out = self.wal_join.join().expect("WAL stage panicked");
        let merge_out = self.merge_join.join().expect("merge stage panicked");
        let detect_out = self.detect_join.join().expect("detect stage panicked");
        // drain any reports the caller never waited for
        while self.reports_rx.try_recv().is_ok() {}
        let stats = EpochStats {
            epochs: merge_out.epochs,
            ratings: merge_out.ratings,
            candidates: merge_out.candidates,
            checked: detect_out.checked,
            pruned: detect_out.pruned,
            forced_closes: 0,
        };
        let mut engine = EpochEngine::from_parts(EngineParts {
            thresholds: self.setup.thresholds,
            policy: self.setup.policy,
            method: self.setup.method,
            prune: self.setup.prune,
            snap: merge_out.snap,
            high: merge_out.high,
            verdicts: detect_out.verdicts,
            stats,
            close_threads: self.setup.close_threads,
        });
        for (ratee, rater, c) in tail.entries {
            engine.refold_counters(ratee, rater, c);
        }
        (
            engine,
            PipelineStats {
                wal_appends: wal_out.appends,
                wal_syncs: wal_out.syncs,
                batches: self.batches.load(Ordering::Relaxed),
                wal_busy_us: wal_out.busy_us,
                wal_elapsed_us: wal_out.elapsed_us,
                merge_busy_us: merge_out.busy_us,
                merge_elapsed_us: merge_out.elapsed_us,
                detect_busy_us: detect_out.busy_us,
                detect_elapsed_us: detect_out.elapsed_us,
                close_advance_ns: merge_out.advance_ns,
                close_enumerate_ns: merge_out.enumerate_ns,
                close_recheck_ns: detect_out.recheck_ns,
            },
        )
    }
}

// ----- Stage bodies ------------------------------------------------------

fn wal_stage(
    mut wal: Option<Wal>,
    sync_policy: SyncPolicy,
    rx: Receiver<WalMsg>,
    merge_tx: Sender<MergeMsg>,
) -> WalStageOut {
    if let (Some(w), SyncPolicy::Async { max_bytes, max_delay_micros }) =
        (wal.as_mut(), sync_policy)
    {
        w.enable_group_commit(max_bytes, max_delay_micros)
            .expect("pipeline WAL group commit setup failed");
    }
    let stage_start = std::time::Instant::now();
    let mut busy = std::time::Duration::ZERO;
    let mut out = WalStageOut { appends: 0, syncs: 0, busy_us: 0, elapsed_us: 0 };
    let mut pending = 0u64;
    let mut epoch = 0u64;
    while let Ok(msg) = rx.recv() {
        let work_start = std::time::Instant::now();
        match msg {
            WalMsg::Ratings(batch) => {
                if let Some(w) = wal.as_mut() {
                    w.append_ratings(&batch).expect("pipeline WAL batch append failed");
                    out.appends += batch.len() as u64;
                    pending += batch.len() as u64;
                    if sync_policy.due(pending) {
                        w.sync().expect("pipeline WAL fsync failed");
                        out.syncs += 1;
                        pending = 0;
                    }
                }
            }
            WalMsg::Close { delta } => {
                if let Some(w) = wal.as_mut() {
                    // closes are always durable, whatever the policy: the
                    // marker's fsync is the group-commit point covering
                    // every rating append since the last sync
                    w.append(&WalRecord::EpochClose { forced: false })
                        .expect("pipeline WAL marker append failed");
                    w.sync().expect("pipeline WAL fsync failed");
                    out.appends += 1;
                    out.syncs += 1;
                    pending = 0;
                }
                epoch += 1;
                if merge_tx.send(MergeMsg::Close { epoch, delta }).is_err() {
                    busy += work_start.elapsed();
                    break; // downstream gone; nothing left to forward to
                }
            }
            WalMsg::Finish => {
                if let Some(w) = wal.as_mut() {
                    if pending > 0 {
                        w.sync().expect("pipeline WAL fsync failed");
                        out.syncs += 1;
                    }
                }
                let _ = merge_tx.send(MergeMsg::Finish);
                busy += work_start.elapsed();
                break;
            }
        }
        busy += work_start.elapsed();
    }
    out.busy_us = busy.as_micros() as u64;
    out.elapsed_us = stage_start.elapsed().as_micros().max(1) as u64;
    out
}

fn merge_stage(
    mut snap: ShardedSnapshot,
    mut high: Vec<bool>,
    setup: EngineSetup,
    rx: Receiver<MergeMsg>,
    keys_rx: Receiver<Vec<(NodeId, NodeId)>>,
    detect_tx: Sender<DetectMsg>,
) -> MergeStageOut {
    let optimized = OptimizedDetector::with_policy(setup.thresholds, setup.policy);
    let prune_on = setup.prune && !setup.policy.community_excludes_frequent;
    // the merge stage thread is the fork point of the parallel close:
    // steps 1–3 fan out across `threads` scoped workers per close
    let threads = par::resolve_threads(setup.close_threads);
    let mut scratch = CloseScratch::default();
    let mut verdict_keys: Vec<(NodeId, NodeId)> = Vec::new();
    // Shared node-id vector for the published views: re-materialized only
    // when a close interned fresh ids (the id set, and hence `n`, only
    // ever grows), otherwise every plan aliases the same allocation.
    let mut nodes_cache: Arc<Vec<NodeId>> = Arc::new(snap.nodes().to_vec());
    let mut outstanding = 0u64; // plans sent whose key echo is unread
    let mut epochs = 0u64;
    let mut ratings = 0u64;
    let mut candidates = 0u64;
    let mut advance_ns = 0u64;
    let mut enumerate_ns = 0u64;
    let stage_start = std::time::Instant::now();
    let mut busy = std::time::Duration::ZERO;
    while let Ok(msg) = rx.recv() {
        let work_start = std::time::Instant::now();
        let mut echo_wait = std::time::Duration::ZERO;
        match msg {
            MergeMsg::Close { epoch, delta } => {
                epochs += 1;
                ratings += delta.ratings;
                let (cands, slice, prunable) = if delta.is_empty() {
                    // serial close short-circuits here too: no snapshot
                    // advance, verdicts untouched
                    (Vec::new(), DetectSlice::default(), Vec::new())
                } else {
                    // overlap point: the snapshot merge below runs while
                    // the detect stage still re-checks the previous epoch
                    let t0 = std::time::Instant::now();
                    let flips = advance_epoch_state(
                        &mut snap,
                        &mut high,
                        &setup.thresholds,
                        &delta,
                        threads,
                    );
                    advance_ns += t0.elapsed().as_nanos() as u64;
                    // the one true data dependency: candidate enumeration
                    // needs the verdict keys as of the previous close —
                    // time blocked here is waiting on the detect stage,
                    // not merge work, so it is carved out of `busy`
                    let echo_start = std::time::Instant::now();
                    while outstanding > 0 {
                        verdict_keys = keys_rx.recv().expect("pipeline detect stage hung up");
                        outstanding -= 1;
                    }
                    echo_wait = echo_start.elapsed();
                    let params = CandidateParams {
                        optimized: &optimized,
                        require_mutual: setup.policy.require_mutual,
                        prune_on,
                    };
                    let t1 = std::time::Instant::now();
                    enumerate_candidates(
                        &snap,
                        &high,
                        &params,
                        &delta,
                        &flips,
                        verdict_keys.iter().copied(),
                        &mut scratch,
                        threads,
                    );
                    enumerate_ns += t1.elapsed().as_nanos() as u64;
                    let cands = scratch.cands.clone();
                    let slice = DetectSlice::build(&snap, &cands, setup.thresholds.t_n);
                    // ship the batch prunability flags with the plan: they
                    // were computed from exactly the state the slice froze
                    let prunable = if prune_on { scratch.memo.clone() } else { Vec::new() };
                    (cands, slice, prunable)
                };
                candidates += cands.len() as u64;
                if nodes_cache.len() != snap.n() {
                    nodes_cache = Arc::new(snap.nodes().to_vec());
                }
                // signed reputations straight off the SoA totals columns:
                // contiguous loads instead of a shard-resolving probe per row
                let mut signed = Vec::with_capacity(snap.n());
                for tc in snap.totals_columns() {
                    for k in 0..tc.total.len() {
                        let t = NodeTotals {
                            total: tc.total[k],
                            positive: tc.positive[k],
                            negative: tc.negative[k],
                        };
                        signed.push(t.signed());
                    }
                }
                let plan = ClosePlan {
                    epoch,
                    ratings: delta.ratings,
                    cands,
                    slice,
                    high: high.clone(),
                    prunable,
                    nodes: Arc::clone(&nodes_cache),
                    signed,
                };
                outstanding += 1;
                if detect_tx.send(DetectMsg::Plan(Box::new(plan))).is_err() {
                    busy += work_start.elapsed().saturating_sub(echo_wait);
                    break;
                }
            }
            MergeMsg::Finish => {
                let _ = detect_tx.send(DetectMsg::Finish);
                break;
            }
        }
        busy += work_start.elapsed().saturating_sub(echo_wait);
    }
    MergeStageOut {
        snap,
        high,
        epochs,
        ratings,
        candidates,
        busy_us: busy.as_micros() as u64,
        elapsed_us: stage_start.elapsed().as_micros().max(1) as u64,
        advance_ns,
        enumerate_ns,
    }
}

fn detect_stage(
    setup: EngineSetup,
    rx: Receiver<DetectMsg>,
    keys_tx: Sender<Vec<(NodeId, NodeId)>>,
    reports_tx: Sender<(u64, DetectionReport)>,
    view: Arc<ViewCell>,
) -> DetectStageOut {
    let basic = BasicDetector::with_policy(setup.thresholds, setup.policy);
    let optimized = OptimizedDetector::with_policy(setup.thresholds, setup.policy);
    let kernels = RecheckKernels {
        method: setup.method,
        require_mutual: setup.policy.require_mutual,
        prune_active: setup.prune && !setup.policy.community_excludes_frequent,
        basic: &basic,
        optimized: &optimized,
    };
    let threads = par::resolve_threads(setup.close_threads);
    let mut verdicts: BTreeMap<(NodeId, NodeId), SuspectPair> = BTreeMap::new();
    // persistent per-thread scratch: steady-state closes allocate nothing
    let mut scratch = RecheckScratch::default();
    let mut checked = 0u64;
    let mut pruned = 0u64;
    let mut recheck_ns = 0u64;
    let stage_start = std::time::Instant::now();
    let mut busy = std::time::Duration::ZERO;
    while let Ok(msg) = rx.recv() {
        let plan = match msg {
            DetectMsg::Plan(plan) => plan,
            DetectMsg::Finish => break,
        };
        let work_start = std::time::Instant::now();
        let out = recheck_candidates(
            &kernels,
            &plan.slice,
            &plan.high,
            &plan.cands,
            &plan.prunable,
            &mut verdicts,
            &mut scratch,
            threads,
        );
        recheck_ns += work_start.elapsed().as_nanos() as u64;
        checked += out.checked;
        pruned += out.pruned;
        // echo the verdict keys back so the merge stage can enumerate the
        // next epoch's candidates against post-close state
        let _ = keys_tx.send(verdicts.keys().copied().collect());
        let _ = plan.ratings; // per-epoch rating count travels with the plan for debugging
        view.publish(Arc::new(PublishedView {
            epoch: plan.epoch,
            nodes: plan.nodes,
            signed: plan.signed,
            report: out.report.clone(),
        }));
        let _ = reports_tx.send((plan.epoch, out.report));
        busy += work_start.elapsed();
    }
    DetectStageOut {
        verdicts,
        checked,
        pruned,
        busy_us: busy.as_micros() as u64,
        elapsed_us: stage_start.elapsed().as_micros().max(1) as u64,
        recheck_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{scratch_dir, DurabilityConfig, DurableEngine};
    use crate::epoch::EpochMethod;
    use crate::policy::DetectionPolicy;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::RatingValue;
    use collusion_reputation::thresholds::Thresholds;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Pseudo-random rating stream over `ids`, biased positive, with a
    /// planted mutual-boost pair (ids[0], ids[1]) — the same shape the
    /// serial engine's bit-identity tests use.
    fn epoch_ratings(ids: &[u64], count: usize, seed: u64, t0: u64) -> Vec<Rating> {
        let mut s = seed;
        let mut out = Vec::with_capacity(count + 8);
        for k in 0..count {
            let rater = ids[(splitmix(&mut s) % ids.len() as u64) as usize];
            let ratee = ids[(splitmix(&mut s) % ids.len() as u64) as usize];
            if rater == ratee {
                continue;
            }
            let v = match splitmix(&mut s) % 10 {
                0 => RatingValue::Negative,
                1 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            out.push(Rating::new(NodeId(rater), NodeId(ratee), v, SimTime(t0 + k as u64)));
        }
        for k in 0..4 {
            out.push(Rating::positive(NodeId(ids[0]), NodeId(ids[1]), SimTime(t0 + 9000 + k)));
            out.push(Rating::positive(NodeId(ids[1]), NodeId(ids[0]), SimTime(t0 + 9100 + k)));
        }
        out
    }

    fn setup(method: EpochMethod, policy: DetectionPolicy, prune: bool) -> EngineSetup {
        EngineSetup {
            target_shards: 4,
            method,
            thresholds: Thresholds::new(1.0, 3, 0.8, 0.4),
            policy,
            prune,
            close_threads: 0,
        }
    }

    /// Run the same 6-epoch stream (new nodes appear at epoch 3) through a
    /// serial engine and a pipelined engine with `producers` threads; every
    /// per-epoch report and the final engine state must be bit-identical.
    fn check_pipelined_matches_serial(s: EngineSetup, producers: usize, seed: u64) {
        let base_ids: Vec<u64> = (1..=12).collect();
        let nodes: Vec<NodeId> = base_ids.iter().map(|&i| NodeId(i)).collect();
        let mut serial =
            EpochEngine::new(&nodes, s.target_shards, s.method, s.thresholds, s.policy, s.prune);
        let mut cfg = PipelineConfig::new(s);
        cfg.batch = 16; // small batches so tests exercise multiple flushes
        let mut piped = PipelinedEngine::new(&nodes, cfg);
        for epoch in 0..6u64 {
            let ids: Vec<u64> = if epoch >= 3 {
                base_ids.iter().copied().chain([40, 41]).collect()
            } else {
                base_ids.clone()
            };
            let ratings = epoch_ratings(&ids, 60, seed ^ (epoch + 1), epoch * 10_000);
            for &r in &ratings {
                serial.record(r);
            }
            let serial_report = serial.close_epoch();
            if producers <= 1 {
                let mut h = piped.handle();
                for &r in &ratings {
                    h.submit(r);
                }
            } else {
                let mut handles: Vec<IngestHandle> =
                    (0..producers).map(|_| piped.handle()).collect();
                std::thread::scope(|scope| {
                    for (p, (h, chunk)) in handles
                        .iter_mut()
                        .zip(ratings.chunks(ratings.len().div_ceil(producers)))
                        .enumerate()
                    {
                        scope.spawn(move || {
                            let _ = p;
                            for &r in chunk {
                                h.submit(r);
                            }
                            h.flush();
                        });
                    }
                });
            }
            let piped_report = piped.close_epoch_sync();
            assert_eq!(
                piped_report.pairs, serial_report.pairs,
                "epoch {epoch} suspect sets diverged ({producers} producers)"
            );
            assert_eq!(
                piped_report.cost, serial_report.cost,
                "epoch {epoch} kernel cost diverged ({producers} producers)"
            );
        }
        let (finished, pstats) = piped.finish();
        assert!(pstats.batches > 0);
        if let Some(diff) = finished.state_diff(&serial) {
            panic!("pipelined state diverged from serial: {diff}");
        }
        assert!(finished.state_eq(&serial));
    }

    #[test]
    fn pipelined_matches_serial_optimized_strict() {
        check_pipelined_matches_serial(
            setup(EpochMethod::Optimized, DetectionPolicy::STRICT, false),
            1,
            0xA1,
        );
    }

    #[test]
    fn pipelined_matches_serial_optimized_pruned_multi_producer() {
        for producers in [2, 4] {
            check_pipelined_matches_serial(
                setup(EpochMethod::Optimized, DetectionPolicy::STRICT, true),
                producers,
                0xB2 ^ producers as u64,
            );
        }
    }

    #[test]
    fn pipelined_matches_serial_basic_strict() {
        check_pipelined_matches_serial(
            setup(EpochMethod::Basic, DetectionPolicy::STRICT, false),
            2,
            0xC3,
        );
    }

    #[test]
    fn pipelined_matches_serial_extended_policy() {
        // prune self-disables under the extended policy — still exact
        check_pipelined_matches_serial(
            setup(EpochMethod::Optimized, DetectionPolicy::EXTENDED, true),
            3,
            0xD4,
        );
    }

    #[test]
    fn empty_epoch_closes_match_serial() {
        let s = setup(EpochMethod::Optimized, DetectionPolicy::STRICT, true);
        let nodes: Vec<NodeId> = (1..=8).map(NodeId).collect();
        let mut serial =
            EpochEngine::new(&nodes, s.target_shards, s.method, s.thresholds, s.policy, s.prune);
        let mut piped = PipelinedEngine::new(&nodes, PipelineConfig::new(s));
        // one populated epoch, then two empty closes
        let ratings = epoch_ratings(&[1, 2, 3, 4, 5, 6, 7, 8], 40, 0x77, 0);
        let mut h = piped.handle();
        for &r in &ratings {
            serial.record(r);
            h.submit(r);
        }
        drop(h);
        for _ in 0..3 {
            let sr = serial.close_epoch();
            let pr = piped.close_epoch_sync();
            assert_eq!(pr.pairs, sr.pairs);
        }
        let (finished, _) = piped.finish();
        assert!(finished.state_eq(&serial), "{:?}", finished.state_diff(&serial));
        assert_eq!(finished.stats().epochs, 3);
    }

    #[test]
    fn unclosed_tail_refolds_into_finished_engine() {
        let s = setup(EpochMethod::Optimized, DetectionPolicy::STRICT, false);
        let nodes: Vec<NodeId> = (1..=8).map(NodeId).collect();
        let mut serial =
            EpochEngine::new(&nodes, s.target_shards, s.method, s.thresholds, s.policy, s.prune);
        let mut piped = PipelinedEngine::new(&nodes, PipelineConfig::new(s));
        let ratings = epoch_ratings(&[1, 2, 3, 4, 5, 6, 7, 8], 50, 0x99, 0);
        let (closed, tail) = ratings.split_at(30);
        let mut h = piped.handle();
        for &r in closed {
            serial.record(r);
            h.submit(r);
        }
        h.flush();
        serial.close_epoch();
        piped.close_epoch_sync();
        for &r in tail {
            serial.record(r);
            h.submit(r);
        }
        drop(h);
        let (finished, _) = piped.finish();
        // the unclosed tail stays pending, exactly like the serial buffer
        assert_eq!(finished.pending_ratings(), serial.pending_ratings());
        assert!(finished.state_eq(&serial), "{:?}", finished.state_diff(&serial));
        // and closing it now produces the same suspect set
        let mut finished = finished;
        assert_eq!(finished.close_epoch().pairs, serial.close_epoch().pairs);
        assert!(finished.state_eq(&serial));
    }

    #[test]
    fn published_view_tracks_closes_lock_free() {
        let s = setup(EpochMethod::Optimized, DetectionPolicy::STRICT, true);
        let nodes: Vec<NodeId> = (1..=10).map(NodeId).collect();
        let mut piped = PipelinedEngine::new(&nodes, PipelineConfig::new(s));
        let mut reader = piped.reader();
        assert_eq!(reader.get().epoch, 0);
        assert_eq!(reader.get().reputation(NodeId(1)), Some(0));
        let ratings = epoch_ratings(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 60, 0x31, 0);
        let mut h = piped.handle();
        for &r in &ratings {
            h.submit(r);
        }
        drop(h);
        let report = piped.close_epoch_sync();
        let view = reader.get().clone();
        assert_eq!(view.epoch, 1);
        assert_eq!(view.report.pairs, report.pairs);
        // the planted colluders' mutual positives are visible to readers
        assert!(view.reputation(NodeId(1)).expect("rated node") > 0);
        // fast path: no publication since last get → same Arc, no clone
        let again = reader.get();
        assert!(Arc::ptr_eq(&view, again));
        let (_engine, _stats) = piped.finish();
    }

    #[test]
    fn wal_dir_recovers_through_durable_engine() {
        let s = setup(EpochMethod::Optimized, DetectionPolicy::STRICT, true);
        let nodes: Vec<NodeId> = (1..=12).map(NodeId).collect();
        let dir = scratch_dir("pipeline-wal-recover");
        let mut cfg = PipelineConfig::new(s);
        cfg.batch = 8;
        let mut piped = PipelinedEngine::with_wal(&dir, &nodes, cfg).expect("create");
        let ids: Vec<u64> = (1..=12).collect();
        for epoch in 0..4u64 {
            let mut h = piped.handle();
            for r in epoch_ratings(&ids, 50, 0x55 ^ epoch, epoch * 10_000) {
                h.submit(r);
            }
            drop(h);
            piped.close_epoch_sync();
        }
        let (finished, pstats) = piped.finish();
        assert!(pstats.wal_appends > 0 && pstats.wal_syncs >= 4);
        // a pipelined WAL dir is a valid (checkpoint-less) durable dir:
        // recovery replays the whole log through the serial engine
        let (recovered, report) =
            DurableEngine::recover(&dir, &nodes, s, DurabilityConfig::default()).expect("recover");
        assert_eq!(report.replayed_records, pstats.wal_appends);
        assert_eq!(report.skipped_records, 0);
        assert!(
            recovered.engine().state_eq(&finished),
            "{:?}",
            recovered.engine().state_diff(&finished)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_policy_syncs_only_at_closes() {
        let s = setup(EpochMethod::Optimized, DetectionPolicy::STRICT, false);
        let nodes: Vec<NodeId> = (1..=6).map(NodeId).collect();
        let dir = scratch_dir("pipeline-group-commit");
        let cfg = PipelineConfig::new(s); // Group policy by default
        let mut piped = PipelinedEngine::with_wal(&dir, &nodes, cfg).expect("create");
        let mut h = piped.handle();
        for r in epoch_ratings(&[1, 2, 3, 4, 5, 6], 80, 0x13, 0) {
            h.submit(r);
        }
        drop(h);
        piped.close_epoch_sync();
        let (_engine, pstats) = piped.finish();
        // group commit: the only fsync is the close marker's
        assert_eq!(pstats.wal_syncs, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_ratings_rejected_and_unlogged() {
        let s = setup(EpochMethod::Optimized, DetectionPolicy::STRICT, false);
        let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let piped = PipelinedEngine::new(&nodes, PipelineConfig::new(s));
        let mut h = piped.handle();
        assert!(!h.submit(Rating::positive(NodeId(1), NodeId(1), SimTime(0))));
        assert!(h.submit(Rating::positive(NodeId(1), NodeId(2), SimTime(1))));
        drop(h);
        assert_eq!(piped.pending_ratings(), 1);
        let (_engine, pstats) = piped.finish();
        assert_eq!(pstats.batches, 1);
    }
}
