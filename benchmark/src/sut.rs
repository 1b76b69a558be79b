//! The system-under-test adapter: every call the benchmark makes into the
//! repository goes through this file and nowhere else.
//!
//! **Rule:** only an issue of kind `benchmark` edits this file. A change
//! that claims a gain must run against the adapter as it stands, so what
//! is listed here is the surface later refactors have to keep (or the
//! benchmark issue that follows them re-points it):
//!
//! * `collusion_trace::scale::ScaleConfig::{at_scale, generate, node_ids,
//!   planted_pairs}`
//! * `collusion_core::durability::{DurableEngine::{create, record,
//!   close_epoch, checkpoint, sync, recover, wal, engine, report},
//!   EngineSetup, DurabilityConfig}`
//! * `collusion_core::epoch::{EpochEngine::{new, record, close_epoch,
//!   last_close_timings, stats, persist_bytes, recover_from_bytes},
//!   EpochMethod::Optimized}`
//! * `collusion_reputation::wal::{Wal::{create, enable_group_commit,
//!   append_ratings, sync, committer_fsyncs, len_bytes, next_seq},
//!   replay_bytes, SyncPolicy::{Async, ASYNC_DEFAULT}}`
//! * `collusion_reputation::checkpoint::CheckpointStore::{new, save,
//!   load_latest}`
//! * `collusion_reputation::ingest::ShardedIntake::{new, record, drain}`
//! * `collusion_reputation::history::InteractionHistory::{new, record}`
//! * `collusion_reputation::sharded::ShardedSnapshot::{build,
//!   totals_columns}`
//! * `collusion_core::input::{SnapshotInput::from_signed,
//!   DetectionInput::from_signed_history}`
//! * `collusion_core::optimized::OptimizedDetector::{with_policy,
//!   detect_pruned, rows_prunable_batch}`, `collusion_core::basic::
//!   BasicDetector::{with_policy, detect}`
//! * `collusion_reputation::frame::{encode_frame_into, decode_frame}`,
//!   `collusion_core::net::wire::Request::{encode_insert_stream, decode}`
//! * `collusion_core::net::{ManagerNode::{spawn, set_peers, addr, kill},
//!   ManagerConfig, Backpressure, RpcConfig, RpcClient::{new, call,
//!   open_insert_stream, close_insert_stream, forget}, InsertStream::{send,
//!   flush, stats}}` with `Request::{CloseEpoch, Freeze, DetectRound,
//!   Query, Status}`
//! * `collusion_dht::{ring::ChordRing::{new, join_with_key, owner},
//!   hash::consistent_hash}`
//!
//! It uses nothing ROADMAP marks for deletion (`PipelinedEngine`,
//! `DecentralizedSystem`, `DetectionSnapshot`, `detect_par`,
//! `detect_snapshot`, scalar `row_prunable`, `Insert`/`InsertBatch`, sync
//! policies other than `Async`, `explicit-simd`, `collusion-sim`), with one
//! exception it cannot avoid: `ManagerConfig::method` is typed
//! `collusion_core::decentralized::Method`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use collusion_core::basic::BasicDetector;
use collusion_core::decentralized::Method;
use collusion_core::durability::{DurabilityConfig, DurableEngine, EngineSetup};
use collusion_core::epoch::{EpochEngine, EpochMethod};
use collusion_core::input::{DetectionInput, SnapshotInput};
use collusion_core::net::wire::{Request, Response};
use collusion_core::net::{
    Backpressure, InsertStream, ManagerConfig, ManagerNode, RpcClient, RpcConfig,
};
use collusion_core::optimized::OptimizedDetector;
use collusion_core::policy::DetectionPolicy;
use collusion_core::report::DetectionReport;
use collusion_dht::hash::consistent_hash;
use collusion_dht::ring::ChordRing;
use collusion_reputation::checkpoint::CheckpointStore;
use collusion_reputation::frame::{decode_frame, encode_frame_into, MAX_FRAME_PAYLOAD};
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::ingest::ShardedIntake;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::wal::{replay_bytes, SyncPolicy, Wal};
use collusion_trace::scale::ScaleConfig;

pub use collusion_reputation::id::NodeId;
pub use collusion_reputation::rating::Rating;

/// Every fallible adapter call reports a one-line reason; the workloads
/// are chosen so that none fails, and the runner turns any `Err` into a
/// failed gate.
pub type Res<T> = Result<T, String>;

/// Suspect pairs as sorted `(low, high)` raw ids — the form every gate
/// compares.
pub type Pairs = Vec<(u64, u64)>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn thresholds() -> Thresholds {
    Thresholds::new(1.0, 20, 0.8, 0.2)
}

fn pairs_of(report: &DetectionReport) -> Pairs {
    report.pairs.iter().map(|p| (p.low.raw(), p.high.raw())).collect()
}

// ----- generated input ------------------------------------------------------

/// One generated workload input.
pub struct Trace {
    pub nodes: Vec<NodeId>,
    pub ratings: Vec<Rating>,
    /// The pairs the generator planted; with the fixed thresholds they are
    /// exactly what every detector must report.
    pub planted: Pairs,
}

/// `ScaleConfig::at_scale(n, seed)`: ~20 background ratings per node plus
/// one planted colluding pair per 100 nodes.
pub fn generate(n: u64, seed: u64) -> Trace {
    let cfg = ScaleConfig::at_scale(n, seed);
    Trace {
        nodes: cfg.node_ids(),
        ratings: cfg.generate(),
        planted: cfg.planted_pairs().into_iter().map(|(a, b)| (a.raw(), b.raw())).collect(),
    }
}

// ----- durability: DurableEngine --------------------------------------------

/// Shards of the in-process engine's snapshot.
const ENGINE_SHARDS: usize = 8;

fn engine_setup() -> EngineSetup {
    EngineSetup {
        target_shards: ENGINE_SHARDS,
        method: EpochMethod::Optimized,
        thresholds: thresholds(),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    }
}

/// Periodic checkpoints off: the workloads call `checkpoint()` where they
/// want one.
fn engine_durability() -> DurabilityConfig {
    DurabilityConfig {
        sync_policy: SyncPolicy::ASYNC_DEFAULT,
        checkpoint_interval: 0,
        keep_checkpoints: 2,
        pair_watermark: None,
    }
}

/// Sub-stage times of the last close, as the engine reports them.
#[derive(Clone, Copy, Default)]
pub struct CloseStages {
    pub advance_ns: u64,
    pub enumerate_ns: u64,
    pub recheck_ns: u64,
}

/// Cumulative candidate funnel of an epoch engine.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Funnel {
    pub candidates: u64,
    pub checked: u64,
    pub pruned: u64,
}

/// What `DurableEngine::recover` replayed.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Replay {
    pub replayed_records: u64,
    pub skipped_records: u64,
}

/// The in-process durable engine (WAL + checkpoints + epoch engine).
pub struct Engine(DurableEngine);

impl Engine {
    pub fn create(dir: &Path, nodes: &[NodeId]) -> Res<Engine> {
        DurableEngine::create(dir, nodes, engine_setup(), engine_durability())
            .map(Engine)
            .map_err(err("DurableEngine::create"))
    }

    pub fn recover(dir: &Path, nodes: &[NodeId]) -> Res<(Engine, Replay)> {
        let (engine, report) =
            DurableEngine::recover(dir, nodes, engine_setup(), engine_durability())
                .map_err(err("DurableEngine::recover"))?;
        if report.truncated_bytes != 0 || report.wal_corruption.is_some() {
            return Err("DurableEngine::recover: the log of a clean run had a torn tail".into());
        }
        Ok((
            Engine(engine),
            Replay {
                replayed_records: report.replayed_records,
                skipped_records: report.skipped_records,
            },
        ))
    }

    #[inline]
    pub fn record(&mut self, rating: Rating) -> Res<()> {
        self.0.record(rating).map(drop).map_err(err("DurableEngine::record"))
    }

    pub fn close_epoch(&mut self) -> Res<Pairs> {
        self.0.close_epoch().map(|r| pairs_of(&r)).map_err(err("DurableEngine::close_epoch"))
    }

    pub fn checkpoint(&mut self) -> Res<()> {
        self.0.checkpoint().map_err(err("DurableEngine::checkpoint"))
    }

    pub fn sync(&mut self) -> Res<()> {
        self.0.sync().map_err(err("DurableEngine::sync"))
    }

    pub fn close_stages(&self) -> CloseStages {
        let t = self.0.engine().last_close_timings();
        CloseStages {
            advance_ns: t.advance_ns,
            enumerate_ns: t.enumerate_ns,
            recheck_ns: t.recheck_ns,
        }
    }

    pub fn funnel(&self) -> Funnel {
        let s = self.0.engine().stats();
        Funnel { candidates: s.candidates, checked: s.checked, pruned: s.pruned }
    }

    /// The standing suspect set.
    pub fn suspects(&self) -> Pairs {
        pairs_of(&self.0.report())
    }

    pub fn wal_next_seq(&self) -> u64 {
        self.0.wal().next_seq()
    }
}

// ----- epoch: bare EpochEngine ----------------------------------------------

/// The epoch engine with no WAL in front of it.
pub struct BareEngine(EpochEngine);

impl BareEngine {
    pub fn new(nodes: &[NodeId]) -> BareEngine {
        BareEngine(EpochEngine::new(
            nodes,
            ENGINE_SHARDS,
            EpochMethod::Optimized,
            thresholds(),
            DetectionPolicy::STRICT,
            true,
        ))
    }

    #[inline]
    pub fn record(&mut self, rating: Rating) {
        self.0.record(rating);
    }

    pub fn close_epoch(&mut self) -> Pairs {
        pairs_of(&self.0.close_epoch())
    }

    pub fn persist_bytes(&self, wal_seq: u64) -> Vec<u8> {
        self.0.persist_bytes(wal_seq)
    }

    pub fn restore(bytes: &[u8]) -> Res<BareEngine> {
        EpochEngine::recover_from_bytes(
            bytes,
            ENGINE_SHARDS,
            EpochMethod::Optimized,
            thresholds(),
            DetectionPolicy::STRICT,
            true,
        )
        .map(|(engine, _)| BareEngine(engine))
        .map_err(err("EpochEngine::recover_from_bytes"))
    }

    pub fn suspects(&self) -> Pairs {
        pairs_of(&self.0.report())
    }
}

// ----- wal -------------------------------------------------------------------

/// A WAL on its own, with the in-process engine's group-commit settings.
pub struct WalFile(Wal);

impl WalFile {
    pub fn create(path: &Path) -> Res<WalFile> {
        let mut wal = Wal::create(path, 0).map_err(err("Wal::create"))?;
        let SyncPolicy::Async { max_bytes, max_delay_micros } = SyncPolicy::ASYNC_DEFAULT else {
            unreachable!("ASYNC_DEFAULT is the Async policy")
        };
        wal.enable_group_commit(max_bytes, max_delay_micros)
            .map_err(err("Wal::enable_group_commit"))?;
        Ok(WalFile(wal))
    }

    pub fn append_ratings(&mut self, ratings: &[Rating]) -> Res<()> {
        self.0.append_ratings(ratings).map(drop).map_err(err("Wal::append_ratings"))
    }

    pub fn sync(&mut self) -> Res<()> {
        self.0.sync().map_err(err("Wal::sync"))
    }

    pub fn fsyncs(&self) -> u64 {
        self.0.committer_fsyncs()
    }

    pub fn len_bytes(&self) -> u64 {
        self.0.len_bytes()
    }
}

/// Decode a whole log image; returns how many records it held.
pub fn wal_replay(bytes: &[u8]) -> Res<u64> {
    let replay = replay_bytes(bytes).map_err(err("wal::replay_bytes"))?;
    if replay.is_truncated() {
        return Err("wal::replay_bytes: the log of a clean run had a torn tail".into());
    }
    Ok(replay.records.len() as u64)
}

// ----- checkpoint ------------------------------------------------------------

pub struct Checkpoints(CheckpointStore);

impl Checkpoints {
    pub fn new(dir: &Path) -> Res<Checkpoints> {
        CheckpointStore::new(dir, 2).map(Checkpoints).map_err(err("CheckpointStore::new"))
    }

    pub fn save(&self, wal_seq: u64, payload: &[u8]) -> Res<()> {
        self.0.save(wal_seq, payload).map(drop).map_err(err("CheckpointStore::save"))
    }

    pub fn load_latest(&self) -> Res<Vec<u8>> {
        let load = self.0.load_latest().map_err(err("CheckpointStore::load_latest"))?;
        load.latest.map(|(_, payload)| payload).ok_or_else(|| "no checkpoint to load".to_string())
    }
}

// ----- ingest: ShardedIntake --------------------------------------------------

/// The manager's lock-striped stream intake (4 stripes, as a manager has).
pub struct Intake(ShardedIntake);

impl Intake {
    pub fn new() -> Intake {
        Intake(ShardedIntake::new(MANAGER_SHARDS))
    }

    #[inline]
    pub fn record(&self, rating: Rating) {
        self.0.record(rating);
    }

    /// Drain into one sorted delta; returns the ratings it held.
    pub fn drain(&self) -> u64 {
        self.0.drain().ratings
    }
}

// ----- history, sharded, optimized, basic: the one-shot audit -------------------

/// Shards of the audit's snapshot.
const AUDIT_SHARDS: usize = 64;

pub struct History(InteractionHistory);

impl History {
    pub fn new() -> History {
        History(InteractionHistory::new())
    }

    #[inline]
    pub fn record(&mut self, rating: Rating) {
        self.0.record(rating);
    }
}

pub struct Snapshot(ShardedSnapshot);

/// Work the band pre-filter did and saved in one `detect_pruned` pass.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Pruning {
    pub pairs_examined: u64,
    pub skip_rate: f64,
}

fn detector() -> OptimizedDetector {
    OptimizedDetector::with_policy(thresholds(), DetectionPolicy::STRICT)
}

impl Snapshot {
    pub fn build(history: &History, nodes: &[NodeId]) -> Snapshot {
        Snapshot(ShardedSnapshot::build(&history.0, nodes, AUDIT_SHARDS))
    }

    /// The band-pruned full scan.
    pub fn detect_pruned(&self, nodes: &[NodeId]) -> (Pairs, Pruning) {
        let input = SnapshotInput::from_signed(&self.0, nodes);
        let (report, stats) = detector().detect_pruned(&input);
        (
            pairs_of(&report),
            Pruning { pairs_examined: stats.pairs_examined, skip_rate: stats.skip_rate() },
        )
    }

    /// The SoA band kernel alone over every shard's totals columns;
    /// returns `(rows scanned, rows flagged prunable)`.
    pub fn band_scan(&self, flags: &mut Vec<u8>) -> (u64, u64) {
        let det = detector();
        let (mut rows, mut prunable) = (0u64, 0u64);
        for cols in self.0.totals_columns() {
            flags.clear();
            flags.resize(cols.total.len(), 0);
            det.rows_prunable_batch(&cols, flags);
            rows += flags.len() as u64;
            prunable += flags.iter().filter(|&&f| f != 0).count() as u64;
        }
        (rows, prunable)
    }
}

/// The paper's O(m·n²) detector over the raw history — the oracle.
pub fn basic_detect(history: &History, nodes: &[NodeId]) -> Pairs {
    let input = DetectionInput::from_signed_history(&history.0, nodes);
    pairs_of(&BasicDetector::with_policy(thresholds(), DetectionPolicy::STRICT).detect(&input))
}

// ----- wire codec -------------------------------------------------------------

/// Encode one `InsertStream` frame (payload + frame header) onto `out`.
pub fn encode_stream_frame(stream_seq: u64, ratings: &[Rating], out: &mut Vec<u8>) {
    encode_frame_into(&Request::encode_insert_stream(0, stream_seq, ratings), out);
}

/// Decode the first frame in `bytes`; returns `(ratings in it, bytes
/// consumed)`.
pub fn decode_stream_frame(bytes: &[u8]) -> Res<(usize, usize)> {
    let (payload, used) = decode_frame(bytes, MAX_FRAME_PAYLOAD).map_err(err("decode_frame"))?;
    match Request::decode(payload).map_err(err("Request::decode"))? {
        Request::InsertStream { ratings, .. } => Ok((ratings.len(), used)),
        other => Err(format!("Request::decode: not a stream frame: {other:?}")),
    }
}

// ----- net: the manager cluster -------------------------------------------------

/// Intake stripes and engine shards per manager.
const MANAGER_SHARDS: usize = 4;

/// Commit policy of a manager's WAL (what `sim::cluster` runs with).
const MANAGER_SYNC: SyncPolicy = SyncPolicy::Async { max_bytes: 1 << 20, max_delay_micros: 20_000 };

/// Ring position → manager index, built exactly as the managers build it.
struct Routing {
    ring: ChordRing,
    index_of_key: HashMap<u64, usize>,
}

impl Routing {
    fn new(managers: &[NodeId]) -> Routing {
        let mut ring = ChordRing::new();
        let mut index_of_key = HashMap::new();
        for (k, m) in managers.iter().enumerate() {
            let key = consistent_hash(m.raw(), 64);
            if ring.join_with_key(key) {
                index_of_key.insert(key.raw(), k);
            }
        }
        Routing { ring, index_of_key }
    }

    fn owner_of(&self, node: NodeId) -> usize {
        self.index_of_key[&self.ring.owner(consistent_hash(node.raw(), 64)).raw()]
    }
}

/// `managers` `ManagerNode`s on loopback, replication 1, each owning the
/// ring slice of the node ids that hash to it.
pub struct Cluster {
    nodes: Vec<NodeId>,
    manager_ids: Vec<NodeId>,
    managers: Vec<Option<ManagerNode>>,
    routing: Routing,
    dir: PathBuf,
}

impl Cluster {
    pub fn spawn(dir: &Path, nodes: &[NodeId], managers: usize) -> Res<Cluster> {
        let manager_ids: Vec<NodeId> =
            (0..managers as u64).map(|k| NodeId(0x4000_0000 + k)).collect();
        let mut cluster = Cluster {
            nodes: nodes.to_vec(),
            routing: Routing::new(&manager_ids),
            managers: Vec::new(),
            manager_ids,
            dir: dir.to_path_buf(),
        };
        for k in 0..managers {
            let node = ManagerNode::spawn(cluster.config(k)).map_err(err("ManagerNode::spawn"))?;
            cluster.managers.push(Some(node));
        }
        cluster.push_peers();
        Ok(cluster)
    }

    fn config(&self, k: usize) -> ManagerConfig {
        ManagerConfig {
            id: self.manager_ids[k],
            dir: self.manager_dir(k),
            nodes: self.nodes.clone(),
            managers: self.manager_ids.clone(),
            replication: 1,
            thresholds: thresholds(),
            method: Method::Optimized,
            policy: DetectionPolicy::STRICT,
            shards: MANAGER_SHARDS,
            durability: DurabilityConfig { sync_policy: MANAGER_SYNC, ..Default::default() },
            rpc: RpcConfig::lan(),
            backpressure: Backpressure::default(),
        }
    }

    fn push_peers(&self) {
        let peers: Vec<(NodeId, SocketAddr)> = self
            .manager_ids
            .iter()
            .zip(&self.managers)
            .filter_map(|(&id, m)| m.as_ref().map(|m| (id, m.addr())))
            .collect();
        for m in self.managers.iter().flatten() {
            m.set_peers(&peers);
        }
    }

    pub fn manager_dir(&self, k: usize) -> PathBuf {
        self.dir.join(format!("m{k}"))
    }

    pub fn len(&self) -> usize {
        self.managers.len()
    }

    pub fn addr(&self, k: usize) -> SocketAddr {
        self.managers[k].as_ref().expect("manager is up").addr()
    }

    /// Index of the manager that owns `node`'s slice.
    pub fn owner_of(&self, node: NodeId) -> usize {
        self.routing.owner_of(node)
    }

    /// Stop manager `k` the way a crash after fsync would.
    pub fn kill(&mut self, k: usize) -> Res<()> {
        match self.managers[k].take() {
            Some(node) => node.kill().map_err(err("ManagerNode::kill")),
            None => Ok(()),
        }
    }

    /// Start manager `k` again on the directory it left behind: it
    /// recovers its engine and rebuilds its history from its own log.
    pub fn respawn(&mut self, k: usize) -> Res<()> {
        let node = ManagerNode::spawn(self.config(k)).map_err(err("ManagerNode::spawn"))?;
        self.managers[k] = Some(node);
        self.push_peers();
        Ok(())
    }

    pub fn shutdown(mut self) -> Res<()> {
        (0..self.managers.len()).try_for_each(|k| self.kill(k))
    }
}

/// One manager's `Status` reply, the fields the benchmark reads.
#[derive(Clone, Copy, Default, Debug)]
pub struct Status {
    pub recorded: u64,
    pub intake_pending: u64,
    /// `wal_len − durable_len`: bytes appended but not yet fsynced.
    pub durable_lag_bytes: u64,
    pub throttled_frames: u64,
    pub refused_frames: u64,
}

/// A pooled RPC client. Retries are off: a call that fails is counted as
/// failed, never papered over.
pub struct Client(RpcClient);

impl Client {
    /// For streams and control RPCs, which may legitimately take seconds
    /// (a `CloseEpoch` closes, checkpoints and republishes).
    pub fn patient(seed: u64) -> Client {
        Client(RpcClient::new(RpcConfig {
            attempt_timeout_ms: 120_000,
            total_deadline_ms: 120_000,
            max_retries: 0,
            jitter_seed: seed,
            ..RpcConfig::lan()
        }))
    }

    /// For queries: one second is ten times the latency limit.
    pub fn for_queries(seed: u64) -> Client {
        Client(RpcClient::new(RpcConfig {
            attempt_timeout_ms: 1_000,
            total_deadline_ms: 1_000,
            max_retries: 0,
            jitter_seed: seed,
            ..RpcConfig::lan()
        }))
    }

    fn call(&mut self, addr: SocketAddr, req: &Request, what: &'static str) -> Res<Response> {
        self.0.call(addr, req).map_err(err(what))
    }

    pub fn open_stream(&mut self, addr: SocketAddr, window: usize) -> Res<Stream> {
        self.0
            .open_insert_stream(addr, window)
            .map(|s| Stream { addr, inner: s })
            .map_err(err("RpcClient::open_insert_stream"))
    }

    /// Drain the window, return `(ratings acked durable, frames sent)`, and
    /// drop the pooled connection: re-opening an anonymous
    /// stream on it would restart the client at frame 1 while the server's
    /// per-connection counter runs on, and the session would die with
    /// "stream out of sequence".
    pub fn close_stream(&mut self, stream: Stream) -> Res<(u64, u64)> {
        let addr = stream.addr;
        let closed = self.0.close_insert_stream(stream.inner);
        self.0.forget(addr);
        closed
            .map(|s| (s.ratings_acked, s.frames_sent))
            .map_err(err("RpcClient::close_insert_stream"))
    }

    pub fn close_epoch(&mut self, addr: SocketAddr) -> Res<()> {
        match self.call(addr, &Request::CloseEpoch, "CloseEpoch")? {
            Response::Ack { .. } => Ok(()),
            other => Err(format!("CloseEpoch refused: {other:?}")),
        }
    }

    pub fn freeze(&mut self, addr: SocketAddr, round: u64) -> Res<()> {
        match self.call(addr, &Request::Freeze { round }, "Freeze")? {
            Response::Frozen { .. } => Ok(()),
            other => Err(format!("Freeze refused: {other:?}")),
        }
    }

    /// One manager's forward walk; returns its confirmed pairs, and fails
    /// if any pair degraded to unconfirmed (no fault is injected here).
    pub fn detect_round(&mut self, addr: SocketAddr, round: u64) -> Res<Pairs> {
        match self.call(addr, &Request::DetectRound { round }, "DetectRound")? {
            Response::Round(report) if report.unconfirmed.is_empty() => {
                Ok(report.confirmed.iter().map(|p| (p.low.raw(), p.high.raw())).collect())
            }
            Response::Round(report) => {
                Err(format!("DetectRound left {} pairs unconfirmed", report.unconfirmed.len()))
            }
            other => Err(format!("DetectRound refused: {other:?}")),
        }
    }

    pub fn status(&mut self, addr: SocketAddr) -> Res<Status> {
        match self.call(addr, &Request::Status, "Status")? {
            Response::Status(s) => Ok(Status {
                recorded: s.recorded,
                intake_pending: s.intake_pending,
                durable_lag_bytes: s.wal_len.saturating_sub(s.durable_len),
                throttled_frames: s.throttled_frames,
                refused_frames: s.refused_frames,
            }),
            other => Err(format!("Status refused: {other:?}")),
        }
    }

    /// Read a node's published reputation; `Ok(known)`.
    pub fn query(&mut self, addr: SocketAddr, node: NodeId) -> Res<bool> {
        match self.call(addr, &Request::Query(node), "Query")? {
            Response::Reputation { known, .. } => Ok(known),
            other => Err(format!("Query refused: {other:?}")),
        }
    }
}

/// A windowed `InsertStream` session to one manager.
pub struct Stream {
    addr: SocketAddr,
    inner: InsertStream,
}

impl Stream {
    /// Queue one frame; blocks for a durable ack only when the window is
    /// full (always, at window 1).
    pub fn send(&mut self, ratings: &[Rating]) -> Res<()> {
        self.inner.send(ratings).map_err(err("InsertStream::send"))
    }

    /// Push staged frames and a durability barrier without waiting.
    pub fn flush(&mut self) -> Res<()> {
        self.inner.flush().map_err(err("InsertStream::flush"))
    }

    pub fn ratings_acked(&self) -> u64 {
        self.inner.stats().ratings_acked
    }
}
