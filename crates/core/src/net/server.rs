//! [`ManagerNode`]: a reputation manager as a real TCP server.
//!
//! Each node owns a [`DurableEngine`] (WAL + checkpoints) for its slice —
//! the **only** copy of that slice, the ratings about the nodes it owns on
//! the ring — and a published [`PublishedView`] answering `Query` without
//! touching the write path (one `Arc` clone under a read lock). The view is
//! fed by per-node totals (`ViewTotals`): stream frames log their ratings
//! beside the engine, and a publication folds the ratings logged since the
//! last one plus one `Vec<i64>` clone, never a pass over the slice. A
//! rejoin recovers the engine (checkpoint + WAL tail, one pass over the
//! log) and seeds the view from it.
//!
//! The detection round is a two-RPC protocol driven by the harness:
//!
//! 1. `Freeze{round}` — every manager freezes its slice as the engine
//!    holds it (standing [`ShardedSnapshot`] + the open epoch, see
//!    [`EpochEngine::frozen_snapshot`](crate::epoch::EpochEngine::frozen_snapshot)),
//!    so every `Confirm` of the round is answered from the same frozen
//!    data;
//! 2. `DetectRound{round}` — every manager runs the round of
//!    [`crate::decentralized`] (the one `DecentralizedSystem` runs
//!    in-process) over its own responsible nodes: for each suspicious
//!    direction found, it either verifies the partner side locally
//!    (same-manager pair) or sends `Confirm` to the partner's owner. The
//!    reply carries the manager's confirmed and unconfirmed pairs; the
//!    harness merges them across managers.
//!
//! **Degraded-mode contract:** a `Confirm` that cannot be delivered within
//! its total deadline demotes the pair to *unconfirmed* (forward evidence
//! only) instead of dropping it or hanging; the round always completes.
//!
//! **Durability faults:** a stream frame is one WAL record, applied whole
//! or not at all. A failed WAL write or fsync poisons the manager's
//! engine: stream frames, `StreamResume`, `CloseEpoch` and `Freeze` are
//! answered `Internal` until the manager is killed and rejoined from its
//! WAL, where the client's session resumes.
//!
//! Locking rule: the state mutex is **never** held across an outbound RPC.
//! `DetectRound` clones the frozen `Arc` and the peer map, releases the
//! lock, then confirms over the network; `Confirm` answers from the same
//! `Arc`. Two managers confirming against each other concurrently
//! therefore cannot deadlock — only time out.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use collusion_dht::hash::consistent_hash;
use collusion_dht::ring::ChordRing;
use collusion_reputation::frame::{read_frame, write_frame, FrameError, MAX_FRAME_PAYLOAD};
use collusion_reputation::fxhash::FxHashMap;
use collusion_reputation::history::{InteractionHistory, NodeTotals};
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;

use crate::cost::CostMeter;
use crate::decentralized::{ConfirmVerdict, Kernel, Method, Partner};
use crate::durability::{DurabilityConfig, DurableEngine, EngineSetup};
use crate::input::SnapshotInput;
use crate::net::client::{RpcClient, RpcConfig};
use crate::net::view::PublishedView;
use crate::net::wire::{ErrorCode, Request, Response, RoundReport, StatusInfo, WirePair};
use crate::optimized::OptimizedDetector;
use crate::policy::DetectionPolicy;

/// WAL file name inside a manager's durability directory (pinned by the
/// durable engine; its presence is what makes a spawn a rejoin).
const WAL_FILE: &str = "engine.wal";

/// Unabsorbed ratings (stream ratings logged but not yet folded into the
/// read view) at which a stream frame absorbs them and publishes.
const PUBLISH_EVERY: u64 = 1024;

/// Idle poll interval of the accept loop and connection read loops.
const POLL: Duration = Duration::from_millis(20);

/// Intake-depth watermarks bounding the server-side stream queue (the
/// ratings stream frames logged but not yet absorbed into the read view's
/// totals). Past `high_watermark`, stream acks carry a
/// `throttle` hint that stalls the sender's window; past `hard_limit`,
/// frames are refused with the retryable [`ErrorCode::Overloaded`] without
/// advancing the stream sequence. Defaults are generous enough that only a
/// genuinely stalled control plane (or a nemesis) ever crosses them.
#[derive(Clone, Copy, Debug)]
pub struct Backpressure {
    /// Intake depth (ratings) past which acks ask the sender to stall.
    pub high_watermark: u64,
    /// Intake depth (ratings) past which frames are refused outright.
    pub hard_limit: u64,
}

impl Default for Backpressure {
    fn default() -> Self {
        Backpressure { high_watermark: 256 * 1024, hard_limit: 1024 * 1024 }
    }
}

/// Static configuration of one manager process.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// This manager's id (its ring key is `consistent_hash(id, 64)`).
    pub id: NodeId,
    /// Durability directory (WAL + checkpoints). Spawning on a directory
    /// that already holds a WAL recovers from it — that is the rejoin path.
    pub dir: PathBuf,
    /// All registered regular nodes (defines ring ownership).
    pub nodes: Vec<NodeId>,
    /// All managers on the ring (fixed for the cluster's lifetime; a
    /// killed manager stays a member and rejoins from disk).
    pub managers: Vec<NodeId>,
    /// Copies of each node's slice. Must be 1: a manager holds only the
    /// slice its WAL makes durable, and [`ManagerNode::spawn`] refuses any
    /// other value. The field stays only because the benchmark's cluster
    /// configuration (`benchmark/src/sut.rs`) still sets it; it goes once
    /// that file stops naming it.
    pub replication: usize,
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Detection kernel.
    pub method: Method,
    /// Detection policy.
    pub policy: DetectionPolicy,
    /// Shard target of the durable engine's snapshot.
    pub shards: usize,
    /// Durability tuning.
    pub durability: DurabilityConfig,
    /// Outbound RPC policy for cross-manager confirmations.
    pub rpc: RpcConfig,
    /// Stream intake watermarks (throttle hint / load shedding).
    pub backpressure: Backpressure,
}

impl ManagerConfig {
    fn kernel(&self) -> Kernel {
        Kernel { method: self.method, thresholds: self.thresholds, policy: self.policy }
    }

    fn setup(&self) -> EngineSetup {
        EngineSetup {
            target_shards: self.shards,
            method: self.method,
            thresholds: self.thresholds,
            policy: self.policy,
            prune: false,
            close_threads: 0,
        }
    }
}

/// Ring geometry shared by every manager and harness: node → owner.
#[derive(Clone, Debug)]
pub struct RingView {
    ring: ChordRing,
    key_to_manager: HashMap<u64, NodeId>,
}

impl RingView {
    /// The ring of `managers`, each placed at the hash of its id.
    pub fn new(managers: &[NodeId]) -> Self {
        let mut ring = ChordRing::new();
        let mut key_to_manager = HashMap::new();
        for &m in managers {
            let key = consistent_hash(m.raw(), 64);
            if ring.join_with_key(key) {
                key_to_manager.insert(key.raw(), m);
            }
        }
        RingView { ring, key_to_manager }
    }

    /// The manager owning `node`'s slice.
    pub fn owner_of(&self, node: NodeId) -> NodeId {
        let key = self.ring.owner(consistent_hash(node.raw(), 64));
        self.key_to_manager[&key.raw()]
    }
}

/// The suspect pairs a detection round over `nodes` must reproduce: the
/// strict optimized detector over one single-shard snapshot of exactly
/// `ratings`, every node in one view. Ascending.
pub fn centralised_baseline(
    thresholds: Thresholds,
    ratings: &[Rating],
    nodes: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    let mut history = InteractionHistory::new();
    for &r in ratings {
        history.record(r);
    }
    let snap = ShardedSnapshot::build(&history, nodes, 1);
    let input = SnapshotInput::from_signed(&snap, nodes);
    let mut pairs = OptimizedDetector::new(thresholds).detect_snapshot(&input).pair_ids();
    pairs.sort_unstable();
    pairs
}

/// A round's frozen slice.
struct Frozen {
    round: u64,
    /// The slice as the engine held it at the freeze (standing snapshot +
    /// open epoch), interned over the responsible nodes.
    snap: ShardedSnapshot,
    /// The per-ratee aggregate cache every `Confirm` of the round shares
    /// (empty unless the policy reads it). Locked only around one partner
    /// check, never across an RPC; `DetectRound` walks with a cache of its
    /// own, so two managers confirming each other never wait on each
    /// other's lock.
    confirm_cache: Mutex<Vec<Option<(u64, i64)>>>,
}

/// What the published view is made from: the primary slice's sorted node
/// table — the responsible nodes plus every rater and ratee folded so far,
/// the set a snapshot of the slice interns — and per-node totals, kept
/// current by counter deltas instead of being re-read from the slice.
struct ViewTotals {
    /// Ascending; re-allocated only when a fold interns fresh ids, so
    /// successive [`PublishedView`]s share one table.
    nodes: Arc<Vec<NodeId>>,
    /// Per-node aggregate counters, parallel to `nodes`.
    totals: Vec<NodeTotals>,
    /// `totals[i].signed()`, parallel to `nodes` — what a publication clones.
    signed: Vec<i64>,
}

impl ViewTotals {
    /// An unrated slice over `nodes` (ascending).
    fn unrated(nodes: Vec<NodeId>) -> Self {
        let n = nodes.len();
        ViewTotals {
            nodes: Arc::new(nodes),
            totals: vec![NodeTotals::default(); n],
            signed: vec![0; n],
        }
    }

    /// The node table and totals of a snapshot of the slice.
    fn of(snap: &ShardedSnapshot) -> Self {
        let totals: Vec<NodeTotals> = (0..snap.n() as u32).map(|i| snap.totals_of(i)).collect();
        ViewTotals {
            nodes: Arc::new(snap.nodes().to_vec()),
            signed: totals.iter().map(NodeTotals::signed).collect(),
            totals,
        }
    }

    /// Add `ratings`: intern both ids of each, count it in the ratee's
    /// totals — saturating, as [`InteractionHistory::record`] counts it, so
    /// `signed` stays bit-identical to a history that folded the same
    /// ratings, in any order. Self-ratings must have been dropped (the
    /// history ignores them).
    fn fold(&mut self, ratings: &[Rating]) {
        let mut fresh: Vec<NodeId> = ratings
            .iter()
            .flat_map(|r| [r.ratee, r.rater])
            .filter(|id| self.nodes.binary_search(id).is_err())
            .collect();
        if !fresh.is_empty() {
            fresh.sort_unstable();
            fresh.dedup();
            self.intern(&fresh);
        }
        for r in ratings {
            let i = self.nodes.binary_search(&r.ratee).expect("ratee interned above");
            self.totals[i].add(r.value);
            self.signed[i] = self.totals[i].signed();
        }
    }

    /// Merge `fresh` (ascending, none interned yet) into the node table.
    fn intern(&mut self, fresh: &[NodeId]) {
        let n = self.nodes.len() + fresh.len();
        let mut nodes = Vec::with_capacity(n);
        let mut totals = Vec::with_capacity(n);
        let mut signed = Vec::with_capacity(n);
        let (mut a, mut b) = (0, 0);
        while a < self.nodes.len() || b < fresh.len() {
            if b == fresh.len() || (a < self.nodes.len() && self.nodes[a] < fresh[b]) {
                nodes.push(self.nodes[a]);
                totals.push(self.totals[a]);
                signed.push(self.signed[a]);
                a += 1;
            } else {
                nodes.push(fresh[b]);
                totals.push(NodeTotals::default());
                signed.push(0);
                b += 1;
            }
        }
        self.nodes = Arc::new(nodes);
        self.totals = totals;
        self.signed = signed;
    }
}

/// Mutable control-plane state behind the single mutex: the read view's
/// source, the frozen round, counters. The durable engine — the slice
/// itself — lives on the [`DataPlane`] so streaming inserts never
/// serialize behind control RPCs.
struct State {
    /// Node table and totals of the slice, as of the last absorb.
    view: ViewTotals,
    frozen: Option<Arc<Frozen>>,
    /// Ratings folded into the slice and absorbed into `view`
    /// (self-ratings are logged but never folded, so never counted).
    recorded: u64,
    /// The log `absorb_intake` swaps in for [`Durable::unabsorbed`]: empty
    /// between absorbs, kept for its capacity.
    spare: Vec<Rating>,
}

/// What the durable lock guards: the slice and the stream ratings the read
/// view has not absorbed yet.
struct Durable {
    /// WAL + checkpointed engine for the slice.
    engine: DurableEngine,
    /// Non-self ratings of every stream frame applied since the last
    /// absorb, in arrival order. Appended under the lock the frame's WAL
    /// append already holds; swapped out by `absorb_intake`.
    unabsorbed: Vec<Rating>,
}

/// The streaming data plane, split off the control-plane state mutex.
///
/// `InsertStream` frames take only `durable` (WAL append + engine fold +
/// unabsorbed-log append); control RPCs (`Freeze`, `CloseEpoch`, `Status`,
/// detection) take the state mutex and *absorb* the unabsorbed log into
/// the read view's totals at well-defined points. Lock order is always
/// state → durable — a connection thread holding `durable` never waits on
/// the state mutex, so concurrent streams stop serializing on control
/// traffic.
struct DataPlane {
    durable: Mutex<Durable>,
    /// `Durable::unabsorbed.len()`, readable without the lock (backpressure,
    /// `Heartbeat`, `Status.intake_pending`, the publication trigger).
    /// Written only under `durable`.
    pending: AtomicU64,
    /// Resumable-stream session table: session id → applied watermark.
    /// Rebuilt on rejoin from the last `StreamSession` marker of each
    /// session the recovery saw; a `StreamResume` barrier syncs the WAL
    /// first, which makes applied = durable at the moment the table is read. Held across a session frame's whole
    /// application so check-seq-then-apply is atomic per session (lock
    /// order: sessions → state → durable, never the reverse).
    sessions: Mutex<FxHashMap<u64, SessionEntry>>,
    /// Stream frames accepted since spawn (observability).
    stream_frames: AtomicU64,
    /// Owned ratings accepted over streams since spawn (observability).
    stream_ratings: AtomicU64,
    /// Frames accepted past the intake high-watermark (ack carried
    /// `throttle`).
    throttled_frames: AtomicU64,
    /// Frames refused past the intake hard limit (`Overloaded`).
    refused_frames: AtomicU64,
    /// `StreamResume` requests answered.
    sessions_resumed: AtomicU64,
}

/// Applied watermark of one resumable stream session.
#[derive(Clone, Copy, Debug)]
struct SessionEntry {
    /// Next frame number the server will accept (frames start at 1).
    next_seq: u64,
    /// Cumulative ratings accepted through `next_seq - 1`.
    accepted: u64,
}

impl Default for SessionEntry {
    fn default() -> Self {
        SessionEntry { next_seq: 1, accepted: 0 }
    }
}

struct Shared {
    cfg: ManagerConfig,
    ring: RingView,
    /// Nodes this manager owns, ascending.
    responsible: Vec<NodeId>,
    state: Mutex<State>,
    data: DataPlane,
    /// The published read view; `Query` clones the `Arc` out.
    view: RwLock<Arc<PublishedView>>,
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    stop: AtomicBool,
}

/// A running manager server. Dropping it kills it (syncing the WAL first).
pub struct ManagerNode {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ManagerNode {
    /// Bind an ephemeral loopback port and start serving. If `cfg.dir`
    /// already holds a WAL the engine **recovers** from it (the log is read
    /// once) and the read view and session table are seeded from the
    /// recovery — the kill-and-rejoin path; otherwise a fresh engine is
    /// created. A `replication` other than 1 is refused with
    /// [`io::ErrorKind::InvalidInput`] before the directory is touched.
    pub fn spawn(cfg: ManagerConfig) -> io::Result<Self> {
        if cfg.replication != 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("replication {} unsupported: a manager holds one slice", cfg.replication),
            ));
        }
        let ring = RingView::new(&cfg.managers);
        let mut responsible: Vec<NodeId> =
            cfg.nodes.iter().copied().filter(|&node| ring.owner_of(node) == cfg.id).collect();
        responsible.sort_unstable();

        let rejoining = cfg.dir.join(WAL_FILE).exists();
        let (durable, totals, recorded, sessions) = if rejoining {
            // the WAL is never truncated by checkpoints, so the recovery's
            // one pass over it also sees every rating this manager accepted
            // and every session marker that hit disk
            let (durable, recovery) =
                DurableEngine::recover(&cfg.dir, &responsible, cfg.setup(), cfg.durability)
                    .map_err(other_io)?;
            let sessions = recovery
                .stream_sessions
                .iter()
                .map(|(&session, &(frame_seq, accepted))| {
                    (session, SessionEntry { next_seq: frame_seq + 1, accepted })
                })
                .collect();
            let totals = ViewTotals::of(&durable.engine().frozen_snapshot());
            (durable, totals, recovery.folded_ratings, sessions)
        } else {
            let durable =
                DurableEngine::create(&cfg.dir, &responsible, cfg.setup(), cfg.durability)
                    .map_err(other_io)?;
            (durable, ViewTotals::unrated(responsible.clone()), 0, FxHashMap::default())
        };

        let initial = PublishedView { epoch: 0, nodes: Arc::new(Vec::new()), signed: Vec::new() };
        let state = State { view: totals, frozen: None, recorded, spare: Vec::new() };
        let data = DataPlane {
            durable: Mutex::new(Durable { engine: durable, unabsorbed: Vec::new() }),
            pending: AtomicU64::new(0),
            sessions: Mutex::new(sessions),
            stream_frames: AtomicU64::new(0),
            stream_ratings: AtomicU64::new(0),
            throttled_frames: AtomicU64::new(0),
            refused_frames: AtomicU64::new(0),
            sessions_resumed: AtomicU64::new(0),
        };
        let shared = Arc::new(Shared {
            cfg,
            ring,
            responsible,
            state: Mutex::new(state),
            data,
            view: RwLock::new(Arc::new(initial)),
            peers: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
        });
        if rejoining {
            // make the recovered slice queryable before the first insert
            let st = shared.state.lock().expect("manager state lock");
            publish_view(&shared, &st);
        }

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        // Blocking accept: a fresh connection's first frames are served the
        // moment they arrive (a polling accept loop would park them in the
        // backlog for up to its sleep). `shutdown` wakes the thread with a
        // self-connect after raising the stop flag.
        let accept = std::thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if accept_shared.stop.load(Ordering::Acquire) {
                            break; // the shutdown wake-up connection
                        }
                        let conn_shared = Arc::clone(&accept_shared);
                        let handle = std::thread::spawn(move || serve_conn(stream, conn_shared));
                        let mut conns = accept_conns.lock().expect("conn registry lock");
                        // reap closed connections so the registry holds
                        // the live ones, not every connection ever accepted
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ManagerNode { shared, addr, accept: Some(accept), conns })
    }

    /// This manager's id.
    pub fn id(&self) -> NodeId {
        self.shared.cfg.id
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Nodes this manager owns.
    pub fn responsible(&self) -> &[NodeId] {
        &self.shared.responsible
    }

    /// Replace the peer address map directly (the harness-side twin of the
    /// `SetPeers` RPC).
    pub fn set_peers(&self, peers: &[(NodeId, SocketAddr)]) {
        let mut map = self.shared.peers.lock().expect("peer map lock");
        map.clear();
        map.extend(peers.iter().copied());
    }

    /// This manager's published view (in-process observers; remote
    /// readers use the `Query` RPC).
    pub fn view(&self) -> Arc<PublishedView> {
        published(&self.shared)
    }

    /// Kill the process model: stop accepting, join every connection
    /// thread, fsync the WAL, wait for the checkpoint writer, and drop the
    /// engine. The durability directory is left exactly as a
    /// crash-after-fsync would leave it — [`ManagerNode::spawn`] on the
    /// same directory rejoins from it. On an engine poisoned by a failed
    /// WAL write or fsync, the sync fails and the directory is left as the
    /// failure left it; the error is returned once the checkpoint writer
    /// has settled, and the rejoin is the way back.
    pub fn kill(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return Ok(()); // already down
        }
        if let Some(t) = self.accept.take() {
            // wake the blocking accept; it observes the stop flag and exits
            TcpStream::connect_timeout(&self.addr, POLL).ok();
            t.join().ok();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conn registry lock"));
        for h in handles {
            h.join().ok();
        }
        let eng = &mut self.shared.data.durable.lock().expect("durable engine lock").engine;
        let synced = eng.sync();
        // the last close's checkpoint lands before the directory is handed
        // to a respawn, which then loads the same image a crash-free
        // shutdown would have left — also when the sync failed on a
        // poisoned engine, which leaves its log as the failure did
        let settled = eng.wait_checkpoint();
        synced.and(settled).map_err(other_io)
    }
}

impl Drop for ManagerNode {
    fn drop(&mut self) {
        self.shutdown().ok();
    }
}

fn other_io<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::other(e.to_string())
}

/// The current published view.
fn published(shared: &Shared) -> Arc<PublishedView> {
    Arc::clone(&shared.view.read().expect("published view lock"))
}

/// Publish the read view from `st.view` at the next epoch: share the node
/// table, clone the signed totals. Call with the state lock held, which
/// makes this the one writer; the durable lock is never taken.
fn publish_view(shared: &Shared, st: &State) {
    let view = PublishedView {
        epoch: published(shared).epoch + 1,
        nodes: Arc::clone(&st.view.nodes),
        signed: st.view.signed.clone(),
    };
    *shared.view.write().expect("published view lock") = Arc::new(view);
}

/// Fold the unabsorbed stream ratings into the read view's totals. Call
/// with the state lock held; this is where stream-ingested ratings become
/// visible to `publish_view` and `Status.recorded`. (`Freeze` reads the
/// engine, which folded them when their frame was applied.) Counter adds
/// commute, so absorption order cannot change what is published.
fn absorb_intake(shared: &Shared, st: &mut State) {
    {
        let mut d = shared.data.durable.lock().expect("durable engine lock");
        std::mem::swap(&mut d.unabsorbed, &mut st.spare);
        shared.data.pending.store(0, Ordering::Relaxed);
    }
    st.view.fold(&st.spare);
    st.recorded += st.spare.len() as u64;
    st.spare.clear();
}

/// Per-connection streaming-insert state: the server side of one
/// `InsertStream` session (a plain-RPC connection simply never touches it).
#[derive(Default)]
struct StreamConn {
    /// Resumable session this connection is bound to (0 = anonymous).
    session: u64,
    /// Next expected frame number (frames are numbered from 1). For a
    /// bound session the session table is authoritative; this mirrors it.
    next_seq: u64,
    /// Ratings accepted on this stream so far (cumulative, for acks).
    accepted: u64,
    /// Whether the intake was past the high-watermark at the last accepted
    /// frame; attached to outgoing acks as the `throttle` hint.
    throttle: bool,
    /// Frames recorded but not yet acked: `(frame seq, WAL byte target,
    /// cumulative accepted at that frame)`. An ack for a frame may only be
    /// sent once the WAL's durable watermark covers its byte target.
    pending: VecDeque<(u64, u64, u64)>,
}

/// One connection's request loop: framed request in, framed response out.
/// Never panics; malformed input gets `Error{Malformed}`, transport errors
/// and mid-frame desyncs ([`FrameError::Stalled`], corrupt checksums,
/// oversized frames) end the connection deterministically.
///
/// `InsertStream` frames are handled here rather than in [`handle`] so the
/// loop can keep per-connection ack state: acks are cumulative and are
/// only emitted once the WAL durable watermark covers the frame's bytes.
/// Durability barriers are client-driven (`StreamFlush` frames mark the
/// points where the client blocks on acks); an idle poll tick with acks
/// outstanding is the safety net that keeps a quiescent client's window
/// from sticking.
fn serve_conn(mut stream: TcpStream, shared: Arc<Shared>) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut sc = StreamConn { next_seq: 1, ..StreamConn::default() };
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_frame(&mut stream, MAX_FRAME_PAYLOAD) {
            Ok(p) => p,
            Err(FrameError::Closed) => return,
            Err(e) if e.is_timeout() => {
                // idle tick: flush outstanding stream acks at a barrier so
                // a client that never sent `StreamFlush` (or whose flush
                // frame was lost to a fault) still drains its window
                if !sc.pending.is_empty() && flush_acks(&shared, &mut sc, &mut stream).is_err() {
                    return;
                }
                continue;
            }
            Err(_) => return, // corrupt/oversized/stalled frame: drop the connection
        };
        let response = match Request::decode(&payload) {
            Ok(Request::InsertStream { session, stream_seq, ratings }) => {
                handle_stream_frame(&shared, &mut sc, session, stream_seq, ratings)
            }
            Ok(Request::StreamResume { session }) => {
                Some(handle_stream_resume(&shared, &mut sc, session))
            }
            Ok(Request::StreamFlush) => {
                // explicit barrier: the client is about to block on acks,
                // so drive durability over every pending frame right now
                if flush_acks(&shared, &mut sc, &mut stream).is_err() {
                    return;
                }
                None
            }
            Ok(req) => Some(handle(&shared, req)),
            Err(_) => Some(Response::Error { code: ErrorCode::Malformed }),
        };
        if let Some(resp) = response {
            if write_frame(&mut stream, &resp.encode()).is_err() {
                return;
            }
        }
    }
}

/// One `InsertStream` frame on the data plane: WAL-append its ratings and
/// log them for the read view (durable lock only — the state mutex is not
/// touched on this path), and return a cumulative ack if
/// the durable watermark already covers pending frames. A frame naming a
/// ratee this manager does not own is refused whole.
fn handle_stream_frame(
    shared: &Shared,
    sc: &mut StreamConn,
    session: u64,
    stream_seq: u64,
    ratings: Vec<Rating>,
) -> Option<Response> {
    if session != 0 {
        // Resumable session: the table entry is authoritative for the
        // expected sequence, and it stays locked across the whole frame
        // application so check-then-apply is atomic per session — a stale
        // predecessor connection finishing its last frame and a resumed
        // successor retransmitting the same frame cannot both pass the
        // check (lock order: sessions → state → durable).
        let mut sessions = shared.data.sessions.lock().expect("session table lock");
        let entry = sessions.entry(session).or_default();
        sc.session = session;
        if stream_seq != entry.next_seq {
            // behind = duplicate of an applied frame (dedup: skipped, never
            // re-applied); ahead = transport loss or a protocol bug —
            // either way the client learns exactly where to resume
            return Some(Response::StreamNack { expected_seq: entry.next_seq });
        }
        apply_stream_frame(shared, sc, session, stream_seq, ratings, Some(entry))
    } else {
        if stream_seq == 1 && sc.pending.is_empty() {
            // frame 1 with nothing awaiting an ack opens a new anonymous
            // stream: a client re-opening one on a pooled connection counts
            // its frames and ratings from the start again, so must we
            sc.session = 0;
            sc.next_seq = 1;
            sc.accepted = 0;
        }
        if stream_seq != sc.next_seq {
            return Some(Response::StreamNack { expected_seq: sc.next_seq });
        }
        apply_stream_frame(shared, sc, 0, stream_seq, ratings, None)
    }
}

/// Apply one in-sequence stream frame: refuse it if it names a ratee this
/// manager does not own, shed load if the intake is past its hard limit,
/// WAL-append the ratings (with the session watermark marker for resumable
/// sessions), log them for the read view, and return a cumulative ack if
/// the durable watermark already covers pending frames.
fn apply_stream_frame(
    shared: &Shared,
    sc: &mut StreamConn,
    session: u64,
    stream_seq: u64,
    ratings: Vec<Rating>,
    entry: Option<&mut SessionEntry>,
) -> Option<Response> {
    // a refused frame is not applied and does not advance the stream
    // sequence: a misrouted one is malformed (acking it would promise a
    // durability no WAL here backs), a shed one is retried verbatim
    if ratings.iter().any(|r| shared.ring.owner_of(r.ratee) != shared.cfg.id) {
        return Some(Response::Error { code: ErrorCode::Malformed });
    }
    let bp = shared.cfg.backpressure;
    let intake_depth = shared.data.pending.load(Ordering::Relaxed);
    if intake_depth >= bp.hard_limit {
        shared.data.refused_frames.fetch_add(1, Ordering::Relaxed);
        return Some(Response::Error { code: ErrorCode::Overloaded });
    }
    sc.throttle = intake_depth >= bp.high_watermark;
    let frame_accepted = ratings.len() as u64;
    let cum_accepted = match &entry {
        Some(e) => e.accepted + frame_accepted,
        None => sc.accepted + frame_accepted,
    };
    let (wal_target, durable_now, unabsorbed) = {
        let mut d = shared.data.durable.lock().expect("durable engine lock");
        // one WAL record, whole or not at all; a failure poisons the
        // engine, so the frame is never half-applied and then retried
        let Ok(target) = d.engine.record_frame(&ratings, session, stream_seq, cum_accepted) else {
            return Some(Response::Error { code: ErrorCode::Internal });
        };
        d.unabsorbed.extend(ratings.iter().filter(|r| !r.is_self_rating()));
        let unabsorbed = d.unabsorbed.len() as u64;
        shared.data.pending.store(unabsorbed, Ordering::Relaxed);
        // No committer nudge here: a per-frame commit request keeps the
        // committer fsyncing back to back, so the target the *final* ack
        // needs queues behind an in-flight fsync and every barrier pays
        // double. [`flush_acks`] requests one targeted commit at burst end.
        (target, d.engine.durable_len(), unabsorbed)
    };
    sc.accepted = cum_accepted;
    sc.next_seq = stream_seq + 1;
    if let Some(e) = entry {
        e.next_seq = stream_seq + 1;
        e.accepted = cum_accepted;
    }
    shared.data.stream_frames.fetch_add(1, Ordering::Relaxed);
    shared.data.stream_ratings.fetch_add(frame_accepted, Ordering::Relaxed);
    if sc.throttle {
        shared.data.throttled_frames.fetch_add(1, Ordering::Relaxed);
    }
    sc.pending.push_back((stream_seq, wal_target, cum_accepted));
    // keep the read view fresh under sustained streaming — but never park
    // a data-plane thread behind a long control operation: when the state
    // lock is busy the absorb is skipped and the unabsorbed log simply
    // grows, which is exactly what the watermarks above bound
    if unabsorbed >= PUBLISH_EVERY {
        if let Ok(mut st) = shared.state.try_lock() {
            absorb_intake(shared, &mut st);
            publish_view(shared, &st);
        }
    }
    ack_ready(sc, durable_now)
}

/// `StreamResume`: bind the connection to `session` and answer its durable
/// watermark. The WAL sync barrier makes applied = durable before the
/// table is read, so the answer is exact — every frame at or below
/// `durable_seq` survives a crash, everything above it must be
/// retransmitted by the client.
fn handle_stream_resume(shared: &Shared, sc: &mut StreamConn, session: u64) -> Response {
    if session == 0 {
        return Response::Error { code: ErrorCode::Malformed };
    }
    let sessions = shared.data.sessions.lock().expect("session table lock");
    if shared.data.durable.lock().expect("durable engine lock").engine.sync().is_err() {
        return Response::Error { code: ErrorCode::Internal };
    }
    let entry = sessions.get(&session).copied().unwrap_or_default();
    sc.session = session;
    sc.next_seq = entry.next_seq;
    sc.accepted = entry.accepted;
    sc.pending.clear();
    sc.throttle = false;
    shared.data.sessions_resumed.fetch_add(1, Ordering::Relaxed);
    Response::StreamState { durable_seq: entry.next_seq - 1, accepted: entry.accepted }
}

/// The highest pending frame whose WAL byte target the durable watermark
/// covers, popped together with everything before it (acks are
/// cumulative: one `InsertAck` acknowledges every earlier frame).
fn ack_ready(sc: &mut StreamConn, durable: u64) -> Option<Response> {
    let mut ready = None;
    while let Some(&(seq, target, accepted)) = sc.pending.front() {
        if target > durable {
            break;
        }
        ready = Some((seq, accepted));
        sc.pending.pop_front();
    }
    ready.map(|(stream_seq, accepted)| Response::InsertAck {
        stream_seq,
        accepted,
        durable_len: durable,
        throttle: sc.throttle,
    })
}

/// How long a stream-ack barrier waits on the group committer's watermark
/// before falling back to a blocking [`DurableEngine::sync`].
const ACK_BARRIER_CAP: Duration = Duration::from_millis(10);

/// Durability barrier for a stream: nudge the group committer, then park
/// on its watermark condvar until every pending frame is covered — with
/// the durable lock *released* while waiting, so a barrier on one
/// connection never blocks another connection's appends behind an fsync.
/// Guarantees the ack ⇒ durable invariant without leaving a quiescent
/// client's window stuck.
fn flush_acks(shared: &Shared, sc: &mut StreamConn, stream: &mut TcpStream) -> Result<(), ()> {
    let Some(&(_, back_target, _)) = sc.pending.back() else { return Ok(()) };
    let (mut durable, waiter) = {
        let eng = &mut shared.data.durable.lock().expect("durable engine lock").engine;
        eng.request_durable().map_err(|_| ())?;
        (eng.durable_len(), eng.wal().waiter())
    };
    if durable < back_target {
        let covered = waiter.map(|w| w.wait_covered(back_target, ACK_BARRIER_CAP)).unwrap_or(false);
        let eng = &mut shared.data.durable.lock().expect("durable engine lock").engine;
        if !covered {
            // a stalled committer, or a failed fsync (which poisons the
            // engine, so this barrier fails): pay the blocking barrier ourselves
            eng.sync().map_err(|_| ())?;
        }
        durable = eng.durable_len();
    }
    if let Some(ack) = ack_ready(sc, durable) {
        write_frame(stream, &ack.encode()).map_err(|_| ())?;
    }
    Ok(())
}

/// Dispatch one request. Outbound RPCs (inside `DetectRound`) run with the
/// state lock released.
fn handle(shared: &Shared, req: Request) -> Response {
    match req {
        Request::Query(node) => {
            let view = published(shared);
            match view.reputation(node) {
                Some(signed) => {
                    Response::Reputation { known: true, signed, view_version: view.epoch }
                }
                None => Response::Reputation { known: false, signed: 0, view_version: view.epoch },
            }
        }
        Request::InsertStream { .. } | Request::StreamFlush | Request::StreamResume { .. } => {
            // stream frames are handled inside `serve_conn` (they need the
            // per-connection ack queue); reaching here is a protocol error
            Response::Error { code: ErrorCode::Malformed }
        }
        Request::Heartbeat => {
            // answered without touching the state or durable locks so a
            // busy control plane cannot make a live manager look dead
            let intake_pending = shared.data.pending.load(Ordering::Relaxed);
            Response::Beat {
                manager: shared.cfg.id,
                intake_pending,
                shedding: intake_pending >= shared.cfg.backpressure.hard_limit,
            }
        }
        Request::CloseEpoch => {
            let mut st = shared.state.lock().expect("manager state lock");
            absorb_intake(shared, &mut st);
            let closed = {
                let eng = &mut shared.data.durable.lock().expect("durable engine lock").engine;
                eng.close_epoch().map(|_| eng.wal().next_seq())
            };
            match closed {
                Ok(seq) => {
                    publish_view(shared, &st);
                    Response::Ack { seq, accepted: 0 }
                }
                Err(_) => Response::Error { code: ErrorCode::Internal },
            }
        }
        Request::Freeze { round } => {
            let mut st = shared.state.lock().expect("manager state lock");
            absorb_intake(shared, &mut st);
            // copy under the durable lock, merge outside it: streams keep
            // appending while the open epoch is folded into the copy. A
            // poisoned engine may hold a frame its log lacks: refuse.
            let parts = {
                let eng = &mut shared.data.durable.lock().expect("durable engine lock").engine;
                if eng.healthy().is_err() {
                    return Response::Error { code: ErrorCode::Internal };
                }
                eng.engine().frozen_parts()
            };
            let snap = parts.merge();
            let confirm_cache = Mutex::new(shared.cfg.kernel().agg_cache(&snap));
            st.frozen = Some(Arc::new(Frozen { round, snap, confirm_cache }));
            Response::Frozen { round, nodes: shared.responsible.len() as u64 }
        }
        Request::DetectRound { round } => detect_round(shared, round),
        Request::Confirm { round, ratee, rater } => confirm(shared, round, ratee, rater),
        Request::SetPeers(list) => {
            let mut map = shared.peers.lock().expect("peer map lock");
            map.clear();
            for p in &list {
                map.insert(p.manager, p.socket_addr());
            }
            Response::Ack { seq: 0, accepted: list.len() as u64 }
        }
        Request::Status => {
            let st = shared.state.lock().expect("manager state lock");
            let (wal_next_seq, durable_len, wal_len) = {
                let eng = &mut shared.data.durable.lock().expect("durable engine lock").engine;
                // answer for a settled durable layer: the last close's
                // checkpoint lands first (it is long done unless Status
                // follows a close at once), so the directory is what a kill
                // now would leave
                if eng.wait_checkpoint().is_err() {
                    return Response::Error { code: ErrorCode::Internal };
                }
                (eng.wal().next_seq(), eng.durable_len(), eng.wal().len_bytes())
            };
            Response::Status(StatusInfo {
                manager: shared.cfg.id,
                recorded: st.recorded,
                wal_next_seq,
                round: st.frozen.as_ref().map_or(0, |f| f.round),
                view_version: published(shared).epoch,
                durable_len,
                wal_len,
                intake_pending: shared.data.pending.load(Ordering::Relaxed),
                stream_frames: shared.data.stream_frames.load(Ordering::Relaxed),
                stream_ratings: shared.data.stream_ratings.load(Ordering::Relaxed),
                throttled_frames: shared.data.throttled_frames.load(Ordering::Relaxed),
                refused_frames: shared.data.refused_frames.load(Ordering::Relaxed),
                sessions_resumed: shared.data.sessions_resumed.load(Ordering::Relaxed),
            })
        }
    }
}

/// The frozen slice of `round`, cloned out from under the state lock,
/// or the refusal of a `Confirm` or `DetectRound` for any other round.
fn frozen_round(shared: &Shared, round: u64) -> Result<Arc<Frozen>, Response> {
    match &shared.state.lock().expect("manager state lock").frozen {
        Some(f) if f.round == round => Ok(Arc::clone(f)),
        Some(_) => Err(Response::Error { code: ErrorCode::BadRound }),
        None => Err(Response::Error { code: ErrorCode::NotFrozen }),
    }
}

/// Partner-side `Confirm` handler: answer from the frozen slice if we own
/// the ratee, else with the verdict of a manager holding no data for it.
fn confirm(shared: &Shared, round: u64, ratee: NodeId, rater: NodeId) -> Response {
    let frozen = match frozen_round(shared, round) {
        Ok(frozen) => frozen,
        Err(refusal) => return refusal,
    };
    if shared.responsible.binary_search(&ratee).is_err() {
        return Response::Verdict(ConfirmVerdict::default());
    }
    let mut cache = frozen.confirm_cache.lock().expect("confirm cache lock");
    let meter = CostMeter::new();
    Response::Verdict(shared.cfg.kernel().confirm(&frozen.snap, ratee, rater, &meter, &mut cache))
}

/// One manager's share of the paper's decentralised round: the shared
/// walk over its frozen slice, confirming each cross-manager pair at the
/// partner's owner over the network. Runs entirely on the frozen `Arc` with the state lock
/// released.
fn detect_round(shared: &Shared, round: u64) -> Response {
    let frozen = match frozen_round(shared, round) {
        Ok(frozen) => frozen,
        Err(refusal) => return refusal,
    };
    let peers: HashMap<NodeId, SocketAddr> = shared.peers.lock().expect("peer map lock").clone();
    let kernel = shared.cfg.kernel();
    let snap = &frozen.snap;
    // fresh client per round: per-round jitter stream, per-round stats
    let rpc_cfg =
        shared.cfg.rpc.with_jitter_seed(shared.cfg.rpc.jitter_seed ^ shared.cfg.id.raw() ^ round);
    let mut client = RpcClient::new(rpc_cfg);
    let (confirmed, unconfirmed) = kernel.round(
        snap,
        &shared.responsible,
        &CostMeter::new(),
        &mut kernel.agg_cache(snap),
        &mut HashSet::new(),
        |j, i| {
            let owner = shared.ring.owner_of(j);
            if owner == shared.cfg.id {
                return Partner::Local;
            }
            let Some(&addr) = peers.get(&owner) else { return Partner::Unreachable };
            match client.call(addr, &Request::Confirm { round, ratee: j, rater: i }) {
                Ok(Response::Verdict(v)) => Partner::Answered(v),
                // NotFrozen/BadRound from a just-rejoined partner, an
                // unexpected reply, or the deadline exhausted: degrade
                // rather than drop
                _ => Partner::Unreachable,
            }
        },
    );

    Response::Round(RoundReport {
        round,
        confirmed: confirmed.iter().map(WirePair::from).collect(),
        unconfirmed: unconfirmed.iter().map(WirePair::from).collect(),
        fault: client.stats(),
    })
}

#[cfg(test)]
mod oracle_props;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decentralized::tests::{colluding_ratings, node_ids, ratings, thresholds};
    use crate::durability::scratch_dir;
    use crate::fault::FaultStats;
    use crate::net::client::{InsertStream, ResumableStream, RpcError};
    use crate::net::proxy::{FaultProxy, NetFaultPlan, Partition};
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::RatingValue;
    use collusion_reputation::wal::{replay_bytes, WalFault, WalRecord};
    use std::collections::BTreeSet;
    use std::path::Path;

    type Ids = BTreeSet<(u64, u64)>;

    fn raw(pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Ids {
        pairs.into_iter().map(|(a, b)| (a.raw(), b.raw())).collect()
    }

    /// [`centralised_baseline`] under the tests' thresholds, as raw ids.
    fn centralised(rs: &[Rating], nodes: &[NodeId]) -> Ids {
        raw(centralised_baseline(thresholds(), rs, nodes))
    }

    /// Manager ids from 1042: on three of them each planted pair of
    /// `ratings()` straddles two managers, so a round confirms both pairs
    /// across the wire.
    fn manager_ids(n: u64) -> Vec<NodeId> {
        (1042..1042 + n).map(NodeId).collect()
    }

    fn config(id: NodeId, dir: &Path, managers: &[NodeId]) -> ManagerConfig {
        ManagerConfig {
            id,
            dir: dir.join(format!("m{}", id.raw())),
            nodes: node_ids(),
            managers: managers.to_vec(),
            replication: 1,
            thresholds: thresholds(),
            method: Method::Optimized,
            policy: DetectionPolicy::STRICT,
            shards: 4,
            durability: DurabilityConfig::default(),
            rpc: RpcConfig::lan(),
            backpressure: Backpressure::default(),
        }
    }

    fn spawn_cluster(dir: &Path, managers: &[NodeId]) -> Vec<ManagerNode> {
        spawn_cluster_with(dir, managers, DetectionPolicy::STRICT)
    }

    fn spawn_cluster_with(
        dir: &Path,
        managers: &[NodeId],
        policy: DetectionPolicy,
    ) -> Vec<ManagerNode> {
        let nodes: Vec<ManagerNode> = managers
            .iter()
            .map(|&id| {
                let cfg = ManagerConfig { policy, ..config(id, dir, managers) };
                ManagerNode::spawn(cfg).expect("spawn manager")
            })
            .collect();
        let peers: Vec<(NodeId, SocketAddr)> = nodes.iter().map(|n| (n.id(), n.addr())).collect();
        for n in &nodes {
            n.set_peers(&peers);
        }
        nodes
    }

    /// Close `session` and check that every one of `chunks` it sent comes
    /// back acked durable.
    fn close_acked(client: &mut RpcClient, session: InsertStream, chunks: &[&[Rating]]) {
        let sent: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let stats = client.close_insert_stream(session).expect("close stream");
        assert_eq!(stats.frames_sent, chunks.len() as u64, "one frame per chunk");
        assert_eq!(stats.frames_acked, stats.frames_sent, "close must drain the window");
        assert_eq!(stats.ratings_acked, sent, "every rating must be acked durable");
        assert!(sent == 0 || stats.durable_len > 0, "acks must carry the durable watermark");
    }

    /// Send `rs` over one windowed insert stream to `addr` and check that
    /// every rating comes back acked durable.
    fn stream(client: &mut RpcClient, addr: SocketAddr, rs: &[Rating]) {
        let mut session = client.open_insert_stream(addr, 4).expect("open stream");
        let chunks: Vec<&[Rating]> = rs.chunks(7).collect();
        for chunk in &chunks {
            session.send(chunk).expect("stream frame");
        }
        close_acked(client, session, &chunks);
    }

    /// Route each of `rs` to its owner over windowed insert streams, all
    /// open at once, and check that every rating comes back acked durable.
    /// `midway` runs with every stream half sent. Returns each rated
    /// owner's address and ratings.
    fn ingest_with(
        client: &mut RpcClient,
        nodes: &[ManagerNode],
        ring: &RingView,
        rs: &[Rating],
        midway: impl FnOnce(),
    ) -> HashMap<NodeId, (SocketAddr, Vec<Rating>)> {
        let addr_of: HashMap<NodeId, SocketAddr> =
            nodes.iter().map(|n| (n.id(), n.addr())).collect();
        let mut by_owner: HashMap<NodeId, (SocketAddr, Vec<Rating>)> = HashMap::new();
        for &r in rs {
            let owner = ring.owner_of(r.ratee);
            by_owner.entry(owner).or_insert_with(|| (addr_of[&owner], Vec::new())).1.push(r);
        }
        let mut sessions: Vec<_> = by_owner
            .values()
            .map(|(addr, rs)| {
                let session = client.open_insert_stream(*addr, 4).expect("open stream");
                (session, rs.chunks(7).collect::<Vec<_>>())
            })
            .collect();
        for (session, chunks) in &mut sessions {
            for chunk in &chunks[..chunks.len() / 2] {
                session.send(chunk).expect("stream frame");
            }
        }
        midway();
        for (session, chunks) in &mut sessions {
            for chunk in &chunks[chunks.len() / 2..] {
                session.send(chunk).expect("stream frame");
            }
        }
        for (session, chunks) in sessions {
            close_acked(client, session, &chunks);
        }
        by_owner
    }

    fn ingest(
        client: &mut RpcClient,
        nodes: &[ManagerNode],
        ring: &RingView,
        rs: &[Rating],
    ) -> HashMap<NodeId, (SocketAddr, Vec<Rating>)> {
        ingest_with(client, nodes, ring, rs, || ())
    }

    /// Rating records in the WAL of manager `id` under `dir`. Every acked
    /// frame is on disk, so a running manager's WAL can be read too.
    fn wal_ratings(dir: &Path, id: NodeId) -> usize {
        let wal_path = dir.join(format!("m{}", id.raw())).join(WAL_FILE);
        let replay =
            replay_bytes(&std::fs::read(&wal_path).expect("wal readable")).expect("wal replays");
        replay.records.iter().filter(|(_, r)| matches!(r, WalRecord::Rating(_))).count()
    }

    /// Freeze every one of `nodes` for `round`, then merge their
    /// `DetectRound` replies: confirmed and unconfirmed pairs as raw ids,
    /// and the summed retries and failed exchanges.
    fn round_reports(
        client: &mut RpcClient,
        nodes: &[ManagerNode],
        round: u64,
    ) -> (Ids, Ids, FaultStats) {
        for n in nodes {
            let resp = client.call(n.addr(), &Request::Freeze { round }).expect("freeze");
            assert!(matches!(resp, Response::Frozen { .. }));
        }
        let ids = |pairs: &[WirePair]| raw(pairs.iter().map(|p| (p.low, p.high)));
        let (mut confirmed, mut unconfirmed, mut fault) =
            (Ids::new(), Ids::new(), FaultStats::default());
        for n in nodes {
            let resp = client.call(n.addr(), &Request::DetectRound { round }).expect("detect");
            let Response::Round(report) = resp else {
                panic!("DetectRound must answer Round, got {resp:?}")
            };
            confirmed.extend(ids(&report.confirmed));
            unconfirmed.extend(ids(&report.unconfirmed));
            fault.retries += report.fault.retries;
            fault.failed_exchanges += report.fault.failed_exchanges;
        }
        (confirmed, unconfirmed, fault)
    }

    fn run_round(client: &mut RpcClient, nodes: &[ManagerNode], round: u64) -> Ids {
        let (confirmed, unconfirmed, _) = round_reports(client, nodes, round);
        assert!(unconfirmed.is_empty(), "fault-free round must confirm everything");
        confirmed
    }

    #[test]
    fn three_manager_cluster_matches_centralised_detection() {
        let dir = scratch_dir("net-cluster");
        let managers = manager_ids(3);
        let nodes = spawn_cluster(&dir, &managers);
        let ring = RingView::new(&managers);
        let mut client = RpcClient::new(RpcConfig::lan());
        ingest(&mut client, &nodes, &ring, &ratings());
        assert_ne!(ring.owner_of(NodeId(1)), ring.owner_of(NodeId(2)), "a cross-manager pair");

        let baseline = centralised(&ratings(), &node_ids());
        assert!(!baseline.is_empty(), "the workload must produce suspect pairs");
        let confirmed = run_round(&mut client, &nodes, 1);
        assert_eq!(confirmed, baseline, "networked round diverged from centralised detection");

        // the read path answers from the published view after a close
        for n in &nodes {
            client.call(n.addr(), &Request::CloseEpoch).expect("close epoch");
        }
        let owner = ring.owner_of(NodeId(1));
        let addr = nodes.iter().find(|n| n.id() == owner).expect("owner spawned").addr();
        let resp = client.call(addr, &Request::Query(NodeId(1))).expect("query");
        let Response::Reputation { known, signed, .. } = resp else {
            panic!("Query must answer Reputation, got {resp:?}")
        };
        assert!(known);
        assert_eq!(signed, 25, "n1: +30 partner, -5 community");

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extended_policy_round_matches_one_snapshot_detection() {
        let dir = scratch_dir("net-extended");
        let managers = manager_ids(3);
        let nodes = spawn_cluster_with(&dir, &managers, DetectionPolicy::EXTENDED);
        let ring = RingView::new(&managers);
        let mut client = RpcClient::new(RpcConfig::lan());
        let rs = ratings();
        ingest(&mut client, &nodes, &ring, &rs);

        // each direction reads only the ratee's row — its frequent
        // aggregate included — and the ratee's owner holds that row whole
        let mut history = InteractionHistory::new();
        for &r in &rs {
            history.record(r);
        }
        let snap = ShardedSnapshot::build(&history, &node_ids(), 1);
        let input = SnapshotInput::from_signed(&snap, &node_ids());
        let detector = OptimizedDetector::with_policy(thresholds(), DetectionPolicy::EXTENDED);
        let want = raw(detector.detect_snapshot(&input).pair_ids());
        assert!(!want.is_empty(), "the workload must produce suspect pairs");
        assert_eq!(run_round(&mut client, &nodes, 1), want);

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let dir = scratch_dir("net-reap");
        let managers = manager_ids(1);
        let nodes = spawn_cluster(&dir, &managers);
        let node = &nodes[0];
        let beat = || {
            let mut conn = TcpStream::connect(node.addr()).expect("connect");
            let beat = call_raw(&mut conn, &Request::Heartbeat);
            assert!(matches!(beat, Response::Beat { .. }), "got {beat:?}");
            conn
        };
        // eight connections one after another, never more than one open
        for _ in 0..8 {
            drop(beat());
        }
        // the open ninth and the closed eighth may still be registered
        let _ninth = beat();
        let held = node.conns.lock().expect("conn registry lock").len();
        assert!(held <= 2, "the registry holds {held} connection threads");

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_ingest_acks_durably_and_matches_in_process_detection() {
        let dir = scratch_dir("net-stream");
        let managers = manager_ids(3);
        let nodes = spawn_cluster(&dir, &managers);
        let ring = RingView::new(&managers);
        let mut client = RpcClient::new(RpcConfig::lan());

        // a reader queries every manager while the streams run: each query
        // is answered from the published view, never refused or stalled.
        // The streams open after its first answer, and at least eight more
        // arrive while every stream is open and half sent.
        let stop = Arc::new(AtomicBool::new(false));
        let (answers, answered) = std::sync::mpsc::channel();
        let reader = {
            let stop = Arc::clone(&stop);
            let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
            std::thread::spawn(move || {
                let mut client = RpcClient::new(RpcConfig::lan());
                for (k, node) in node_ids().into_iter().cycle().enumerate() {
                    let resp =
                        client.call(addrs[k % addrs.len()], &Request::Query(node)).expect("query");
                    assert!(
                        matches!(resp, Response::Reputation { .. }),
                        "Query must answer Reputation under live ingest, got {resp:?}"
                    );
                    answers.send(()).ok();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            })
        };
        answered.recv().expect("the reader's first query must answer");
        let by_owner = ingest_with(&mut client, &nodes, &ring, &ratings(), || {
            while answered.try_recv().is_ok() {}
            for _ in 0..8 {
                answered.recv().expect("queries must answer mid-stream");
            }
        });
        stop.store(true, Ordering::Release);
        reader.join().expect("every query answers Reputation");

        // acked ⇒ on disk: the WAL already holds every acked rating even
        // though no explicit sync/close was requested
        for (owner, (_, rs)) in &by_owner {
            assert_eq!(
                wal_ratings(&dir, *owner),
                rs.len(),
                "acked ratings must already be in the WAL"
            );
        }

        // the stream path must feed detection as one centralised pass would
        let baseline = centralised(&ratings(), &node_ids());
        assert!(!baseline.is_empty());
        let confirmed = run_round(&mut client, &nodes, 1);
        assert_eq!(confirmed, baseline, "streamed ingest diverged from centralised detection");

        // the extended Status surfaces the stream's data-plane counters
        for (addr, rs) in by_owner.values() {
            let resp = client.call(*addr, &Request::Status).expect("status");
            let Response::Status(info) = resp else { panic!("Status must answer Status") };
            assert_eq!(info.stream_ratings, rs.len() as u64);
            assert!(info.stream_frames > 0);
            assert!(info.durable_len <= info.wal_len);
            assert_eq!(
                info.recorded + info.intake_pending,
                rs.len() as u64,
                "absorbed + pending must cover every streamed rating"
            );
            assert_eq!(info.intake_pending, 0, "Freeze must have absorbed the intake");
        }

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_manager_rejoins_from_its_wal() {
        let dir = scratch_dir("net-rejoin");
        let managers = manager_ids(3);
        let nodes = spawn_cluster(&dir, &managers);
        let ring = RingView::new(&managers);
        let mut client = RpcClient::new(RpcConfig::lan());
        ingest(&mut client, &nodes, &ring, &ratings());
        let before = run_round(&mut client, &nodes, 1);

        // kill the manager owning a colluder, then respawn it on the same
        // durability directory (new port)
        let victim_id = ring.owner_of(NodeId(1));
        let mut nodes: Vec<ManagerNode> = nodes.into_iter().collect();
        let pos = nodes.iter().position(|n| n.id() == victim_id).expect("victim spawned");
        let victim = nodes.remove(pos);
        let old_addr = victim.addr();
        victim.kill().expect("clean kill");
        let reborn = ManagerNode::spawn(config(victim_id, &dir, &managers)).expect("rejoin");
        assert_ne!(reborn.addr(), old_addr, "ephemeral port must change");
        nodes.push(reborn);
        let peers: Vec<(NodeId, SocketAddr)> = nodes.iter().map(|n| (n.id(), n.addr())).collect();
        for n in &nodes {
            n.set_peers(&peers);
            client.forget(n.addr());
        }

        // the rejoined manager answers queries from its recovered slice
        let addr = nodes.iter().find(|n| n.id() == victim_id).expect("rejoined").addr();
        let resp = client.call(addr, &Request::Query(NodeId(1))).expect("query after rejoin");
        let Response::Reputation { known, signed, .. } = resp else {
            panic!("Query must answer Reputation, got {resp:?}")
        };
        assert!(known, "recovered history must be queryable");
        assert_eq!(signed, 25);

        // a full round after the rejoin matches the pre-kill verdicts
        let after = run_round(&mut client, &nodes, 2);
        assert_eq!(after, before, "rejoined cluster diverged from pre-kill verdicts");

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `CloseEpoch` is acked before its checkpoint is on disk, yet a
    /// kill right after the ack leaves that checkpoint behind: `shutdown`
    /// waits for the writer after its WAL sync, and the checkpoint's cursor
    /// is the acked `seq`, so recovery replays nothing.
    #[test]
    fn a_kill_right_after_a_close_leaves_that_close_s_checkpoint() {
        let dir = scratch_dir("net-close-kill");
        let managers = manager_ids(1);
        let mut nodes = spawn_cluster(&dir, &managers);
        let addr = nodes[0].addr();
        let owned = nodes[0].responsible().to_vec();
        // no retries: a retried close would close a second epoch
        let mut client = RpcClient::new(RpcConfig { max_retries: 0, ..RpcConfig::lan() });
        let mut seq = 0;
        for _ in 0..2 {
            stream(&mut client, addr, &ratings());
            let resp = client.call(addr, &Request::CloseEpoch).expect("close epoch");
            let Response::Ack { seq: acked, .. } = resp else {
                panic!("CloseEpoch must answer Ack, got {resp:?}")
            };
            seq = acked;
        }
        nodes.remove(0).kill().expect("clean kill");

        let cfg = config(managers[0], &dir, &managers);
        let newest = std::fs::read_dir(&cfg.dir)
            .expect("manager directory")
            .filter_map(|e| {
                let name = e.expect("entry").file_name().into_string().expect("utf-8 name");
                name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?.parse::<u64>().ok()
            })
            .max();
        assert_eq!(newest, Some(seq), "the newest checkpoint must be the acked close's");
        let (_, report) =
            DurableEngine::recover(&cfg.dir, &owned, cfg.setup(), cfg.durability).expect("recover");
        assert_eq!(report.checkpoint_cursor, Some(seq));
        assert_eq!(report.replayed_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_owner_degrades_to_unconfirmed_without_hanging() {
        let dir = scratch_dir("net-degraded");
        let managers = manager_ids(3);
        let nodes = spawn_cluster(&dir, &managers);
        let ring = RingView::new(&managers);
        let mut client = RpcClient::new(RpcConfig::lan());
        ingest(&mut client, &nodes, &ring, &ratings());

        // the planted pair (1, 2) straddles two managers: kill the one that
        // owns 2 and leave it dead. That manager holds the only copy of
        // 2's slice, so nobody else can answer for it.
        let victim_id = ring.owner_of(NodeId(2));
        assert_ne!(ring.owner_of(NodeId(1)), victim_id, "the pair must straddle the victim");
        let mut nodes: Vec<ManagerNode> = nodes.into_iter().collect();
        let pos = nodes.iter().position(|n| n.id() == victim_id).expect("victim spawned");
        nodes.remove(pos).kill().expect("clean kill");

        // tight deadlines keep the round fast even with a dead peer
        let start = std::time::Instant::now();
        let (confirmed, unconfirmed, fault) = round_reports(&mut client, &nodes, 1);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "rounds against a dead peer must respect deadlines, took {:?}",
            start.elapsed()
        );
        assert!(unconfirmed.contains(&(1, 2)), "the straddling pair must be reported unconfirmed");
        assert!(!confirmed.contains(&(1, 2)), "a dead partner cannot confirm");
        assert!(fault.failed_exchanges > 0, "degradation must be accounted");

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Confirmations over lossy links: each manager's peers reach it
    /// through a [`FaultProxy`] dropping 30 % of frames, so a confirmation
    /// retries at the partner's owner until its deadline. A lost exchange
    /// degrades its pair to unconfirmed; no pair is invented or lost.
    #[test]
    fn dropped_confirmation_frames_degrade_pairs_never_lose_them() {
        let dir = scratch_dir("net-drops");
        let managers = manager_ids(3);
        // twelve planted pairs over nodes 1..=24: with three managers most
        // straddle two of them, so confirmations cross the proxies
        let pairs: Vec<(u64, u64)> = (0..12).map(|k| (2 * k + 1, 2 * k + 2)).collect();
        let rs = colluding_ratings(&pairs);
        let node_list: Vec<NodeId> = (1..=24).chain(40..45).map(NodeId).collect();
        let lossy = RpcConfig {
            connect_timeout_ms: 100,
            attempt_timeout_ms: 100,
            total_deadline_ms: 1_000,
            max_retries: 6,
            backoff_base_ms: 2,
            jitter_seed: 0xD3,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let nodes: Vec<ManagerNode> = managers
            .iter()
            .map(|&id| {
                let cfg = ManagerConfig {
                    nodes: node_list.clone(),
                    rpc: lossy,
                    ..config(id, &dir, &managers)
                };
                ManagerNode::spawn(cfg).expect("spawn manager")
            })
            .collect();
        let plan = NetFaultPlan {
            drop_probability: 0.3,
            delay_ms: (0, 0),
            partition: Partition::None,
            seed: 0xD3,
        };
        let proxies: Vec<FaultProxy> = nodes
            .iter()
            .enumerate()
            .map(|(k, n)| FaultProxy::spawn(n.addr(), plan, k as u64).expect("spawn proxy"))
            .collect();
        let peers: Vec<(NodeId, SocketAddr)> =
            nodes.iter().zip(&proxies).map(|(n, p)| (n.id(), p.addr())).collect();
        for n in &nodes {
            n.set_peers(&peers);
        }

        // ingest goes direct; only peer traffic is lossy
        let ring = RingView::new(&managers);
        let mut client = RpcClient::new(RpcConfig::lan());
        ingest(&mut client, &nodes, &ring, &rs);

        // DetectRound runs every confirmation before it replies: one patient
        // attempt, since a retried round would run twice
        let mut control = RpcClient::new(RpcConfig {
            attempt_timeout_ms: 60_000,
            total_deadline_ms: 60_000,
            max_retries: 0,
            ..RpcConfig::lan()
        });
        let (confirmed, unconfirmed, fault) = round_reports(&mut control, &nodes, 1);

        let baseline = centralised(&rs, &node_list);
        assert_eq!(baseline.len(), pairs.len(), "every planted pair is a baseline pair");
        assert!(confirmed.is_subset(&baseline), "a lossy link must never confirm a false pair");
        let reported: BTreeSet<(u64, u64)> = confirmed.union(&unconfirmed).copied().collect();
        assert!(baseline.is_subset(&reported), "pairs must degrade, not vanish");
        let (sent, dropped) = proxies
            .iter()
            .map(FaultProxy::stats)
            .fold((0, 0), |(s, d), st| (s + st.sent, d + st.dropped));
        assert!(sent > 0, "confirmations must cross the proxies");
        assert!(dropped > 0, "the proxies must actually drop frames");
        assert!(
            fault.retries > 0 || fault.failed_exchanges == 0,
            "drops without retries can only mean clean delivery"
        );

        drop(proxies);
        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One request/response exchange on a raw stream connection.
    fn call_raw(stream: &mut TcpStream, req: &Request) -> Response {
        write_frame(stream, &req.encode()).expect("write request frame");
        let payload = read_frame(stream, MAX_FRAME_PAYLOAD).expect("read response frame");
        Response::decode(&payload).expect("decode response")
    }

    #[test]
    fn a_retired_insert_tag_is_malformed_and_the_connection_survives() {
        let dir = scratch_dir("net-retired-tag");
        let managers = manager_ids(1);
        let nodes = spawn_cluster(&dir, &managers);
        let mut conn = TcpStream::connect(nodes[0].addr()).expect("connect");
        // 1 and 2 are the retired inserts, 3 the replica push, 0 the bare
        // probe, 9 the verdict fetch; a rating batch behind each tag must
        // not be folded
        for tag in [1, 2, 3, 0, 9] {
            let mut frame = Request::encode_insert_stream(0, 1, &ratings());
            frame[1] = tag;
            write_frame(&mut conn, &frame).expect("send");
            let resp = Response::decode(&read_frame(&mut conn, MAX_FRAME_PAYLOAD).expect("reply"))
                .expect("decode");
            assert_eq!(resp, Response::Error { code: ErrorCode::Malformed }, "tag {tag}");
        }
        let beat = call_raw(&mut conn, &Request::Heartbeat);
        assert!(matches!(beat, Response::Beat { manager, .. } if manager == managers[0]));
        let Response::Status(info) = call_raw(&mut conn, &Request::Status) else {
            panic!("Status must answer Status")
        };
        assert_eq!((info.recorded, info.stream_ratings), (0, 0), "nothing may be folded");

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumable_sessions_nack_gaps_and_dedup_duplicates() {
        let dir = scratch_dir("net-stream-dedup");
        let managers = manager_ids(1);
        let mut nodes = spawn_cluster(&dir, &managers);
        let addr = nodes[0].addr();
        let session = 0x5E55u64;
        let f1 = vec![
            Rating::positive(NodeId(1), NodeId(2), SimTime(1)),
            Rating::positive(NodeId(2), NodeId(1), SimTime(2)),
        ];
        let f2 = vec![
            Rating::positive(NodeId(20), NodeId(21), SimTime(3)),
            Rating::positive(NodeId(21), NodeId(20), SimTime(4)),
        ];

        let mut conn = TcpStream::connect(addr).expect("connect");
        // a frame ahead of the expected sequence is refused with the exact
        // resume point, not applied out of order
        write_frame(&mut conn, &Request::encode_insert_stream(session, 2, &f2)).expect("send");
        let resp = Response::decode(&read_frame(&mut conn, MAX_FRAME_PAYLOAD).expect("nack"))
            .expect("decode");
        assert_eq!(resp, Response::StreamNack { expected_seq: 1 });

        write_frame(&mut conn, &Request::encode_insert_stream(session, 1, &f1)).expect("send");
        let ack = call_raw(&mut conn, &Request::StreamFlush);
        assert!(
            matches!(ack, Response::InsertAck { stream_seq: 1, accepted: 2, .. }),
            "in-sequence frame must ack durably, got {ack:?}"
        );

        // a duplicate of an applied frame is skipped, never re-applied
        write_frame(&mut conn, &Request::encode_insert_stream(session, 1, &f1)).expect("send");
        let resp = Response::decode(&read_frame(&mut conn, MAX_FRAME_PAYLOAD).expect("nack"))
            .expect("decode");
        assert_eq!(resp, Response::StreamNack { expected_seq: 2 });
        drop(conn);

        // a fresh connection resumes the session at the durable watermark
        let mut conn = TcpStream::connect(addr).expect("reconnect");
        let state = call_raw(&mut conn, &Request::StreamResume { session });
        assert_eq!(state, Response::StreamState { durable_seq: 1, accepted: 2 });
        write_frame(&mut conn, &Request::encode_insert_stream(session, 2, &f2)).expect("send");
        let ack = call_raw(&mut conn, &Request::StreamFlush);
        assert!(
            matches!(ack, Response::InsertAck { stream_seq: 2, accepted: 4, .. }),
            "resumed frame must ack cumulatively, got {ack:?}"
        );

        let status = call_raw(&mut conn, &Request::Status);
        let Response::Status(info) = status else { panic!("Status must answer Status") };
        assert_eq!(info.stream_ratings, 4, "the duplicate frame must not be re-applied");
        assert_eq!(info.sessions_resumed, 1);
        drop(conn);

        // durability-level dedup: the WAL holds each rating exactly once
        nodes.remove(0).kill().expect("clean kill");
        assert_eq!(wal_ratings(&dir, managers[0]), 4, "WAL must hold each rating exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Send frame `seq` of `session` and a `StreamFlush` barrier, and read
    /// the one answer: the frame's ack, or `None` for a refusal or a
    /// connection the manager dropped.
    fn send_flushed(conn: &mut TcpStream, session: u64, seq: u64, frame: &[Rating]) -> Option<u64> {
        write_frame(conn, &Request::encode_insert_stream(session, seq, frame)).ok()?;
        write_frame(conn, &Request::StreamFlush.encode()).ok()?;
        let resp = Response::decode(&read_frame(conn, MAX_FRAME_PAYLOAD).ok()?).expect("decode");
        match resp {
            Response::InsertAck { stream_seq, .. } => {
                assert_eq!(stream_seq, seq, "one frame in flight, one ack");
                Some(seq)
            }
            Response::Error { code: ErrorCode::Internal } => None,
            other => panic!("frame {seq}: unexpected {other:?}"),
        }
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
        conn
    }

    /// One resumable stream of `frames` into a fresh manager whose WAL
    /// fails as `fault` says; on a refused frame or a dropped connection
    /// the client resumes on a new connection, as it would after a
    /// transient error. A poisoned manager refuses the resume, is killed,
    /// rejoins from its WAL and the client resumes there. Checks the
    /// outcome and returns whether the fault fired.
    fn stream_through_a_wal_fault(fault: WalFault, frames: &[Vec<Rating>]) -> bool {
        let dir = scratch_dir("net-wal-fault");
        let managers = manager_ids(1);
        let mut cfg = config(managers[0], &dir, &managers);
        // forced closes, and so checkpoints, at frame ends (7 ratings a frame)
        cfg.durability.pair_watermark = Some(10);
        let mut node = ManagerNode::spawn(cfg.clone()).expect("spawn manager");
        node.shared.data.durable.lock().expect("durable lock").engine.inject_wal_fault(fault);
        let session = 0xFA17;
        let (mut acked, mut next) = (0, 1);
        let mut conn = connect(node.addr());
        let mut refused = false;
        while next <= frames.len() as u64 {
            if let Some(seq) = send_flushed(&mut conn, session, next, &frames[next as usize - 1]) {
                (acked, next) = (seq, seq + 1);
                continue;
            }
            conn = connect(node.addr());
            match call_raw(&mut conn, &Request::StreamResume { session }) {
                Response::StreamState { durable_seq, .. } => {
                    assert!(durable_seq >= acked, "{fault:?}: an acked frame was lost");
                    next = durable_seq + 1;
                }
                Response::Error { code: ErrorCode::Internal } => {
                    refused = true;
                    break;
                }
                other => panic!("{fault:?}: StreamResume answered {other:?}"),
            }
        }
        let fired = {
            let eng = &mut node.shared.data.durable.lock().expect("durable lock").engine;
            // a fault the stream never reached is disarmed: it is this k's
            // run that shows the stream outran every fault
            eng.inject_wal_fault(match fault {
                WalFault::Write(_) => WalFault::Write(0),
                WalFault::Sync(_) => WalFault::Sync(0),
            });
            eng.healthy().is_err()
        };
        assert_eq!(refused, fired, "{fault:?}: a poisoned manager refuses every resume");
        if fired {
            // the control plane refuses too, until the rejoin
            for req in [Request::CloseEpoch, Request::Freeze { round: 1 }] {
                let resp = call_raw(&mut conn, &req);
                assert_eq!(resp, Response::Error { code: ErrorCode::Internal }, "{req:?}");
            }
            drop(conn);
            assert!(node.kill().is_err(), "{fault:?}: the kill's sync fails on a poisoned log");
            node = ManagerNode::spawn(cfg.clone()).expect("rejoin");
            conn = connect(node.addr());
            let Response::StreamState { durable_seq, accepted } =
                call_raw(&mut conn, &Request::StreamResume { session })
            else {
                panic!("{fault:?}: the rejoined manager must resume the session")
            };
            assert!(durable_seq >= acked, "{fault:?}: an acked frame was lost");
            let sent: usize = frames[..durable_seq as usize].iter().map(Vec::len).sum();
            assert_eq!(accepted, sent as u64, "{fault:?}: session table vs its frames");
            if durable_seq > 0 {
                // a retransmission of a logged frame is deduplicated
                let dup = &frames[durable_seq as usize - 1];
                write_frame(&mut conn, &Request::encode_insert_stream(session, durable_seq, dup))
                    .expect("send");
                let resp =
                    Response::decode(&read_frame(&mut conn, MAX_FRAME_PAYLOAD).expect("nack"))
                        .expect("decode");
                assert_eq!(resp, Response::StreamNack { expected_seq: durable_seq + 1 });
            }
            for seq in durable_seq + 1..=frames.len() as u64 {
                let frame = &frames[seq as usize - 1];
                assert_eq!(send_flushed(&mut conn, session, seq, frame), Some(seq), "{fault:?}");
            }
        }

        let all: Vec<Rating> = frames.concat();
        let non_self = all.iter().filter(|r| !r.is_self_rating()).count() as u64;
        let closed = call_raw(&mut conn, &Request::CloseEpoch);
        assert!(matches!(closed, Response::Ack { .. }), "{fault:?}: {closed:?}");
        let Response::Status(info) = call_raw(&mut conn, &Request::Status) else {
            panic!("Status must answer Status")
        };
        let folded = {
            let d = node.shared.data.durable.lock().expect("durable lock");
            d.engine.engine_stats().ratings + d.engine.engine().pending_ratings()
        };
        assert_eq!((info.recorded, info.intake_pending), (non_self, 0), "{fault:?}: Status");
        assert_eq!(folded, non_self, "{fault:?}: the engine applied a frame twice or not at all");
        drop(conn);
        node.kill().expect("clean kill");
        let wal_path = cfg.dir.join(WAL_FILE);
        let replay = replay_bytes(&std::fs::read(&wal_path).expect("wal")).expect("replays");
        let logged: Vec<Rating> = replay
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Rating(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert_eq!(logged, all, "{fault:?}: the WAL must hold every rating once, in order");
        std::fs::remove_dir_all(&dir).ok();
        fired
    }

    /// For every k over a short resumable stream, the k-th WAL `write(2)`
    /// — and, separately, the k-th `sync_data` — fails: the engine is
    /// poisoned, the manager refuses until it is killed and rejoined from
    /// its WAL, and the client resumes. Every rating ends up in the WAL
    /// once, `Status.recorded` equals what the engine folded, and a
    /// retransmitted frame is applied once.
    #[test]
    fn a_wal_fault_at_any_write_or_fsync_loses_and_repeats_no_frame() {
        // six frames of seven ratings, ids 1..=12, one self-rating a frame
        let frames: Vec<Vec<Rating>> = (0..6u64)
            .map(|f| {
                (0..7u64)
                    .map(|k| {
                        let rater = NodeId(1 + (f * 7 + k) % 12);
                        let ratee = if k == 3 { rater } else { NodeId(1 + (f * 5 + k * 7) % 12) };
                        let value =
                            if k % 3 == 0 { RatingValue::Negative } else { RatingValue::Positive };
                        Rating::new(rater, ratee, value, SimTime(f * 7 + k))
                    })
                    .collect()
            })
            .collect();
        for fault in [WalFault::Write, WalFault::Sync] {
            let mut k = 1;
            while stream_through_a_wal_fault(fault(k), &frames) {
                k += 1;
                assert!(k < 100, "{:?}: the stream never outran the fault", fault(k));
            }
            assert!(k > 1, "{:?}: no fault ever fired", fault(1));
        }
    }

    #[test]
    fn an_anonymous_stream_reopened_on_a_pooled_connection_starts_over() {
        let dir = scratch_dir("net-stream-reopen");
        let managers = manager_ids(1);
        let nodes = spawn_cluster(&dir, &managers);
        let addr = nodes[0].addr();
        let mut client = RpcClient::new(RpcConfig::lan());
        let all = ratings();
        let (first, second) = all.split_at(all.len() / 3);

        // the second stream rides the connection the first one handed back:
        // the client numbers its frames from 1 again and so must the server,
        // and acks count the new stream's ratings only
        for part in [first, second] {
            stream(&mut client, addr, part);
        }

        let resp = client.call(addr, &Request::Status).expect("status");
        let Response::Status(info) = resp else { panic!("Status must answer Status") };
        assert_eq!(info.stream_ratings, all.len() as u64);
        assert_eq!(info.recorded + info.intake_pending, all.len() as u64);

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_frame_naming_a_ratee_owned_elsewhere_is_refused_whole() {
        let dir = scratch_dir("net-misrouted");
        let managers = manager_ids(3);
        let nodes = spawn_cluster(&dir, &managers);
        let node = &nodes[0];
        let ring = RingView::new(&managers);
        // any id is owned by someone on the ring, registered or not
        let (owned, elsewhere): (Vec<NodeId>, Vec<NodeId>) =
            (1..1000).map(NodeId).partition(|&n| ring.owner_of(n) == node.id());
        assert!(owned.len() >= 2 && !elsewhere.is_empty(), "the ids must split across managers");
        let rate_owned = |t: u64| Rating::positive(owned[1], owned[0], SimTime(t));
        let session = 0x0B5Eu64;
        let mut conn = TcpStream::connect(node.addr()).expect("connect");
        let send = |conn: &mut TcpStream, seq: u64, rs: &[Rating]| {
            write_frame(conn, &Request::encode_insert_stream(session, seq, rs)).expect("send");
        };

        send(&mut conn, 1, &[rate_owned(1)]);
        let ack = call_raw(&mut conn, &Request::StreamFlush);
        assert!(matches!(ack, Response::InsertAck { stream_seq: 1, accepted: 1, .. }), "{ack:?}");
        let status = |conn: &mut TcpStream| {
            let Response::Status(info) = call_raw(conn, &Request::Status) else {
                panic!("Status must answer Status")
            };
            (info.recorded, info.intake_pending, info.stream_ratings)
        };
        let before = status(&mut conn);
        assert_eq!(before.0 + before.1, 1);

        // one owned and one foreign ratee: the whole frame is refused
        let mixed = [rate_owned(2), Rating::positive(owned[0], elsewhere[0], SimTime(3))];
        send(&mut conn, 2, &mixed);
        let resp = Response::decode(&read_frame(&mut conn, MAX_FRAME_PAYLOAD).expect("refusal"))
            .expect("decode");
        assert_eq!(resp, Response::Error { code: ErrorCode::Malformed });
        assert_eq!(status(&mut conn), before, "a refused frame must change no counter");
        assert_eq!(wal_ratings(&dir, node.id()), 1, "a refused frame must not reach the WAL");

        // the sequence did not advance: the same stream_seq, owned only, is taken
        send(&mut conn, 2, &mixed[..1]);
        let ack = call_raw(&mut conn, &Request::StreamFlush);
        assert!(matches!(ack, Response::InsertAck { stream_seq: 2, accepted: 2, .. }), "{ack:?}");
        let (recorded, pending, streamed) = status(&mut conn);
        assert_eq!((recorded + pending, streamed), (2, 2));
        assert_eq!(wal_ratings(&dir, node.id()), 2);
        drop(conn);

        // a resumable stream stops on the refusal instead of resuming and
        // retransmitting the frame for ever
        let addr = node.addr();
        let mut stream =
            ResumableStream::open(session + 1, 4, RpcConfig::lan(), move || vec![addr]);
        let refused = stream.send(&mixed).and_then(|()| stream.finish().map(drop));
        assert!(matches!(refused, Err(RpcError::Refused(ErrorCode::Malformed))), "got {refused:?}");
        assert_eq!(wal_ratings(&dir, node.id()), 2);

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replication_other_than_one_is_refused_before_any_wal_exists() {
        let dir = scratch_dir("net-replication");
        let managers = manager_ids(3);
        let cfg = ManagerConfig { replication: 2, ..config(managers[0], &dir, &managers) };
        let err = ManagerNode::spawn(cfg.clone()).err().expect("replication 2 must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!cfg.dir.exists(), "a refused spawn must leave no directory behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publications_that_intern_no_new_id_share_one_node_table() {
        let dir = scratch_dir("net-view-table");
        let managers = manager_ids(1);
        let nodes = spawn_cluster(&dir, &managers);
        let node = &nodes[0];
        let mut client = RpcClient::new(RpcConfig::lan());
        let mut publish = |batch: Vec<Rating>| {
            stream(&mut client, node.addr(), &batch);
            client.call(node.addr(), &Request::CloseEpoch).expect("close epoch");
            node.view()
        };

        let first = publish(ratings());
        // every id of the second batch is interned already: the publication
        // costs the delta, not a new table
        let second = publish(ratings());
        assert!(Arc::ptr_eq(&first.nodes, &second.nodes));
        assert_eq!(second.reputation(NodeId(1)), Some(50), "n1: 2 × (+30 partner, -5 community)");
        // one id nobody has seen re-allocates it, once
        let third = publish(vec![Rating::positive(NodeId(77), NodeId(1), SimTime(1))]);
        assert!(!Arc::ptr_eq(&second.nodes, &third.nodes));
        assert_eq!(third.reputation(NodeId(77)), Some(0));
        assert_eq!(third.reputation(NodeId(1)), Some(51));
        let fourth = publish(Vec::new());
        assert!(Arc::ptr_eq(&third.nodes, &fourth.nodes));

        // Status and Query read the one published view
        let Response::Status(info) = client.call(node.addr(), &Request::Status).expect("status")
        else {
            panic!("Status must answer Status")
        };
        let resp = client.call(node.addr(), &Request::Query(NodeId(1))).expect("query");
        let Response::Reputation { view_version, .. } = resp else {
            panic!("Query must answer Reputation, got {resp:?}")
        };
        assert_eq!(info.view_version, view_version);
        assert_eq!(view_version, fourth.epoch);

        drop(nodes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Three connections stream into one manager at once, over shared
    /// ratees, self-ratings and ids nobody registered, while a low rating
    /// watermark closes epochs inside frames. After one `CloseEpoch` the
    /// published view equals the engine's slice and every non-self rating
    /// is counted exactly once.
    #[test]
    fn concurrent_streams_into_one_manager_publish_the_engine_s_slice() {
        let dir = scratch_dir("net-concurrent");
        let managers = manager_ids(1);
        let mut cfg = config(managers[0], &dir, &managers);
        cfg.durability.pair_watermark = Some(200);
        let node = ManagerNode::spawn(cfg).expect("spawn manager");
        node.set_peers(&[(node.id(), node.addr())]);
        // ids 1..=60: the registered ones and many more; every 97th a self-rating
        let lanes: Vec<Vec<Rating>> = (0..3u64)
            .map(|lane| {
                (0..3_000u64)
                    .map(|k| {
                        let x = (lane * 3_000 + k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
                        let rater = NodeId(1 + x % 60);
                        let ratee = if k % 97 == 0 { rater } else { NodeId(1 + (x >> 8) % 60) };
                        let value = match (x >> 16) % 3 {
                            0 => RatingValue::Negative,
                            1 => RatingValue::Neutral,
                            _ => RatingValue::Positive,
                        };
                        Rating::new(rater, ratee, value, SimTime(k))
                    })
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for lane in &lanes {
                let addr = node.addr();
                scope.spawn(move || stream(&mut RpcClient::new(RpcConfig::lan()), addr, lane));
            }
        });
        let mut client = RpcClient::new(RpcConfig::lan());
        let closed = client.call(node.addr(), &Request::CloseEpoch).expect("close epoch");
        assert!(matches!(closed, Response::Ack { .. }), "got {closed:?}");

        let slice = node
            .shared
            .data
            .durable
            .lock()
            .expect("durable lock")
            .engine
            .engine()
            .frozen_snapshot();
        let expect = ViewTotals::of(&slice);
        let view = node.view();
        assert!(expect.nodes.len() > node_ids().len(), "unregistered ids must be interned");
        assert_eq!(*view.nodes, *expect.nodes, "published node table");
        assert_eq!(view.signed, expect.signed, "published signed totals");
        let Response::Status(info) = client.call(node.addr(), &Request::Status).expect("status")
        else {
            panic!("Status must answer Status")
        };
        let non_self = lanes.iter().flatten().filter(|r| !r.is_self_rating()).count() as u64;
        assert!(non_self < 9_000, "the lanes must hold self-ratings");
        assert_eq!(info.recorded, non_self);
        assert_eq!(info.intake_pending, 0);

        node.kill().expect("clean kill");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backpressure_throttles_past_the_watermark_and_sheds_past_the_hard_limit() {
        let dir = scratch_dir("net-backpressure");
        let managers = manager_ids(1);
        let mut cfg = config(managers[0], &dir, &managers);
        cfg.backpressure = Backpressure { high_watermark: 1, hard_limit: 5 };
        let node = ManagerNode::spawn(cfg).expect("spawn manager");
        node.set_peers(&[(node.id(), node.addr())]);

        let frame = |i: u64| {
            vec![
                Rating::positive(NodeId(40), NodeId(41), SimTime(2 * i)),
                Rating::positive(NodeId(41), NodeId(40), SimTime(2 * i + 1)),
            ]
        };
        let mut conn = TcpStream::connect(node.addr()).expect("connect");

        // below the watermark: applied, no throttle hint
        write_frame(&mut conn, &Request::encode_insert_stream(0, 1, &frame(1))).expect("send");
        let ack = call_raw(&mut conn, &Request::StreamFlush);
        assert!(
            matches!(ack, Response::InsertAck { stream_seq: 1, throttle: false, .. }),
            "an idle intake must not throttle, got {ack:?}"
        );

        // past the watermark: still applied, but the ack stalls the window
        for seq in 2..=3u64 {
            write_frame(&mut conn, &Request::encode_insert_stream(0, seq, &frame(seq)))
                .expect("send");
            let ack = call_raw(&mut conn, &Request::StreamFlush);
            assert!(
                matches!(ack, Response::InsertAck { stream_seq, throttle: true, .. } if stream_seq == seq),
                "past the high-watermark acks must carry throttle, got {ack:?}"
            );
        }

        // past the hard limit: refused outright, sequence not advanced
        write_frame(&mut conn, &Request::encode_insert_stream(0, 4, &frame(4))).expect("send");
        let resp = Response::decode(&read_frame(&mut conn, MAX_FRAME_PAYLOAD).expect("refusal"))
            .expect("decode");
        assert_eq!(resp, Response::Error { code: ErrorCode::Overloaded });
        let beat = call_raw(&mut conn, &Request::Heartbeat);
        assert!(
            matches!(beat, Response::Beat { shedding: true, intake_pending: 6, .. }),
            "a shedding manager must say so in its heartbeat, got {beat:?}"
        );

        // draining the intake (CloseEpoch absorbs it) lets the *same* frame
        // through verbatim — refusal is retryable, not a protocol desync
        let closed = call_raw(&mut conn, &Request::CloseEpoch);
        assert!(matches!(closed, Response::Ack { .. }));
        write_frame(&mut conn, &Request::encode_insert_stream(0, 4, &frame(4))).expect("resend");
        let ack = call_raw(&mut conn, &Request::StreamFlush);
        assert!(
            matches!(ack, Response::InsertAck { stream_seq: 4, throttle: false, .. }),
            "a refused frame must be retryable at the same sequence, got {ack:?}"
        );

        let status = call_raw(&mut conn, &Request::Status);
        let Response::Status(info) = status else { panic!("Status must answer Status") };
        assert_eq!(info.stream_frames, 4);
        assert_eq!(info.stream_ratings, 8);
        assert_eq!(info.throttled_frames, 2, "frames 2 and 3 crossed the watermark");
        assert_eq!(info.refused_frames, 1, "frame 4's first attempt was shed");
        drop(conn);

        node.kill().expect("clean kill");
        std::fs::remove_dir_all(&dir).ok();
    }
}
