//! Nemesis harness: composed fault schedules against a live TCP cluster,
//! with exactly-once verification down to WAL bytes.
//!
//! Each nemesis streams the deterministic workload into the cluster
//! through [`ResumableStream`] sessions (one per owner manager) while the
//! harness injects faults mid-stream:
//!
//! * **Crash** — kill a manager (WAL synced, sockets torn down), let the
//!   heartbeat [`FailureDetector`] confirm the death, respawn it from its
//!   durability directory on a fresh port, and only then publish the new
//!   address — the streaming clients fail over by re-resolving and
//!   resuming from the reborn manager's durable session table.
//! * **Partition** — sever the ack direction of one owner's ingest link
//!   (frames still arrive and are applied; acks vanish), hold the cut,
//!   then heal. The resumed client learns via `StreamResume` that its
//!   in-flight frames are already durable and must *not* retransmit them.
//! * **Reconnect** — several short sever/heal cycles, forcing repeated
//!   resume handshakes on one session.
//! * **Overload** — shrink the server intake high-watermark so acks carry
//!   `throttle` hints; clients stall their windows instead of being
//!   refused, and throughput degrades gracefully (the gate asserts at
//!   least half the fault-free rate).
//!
//! Fault injection is driven by **ingest progress**, not wall-clock: the
//! schedule fires when the streamed chunk count crosses fixed thresholds,
//! and the lanes *gate* on the next pending threshold — they pause there
//! until its action has fired — so a fast machine cannot race the faults
//! past the stream and every scheduled action fires on every run.
//!
//! After healing, two global invariants are checked:
//!
//! 1. **Exactly-once**: the multiset of ratings across all manager WALs
//!    equals the offered workload — no acked rating lost, none duplicated
//!    (asserted rating-by-rating, not by count).
//! 2. **Detection unchanged**: the cluster's confirmed suspect set equals
//!    the centralised baseline over the offered ratings (see the parent
//!    module).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use collusion_core::fault::FaultRng;
use collusion_core::net::proxy::{FaultProxy, NetFaultPlan, Partition};
use collusion_core::net::server::{centralised_baseline, Backpressure};
use collusion_core::net::wire::{Request, Response};
use collusion_core::net::{
    FailureDetector, FailureDetectorConfig, ResumableStream, RpcClient, RpcConfig,
};
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::wal::{replay_bytes, WalRecord};

use super::{thresholds, Cluster, ClusterConfig, STREAM_BATCH, STREAM_WINDOW};
use crate::robustness::replay_stream;

/// Domain salt of the nemesis scheduling RNG.
const NEMESIS_SALT: u64 = 0x6e65_6d65_7369_7321;

/// The fault families a nemesis run can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NemesisKind {
    /// No faults: the fault-free reference rate for the overload floor.
    None,
    /// Manager kills with detector-gated failover (two kills).
    Crash,
    /// One long ack-direction partition on the busiest ingest link.
    Partition,
    /// Repeated short sever/heal cycles on the busiest ingest link.
    Reconnect,
    /// Intake high-watermark shrunk to force throttle hints.
    Overload,
}

impl NemesisKind {
    /// Stable lowercase label for reports and gates.
    pub fn label(&self) -> &'static str {
        match self {
            NemesisKind::None => "none",
            NemesisKind::Crash => "crash",
            NemesisKind::Partition => "partition",
            NemesisKind::Reconnect => "reconnect",
            NemesisKind::Overload => "overload",
        }
    }

    /// Every nemesis, fault-free reference first.
    pub fn all() -> [NemesisKind; 5] {
        [
            NemesisKind::None,
            NemesisKind::Crash,
            NemesisKind::Partition,
            NemesisKind::Reconnect,
            NemesisKind::Overload,
        ]
    }
}

/// Configuration of one nemesis run.
#[derive(Clone, Debug)]
pub struct NemesisConfig {
    /// Workload and intake bounds of the cluster.
    pub cluster: ClusterConfig,
    /// Fault family to inject.
    pub kind: NemesisKind,
    /// Seed of the victim-selection and detector-jitter streams.
    pub seed: u64,
}

impl NemesisConfig {
    /// Smoke-gate scenario over the shrunk workload. The cluster runs 3
    /// managers at replication 1, so streams are the only write path and
    /// the WAL multiset check is exact.
    pub fn quick(kind: NemesisKind, seed: u64) -> Self {
        NemesisConfig { cluster: ClusterConfig::quick(seed), kind, seed }
    }
}

/// Result of one nemesis run, with the two global invariants pre-checked.
#[derive(Clone, Debug)]
pub struct NemesisOutcome {
    /// Which nemesis ran.
    pub kind: NemesisKind,
    /// Ratings offered to the cluster.
    pub ratings: u64,
    /// Ratings acked durable by the streaming clients.
    pub acked: u64,
    /// Offered ratings missing from the WALs after healing (**must be 0**).
    pub lost: u64,
    /// WAL ratings exceeding their offered multiplicity (**must be 0**).
    pub duplicated: u64,
    /// Ingest wall-clock, milliseconds.
    pub elapsed_ms: u64,
    /// Acked ratings per second of ingest wall-clock.
    pub ratings_per_sec: f64,
    /// Successful `StreamResume` handshakes across all lanes (first
    /// connects included).
    pub resumes: u64,
    /// Frames retransmitted after a resume.
    pub retransmitted: u64,
    /// Recovery attempts that failed before one stuck.
    pub failed_recoveries: u64,
    /// Slowest single-lane cumulative recovery time, milliseconds.
    pub recovery_ms: u64,
    /// Slowest heartbeat-detector confirmation of a kill, milliseconds
    /// (0 when the nemesis kills nothing).
    pub detect_ms: u64,
    /// Managers killed and rejoined.
    pub kills: u64,
    /// Sever/heal cycles applied.
    pub partitions: u64,
    /// Server frames acked with a throttle hint (post-heal counters).
    pub throttled_frames: u64,
    /// Server frames refused past the hard limit (post-heal counters).
    pub refused_frames: u64,
    /// `StreamResume` requests the servers answered (post-heal counters).
    pub sessions_resumed: u64,
    /// Whether the cluster's confirmed suspect set equals the centralised
    /// baseline.
    pub suspects_match: bool,
    /// Suspect pairs the cluster confirmed after healing.
    pub confirmed_pairs: Vec<(NodeId, NodeId)>,
    /// Suspect pairs of the centralised baseline.
    pub baseline_pairs: Vec<(NodeId, NodeId)>,
}

/// One streaming lane: every rating owned by one manager, in stream order.
struct Lane {
    owner: NodeId,
    session: u64,
    ratings: Vec<Rating>,
}

/// Progress thresholds (fraction of chunks streamed) at which each
/// nemesis fires its actions.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Kill + detector-gated rejoin of the lane owner carrying the most
    /// ratings (`primary` = true) or a seeded random manager.
    Kill { primary: bool },
    /// Sever the busiest ingest link's ack direction for `ms`, then heal.
    Sever { ms: u64 },
}

fn schedule(kind: NemesisKind) -> Vec<(f64, Action)> {
    match kind {
        NemesisKind::None | NemesisKind::Overload => Vec::new(),
        NemesisKind::Crash => {
            vec![(0.20, Action::Kill { primary: true }), (0.55, Action::Kill { primary: false })]
        }
        NemesisKind::Partition => vec![(0.25, Action::Sever { ms: 500 })],
        NemesisKind::Reconnect => vec![
            (0.20, Action::Sever { ms: 150 }),
            (0.40, Action::Sever { ms: 150 }),
            (0.60, Action::Sever { ms: 150 }),
        ],
    }
}

/// Run one nemesis experiment end to end (see the module docs).
pub fn run_nemesis(cfg: &NemesisConfig) -> NemesisOutcome {
    let mut cluster_cfg = cfg.cluster.clone();
    if cfg.kind == NemesisKind::Overload {
        // low enough that the intake crosses it between absorb cycles,
        // high enough that frames are throttled rather than refused
        cluster_cfg.backpressure = Backpressure { high_watermark: 512, ..Backpressure::default() };
    }
    let ratings = replay_stream(&cluster_cfg.sim);
    let baseline_pairs = centralised_baseline(thresholds(), &ratings, &cluster_cfg.node_ids());

    let mut cluster = Cluster::spawn(&cluster_cfg);

    // one lane per owner, each a resumable session over that owner's slice
    let mut by_owner: HashMap<NodeId, Vec<Rating>> = HashMap::new();
    for &r in &ratings {
        by_owner.entry(cluster.ring.owner_of(r.ratee)).or_default().push(r);
    }
    let mut lanes: Vec<Lane> =
        by_owner.into_iter().map(|(owner, rs)| Lane { owner, session: 0, ratings: rs }).collect();
    lanes.sort_unstable_by_key(|l| l.owner);
    for (i, lane) in lanes.iter_mut().enumerate() {
        lane.session = 0xBEE5_0000 + i as u64 + 1;
    }
    let busiest =
        lanes.iter().max_by_key(|l| l.ratings.len()).map(|l| l.owner).expect("non-empty workload");

    // partitionable nemeses route ingest through per-manager proxies whose
    // partition state flips at runtime; the rest go direct
    let partitioned = matches!(cfg.kind, NemesisKind::Partition | NemesisKind::Reconnect);
    let ingest_proxies: Vec<FaultProxy> = if partitioned {
        cluster
            .manager_ids
            .iter()
            .enumerate()
            .map(|(k, &m)| {
                let upstream = cluster.addr_of(m).expect("all managers alive");
                FaultProxy::spawn(upstream, NetFaultPlan::none(), 0x1000 + k as u64)
                    .expect("spawn ingest proxy")
            })
            .collect()
    } else {
        Vec::new()
    };
    let book: Arc<Mutex<HashMap<NodeId, SocketAddr>>> = Arc::new(Mutex::new(
        cluster
            .manager_ids
            .iter()
            .enumerate()
            .map(|(k, &m)| {
                let addr = if partitioned {
                    ingest_proxies[k].addr()
                } else {
                    cluster.addr_of(m).expect("all managers alive")
                };
                (m, addr)
            })
            .collect(),
    ));

    let total_chunks: u64 = lanes.iter().map(|l| l.ratings.chunks(STREAM_BATCH).len() as u64).sum();
    let progress = AtomicU64::new(0);
    // schedule thresholds in streamed chunks; the gate holds the next
    // pending threshold — lanes pause there until its action has fired
    let pending_chunks = |frac: f64| (frac * total_chunks as f64).ceil() as u64;
    let mut pending: Vec<(u64, Action)> =
        schedule(cfg.kind).into_iter().map(|(f, a)| (pending_chunks(f), a)).collect();
    let gate = AtomicU64::new(pending.first().map_or(u64::MAX, |&(c, _)| c));

    let start = Instant::now();
    let mut kills = 0u64;
    let mut partitions = 0u64;
    let mut detect_ms = 0u64;
    let lane_stats: Vec<collusion_core::net::ResumeStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let book = Arc::clone(&book);
                let owner = lane.owner;
                let (progress, gate) = (&progress, &gate);
                let session = lane.session;
                let rs = &lane.ratings;
                scope.spawn(move || {
                    let resolver = move || {
                        book.lock()
                            .expect("addr book lock")
                            .get(&owner)
                            .copied()
                            .into_iter()
                            .collect()
                    };
                    let mut stream =
                        ResumableStream::open(session, STREAM_WINDOW, RpcConfig::lan(), resolver);
                    for chunk in rs.chunks(STREAM_BATCH) {
                        // hold at the next pending fault threshold so the
                        // stream can never outrun the nemesis schedule
                        while progress.load(Ordering::Relaxed) >= gate.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        stream.send(chunk).expect("lane must heal within the recovery deadline");
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    stream.finish().expect("lane must drain after healing")
                })
            })
            .collect();

        // the nemesis: fire each action when ingest progress reaches its
        // threshold (the lanes gate there, so every action always fires)
        let mut rng = FaultRng::for_stream(cfg.seed, 0, NEMESIS_SALT);
        let mut detector = FailureDetector::new(FailureDetectorConfig {
            probe_interval_ms: 20,
            jitter_ms: 10,
            suspicion_threshold: 3,
            probe_timeout_ms: 100,
            seed: cfg.seed,
        });
        let mut stall = Instant::now();
        let mut last_progress = u64::MAX;
        while !pending.is_empty() {
            let done = progress.load(Ordering::Relaxed);
            if done != last_progress {
                last_progress = done;
                stall = Instant::now();
            } else if stall.elapsed() > Duration::from_secs(120) {
                break; // a lane died; release the gate and let join() report it
            }
            if done < pending[0].0 {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            let (_, action) = pending.remove(0);
            let next_gate = pending.first().map_or(u64::MAX, |&(c, _)| c);
            match action {
                Action::Kill { primary } => {
                    let victim = if primary {
                        busiest
                    } else {
                        cluster.manager_ids[rng.below(cluster.manager_ids.len() as u64) as usize]
                    };
                    let k = cluster
                        .manager_ids
                        .iter()
                        .position(|&m| m == victim)
                        .expect("victim on the ring");
                    let old = cluster.addr_of(victim).expect("victim alive");
                    cluster.kill_and_rejoin(k);
                    kills += 1;
                    // failover is detector-gated: the new address is only
                    // published once the heartbeat detector confirms the
                    // old endpoint dead — no driver hand-holding
                    let detected = detector
                        .watch(&[old], old, Duration::from_secs(5))
                        .map_or(5_000, |d| d.as_millis() as u64);
                    detect_ms = detect_ms.max(detected);
                    let reborn = cluster.addr_of(victim).expect("victim reborn");
                    book.lock().expect("addr book lock").insert(victim, reborn);
                    gate.store(next_gate, Ordering::Relaxed);
                }
                Action::Sever { ms } => {
                    let k = cluster
                        .manager_ids
                        .iter()
                        .position(|&m| m == busiest)
                        .expect("busiest on the ring");
                    ingest_proxies[k].set_partition(Partition::ToClient);
                    // release the lanes *into* the severed link: frames
                    // keep arriving and applying while their acks vanish,
                    // so the resume path must dedup, not retransmit
                    gate.store(next_gate, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(ms));
                    ingest_proxies[k].set_partition(Partition::None);
                    partitions += 1;
                }
            }
        }
        gate.store(u64::MAX, Ordering::Relaxed);

        handles.into_iter().map(|h| h.join().expect("lane thread")).collect()
    });
    let elapsed_ms = start.elapsed().as_millis().max(1) as u64;
    drop(ingest_proxies);

    let acked: u64 = lane_stats.iter().map(|s| s.ratings_acked).sum();
    let resumes: u64 = lane_stats.iter().map(|s| s.resumes).sum();
    let retransmitted: u64 = lane_stats.iter().map(|s| s.frames_retransmitted).sum();
    let failed_recoveries: u64 = lane_stats.iter().map(|s| s.failed_recoveries).sum();
    let recovery_ms: u64 = lane_stats.iter().map(|s| s.recovery_ms).max().unwrap_or(0);

    // detection round over the healed cluster: merge every manager's
    // confirmed pairs
    let control_cfg = RpcConfig {
        attempt_timeout_ms: 120_000,
        total_deadline_ms: 120_000,
        max_retries: 0,
        ..RpcConfig::lan()
    };
    let mut control = RpcClient::new(control_cfg.with_jitter_seed(cfg.seed ^ 5));
    let round = 1u64;
    for &m in &cluster.manager_ids {
        let addr = cluster.addr_of(m).expect("all managers alive");
        let resp = control.call(addr, &Request::Freeze { round }).expect("freeze RPC");
        assert!(matches!(resp, Response::Frozen { .. }), "freeze refused: {resp:?}");
    }
    let mut confirmed: std::collections::BTreeSet<(NodeId, NodeId)> =
        std::collections::BTreeSet::new();
    for &m in &cluster.manager_ids {
        let addr = cluster.addr_of(m).expect("all managers alive");
        let resp = control.call(addr, &Request::DetectRound { round }).expect("detect RPC");
        let Response::Round(report) = resp else { panic!("DetectRound refused: {resp:?}") };
        for p in &report.confirmed {
            confirmed.insert(p.ids());
        }
    }
    let confirmed_pairs: Vec<(NodeId, NodeId)> = confirmed.into_iter().collect();

    let (mut throttled_frames, mut refused_frames, mut sessions_resumed) = (0u64, 0u64, 0u64);
    for &m in &cluster.manager_ids {
        let addr = cluster.addr_of(m).expect("all managers alive");
        let resp = control.call(addr, &Request::Status).expect("status RPC");
        let Response::Status(info) = resp else { panic!("Status refused: {resp:?}") };
        throttled_frames += info.throttled_frames;
        refused_frames += info.refused_frames;
        sessions_resumed += info.sessions_resumed;
    }

    // exactly-once: kill every manager (syncing its WAL) and compare the
    // on-disk rating multiset against the offered workload
    for n in cluster.nodes.iter_mut().filter_map(Option::take) {
        n.kill().expect("final kill");
    }
    let mut multiset: HashMap<(u64, u64, bool, u64), i64> = HashMap::new();
    for &r in &ratings {
        *multiset.entry(rating_key(r)).or_insert(0) += 1;
    }
    for lane in &lanes {
        let wal = cluster.dir.join(format!("m{:x}", lane.owner.raw())).join("engine.wal");
        let bytes = std::fs::read(&wal).expect("wal readable");
        let replay = replay_bytes(&bytes).expect("wal replays");
        for (_, record) in &replay.records {
            if let WalRecord::Rating(r) = record {
                *multiset.entry(rating_key(*r)).or_insert(0) -= 1;
            }
        }
    }
    let lost: u64 = multiset.values().filter(|&&v| v > 0).map(|&v| v as u64).sum();
    let duplicated: u64 = multiset.values().filter(|&&v| v < 0).map(|&v| (-v) as u64).sum();
    cluster.teardown();

    NemesisOutcome {
        kind: cfg.kind,
        ratings: ratings.len() as u64,
        acked,
        lost,
        duplicated,
        elapsed_ms,
        ratings_per_sec: acked as f64 * 1000.0 / elapsed_ms as f64,
        resumes,
        retransmitted,
        failed_recoveries,
        recovery_ms,
        detect_ms,
        kills,
        partitions,
        throttled_frames,
        refused_frames,
        sessions_resumed,
        suspects_match: confirmed_pairs == baseline_pairs,
        confirmed_pairs,
        baseline_pairs,
    }
}

fn rating_key(r: Rating) -> (u64, u64, bool, u64) {
    (r.rater.raw(), r.ratee.raw(), r.value.is_positive(), r.time.0)
}
