//! Multi-node detection cluster over real TCP: the networked twin of the
//! in-process robustness experiment ([`crate::robustness`]).
//!
//! A cluster run spawns one [`ManagerNode`] per reputation manager on
//! localhost, each owning a durable engine (WAL + checkpoints) for its
//! primary slice, then:
//!
//! 1. replays the simulated workload's rating stream over the wire —
//!    one windowed `InsertStream` session per rating owner (acked once
//!    durable), with `Replicate` pushes to the owner's ring successors;
//! 2. applies churn as real **process kills**: the victim manager is shut
//!    down (WAL synced — the crash-after-fsync instant), then respawned on
//!    its durability directory, recovering its engine from checkpoint +
//!    WAL tail, and rejoining on a fresh port;
//! 3. runs one detection round over TCP: `Freeze` on every manager, then
//!    `DetectRound`, during which cross-manager confirmations travel
//!    through per-manager [`FaultProxy`]s re-expressing the
//!    [`FaultPlan`]'s message faults as real dropped and delayed frames;
//! 4. merges the per-manager verdicts and scores them against the
//!    in-process fault-free baseline.
//!
//! **Equality argument:** the in-process round dedups cross-manager checks
//! through a global `checked` set the networked managers cannot share, so
//! both endpoints of a cross-manager pair initiate independently. The
//! direction evidence each computes is the mirror image of the other's
//! (forward evidence is always local to the ratee's owner), so the merged,
//! deduplicated confirmed set equals the in-process set at every
//! fault-free grid point — asserted by the integration tests. Under
//! faults, confirmed ⊆ baseline and confirmed ∪ unconfirmed ⊇ baseline:
//! pairs degrade to *unconfirmed*, they never vanish.
//!
//! Faults apply only to inter-manager confirmation traffic (peer maps
//! point at the proxies); harness ingest and control RPCs go direct,
//! mirroring the in-process simulator where the fault plan governs
//! detection exchanges only.

pub mod nemesis;

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::robustness::{build_system, sorted_pairs, RobustnessConfig};
use collusion_core::decentralized::Method;
use collusion_core::durability::{scratch_dir, DurabilityConfig};
use collusion_core::fault::{FaultPlan, FaultStats, NetStats};
use collusion_core::net::proxy::{FaultProxy, NetFaultPlan};
use collusion_core::net::server::{Backpressure, ManagerConfig, ManagerNode};
use collusion_core::net::wire::{Request, Response};
use collusion_core::net::{InsertStream, RpcClient, RpcConfig, StreamStats};
use collusion_core::policy::DetectionPolicy;
use collusion_dht::hash::consistent_hash;
use collusion_dht::ring::ChordRing;
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::Rating;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::wal::SyncPolicy;

/// Configuration of one TCP-cluster robustness experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Workload generator (the rating stream replayed over the wire).
    pub sim: SimConfig,
    /// Number of manager processes on the ring.
    pub managers: u64,
    /// Total copies of each node's slice (primary + ring successors).
    pub replication: usize,
    /// Fault plan: message faults feed the proxies, the churn schedule
    /// drives process kills.
    pub plan: FaultPlan,
    /// Churn periods applied before the detection round (each kills
    /// `plan.churn.crashes_per_period` managers and rejoins them from
    /// disk).
    pub churn_periods: u64,
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Client policy for every harness and inter-manager RPC.
    pub rpc: RpcConfig,
    /// Server-side intake bounds (throttle hints, load shedding). The
    /// defaults are generous; the overload nemesis shrinks them.
    pub backpressure: Backpressure,
}

impl ClusterConfig {
    /// The standard cluster scenario: the paper's workload with deceptive
    /// colluders on 5 managers with replication 2 — small enough that a
    /// laptop runs the full drop×churn grid over real sockets in seconds.
    pub fn standard(seed: u64) -> Self {
        let mut sim = SimConfig::paper_baseline(seed);
        sim.colluder_good_prob = 0.2;
        sim.sim_cycles = 6;
        ClusterConfig {
            sim,
            managers: 5,
            replication: 2,
            plan: FaultPlan::none(),
            churn_periods: 2,
            thresholds: Thresholds::new(1.0, 100, 0.95, 0.7),
            rpc: RpcConfig::lan(),
            backpressure: Backpressure::default(),
        }
    }

    /// Shrunk workload for tests and smoke gates.
    pub fn quick(seed: u64) -> Self {
        let mut cfg = ClusterConfig::standard(seed);
        cfg.sim.n_nodes = 80;
        cfg.sim.sim_cycles = 3;
        cfg
    }

    /// Replace the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// In-process [`RobustnessConfig`] with the same workload, managers,
    /// and thresholds — the baseline the cluster is scored against.
    fn as_robustness(&self) -> RobustnessConfig {
        let mut cfg = RobustnessConfig::standard(0);
        cfg.sim = self.sim.clone();
        cfg.managers = self.managers;
        cfg.replication = 1;
        cfg.plan = FaultPlan::none();
        cfg.churn_periods = 0;
        cfg.thresholds = self.thresholds;
        cfg
    }
}

/// Result of one TCP-cluster robustness experiment. Field semantics match
/// [`crate::robustness::RobustnessOutcome`].
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Suspect pairs of the in-process fault-free baseline.
    pub baseline_pairs: Vec<(NodeId, NodeId)>,
    /// Pairs the cluster confirmed over TCP (merged, deduplicated).
    pub confirmed_pairs: Vec<(NodeId, NodeId)>,
    /// Pairs degraded to forward-evidence-only (confirmation unreachable).
    pub unconfirmed_pairs: Vec<(NodeId, NodeId)>,
    /// `|confirmed ∩ baseline| / |baseline|` (1.0 when baseline is empty).
    pub recall: f64,
    /// Baseline pairs accounted for (confirmed or unconfirmed) over
    /// `|baseline|` — the graceful-degradation guarantee.
    pub reported_fraction: f64,
    /// Per-RPC accounting summed over every manager's round (tick = ms).
    pub fault: FaultStats,
    /// Frames offered/dropped/delayed by the fault proxies.
    pub net: NetStats,
    /// Managers killed by churn.
    pub killed: usize,
    /// Managers that rejoined from their WAL.
    pub rejoined: usize,
    /// Ratings accepted over the wire (primary copies).
    pub ingested: u64,
}

/// Ring geometry for routing: node → owner manager, owner → backups.
struct Ring {
    ring: ChordRing,
    key_to_manager: HashMap<u64, NodeId>,
}

impl Ring {
    fn new(managers: &[NodeId]) -> Self {
        let mut ring = ChordRing::new();
        let mut key_to_manager = HashMap::new();
        for &m in managers {
            let key = consistent_hash(m.raw(), 64);
            if ring.join_with_key(key) {
                key_to_manager.insert(key.raw(), m);
            }
        }
        Ring { ring, key_to_manager }
    }

    fn owner_of(&self, node: NodeId) -> NodeId {
        let key = self.ring.owner(consistent_hash(node.raw(), 64));
        self.key_to_manager[&key.raw()]
    }

    fn backups_of(&self, owner: NodeId, replication: usize) -> Vec<NodeId> {
        let mut backups = Vec::new();
        if replication <= 1 {
            return backups;
        }
        let owner_key = consistent_hash(owner.raw(), 64);
        let mut cur = owner_key;
        for _ in 0..replication - 1 {
            cur = self.ring.successor_of(cur);
            if cur == owner_key {
                break;
            }
            backups.push(self.key_to_manager[&cur.raw()]);
        }
        backups
    }
}

/// A spawned cluster: managers, their fault proxies, and the routing ring.
struct Cluster {
    cfg: ClusterConfig,
    manager_ids: Vec<NodeId>,
    nodes: Vec<Option<ManagerNode>>,
    proxies: Vec<Option<FaultProxy>>,
    ring: Ring,
    dir: std::path::PathBuf,
    /// Proxy stats accumulated from replaced (pre-rejoin) proxies.
    net_carry: NetStats,
}

impl Cluster {
    fn spawn(cfg: &ClusterConfig) -> Cluster {
        let manager_ids: Vec<NodeId> = (0..cfg.managers).map(|k| NodeId(0x4000_0000 + k)).collect();
        let node_ids: Vec<NodeId> = (1..=cfg.sim.n_nodes).map(NodeId).collect();
        let dir = scratch_dir("tcp-cluster");
        let nodes: Vec<Option<ManagerNode>> = manager_ids
            .iter()
            .map(|&id| {
                Some(
                    ManagerNode::spawn(manager_config(cfg, id, &dir, &manager_ids, &node_ids))
                        .expect("spawn manager"),
                )
            })
            .collect();
        let net_plan = NetFaultPlan::from_plan(&cfg.plan);
        let proxies: Vec<Option<FaultProxy>> = nodes
            .iter()
            .enumerate()
            .map(|(k, n)| {
                let upstream = n.as_ref().expect("just spawned").addr();
                Some(FaultProxy::spawn(upstream, net_plan, k as u64).expect("spawn proxy"))
            })
            .collect();
        let ring = Ring::new(&manager_ids);
        let cluster = Cluster {
            cfg: cfg.clone(),
            manager_ids,
            nodes,
            proxies,
            ring,
            dir,
            net_carry: NetStats::default(),
        };
        cluster.push_peers();
        cluster
    }

    /// Inter-manager peer maps point at the fault proxies; the harness
    /// itself talks to the managers directly.
    fn push_peers(&self) {
        let peers: Vec<(NodeId, SocketAddr)> = self
            .manager_ids
            .iter()
            .zip(&self.proxies)
            .filter_map(|(&id, p)| p.as_ref().map(|p| (id, p.addr())))
            .collect();
        for n in self.nodes.iter().flatten() {
            n.set_peers(&peers);
        }
    }

    fn addr_of(&self, manager: NodeId) -> Option<SocketAddr> {
        let k = self.manager_ids.iter().position(|&m| m == manager)?;
        self.nodes[k].as_ref().map(|n| n.addr())
    }

    /// Kill manager `k` (process model: WAL synced, sockets torn down) and
    /// respawn it from its durability directory on a fresh port.
    fn kill_and_rejoin(&mut self, k: usize) {
        if let Some(node) = self.nodes[k].take() {
            node.kill().expect("clean kill");
        }
        if let Some(mut proxy) = self.proxies[k].take() {
            self.net_carry = sum_net(self.net_carry, proxy.stats());
            proxy.shutdown();
        }
        let node_ids: Vec<NodeId> = (1..=self.cfg.sim.n_nodes).map(NodeId).collect();
        let reborn = ManagerNode::spawn(manager_config(
            &self.cfg,
            self.manager_ids[k],
            &self.dir,
            &self.manager_ids,
            &node_ids,
        ))
        .expect("rejoin from WAL");
        let proxy =
            FaultProxy::spawn(reborn.addr(), NetFaultPlan::from_plan(&self.cfg.plan), k as u64)
                .expect("respawn proxy");
        self.nodes[k] = Some(reborn);
        self.proxies[k] = Some(proxy);
        self.push_peers();
    }

    /// Total proxy-observed frame faults, including replaced proxies.
    fn net_stats(&self) -> NetStats {
        self.proxies.iter().flatten().fold(self.net_carry, |acc, p| sum_net(acc, p.stats()))
    }

    fn teardown(mut self) {
        for p in self.proxies.iter_mut().filter_map(Option::take) {
            drop(p);
        }
        for n in self.nodes.iter_mut().filter_map(Option::take) {
            n.kill().ok();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Ratings per insert stream frame and per `Replicate` push.
const STREAM_BATCH: usize = 256;

/// Un-acked `InsertStream` frames kept in flight per connection.
const STREAM_WINDOW: usize = 32;

/// WAL commit policy for cluster managers: async group commit with a
/// *wide* background window. Stream-ack barriers (`StreamFlush`) request
/// targeted commits exactly where acks are needed; a tight background
/// cadence like `ASYNC_DEFAULT`'s 2 ms only queues the target the final ack
/// needs behind in-flight fsyncs — and with several managers' WALs on one
/// filesystem journal, concurrent fsync streams serialize each other.
const MANAGER_SYNC_POLICY: SyncPolicy =
    SyncPolicy::Async { max_bytes: 1 << 20, max_delay_micros: 20_000 };

fn manager_config(
    cfg: &ClusterConfig,
    id: NodeId,
    dir: &std::path::Path,
    managers: &[NodeId],
    nodes: &[NodeId],
) -> ManagerConfig {
    ManagerConfig {
        id,
        dir: dir.join(format!("m{:x}", id.raw())),
        nodes: nodes.to_vec(),
        managers: managers.to_vec(),
        replication: cfg.replication,
        thresholds: cfg.thresholds,
        method: Method::Optimized,
        policy: DetectionPolicy::STRICT,
        shards: 4,
        durability: DurabilityConfig {
            sync_policy: MANAGER_SYNC_POLICY,
            ..DurabilityConfig::default()
        },
        rpc: cfg.rpc,
        backpressure: cfg.backpressure,
    }
}

fn sum_net(a: NetStats, b: NetStats) -> NetStats {
    NetStats {
        sent: a.sent + b.sent,
        dropped: a.dropped + b.dropped,
        delay_ticks: a.delay_ticks + b.delay_ticks,
    }
}

fn sum_fault(a: FaultStats, b: FaultStats) -> FaultStats {
    FaultStats {
        exchanges: a.exchanges + b.exchanges,
        failed_exchanges: a.failed_exchanges + b.failed_exchanges,
        retries: a.retries + b.retries,
        messages_sent: a.messages_sent + b.messages_sent,
        messages_dropped: a.messages_dropped + b.messages_dropped,
        backoff_ticks: a.backoff_ticks + b.backoff_ticks,
        delay_ticks: a.delay_ticks + b.delay_ticks,
        deadline_exceeded: a.deadline_exceeded + b.deadline_exceeded,
    }
}

/// Expand the workload into the deterministic rating stream (same order as
/// the in-process robustness replay).
fn rating_stream(cfg: &ClusterConfig) -> Vec<Rating> {
    let (_, history) = Simulation::new(cfg.sim.clone()).run_with_history();
    let mut out = Vec::new();
    let mut t = 0u64;
    for (rater, ratee, c) in sorted_pairs(&history) {
        for _ in 0..c.positive {
            t += 1;
            out.push(Rating::positive(rater, ratee, SimTime(t)));
        }
        for _ in 0..c.negative {
            t += 1;
            out.push(Rating::negative(rater, ratee, SimTime(t)));
        }
    }
    out
}

/// Route the rating stream over the wire: one windowed `InsertStream`
/// session per owner (acks gated on the owner's WAL durable watermark)
/// plus batched `Replicate` pushes to the ring successors. Returns
/// primary ratings acked durable.
fn ingest(cluster: &Cluster, client: &mut RpcClient, ratings: &[Rating]) -> u64 {
    let mut by_owner: HashMap<NodeId, Vec<Rating>> = HashMap::new();
    for &r in ratings {
        by_owner.entry(cluster.ring.owner_of(r.ratee)).or_default().push(r);
    }
    let mut owners: Vec<(NodeId, Vec<Rating>)> = by_owner.into_iter().collect();
    owners.sort_unstable_by_key(|(m, _)| *m);
    let mut accepted = 0u64;
    for (owner, rs) in owners {
        if let Some(addr) = cluster.addr_of(owner) {
            accepted += stream_to(client, &[(addr, &rs)], STREAM_BATCH);
        }
        // replica pushes are one-ack-per-batch: the owner's WAL is the
        // durable copy, a replica only backs it up in memory
        for b in cluster.ring.backups_of(owner, cluster.cfg.replication) {
            if let Some(addr) = cluster.addr_of(b) {
                for chunk in rs.chunks(STREAM_BATCH) {
                    client.call(addr, &Request::Replicate(chunk.to_vec())).ok();
                }
            }
        }
    }
    accepted
}

/// Stream each target's ratings to its address, `batch` ratings a frame,
/// with one windowed insert session per target and the sessions
/// interleaved: open every session, send frames round-robin, push each
/// session's barrier as soon as its data is out, then drain them — so the
/// managers' durability barriers overlap instead of serializing one close
/// at a time. Returns the ratings acked. A failed session counts only its
/// acked prefix: that prefix is durable by contract, and every caller
/// compares what was acked with its baseline.
fn stream_to(client: &mut RpcClient, targets: &[(SocketAddr, &[Rating])], batch: usize) -> u64 {
    let mut streams: Vec<(SocketAddr, std::slice::Chunks<Rating>, Option<InsertStream>)> = targets
        .iter()
        .filter_map(|&(addr, rs)| {
            let session = client.open_insert_stream(addr, STREAM_WINDOW).ok()?;
            Some((addr, rs.chunks(batch.max(1)), Some(session)))
        })
        .collect();
    let mut ended: Vec<StreamStats> = Vec::with_capacity(streams.len());
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (addr, frames, slot) in &mut streams {
            let (Some(session), Some(frame)) = (slot.as_mut(), frames.next()) else { continue };
            progressed = true;
            let last = frames.len() == 0;
            if session
                .send(frame)
                .and_then(|()| if last { session.flush() } else { Ok(()) })
                .is_err()
            {
                ended.push(session.stats());
                *slot = None;
                client.forget(*addr);
            }
        }
    }
    for (addr, _, slot) in streams {
        let Some(session) = slot else { continue };
        let before = session.stats();
        ended.push(client.close_insert_stream(session).unwrap_or_else(|_| {
            client.forget(addr);
            before
        }));
    }
    ended.iter().map(|s| s.ratings_acked).sum()
}

/// Run one TCP-cluster robustness experiment (see the module docs for the
/// protocol). Deterministic in the seeds up to wall-clock-dependent retry
/// counts: the workload in `sim.seed`, proxy faults in
/// `plan.message.seed`, kill victims in `plan.churn.seed`.
pub fn run_cluster_robustness(cfg: &ClusterConfig) -> ClusterOutcome {
    // in-process fault-free baseline over the same workload and managers
    let (_, history) = Simulation::new(cfg.sim.clone()).run_with_history();
    let entries = sorted_pairs(&history);
    let rob = cfg.as_robustness();
    let mut baseline = build_system(&rob, 1, &entries);
    let baseline_pairs = baseline.detect().pair_ids();
    drop(baseline);

    let ratings = rating_stream(cfg);
    let mut cluster = Cluster::spawn(cfg);
    let mut client = RpcClient::new(cfg.rpc.with_jitter_seed(cfg.sim.seed));
    let ingested = ingest(&cluster, &mut client, &ratings);

    // churn: deterministic victims, killed and rejoined from their WALs
    let (mut killed, mut rejoined) = (0, 0);
    for period in 0..cfg.churn_periods {
        let mut rng = cfg.plan.churn.victim_rng(period);
        for _ in 0..cfg.plan.churn.crashes_per_period {
            let k = rng.below(cfg.managers.max(1)) as usize;
            cluster.kill_and_rejoin(k);
            killed += 1;
            rejoined += 1;
        }
    }

    // One detection round over TCP. `DetectRound` is a long-running control
    // RPC — the handler runs every cross-manager confirmation (each worth up
    // to the confirm client's total deadline) before replying — so the
    // control client gets a patient per-attempt budget and no retries. With
    // the data-plane `lan()` timeouts here, the harness would time out
    // mid-handler and silently re-send DetectRound, duplicating the round
    // and reporting the duplicate's (clean) fault accounting.
    let control_cfg = RpcConfig {
        attempt_timeout_ms: 120_000,
        total_deadline_ms: 120_000,
        max_retries: 0,
        ..cfg.rpc
    };
    let mut control = RpcClient::new(control_cfg.with_jitter_seed(cfg.sim.seed ^ 1));
    let round = 1u64;
    for &m in &cluster.manager_ids {
        let addr = cluster.addr_of(m).expect("all managers alive");
        let resp = control.call(addr, &Request::Freeze { round }).expect("freeze RPC");
        assert!(matches!(resp, Response::Frozen { .. }), "freeze refused: {resp:?}");
    }
    let mut confirmed: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut unconfirmed: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut fault = FaultStats::default();
    for &m in &cluster.manager_ids {
        let addr = cluster.addr_of(m).expect("all managers alive");
        let resp = control.call(addr, &Request::DetectRound { round }).expect("detect RPC");
        let Response::Round(report) = resp else { panic!("DetectRound refused: {resp:?}") };
        for p in &report.confirmed {
            confirmed.insert(p.ids());
        }
        for p in &report.unconfirmed {
            unconfirmed.insert(p.ids());
        }
        fault = sum_fault(fault, report.fault);
    }
    // a pair one side confirmed and the other could not reach is confirmed
    let unconfirmed: Vec<(NodeId, NodeId)> =
        unconfirmed.into_iter().filter(|p| !confirmed.contains(p)).collect();
    let confirmed: Vec<(NodeId, NodeId)> = confirmed.into_iter().collect();

    let recalled = baseline_pairs.iter().filter(|p| confirmed.contains(p)).count();
    let reported =
        baseline_pairs.iter().filter(|p| confirmed.contains(p) || unconfirmed.contains(p)).count();
    let denom = baseline_pairs.len();
    let frac = |k: usize| if denom == 0 { 1.0 } else { k as f64 / denom as f64 };
    let net = cluster.net_stats();
    cluster.teardown();
    ClusterOutcome {
        recall: frac(recalled),
        reported_fraction: frac(reported),
        baseline_pairs,
        confirmed_pairs: confirmed,
        unconfirmed_pairs: unconfirmed,
        fault,
        net,
        killed,
        rejoined,
        ingested,
    }
}

/// Result of a query-throughput measurement against a live cluster.
#[derive(Clone, Copy, Debug)]
pub struct QueryLoadOutcome {
    /// Queries answered within the measurement window.
    pub queries: u64,
    /// Measurement window, in milliseconds.
    pub elapsed_ms: u64,
    /// Queries per second.
    pub qps: f64,
    /// Ratings ingested concurrently by the producer thread.
    pub inserts: u64,
}

/// Hammer `Query` against a faultless cluster while a producer thread
/// streams the workload's ratings in — measuring the lock-free read path's
/// throughput under live ingest, over real sockets.
pub fn run_cluster_queries(cfg: &ClusterConfig, window_ms: u64) -> QueryLoadOutcome {
    let faultless = ClusterConfig { plan: FaultPlan::none(), ..cfg.clone() };
    let ratings = rating_stream(&faultless);
    let cluster = Cluster::spawn(&faultless);
    let node_ids: Vec<NodeId> = (1..=faultless.sim.n_nodes).map(NodeId).collect();

    // producer: loop the rating stream through owner-routed insert streams
    // until the measurement window closes
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let producer_stop = std::sync::Arc::clone(&stop);
    let producer_targets: Vec<(NodeId, SocketAddr)> =
        cluster.manager_ids.iter().filter_map(|&m| cluster.addr_of(m).map(|a| (m, a))).collect();
    let producer_ring = Ring::new(&cluster.manager_ids);
    let producer_cfg = faultless.rpc;
    let producer = std::thread::spawn(move || {
        let addr_of: HashMap<NodeId, SocketAddr> = producer_targets.into_iter().collect();
        let mut client = RpcClient::new(producer_cfg.with_jitter_seed(0x1A5E_2700));
        let mut inserts = 0u64;
        'outer: loop {
            for chunk in ratings.chunks(64) {
                if producer_stop.load(std::sync::atomic::Ordering::Acquire) {
                    break 'outer;
                }
                let mut batches: HashMap<NodeId, Vec<Rating>> = HashMap::new();
                for &r in chunk {
                    batches.entry(producer_ring.owner_of(r.ratee)).or_default().push(r);
                }
                let targets: Vec<(SocketAddr, &[Rating])> = batches
                    .iter()
                    .filter_map(|(owner, rs)| Some((*addr_of.get(owner)?, rs.as_slice())))
                    .collect();
                inserts += stream_to(&mut client, &targets, chunk.len());
            }
        }
        inserts
    });

    // reader: round-robin queries across managers and nodes
    let mut client = RpcClient::new(faultless.rpc);
    let addrs: Vec<SocketAddr> =
        cluster.manager_ids.iter().filter_map(|&m| cluster.addr_of(m)).collect();
    let start = Instant::now();
    let mut queries = 0u64;
    let mut i = 0usize;
    while start.elapsed().as_millis() < u128::from(window_ms) {
        let node = node_ids[i % node_ids.len()];
        let addr = addrs[i % addrs.len()];
        if let Ok(Response::Reputation { .. }) = client.call(addr, &Request::Query(node)) {
            queries += 1;
        }
        i += 1;
    }
    let elapsed_ms = start.elapsed().as_millis() as u64;
    stop.store(true, std::sync::atomic::Ordering::Release);
    let inserts = producer.join().expect("producer thread");
    cluster.teardown();
    QueryLoadOutcome {
        queries,
        elapsed_ms,
        qps: if elapsed_ms == 0 { 0.0 } else { queries as f64 * 1000.0 / elapsed_ms as f64 },
        inserts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_core::net::server::ManagerNode;
    use collusion_reputation::wal::{replay_bytes, WalRecord};

    /// The ack-at-durable contract under a mid-stream kill: every rating
    /// the client saw acked must already be in the victim's WAL, and a
    /// rejoin from that WAL must recover at least the acked prefix.
    #[test]
    fn acked_stream_ratings_survive_a_mid_stream_kill() {
        let cfg = ClusterConfig::quick(99);
        let ratings = rating_stream(&cfg);
        let mut cluster = Cluster::spawn(&cfg);
        let owner = cluster.ring.owner_of(ratings[0].ratee);
        let rs: Vec<Rating> =
            ratings.iter().copied().filter(|r| cluster.ring.owner_of(r.ratee) == owner).collect();
        assert!(rs.len() > 64, "workload must give the victim a real slice");
        let addr = cluster.addr_of(owner).expect("owner alive");
        let mut client = RpcClient::new(cfg.rpc);
        let mut session = client.open_insert_stream(addr, 4).expect("open stream");
        for chunk in rs.chunks(16) {
            session.send(chunk).expect("stream frame");
        }
        // kill with the window still open: the tail is sent but un-acked
        let acked = session.stats().ratings_acked;
        assert!(acked > 0, "windowed streaming must have acked a prefix");
        drop(session);
        let k = cluster.manager_ids.iter().position(|&m| m == owner).expect("owner known");
        if let Some(node) = cluster.nodes[k].take() {
            node.kill().expect("clean kill");
        }

        // acked ⇒ on disk, even before any rejoin
        let wal = cluster.dir.join(format!("m{:x}", owner.raw())).join("engine.wal");
        let bytes = std::fs::read(&wal).expect("wal readable");
        let replay = replay_bytes(&bytes).expect("wal replays");
        let on_disk =
            replay.records.iter().filter(|(_, r)| matches!(r, WalRecord::Rating(_))).count() as u64;
        assert!(on_disk >= acked, "acked ratings missing from the WAL: {on_disk} < {acked}");

        // rejoin from the WAL: the recovered slice covers the acked prefix
        let node_ids: Vec<NodeId> = (1..=cfg.sim.n_nodes).map(NodeId).collect();
        let reborn = ManagerNode::spawn(manager_config(
            &cfg,
            owner,
            &cluster.dir,
            &cluster.manager_ids,
            &node_ids,
        ))
        .expect("rejoin from WAL");
        let status = client.call(reborn.addr(), &Request::Status).expect("status");
        let Response::Status(info) = status else { panic!("Status must answer Status") };
        assert!(info.recorded >= acked, "rejoin lost acked ratings: {} < {acked}", info.recorded);
        drop(reborn);
        cluster.teardown();
    }
}
