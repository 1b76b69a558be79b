//! Multi-node detection cluster over real TCP, and the centralised
//! baseline it is scored against.
//!
//! A `Cluster` spawns one [`ManagerNode`] per reputation manager on
//! localhost (a fixed three, replication 1), each owning a durable engine
//! (WAL + checkpoints) for its primary slice. It can kill a manager — WAL
//! synced, sockets torn down, the crash-after-fsync instant — and respawn
//! it on its durability directory, where it recovers its engine from
//! checkpoint + WAL tail and rejoins on a fresh port.
//!
//! [`nemesis`] is the one harness that drives a live cluster. It streams the
//! workload's deterministic rating stream (`replay_stream`) into the
//! managers through resumable sessions while it injects faults, runs one
//! detection round over TCP — `Freeze` on every manager, then
//! `DetectRound`, whose replies it merges — and scores the merged,
//! deduplicated confirmed set against the centralised baseline
//! ([`centralised_baseline`](collusion_core::net::server::centralised_baseline)):
//! the strict optimized detector over one snapshot of exactly the ratings
//! offered.
//!
//! **Equality argument:** both endpoints of a cross-manager pair initiate
//! its check independently, and the direction evidence each computes is the
//! mirror image of the other's (forward evidence is always local to the
//! ratee's owner, which holds the ratee's whole row). So once the round has
//! merged both managers' replies, every pair is judged on the same counters
//! and reputations a centralised pass over all ratings sees, and the merged
//! confirmed set equals the centralised suspect set.

pub mod nemesis;

use std::net::SocketAddr;

use crate::config::SimConfig;
use collusion_core::decentralized::Method;
use collusion_core::durability::{scratch_dir, DurabilityConfig};
use collusion_core::net::server::{Backpressure, ManagerConfig, ManagerNode, RingView};
use collusion_core::net::RpcConfig;
use collusion_core::policy::DetectionPolicy;
use collusion_reputation::id::NodeId;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::wal::SyncPolicy;

/// Manager processes on the ring.
const MANAGERS: u64 = 3;

/// Detection thresholds of every cluster manager and of its baseline.
fn thresholds() -> Thresholds {
    Thresholds::new(1.0, 100, 0.95, 0.7)
}

/// Configuration of a live TCP cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Workload generator (the rating stream replayed over the wire).
    pub sim: SimConfig,
    /// Server-side intake bounds (throttle hints, load shedding). The
    /// defaults are generous; the overload nemesis shrinks them.
    pub backpressure: Backpressure,
}

impl ClusterConfig {
    /// The paper's workload with deceptive colluders, shrunk to 80 nodes
    /// and 3 cycles for tests and smoke gates.
    pub fn quick(seed: u64) -> Self {
        let mut sim = SimConfig::paper_baseline(seed);
        sim.colluder_good_prob = 0.2;
        sim.n_nodes = 80;
        sim.sim_cycles = 3;
        ClusterConfig { sim, backpressure: Backpressure::default() }
    }

    /// Every registered regular node, ascending.
    fn node_ids(&self) -> Vec<NodeId> {
        (1..=self.sim.n_nodes).map(NodeId).collect()
    }
}

/// A spawned cluster: managers and the routing ring.
struct Cluster {
    cfg: ClusterConfig,
    manager_ids: Vec<NodeId>,
    nodes: Vec<Option<ManagerNode>>,
    ring: RingView,
    dir: std::path::PathBuf,
}

impl Cluster {
    fn spawn(cfg: &ClusterConfig) -> Cluster {
        let manager_ids: Vec<NodeId> = (0..MANAGERS).map(|k| NodeId(0x4000_0000 + k)).collect();
        let dir = scratch_dir("tcp-cluster");
        let nodes: Vec<Option<ManagerNode>> = manager_ids
            .iter()
            .map(|&id| {
                Some(
                    ManagerNode::spawn(manager_config(cfg, id, &dir, &manager_ids))
                        .expect("spawn manager"),
                )
            })
            .collect();
        let ring = RingView::new(&manager_ids);
        let cluster = Cluster { cfg: cfg.clone(), manager_ids, nodes, ring, dir };
        cluster.push_peers();
        cluster
    }

    /// Point every live manager's peer map at the current addresses.
    fn push_peers(&self) {
        let peers: Vec<(NodeId, SocketAddr)> = self
            .manager_ids
            .iter()
            .zip(&self.nodes)
            .filter_map(|(&id, n)| n.as_ref().map(|n| (id, n.addr())))
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
        let reborn = ManagerNode::spawn(manager_config(
            &self.cfg,
            self.manager_ids[k],
            &self.dir,
            &self.manager_ids,
        ))
        .expect("rejoin from WAL");
        self.nodes[k] = Some(reborn);
        self.push_peers();
    }

    fn teardown(mut self) {
        for n in self.nodes.iter_mut().filter_map(Option::take) {
            n.kill().ok();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Ratings per insert stream frame.
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
) -> ManagerConfig {
    ManagerConfig {
        id,
        dir: dir.join(format!("m{:x}", id.raw())),
        nodes: cfg.node_ids(),
        managers: managers.to_vec(),
        replication: 1,
        thresholds: thresholds(),
        method: Method::Optimized,
        policy: DetectionPolicy::STRICT,
        shards: 4,
        durability: DurabilityConfig {
            sync_policy: MANAGER_SYNC_POLICY,
            ..DurabilityConfig::default()
        },
        rpc: RpcConfig::lan(),
        backpressure: cfg.backpressure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::replay_stream;
    use collusion_core::net::wire::{Request, Response};
    use collusion_core::net::RpcClient;
    use collusion_reputation::rating::Rating;
    use collusion_reputation::wal::{replay_bytes, WalRecord};

    /// The ack-at-durable contract under a mid-stream kill: every rating
    /// the client saw acked must already be in the victim's WAL, and a
    /// rejoin from that WAL must recover at least the acked prefix.
    #[test]
    fn acked_stream_ratings_survive_a_mid_stream_kill() {
        let cfg = ClusterConfig::quick(99);
        let ratings = replay_stream(&cfg.sim);
        let mut cluster = Cluster::spawn(&cfg);
        let owner = cluster.ring.owner_of(ratings[0].ratee);
        let rs: Vec<Rating> =
            ratings.iter().copied().filter(|r| cluster.ring.owner_of(r.ratee) == owner).collect();
        assert!(rs.len() > 64, "workload must give the victim a real slice");
        let addr = cluster.addr_of(owner).expect("owner alive");
        let mut client = RpcClient::new(RpcConfig::lan());
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
        let reborn =
            ManagerNode::spawn(manager_config(&cfg, owner, &cluster.dir, &cluster.manager_ids))
                .expect("rejoin from WAL");
        let status = client.call(reborn.addr(), &Request::Status).expect("status");
        let Response::Status(info) = status else { panic!("Status must answer Status") };
        assert!(info.recorded >= acked, "rejoin lost acked ratings: {} < {acked}", info.recorded);
        drop(reborn);
        cluster.teardown();
    }
}
