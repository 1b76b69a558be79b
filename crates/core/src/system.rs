//! A complete decentralized reputation system with collusion detection —
//! §IV.A's architecture end to end.
//!
//! Unlike [`crate::decentralized::DecentralizedDetector`], which evaluates
//! the protocol against a shared view (useful for equivalence proofs), a
//! [`DecentralizedSystem`] keeps the managers' data **physically
//! partitioned**:
//!
//! * managers (the "power nodes") form a Chord ring;
//! * a rating about `n_i` is routed with `Insert(ID_i, rating)` from the
//!   submitter's gateway manager to the DHT owner of `ID_i`, paying real
//!   routing hops;
//! * each manager holds only the interaction history *about its own
//!   responsible nodes* and computes their reputations from that data
//!   alone;
//! * `Lookup(ID_i)` fetches a reputation across the ring (hop-counted);
//! * detection runs per manager on its local slice, with request/response
//!   messages to the partner's manager for the cross-manager reverse check
//!   — exactly the paper's message flow.
//!
//! The end-to-end tests assert the partitioned system reaches the same
//! verdicts as a centralized manager fed the identical rating stream.

use crate::basic::BasicDetector;
use crate::cost::CostMeter;
use crate::decentralized::Method;
use crate::durability::DurabilityError;
use crate::fault::{ChurnSchedule, FaultPlan, FaultSession, FaultStats};
use crate::input::SnapshotInput;
use crate::model::{DirectionEvidence, SuspectPair};
use crate::optimized::OptimizedDetector;
use crate::policy::DetectionPolicy;
use crate::report::DetectionReport;
use collusion_dht::hash::consistent_hash;
use collusion_dht::id::Key;
use collusion_dht::ring::ChordRing;
use collusion_dht::routing::Router;
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::view::SnapshotView;
use collusion_reputation::wal::{replay_bytes, SyncPolicy, Wal, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Cumulative network-cost counters of a running system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemStats {
    /// `Insert` operations (one per submitted rating).
    pub inserts: u64,
    /// `Lookup` operations (reputation queries).
    pub lookups: u64,
    /// Detection confirmation messages (requests + responses).
    pub detection_messages: u64,
    /// Total Chord routing hops across all operations.
    pub hops: u64,
    /// Replica copies pushed to backup managers (inserts and re-replication
    /// after membership changes; one message each).
    pub replica_messages: u64,
    /// Node histories recovered from a backup after a manager crash.
    pub recovered_nodes: u64,
    /// Node histories irrecoverably lost to a crash (no surviving replica).
    pub lost_nodes: u64,
    /// Node histories rebuilt by replaying the system WAL after a manager
    /// crash — the preferred path whenever the disk copy is at least as
    /// complete as the best surviving replica.
    pub disk_recovered_nodes: u64,
}

/// The system-wide write-ahead log: every accepted submit is appended
/// *before* it is applied, fsync'd per the attached [`SyncPolicy`].
/// Shared behind a mutex so a cloned system keeps appending to the same
/// durable stream (clones model restarted processes over one disk).
#[derive(Clone, Debug)]
struct SystemWal {
    wal: Arc<Mutex<Wal>>,
    sync_policy: SyncPolicy,
    appends_since_sync: u64,
}

/// Result of a detection round run under a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct RobustReport {
    /// Confirmed pairs (cross-manager round-trip completed), plus meter.
    pub report: DetectionReport,
    /// Pairs whose confirmation exchange exhausted its retry budget:
    /// forward evidence only, reported instead of dropped.
    pub unconfirmed: Vec<SuspectPair>,
    /// Retry / drop / completeness accounting for the round.
    pub fault: FaultStats,
}

/// The §IV.A decentralized reputation system.
#[derive(Clone, Debug)]
pub struct DecentralizedSystem {
    thresholds: Thresholds,
    method: Method,
    policy: DetectionPolicy,
    ring: ChordRing,
    key_to_manager: HashMap<u64, NodeId>,
    /// manager → interaction history about its responsible nodes
    histories: HashMap<NodeId, InteractionHistory>,
    /// node → owning manager key (cached consistent-hash ownership)
    manager_of: HashMap<NodeId, Key>,
    /// registered participant nodes, ascending
    nodes: Vec<NodeId>,
    stats: SystemStats,
    /// Total copies of each node's history (primary + backups). ≥ 1.
    replication: usize,
    /// backup manager → replica copies of the histories it backs up
    replicas: HashMap<NodeId, InteractionHistory>,
    /// id source for managers spawned by churn joins
    next_spawned_manager: u64,
    /// optional durability: the global WAL of every accepted submit
    wal: Option<SystemWal>,
}

impl DecentralizedSystem {
    /// Bootstrap the system with the given power nodes as managers.
    /// Duplicate manager ids are tolerated; at least one is required.
    /// Histories are unreplicated — a manager crash loses its slice; use
    /// [`DecentralizedSystem::with_replication`] for crash tolerance.
    pub fn new(
        managers: &[NodeId],
        thresholds: Thresholds,
        method: Method,
        policy: DetectionPolicy,
    ) -> Self {
        Self::with_replication(managers, thresholds, method, policy, 1)
    }

    /// Bootstrap with `replication` total copies of every node's history:
    /// the owning manager's primary plus `replication - 1` backups at the
    /// owner's ring successors, kept in sync on every submit and
    /// re-established after membership changes.
    pub fn with_replication(
        managers: &[NodeId],
        thresholds: Thresholds,
        method: Method,
        policy: DetectionPolicy,
        replication: usize,
    ) -> Self {
        assert!(!managers.is_empty(), "need at least one reputation manager");
        assert!(replication >= 1, "replication factor must be at least 1");
        let mut ring = ChordRing::new();
        let mut key_to_manager = HashMap::new();
        for &m in managers {
            let key = consistent_hash(m.raw(), 64);
            if ring.join_with_key(key) {
                key_to_manager.insert(key.raw(), m);
            }
        }
        DecentralizedSystem {
            thresholds,
            method,
            policy,
            ring,
            key_to_manager,
            histories: HashMap::new(),
            manager_of: HashMap::new(),
            nodes: Vec::new(),
            stats: SystemStats::default(),
            replication,
            replicas: HashMap::new(),
            next_spawned_manager: 0x5000_0000,
            wal: None,
        }
    }

    /// Attach a write-ahead log at `path`: from now on every accepted
    /// [`DecentralizedSystem::submit`] is appended to it before it is
    /// applied, fsync'd per `sync_policy` (under [`SyncPolicy::Group`] the
    /// caller owns the commit points via
    /// [`DecentralizedSystem::wal_sync`]). A crashed manager is then
    /// recovered by replaying the log
    /// ([`DecentralizedSystem::manager_crash`] prefers the disk copy over
    /// replicas whenever it is at least as complete), and a cold restart
    /// can rebuild everything via
    /// [`DecentralizedSystem::recover_from_wal`].
    ///
    /// An existing file at `path` is opened and appended to (its torn tail,
    /// if any, is truncated); otherwise a fresh log is created.
    pub fn enable_durability(
        &mut self,
        path: impl AsRef<Path>,
        sync_policy: SyncPolicy,
    ) -> Result<(), DurabilityError> {
        let path = path.as_ref();
        let wal = if path.exists() { Wal::open_existing(path)?.0 } else { Wal::create(path, 0)? };
        self.wal =
            Some(SystemWal { wal: Arc::new(Mutex::new(wal)), sync_policy, appends_since_sync: 0 });
        Ok(())
    }

    /// Whether a system WAL is attached.
    pub fn durability_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Force any buffered WAL appends to stable storage.
    pub fn wal_sync(&mut self) -> Result<(), DurabilityError> {
        if let Some(d) = self.wal.as_mut() {
            d.wal.lock().expect("system WAL lock poisoned").sync()?;
            d.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Cold-restart recovery: open the WAL at `path` (truncating any torn
    /// tail), re-apply every logged rating through the normal ownership
    /// routing, rebuild the replicas, and keep the log attached for further
    /// appends. Participant nodes must be registered first — the log stores
    /// ratings, not memberships. Returns the number of ratings re-applied.
    ///
    /// Recovery counters are bit-identical to the uncrashed run because the
    /// log *is* the accepted rating stream and counters are a pure fold
    /// over it; only the network-cost stats differ (replay pays no hops).
    pub fn recover_from_wal(
        &mut self,
        path: impl AsRef<Path>,
        sync_policy: SyncPolicy,
    ) -> Result<u64, DurabilityError> {
        let (wal, replay) = Wal::open_existing(path.as_ref())?;
        let mut applied = 0u64;
        for (_, record) in &replay.records {
            let WalRecord::Rating(rating) = record else { continue };
            if rating.is_self_rating() {
                continue;
            }
            let Some(&owner_key) = self.manager_of.get(&rating.ratee) else {
                continue;
            };
            let manager = self.key_to_manager[&owner_key.raw()];
            self.histories.entry(manager).or_default().record(*rating);
            applied += 1;
        }
        self.rebuild_replicas();
        self.wal =
            Some(SystemWal { wal: Arc::new(Mutex::new(wal)), sync_policy, appends_since_sync: 0 });
        Ok(applied)
    }

    /// Replay the attached WAL into a standalone history of every logged
    /// rating — the disk image a crashed manager's slices are carved from.
    /// `None` when durability is off or the log cannot be read back.
    fn replay_wal_history(&self) -> Option<InteractionHistory> {
        let d = self.wal.as_ref()?;
        let bytes = {
            let mut guard = d.wal.lock().expect("system WAL lock poisoned");
            // surface appends still in the writer's encode buffer to the
            // file before reading it back
            guard.flush().ok()?;
            std::fs::read(guard.path()).ok()?
        };
        let replay = replay_bytes(&bytes).ok()?;
        let mut history = InteractionHistory::new();
        for (_, record) in replay.records {
            if let WalRecord::Rating(rating) = record {
                history.record(rating);
            }
        }
        Some(history)
    }

    /// The backup managers for histories owned by the manager at
    /// `owner_key`: the owner's distinct ring successors, up to the
    /// replication factor.
    fn backup_managers(&self, owner_key: Key) -> Vec<NodeId> {
        let mut backups = Vec::new();
        if self.replication <= 1 {
            return backups;
        }
        let mut cur = owner_key;
        for _ in 0..self.replication - 1 {
            cur = self.ring.successor_of(cur);
            if cur == owner_key {
                break; // ring smaller than the replication factor
            }
            backups.push(self.key_to_manager[&cur.raw()]);
        }
        backups
    }

    /// Rebuild every backup copy from the primary histories — called after
    /// any manager membership change, standing in for the copy transfers
    /// that stabilization would drive in a live deployment.
    fn rebuild_replicas(&mut self) {
        self.replicas.clear();
        if self.replication <= 1 {
            return;
        }
        let nodes = self.nodes.clone();
        for node in nodes {
            let owner_key = self.manager_of[&node];
            let owner = self.key_to_manager[&owner_key.raw()];
            let backups = self.backup_managers(owner_key);
            if backups.is_empty() {
                continue;
            }
            // non-destructive copy of the owner's slice about `node`
            let Some(history) = self.histories.get_mut(&owner) else { continue };
            let slice = history.split_off_ratee(node);
            history.merge(&slice);
            if slice.recorded() == 0 {
                continue;
            }
            for b in backups {
                self.replicas.entry(b).or_default().merge(&slice);
                self.stats.replica_messages += 1;
                self.stats.hops += 1;
            }
        }
    }

    /// Register a participant node; its ratings will be managed by the DHT
    /// owner of `consistent_hash(id)`. Idempotent.
    pub fn register(&mut self, node: NodeId) {
        if self.manager_of.contains_key(&node) {
            return;
        }
        let key = self.ring.owner(consistent_hash(node.raw(), 64));
        self.manager_of.insert(node, key);
        let pos = self.nodes.binary_search(&node).unwrap_or_else(|e| e);
        self.nodes.insert(pos, node);
    }

    /// The manager id responsible for `node`, if registered.
    pub fn manager_of(&self, node: NodeId) -> Option<NodeId> {
        self.manager_of.get(&node).map(|k| self.key_to_manager[&k.raw()])
    }

    /// Submit a rating: `Insert(ID_ratee, rating)` routed from the
    /// submitter's gateway (the first manager on the ring). Returns `false`
    /// for self-ratings or unregistered ratees.
    pub fn submit(&mut self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        let Some(&owner_key) = self.manager_of.get(&rating.ratee) else {
            return false;
        };
        // write-ahead: the rating is logged before any state changes, so a
        // crash between here and the history update loses nothing
        if let Some(d) = self.wal.as_mut() {
            let mut wal = d.wal.lock().expect("system WAL lock poisoned");
            wal.append(&WalRecord::Rating(rating)).expect("system WAL append failed");
            d.appends_since_sync += 1;
            if d.sync_policy.due(d.appends_since_sync) {
                wal.sync().expect("system WAL fsync failed");
                d.appends_since_sync = 0;
            }
        }
        // route from the gateway to the owner, paying hops
        let gateway = self.ring.members().next().expect("ring non-empty");
        let route =
            Router::new(&self.ring).lookup(gateway, consistent_hash(rating.ratee.raw(), 64));
        debug_assert_eq!(route.owner, owner_key);
        self.stats.inserts += 1;
        self.stats.hops += route.hops as u64;
        let manager = self.key_to_manager[&owner_key.raw()];
        self.histories.entry(manager).or_default().record(rating);
        // keep backup copies in sync: one owner→backup push per replica
        for b in self.backup_managers(owner_key) {
            self.replicas.entry(b).or_default().record(rating);
            self.stats.replica_messages += 1;
            self.stats.hops += 1;
        }
        true
    }

    /// `Lookup(ID_node)`: fetch the node's reputation (signed rating sum
    /// computed by its manager from local data). Unregistered nodes read 0.
    pub fn lookup_reputation(&mut self, node: NodeId) -> i64 {
        self.stats.lookups += 1;
        let Some(&owner_key) = self.manager_of.get(&node) else {
            return 0;
        };
        let gateway = self.ring.members().next().expect("ring non-empty");
        let route = Router::new(&self.ring).lookup(gateway, consistent_hash(node.raw(), 64));
        self.stats.hops += route.hops as u64;
        let manager = self.key_to_manager[&owner_key.raw()];
        self.histories.get(&manager).map_or(0, |h| h.signed_reputation(node))
    }

    /// Cumulative network statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// A new power node joins the manager ring; responsibility for (and the
    /// stored histories of) the nodes in its arc migrate from their previous
    /// managers. Returns the number of nodes that changed manager, or `None`
    /// if the manager id collides with an existing one.
    pub fn manager_join(&mut self, manager: NodeId) -> Option<usize> {
        let key = consistent_hash(manager.raw(), 64);
        if !self.ring.join_with_key(key) {
            return None;
        }
        self.key_to_manager.insert(key.raw(), manager);
        let moved = self.rebalance();
        self.rebuild_replicas();
        Some(moved)
    }

    /// A power node leaves gracefully; its responsible nodes (and their
    /// histories) move to their new owners. Returns the number of nodes that
    /// changed manager, or `None` if the id was not a manager — or if it is
    /// the last one (the system refuses to lose all its data).
    pub fn manager_leave(&mut self, manager: NodeId) -> Option<usize> {
        let key = consistent_hash(manager.raw(), 64);
        if !self.ring.contains(key) || self.ring.len() == 1 {
            return None;
        }
        self.ring.leave(key);
        self.key_to_manager.remove(&key.raw());
        let departed = self.histories.remove(&manager).unwrap_or_default();
        let migrated = self.rebalance();
        // the departed manager's leftover data (anything rebalance did not
        // already move node-by-node) merges into the new owners
        let mut remaining = departed;
        let ratees: Vec<NodeId> = remaining.ratees().collect();
        for ratee in ratees {
            let slice = remaining.split_off_ratee(ratee);
            if let Some(&owner_key) = self.manager_of.get(&ratee) {
                let owner = self.key_to_manager[&owner_key.raw()];
                self.histories.entry(owner).or_default().merge(&slice);
            }
        }
        self.rebuild_replicas();
        Some(migrated)
    }

    /// A power node crashes **abruptly**: no handoff — its primary slices
    /// and replica copies vanish. Each orphaned node's history is recovered
    /// from the best surviving backup when one exists (counted in
    /// `recovered_nodes`), otherwise it is lost (`lost_nodes`). Returns the
    /// number of nodes whose manager changed, or `None` if the id was not a
    /// manager — or is the last one.
    pub fn manager_crash(&mut self, manager: NodeId) -> Option<usize> {
        let key = consistent_hash(manager.raw(), 64);
        if !self.ring.contains(key) || self.ring.len() == 1 {
            return None;
        }
        // Everything the crashed manager held is gone.
        let crashed_primary = self.histories.remove(&manager).unwrap_or_default();
        self.replicas.remove(&manager);
        let mut orphaned: Vec<NodeId> = crashed_primary.ratees().collect();
        orphaned.sort_unstable();
        self.ring.leave(key);
        self.key_to_manager.remove(&key.raw());
        // Reassign ownership; slices between survivors move as usual, the
        // crashed manager's are skipped (its data no longer exists).
        let migrated = self.rebalance();
        // Recover each orphaned node's slice, disk first: replaying the
        // system WAL reconstructs the full accepted rating stream, so the
        // disk copy is bit-identical to the uncrashed counters. Replicas
        // are the degraded fallback — used only when the disk copy is
        // absent or less complete (e.g. the WAL was attached late).
        let mut disk = self.replay_wal_history();
        let mut backup_managers: Vec<NodeId> = self.replicas.keys().copied().collect();
        backup_managers.sort_unstable();
        for node in orphaned {
            let best = backup_managers
                .iter()
                .map(|&m| (self.replicas[&m].ratings_for(node), m))
                .filter(|&(count, _)| count > 0)
                .max_by_key(|&(count, m)| (count, std::cmp::Reverse(m)));
            let disk_count = disk.as_ref().map_or(0, |h| h.ratings_for(node));
            if disk_count > 0 && disk_count >= best.map_or(0, |(count, _)| count) {
                let slice = disk.as_mut().expect("disk history present").split_off_ratee(node);
                let new_owner = self.key_to_manager[&self.manager_of[&node].raw()];
                self.histories.entry(new_owner).or_default().merge(&slice);
                self.stats.disk_recovered_nodes += 1;
                continue;
            }
            let Some((_, source)) = best else {
                self.stats.lost_nodes += 1;
                continue;
            };
            let slice = match self.replicas.get_mut(&source) {
                Some(store) => {
                    let slice = store.split_off_ratee(node);
                    store.merge(&slice); // the backup keeps its copy
                    slice
                }
                None => continue,
            };
            let new_owner = self.key_to_manager[&self.manager_of[&node].raw()];
            self.histories.entry(new_owner).or_default().merge(&slice);
            self.stats.recovered_nodes += 1;
            self.stats.replica_messages += 1; // backup → new owner transfer
            self.stats.hops += 1;
        }
        self.rebuild_replicas();
        Some(migrated)
    }

    /// Apply one period of a churn schedule: crash `crashes_per_period`
    /// random managers (never the last one) and join `joins_per_period`
    /// fresh ones. Victim selection is deterministic in `(schedule.seed,
    /// period)`. Returns `(crashed, joined)` counts.
    pub fn apply_churn(&mut self, schedule: &ChurnSchedule, period: u64) -> (usize, usize) {
        let mut rng = schedule.victim_rng(period);
        let mut crashed = 0;
        for _ in 0..schedule.crashes_per_period {
            if self.ring.len() <= 1 {
                break;
            }
            let mut candidates: Vec<NodeId> = self.key_to_manager.values().copied().collect();
            candidates.sort_unstable();
            let victim = candidates[rng.below(candidates.len() as u64) as usize];
            if self.manager_crash(victim).is_some() {
                crashed += 1;
            }
        }
        let mut joined = 0;
        for _ in 0..schedule.joins_per_period {
            let id = NodeId(self.next_spawned_manager);
            self.next_spawned_manager += 1;
            if self.manager_join(id).is_some() {
                joined += 1;
            }
        }
        (crashed, joined)
    }

    /// Recompute every node's owner after a ring change, migrating histories
    /// node by node. Returns the number of nodes whose manager changed.
    fn rebalance(&mut self) -> usize {
        let mut moved = 0;
        let nodes = self.nodes.clone();
        for node in nodes {
            let new_key = self.ring.owner(consistent_hash(node.raw(), 64));
            let old_key = self.manager_of[&node];
            if new_key == old_key {
                continue;
            }
            moved += 1;
            self.manager_of.insert(node, new_key);
            // the old manager may be gone (leave case) — then its data is
            // handled by the caller; otherwise hand the slice over now
            if let Some(&old_manager) = self.key_to_manager.get(&old_key.raw()) {
                let slice = self
                    .histories
                    .get_mut(&old_manager)
                    .map(|h| h.split_off_ratee(node))
                    .unwrap_or_default();
                let new_manager = self.key_to_manager[&new_key.raw()];
                self.histories.entry(new_manager).or_default().merge(&slice);
            }
        }
        moved
    }

    /// Run the collusion detection round across all managers (the paper's
    /// periodic check), returning the merged report.
    ///
    /// Each manager freezes its local slice into an owned
    /// [`ShardedSnapshot`] once per round — no history clones, no
    /// per-pair reputation-map copies — and both the local forward walk
    /// and the partner-side reverse verification run on these frozen
    /// views. A partner that has never seen the probing rater answers
    /// from zero counters, exactly like the former hash-map lookup.
    ///
    /// Equivalent to `detect_robust(&FaultPlan::none()).report` — by the
    /// zero-draw contract of [`FaultPlan::none`] the accounting (hops,
    /// messages, meter) is bit-identical to a fault-oblivious round.
    pub fn detect(&mut self) -> DetectionReport {
        self.detect_robust(&FaultPlan::none()).report
    }

    /// Run one detection round with fault injection: every cross-manager
    /// confirmation exchange passes through the plan's lossy network with
    /// bounded retries and exponential backoff. Pairs whose exchange
    /// exhausts the retry budget are reported as *unconfirmed* (forward
    /// evidence only) instead of being silently dropped.
    ///
    /// The plan's churn schedule is **not** applied here — churn happens
    /// between rounds via [`DecentralizedSystem::apply_churn`], which the
    /// simulator drives once per detection period.
    pub fn detect_robust(&mut self, plan: &FaultPlan) -> RobustReport {
        let mut session = FaultSession::new(plan);
        let mut unconfirmed: Vec<SuspectPair> = Vec::new();
        let meter = CostMeter::new();
        // Group responsible nodes per manager; `self.nodes` is ascending,
        // so each manager's list comes out ascending too.
        let mut manager_nodes: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &node in &self.nodes {
            let manager = self.key_to_manager[&self.manager_of[&node].raw()];
            manager_nodes.entry(manager).or_default().push(node);
        }
        let mut manager_list: Vec<NodeId> = manager_nodes.keys().copied().collect();
        manager_list.sort_unstable();
        let manager_pos: HashMap<NodeId, usize> =
            manager_list.iter().enumerate().map(|(k, &m)| (m, k)).collect();

        // Freeze each manager's local slice; reputations are the signed
        // sums each manager computes from its own data.
        let empty = InteractionHistory::new();
        let snaps: Vec<ShardedSnapshot> = manager_list
            .iter()
            .map(|m| {
                let history = self.histories.get(m).unwrap_or(&empty);
                ShardedSnapshot::build(history, &manager_nodes[m], 1)
            })
            .collect();
        let inputs: Vec<SnapshotInput<'_>> = manager_list
            .iter()
            .zip(&snaps)
            .map(|(m, s)| SnapshotInput::from_signed(s, &manager_nodes[m]))
            .collect();
        let mut caches: Vec<Vec<Option<(u64, i64)>>> =
            snaps.iter().map(|s| vec![None; s.n()]).collect();

        let router_ring = self.ring.clone();
        let router = Router::new(&router_ring);
        let mut pairs: Vec<SuspectPair> = Vec::new();
        // indices are per-snapshot, so the cross-manager marking stays on ids
        let mut checked: HashSet<(NodeId, NodeId)> = HashSet::new();

        for (k, &manager) in manager_list.iter().enumerate() {
            let snap = &snaps[k];
            let input = &inputs[k];
            let nodes = &manager_nodes[&manager];
            let my_key = self.manager_of[&nodes[0]];
            for &i in nodes {
                let i_idx = snap.index(i).expect("responsible node is interned");
                if !self.thresholds.is_high_reputed(input.reputation_of_idx(i_idx)) {
                    continue;
                }
                let (cols, _) = snap.row(i_idx);
                for &j_idx in cols {
                    let j = snap.node_id(j_idx);
                    meter.element_check();
                    let key = if i < j { (i, j) } else { (j, i) };
                    if checked.contains(&key) {
                        continue;
                    }
                    let Some(ev_fwd) =
                        self.direction_snap(snap, i_idx, Some(j_idx), &meter, &mut caches[k])
                    else {
                        continue;
                    };
                    checked.insert(key);
                    // locate the partner's manager
                    let Some(&partner_key) = self.manager_of.get(&j) else { continue };
                    let partner_manager = self.key_to_manager[&partner_key.raw()];
                    if partner_key != my_key {
                        // each (re)transmission re-routes to the partner
                        let route = router.lookup(my_key, consistent_hash(j.raw(), 64));
                        let exchange = session.exchange();
                        self.stats.hops += route.hops as u64 * exchange.attempts as u64;
                        self.stats.detection_messages += exchange.messages;
                        for _ in 0..exchange.messages {
                            meter.message();
                        }
                        if !exchange.delivered {
                            unconfirmed.push(SuspectPair::new(j, i, Some(ev_fwd), None));
                            continue;
                        }
                    }
                    // partner-side verification on the partner's OWN slice
                    let Some(&p_pos) = manager_pos.get(&partner_manager) else {
                        continue;
                    };
                    let p_snap = &snaps[p_pos];
                    let p_j = p_snap.index(j).expect("registered node is interned");
                    if !self.thresholds.is_high_reputed(inputs[p_pos].reputation_of_idx(p_j)) {
                        continue;
                    }
                    let ev_rev = self.direction_snap(
                        p_snap,
                        p_j,
                        p_snap.index(i),
                        &meter,
                        &mut caches[p_pos],
                    );
                    if self.policy.require_mutual {
                        let Some(rev) = ev_rev else { continue };
                        pairs.push(SuspectPair::new(j, i, Some(ev_fwd), Some(rev)));
                    } else {
                        pairs.push(SuspectPair::new(j, i, Some(ev_fwd), ev_rev));
                    }
                }
            }
        }
        RobustReport {
            report: DetectionReport::new(pairs, meter.snapshot()),
            unconfirmed,
            fault: session.stats(),
        }
    }

    fn direction_snap(
        &self,
        snap: &ShardedSnapshot,
        ratee: u32,
        rater: Option<u32>,
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
    ) -> Option<DirectionEvidence> {
        match self.method {
            Method::Basic => BasicDetector::with_policy(self.thresholds, self.policy)
                .check_direction_snap(snap, ratee, rater, meter),
            Method::Optimized => OptimizedDetector::with_policy(self.thresholds, self.policy)
                .direction_cached(snap, ratee, rater, meter, cache),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DetectionInput;
    use collusion_reputation::id::SimTime;

    fn thresholds() -> Thresholds {
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    fn ratings() -> Vec<Rating> {
        let mut out = Vec::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for (a, b) in [(1u64, 2u64), (20, 21)] {
            for _ in 0..30 {
                out.push(Rating::positive(NodeId(a), NodeId(b), tick()));
                out.push(Rating::positive(NodeId(b), NodeId(a), tick()));
            }
            for k in 0..5 {
                out.push(Rating::negative(NodeId(40 + k), NodeId(a), tick()));
                out.push(Rating::negative(NodeId(40 + k), NodeId(b), tick()));
            }
        }
        for k in 0..5u64 {
            for l in 0..5u64 {
                if k != l {
                    out.push(Rating::positive(NodeId(40 + k), NodeId(40 + l), tick()));
                }
            }
        }
        out
    }

    fn build_system(managers: u64) -> DecentralizedSystem {
        let manager_ids: Vec<NodeId> = (1000..1000 + managers).map(NodeId).collect();
        let mut sys = DecentralizedSystem::new(
            &manager_ids,
            thresholds(),
            Method::Optimized,
            DetectionPolicy::STRICT,
        );
        for id in (1..=2).chain(20..=21).chain(40..45) {
            sys.register(NodeId(id));
        }
        for r in ratings() {
            sys.submit(r);
        }
        sys
    }

    #[test]
    fn partitioned_detection_matches_centralized() {
        let mut h = InteractionHistory::new();
        for r in ratings() {
            h.record(r);
        }
        let nodes: Vec<NodeId> = (1..=2).chain(20..=21).chain(40..45).map(NodeId).collect();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let central = OptimizedDetector::new(thresholds()).detect(&input);
        for managers in [1u64, 3, 8, 32] {
            let mut sys = build_system(managers);
            let report = sys.detect();
            assert_eq!(
                report.pair_ids(),
                central.pair_ids(),
                "{managers} managers diverged from centralized"
            );
        }
    }

    #[test]
    fn lookups_agree_with_submitted_ratings() {
        let mut sys = build_system(8);
        // n1: +30 from partner, −5 community = +25
        assert_eq!(sys.lookup_reputation(NodeId(1)), 25);
        assert_eq!(sys.lookup_reputation(NodeId(40)), 4); // praised by 4 peers
        assert_eq!(sys.lookup_reputation(NodeId(999)), 0); // unregistered
        let stats = sys.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.inserts, ratings().len() as u64);
    }

    #[test]
    fn self_and_unregistered_ratings_rejected() {
        let mut sys = build_system(4);
        assert!(!sys.submit(Rating::positive(NodeId(1), NodeId(1), SimTime(0))));
        assert!(!sys.submit(Rating::positive(NodeId(1), NodeId(777), SimTime(0))));
    }

    #[test]
    fn cross_manager_detection_costs_messages() {
        let mut sys = build_system(64);
        let report = sys.detect();
        assert_eq!(report.pairs.len(), 2);
        let stats = sys.stats();
        assert!(stats.detection_messages > 0, "expected cross-manager confirmations");
        assert_eq!(stats.detection_messages % 2, 0);
        assert!(stats.hops > 0);
    }

    #[test]
    fn single_manager_detects_without_messages() {
        let mut sys = build_system(1);
        let report = sys.detect();
        assert_eq!(report.pairs.len(), 2);
        assert_eq!(sys.stats().detection_messages, 0);
    }

    #[test]
    fn registration_is_idempotent_and_sorted() {
        let mut sys = DecentralizedSystem::new(
            &[NodeId(1000)],
            thresholds(),
            Method::Basic,
            DetectionPolicy::STRICT,
        );
        sys.register(NodeId(5));
        sys.register(NodeId(2));
        sys.register(NodeId(5));
        assert_eq!(sys.nodes, vec![NodeId(2), NodeId(5)]);
        assert_eq!(sys.manager_of(NodeId(5)), Some(NodeId(1000)));
        assert_eq!(sys.manager_of(NodeId(9)), None);
    }

    #[test]
    fn manager_churn_preserves_data_and_verdicts() {
        let mut sys = build_system(6);
        let baseline = {
            let mut reference = build_system(6);
            reference.detect().pair_ids()
        };
        // joins
        assert!(sys.manager_join(NodeId(2000)).is_some());
        assert!(sys.manager_join(NodeId(2001)).is_some());
        assert!(sys.manager_join(NodeId(2000)).is_none(), "duplicate join rejected");
        // leaves
        assert!(sys.manager_leave(NodeId(1000)).is_some());
        assert!(sys.manager_leave(NodeId(1000)).is_none(), "double leave rejected");
        // reputations unchanged by churn
        assert_eq!(sys.lookup_reputation(NodeId(1)), 25);
        assert_eq!(sys.lookup_reputation(NodeId(40)), 4);
        // detection verdicts unchanged by churn
        assert_eq!(sys.detect().pair_ids(), baseline);
    }

    #[test]
    fn last_manager_cannot_leave() {
        let mut sys = build_system(1);
        let only = sys.manager_of(NodeId(1)).unwrap();
        assert!(sys.manager_leave(only).is_none());
        assert_eq!(sys.lookup_reputation(NodeId(1)), 25, "data survived");
    }

    #[test]
    fn heavy_churn_keeps_every_rating() {
        let mut sys = build_system(4);
        let expected: u64 = ratings().len() as u64;
        for k in 0..10u64 {
            sys.manager_join(NodeId(3000 + k));
        }
        for k in 0..3u64 {
            sys.manager_leave(NodeId(1000 + k));
        }
        // total recorded ratings across all manager histories is conserved
        let total: u64 = sys.histories.values().map(|h| h.recorded()).sum();
        assert_eq!(total, expected);
        // and every node's reputation is still readable and correct
        assert_eq!(sys.lookup_reputation(NodeId(20)), 25);
        assert_eq!(sys.lookup_reputation(NodeId(44)), 4);
    }

    #[test]
    fn basic_method_agrees_with_optimized_in_system() {
        let mut opt = build_system(8);
        let mut basic = build_system(8);
        basic.method = Method::Basic;
        assert_eq!(basic.detect().pair_ids(), opt.detect().pair_ids());
    }

    fn build_replicated_system(managers: u64, replication: usize) -> DecentralizedSystem {
        let manager_ids: Vec<NodeId> = (1000..1000 + managers).map(NodeId).collect();
        let mut sys = DecentralizedSystem::with_replication(
            &manager_ids,
            thresholds(),
            Method::Optimized,
            DetectionPolicy::STRICT,
            replication,
        );
        for id in (1..=2).chain(20..=21).chain(40..45) {
            sys.register(NodeId(id));
        }
        for r in ratings() {
            sys.submit(r);
        }
        sys
    }

    #[test]
    fn replicated_system_survives_manager_crashes() {
        let baseline = build_system(8).detect().pair_ids();
        let mut sys = build_replicated_system(8, 3);
        // crash three managers in a row — replication factor 3 guarantees a
        // surviving copy of every slice after each single crash + rebuild
        for id in [1000u64, 1003, 1006] {
            assert!(sys.manager_crash(NodeId(id)).is_some());
        }
        assert_eq!(sys.stats().lost_nodes, 0, "no slice may be lost at r=3");
        // every reputation and every verdict survives
        assert_eq!(sys.lookup_reputation(NodeId(1)), 25);
        assert_eq!(sys.lookup_reputation(NodeId(40)), 4);
        assert_eq!(sys.detect().pair_ids(), baseline);
    }

    #[test]
    fn unreplicated_crash_loses_data_but_system_degrades_gracefully() {
        let mut sys = build_system(8); // replication = 1
        let held_before: u64 = sys.histories.values().map(|h| h.recorded()).sum();
        // crash every manager that holds data except the last survivor
        let mut crashed_any_data = false;
        for id in 1000..1007u64 {
            let m = NodeId(id);
            let held = sys.histories.get(&m).map_or(0, |h| h.recorded());
            if sys.manager_crash(m).is_some() && held > 0 {
                crashed_any_data = true;
            }
        }
        let held_after: u64 = sys.histories.values().map(|h| h.recorded()).sum();
        assert!(crashed_any_data, "test needs at least one data-bearing crash");
        assert!(held_after < held_before, "unreplicated crashes must lose ratings");
        assert!(sys.stats().lost_nodes > 0);
        // the survivor still answers lookups and runs detection without panic
        let _ = sys.lookup_reputation(NodeId(1));
        let _ = sys.detect();
    }

    #[test]
    fn crash_of_non_member_or_last_manager_refused() {
        let mut sys = build_system(1);
        let only = sys.manager_of(NodeId(1)).unwrap();
        assert!(sys.manager_crash(only).is_none(), "last manager must not crash away the data");
        assert!(sys.manager_crash(NodeId(77777)).is_none());
        assert_eq!(sys.lookup_reputation(NodeId(1)), 25);
    }

    #[test]
    fn churn_application_is_deterministic() {
        let schedule = ChurnSchedule { crashes_per_period: 1, joins_per_period: 1, seed: 11 };
        let run = |mut sys: DecentralizedSystem| {
            let mut counts = Vec::new();
            for period in 0..4 {
                counts.push(sys.apply_churn(&schedule, period));
            }
            let pairs = sys.detect().pair_ids();
            (counts, pairs, sys.stats().recovered_nodes, sys.stats().lost_nodes)
        };
        let a = run(build_replicated_system(8, 3));
        let b = run(build_replicated_system(8, 3));
        assert_eq!(a, b, "same churn schedule must replay identically");
    }

    #[test]
    fn unreplicated_crash_recovers_from_wal() {
        let baseline = build_system(8).detect().pair_ids();
        let dir = crate::durability::scratch_dir("sys-unreplicated");
        // unreplicated system, but with a WAL attached before any submit
        let manager_ids: Vec<NodeId> = (1000..1008u64).map(NodeId).collect();
        let mut logged = DecentralizedSystem::new(
            &manager_ids,
            thresholds(),
            Method::Optimized,
            DetectionPolicy::STRICT,
        );
        logged.enable_durability(dir.join("logged.wal"), SyncPolicy::EveryK(16)).unwrap();
        for id in (1..=2).chain(20..=21).chain(40..45) {
            logged.register(NodeId(id));
        }
        for r in ratings() {
            logged.submit(r);
        }
        // crash every data-bearing manager except the survivor; without the
        // WAL this loses slices (see unreplicated_crash_loses_data test)
        for id in 1000..1007u64 {
            logged.manager_crash(NodeId(id));
        }
        assert_eq!(logged.stats().lost_nodes, 0, "WAL must cover every orphaned slice");
        assert!(logged.stats().disk_recovered_nodes > 0);
        assert_eq!(logged.stats().recovered_nodes, 0, "no replicas to recover from");
        assert_eq!(logged.lookup_reputation(NodeId(1)), 25);
        assert_eq!(logged.lookup_reputation(NodeId(40)), 4);
        assert_eq!(logged.detect().pair_ids(), baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_recovery_preferred_over_replicas_and_identical() {
        let baseline = build_system(8).detect().pair_ids();
        let dir = crate::durability::scratch_dir("sys-disk-first");
        // replicated AND logged: the disk copy is always at least as
        // complete as any replica, so it must win every recovery
        let manager_ids: Vec<NodeId> = (1000..1008u64).map(NodeId).collect();
        let mut sys = DecentralizedSystem::with_replication(
            &manager_ids,
            thresholds(),
            Method::Optimized,
            DetectionPolicy::STRICT,
            3,
        );
        sys.enable_durability(dir.join("system.wal"), SyncPolicy::EveryK(16)).unwrap();
        for id in (1..=2).chain(20..=21).chain(40..45) {
            sys.register(NodeId(id));
        }
        for r in ratings() {
            sys.submit(r);
        }
        let mut replica_only = build_replicated_system(8, 3);
        for id in [1000u64, 1003, 1006] {
            assert!(sys.manager_crash(NodeId(id)).is_some());
            assert!(replica_only.manager_crash(NodeId(id)).is_some());
        }
        let stats = sys.stats();
        assert!(stats.disk_recovered_nodes > 0);
        assert_eq!(stats.recovered_nodes, 0, "disk must preempt every replica recovery");
        assert_eq!(stats.lost_nodes, 0);
        // identical verdicts to both the replica-rebuilt world and baseline
        assert_eq!(sys.detect().pair_ids(), baseline);
        assert_eq!(replica_only.detect().pair_ids(), baseline);
        // and bit-identical counters: every reputation matches
        for id in (1..=2).chain(20..=21).chain(40..45) {
            assert_eq!(
                sys.lookup_reputation(NodeId(id)),
                replica_only.lookup_reputation(NodeId(id)),
                "node {id} counters diverged between disk and replica recovery"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_restart_replays_the_wal_bit_identically() {
        let dir = crate::durability::scratch_dir("sys-cold-restart");
        let wal_path = dir.join("system.wal");
        let baseline = {
            let mut sys = build_replicated_system(8, 1);
            sys.enable_durability(&wal_path, SyncPolicy::EveryK(16)).unwrap();
            for r in ratings() {
                sys.submit(r);
            }
            sys.wal_sync().unwrap();
            sys.detect().pair_ids()
        }; // process "dies" here; only the WAL file survives
        let manager_ids: Vec<NodeId> = (1000..1008u64).map(NodeId).collect();
        let mut restarted = DecentralizedSystem::new(
            &manager_ids,
            thresholds(),
            Method::Optimized,
            DetectionPolicy::STRICT,
        );
        for id in (1..=2).chain(20..=21).chain(40..45) {
            restarted.register(NodeId(id));
        }
        let replayed = restarted.recover_from_wal(&wal_path, SyncPolicy::EveryK(16)).unwrap();
        assert_eq!(replayed, ratings().len() as u64);
        assert!(restarted.durability_enabled(), "log stays attached after recovery");
        assert_eq!(restarted.lookup_reputation(NodeId(1)), 25);
        assert_eq!(restarted.detect().pair_ids(), baseline);
        // the reopened log keeps accepting submits where it left off
        assert!(restarted.submit(Rating::positive(NodeId(40), NodeId(1), SimTime(99_999))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_robust_none_plan_matches_detect_exactly() {
        let mut plain = build_system(16);
        let mut robust = build_system(16);
        let expected = plain.detect();
        let out = robust.detect_robust(&FaultPlan::none());
        assert_eq!(out.report.pair_ids(), expected.pair_ids());
        assert_eq!(out.report.cost, expected.cost, "meter must be bit-identical");
        assert!(out.unconfirmed.is_empty());
        assert_eq!(out.fault.completeness(), 1.0);
        assert_eq!(plain.stats(), robust.stats(), "hops/messages must match");
    }

    #[test]
    fn retries_keep_system_verdicts_complete_at_moderate_drop() {
        let baseline = build_system(16).detect().pair_ids();
        for seed in 0..10u64 {
            let mut sys = build_system(16);
            let out = sys.detect_robust(&FaultPlan::with_drop(0.1, seed));
            assert_eq!(
                out.report.pair_ids(),
                baseline,
                "seed {seed}: 10% drop with default retries must confirm every pair"
            );
            assert!(out.unconfirmed.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn heavy_drop_reports_unconfirmed_instead_of_dropping() {
        let baseline = build_system(16).detect().pair_ids();
        let mut saw_unconfirmed = false;
        for seed in 0..12u64 {
            let mut sys = build_system(16);
            let out = sys.detect_robust(&FaultPlan::with_drop(0.6, seed).retries(0));
            let confirmed = out.report.pair_ids();
            for pair in &confirmed {
                assert!(baseline.contains(pair), "seed {seed}: confirmed ⊆ fault-free set");
            }
            let mut accounted = confirmed.clone();
            accounted.extend(out.unconfirmed.iter().map(|p| p.ids()));
            for pair in &baseline {
                assert!(
                    accounted.contains(pair),
                    "seed {seed}: fault-free pair {pair:?} vanished instead of degrading"
                );
            }
            saw_unconfirmed |= !out.unconfirmed.is_empty();
        }
        assert!(saw_unconfirmed, "60% drop without retries must strand some pairs");
    }
}
