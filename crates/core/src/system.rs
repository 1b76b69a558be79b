//! A complete decentralized reputation system with collusion detection —
//! §IV.A's architecture end to end.
//!
//! The in-process model of the protocol: a [`DecentralizedSystem`] keeps
//! the managers' data **physically partitioned**:
//!
//! * managers (the "power nodes") form a Chord ring;
//! * a rating about `n_i` is routed with `Insert(ID_i, rating)` from the
//!   submitter's gateway manager to the DHT owner of `ID_i`, paying real
//!   routing hops;
//! * each manager holds only the interaction history *about its own
//!   responsible nodes* and computes their reputations from that data
//!   alone;
//! * `Lookup(ID_i)` fetches a reputation across the ring (hop-counted);
//! * detection runs per manager on its local slice — the round of
//!   [`crate::decentralized`], the one [`crate::net::server::ManagerNode`]
//!   runs over TCP — with a request/response exchange through a lossy
//!   [`FaultSession`] to the partner's manager for each cross-manager
//!   reverse check, answered from that manager's own slice.
//!
//! The end-to-end tests assert the partitioned system reaches the same
//! verdicts as a centralized manager fed the identical rating stream. A
//! crashed manager's slices come back from replicas only; recovery from
//! disk belongs to [`crate::durability::DurableEngine`].

use crate::cost::CostMeter;
use crate::decentralized::{Kernel, Method, Partner};
use crate::fault::{ChurnSchedule, FaultPlan, FaultSession, FaultStats};
use crate::model::SuspectPair;
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
use std::collections::{BTreeMap, HashMap, HashSet};

/// Cumulative network-cost counters of a running system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// The direction tests every manager runs.
    kernel: Kernel,
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
            kernel: Kernel { method, thresholds, policy },
            ring,
            key_to_manager,
            histories: HashMap::new(),
            manager_of: HashMap::new(),
            nodes: Vec::new(),
            stats: SystemStats::default(),
            replication,
            replicas: HashMap::new(),
            next_spawned_manager: 0x5000_0000,
        }
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
        // Recover each orphaned node's slice from the best surviving backup.
        let mut backup_managers: Vec<NodeId> = self.replicas.keys().copied().collect();
        backup_managers.sort_unstable();
        for node in orphaned {
            let best = backup_managers
                .iter()
                .map(|&m| (self.replicas[&m].ratings_for(node), m))
                .filter(|&(count, _)| count > 0)
                .max_by_key(|&(count, m)| (count, std::cmp::Reverse(m)));
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
    /// `detect_robust(&FaultPlan::none()).report`: by the zero-draw
    /// contract of [`FaultPlan::none`] every exchange is delivered on its
    /// first attempt, so hops, messages and meter are a reliable network's.
    pub fn detect(&mut self) -> DetectionReport {
        self.detect_robust(&FaultPlan::none()).report
    }

    /// Run one detection round with fault injection: every cross-manager
    /// confirmation exchange passes through the plan's lossy network with
    /// bounded retries and exponential backoff. Pairs whose exchange
    /// exhausts the retry budget are reported as *unconfirmed* (forward
    /// evidence only) instead of being silently dropped.
    ///
    /// Each manager freezes its local slice into a [`ShardedSnapshot`]
    /// and runs its share of the shared decentralized round on it, in
    /// ascending manager order and with one `checked` set for the whole
    /// round. A delivered confirmation is answered from the partner
    /// manager's own frozen slice; a partner that has never seen the
    /// probing rater answers from zero counters.
    ///
    /// The plan's churn schedule is **not** applied here — churn happens
    /// between rounds via [`DecentralizedSystem::apply_churn`], which the
    /// simulator drives once per detection period.
    pub fn detect_robust(&mut self, plan: &FaultPlan) -> RobustReport {
        let mut session = FaultSession::new(plan);
        let meter = CostMeter::new();
        let kernel = self.kernel;
        // Group responsible nodes per manager, managers ascending;
        // `self.nodes` is ascending, so each manager's list is too.
        let mut manager_nodes: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &node in &self.nodes {
            let manager = self.key_to_manager[&self.manager_of[&node].raw()];
            manager_nodes.entry(manager).or_default().push(node);
        }
        let managers: Vec<NodeId> = manager_nodes.keys().copied().collect();

        // Freeze each manager's local slice; reputations are the signed
        // sums each manager computes from its own data.
        let empty = InteractionHistory::new();
        let snaps: Vec<ShardedSnapshot> = manager_nodes
            .iter()
            .map(|(m, nodes)| {
                ShardedSnapshot::build(self.histories.get(m).unwrap_or(&empty), nodes, 1)
            })
            .collect();
        let mut caches: Vec<Vec<Option<(u64, i64)>>> =
            snaps.iter().map(|s| kernel.agg_cache(s)).collect();

        let router = Router::new(&self.ring);
        let mut pairs: Vec<SuspectPair> = Vec::new();
        let mut unconfirmed: Vec<SuspectPair> = Vec::new();
        // indices are per-snapshot, so the cross-manager marking stays on ids
        let mut checked: HashSet<(NodeId, NodeId)> = HashSet::new();

        for (k, nodes) in manager_nodes.values().enumerate() {
            let my_key = self.manager_of[&nodes[0]];
            // the partner route reaches the other managers' caches, never this one's
            let mut cache = std::mem::take(&mut caches[k]);
            let (confirmed, stranded) =
                kernel.round(&snaps[k], nodes, &meter, &mut cache, &mut checked, |j, i| {
                    let Some(&partner_key) = self.manager_of.get(&j) else {
                        return Partner::Unmanaged;
                    };
                    if partner_key == my_key {
                        return Partner::Local;
                    }
                    // each (re)transmission re-routes to the partner
                    let route = router.lookup(my_key, consistent_hash(j.raw(), 64));
                    let exchange = session.exchange();
                    self.stats.hops += route.hops as u64 * exchange.attempts as u64;
                    self.stats.detection_messages += exchange.messages;
                    for _ in 0..exchange.messages {
                        meter.message();
                    }
                    if !exchange.delivered {
                        return Partner::Unreachable;
                    }
                    // partner-side verification on the partner's OWN slice
                    let partner = self.key_to_manager[&partner_key.raw()];
                    let Ok(p) = managers.binary_search(&partner) else { return Partner::Unmanaged };
                    Partner::Answered(kernel.confirm(&snaps[p], j, i, &meter, &mut caches[p]))
                });
            caches[k] = cache;
            pairs.extend(confirmed);
            unconfirmed.extend(stranded);
        }
        RobustReport {
            report: DetectionReport::new(pairs, meter.snapshot()),
            unconfirmed,
            fault: session.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decentralized::tests::{node_ids, ratings, thresholds};
    use crate::net::server::centralised_baseline;
    use collusion_reputation::id::SimTime;

    fn build_system(managers: u64) -> DecentralizedSystem {
        build_replicated_system(managers, 1)
    }

    fn build_replicated_system(managers: u64, replication: usize) -> DecentralizedSystem {
        let manager_ids: Vec<NodeId> = (1000..1000 + managers).map(NodeId).collect();
        build_on(&manager_ids, replication)
    }

    fn build_on(manager_ids: &[NodeId], replication: usize) -> DecentralizedSystem {
        let mut sys = DecentralizedSystem::with_replication(
            manager_ids,
            thresholds(),
            Method::Optimized,
            DetectionPolicy::STRICT,
            replication,
        );
        for id in node_ids() {
            sys.register(id);
        }
        for r in ratings() {
            sys.submit(r);
        }
        sys
    }

    #[test]
    fn partitioned_detection_matches_centralized() {
        let central = centralised_baseline(thresholds(), &ratings(), &node_ids());
        for managers in [1u64, 3, 8, 32] {
            let report = build_system(managers).detect();
            assert_eq!(report.pair_ids(), central, "{managers} managers diverged from centralized");
        }
        // duplicate manager ids are tolerated: the ring holds each id once
        let mut dup = build_on(&[NodeId(1000), NodeId(1000), NodeId(1001)], 1);
        assert_eq!(dup.key_to_manager.len(), 2);
        assert_eq!(dup.detect().pair_ids(), central);
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
        // every registered node has exactly one manager, and it is on the ring
        for &node in &sys.nodes {
            let manager = sys.manager_of(node).expect("registered");
            assert!(sys.key_to_manager.values().any(|&m| m == manager), "{node} unmanaged");
        }
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
        // an empty manager set is rejected
        let empty = std::panic::catch_unwind(|| build_on(&[], 1));
        assert!(empty.is_err(), "a system needs at least one reputation manager");
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
        basic.kernel.method = Method::Basic;
        assert_eq!(basic.detect().pair_ids(), opt.detect().pair_ids());
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
        // exchanges happened, so the accounting is live, not vacuous
        assert!(out.fault.exchanges > 0);
        assert_eq!(out.fault.messages_sent, robust.stats().detection_messages);
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
            assert!(out.fault.failed_exchanges as usize >= out.unconfirmed.len());
            saw_unconfirmed |= !out.unconfirmed.is_empty();
        }
        assert!(saw_unconfirmed, "60% drop without retries must strand some pairs");
    }
}
