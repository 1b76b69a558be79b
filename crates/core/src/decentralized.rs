//! Decentralized detection across DHT-hosted reputation managers.
//!
//! §IV.B–C: the managers are high-reputed "power nodes" forming a Chord
//! ring; manager `M_i` (the DHT owner of `ID_i`) holds every rating *about*
//! `n_i`. `M_i` runs the forward direction test for each of its responsible
//! high-reputed nodes locally; when node `n_i` looks boosted by `n_j` and
//! `n_j` is managed elsewhere, `M_i` routes a confirmation request to `M_j`
//! via `Insert(j, msg)`. `M_j` verifies `R_j ≥ T_R`, `N(i,j) ≥ T_N` and the
//! reverse direction test and answers positively iff they hold.
//!
//! Message accounting: every cross-manager confirmation costs one request
//! plus one response; requests are routed over the Chord ring, so routing
//! hops are counted too. The reported pair set is identical to the
//! centralized detector's — verified by the equivalence tests below.

use crate::basic::BasicDetector;
use crate::cost::CostMeter;
use crate::fault::{FaultPlan, FaultSession, FaultStats};
use crate::input::{DetectionInput, SnapshotInput};
use crate::model::{DirectionEvidence, SuspectPair};
use crate::optimized::OptimizedDetector;
use crate::pairset::PairSet;
use crate::report::DetectionReport;
use collusion_dht::hash::consistent_hash;
use collusion_dht::id::Key;
use collusion_dht::ring::ChordRing;
use collusion_dht::routing::Router;
use collusion_reputation::id::NodeId;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;
use std::collections::HashMap;

/// Which direction-test the managers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Row-scanning fraction test (§IV.B).
    Basic,
    /// Formula (2) band test (§IV.C).
    Optimized,
}

/// A decentralized detection run.
#[derive(Clone, Copy, Debug)]
pub struct DecentralizedDetector {
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Direction-test variant.
    pub method: Method,
}

/// Result of a decentralized pass, with communication costs.
///
/// Under fault injection the suspect pairs partition into *confirmed* (the
/// cross-manager round-trip completed and the partner verified) and
/// *unconfirmed* (the forward test fired but the confirmation exchange
/// exhausted its retry budget — degraded, forward-evidence-only findings
/// that are reported instead of silently dropped). A fault-free run has an
/// empty `unconfirmed` set and `fault.completeness() == 1.0`.
#[derive(Clone, Debug)]
pub struct DecentralizedOutcome {
    /// The detection report of confirmed pairs (+ local operation cost).
    pub report: DetectionReport,
    /// Suspect pairs whose confirmation exchange failed under faults:
    /// forward evidence only, partner verdict unknown.
    pub unconfirmed: Vec<SuspectPair>,
    /// Manager-to-manager messages (requests + responses actually sent,
    /// including retransmissions and dropped messages).
    pub messages: u64,
    /// Chord routing hops consumed by those messages.
    pub dht_hops: u64,
    /// Number of managers that participated.
    pub manager_count: usize,
    /// How many nodes each manager was responsible for.
    pub load: HashMap<NodeId, usize>,
    /// Fault accounting: retries, drops, failed exchanges, completeness.
    pub fault: FaultStats,
}

impl DecentralizedDetector {
    /// Detector with the given thresholds and method.
    pub fn new(thresholds: Thresholds, method: Method) -> Self {
        DecentralizedDetector { thresholds, method }
    }

    /// Run detection with `managers` as the DHT power nodes.
    ///
    /// Every node in `input.nodes` is assigned to the Chord owner of
    /// `consistent_hash(node_id)`; each manager scans only its responsible
    /// nodes and requests cross-manager confirmations as needed.
    ///
    /// Internally the pass freezes the history into a [`ShardedSnapshot`]
    /// once, so every manager's row walk and every partner probe is an
    /// array access — the reported pairs, metered costs, messages and hops
    /// are identical to the former hash-map implementation.
    ///
    /// Equivalent to [`DecentralizedDetector::detect_with_faults`] with
    /// [`FaultPlan::none`] — bit-identical by the zero-draw contract.
    pub fn detect(&self, input: &DetectionInput<'_>, managers: &[NodeId]) -> DecentralizedOutcome {
        self.detect_with_faults(input, managers, &FaultPlan::none())
    }

    /// Run detection with `managers` as the DHT power nodes, injecting the
    /// message faults of `plan` into every cross-manager confirmation.
    ///
    /// Each confirmation is a request/response exchange through a
    /// [`FaultSession`]: dropped messages are retried (with exponential
    /// backoff) up to the plan's budget, every transmission is counted in
    /// `messages` and metered, and the request is re-routed per attempt (so
    /// `dht_hops` reflects retransmissions too). A pair whose exchange fails
    /// outright degrades into the `unconfirmed` set instead of vanishing.
    ///
    /// Note: `plan.churn` is ignored here — a detector run is a single
    /// round over a fixed manager set; per-period churn is driven by
    /// [`crate::system::DecentralizedSystem::apply_churn`].
    pub fn detect_with_faults(
        &self,
        input: &DetectionInput<'_>,
        managers: &[NodeId],
        plan: &FaultPlan,
    ) -> DecentralizedOutcome {
        assert!(!managers.is_empty(), "need at least one reputation manager");
        // Build the manager ring.
        let mut ring = ChordRing::new();
        let mut key_to_manager: HashMap<u64, NodeId> = HashMap::new();
        for &m in managers {
            let key = consistent_hash(m.raw(), 64);
            if ring.join_with_key(key) {
                key_to_manager.insert(key.raw(), m);
            }
        }
        // Assign nodes to managers.
        let owner_key = |node: NodeId| -> Key { ring.owner(consistent_hash(node.raw(), 64)) };
        let mut responsibility: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut manager_of: HashMap<NodeId, Key> = HashMap::new();
        for &node in &input.nodes {
            let key = owner_key(node);
            let manager = key_to_manager[&key.raw()];
            responsibility.entry(manager).or_default().push(node);
            manager_of.insert(node, key);
        }

        // Freeze the rating matrix once for all managers.
        let snap = ShardedSnapshot::build(input.history, &input.nodes, 1);
        let sinput = SnapshotInput::new(&snap, &input.nodes, &input.reputation);

        let meter = CostMeter::new();
        let mut cache: Vec<Option<(u64, i64)>> = vec![None; snap.n()];
        let router = Router::new(&ring);
        let mut session = FaultSession::new(plan);
        let mut messages = 0u64;
        let mut dht_hops = 0u64;
        let mut checked = PairSet::default();
        let mut pairs: Vec<SuspectPair> = Vec::new();
        let mut unconfirmed: Vec<SuspectPair> = Vec::new();

        // deterministic manager order
        let mut manager_list: Vec<NodeId> = responsibility.keys().copied().collect();
        manager_list.sort_unstable();

        for &manager in &manager_list {
            let my_key = manager_of
                .get(responsibility[&manager].first().expect("non-empty responsibility"))
                .copied()
                .expect("manager key");
            let mut my_nodes = responsibility[&manager].clone();
            my_nodes.sort_unstable();
            for &i in &my_nodes {
                let i_idx = snap.index(i).expect("responsible node is interned");
                // C1 filter on the local responsible node.
                if !self.thresholds.is_high_reputed(sinput.reputation_of_idx(i_idx)) {
                    continue;
                }
                let (cols, _) = snap.row(i_idx);
                for &j_idx in cols {
                    meter.element_check();
                    if checked.contains(i_idx, j_idx) {
                        continue;
                    }
                    // Forward test runs locally; R_j is *not* known here —
                    // the partner's manager verifies it (paper protocol).
                    let forward = self.direction_snap(&snap, i_idx, j_idx, &meter, &mut cache);
                    let Some(ev_fwd) = forward else { continue };
                    checked.insert(i_idx, j_idx);
                    // Locate the partner's manager.
                    let j = snap.node_id(j_idx);
                    let partner_key = match manager_of.get(&j) {
                        Some(&k) => k,
                        None => continue, // unmanaged outsider (e.g. left the system)
                    };
                    let local = partner_key == my_key;
                    if !local {
                        let route = router.lookup(my_key, consistent_hash(j.raw(), 64));
                        let exchange = session.exchange();
                        // every attempt re-routes its request
                        dht_hops += route.hops as u64 * exchange.attempts as u64;
                        messages += exchange.messages;
                        for _ in 0..exchange.messages {
                            meter.message();
                        }
                        if !exchange.delivered {
                            // Degraded finding: the partner never answered,
                            // so report the pair as unconfirmed rather than
                            // silently dropping it (probe-once semantics —
                            // `checked` already holds the pair).
                            unconfirmed.push(SuspectPair::new(j, i, Some(ev_fwd), None));
                            continue;
                        }
                    }
                    // Partner-side verification: R_j ≥ T_R + reverse test.
                    if !self.thresholds.is_high_reputed(sinput.reputation_of_idx(j_idx)) {
                        continue;
                    }
                    let Some(ev_rev) = self.direction_snap(&snap, j_idx, i_idx, &meter, &mut cache)
                    else {
                        continue;
                    };
                    pairs.push(SuspectPair::new(j, i, Some(ev_fwd), Some(ev_rev)));
                }
            }
        }

        let load = responsibility.iter().map(|(&m, v)| (m, v.len())).collect();
        DecentralizedOutcome {
            report: DetectionReport::new(pairs, meter.snapshot()),
            unconfirmed,
            messages,
            dht_hops,
            manager_count: manager_list.len(),
            load,
            fault: session.stats(),
        }
    }

    fn direction_snap(
        &self,
        snap: &ShardedSnapshot,
        ratee: u32,
        rater: u32,
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
    ) -> Option<DirectionEvidence> {
        match self.method {
            Method::Basic => BasicDetector::new(self.thresholds).check_direction_snap(
                snap,
                ratee,
                Some(rater),
                meter,
            ),
            Method::Optimized => OptimizedDetector::new(self.thresholds).direction_cached(
                snap,
                ratee,
                Some(rater),
                meter,
                cache,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::history::InteractionHistory;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;

    fn thresholds() -> Thresholds {
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    /// Three colluding pairs + honest traffic across 40 nodes.
    fn scenario() -> (InteractionHistory, Vec<NodeId>) {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for (a, b) in [(1u64, 2u64), (11, 12), (21, 22)] {
            for _ in 0..25 {
                h.record(Rating::positive(NodeId(a), NodeId(b), tick()));
                h.record(Rating::positive(NodeId(b), NodeId(a), tick()));
            }
            for k in 0..4 {
                h.record(Rating::negative(NodeId(30 + k), NodeId(a), tick()));
                h.record(Rating::negative(NodeId(30 + k), NodeId(b), tick()));
            }
        }
        // honest praise among 30..40
        for k in 0..10u64 {
            for l in 0..10u64 {
                if k != l {
                    h.record(Rating::positive(NodeId(30 + k), NodeId(30 + l), tick()));
                }
            }
        }
        let nodes: Vec<NodeId> = (1..=40).map(NodeId).collect();
        (h, nodes)
    }

    #[test]
    fn decentralized_matches_centralized_optimized() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let central = OptimizedDetector::new(thresholds()).detect(&input);
        let managers: Vec<NodeId> = (100..108).map(NodeId).collect();
        let dec =
            DecentralizedDetector::new(thresholds(), Method::Optimized).detect(&input, &managers);
        assert_eq!(dec.report.pair_ids(), central.pair_ids());
    }

    #[test]
    fn decentralized_matches_centralized_basic() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let central = BasicDetector::new(thresholds()).detect(&input);
        let managers: Vec<NodeId> = (100..104).map(NodeId).collect();
        let dec = DecentralizedDetector::new(thresholds(), Method::Basic).detect(&input, &managers);
        assert_eq!(dec.report.pair_ids(), central.pair_ids());
    }

    #[test]
    fn single_manager_needs_no_messages() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let dec = DecentralizedDetector::new(thresholds(), Method::Optimized)
            .detect(&input, &[NodeId(100)]);
        assert_eq!(dec.messages, 0);
        assert_eq!(dec.dht_hops, 0);
        assert_eq!(dec.manager_count, 1);
        assert_eq!(dec.report.pairs.len(), 3);
    }

    #[test]
    fn cross_manager_pairs_cost_messages() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        // many managers → colluder partners usually live on different managers
        let managers: Vec<NodeId> = (100..164).map(NodeId).collect();
        let dec =
            DecentralizedDetector::new(thresholds(), Method::Optimized).detect(&input, &managers);
        assert_eq!(dec.report.pairs.len(), 3);
        assert!(dec.messages > 0, "expected cross-manager confirmations");
        assert_eq!(dec.messages % 2, 0, "messages come in request/response pairs");
    }

    #[test]
    fn load_partitions_all_nodes() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers: Vec<NodeId> = (100..116).map(NodeId).collect();
        let dec =
            DecentralizedDetector::new(thresholds(), Method::Optimized).detect(&input, &managers);
        let total: usize = dec.load.values().sum();
        assert_eq!(total, nodes.len());
    }

    #[test]
    #[should_panic(expected = "at least one reputation manager")]
    fn empty_manager_set_rejected() {
        let h = InteractionHistory::new();
        let input = DetectionInput::from_signed_history(&h, &[NodeId(1)]);
        let _ = DecentralizedDetector::new(thresholds(), Method::Optimized).detect(&input, &[]);
    }

    #[test]
    fn duplicate_managers_tolerated() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers = vec![NodeId(100), NodeId(100), NodeId(101)];
        let dec =
            DecentralizedDetector::new(thresholds(), Method::Optimized).detect(&input, &managers);
        assert_eq!(dec.report.pairs.len(), 3);
    }

    #[test]
    fn fault_free_run_reports_full_completeness() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers: Vec<NodeId> = (100..132).map(NodeId).collect();
        let dec =
            DecentralizedDetector::new(thresholds(), Method::Optimized).detect(&input, &managers);
        assert!(dec.unconfirmed.is_empty());
        assert_eq!(dec.fault.failed_exchanges, 0);
        assert_eq!(dec.fault.retries, 0);
        assert_eq!(dec.fault.completeness(), 1.0);
        // exchanges happened, so the accounting is live, not vacuous
        assert!(dec.fault.exchanges > 0);
        assert_eq!(dec.fault.messages_sent, dec.messages);
    }

    /// Degradation invariants that hold for ANY drop rate and seed:
    /// confirmed ⊆ fault-free, and fault-free ⊆ confirmed ∪ unconfirmed
    /// (nothing silently dropped).
    #[test]
    fn degraded_runs_partition_instead_of_dropping() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers: Vec<NodeId> = (100..164).map(NodeId).collect();
        let detector = DecentralizedDetector::new(thresholds(), Method::Optimized);
        let clean: std::collections::BTreeSet<_> =
            detector.detect(&input, &managers).report.pair_ids().into_iter().collect();
        assert_eq!(clean.len(), 3);
        for seed in 0..20u64 {
            // retries(0) at 50% drop: exchanges fail often
            let plan = FaultPlan::with_drop(0.5, seed).retries(0);
            let dec = detector.detect_with_faults(&input, &managers, &plan);
            let confirmed: std::collections::BTreeSet<_> =
                dec.report.pair_ids().into_iter().collect();
            let unconfirmed: std::collections::BTreeSet<_> =
                dec.unconfirmed.iter().map(|p| p.ids()).collect();
            assert!(confirmed.is_subset(&clean), "seed {seed}: phantom confirmed pair");
            for pair in &clean {
                assert!(
                    confirmed.contains(pair) || unconfirmed.contains(pair),
                    "seed {seed}: true pair {pair:?} vanished instead of degrading"
                );
            }
            assert!(dec.fault.failed_exchanges as usize >= unconfirmed.len());
        }
    }

    #[test]
    fn heavy_drop_yields_unconfirmed_pairs() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers: Vec<NodeId> = (100..164).map(NodeId).collect();
        let detector = DecentralizedDetector::new(thresholds(), Method::Optimized);
        // across a handful of seeds, 30% drop with a single attempt must
        // fail at least one exchange somewhere
        let mut saw_unconfirmed = false;
        for seed in 0..8u64 {
            let plan = FaultPlan::with_drop(0.3, seed).retries(0);
            let dec = detector.detect_with_faults(&input, &managers, &plan);
            saw_unconfirmed |= !dec.unconfirmed.is_empty();
        }
        assert!(saw_unconfirmed, "30% drop with no retries never failed an exchange");
    }

    #[test]
    fn same_fault_seed_gives_identical_outcome() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers: Vec<NodeId> = (100..164).map(NodeId).collect();
        let detector = DecentralizedDetector::new(thresholds(), Method::Optimized);
        let plan = FaultPlan::with_drop(0.3, 1234).retries(1);
        let a = detector.detect_with_faults(&input, &managers, &plan);
        let b = detector.detect_with_faults(&input, &managers, &plan);
        assert_eq!(a.report.pair_ids(), b.report.pair_ids());
        assert_eq!(
            a.unconfirmed.iter().map(|p| p.ids()).collect::<Vec<_>>(),
            b.unconfirmed.iter().map(|p| p.ids()).collect::<Vec<_>>()
        );
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.dht_hops, b.dht_hops);
        assert_eq!(a.fault, b.fault);
    }

    #[test]
    fn retries_restore_the_fault_free_pair_set_at_moderate_drop() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let managers: Vec<NodeId> = (100..164).map(NodeId).collect();
        let detector = DecentralizedDetector::new(thresholds(), Method::Optimized);
        let clean = detector.detect(&input, &managers).report.pair_ids();
        for seed in 0..10u64 {
            let dec =
                detector.detect_with_faults(&input, &managers, &FaultPlan::with_drop(0.1, seed));
            assert_eq!(
                dec.report.pair_ids(),
                clean,
                "seed {seed}: default retry budget failed to absorb 10% drop"
            );
            assert!(dec.unconfirmed.is_empty());
        }
    }
}
