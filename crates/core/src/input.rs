//! Detector input: the reputation manager's view of the system.
//!
//! §IV.B: "The reputation manager builds an n×n matrix … the matrix records
//! the reputation ratings for nodes whose R ≥ T_R. If node n_i's reputation
//! value R_i ≥ T_R, matrix element a_ij = ⟨ID_i, R_i, N(j,i), N⁺(j,i)⟩."
//!
//! [`DetectionInput`] is that matrix in sparse form: the interaction history
//! (which already stores `N(j,i)` and `N⁺(j,i)` per pair) plus a global
//! reputation value per node for the `T_R` trust filter. Two reputation
//! sources are supported:
//!
//! * the signed rating sum (eBay / EigenTrust local method, §IV.A) — used by
//!   the standalone detectors and by Formula (2), which is *derived* from
//!   the signed sum;
//! * an externally supplied global reputation (e.g. the normalized
//!   EigenTrust vector) — used when the detector runs on top of another
//!   reputation system, as in the paper's `EigenTrust+Optimized` pipeline.

use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::NodeId;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;
use std::collections::HashMap;

/// The manager's view handed to a detector.
#[derive(Clone, Debug)]
pub struct DetectionInput<'a> {
    /// Pairwise rating counters for the current period `T`.
    pub history: &'a InteractionHistory,
    /// All nodes under the manager's responsibility, ascending.
    pub nodes: Vec<NodeId>,
    /// Global reputation per node, used for the `T_R` high-reputed filter.
    pub reputation: HashMap<NodeId, f64>,
}

impl<'a> DetectionInput<'a> {
    /// Build an input with an explicit reputation map.
    pub fn new(
        history: &'a InteractionHistory,
        nodes: &[NodeId],
        reputation: HashMap<NodeId, f64>,
    ) -> Self {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        DetectionInput { history, nodes, reputation }
    }

    /// Build an input whose reputations are the signed rating sums from the
    /// history itself (the paper's standalone-detector configuration,
    /// Figure 8).
    pub fn from_signed_history(history: &'a InteractionHistory, nodes: &[NodeId]) -> Self {
        let reputation = nodes.iter().map(|&n| (n, history.signed_reputation(n) as f64)).collect();
        DetectionInput::new(history, nodes, reputation)
    }

    /// The global reputation of `node` (0 when unknown).
    #[inline]
    pub fn reputation_of(&self, node: NodeId) -> f64 {
        self.reputation.get(&node).copied().unwrap_or(0.0)
    }

    /// The signed rating sum `R_i = N⁺_i − N⁻_i` used by Formula (2).
    #[inline]
    pub fn signed_reputation(&self, node: NodeId) -> i64 {
        self.history.signed_reputation(node)
    }

    /// Nodes passing the `T_R` filter (`m` in the complexity propositions),
    /// ascending.
    pub fn high_reputed(&self, thresholds: &Thresholds) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| thresholds.is_high_reputed(self.reputation_of(n)))
            .collect()
    }

    /// Number of nodes in the view (`n` in the complexity propositions).
    #[inline]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }
}

/// The manager's view in snapshot form: dense indices into a frozen
/// [`ShardedSnapshot`] plus a dense reputation vector. This is what the
/// snapshot-path detector kernels (`detect_snapshot`) consume — every probe
/// is an array access or a binary search, never a hash.
#[derive(Clone, Debug)]
pub struct SnapshotInput<'a> {
    /// The frozen CSR view of the interaction history.
    pub snapshot: &'a ShardedSnapshot,
    /// Dense indices of the nodes under the manager's responsibility,
    /// ascending (ascending index ⇔ ascending [`NodeId`], since interning
    /// preserves id order).
    view: Vec<u32>,
    /// Reputation per dense index over the whole snapshot, 0.0 default.
    reputation: Vec<f64>,
}

impl<'a> SnapshotInput<'a> {
    /// Build a view over `nodes` with an explicit reputation map (the
    /// snapshot analogue of [`DetectionInput::new`]). All map entries are
    /// transferred, including nodes outside the view, mirroring the legacy
    /// input's behaviour for partner-manager reputation lookups.
    ///
    /// # Panics
    /// If a node in `nodes` is not interned in `snapshot` — build the
    /// snapshot with these nodes in its base list.
    pub fn new(
        snapshot: &'a ShardedSnapshot,
        nodes: &[NodeId],
        reputation: &HashMap<NodeId, f64>,
    ) -> Self {
        let mut input = Self::with_reputation_fn(snapshot, nodes, |_| 0.0);
        for (&id, &r) in reputation {
            if let Some(idx) = snapshot.index(id) {
                input.reputation[idx as usize] = r;
            }
        }
        input
    }

    /// Build a view over `nodes`, asking `reputation_of` for each *view*
    /// node's reputation (nodes outside the view default to 0.0, exactly
    /// like [`DetectionInput::reputation_of`] for unknown ids).
    pub fn with_reputation_fn(
        snapshot: &'a ShardedSnapshot,
        nodes: &[NodeId],
        reputation_of: impl Fn(NodeId) -> f64,
    ) -> Self {
        let mut view: Vec<u32> = nodes
            .iter()
            .map(|&id| {
                snapshot.index(id).unwrap_or_else(|| {
                    panic!("node {id} not interned in snapshot — rebuild with it in the base list")
                })
            })
            .collect();
        view.sort_unstable();
        view.dedup();
        let mut reputation = vec![0.0; snapshot.n()];
        for &idx in &view {
            reputation[idx as usize] = reputation_of(snapshot.node_id(idx));
        }
        SnapshotInput { snapshot, view, reputation }
    }

    /// Reputations are the signed rating sums precomputed in the snapshot
    /// (the snapshot analogue of [`DetectionInput::from_signed_history`]).
    pub fn from_signed(snapshot: &'a ShardedSnapshot, nodes: &[NodeId]) -> Self {
        Self::with_reputation_fn(snapshot, nodes, |id| {
            let idx = snapshot.index(id).expect("checked by with_reputation_fn");
            snapshot.signed(idx) as f64
        })
    }

    /// The dense indices of the view, ascending.
    #[inline]
    pub fn view(&self) -> &[u32] {
        &self.view
    }

    /// Number of nodes in the view (`n` in the complexity propositions).
    #[inline]
    pub fn n(&self) -> usize {
        self.view.len()
    }

    /// The reputation of dense index `idx` (0.0 when never set).
    #[inline]
    pub fn reputation_of_idx(&self, idx: u32) -> f64 {
        self.reputation[idx as usize]
    }

    /// View nodes passing the `T_R` filter, as dense indices ascending.
    pub fn high_reputed_idx(&self, thresholds: &Thresholds) -> Vec<u32> {
        self.view
            .iter()
            .copied()
            .filter(|&i| thresholds.is_high_reputed(self.reputation[i as usize]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;

    #[test]
    fn signed_history_reputation() {
        let mut h = InteractionHistory::new();
        h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(0)));
        h.record(Rating::positive(NodeId(3), NodeId(2), SimTime(1)));
        h.record(Rating::negative(NodeId(1), NodeId(3), SimTime(2)));
        let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        assert_eq!(input.reputation_of(NodeId(2)), 2.0);
        assert_eq!(input.reputation_of(NodeId(3)), -1.0);
        assert_eq!(input.reputation_of(NodeId(1)), 0.0);
        assert_eq!(input.signed_reputation(NodeId(2)), 2);
    }

    #[test]
    fn high_reputed_filter_uses_t_r() {
        let mut h = InteractionHistory::new();
        h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(0)));
        h.record(Rating::negative(NodeId(1), NodeId(3), SimTime(1)));
        let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let t = Thresholds::new(1.0, 20, 0.8, 0.2);
        assert_eq!(input.high_reputed(&t), vec![NodeId(2)]);
        let t0 = Thresholds::new(0.0, 20, 0.8, 0.2);
        assert_eq!(input.high_reputed(&t0), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn nodes_deduped_and_sorted() {
        let h = InteractionHistory::new();
        let input =
            DetectionInput::from_signed_history(&h, &[NodeId(3), NodeId(1), NodeId(3), NodeId(2)]);
        assert_eq!(input.nodes, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(input.n(), 3);
    }

    #[test]
    fn external_reputation_map_respected() {
        let h = InteractionHistory::new();
        let rep: HashMap<NodeId, f64> = [(NodeId(1), 0.9)].into_iter().collect();
        let input = DetectionInput::new(&h, &[NodeId(1), NodeId(2)], rep);
        assert_eq!(input.reputation_of(NodeId(1)), 0.9);
        assert_eq!(input.reputation_of(NodeId(2)), 0.0);
    }

    #[test]
    fn snapshot_input_mirrors_detection_input() {
        let mut h = InteractionHistory::new();
        h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(0)));
        h.record(Rating::positive(NodeId(3), NodeId(2), SimTime(1)));
        h.record(Rating::negative(NodeId(1), NodeId(3), SimTime(2)));
        let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let legacy = DetectionInput::from_signed_history(&h, &nodes);
        let input = SnapshotInput::from_signed(&snap, &nodes);
        assert_eq!(input.n(), legacy.n());
        for &id in &nodes {
            let idx = snap.index(id).unwrap();
            assert_eq!(input.reputation_of_idx(idx), legacy.reputation_of(id));
        }
        let t = Thresholds::new(1.0, 20, 0.8, 0.2);
        let high_ids: Vec<NodeId> =
            input.high_reputed_idx(&t).iter().map(|&i| snap.node_id(i)).collect();
        assert_eq!(high_ids, legacy.high_reputed(&t));
    }

    #[test]
    fn snapshot_input_external_map_covers_off_view_nodes() {
        let mut h = InteractionHistory::new();
        h.record(Rating::positive(NodeId(9), NodeId(1), SimTime(0)));
        let snap = ShardedSnapshot::build(&h, &[NodeId(1)], 1);
        let rep: HashMap<NodeId, f64> = [(NodeId(1), 0.5), (NodeId(9), 2.0)].into_iter().collect();
        let input = SnapshotInput::new(&snap, &[NodeId(1)], &rep);
        // node 9 is outside the view but its reputation is still visible,
        // matching DetectionInput::reputation_of for partner lookups
        let i9 = snap.index(NodeId(9)).unwrap();
        assert_eq!(input.reputation_of_idx(i9), 2.0);
        assert_eq!(input.view().len(), 1);
    }
}
