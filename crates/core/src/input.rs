//! Detector input: the reputation manager's view of the system.
//!
//! §IV.B: "The reputation manager builds an n×n matrix … the matrix records
//! the reputation ratings for nodes whose R ≥ T_R. If node n_i's reputation
//! value R_i ≥ T_R, matrix element a_ij = ⟨ID_i, R_i, N(j,i), N⁺(j,i)⟩."
//!
//! Two forms of that matrix:
//!
//! * [`DetectionInput`] — the interaction history (which already stores
//!   `N(j,i)` and `N⁺(j,i)` per pair) with the signed rating sum as the
//!   `T_R` reputation (eBay / EigenTrust local method, §IV.A; Formula (2)
//!   is derived from it). Only [`crate::basic::BasicDetector::detect`], the
//!   paper's literal scan and the oracle the snapshot kernels are tested
//!   against, reads it.
//! * [`SnapshotInput`] — a frozen [`ShardedSnapshot`] with a reputation per
//!   dense index, either the signed sum or an externally supplied global
//!   reputation (e.g. the normalized EigenTrust vector, as in the paper's
//!   `EigenTrust+Optimized` pipeline). Every other detection path reads it.

use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::NodeId;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;

/// The manager's view handed to the Basic oracle.
#[derive(Clone, Debug)]
pub struct DetectionInput<'a> {
    /// Pairwise rating counters for the current period `T`.
    pub history: &'a InteractionHistory,
    /// All nodes under the manager's responsibility, ascending.
    pub nodes: Vec<NodeId>,
}

impl<'a> DetectionInput<'a> {
    /// Build an input whose reputations are the signed rating sums from the
    /// history itself (the paper's standalone-detector configuration,
    /// Figure 8).
    pub fn from_signed_history(history: &'a InteractionHistory, nodes: &[NodeId]) -> Self {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        DetectionInput { history, nodes }
    }

    /// The signed rating sum `R_i = N⁺_i − N⁻_i`: the `T_R` reputation and
    /// the `R_i` of Formula (2).
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
            .filter(|&n| thresholds.is_high_reputed(self.signed_reputation(n) as f64))
            .collect()
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
    /// Build a view over `nodes`, asking `reputation_of` for each *view*
    /// node's reputation (nodes outside the view default to 0.0).
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
        assert_eq!(input.signed_reputation(NodeId(2)), 2);
        assert_eq!(input.signed_reputation(NodeId(3)), -1);
        assert_eq!(input.signed_reputation(NodeId(1)), 0);
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
        assert_eq!(input.n(), legacy.nodes.len());
        for &id in &nodes {
            let idx = snap.index(id).unwrap();
            assert_eq!(input.reputation_of_idx(idx), legacy.signed_reputation(id) as f64);
        }
        let t = Thresholds::new(1.0, 20, 0.8, 0.2);
        let high_ids: Vec<NodeId> =
            input.high_reputed_idx(&t).iter().map(|&i| snap.node_id(i)).collect();
        assert_eq!(high_ids, legacy.high_reputed(&t));
    }
}
