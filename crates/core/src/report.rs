//! Detection reports and scoring against ground truth.

use crate::cost::CostSnapshot;
use crate::model::SuspectPair;
use collusion_reputation::id::NodeId;
use std::collections::BTreeSet;

/// The outcome of one detection pass.
#[derive(Clone, Debug, Default)]
pub struct DetectionReport {
    /// Suspected pairs, deduplicated, ordered by `(low, high)`.
    pub pairs: Vec<SuspectPair>,
    /// Operation cost of the pass.
    pub cost: CostSnapshot,
}

/// Normalize a kernel's suspect-pair output in place: order by the
/// unordered `(low, high)` id pair and drop duplicates. Duplicates arise
/// when both endpoints of a pair discover it independently (each from its
/// own row); [`crate::model::SuspectPair::new`] already canonicalizes the
/// endpoint/evidence orientation, so duplicates are byte-identical and
/// keeping the first is deterministic. Parallel kernels call this before
/// returning so their output ordering never depends on thread scheduling.
pub fn normalize_pairs(pairs: &mut Vec<SuspectPair>) {
    pairs.sort_by_key(|p| p.ids());
    pairs.dedup_by_key(|p| p.ids());
}

impl DetectionReport {
    /// Build a report, deduplicating and ordering pairs via
    /// [`normalize_pairs`].
    pub fn new(mut pairs: Vec<SuspectPair>, cost: CostSnapshot) -> Self {
        normalize_pairs(&mut pairs);
        DetectionReport { pairs, cost }
    }

    /// Every node implicated in at least one pair, ascending.
    pub fn colluders(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self.pairs.iter().flat_map(|p| [p.low, p.high]).collect();
        set.into_iter().collect()
    }

    /// Whether `node` was implicated.
    pub fn is_colluder(&self, node: NodeId) -> bool {
        self.pairs.iter().any(|p| p.involves(node))
    }

    /// The unordered id pairs, for set comparison between detectors.
    pub fn pair_ids(&self) -> Vec<(NodeId, NodeId)> {
        self.pairs.iter().map(|p| p.ids()).collect()
    }

    /// Score against ground-truth colluding pairs.
    pub fn score(&self, truth_pairs: &[(NodeId, NodeId)], all_nodes: usize) -> ConfusionMatrix {
        let norm = |&(a, b): &(NodeId, NodeId)| if a < b { (a, b) } else { (b, a) };
        let truth: BTreeSet<(NodeId, NodeId)> = truth_pairs.iter().map(norm).collect();
        let found: BTreeSet<(NodeId, NodeId)> = self.pair_ids().into_iter().collect();
        let tp = found.intersection(&truth).count() as u64;
        let fp = found.difference(&truth).count() as u64;
        let fnn = truth.difference(&found).count() as u64;
        // candidate pair universe: n·(n−1)/2
        let universe = (all_nodes as u64 * all_nodes.saturating_sub(1) as u64) / 2;
        let tn = universe.saturating_sub(tp + fp + fnn);
        ConfusionMatrix {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fnn,
            true_negatives: tn,
        }
    }
}

/// Pair-level confusion matrix for a detection pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Colluding pairs correctly flagged.
    pub true_positives: u64,
    /// Innocent pairs wrongly flagged.
    pub false_positives: u64,
    /// Colluding pairs missed.
    pub false_negatives: u64,
    /// Innocent pairs correctly left alone.
    pub true_negatives: u64,
}

impl ConfusionMatrix {
    /// Precision `tp / (tp + fp)`; 1.0 when nothing was flagged (vacuously
    /// precise).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 1.0 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DirectionEvidence;

    fn pair(a: u64, b: u64) -> SuspectPair {
        let ev = DirectionEvidence {
            pair_ratings: 30,
            fraction_a: None,
            fraction_b: None,
            signed_reputation: 0,
        };
        SuspectPair::new(NodeId(a), NodeId(b), Some(ev), Some(ev))
    }

    #[test]
    fn report_dedups_and_orders() {
        let r =
            DetectionReport::new(vec![pair(5, 2), pair(2, 5), pair(1, 3)], CostSnapshot::default());
        assert_eq!(r.pair_ids(), vec![(NodeId(1), NodeId(3)), (NodeId(2), NodeId(5))]);
        assert_eq!(r.colluders(), vec![NodeId(1), NodeId(2), NodeId(3), NodeId(5)]);
        assert!(r.is_colluder(NodeId(5)));
        assert!(!r.is_colluder(NodeId(4)));
    }

    #[test]
    fn perfect_detection_scores_one() {
        let r = DetectionReport::new(vec![pair(1, 2), pair(3, 4)], CostSnapshot::default());
        let cm = r.score(&[(NodeId(2), NodeId(1)), (NodeId(3), NodeId(4))], 10);
        assert_eq!(cm.true_positives, 2);
        assert_eq!(cm.false_positives, 0);
        assert_eq!(cm.false_negatives, 0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.true_negatives, 45 - 2);
    }

    #[test]
    fn misses_and_false_alarms_counted() {
        let r = DetectionReport::new(vec![pair(1, 2), pair(7, 8)], CostSnapshot::default());
        let cm = r.score(&[(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))], 10);
        assert_eq!(cm.true_positives, 1);
        assert_eq!(cm.false_positives, 1);
        assert_eq!(cm.false_negatives, 1);
        assert!((cm.precision() - 0.5).abs() < 1e-12);
        assert!((cm.recall() - 0.5).abs() < 1e-12);
        assert!((cm.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_vacuously_precise() {
        let r = DetectionReport::default();
        let cm = r.score(&[], 5);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        let cm2 = r.score(&[(NodeId(1), NodeId(2))], 5);
        assert_eq!(cm2.recall(), 0.0);
        assert_eq!(cm2.f1(), 0.0);
    }
}
