//! Mitigation: neutralizing detected colluders.
//!
//! §V.B: "After the methods detect the colluders, they set their reputations
//! to 0." With zero reputation a colluder is never selected as a server
//! (clients pick the highest-reputed neighbor), so the pair's business model
//! collapses — the deterrence argument of §III.

use crate::report::DetectionReport;
use collusion_reputation::id::NodeId;
use std::collections::HashMap;

/// Zero out the reputation of every node implicated in `report`.
/// Returns the ids that were actually present and zeroed.
pub fn apply_mitigation(
    report: &DetectionReport,
    reputations: &mut HashMap<NodeId, f64>,
) -> Vec<NodeId> {
    let mut zeroed = Vec::new();
    for node in report.colluders() {
        if let Some(r) = reputations.get_mut(&node) {
            if *r != 0.0 {
                *r = 0.0;
            }
            zeroed.push(node);
        }
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostSnapshot;
    use crate::model::{DirectionEvidence, SuspectPair};

    fn report(pairs: &[(u64, u64)]) -> DetectionReport {
        let ev = DirectionEvidence {
            pair_ratings: 30,
            fraction_a: None,
            fraction_b: None,
            signed_reputation: 10,
        };
        DetectionReport::new(
            pairs
                .iter()
                .map(|&(a, b)| SuspectPair::new(NodeId(a), NodeId(b), Some(ev), Some(ev)))
                .collect(),
            CostSnapshot::default(),
        )
    }

    #[test]
    fn map_mitigation_zeroes_colluders_only() {
        let mut reps: HashMap<NodeId, f64> = (1..=5).map(|i| (NodeId(i), 0.1 * i as f64)).collect();
        let zeroed = apply_mitigation(&report(&[(1, 2)]), &mut reps);
        assert_eq!(zeroed, vec![NodeId(1), NodeId(2)]);
        assert_eq!(reps[&NodeId(1)], 0.0);
        assert_eq!(reps[&NodeId(2)], 0.0);
        assert!(reps[&NodeId(3)] > 0.0);
    }

    #[test]
    fn unknown_nodes_skipped() {
        let mut reps: HashMap<NodeId, f64> = [(NodeId(1), 0.5)].into_iter().collect();
        let zeroed = apply_mitigation(&report(&[(1, 9)]), &mut reps);
        assert_eq!(zeroed, vec![NodeId(1)]);
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn empty_report_is_noop() {
        let mut reps: HashMap<NodeId, f64> = (1..=4).map(|i| (NodeId(i), 0.5)).collect();
        let before = reps.clone();
        let zeroed = apply_mitigation(&DetectionReport::default(), &mut reps);
        assert!(zeroed.is_empty());
        assert_eq!(reps, before);
    }
}
