//! Threshold tuning sweeps (the paper's stated future work, §VI).
//!
//! "In our future work, we will study how to determine the threshold values
//! used in this paper effectively and efficiently according to the given
//! system parameters." — this module provides the empirical machinery: run a
//! detector over a grid of `(T_a, T_b, T_N)` and score each point against
//! ground truth. Grid points are independent, so the sweep fans out with
//! rayon.

use crate::input::DetectionInput;
use crate::optimized::OptimizedDetector;
use crate::policy::DetectionPolicy;
use crate::report::ConfusionMatrix;
use collusion_reputation::id::NodeId;
use collusion_reputation::thresholds::Thresholds;
use rayon::prelude::*;

/// One evaluated grid point.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Thresholds evaluated.
    pub t_a: f64,
    /// `T_b` evaluated.
    pub t_b: f64,
    /// `T_N` evaluated.
    pub t_n: u64,
    /// Pair-level confusion matrix at this point.
    pub true_positives: u64,
    /// False positives at this point.
    pub false_positives: u64,
    /// False negatives at this point.
    pub false_negatives: u64,
    /// Precision at this point.
    pub precision: f64,
    /// Recall at this point.
    pub recall: f64,
    /// F1 at this point.
    pub f1: f64,
}

impl SweepPoint {
    fn from_matrix(t_a: f64, t_b: f64, t_n: u64, cm: ConfusionMatrix) -> Self {
        SweepPoint {
            t_a,
            t_b,
            t_n,
            true_positives: cm.true_positives,
            false_positives: cm.false_positives,
            false_negatives: cm.false_negatives,
            precision: cm.precision(),
            recall: cm.recall(),
            f1: cm.f1(),
        }
    }
}

/// Evaluate the optimized detector over the full grid
/// `t_a_grid × t_b_grid × t_n_grid`, scoring against `truth_pairs`.
/// `base` supplies the fixed `T_R`.
pub fn sweep_thresholds(
    input: &DetectionInput<'_>,
    base: Thresholds,
    policy: DetectionPolicy,
    t_a_grid: &[f64],
    t_b_grid: &[f64],
    t_n_grid: &[u64],
    truth_pairs: &[(NodeId, NodeId)],
) -> Vec<SweepPoint> {
    let grid: Vec<(f64, f64, u64)> = t_a_grid
        .iter()
        .flat_map(|&a| t_b_grid.iter().flat_map(move |&b| t_n_grid.iter().map(move |&n| (a, b, n))))
        .collect();
    let n_nodes = input.n();
    grid.par_iter()
        .map(|&(t_a, t_b, t_n)| {
            let th = Thresholds::new(base.t_r, t_n, t_a, t_b);
            let report = OptimizedDetector::with_policy(th, policy).detect(input);
            SweepPoint::from_matrix(t_a, t_b, t_n, report.score(truth_pairs, n_nodes))
        })
        .collect()
}

/// The grid point with the highest F1 (ties: first in grid order).
pub fn best_f1(points: &[SweepPoint]) -> Option<SweepPoint> {
    points
        .iter()
        .copied()
        .max_by(|x, y| x.f1.partial_cmp(&y.f1).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::history::InteractionHistory;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;

    fn scenario() -> (InteractionHistory, Vec<NodeId>) {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for _ in 0..25 {
            h.record(Rating::positive(NodeId(1), NodeId(2), tick()));
            h.record(Rating::positive(NodeId(2), NodeId(1), tick()));
        }
        for k in 0..4 {
            h.record(Rating::negative(NodeId(10 + k), NodeId(1), tick()));
            h.record(Rating::negative(NodeId(10 + k), NodeId(2), tick()));
        }
        for k in 0..6u64 {
            h.record(Rating::positive(NodeId(10 + k % 4), NodeId(5), tick()));
        }
        let mut nodes: Vec<NodeId> = vec![NodeId(1), NodeId(2), NodeId(5)];
        nodes.extend((10..14).map(NodeId));
        (h, nodes)
    }

    #[test]
    fn sweep_covers_full_grid() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let points = sweep_thresholds(
            &input,
            Thresholds::new(1.0, 20, 0.8, 0.2),
            DetectionPolicy::STRICT,
            &[0.7, 0.8, 0.9],
            &[0.1, 0.2],
            &[10, 20, 30],
            &[(NodeId(1), NodeId(2))],
        );
        assert_eq!(points.len(), 3 * 2 * 3);
    }

    #[test]
    fn sane_thresholds_achieve_perfect_f1_here() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let points = sweep_thresholds(
            &input,
            Thresholds::new(1.0, 20, 0.8, 0.2),
            DetectionPolicy::STRICT,
            &[0.8],
            &[0.2],
            &[20],
            &[(NodeId(1), NodeId(2))],
        );
        assert_eq!(points[0].f1, 1.0);
        assert_eq!(points[0].true_positives, 1);
    }

    #[test]
    fn overly_strict_t_n_misses_the_pair() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let points = sweep_thresholds(
            &input,
            Thresholds::new(1.0, 20, 0.8, 0.2),
            DetectionPolicy::STRICT,
            &[0.8],
            &[0.2],
            &[100],
            &[(NodeId(1), NodeId(2))],
        );
        assert_eq!(points[0].recall, 0.0);
        assert_eq!(points[0].false_negatives, 1);
    }

    #[test]
    fn best_f1_selects_maximum() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let points = sweep_thresholds(
            &input,
            Thresholds::new(1.0, 20, 0.8, 0.2),
            DetectionPolicy::STRICT,
            &[0.8, 0.9],
            &[0.1, 0.2],
            &[20, 100],
            &[(NodeId(1), NodeId(2))],
        );
        let best = best_f1(&points).unwrap();
        assert_eq!(best.f1, 1.0);
        assert_eq!(best.t_n, 20);
    }

    #[test]
    fn empty_grid_yields_no_points() {
        let (h, nodes) = scenario();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let points = sweep_thresholds(
            &input,
            Thresholds::PAPER,
            DetectionPolicy::STRICT,
            &[],
            &[0.2],
            &[20],
            &[],
        );
        assert!(points.is_empty());
        assert!(best_f1(&points).is_none());
    }
}
