//! Simulation metrics.

use collusion_core::cost::CostSnapshot;
use collusion_reputation::id::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Metrics of a single simulation run.
#[derive(Clone, Debug)]
pub struct SimMetrics {
    /// Final global reputation per node, indexed by raw id (index 0 unused).
    pub reputation: Vec<f64>,
    /// File requests served in total.
    pub requests_total: u64,
    /// File requests served by colluders (Figure 12's numerator).
    pub requests_to_colluders: u64,
    /// Authentic files served.
    pub authentic: u64,
    /// Inauthentic files served.
    pub inauthentic: u64,
    /// Reputation-calculation operations over all cycles (EigenTrust cost).
    pub reputation_ops: u64,
    /// Accumulated detection cost over all cycles.
    pub detection_cost: CostSnapshot,
    /// Nodes the detector implicated at any point.
    pub detected: BTreeSet<NodeId>,
}

impl SimMetrics {
    /// Fraction of requests served by colluders (0 when no requests).
    pub fn fraction_to_colluders(&self) -> f64 {
        if self.requests_total == 0 {
            0.0
        } else {
            self.requests_to_colluders as f64 / self.requests_total as f64
        }
    }

    /// Final reputation of one node (0 when out of range).
    pub fn reputation_of(&self, node: NodeId) -> f64 {
        self.reputation.get(node.raw() as usize).copied().unwrap_or(0.0)
    }

    /// Nodes ranked by final reputation, highest first, ties by id.
    pub fn ranking(&self) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self
            .reputation
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &r)| (NodeId(i as u64), r))
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        v
    }
}

/// Metrics averaged over several runs (the paper averages 5).
#[derive(Clone, Debug)]
pub struct AveragedMetrics {
    /// Number of runs averaged.
    pub runs: usize,
    /// Mean final reputation per node (index 0 unused).
    pub reputation: Vec<f64>,
    /// Mean fraction of requests served by colluders.
    pub fraction_to_colluders: f64,
    /// Mean total requests.
    pub avg_requests_total: f64,
    /// Mean reputation-calculation operations.
    pub avg_reputation_ops: f64,
    /// Mean total detection cost (`CostSnapshot::total(1)`).
    pub avg_detection_cost: f64,
    /// In how many runs each node was detected.
    pub detection_counts: BTreeMap<NodeId, usize>,
}

impl AveragedMetrics {
    /// Average a non-empty set of runs.
    pub fn from_runs(runs: &[SimMetrics]) -> Self {
        assert!(!runs.is_empty(), "need at least one run to average");
        let n = runs.len() as f64;
        let len = runs.iter().map(|r| r.reputation.len()).max().unwrap();
        let mut reputation = vec![0.0; len];
        let mut detection_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for r in runs {
            for (i, &v) in r.reputation.iter().enumerate() {
                reputation[i] += v / n;
            }
            for &d in &r.detected {
                *detection_counts.entry(d).or_default() += 1;
            }
        }
        AveragedMetrics {
            runs: runs.len(),
            reputation,
            fraction_to_colluders: runs.iter().map(|r| r.fraction_to_colluders()).sum::<f64>() / n,
            avg_requests_total: runs.iter().map(|r| r.requests_total as f64).sum::<f64>() / n,
            avg_reputation_ops: runs.iter().map(|r| r.reputation_ops as f64).sum::<f64>() / n,
            avg_detection_cost: runs.iter().map(|r| r.detection_cost.total(1) as f64).sum::<f64>()
                / n,
            detection_counts,
        }
    }

    /// Mean reputation of one node.
    pub fn reputation_of(&self, node: NodeId) -> f64 {
        self.reputation.get(node.raw() as usize).copied().unwrap_or(0.0)
    }

    /// Nodes detected in every run.
    pub fn detected_in_all_runs(&self) -> Vec<NodeId> {
        self.detection_counts.iter().filter(|&(_, &c)| c == self.runs).map(|(&n, _)| n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(rep: Vec<f64>, to_colluders: u64, total: u64, detected: &[u64]) -> SimMetrics {
        SimMetrics {
            reputation: rep,
            requests_total: total,
            requests_to_colluders: to_colluders,
            authentic: 0,
            inauthentic: 0,
            reputation_ops: 100,
            detection_cost: CostSnapshot::default(),
            detected: detected.iter().map(|&d| NodeId(d)).collect(),
        }
    }

    #[test]
    fn fraction_handles_zero_requests() {
        let m = metrics(vec![0.0], 0, 0, &[]);
        assert_eq!(m.fraction_to_colluders(), 0.0);
        let m = metrics(vec![0.0], 25, 100, &[]);
        assert_eq!(m.fraction_to_colluders(), 0.25);
    }

    #[test]
    fn ranking_skips_index_zero() {
        let m = metrics(vec![9.9, 0.1, 0.5, 0.3], 0, 1, &[]);
        let r = m.ranking();
        assert_eq!(r[0].0, NodeId(2));
        assert_eq!(r.len(), 3);
        assert_eq!(m.reputation_of(NodeId(2)), 0.5);
        assert_eq!(m.reputation_of(NodeId(99)), 0.0);
    }

    #[test]
    fn averaging_means_fields() {
        let a = metrics(vec![0.0, 0.2, 0.4], 10, 100, &[1]);
        let b = metrics(vec![0.0, 0.4, 0.0], 30, 100, &[1, 2]);
        let avg = AveragedMetrics::from_runs(&[a, b]);
        assert_eq!(avg.runs, 2);
        assert!((avg.reputation[1] - 0.3).abs() < 1e-12);
        assert!((avg.reputation[2] - 0.2).abs() < 1e-12);
        assert!((avg.fraction_to_colluders - 0.2).abs() < 1e-12);
        assert_eq!(avg.detection_counts[&NodeId(1)], 2);
        assert_eq!(avg.detection_counts[&NodeId(2)], 1);
        assert_eq!(avg.detected_in_all_runs(), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_average_rejected() {
        let _ = AveragedMetrics::from_runs(&[]);
    }
}
