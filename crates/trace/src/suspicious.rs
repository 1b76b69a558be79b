//! The suspicious-pair filter (§III).
//!
//! "The collected data shows that the average number of transactions of a
//! seller-buyer pair is 1 per year. … we set the suspicious behavior
//! filtering threshold as 20 ratings, which gives us 18 suspicious sellers
//! and 139 suspicious raters."
//!
//! A pair is *suspicious* when one rater submits at least `threshold`
//! ratings for the same seller in the window. Suspicious pairs split into
//! **boosters** (mostly-positive — Figure 1(b) raters 2–3) and **rivals**
//! (mostly-negative — rater 1). The paper's calibration numbers — average
//! `a = 98.37 %` and `b = 1.63 %` — are the mean positive fractions of the
//! booster pairs and the rival pairs respectively, which is how we compute
//! [`SuspiciousReport::avg_a`] / [`SuspiciousReport::avg_b`].

use crate::model::Trace;
use crate::stats::TraceStats;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::RatingValue;
use std::collections::{BTreeSet, HashMap};

/// One high-frequency rater→seller pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspiciousPair {
    /// The frequent rater.
    pub rater: NodeId,
    /// The rated seller.
    pub seller: NodeId,
    /// Ratings in the window.
    pub count: u64,
    /// Positive fraction of those ratings.
    pub positive_fraction: f64,
}

impl SuspiciousPair {
    /// Booster = mostly positive; rival = mostly negative.
    pub fn is_booster(&self) -> bool {
        self.positive_fraction >= 0.5
    }
}

/// Outcome of the suspicious filter over a trace.
#[derive(Clone, Debug)]
pub struct SuspiciousReport {
    /// The frequency threshold used (paper: 20/year).
    pub threshold: u64,
    /// All suspicious pairs, ordered by (seller, rater).
    pub pairs: Vec<SuspiciousPair>,
    /// Distinct suspicious sellers, ascending.
    pub sellers: Vec<NodeId>,
    /// Distinct suspicious raters, ascending.
    pub raters: Vec<NodeId>,
    /// Mean positive fraction over booster pairs (paper: 0.9837).
    pub avg_a: f64,
    /// Mean positive fraction over rival pairs (paper: 0.0163).
    pub avg_b: f64,
}

/// Run the filter at `threshold` ratings per window.
pub fn find_suspicious(trace: &Trace, stats: &TraceStats, threshold: u64) -> SuspiciousReport {
    // positive counts per pair above threshold
    let mut positives: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for r in &trace.records {
        if stats.pair_count(r.rater, r.ratee) >= threshold && r.value() == RatingValue::Positive {
            *positives.entry((r.rater, r.ratee)).or_default() += 1;
        }
    }
    let mut pairs: Vec<SuspiciousPair> = stats
        .pairs()
        .filter(|&(_, _, c)| c >= threshold)
        .map(|(rater, seller, count)| {
            let pos = positives.get(&(rater, seller)).copied().unwrap_or(0);
            SuspiciousPair { rater, seller, count, positive_fraction: pos as f64 / count as f64 }
        })
        .collect();
    pairs.sort_by_key(|p| (p.seller, p.rater));
    let sellers: BTreeSet<NodeId> = pairs.iter().map(|p| p.seller).collect();
    let raters: BTreeSet<NodeId> = pairs.iter().map(|p| p.rater).collect();
    let boosters: Vec<f64> =
        pairs.iter().filter(|p| p.is_booster()).map(|p| p.positive_fraction).collect();
    let rivals: Vec<f64> =
        pairs.iter().filter(|p| !p.is_booster()).map(|p| p.positive_fraction).collect();
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    SuspiciousReport {
        threshold,
        avg_a: mean(&boosters),
        avg_b: mean(&rivals),
        pairs,
        sellers: sellers.into_iter().collect(),
        raters: raters.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amazon::{generate, AmazonConfig};
    use crate::model::TraceRecord;

    #[test]
    fn filter_finds_injected_boosters_and_rivals() {
        let at = generate(&AmazonConfig::paper(0.01, 11));
        let stats = TraceStats::compute(&at.trace);
        let report = find_suspicious(&at.trace, &stats, 20);
        // every ground-truth colluding seller must be suspicious
        let found: BTreeSet<NodeId> = report.sellers.iter().copied().collect();
        for seller in at.colluding_sellers() {
            assert!(found.contains(&seller), "missed colluding seller {seller}");
        }
        // rater counts near ground truth (boosters with draw ≥ threshold)
        assert!(report.raters.len() >= 100, "only {} suspicious raters found", report.raters.len());
    }

    #[test]
    fn calibration_fractions_match_paper_shape() {
        let at = generate(&AmazonConfig::paper(0.02, 5));
        let stats = TraceStats::compute(&at.trace);
        let report = find_suspicious(&at.trace, &stats, 20);
        assert!(report.avg_a > 0.95, "avg a = {} (paper: 0.9837)", report.avg_a);
        assert!(report.avg_b < 0.05, "avg b = {} (paper: 0.0163)", report.avg_b);
    }

    #[test]
    fn no_normal_buyer_is_suspicious() {
        let at = generate(&AmazonConfig::paper(0.01, 11));
        let stats = TraceStats::compute(&at.trace);
        let report = find_suspicious(&at.trace, &stats, 20);
        let truth: BTreeSet<NodeId> =
            at.boosters.iter().map(|&(b, _)| b).chain(at.rivals.iter().map(|&(r, _)| r)).collect();
        for rater in &report.raters {
            assert!(truth.contains(rater), "normal buyer {rater} flagged as suspicious");
        }
    }

    #[test]
    fn threshold_monotonicity() {
        let at = generate(&AmazonConfig::paper(0.01, 9));
        let stats = TraceStats::compute(&at.trace);
        let lo = find_suspicious(&at.trace, &stats, 15);
        let hi = find_suspicious(&at.trace, &stats, 40);
        assert!(lo.pairs.len() >= hi.pairs.len());
        assert!(lo.sellers.len() >= hi.sellers.len());
    }

    #[test]
    fn booster_rival_split() {
        let mut t = Trace::new(30);
        for d in 0..25u64 {
            t.records.push(TraceRecord { rater: NodeId(1), ratee: NodeId(9), stars: 5, day: d });
            t.records.push(TraceRecord { rater: NodeId(2), ratee: NodeId(9), stars: 1, day: d });
        }
        let stats = TraceStats::compute(&t);
        let report = find_suspicious(&t, &stats, 20);
        assert_eq!(report.pairs.len(), 2);
        assert!(report.pairs.iter().find(|p| p.rater == NodeId(1)).unwrap().is_booster());
        assert!(!report.pairs.iter().find(|p| p.rater == NodeId(2)).unwrap().is_booster());
        assert_eq!(report.avg_a, 1.0);
        assert_eq!(report.avg_b, 0.0);
        assert_eq!(report.sellers, vec![NodeId(9)]);
        assert_eq!(report.raters, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let t = Trace::new(10);
        let stats = TraceStats::compute(&t);
        let report = find_suspicious(&t, &stats, 20);
        assert!(report.pairs.is_empty());
        assert_eq!(report.avg_a, 0.0);
        assert_eq!(report.avg_b, 0.0);
    }
}
