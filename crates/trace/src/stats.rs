//! Trace statistics — Figures 1(a) and 1(c).
//!
//! [`TraceStats`] aggregates a trace once and answers the analysis queries
//! of §III: per-seller positive/negative totals and final reputation
//! (Figure 1a), per-pair rating counts (the suspicious filter's input), and
//! per-rater frequency statistics — average ratings per day, busiest-day
//! count — for the raters of a given seller (Figure 1c).

use crate::model::Trace;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::RatingValue;
use std::collections::HashMap;

/// Aggregate counters for one seller.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SellerStats {
    /// Seller id.
    pub seller: NodeId,
    /// All ratings received.
    pub total: u64,
    /// Positive ratings (4–5 stars).
    pub positive: u64,
    /// Negative ratings (1–2 stars).
    pub negative: u64,
    /// Neutral ratings (3 stars).
    pub neutral: u64,
}

impl SellerStats {
    /// Amazon's published reputation: positives / all ratings.
    pub fn reputation(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.positive as f64 / self.total as f64
        }
    }
}

/// Per-rater frequency statistics for the raters of one seller (Figure 1c).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaterFrequency {
    /// The rater.
    pub rater: NodeId,
    /// Total ratings this rater gave the seller.
    pub total: u64,
    /// Average ratings per day over the whole window.
    pub avg_per_day: f64,
    /// Ratings on the rater's busiest day.
    pub max_per_day: u64,
}

/// One-pass aggregation over a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    sellers: HashMap<NodeId, SellerStats>,
    pair_counts: HashMap<(NodeId, NodeId), u64>,
    days: u64,
}

impl TraceStats {
    /// Aggregate `trace`.
    pub fn compute(trace: &Trace) -> Self {
        let mut sellers: HashMap<NodeId, SellerStats> = HashMap::new();
        let mut pair_counts: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        for r in &trace.records {
            let s = sellers
                .entry(r.ratee)
                .or_insert_with(|| SellerStats { seller: r.ratee, ..Default::default() });
            s.total += 1;
            match r.value() {
                RatingValue::Positive => s.positive += 1,
                RatingValue::Negative => s.negative += 1,
                RatingValue::Neutral => s.neutral += 1,
            }
            *pair_counts.entry((r.rater, r.ratee)).or_default() += 1;
        }
        TraceStats { sellers, pair_counts, days: trace.days.max(1) }
    }

    /// Stats for one seller, if rated at all.
    pub fn seller(&self, id: NodeId) -> Option<&SellerStats> {
        self.sellers.get(&id)
    }

    /// All sellers ordered by reputation descending (Figure 1a's x-axis),
    /// ties broken by id.
    pub fn by_reputation_desc(&self) -> Vec<SellerStats> {
        let mut v: Vec<SellerStats> = self.sellers.values().copied().collect();
        v.sort_by(|a, b| {
            b.reputation()
                .partial_cmp(&a.reputation())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.seller.cmp(&b.seller))
        });
        v
    }

    /// Ratings from `rater` to `seller`.
    pub fn pair_count(&self, rater: NodeId, seller: NodeId) -> u64 {
        self.pair_counts.get(&(rater, seller)).copied().unwrap_or(0)
    }

    /// Iterate all (rater, seller, count) triples.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.pair_counts.iter().map(|(&(r, s), &c)| (r, s, c))
    }

    /// The crawl window length in days.
    pub fn days(&self) -> u64 {
        self.days
    }

    /// Figure 1(c): per-rater frequency statistics for one seller, ordered
    /// by total descending.
    pub fn rater_frequencies(&self, trace: &Trace, seller: NodeId) -> Vec<RaterFrequency> {
        let mut per_rater_day: HashMap<(NodeId, u64), u64> = HashMap::new();
        let mut totals: HashMap<NodeId, u64> = HashMap::new();
        for r in trace.received_by(seller) {
            *per_rater_day.entry((r.rater, r.day)).or_default() += 1;
            *totals.entry(r.rater).or_default() += 1;
        }
        let mut max_day: HashMap<NodeId, u64> = HashMap::new();
        for (&(rater, _), &c) in &per_rater_day {
            let e = max_day.entry(rater).or_default();
            *e = (*e).max(c);
        }
        let mut out: Vec<RaterFrequency> = totals
            .into_iter()
            .map(|(rater, total)| RaterFrequency {
                rater,
                total,
                avg_per_day: total as f64 / self.days as f64,
                max_per_day: max_day[&rater],
            })
            .collect();
        out.sort_by(|a, b| b.total.cmp(&a.total).then(a.rater.cmp(&b.rater)));
        out
    }

    /// Summary of rater behaviour for one seller: (mean total per rater,
    /// max total, variance of totals). Suspicious sellers show much larger
    /// max and variance than unsuspicious ones (Figure 1c's observation).
    pub fn rater_summary(&self, trace: &Trace, seller: NodeId) -> (f64, u64, f64) {
        let freqs = self.rater_frequencies(trace, seller);
        if freqs.is_empty() {
            return (0.0, 0, 0.0);
        }
        let n = freqs.len() as f64;
        let mean = freqs.iter().map(|f| f.total as f64).sum::<f64>() / n;
        let max = freqs.iter().map(|f| f.total).max().unwrap();
        let var = freqs.iter().map(|f| (f.total as f64 - mean).powi(2)).sum::<f64>() / n;
        (mean, max, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceRecord;

    fn trace() -> Trace {
        let mut t = Trace::new(10);
        let rec = |rater: u64, seller: u64, stars: u8, day: u64| TraceRecord {
            rater: NodeId(rater),
            ratee: NodeId(seller),
            stars,
            day,
        };
        // seller 100: rater 1 gives 5★ on days 0,0,1; rater 2 gives 1★ day 2
        t.records.push(rec(1, 100, 5, 0));
        t.records.push(rec(1, 100, 5, 0));
        t.records.push(rec(1, 100, 4, 1));
        t.records.push(rec(2, 100, 1, 2));
        // seller 200: one neutral
        t.records.push(rec(3, 200, 3, 5));
        t
    }

    #[test]
    fn seller_stats_aggregate() {
        let stats = TraceStats::compute(&trace());
        let s = stats.seller(NodeId(100)).unwrap();
        assert_eq!(s.total, 4);
        assert_eq!(s.positive, 3);
        assert_eq!(s.negative, 1);
        assert_eq!(s.reputation(), 0.75);
        let s2 = stats.seller(NodeId(200)).unwrap();
        assert_eq!(s2.neutral, 1);
        assert_eq!(s2.reputation(), 0.0);
        assert!(stats.seller(NodeId(999)).is_none());
    }

    #[test]
    fn reputation_ordering() {
        let stats = TraceStats::compute(&trace());
        let ordered = stats.by_reputation_desc();
        assert_eq!(ordered[0].seller, NodeId(100));
        assert_eq!(ordered[1].seller, NodeId(200));
    }

    #[test]
    fn pair_counts() {
        let stats = TraceStats::compute(&trace());
        assert_eq!(stats.pair_count(NodeId(1), NodeId(100)), 3);
        assert_eq!(stats.pair_count(NodeId(2), NodeId(100)), 1);
        assert_eq!(stats.pair_count(NodeId(9), NodeId(100)), 0);
        assert_eq!(stats.pairs().count(), 3);
    }

    #[test]
    fn rater_frequencies_for_seller() {
        let t = trace();
        let stats = TraceStats::compute(&t);
        let freqs = stats.rater_frequencies(&t, NodeId(100));
        assert_eq!(freqs.len(), 2);
        assert_eq!(freqs[0].rater, NodeId(1));
        assert_eq!(freqs[0].total, 3);
        assert_eq!(freqs[0].max_per_day, 2); // two ratings on day 0
        assert!((freqs[0].avg_per_day - 0.3).abs() < 1e-12);
        assert_eq!(freqs[1].max_per_day, 1);
    }

    #[test]
    fn rater_summary_statistics() {
        let t = trace();
        let stats = TraceStats::compute(&t);
        let (mean, max, var) = stats.rater_summary(&t, NodeId(100));
        assert_eq!(mean, 2.0);
        assert_eq!(max, 3);
        assert_eq!(var, 1.0);
        let empty = stats.rater_summary(&t, NodeId(999));
        assert_eq!(empty, (0.0, 0, 0.0));
    }

    #[test]
    fn suspicious_sellers_show_higher_variance_on_synthetic_trace() {
        use crate::amazon::{generate, AmazonConfig};
        let at = generate(&AmazonConfig::paper(0.01, 3));
        let stats = TraceStats::compute(&at.trace);
        let colluder = at.colluding_sellers()[0];
        let honest = NodeId(18); // first honest high-reputed seller
        let (_, max_c, var_c) = stats.rater_summary(&at.trace, colluder);
        let (_, max_h, var_h) = stats.rater_summary(&at.trace, honest);
        assert!(max_c > max_h, "colluder max {max_c} !> honest max {max_h}");
        assert!(var_c > var_h, "colluder var {var_c} !> honest var {var_h}");
    }
}
