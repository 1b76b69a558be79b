//! Rater behaviour patterns over time — Figure 1(b).
//!
//! The paper inspects one suspicious seller (reputation 0.95) and finds
//! three rater archetypes among its frequent raters:
//!
//! * raters 2–3 "continuously rated the seller with the highest score 5" —
//!   **boosters** (likely collusion partners);
//! * rater 1 "continuously rated with the lowest score" — a **rival**
//!   colluder depressing the reputation;
//! * raters 4–5 "sometimes gave high and sometimes gave low ratings" —
//!   **mixed**, i.e. ordinary customers.
//!
//! [`rating_timeline`] extracts the per-rater time series that Figure 1(b)
//! plots, and [`classify_rater`] assigns the archetype.

use crate::model::Trace;
use collusion_reputation::id::NodeId;

/// Behaviour archetype of a (rater, seller) relationship.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaterPattern {
    /// Frequent and uniformly high (4–5 stars): suspected collusion partner.
    Booster,
    /// Frequent and uniformly low (1–2 stars): suspected rival colluder.
    Rival,
    /// Frequent but mixed: a genuine repeat customer.
    Mixed,
    /// Too few ratings to classify (below `min_ratings`).
    Occasional,
}

/// The (day, stars) series of one rater about one seller, day-ordered
/// (ties keep record order).
pub fn rating_timeline(trace: &Trace, rater: NodeId, seller: NodeId) -> Vec<(u64, u8)> {
    let mut v: Vec<(u64, u8)> = trace
        .records
        .iter()
        .filter(|r| r.rater == rater && r.ratee == seller)
        .map(|r| (r.day, r.stars))
        .collect();
    v.sort_by_key(|&(d, _)| d);
    v
}

/// Classify the rater's behaviour toward `seller`.
///
/// `min_ratings` is the frequency floor below which the relationship is
/// [`RaterPattern::Occasional`] (the paper looks at raters with >15
/// ratings). `tolerance` is the fraction of off-pattern ratings a
/// booster/rival may have (Amazon boosters occasionally misclick; default
/// callers use 0.1).
pub fn classify_rater(
    trace: &Trace,
    rater: NodeId,
    seller: NodeId,
    min_ratings: u64,
    tolerance: f64,
) -> RaterPattern {
    let timeline = rating_timeline(trace, rater, seller);
    let n = timeline.len() as u64;
    if n < min_ratings {
        return RaterPattern::Occasional;
    }
    let high = timeline.iter().filter(|&&(_, s)| s >= 4).count() as f64;
    let low = timeline.iter().filter(|&&(_, s)| s <= 2).count() as f64;
    let total = n as f64;
    if high / total >= 1.0 - tolerance {
        RaterPattern::Booster
    } else if low / total >= 1.0 - tolerance {
        RaterPattern::Rival
    } else {
        RaterPattern::Mixed
    }
}

/// Classify every frequent rater of `seller`, ordered by rating count
/// descending. Returns `(rater, count, pattern)` rows — the data behind
/// Figure 1(b)'s rater selection.
pub fn classify_all_raters(
    trace: &Trace,
    seller: NodeId,
    min_ratings: u64,
    tolerance: f64,
) -> Vec<(NodeId, u64, RaterPattern)> {
    use std::collections::HashMap;
    let mut counts: HashMap<NodeId, u64> = HashMap::new();
    for r in trace.received_by(seller) {
        *counts.entry(r.rater).or_default() += 1;
    }
    let mut rows: Vec<(NodeId, u64, RaterPattern)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_ratings)
        .map(|(rater, c)| (rater, c, classify_rater(trace, rater, seller, min_ratings, tolerance)))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amazon::{generate, AmazonConfig};
    use crate::model::TraceRecord;

    fn rec(rater: u64, seller: u64, stars: u8, day: u64) -> TraceRecord {
        TraceRecord { rater: NodeId(rater), ratee: NodeId(seller), stars, day }
    }

    #[test]
    fn timeline_is_day_ordered() {
        let mut t = Trace::new(10);
        t.records.push(rec(1, 9, 5, 7));
        t.records.push(rec(1, 9, 4, 2));
        t.records.push(rec(2, 9, 1, 0)); // different rater
        t.records.push(rec(1, 8, 3, 1)); // different seller
        let tl = rating_timeline(&t, NodeId(1), NodeId(9));
        assert_eq!(tl, vec![(2, 4), (7, 5)]);
    }

    #[test]
    fn archetypes_classified() {
        let mut t = Trace::new(40);
        for d in 0..30u64 {
            t.records.push(rec(1, 9, 5, d)); // booster
            t.records.push(rec(2, 9, 1, d)); // rival
            t.records.push(rec(3, 9, if d % 2 == 0 { 5 } else { 1 }, d)); // mixed
        }
        t.records.push(rec(4, 9, 5, 0)); // occasional
        assert_eq!(classify_rater(&t, NodeId(1), NodeId(9), 15, 0.1), RaterPattern::Booster);
        assert_eq!(classify_rater(&t, NodeId(2), NodeId(9), 15, 0.1), RaterPattern::Rival);
        assert_eq!(classify_rater(&t, NodeId(3), NodeId(9), 15, 0.1), RaterPattern::Mixed);
        assert_eq!(classify_rater(&t, NodeId(4), NodeId(9), 15, 0.1), RaterPattern::Occasional);
    }

    #[test]
    fn tolerance_absorbs_occasional_offpattern() {
        let mut t = Trace::new(40);
        for d in 0..29u64 {
            t.records.push(rec(1, 9, 5, d));
        }
        t.records.push(rec(1, 9, 2, 30)); // one slip in 30
        assert_eq!(classify_rater(&t, NodeId(1), NodeId(9), 15, 0.1), RaterPattern::Booster);
        assert_eq!(classify_rater(&t, NodeId(1), NodeId(9), 15, 0.0), RaterPattern::Mixed);
    }

    #[test]
    fn classify_all_orders_by_count() {
        let mut t = Trace::new(40);
        for d in 0..20u64 {
            t.records.push(rec(1, 9, 5, d));
        }
        for d in 0..25u64 {
            t.records.push(rec(2, 9, 1, d));
        }
        let rows = classify_all_raters(&t, NodeId(9), 15, 0.1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, NodeId(2));
        assert_eq!(rows[0].2, RaterPattern::Rival);
        assert_eq!(rows[1].2, RaterPattern::Booster);
    }

    #[test]
    fn synthetic_colluding_seller_shows_figure_1b_patterns() {
        let at = generate(&AmazonConfig::paper(0.01, 21));
        let seller = at.colluding_sellers()[0];
        let rows = classify_all_raters(&at.trace, seller, 15, 0.1);
        let boosters = rows.iter().filter(|r| r.2 == RaterPattern::Booster).count();
        let rivals = rows.iter().filter(|r| r.2 == RaterPattern::Rival).count();
        assert!(boosters >= 1, "no booster pattern found at colluding seller");
        assert!(rivals >= 1, "no rival pattern found at colluding seller");
    }

    #[test]
    fn honest_seller_has_no_frequent_boosters() {
        let at = generate(&AmazonConfig::paper(0.01, 21));
        let honest = NodeId(18);
        let rows = classify_all_raters(&at.trace, honest, 15, 0.1);
        assert!(rows.is_empty(), "honest seller unexpectedly has frequent raters: {rows:?}");
    }
}
