//! Trace records: the raw crawled-data format.
//!
//! A [`TraceRecord`] mirrors one row of the paper's crawl: who rated whom,
//! the 1–5 star score, and the day it happened. A [`Trace`] is a full
//! year-long crawl; it converts losslessly into the reputation crate's
//! [`RatingLog`] (stars collapse to −1/0/+1 exactly as §III specifies).

use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingLog, RatingValue};

/// One crawled rating row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// The buyer submitting the rating.
    pub rater: NodeId,
    /// The seller being rated.
    pub ratee: NodeId,
    /// Star score, 1–5 (Amazon scale).
    pub stars: u8,
    /// Day offset within the crawl window.
    pub day: u64,
}

impl TraceRecord {
    /// The tri-valued classification of the star score.
    pub fn value(&self) -> RatingValue {
        RatingValue::from_amazon_stars(self.stars)
    }

    /// Convert into a reputation-system rating (day becomes the tick).
    pub fn to_rating(&self) -> Rating {
        Rating::new(self.rater, self.ratee, self.value(), SimTime(self.day))
    }
}

/// A complete crawl: records plus the covered day span.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All records, in generation order.
    pub records: Vec<TraceRecord>,
    /// Number of days the crawl covers (the paper's window is ~351 days).
    pub days: u64,
}

impl Trace {
    /// Empty trace over a day span.
    pub fn new(days: u64) -> Self {
        Trace { records: Vec::new(), days }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Convert to a [`RatingLog`] (self-ratings, if any, are dropped).
    pub fn to_rating_log(&self) -> RatingLog {
        let mut log = RatingLog::with_capacity(self.records.len());
        for r in &self.records {
            log.push(r.to_rating());
        }
        log
    }

    /// Records concerning one seller.
    pub fn received_by(&self, seller: NodeId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.ratee == seller)
    }

    /// Records issued by one rater.
    pub fn issued_by(&self, rater: NodeId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.rater == rater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_classification_through_record() {
        let r = TraceRecord { rater: NodeId(1), ratee: NodeId(2), stars: 5, day: 3 };
        assert_eq!(r.value(), RatingValue::Positive);
        let rating = r.to_rating();
        assert_eq!(rating.rater, NodeId(1));
        assert_eq!(rating.time, SimTime(3));
        assert_eq!(rating.value, RatingValue::Positive);
    }

    #[test]
    fn trace_to_rating_log_preserves_count() {
        let mut t = Trace::new(10);
        t.records.push(TraceRecord { rater: NodeId(1), ratee: NodeId(2), stars: 1, day: 0 });
        t.records.push(TraceRecord { rater: NodeId(3), ratee: NodeId(2), stars: 3, day: 1 });
        let log = t.to_rating_log();
        assert_eq!(log.len(), 2);
        let h = log.history();
        assert_eq!(h.negative_from_to(NodeId(1), NodeId(2)), 1);
        assert_eq!(h.pair(NodeId(3), NodeId(2)).neutral(), 1);
    }

    #[test]
    fn views_filter_by_party() {
        let mut t = Trace::new(10);
        t.records.push(TraceRecord { rater: NodeId(1), ratee: NodeId(2), stars: 5, day: 0 });
        t.records.push(TraceRecord { rater: NodeId(1), ratee: NodeId(3), stars: 4, day: 1 });
        t.records.push(TraceRecord { rater: NodeId(4), ratee: NodeId(2), stars: 2, day: 2 });
        assert_eq!(t.received_by(NodeId(2)).count(), 2);
        assert_eq!(t.issued_by(NodeId(1)).count(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 3);
    }
}
