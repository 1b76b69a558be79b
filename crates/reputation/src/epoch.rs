//! Epoch write-buffer: an append-only log of one epoch's ratings, sorted
//! and folded into a delta of [`PairCounters`] when the epoch closes.
//!
//! The paper lets ratings accumulate for an update period `T` and then
//! runs one band test over the aggregated counters, so nothing reads the
//! aggregate before the close. The [`EpochBuffer`] therefore records a
//! rating as one push onto a log that keeps its capacity across epochs —
//! no per-rating probe of a pair map that, at production scale, no longer
//! fits in cache. At the close, [`EpochBuffer::drain`] sorts the log by
//! `(ratee, rater)` and folds each run into one cell, handing the
//! aggregated [`EpochDelta`] to
//! [`crate::sharded::ShardedSnapshot::apply_epoch`]. The delta doubles as
//! the detection round's *dirty-pair work queue*: the pairs whose counters
//! changed are exactly the entries, so an incremental detector
//! re-examines only those (plus pairs adjacent to reputation flips)
//! instead of scanning the whole matrix.
//!
//! Counter arithmetic is the same integer bookkeeping
//! [`crate::history::InteractionHistory::record`] performs, and counter
//! adds commute, so a snapshot advanced by epoch deltas stays
//! bit-identical to one built from a history that recorded the same
//! ratings (asserted by the sharded-snapshot tests).

use crate::history::PairCounters;
use crate::id::NodeId;
use crate::rating::{Rating, RatingValue};

/// Accumulates one epoch's ratings as an unsorted log.
#[derive(Clone, Debug, Default)]
pub struct EpochBuffer {
    /// `(ratee, rater, value)` in arrival order, self-ratings excluded.
    log: Vec<(NodeId, NodeId, RatingValue)>,
    /// Memory watermark: when the log holds this many ratings the buffer
    /// reports itself over the watermark and the engine closes the epoch
    /// early. `None` = unbounded (the default).
    max_ratings: Option<usize>,
}

impl EpochBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        EpochBuffer::default()
    }

    /// Empty buffer that reports itself over the watermark once
    /// `max_ratings` ratings are buffered. Bounds the buffer's memory: each
    /// rating costs one log entry, so the watermark caps the resident log
    /// regardless of how hot the rating stream runs.
    pub fn with_max_ratings(max_ratings: usize) -> Self {
        EpochBuffer { max_ratings: Some(max_ratings.max(1)), ..EpochBuffer::default() }
    }

    /// Set or clear the max-ratings watermark on an existing buffer.
    pub fn set_max_ratings(&mut self, max_ratings: Option<usize>) {
        self.max_ratings = max_ratings.map(|m| m.max(1));
    }

    /// The configured watermark, if any.
    #[inline]
    pub fn max_ratings(&self) -> Option<usize> {
        self.max_ratings
    }

    /// Whether the buffered log has reached the memory watermark and the
    /// epoch should be closed early.
    #[inline]
    pub fn over_watermark(&self) -> bool {
        self.max_ratings.is_some_and(|m| self.log.len() >= m)
    }

    /// Append one rating. Self-ratings are ignored (returns `false`),
    /// matching [`crate::history::InteractionHistory::record`].
    #[inline]
    pub fn record(&mut self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        self.log.push((rating.ratee, rating.rater, rating.value));
        true
    }

    /// Number of ratings buffered since the last [`EpochBuffer::drain`].
    #[inline]
    pub fn ratings(&self) -> u64 {
        self.log.len() as u64
    }

    /// Whether the buffer holds no ratings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Close the epoch: sort the log, fold it into a delta and empty it
    /// (keeping its capacity for the next epoch).
    pub fn drain(&mut self) -> EpochDelta {
        self.log.sort_unstable_by_key(|&(ratee, rater, _)| (ratee, rater));
        let same_pair = |a: &(NodeId, NodeId, RatingValue), b: &(NodeId, NodeId, RatingValue)| {
            (a.0, a.1) == (b.0, b.1)
        };
        let mut entries = Vec::with_capacity(self.log.chunk_by(same_pair).count());
        entries.extend(self.log.chunk_by(same_pair).map(|run| {
            let mut c = PairCounters::default();
            for &(_, _, value) in run {
                c.accumulate(value);
            }
            (run[0].0, run[0].1, c)
        }));
        let ratings = self.ratings();
        self.log.clear();
        EpochDelta { entries, ratings }
    }

    /// The delta [`EpochBuffer::drain`] would return, without emptying the
    /// buffer.
    pub fn peek(&self) -> EpochDelta {
        self.clone().drain()
    }
}

/// One closed epoch's aggregated counter delta.
#[derive(Clone, Debug, Default)]
pub struct EpochDelta {
    /// `(ratee, rater, counter delta)`, sorted by `(ratee, rater)` — the
    /// dirty-pair work queue for the next detection round.
    pub entries: Vec<(NodeId, NodeId, PairCounters)>,
    /// Number of ratings aggregated into the entries.
    pub ratings: u64,
}

impl EpochDelta {
    /// Whether the delta is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::InteractionHistory;
    use crate::id::SimTime;
    use proptest::prelude::*;

    #[test]
    fn buffer_aggregates_like_history() {
        let mut buf = EpochBuffer::new();
        let mut h = InteractionHistory::new();
        let ratings = [
            (1u64, 2u64, RatingValue::Positive),
            (1, 2, RatingValue::Positive),
            (1, 2, RatingValue::Negative),
            (3, 2, RatingValue::Neutral),
            (2, 1, RatingValue::Positive),
        ];
        for (t, &(j, i, v)) in ratings.iter().enumerate() {
            let r = Rating::new(NodeId(j), NodeId(i), v, SimTime(t as u64));
            buf.record(r);
            h.record(r);
        }
        assert_eq!(buf.ratings(), 5);
        // peeking reads the same delta and leaves the buffer as it was
        let peeked = buf.peek();
        assert_eq!(buf.ratings(), 5);
        let delta = buf.drain();
        assert_eq!((&peeked.entries, peeked.ratings), (&delta.entries, delta.ratings));
        assert!(buf.is_empty());
        assert_eq!(delta.ratings, 5);
        assert_eq!(delta.entries.len(), 3);
        for &(ratee, rater, c) in &delta.entries {
            assert_eq!(c, h.pair(rater, ratee), "delta cell {rater}->{ratee}");
        }
        assert!(delta.entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn watermark_trips_at_max_ratings() {
        let mut buf = EpochBuffer::with_max_ratings(3);
        assert_eq!(buf.max_ratings(), Some(3));
        buf.record(Rating::positive(NodeId(1), NodeId(2), SimTime(0)));
        assert!(!buf.over_watermark());
        // a self-rating is rejected and does not count
        assert!(!buf.record(Rating::positive(NodeId(2), NodeId(2), SimTime(1))));
        assert!(!buf.over_watermark());
        buf.record(Rating::positive(NodeId(1), NodeId(2), SimTime(2)));
        assert!(!buf.over_watermark());
        // a repeat of one pair counts: three ratings, one pair
        buf.record(Rating::positive(NodeId(1), NodeId(2), SimTime(3)));
        assert!(buf.over_watermark());
        // draining resets the watermark; the limit survives the drain
        let delta = buf.drain();
        assert_eq!((delta.ratings, delta.entries.len()), (3, 1));
        assert!(!buf.over_watermark());
        assert_eq!(buf.max_ratings(), Some(3));
        // clearing the limit disables the watermark
        buf.set_max_ratings(None);
        for k in 0..10 {
            buf.record(Rating::positive(NodeId(k), NodeId(k + 100), SimTime(k)));
        }
        assert!(!buf.over_watermark());
    }

    #[test]
    fn self_ratings_rejected() {
        let mut buf = EpochBuffer::new();
        assert!(!buf.record(Rating::positive(NodeId(4), NodeId(4), SimTime(0))));
        assert!(buf.is_empty());
        assert_eq!(buf.drain().ratings, 0);
    }

    /// Peek, drain and check one epoch against the history of exactly its
    /// ratings.
    fn close_and_check(buf: &mut EpochBuffer, h: &InteractionHistory) {
        let peeked = buf.peek();
        let delta = buf.drain();
        prop_assert_eq!(&peeked.entries, &delta.entries);
        prop_assert_eq!(peeked.ratings, delta.ratings);
        prop_assert!(buf.is_empty());
        prop_assert_eq!(delta.ratings, h.recorded());
        prop_assert!(delta.entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut cells: Vec<_> = h.iter_pairs().map(|(rater, ratee, c)| (ratee, rater, c)).collect();
        cells.sort_unstable_by_key(|&(ratee, rater, _)| (ratee, rater));
        prop_assert_eq!(delta.entries, cells);
    }

    proptest! {
        /// Random streams over six ids (many repeats, one self-rating in
        /// six, every rating value), closed at random points.
        #[test]
        fn log_drains_to_the_history_of_its_epoch(
            ops in prop::collection::vec((0u64..6, 0u64..6, 0u8..3, 0u8..12), 0..300),
            watermark in 1usize..40,
        ) {
            let mut buf = EpochBuffer::with_max_ratings(watermark);
            let mut h = InteractionHistory::new();
            for (t, &(rater, ratee, v, op)) in ops.iter().enumerate() {
                if op == 0 {
                    close_and_check(&mut buf, &h);
                    h = InteractionHistory::new();
                    prop_assert!(!buf.over_watermark());
                    continue;
                }
                let value = [RatingValue::Negative, RatingValue::Neutral, RatingValue::Positive]
                    [v as usize];
                let r = Rating::new(NodeId(rater), NodeId(ratee), value, SimTime(t as u64));
                prop_assert_eq!(buf.record(r), h.record(r));
                prop_assert_eq!(buf.over_watermark(), h.recorded() >= watermark as u64);
            }
            close_and_check(&mut buf, &h);
        }
    }
}
