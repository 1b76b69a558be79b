//! Epoch write-buffer: an LSM-style delta of [`PairCounters`] absorbed
//! between detection rounds.
//!
//! At production scale, folding every rating straight into the frozen
//! detection structures would patch rows millions of times per period. The
//! [`EpochBuffer`] instead accumulates ratings as an in-memory delta map —
//! O(1) per rating, one cell per touched (ratee, rater) pair — and hands
//! the aggregated [`EpochDelta`] to
//! [`crate::sharded::ShardedSnapshot::apply_epoch`] when the epoch closes.
//! The delta doubles as the detection round's *dirty-pair work queue*: the
//! pairs whose counters changed are exactly the entries, so an incremental
//! detector re-examines only those (plus pairs adjacent to reputation
//! flips) instead of scanning the whole matrix.
//!
//! Counter arithmetic is the same integer bookkeeping
//! [`crate::history::InteractionHistory::record`] performs, so a snapshot
//! advanced by epoch deltas stays bit-identical to one built from a history
//! that recorded the same ratings (asserted by the sharded-snapshot tests).

use crate::fxhash::FxHashMap;
use crate::history::PairCounters;
use crate::id::NodeId;
use crate::rating::Rating;

/// Accumulates one epoch's ratings as a delta of pair counters.
#[derive(Clone, Debug, Default)]
pub struct EpochBuffer {
    /// (ratee, rater) → counter delta for this epoch. Fx-hashed: one probe
    /// per rating is the ingest hot path, and drain sorts the entries, so
    /// the hasher cannot affect results.
    delta: FxHashMap<(NodeId, NodeId), PairCounters>,
    ratings: u64,
    /// Memory watermark: when the delta map reaches this many pairs the
    /// buffer reports itself over the watermark and the engine closes the
    /// epoch early. `None` = unbounded (the default, preserving historical
    /// behavior).
    max_pairs: Option<usize>,
}

impl EpochBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        EpochBuffer::default()
    }

    /// Empty buffer that reports itself over the watermark once `max_pairs`
    /// distinct (ratee, rater) pairs are buffered. Bounds the buffer's
    /// memory: each pair costs one map cell, so the watermark caps resident
    /// delta size regardless of how hot the rating stream runs.
    pub fn with_max_pairs(max_pairs: usize) -> Self {
        EpochBuffer { max_pairs: Some(max_pairs.max(1)), ..EpochBuffer::default() }
    }

    /// Set or clear the max-pairs watermark on an existing buffer.
    pub fn set_max_pairs(&mut self, max_pairs: Option<usize>) {
        self.max_pairs = max_pairs.map(|m| m.max(1));
    }

    /// The configured watermark, if any.
    #[inline]
    pub fn max_pairs(&self) -> Option<usize> {
        self.max_pairs
    }

    /// Whether the buffered delta has reached the memory watermark and the
    /// epoch should be closed early.
    #[inline]
    pub fn over_watermark(&self) -> bool {
        self.max_pairs.is_some_and(|m| self.delta.len() >= m)
    }

    /// Fold one rating in. Self-ratings are ignored (returns `false`),
    /// matching [`crate::history::InteractionHistory::record`].
    pub fn record(&mut self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        self.delta.entry((rating.ratee, rating.rater)).or_default().accumulate(rating.value);
        self.ratings += 1;
        true
    }

    /// Fold an already-aggregated counter cell in — the re-buffering path
    /// for an intake delta that was drained but never closed. Self-pairs
    /// and empty cells are ignored, matching [`EpochBuffer::record`].
    pub fn record_counters(&mut self, ratee: NodeId, rater: NodeId, counters: PairCounters) {
        if ratee == rater || counters.total == 0 {
            return;
        }
        self.delta.entry((ratee, rater)).or_default().merge(&counters);
        self.ratings += counters.total;
    }

    /// Number of ratings folded in since the last [`EpochBuffer::drain`].
    #[inline]
    pub fn ratings(&self) -> u64 {
        self.ratings
    }

    /// Number of distinct (ratee, rater) pairs touched this epoch.
    #[inline]
    pub fn pairs_touched(&self) -> usize {
        self.delta.len()
    }

    /// Whether the buffer holds no ratings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Close the epoch: empty the buffer into a sorted delta.
    pub fn drain(&mut self) -> EpochDelta {
        let mut entries: Vec<(NodeId, NodeId, PairCounters)> =
            self.delta.drain().map(|((ratee, rater), c)| (ratee, rater, c)).collect();
        entries.sort_unstable_by_key(|&(ratee, rater, _)| (ratee, rater));
        EpochDelta { entries, ratings: std::mem::take(&mut self.ratings) }
    }

    /// The sorted delta [`EpochBuffer::drain`] would return, without
    /// emptying the buffer — what a reader of the open epoch merges over
    /// the standing snapshot to see every rating folded so far.
    pub fn peek(&self) -> EpochDelta {
        let mut entries: Vec<(NodeId, NodeId, PairCounters)> =
            self.delta.iter().map(|(&(ratee, rater), &c)| (ratee, rater, c)).collect();
        entries.sort_unstable_by_key(|&(ratee, rater, _)| (ratee, rater));
        EpochDelta { entries, ratings: self.ratings }
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

    /// The distinct ratees whose rows this delta touches, ascending.
    pub fn dirty_ratees(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut last: Option<NodeId> = None;
        self.entries.iter().filter_map(move |&(ratee, _, _)| {
            if Some(ratee) == last {
                None
            } else {
                last = Some(ratee);
                Some(ratee)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::InteractionHistory;
    use crate::id::SimTime;
    use crate::rating::RatingValue;

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
        assert_eq!(buf.pairs_touched(), 3);
        // peeking reads the same delta and leaves the buffer as it was
        let peeked = buf.peek();
        assert_eq!(buf.ratings(), 5);
        let delta = buf.drain();
        assert_eq!((&peeked.entries, peeked.ratings), (&delta.entries, delta.ratings));
        assert!(buf.is_empty());
        assert_eq!(delta.ratings, 5);
        for &(ratee, rater, c) in &delta.entries {
            assert_eq!(c, h.pair(rater, ratee), "delta cell {rater}->{ratee}");
        }
        assert!(delta.entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(delta.dirty_ratees().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn watermark_trips_at_max_pairs() {
        let mut buf = EpochBuffer::with_max_pairs(2);
        assert_eq!(buf.max_pairs(), Some(2));
        buf.record(Rating::positive(NodeId(1), NodeId(2), SimTime(0)));
        assert!(!buf.over_watermark());
        // same pair again: no new cell, still under
        buf.record(Rating::positive(NodeId(1), NodeId(2), SimTime(1)));
        assert!(!buf.over_watermark());
        buf.record(Rating::positive(NodeId(3), NodeId(2), SimTime(2)));
        assert!(buf.over_watermark());
        // draining resets the watermark; the limit survives the drain
        let delta = buf.drain();
        assert_eq!(delta.ratings, 3);
        assert!(!buf.over_watermark());
        assert_eq!(buf.max_pairs(), Some(2));
        // clearing the limit disables the watermark
        buf.set_max_pairs(None);
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
}
