//! Interaction-history bookkeeping — the paper's Table I.
//!
//! For a ratee `n_i` and rater `n_j` within one reputation-update period `T`,
//! the paper defines:
//!
//! | notation       | meaning                                                  | here |
//! |----------------|----------------------------------------------------------|------|
//! | `N_i`          | all ratings for `n_i`                                    | [`InteractionHistory::ratings_for`] |
//! | `N(j,i)`       | ratings from `n_j` for `n_i`                             | [`InteractionHistory::ratings_from_to`] |
//! | `N(−j,i)`      | ratings from all nodes except `n_j` for `n_i`            | [`InteractionHistory::ratings_excluding`] |
//! | `N⁺(j,i)`      | positive ratings from `n_j` for `n_i`                    | [`InteractionHistory::positive_from_to`] |
//! | `N⁺(−j,i)`     | positive ratings from all except `n_j` for `n_i`         | [`InteractionHistory::positive_excluding`] |
//! | `N⁻(j,i)`      | negative ratings from `n_j` for `n_i`                    | [`InteractionHistory::negative_from_to`] |
//! | `N⁻(−j,i)`     | negative ratings from all except `n_j` for `n_i`         | [`InteractionHistory::negative_excluding`] |
//! | `a`            | fraction of positives among ratings from `n_j` for `n_i` | [`InteractionHistory::fraction_a`] |
//! | `b`            | fraction of positives among ratings from others for `n_i`| [`InteractionHistory::fraction_b`] |
//!
//! The structure is incremental ([`InteractionHistory::record`]): a whole
//! update period is folded in rating by rating, and period scoping is
//! handled by building one history per window (see
//! `RatingLog::history_in`). It is the offline form of Table I — the
//! centralised audit, the simulator's reputation engines and test traces
//! feed it; a running manager (and the simulator's cumulative detection)
//! keeps its counters in an epoch log and a sharded snapshot instead. A
//! history never advances a snapshot: a snapshot is built from it whole.
//!
//! Two Fx maps hold the table: `(rater, ratee) → N(j,i), N⁺, N⁻`, and
//! `ratee → N_i` with the ratee's distinct raters, so a rating costs two
//! probes. Fx is unkeyed (see [`crate::fxhash`]); iteration order reaches
//! no result, because every order-sensitive reader sorts.

use crate::fxhash::FxHashMap;
use crate::id::NodeId;
use crate::rating::{Rating, RatingValue};

/// Counters for one ordered (rater → ratee) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairCounters {
    /// Total ratings from the rater for the ratee (`N(j,i)`).
    pub total: u64,
    /// Positive subset (`N⁺(j,i)`).
    pub positive: u64,
    /// Negative subset (`N⁻(j,i)`).
    pub negative: u64,
}

/// Clamp a `u64` counter into `i64` range for signed arithmetic.
#[inline]
fn clamped_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl PairCounters {
    /// Neutral ratings (neither positive nor negative). Saturating: a cell
    /// whose splits exceed its total (only possible via corrupt or hostile
    /// input) reads as zero neutral instead of wrapping.
    #[inline]
    pub fn neutral(&self) -> u64 {
        self.total.saturating_sub(self.positive).saturating_sub(self.negative)
    }

    /// Fraction of positive ratings, `None` if the pair has no ratings.
    #[inline]
    pub fn positive_fraction(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.positive as f64 / self.total as f64)
        }
    }

    /// Signed contribution to the ratee's reputation (`#pos − #neg`),
    /// saturating at the `i64` limits.
    #[inline]
    pub fn signed(&self) -> i64 {
        clamped_i64(self.positive).saturating_sub(clamped_i64(self.negative))
    }

    /// Fold one rating value in (`N(j,i) += 1` plus the sign split) — the
    /// increment [`InteractionHistory::record`] applies, exposed for
    /// delta-accumulating callers like `epoch::EpochBuffer`.
    #[inline]
    pub fn accumulate(&mut self, value: RatingValue) {
        self.add(value);
    }

    /// Add another counter cell element-wise (merging an epoch delta into a
    /// base cell). Saturating, so replayed-duplicate or hostile streams can
    /// pin counters at the ceiling instead of wrapping them back to zero.
    #[inline]
    pub fn merge(&mut self, other: &PairCounters) {
        self.total = self.total.saturating_add(other.total);
        self.positive = self.positive.saturating_add(other.positive);
        self.negative = self.negative.saturating_add(other.negative);
    }

    fn add(&mut self, value: RatingValue) {
        self.total = self.total.saturating_add(1);
        match value {
            RatingValue::Positive => self.positive = self.positive.saturating_add(1),
            RatingValue::Negative => self.negative = self.negative.saturating_add(1),
            RatingValue::Neutral => {}
        }
    }
}

/// Aggregate counters for one ratee across all raters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTotals {
    /// Total ratings received (`N_i`).
    pub total: u64,
    /// Positive ratings received.
    pub positive: u64,
    /// Negative ratings received.
    pub negative: u64,
}

impl NodeTotals {
    /// Count one received rating of `value`, saturating.
    pub fn add(&mut self, value: RatingValue) {
        self.total = self.total.saturating_add(1);
        match value {
            RatingValue::Positive => self.positive = self.positive.saturating_add(1),
            RatingValue::Negative => self.negative = self.negative.saturating_add(1),
            RatingValue::Neutral => {}
        }
    }

    fn merge(&mut self, other: &NodeTotals) {
        self.total = self.total.saturating_add(other.total);
        self.positive = self.positive.saturating_add(other.positive);
        self.negative = self.negative.saturating_add(other.negative);
    }

    /// Signed (eBay-style) reputation `#pos − #neg`, saturating at the
    /// `i64` limits.
    #[inline]
    pub fn signed(&self) -> i64 {
        clamped_i64(self.positive).saturating_sub(clamped_i64(self.negative))
    }

    /// Amazon-style positive fraction, `None` when unrated.
    #[inline]
    pub fn positive_fraction(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.positive as f64 / self.total as f64)
        }
    }
}

/// One ratee's row: its aggregate counters and its distinct raters, both
/// behind the one probe [`InteractionHistory::record`] makes per ratee.
#[derive(Clone, Debug, Default)]
struct RateeRow {
    /// Aggregate counters over all raters (`N_i` and its sign split).
    totals: NodeTotals,
    /// Distinct raters, in first-seen order, for detector row scans.
    raters: Vec<NodeId>,
}

/// Incremental interaction history for one reputation-update period `T`.
#[derive(Clone, Debug, Default)]
pub struct InteractionHistory {
    /// (rater, ratee) → counters.
    pairs: FxHashMap<(NodeId, NodeId), PairCounters>,
    /// ratee → totals and raters.
    ratees: FxHashMap<NodeId, RateeRow>,
    /// Number of ratings folded in.
    recorded: u64,
}

impl InteractionHistory {
    /// Empty history.
    pub fn new() -> Self {
        InteractionHistory::default()
    }

    /// Fold one rating in. Self-ratings are ignored (returns `false`).
    pub fn record(&mut self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        let pair = self.pairs.entry((rating.rater, rating.ratee)).or_default();
        let row = self.ratees.entry(rating.ratee).or_default();
        if pair.total == 0 {
            row.raters.push(rating.rater);
        }
        pair.add(rating.value);
        row.totals.add(rating.value);
        self.recorded = self.recorded.saturating_add(1);
        true
    }

    /// Number of ratings folded in (excluding rejected self-ratings).
    #[inline]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// All ratees that received at least one rating.
    pub fn ratees(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ratees.keys().copied()
    }

    /// Distinct raters that rated `ratee`, in first-seen order.
    pub fn raters_of(&self, ratee: NodeId) -> &[NodeId] {
        self.ratees.get(&ratee).map_or(&[], |row| &row.raters)
    }

    /// Counters for the ordered pair (rater → ratee), zero if absent.
    #[inline]
    pub fn pair(&self, rater: NodeId, ratee: NodeId) -> PairCounters {
        self.pairs.get(&(rater, ratee)).copied().unwrap_or_default()
    }

    /// Aggregate counters for `ratee`, zero if absent.
    #[inline]
    pub fn totals(&self, ratee: NodeId) -> NodeTotals {
        self.ratees.get(&ratee).map(|row| row.totals).unwrap_or_default()
    }

    // ----- Table I accessors -------------------------------------------------

    /// `N_i`: all ratings received by `ratee` in the period.
    #[inline]
    pub fn ratings_for(&self, ratee: NodeId) -> u64 {
        self.totals(ratee).total
    }

    /// `N(j,i)`: ratings from `rater` for `ratee`.
    #[inline]
    pub fn ratings_from_to(&self, rater: NodeId, ratee: NodeId) -> u64 {
        self.pair(rater, ratee).total
    }

    /// `N(−j,i)`: ratings for `ratee` from everyone except `rater`.
    #[inline]
    pub fn ratings_excluding(&self, rater: NodeId, ratee: NodeId) -> u64 {
        self.ratings_for(ratee) - self.ratings_from_to(rater, ratee)
    }

    /// `N⁺(j,i)`: positive ratings from `rater` for `ratee`.
    #[inline]
    pub fn positive_from_to(&self, rater: NodeId, ratee: NodeId) -> u64 {
        self.pair(rater, ratee).positive
    }

    /// `N⁺(−j,i)`: positive ratings for `ratee` from everyone except `rater`.
    #[inline]
    pub fn positive_excluding(&self, rater: NodeId, ratee: NodeId) -> u64 {
        self.totals(ratee).positive - self.positive_from_to(rater, ratee)
    }

    /// `N⁻(j,i)`: negative ratings from `rater` for `ratee`.
    #[inline]
    pub fn negative_from_to(&self, rater: NodeId, ratee: NodeId) -> u64 {
        self.pair(rater, ratee).negative
    }

    /// `N⁻(−j,i)`: negative ratings for `ratee` from everyone except `rater`.
    #[inline]
    pub fn negative_excluding(&self, rater: NodeId, ratee: NodeId) -> u64 {
        self.totals(ratee).negative - self.negative_from_to(rater, ratee)
    }

    /// `a`: fraction of positives among ratings from `rater` for `ratee`;
    /// `None` when the pair has no ratings.
    #[inline]
    pub fn fraction_a(&self, rater: NodeId, ratee: NodeId) -> Option<f64> {
        self.pair(rater, ratee).positive_fraction()
    }

    /// `b`: fraction of positives among ratings for `ratee` from everyone
    /// except `rater`; `None` when no such ratings exist.
    #[inline]
    pub fn fraction_b(&self, rater: NodeId, ratee: NodeId) -> Option<f64> {
        let n = self.ratings_excluding(rater, ratee);
        if n == 0 {
            None
        } else {
            Some(self.positive_excluding(rater, ratee) as f64 / n as f64)
        }
    }

    // ----- Reputation views --------------------------------------------------

    /// eBay-style signed reputation: `#pos − #neg` over all received ratings.
    #[inline]
    pub fn signed_reputation(&self, ratee: NodeId) -> i64 {
        self.totals(ratee).signed()
    }

    /// Amazon-style reputation: positive fraction over all received ratings.
    #[inline]
    pub fn positive_fraction(&self, ratee: NodeId) -> Option<f64> {
        self.totals(ratee).positive_fraction()
    }

    /// Iterate over every (rater, ratee, counters) triple.
    pub fn iter_pairs(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId, PairCounters)> + '_ {
        self.pairs.iter().map(|(&(j, i), &c)| (j, i, c))
    }

    /// Remove and return everything recorded *about* `ratee` — the ratings
    /// a departing reputation manager hands to the node's next owner.
    /// Ratings `ratee` issued about others stay behind, and the ratee
    /// leaves [`InteractionHistory::ratees`].
    pub fn split_off_ratee(&mut self, ratee: NodeId) -> InteractionHistory {
        let mut out = InteractionHistory::new();
        let Some(row) = self.ratees.remove(&ratee) else {
            return out;
        };
        for &rater in &row.raters {
            if let Some(c) = self.pairs.remove(&(rater, ratee)) {
                out.pairs.insert((rater, ratee), c);
            }
        }
        self.recorded = self.recorded.saturating_sub(row.totals.total);
        out.recorded = row.totals.total;
        out.ratees.insert(ratee, row);
        out
    }

    /// Merge another history into this one (used to combine the views of
    /// several decentralized managers). Raters new to a ratee's row are
    /// appended in `other`'s first-seen order.
    pub fn merge(&mut self, other: &InteractionHistory) {
        for (&ratee, other_row) in &other.ratees {
            let row = self.ratees.entry(ratee).or_default();
            for &rater in &other_row.raters {
                let c = other.pair(rater, ratee);
                let pair = self.pairs.entry((rater, ratee)).or_default();
                if pair.total == 0 && c.total > 0 {
                    row.raters.push(rater);
                }
                pair.merge(&c);
            }
            row.totals.merge(&other_row.totals);
        }
        self.recorded = self.recorded.saturating_add(other.recorded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::SimTime;

    fn hist(ratings: &[(u64, u64, i8)]) -> InteractionHistory {
        let mut h = InteractionHistory::new();
        for (t, &(j, i, v)) in ratings.iter().enumerate() {
            let value = match v {
                1 => RatingValue::Positive,
                0 => RatingValue::Neutral,
                -1 => RatingValue::Negative,
                _ => unreachable!(),
            };
            h.record(Rating::new(NodeId(j), NodeId(i), value, SimTime(t as u64)));
        }
        h
    }

    #[test]
    fn table_i_identities_hold_on_small_example() {
        // n1 rates n2: +,+,-   n3 rates n2: -,-   n1 rates n3: +
        let h = hist(&[(1, 2, 1), (1, 2, 1), (1, 2, -1), (3, 2, -1), (3, 2, -1), (1, 3, 1)]);
        let (n1, n2, n3) = (NodeId(1), NodeId(2), NodeId(3));
        assert_eq!(h.ratings_for(n2), 5);
        assert_eq!(h.ratings_from_to(n1, n2), 3);
        assert_eq!(h.ratings_excluding(n1, n2), 2);
        assert_eq!(h.positive_from_to(n1, n2), 2);
        assert_eq!(h.positive_excluding(n1, n2), 0);
        assert_eq!(h.negative_from_to(n1, n2), 1);
        assert_eq!(h.negative_excluding(n1, n2), 2);
        assert_eq!(h.fraction_a(n1, n2), Some(2.0 / 3.0));
        assert_eq!(h.fraction_b(n1, n2), Some(0.0));
        assert_eq!(h.ratings_for(n3), 1);
        assert_eq!(h.signed_reputation(n2), 2 - 3);
    }

    #[test]
    fn neutral_ratings_count_toward_totals_only() {
        let h = hist(&[(1, 2, 0), (1, 2, 1)]);
        let p = h.pair(NodeId(1), NodeId(2));
        assert_eq!(p.total, 2);
        assert_eq!(p.positive, 1);
        assert_eq!(p.negative, 0);
        assert_eq!(p.neutral(), 1);
        assert_eq!(h.signed_reputation(NodeId(2)), 1);
    }

    #[test]
    fn fractions_none_when_no_data() {
        let h = hist(&[(1, 2, 1)]);
        assert_eq!(h.fraction_a(NodeId(9), NodeId(2)), None);
        // only rater of n2 is n1, so excluding n1 leaves nothing:
        assert_eq!(h.fraction_b(NodeId(1), NodeId(2)), None);
        assert_eq!(h.positive_fraction(NodeId(9)), None);
    }

    #[test]
    fn self_ratings_ignored() {
        let mut h = InteractionHistory::new();
        assert!(!h.record(Rating::positive(NodeId(1), NodeId(1), SimTime(0))));
        assert_eq!(h.recorded(), 0);
        assert_eq!(h.ratings_for(NodeId(1)), 0);
    }

    #[test]
    fn raters_of_lists_distinct_raters_once() {
        let h = hist(&[(1, 2, 1), (1, 2, 1), (3, 2, -1)]);
        let raters = h.raters_of(NodeId(2));
        assert_eq!(raters, &[NodeId(1), NodeId(3)]);
        assert!(h.raters_of(NodeId(99)).is_empty());
    }

    #[test]
    fn merge_combines_counters() {
        let a = hist(&[(1, 2, 1), (3, 2, -1)]);
        let b = hist(&[(1, 2, 1), (4, 2, 1)]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.ratings_from_to(NodeId(1), NodeId(2)), 2);
        assert_eq!(m.ratings_for(NodeId(2)), 4);
        assert_eq!(m.recorded(), 4);
        // rater list contains 1, 3, 4 exactly once each
        let mut raters = m.raters_of(NodeId(2)).to_vec();
        raters.sort();
        assert_eq!(raters, vec![NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn ratees_iterates_rated_nodes() {
        let h = hist(&[(1, 2, 1), (1, 3, -1)]);
        let mut ratees: Vec<_> = h.ratees().collect();
        ratees.sort();
        assert_eq!(ratees, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn split_off_ratee_partitions_cleanly() {
        let mut h = hist(&[(1, 2, 1), (1, 2, -1), (3, 2, 1), (2, 3, 1), (1, 3, -1)]);
        let before_recorded = h.recorded();
        let about_2 = h.split_off_ratee(NodeId(2));
        // extracted view has exactly n2's received ratings
        assert_eq!(about_2.ratings_for(NodeId(2)), 3);
        assert_eq!(about_2.ratings_from_to(NodeId(1), NodeId(2)), 2);
        assert_eq!(about_2.signed_reputation(NodeId(2)), 1);
        assert_eq!(about_2.recorded(), 3);
        // the remainder kept everything else, including n2's issued ratings
        assert_eq!(h.ratings_for(NodeId(2)), 0);
        assert!(h.raters_of(NodeId(2)).is_empty());
        assert_eq!(h.ratings_from_to(NodeId(2), NodeId(3)), 1);
        assert_eq!(h.recorded(), before_recorded - 3);
        // splitting again is a no-op
        let again = h.split_off_ratee(NodeId(2));
        assert_eq!(again.recorded(), 0);
        // re-merging restores the original counters
        h.merge(&about_2);
        assert_eq!(h.recorded(), before_recorded);
        assert_eq!(h.ratings_for(NodeId(2)), 3);
    }

    #[test]
    fn saturating_counters_never_wrap() {
        let mut c = PairCounters { total: u64::MAX - 1, positive: u64::MAX, negative: 0 };
        c.accumulate(RatingValue::Positive);
        c.accumulate(RatingValue::Positive);
        assert_eq!(c.total, u64::MAX);
        assert_eq!(c.positive, u64::MAX);
        let other = PairCounters { total: 10, positive: 10, negative: 0 };
        c.merge(&other);
        assert_eq!(c.total, u64::MAX);
        assert_eq!(c.positive, u64::MAX);
        // splits exceeding total (corrupt cell) read as zero neutral
        let corrupt = PairCounters { total: 1, positive: 5, negative: 5 };
        assert_eq!(corrupt.neutral(), 0);
        // signed saturates instead of overflowing the i64 conversion
        let huge = PairCounters { total: u64::MAX, positive: u64::MAX, negative: 0 };
        assert_eq!(huge.signed(), i64::MAX);
        let tot = NodeTotals { total: u64::MAX, positive: 0, negative: u64::MAX };
        assert_eq!(tot.signed(), i64::MIN + 1);
    }

    #[test]
    fn signed_identity_matches_pair_sum() {
        let h = hist(&[(1, 2, 1), (1, 2, -1), (3, 2, 1), (4, 2, 0)]);
        let total: i64 =
            h.raters_of(NodeId(2)).iter().map(|&j| h.pair(j, NodeId(2)).signed()).sum();
        assert_eq!(total, h.signed_reputation(NodeId(2)));
    }
}
