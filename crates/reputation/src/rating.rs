//! Ratings and rating logs.
//!
//! The paper adopts the eBay/EigenTrust convention: each interaction is
//! rated −1, 0 or +1 ([`RatingValue`]). Amazon's 1–5 star feedback maps onto
//! this scale (§III: "The scores 1 and 2 are classified as negative rating
//! (−1), 3 as neutral rating (0) and 4 and 5 as positive rating (1)").
//!
//! A [`RatingLog`] is an append-only sequence of [`Rating`]s — the raw
//! material both the trace analysis (§III) and the detection methods (§IV)
//! consume.

use crate::history::InteractionHistory;
use crate::id::{NodeId, SimTime, TimeWindow};
use std::fmt;

/// An externally supplied rating value that fails validation at the API
/// boundary. Hostile or buggy clients send these; they must be rejected
/// before they can poison counters, not folded in silently.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RatingValueError {
    /// An Amazon star score outside 1..=5.
    OutOfRangeStars(u8),
    /// A continuous score or threshold that is NaN or infinite.
    NonFinite(f64),
}

impl fmt::Display for RatingValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatingValueError::OutOfRangeStars(s) => {
                write!(f, "Amazon star score must be 1..=5, got {s}")
            }
            RatingValueError::NonFinite(v) => {
                write!(f, "rating score must be finite, got {v}")
            }
        }
    }
}

impl std::error::Error for RatingValueError {}

/// The tri-valued local reputation rating of one interaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RatingValue {
    /// Poor service (scores 1–2 on Amazon's 5-point scale).
    Negative,
    /// Indifferent service (score 3).
    Neutral,
    /// Good service (scores 4–5).
    Positive,
}

impl RatingValue {
    /// The signed numeric value −1 / 0 / +1 used in reputation sums.
    #[inline]
    pub fn signed(self) -> i64 {
        match self {
            RatingValue::Negative => -1,
            RatingValue::Neutral => 0,
            RatingValue::Positive => 1,
        }
    }

    /// Classify an Amazon 1–5 star score, rejecting out-of-range scores.
    pub fn try_from_amazon_stars(stars: u8) -> Result<Self, RatingValueError> {
        match stars {
            1 | 2 => Ok(RatingValue::Negative),
            3 => Ok(RatingValue::Neutral),
            4 | 5 => Ok(RatingValue::Positive),
            _ => Err(RatingValueError::OutOfRangeStars(stars)),
        }
    }

    /// Classify an Amazon 1–5 star score. Panics on scores outside 1–5;
    /// use [`RatingValue::try_from_amazon_stars`] for untrusted input.
    pub fn from_amazon_stars(stars: u8) -> Self {
        match RatingValue::try_from_amazon_stars(stars) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Binarize a continuous local reputation score against the reputation
    /// threshold `t_r`, rejecting NaN and infinite inputs — a NaN score
    /// compares false against any threshold and would otherwise be silently
    /// classified negative, letting a hostile client smuggle garbage past
    /// the boundary.
    pub fn try_from_continuous(score: f64, t_r: f64) -> Result<Self, RatingValueError> {
        if !score.is_finite() {
            return Err(RatingValueError::NonFinite(score));
        }
        if !t_r.is_finite() {
            return Err(RatingValueError::NonFinite(t_r));
        }
        if score >= t_r {
            Ok(RatingValue::Positive)
        } else {
            Ok(RatingValue::Negative)
        }
    }

    /// Binarize a continuous local reputation score against the reputation
    /// threshold `t_r` (§IV.A: "we regard local reputation rating with
    /// ≥ T_R as 1, and local reputation rating with < T_R as −1").
    /// Panics on NaN/infinite inputs; use
    /// [`RatingValue::try_from_continuous`] for untrusted input.
    pub fn from_continuous(score: f64, t_r: f64) -> Self {
        match RatingValue::try_from_continuous(score, t_r) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// True for [`RatingValue::Positive`].
    #[inline]
    pub fn is_positive(self) -> bool {
        matches!(self, RatingValue::Positive)
    }

    /// True for [`RatingValue::Negative`].
    #[inline]
    pub fn is_negative(self) -> bool {
        matches!(self, RatingValue::Negative)
    }
}

impl fmt::Display for RatingValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatingValue::Negative => write!(f, "-1"),
            RatingValue::Neutral => write!(f, "0"),
            RatingValue::Positive => write!(f, "+1"),
        }
    }
}

/// One rating event: `rater` evaluates a transaction served by `ratee`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rating {
    /// The node issuing the rating (buyer / client).
    pub rater: NodeId,
    /// The node being rated (seller / server).
    pub ratee: NodeId,
    /// The tri-valued judgement.
    pub value: RatingValue,
    /// When the rating was submitted.
    pub time: SimTime,
}

impl Rating {
    /// Construct a rating.
    pub fn new(rater: NodeId, ratee: NodeId, value: RatingValue, time: SimTime) -> Self {
        Rating { rater, ratee, value, time }
    }

    /// Shorthand for a positive rating.
    pub fn positive(rater: NodeId, ratee: NodeId, time: SimTime) -> Self {
        Rating::new(rater, ratee, RatingValue::Positive, time)
    }

    /// Shorthand for a neutral rating.
    pub fn neutral(rater: NodeId, ratee: NodeId, time: SimTime) -> Self {
        Rating::new(rater, ratee, RatingValue::Neutral, time)
    }

    /// Shorthand for a negative rating.
    pub fn negative(rater: NodeId, ratee: NodeId, time: SimTime) -> Self {
        Rating::new(rater, ratee, RatingValue::Negative, time)
    }

    /// Whether the rating is a self-rating (always suspicious; reputation
    /// systems reject these at ingestion).
    #[inline]
    pub fn is_self_rating(&self) -> bool {
        self.rater == self.ratee
    }
}

/// An append-only log of ratings, ordered by insertion.
///
/// The log is the ground truth from which period-scoped
/// [`InteractionHistory`] views are derived (the paper's period `T`).
#[derive(Clone, Debug, Default)]
pub struct RatingLog {
    ratings: Vec<Rating>,
}

impl RatingLog {
    /// Empty log.
    pub fn new() -> Self {
        RatingLog::default()
    }

    /// Empty log with pre-reserved capacity (avoids reallocation for large
    /// synthetic traces).
    pub fn with_capacity(cap: usize) -> Self {
        RatingLog { ratings: Vec::with_capacity(cap) }
    }

    /// Append a rating. Self-ratings are rejected (returns `false`), matching
    /// real reputation systems which never let a node rate itself.
    pub fn push(&mut self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        self.ratings.push(rating);
        true
    }

    /// Append many ratings.
    pub fn extend<I: IntoIterator<Item = Rating>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }

    /// Number of ratings recorded.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// All ratings, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Rating> {
        self.ratings.iter()
    }

    /// All ratings as a slice.
    pub fn as_slice(&self) -> &[Rating] {
        &self.ratings
    }

    /// Ratings whose timestamp falls in `window`.
    pub fn in_window(&self, window: TimeWindow) -> impl Iterator<Item = &Rating> {
        self.ratings.iter().filter(move |r| window.contains(r.time))
    }

    /// Ratings received by `ratee`.
    pub fn received_by(&self, ratee: NodeId) -> impl Iterator<Item = &Rating> {
        self.ratings.iter().filter(move |r| r.ratee == ratee)
    }

    /// Ratings issued by `rater`.
    pub fn issued_by(&self, rater: NodeId) -> impl Iterator<Item = &Rating> {
        self.ratings.iter().filter(move |r| r.rater == rater)
    }

    /// Build the aggregate [`InteractionHistory`] over the whole log.
    pub fn history(&self) -> InteractionHistory {
        let mut h = InteractionHistory::new();
        for r in &self.ratings {
            h.record(*r);
        }
        h
    }

    /// Build the [`InteractionHistory`] restricted to one period `T`.
    pub fn history_in(&self, window: TimeWindow) -> InteractionHistory {
        let mut h = InteractionHistory::new();
        for r in self.in_window(window) {
            h.record(*r);
        }
        h
    }
}

impl FromIterator<Rating> for RatingLog {
    fn from_iter<T: IntoIterator<Item = Rating>>(iter: T) -> Self {
        let mut log = RatingLog::new();
        log.extend(iter);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(rater: u64, ratee: u64, v: RatingValue, t: u64) -> Rating {
        Rating::new(NodeId(rater), NodeId(ratee), v, SimTime(t))
    }

    #[test]
    fn signed_values_match_ebay_scale() {
        assert_eq!(RatingValue::Negative.signed(), -1);
        assert_eq!(RatingValue::Neutral.signed(), 0);
        assert_eq!(RatingValue::Positive.signed(), 1);
    }

    #[test]
    fn amazon_star_classification_matches_paper() {
        assert_eq!(RatingValue::from_amazon_stars(1), RatingValue::Negative);
        assert_eq!(RatingValue::from_amazon_stars(2), RatingValue::Negative);
        assert_eq!(RatingValue::from_amazon_stars(3), RatingValue::Neutral);
        assert_eq!(RatingValue::from_amazon_stars(4), RatingValue::Positive);
        assert_eq!(RatingValue::from_amazon_stars(5), RatingValue::Positive);
    }

    #[test]
    #[should_panic(expected = "must be 1..=5")]
    fn amazon_star_zero_rejected() {
        let _ = RatingValue::from_amazon_stars(0);
    }

    #[test]
    fn continuous_binarization_uses_threshold() {
        assert_eq!(RatingValue::from_continuous(0.05, 0.05), RatingValue::Positive);
        assert_eq!(RatingValue::from_continuous(0.049, 0.05), RatingValue::Negative);
    }

    #[test]
    fn try_constructors_reject_hostile_values() {
        assert_eq!(
            RatingValue::try_from_amazon_stars(0),
            Err(RatingValueError::OutOfRangeStars(0))
        );
        assert_eq!(
            RatingValue::try_from_amazon_stars(6),
            Err(RatingValueError::OutOfRangeStars(6))
        );
        assert_eq!(RatingValue::try_from_amazon_stars(3), Ok(RatingValue::Neutral));
        assert!(matches!(
            RatingValue::try_from_continuous(f64::NAN, 0.5),
            Err(RatingValueError::NonFinite(_))
        ));
        assert!(matches!(
            RatingValue::try_from_continuous(f64::INFINITY, 0.5),
            Err(RatingValueError::NonFinite(_))
        ));
        assert!(matches!(
            RatingValue::try_from_continuous(0.9, f64::NAN),
            Err(RatingValueError::NonFinite(_))
        ));
        assert_eq!(RatingValue::try_from_continuous(0.9, 0.5), Ok(RatingValue::Positive));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_continuous_score_rejected_at_boundary() {
        let _ = RatingValue::from_continuous(f64::NAN, 0.5);
    }

    #[test]
    fn display_is_signed() {
        assert_eq!(RatingValue::Positive.to_string(), "+1");
        assert_eq!(RatingValue::Neutral.to_string(), "0");
        assert_eq!(RatingValue::Negative.to_string(), "-1");
    }

    #[test]
    fn self_ratings_are_rejected() {
        let mut log = RatingLog::new();
        assert!(!log.push(r(1, 1, RatingValue::Positive, 0)));
        assert!(log.push(r(1, 2, RatingValue::Positive, 0)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn window_filtering_selects_period() {
        let log: RatingLog = vec![
            r(1, 2, RatingValue::Positive, 0),
            r(1, 2, RatingValue::Positive, 5),
            r(3, 2, RatingValue::Negative, 10),
        ]
        .into_iter()
        .collect();
        let w = TimeWindow::new(SimTime(0), SimTime(6));
        assert_eq!(log.in_window(w).count(), 2);
        let h = log.history_in(w);
        assert_eq!(h.ratings_for(NodeId(2)), 2);
    }

    #[test]
    fn received_and_issued_views() {
        let log: RatingLog = vec![
            r(1, 2, RatingValue::Positive, 0),
            r(2, 1, RatingValue::Positive, 0),
            r(3, 2, RatingValue::Negative, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(log.received_by(NodeId(2)).count(), 2);
        assert_eq!(log.issued_by(NodeId(2)).count(), 1);
        assert_eq!(log.received_by(NodeId(9)).count(), 0);
    }

    #[test]
    fn history_aggregates_whole_log() {
        let log: RatingLog = vec![
            r(1, 2, RatingValue::Positive, 0),
            r(3, 2, RatingValue::Negative, 1),
            r(1, 2, RatingValue::Positive, 2),
        ]
        .into_iter()
        .collect();
        let h = log.history();
        assert_eq!(h.ratings_from_to(NodeId(1), NodeId(2)), 2);
        assert_eq!(h.positive_from_to(NodeId(1), NodeId(2)), 2);
        assert_eq!(h.signed_reputation(NodeId(2)), 1);
    }
}
