//! The collusion model (§III–§IV.B, Figure 3).
//!
//! The paper's trace analysis yields five behaviour characteristics
//! ([`Characteristic`]); the collusion model combines them: *two* nodes (C5)
//! *frequently* (C4) rate *high* for each other (C3) to gain *high global
//! reputation* (C1) while *receiving low ratings from everyone else* (C2).
//!
//! A detected instance of the model is a [`SuspectPair`]: an unordered pair
//! of node ids with the per-direction evidence that triggered the detection.

use collusion_reputation::id::NodeId;
use std::fmt;

/// The five collusion characteristics the paper derives from real traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Characteristic {
    /// C1 — collusion leads to high reputation of the colluders.
    C1HighReputation,
    /// C2 — among high-reputed nodes, colluders receive more low ratings
    /// than non-colluders.
    C2LowCommunityRatings,
    /// C3 — colluders frequently submit very high ratings for conspirators.
    C3MutualHighRatings,
    /// C4 — rating frequency between colluders far exceeds the frequency
    /// between normal nodes (55/yr vs 15/yr in the Amazon trace).
    C4HighFrequency,
    /// C5 — collusion is almost always pair-wise; groups of ≥3 are rare.
    C5PairWise,
}

impl Characteristic {
    /// All five characteristics in paper order.
    pub const ALL: [Characteristic; 5] = [
        Characteristic::C1HighReputation,
        Characteristic::C2LowCommunityRatings,
        Characteristic::C3MutualHighRatings,
        Characteristic::C4HighFrequency,
        Characteristic::C5PairWise,
    ];

    /// The paper's shorthand (C1…C5).
    pub fn code(self) -> &'static str {
        match self {
            Characteristic::C1HighReputation => "C1",
            Characteristic::C2LowCommunityRatings => "C2",
            Characteristic::C3MutualHighRatings => "C3",
            Characteristic::C4HighFrequency => "C4",
            Characteristic::C5PairWise => "C5",
        }
    }
}

impl fmt::Display for Characteristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Evidence gathered for one direction of a suspected pair: rater `j`
/// boosting ratee `i`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirectionEvidence {
    /// `N(j,i)`: how often `j` rated `i` in the period.
    pub pair_ratings: u64,
    /// The positive fraction `a` from the partner (basic detector) — `None`
    /// for the optimized detector, which never computes it.
    pub fraction_a: Option<f64>,
    /// The community positive fraction `b` — `None` for the optimized
    /// detector.
    pub fraction_b: Option<f64>,
    /// Signed reputation `R_i` used in the band check (optimized detector).
    pub signed_reputation: i64,
}

/// An unordered pair of suspected colluders with per-direction evidence.
///
/// The pair is stored with `low < high` so equal pairs compare equal
/// regardless of detection order. Under the strict §IV policy both
/// directions carry evidence; under the extended one-directional policy
/// (see `policy`), the unconfirmed direction is `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspectPair {
    /// The smaller node id.
    pub low: NodeId,
    /// The larger node id.
    pub high: NodeId,
    /// Evidence for "low boosts high", if that direction was confirmed.
    pub low_boosts_high: Option<DirectionEvidence>,
    /// Evidence for "high boosts low", if that direction was confirmed.
    pub high_boosts_low: Option<DirectionEvidence>,
}

impl SuspectPair {
    /// Construct a pair, normalizing order. `a_boosts_b` is evidence that
    /// `a` boosts `b`; `b_boosts_a` the reverse. Panics if `a == b` or if
    /// neither direction has evidence.
    pub fn new(
        a: NodeId,
        b: NodeId,
        a_boosts_b: Option<DirectionEvidence>,
        b_boosts_a: Option<DirectionEvidence>,
    ) -> Self {
        assert_ne!(a, b, "a node cannot collude with itself");
        assert!(
            a_boosts_b.is_some() || b_boosts_a.is_some(),
            "a suspect pair needs evidence in at least one direction"
        );
        if a < b {
            SuspectPair {
                low: a,
                high: b,
                low_boosts_high: a_boosts_b,
                high_boosts_low: b_boosts_a,
            }
        } else {
            SuspectPair {
                low: b,
                high: a,
                low_boosts_high: b_boosts_a,
                high_boosts_low: a_boosts_b,
            }
        }
    }

    /// Whether both directions carry evidence (strict §IV detection).
    pub fn is_mutual(&self) -> bool {
        self.low_boosts_high.is_some() && self.high_boosts_low.is_some()
    }

    /// The unordered id pair, for set comparisons.
    pub fn ids(&self) -> (NodeId, NodeId) {
        (self.low, self.high)
    }

    /// Whether `node` is part of the pair.
    pub fn involves(&self, node: NodeId) -> bool {
        self.low == node || self.high == node
    }

    /// The other member of the pair, if `node` belongs to it.
    pub fn partner_of(&self, node: NodeId) -> Option<NodeId> {
        if node == self.low {
            Some(self.high)
        } else if node == self.high {
            Some(self.low)
        } else {
            None
        }
    }
}

impl fmt::Display for SuspectPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> DirectionEvidence {
        DirectionEvidence {
            pair_ratings: n,
            fraction_a: None,
            fraction_b: None,
            signed_reputation: 0,
        }
    }

    #[test]
    fn characteristics_enumerate_in_paper_order() {
        let codes: Vec<&str> = Characteristic::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, vec!["C1", "C2", "C3", "C4", "C5"]);
        assert_eq!(Characteristic::C4HighFrequency.to_string(), "C4");
    }

    #[test]
    fn pair_normalizes_order_and_evidence() {
        let p = SuspectPair::new(NodeId(9), NodeId(2), Some(ev(55)), Some(ev(40)));
        assert_eq!(p.ids(), (NodeId(2), NodeId(9)));
        // evidence "9 boosts 2" became high_boosts_low
        assert_eq!(p.high_boosts_low.unwrap().pair_ratings, 55);
        assert_eq!(p.low_boosts_high.unwrap().pair_ratings, 40);
        assert!(p.is_mutual());
        let q = SuspectPair::new(NodeId(2), NodeId(9), Some(ev(40)), Some(ev(55)));
        assert_eq!(p, q);
    }

    #[test]
    fn one_directional_pair_not_mutual() {
        let p = SuspectPair::new(NodeId(1), NodeId(2), Some(ev(30)), None);
        assert!(!p.is_mutual());
        assert_eq!(p.low_boosts_high.unwrap().pair_ratings, 30);
        assert!(p.high_boosts_low.is_none());
    }

    #[test]
    #[should_panic(expected = "at least one direction")]
    fn evidence_free_pair_rejected() {
        let _ = SuspectPair::new(NodeId(1), NodeId(2), None, None);
    }

    #[test]
    fn involvement_and_partner() {
        let p = SuspectPair::new(NodeId(1), NodeId(5), Some(ev(1)), Some(ev(1)));
        assert!(p.involves(NodeId(1)));
        assert!(p.involves(NodeId(5)));
        assert!(!p.involves(NodeId(3)));
        assert_eq!(p.partner_of(NodeId(1)), Some(NodeId(5)));
        assert_eq!(p.partner_of(NodeId(5)), Some(NodeId(1)));
        assert_eq!(p.partner_of(NodeId(3)), None);
    }

    #[test]
    #[should_panic(expected = "collude with itself")]
    fn self_pair_rejected() {
        let _ = SuspectPair::new(NodeId(4), NodeId(4), Some(ev(1)), Some(ev(1)));
    }

    #[test]
    fn display_formats() {
        let p = SuspectPair::new(NodeId(3), NodeId(1), Some(ev(0)), Some(ev(0)));
        assert_eq!(p.to_string(), "(n1, n3)");
    }
}
