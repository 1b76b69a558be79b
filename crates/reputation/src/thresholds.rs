//! Detection thresholds `T_R`, `T_N`, `T_a`, `T_b`.
//!
//! §IV.B: `T_a` and `T_b` bound the positive-rating fractions `a` (from the
//! suspected partner) and `b` (from everyone else); `T_N` bounds the pair
//! rating frequency in the period `T`; `T_R` is the reputation threshold
//! above which nodes are considered trustworthy (and hence candidates for
//! collusion checks, per C1).
//!
//! The paper's trace calibration: suspicious pairs at threshold 20 ratings /
//! year had average `a = 98.37 %` and `b = 1.63 %`; the pair-frequency
//! ceiling for normal nodes was 15/year vs 55/year for colluders, giving
//! `T_N = 20`. "If we want to reduce the false negatives …, we can decrease
//! `T_a` and increase `T_b`" — [`Thresholds::relax`] / [`Thresholds::tighten`]
//! implement that knob.

/// The four detection thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// `T_R`: minimum global reputation for a node to count as high-reputed.
    pub t_r: f64,
    /// `T_N`: minimum number of ratings from one rater in the period `T` to
    /// count as "frequent" (paper: 20/year from the Amazon trace).
    pub t_n: u64,
    /// `T_a`: minimum fraction of positive ratings from the suspected
    /// partner (paper trace average: 0.9837).
    pub t_a: f64,
    /// `T_b`: maximum fraction of positive ratings from everyone else
    /// (paper trace average: 0.0163).
    pub t_b: f64,
}

impl Thresholds {
    /// Thresholds calibrated from the paper's Amazon trace analysis:
    /// `T_N = 20` per period, `T_a = 0.8`, `T_b = 0.2`, `T_R = 0.05`
    /// (the simulation's reputation threshold, §V).
    pub const PAPER: Thresholds = Thresholds { t_r: 0.05, t_n: 20, t_a: 0.8, t_b: 0.2 };

    /// Strict thresholds matching the raw trace statistics (`a ≈ 0.9837`,
    /// `b ≈ 0.0163`): fewest false positives.
    pub const STRICT: Thresholds = Thresholds { t_r: 0.05, t_n: 20, t_a: 0.9837, t_b: 0.0163 };

    /// Construct thresholds; validates all ranges.
    pub fn new(t_r: f64, t_n: u64, t_a: f64, t_b: f64) -> Self {
        assert!((0.0..=1.0).contains(&t_a), "T_a must be in [0,1], got {t_a}");
        assert!((0.0..=1.0).contains(&t_b), "T_b must be in [0,1], got {t_b}");
        assert!(t_r.is_finite(), "T_R must be finite");
        Thresholds { t_r, t_n, t_a, t_b }
    }

    /// Decrease `T_a` and increase `T_b` by `delta` (clamped to `[0, 1]`),
    /// reducing false negatives at the cost of more false positives.
    pub fn relax(&self, delta: f64) -> Thresholds {
        Thresholds {
            t_a: (self.t_a - delta).clamp(0.0, 1.0),
            t_b: (self.t_b + delta).clamp(0.0, 1.0),
            ..*self
        }
    }

    /// Increase `T_a` and decrease `T_b` by `delta` (clamped to `[0, 1]`),
    /// reducing false positives at the cost of more false negatives.
    pub fn tighten(&self, delta: f64) -> Thresholds {
        Thresholds {
            t_a: (self.t_a + delta).clamp(0.0, 1.0),
            t_b: (self.t_b - delta).clamp(0.0, 1.0),
            ..*self
        }
    }

    /// Whether a reputation value qualifies as high-reputed (`R ≥ T_R`).
    #[inline]
    pub fn is_high_reputed(&self, reputation: f64) -> bool {
        reputation >= self.t_r
    }

    /// Whether a pair rating count qualifies as frequent (`N ≥ T_N`).
    #[inline]
    pub fn is_frequent(&self, count: u64) -> bool {
        count >= self.t_n
    }

    /// Whether the partner's positive fraction is suspiciously high
    /// (`a ≥ T_a`).
    #[inline]
    pub fn a_suspicious(&self, a: f64) -> bool {
        a >= self.t_a
    }

    /// Whether the community's positive fraction is suspiciously low
    /// (`b < T_b`).
    #[inline]
    pub fn b_suspicious(&self, b: f64) -> bool {
        b < self.t_b
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iii() {
        let t = Thresholds::PAPER;
        assert_eq!(t.t_n, 20);
        assert!(t.is_high_reputed(0.05));
        assert!(!t.is_high_reputed(0.049));
        assert!(t.is_frequent(20));
        assert!(!t.is_frequent(19));
    }

    #[test]
    fn strict_matches_trace_statistics() {
        let t = Thresholds::STRICT;
        assert!(t.a_suspicious(0.99));
        assert!(!t.a_suspicious(0.98));
        assert!(t.b_suspicious(0.016));
        assert!(!t.b_suspicious(0.017));
    }

    #[test]
    fn relax_moves_both_thresholds_toward_detection() {
        let t = Thresholds::PAPER.relax(0.1);
        assert!((t.t_a - 0.7).abs() < 1e-12);
        assert!((t.t_b - 0.3).abs() < 1e-12);
        // relax then tighten round-trips
        let back = t.tighten(0.1);
        assert!((back.t_a - Thresholds::PAPER.t_a).abs() < 1e-12);
        assert!((back.t_b - Thresholds::PAPER.t_b).abs() < 1e-12);
    }

    #[test]
    fn relax_clamps_to_unit_interval() {
        let t = Thresholds::PAPER.relax(5.0);
        assert_eq!(t.t_a, 0.0);
        assert_eq!(t.t_b, 1.0);
        let t = Thresholds::PAPER.tighten(5.0);
        assert_eq!(t.t_a, 1.0);
        assert_eq!(t.t_b, 0.0);
    }

    #[test]
    fn boundary_semantics_a_inclusive_b_exclusive() {
        let t = Thresholds::new(0.05, 20, 0.8, 0.2);
        assert!(t.a_suspicious(0.8)); // a ≥ T_a
        assert!(!t.b_suspicious(0.2)); // b < T_b strictly
        assert!(t.b_suspicious(0.19999));
    }

    #[test]
    #[should_panic(expected = "T_a must be in")]
    fn invalid_ta_rejected() {
        let _ = Thresholds::new(0.0, 1, 1.5, 0.0);
    }
}
