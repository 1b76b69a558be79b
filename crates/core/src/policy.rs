//! Detection policy: the strict §IV procedure vs. the extended policy the
//! evaluation scenarios need.
//!
//! The paper's §IV procedure (a) requires *mutual* boosting before flagging
//! a pair and (b) computes the community fraction `b` over *all* raters
//! other than the tested partner. Two of its own evaluation results require
//! generalizations, which we make explicit and configurable instead of
//! silently baking in:
//!
//! * **Multi-booster pollution.** In Figures 7/11 node `n_4` is boosted by
//!   *two* partners (`n_5` and the compromised pretrusted `n_1`). When `b`
//!   for the pair `(n_4, n_5)` includes `n_1`'s thousands of positive
//!   ratings, `b` is high and the pair escapes. Setting
//!   [`DetectionPolicy::community_excludes_frequent`] computes `b` only over
//!   raters *below the frequency threshold* `T_N` — the actual community —
//!   which matches the collusion model's C2 ("receive low ratings from
//!   other nodes", i.e. nodes outside the colluding collective).
//!
//! * **One-directional boosting.** A compromised pretrusted node serves
//!   authentic files, so its own reputation is community-backed and the
//!   reverse direction test can never fire; yet Figure 11 zeroes it. The
//!   paper's own collusion definition covers this: colluders "give each
//!   other high local reputation values **and (or)** give all other peers
//!   low local reputation values" (§I) — boosting alone is conspiring.
//!   Clearing [`DetectionPolicy::require_mutual`] implicates both ends of a
//!   confirmed boosting direction.
//!
//! Defaults are the strict §IV readings; the simulator's scenarios use
//! [`DetectionPolicy::EXTENDED`].

/// Configuration switches for the detection procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectionPolicy {
    /// Require evidence in both directions before flagging a pair
    /// (strict §IV). When `false`, a confirmed boosting direction
    /// implicates both nodes.
    pub require_mutual: bool,
    /// Compute the community fraction `b` only over raters below the
    /// frequency threshold `T_N` (excludes fellow boosters). When `false`,
    /// `b` spans every rater except the tested partner (strict §IV).
    pub community_excludes_frequent: bool,
}

impl DetectionPolicy {
    /// The strict §IV procedure.
    pub const STRICT: DetectionPolicy =
        DetectionPolicy { require_mutual: true, community_excludes_frequent: false };

    /// The extended policy used by the evaluation scenarios (Figures 8–13).
    pub const EXTENDED: DetectionPolicy =
        DetectionPolicy { require_mutual: false, community_excludes_frequent: true };
}

impl Default for DetectionPolicy {
    fn default() -> Self {
        DetectionPolicy::STRICT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_is_default() {
        assert_eq!(DetectionPolicy::default(), DetectionPolicy::STRICT);
        assert_eq!(
            DetectionPolicy::STRICT,
            DetectionPolicy { require_mutual: true, community_excludes_frequent: false }
        );
    }

    #[test]
    fn extended_flips_both_switches() {
        assert_eq!(
            DetectionPolicy::EXTENDED,
            DetectionPolicy { require_mutual: false, community_excludes_frequent: true }
        );
    }
}
