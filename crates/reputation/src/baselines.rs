//! Related-work baseline reputation schemes (paper §II).
//!
//! The paper groups existing collusion-mitigating approaches into three
//! families; this module implements representatives of the first two so the
//! simulator can compare them against EigenTrust and the detectors:
//!
//! * **First-hand-only** reputation (Feldman et al. \[8\], PET \[13\], NICE
//!   \[17\], Selçuk et al. \[18\]): "a node only believes its own
//!   observations about other nodes' behaviors, and exchanges of reputation
//!   information between nodes are disallowed." Collusive rating exchanges
//!   are invisible to third parties by construction — at the price of slow
//!   learning (every client must be burned by every bad server personally).
//!
//! * **TrustGuard-style dampening** (Srivatsa et al. \[21\]): a node's
//!   trustworthiness estimate "incorporates historical reputations and
//!   behavioral fluctuations" — the current period's score is blended with
//!   the historical average and discounted by observed volatility, blunting
//!   oscillation attacks (build reputation, milk it, repeat).

use crate::history::InteractionHistory;
use crate::id::NodeId;

/// First-hand-only (personalized) reputation.
///
/// Stateless: every query reads the client's own pair counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstHandEngine;

impl FirstHandEngine {
    /// `client`'s personal signed score for `node` (0 when the client never
    /// interacted with it).
    pub fn personal_score(history: &InteractionHistory, client: NodeId, node: NodeId) -> i64 {
        history.pair(client, node).signed()
    }

    /// The client's personally most-trusted candidate (ties: lowest id);
    /// `None` when `candidates` is empty.
    pub fn select(
        history: &InteractionHistory,
        client: NodeId,
        candidates: &[NodeId],
    ) -> Option<NodeId> {
        candidates
            .iter()
            .copied()
            .map(|c| (c, Self::personal_score(history, client, c)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }
}

/// Configuration of the TrustGuard-style dampened estimator.
#[derive(Clone, Copy, Debug)]
pub struct DampenedConfig {
    /// Weight of the current period vs the historical average (TrustGuard's
    /// fading factor).
    pub alpha: f64,
    /// How strongly per-period volatility discounts the estimate
    /// (0 = ignore fluctuations).
    pub fluctuation_penalty: f64,
}

impl Default for DampenedConfig {
    fn default() -> Self {
        DampenedConfig { alpha: 0.5, fluctuation_penalty: 0.5 }
    }
}

/// TrustGuard-style dampened reputation over a sequence of per-period
/// positive fractions.
#[derive(Clone, Copy, Debug, Default)]
pub struct DampenedEngine {
    /// Blend and penalty parameters.
    pub config: DampenedConfig,
}

impl DampenedEngine {
    /// Engine with the given configuration.
    pub fn new(config: DampenedConfig) -> Self {
        DampenedEngine { config }
    }

    /// Fold one node's per-period positive fractions (most recent last)
    /// into a dampened trust estimate in `[0, 1]`.
    ///
    /// `estimate_t = α·score_t + (1−α)·history_{t−1}`, then the final value
    /// is discounted by the mean absolute period-to-period change:
    /// `estimate · (1 − penalty·volatility)`.
    pub fn estimate(&self, period_scores: &[f64]) -> f64 {
        if period_scores.is_empty() {
            return 0.0;
        }
        let a = self.config.alpha;
        let mut est = period_scores[0].clamp(0.0, 1.0);
        let mut volatility_sum = 0.0;
        for w in period_scores.windows(2) {
            est = a * w[1].clamp(0.0, 1.0) + (1.0 - a) * est;
            volatility_sum += (w[1] - w[0]).abs();
        }
        let volatility = if period_scores.len() > 1 {
            volatility_sum / (period_scores.len() - 1) as f64
        } else {
            0.0
        };
        (est * (1.0 - self.config.fluctuation_penalty * volatility)).clamp(0.0, 1.0)
    }

    /// Estimate from per-period histories for one node (positive fraction
    /// per period; unrated periods count as the neutral 0.5 — no evidence
    /// either way).
    pub fn estimate_from_periods(&self, periods: &[InteractionHistory], node: NodeId) -> f64 {
        let scores: Vec<f64> =
            periods.iter().map(|h| h.positive_fraction(node).unwrap_or(0.5)).collect();
        self.estimate(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::SimTime;
    use crate::rating::Rating;

    #[test]
    fn first_hand_sees_only_own_experience() {
        let mut h = InteractionHistory::new();
        // colluders 1 and 2 boost each other massively
        for t in 0..100 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
            h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
        }
        // client 9's own experience: one bad file from n2, one good from n3
        h.record(Rating::negative(NodeId(9), NodeId(2), SimTime(200)));
        h.record(Rating::positive(NodeId(9), NodeId(3), SimTime(201)));
        // the collusive boost is invisible to client 9
        assert_eq!(FirstHandEngine::personal_score(&h, NodeId(9), NodeId(2)), -1);
        assert_eq!(FirstHandEngine::personal_score(&h, NodeId(9), NodeId(1)), 0);
        assert_eq!(
            FirstHandEngine::select(&h, NodeId(9), &[NodeId(1), NodeId(2), NodeId(3)]),
            Some(NodeId(3))
        );
    }

    #[test]
    fn first_hand_select_ties_break_low_id() {
        let h = InteractionHistory::new();
        assert_eq!(
            FirstHandEngine::select(&h, NodeId(9), &[NodeId(7), NodeId(3), NodeId(5)]),
            Some(NodeId(3))
        );
        assert_eq!(FirstHandEngine::select(&h, NodeId(9), &[]), None);
    }

    #[test]
    fn dampened_steady_good_behaviour_converges_high() {
        let e = DampenedEngine::default();
        let est = e.estimate(&[0.9; 10]);
        assert!((est - 0.9).abs() < 1e-9, "steady 0.9 should estimate 0.9, got {est}");
    }

    #[test]
    fn dampened_oscillation_is_penalized() {
        let e = DampenedEngine::default();
        let steady = e.estimate(&[0.5; 10]);
        let oscillating = e.estimate(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        // same long-run mean (0.5), but the oscillator is discounted
        assert!(
            oscillating < steady - 0.1,
            "oscillator {oscillating} should sit well below steady {steady}"
        );
    }

    #[test]
    fn dampened_milking_attack_is_slow_to_recover() {
        // build reputation for 8 periods, then milk it: the estimate drops
        // and the earlier good history cannot hide the defection
        let e = DampenedEngine::new(DampenedConfig { alpha: 0.5, fluctuation_penalty: 0.5 });
        let honest = e.estimate(&[0.9; 10]);
        let milker = e.estimate(&[0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.0, 0.0]);
        assert!(milker < honest * 0.5, "milker {milker} vs honest {honest}");
    }

    #[test]
    fn dampened_edge_cases() {
        let e = DampenedEngine::default();
        assert_eq!(e.estimate(&[]), 0.0);
        assert_eq!(e.estimate(&[1.0]), 1.0);
        // out-of-range inputs are clamped
        assert!(e.estimate(&[7.0, -3.0]) <= 1.0);
    }

    #[test]
    fn dampened_from_period_histories() {
        let mut good = InteractionHistory::new();
        for t in 0..10 {
            good.record(Rating::positive(NodeId(1), NodeId(5), SimTime(t)));
        }
        let mut bad = InteractionHistory::new();
        for t in 0..10 {
            bad.record(Rating::negative(NodeId(2), NodeId(5), SimTime(t)));
        }
        // recency-weighted blend (α > 0.5 so the newest period dominates)
        let e = DampenedEngine::new(DampenedConfig { alpha: 0.7, fluctuation_penalty: 0.5 });
        let rising = e.estimate_from_periods(&[bad.clone(), bad.clone(), good.clone()], NodeId(5));
        let falling = e.estimate_from_periods(&[good.clone(), good, bad], NodeId(5));
        assert!(rising > falling, "recent behaviour must dominate: {rising} vs {falling}");
        // unknown node reads neutral-ish
        let neutral = e.estimate_from_periods(&[InteractionHistory::new()], NodeId(9));
        assert_eq!(neutral, 0.5);
    }
}
