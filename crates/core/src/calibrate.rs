//! Empirical threshold calibration (§IV.B / future work §VI).
//!
//! "`T_a` and `T_b` can be determined by the historical data of `a` and `b`
//! of pairs of nodes with high interaction frequency." This module turns
//! that sentence into code: collect the `(a, b)` observations of every
//! frequent rater→ratee pair in a history, summarize their distributions,
//! and propose thresholds that separate the boosting cluster (`a` near 1,
//! `b` low) from ordinary loyal-customer pairs.

use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::NodeId;
use collusion_reputation::thresholds::Thresholds;

/// One frequent pair's observed fractions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairObservation {
    /// The rater.
    pub rater: NodeId,
    /// The ratee.
    pub ratee: NodeId,
    /// Rating count `N(j,i)`.
    pub count: u64,
    /// Positive fraction from the rater (`a`).
    pub a: f64,
    /// Community positive fraction (`b`).
    pub b: f64,
}

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleSummary {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl SampleSummary {
    /// Summarize a sample (empty samples yield all-zero summaries).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return SampleSummary::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        let pct = |p: f64| sorted[(((n - 1) as f64) * p).round() as usize];
        SampleSummary {
            n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
            p10: pct(0.10),
            p50: pct(0.50),
            p90: pct(0.90),
        }
    }
}

/// A calibration result: the observations, their summaries, and a proposed
/// threshold set.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Frequency threshold used to select pairs.
    pub t_n: u64,
    /// All frequent-pair observations.
    pub observations: Vec<PairObservation>,
    /// Distribution of `a` over the frequent pairs.
    pub a_summary: SampleSummary,
    /// Distribution of `b` over the frequent pairs.
    pub b_summary: SampleSummary,
    /// Proposed thresholds.
    pub proposed: Thresholds,
}

/// Collect frequent-pair observations and propose thresholds.
///
/// The proposal rule: boosting pairs concentrate at `a ≈ 1`, so `T_a` is
/// set at the 10th percentile of the high-`a` cluster (`a > 0.5`), floored
/// at 0.75; ordinary frequent customers have `b` near the platform's
/// positive base rate, so `T_b` is the 10th percentile of `b` among
/// high-`a` pairs, ceilinged at the overall median of `b` (flagging only
/// community outliers). `T_R` is carried over from `base`.
pub fn calibrate(
    history: &InteractionHistory,
    nodes: &[NodeId],
    t_n: u64,
    base: Thresholds,
) -> Calibration {
    let mut observations = Vec::new();
    for &ratee in nodes {
        for &rater in history.raters_of(ratee) {
            let c = history.pair(rater, ratee);
            if c.total < t_n {
                continue;
            }
            let a = c.positive_fraction().unwrap_or(0.0);
            let b = history.fraction_b(rater, ratee).unwrap_or(1.0);
            observations.push(PairObservation { rater, ratee, count: c.total, a, b });
        }
    }
    observations.sort_by_key(|o| (o.ratee, o.rater));
    let a_values: Vec<f64> = observations.iter().map(|o| o.a).collect();
    let b_values: Vec<f64> = observations.iter().map(|o| o.b).collect();
    let a_summary = SampleSummary::of(&a_values);
    let b_summary = SampleSummary::of(&b_values);

    // threshold proposal (see doc comment)
    let high_a: Vec<&PairObservation> = observations.iter().filter(|o| o.a > 0.5).collect();
    let t_a = if high_a.is_empty() {
        base.t_a
    } else {
        let s = SampleSummary::of(&high_a.iter().map(|o| o.a).collect::<Vec<_>>());
        s.p10.max(0.75)
    };
    let t_b = if high_a.is_empty() {
        base.t_b
    } else {
        let s = SampleSummary::of(&high_a.iter().map(|o| o.b).collect::<Vec<_>>());
        // flag pairs whose community fraction is an outlier on the low
        // side: a small margin above the observed low cluster, never past
        // the halfway point (a community that is half-negative is ambiguous)
        (s.p10 + 0.05).min(0.5)
    };
    Calibration {
        t_n,
        observations,
        a_summary,
        b_summary,
        proposed: Thresholds::new(base.t_r, t_n, t_a.clamp(0.0, 1.0), t_b.clamp(0.0, 1.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;

    #[test]
    fn summary_percentiles() {
        let s = SampleSummary::of(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.p50, 0.5);
        assert_eq!(s.mean, 0.5);
        assert_eq!(SampleSummary::of(&[]), SampleSummary::default());
    }

    #[test]
    fn calibration_recovers_boosting_cluster() {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        // three boosting pairs: a = 1, community negative
        for (b, s) in [(10u64, 1u64), (11, 2), (12, 3)] {
            for _ in 0..30 {
                h.record(Rating::positive(NodeId(b), NodeId(s), tick()));
            }
            for k in 0..10 {
                h.record(Rating::negative(NodeId(20 + k), NodeId(s), tick()));
            }
        }
        // two loyal-customer pairs: a ≈ 0.8, community positive
        for (b, s) in [(13u64, 4u64), (14, 5)] {
            for i in 0..30 {
                let r = if i % 5 == 0 {
                    Rating::negative(NodeId(b), NodeId(s), tick())
                } else {
                    Rating::positive(NodeId(b), NodeId(s), tick())
                };
                h.record(r);
            }
            for k in 0..10 {
                h.record(Rating::positive(NodeId(20 + k), NodeId(s), tick()));
            }
        }
        let nodes: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let cal = calibrate(&h, &nodes, 20, Thresholds::PAPER);
        assert_eq!(cal.observations.len(), 5);
        assert!(cal.a_summary.max == 1.0);
        // proposed thresholds separate boosters (a=1, b=0) from loyal
        // customers (a=0.8, b=1.0)
        let th = cal.proposed;
        let boosters = cal
            .observations
            .iter()
            .filter(|o| th.a_suspicious(o.a) && th.b_suspicious(o.b))
            .count();
        assert_eq!(boosters, 3, "proposal {th:?} over {:?}", cal.observations);
    }

    #[test]
    fn empty_history_falls_back_to_base() {
        let h = InteractionHistory::new();
        let cal = calibrate(&h, &[NodeId(1)], 20, Thresholds::PAPER);
        assert!(cal.observations.is_empty());
        assert_eq!(cal.proposed.t_a, Thresholds::PAPER.t_a);
        assert_eq!(cal.proposed.t_b, Thresholds::PAPER.t_b);
    }

    #[test]
    fn frequency_filter_applies() {
        let mut h = InteractionHistory::new();
        for t in 0..10u64 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
        }
        let cal = calibrate(&h, &[NodeId(2)], 20, Thresholds::PAPER);
        assert!(cal.observations.is_empty(), "10 < T_N = 20 must be filtered");
        let cal = calibrate(&h, &[NodeId(2)], 10, Thresholds::PAPER);
        assert_eq!(cal.observations.len(), 1);
        assert_eq!(cal.observations[0].count, 10);
    }
}
