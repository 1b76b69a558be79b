//! Property-based tests for the reputation substrate.

use collusion_reputation::id::TimeWindow;
use collusion_reputation::prelude::*;
use collusion_reputation::trust_matrix::TrustMatrix;
use proptest::prelude::*;

fn ratings_strategy(n: u64, max_len: usize) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..n, 0..n, 0..3u8, 0..500u64).prop_map(move |(a, b, v, t)| {
            let value = match v {
                0 => RatingValue::Negative,
                1 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            Rating::new(NodeId(a), NodeId(b), value, SimTime(t))
        }),
        0..max_len,
    )
}

proptest! {
    /// Log → history and log → windowed histories are consistent: the
    /// union of two disjoint windows equals the full-window history.
    #[test]
    fn window_histories_partition(ratings in ratings_strategy(6, 300), split in 0..500u64) {
        let log: RatingLog = ratings.iter().copied().collect();
        let first = log.history_in(TimeWindow::new(SimTime(0), SimTime(split)));
        let second = log.history_in(TimeWindow::new(SimTime(split), SimTime(500)));
        let full = log.history_in(TimeWindow::new(SimTime(0), SimTime(500)));
        let mut merged = first.clone();
        merged.merge(&second);
        for i in (0..6).map(NodeId) {
            prop_assert_eq!(merged.ratings_for(i), full.ratings_for(i));
            prop_assert_eq!(merged.signed_reputation(i), full.signed_reputation(i));
        }
    }

    /// The signed reputation always equals positives − negatives and is
    /// bounded by ±(ratings received).
    #[test]
    fn signed_reputation_bounds(ratings in ratings_strategy(6, 300)) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        for i in (0..6).map(NodeId) {
            let t = h.totals(i);
            prop_assert_eq!(h.signed_reputation(i), t.positive as i64 - t.negative as i64);
            prop_assert!(h.signed_reputation(i).unsigned_abs() <= t.total);
            if let Some(f) = h.positive_fraction(i) {
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    /// Trust matrices are always row-stochastic and non-negative.
    #[test]
    fn trust_matrix_row_stochastic(ratings in ratings_strategy(8, 400)) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let m = TrustMatrix::from_history(&h, 8);
        prop_assert!(m.is_row_stochastic(1e-9));
        for i in 0..8 {
            for &(_, v) in m.row(i) {
                prop_assert!(v > 0.0 && v <= 1.0 + 1e-12);
            }
        }
    }

    /// transpose_mul preserves probability mass when the input is a
    /// distribution (rows are stochastic; empty rows redirect via p).
    #[test]
    fn transpose_mul_preserves_mass(ratings in ratings_strategy(8, 400)) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let m = TrustMatrix::from_history(&h, 8);
        let p = EigenTrust::pretrusted_distribution(8, &[NodeId(0)]);
        let t = vec![1.0 / 8.0; 8];
        let mut out = vec![0.0; 8];
        m.transpose_mul_with_fallback(&t, &p, &mut out);
        let mass: f64 = out.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    }

    /// EigenTrust trust is monotone under strictly added praise from a
    /// pretrusted node (more positive local trust toward a node never
    /// reduces its share of the pretrusted node's row).
    #[test]
    fn eigentrust_pretrusted_praise_helps(ratings in ratings_strategy(8, 200)) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let engine = EigenTrust::default();
        let before = engine.compute_from_history(&h, 8, &[NodeId(0)]);
        let mut h2 = h.clone();
        for t in 0..50 {
            h2.record(Rating::positive(NodeId(0), NodeId(5), SimTime(1000 + t)));
        }
        let after = engine.compute_from_history(&h2, 8, &[NodeId(0)]);
        prop_assert!(
            after.trust_of(NodeId(5)) + 1e-12 >= before.trust_of(NodeId(5)),
            "pretrusted praise lowered trust: {} -> {}",
            before.trust_of(NodeId(5)),
            after.trust_of(NodeId(5))
        );
    }

    /// Weighted sums: normalized output is a sub-distribution (sums to 1
    /// when any positive mass exists) and pretrusted weighting dominates.
    #[test]
    fn weighted_sum_distribution(ratings in ratings_strategy(8, 300)) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        let res = WeightedSumEngine::default().compute(&h, 8, &[NodeId(0)]);
        let sum: f64 = res.reputation.iter().sum();
        prop_assert!(sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9, "sum {sum}");
        prop_assert!(res.reputation.iter().all(|&v| v >= 0.0));
    }
}
