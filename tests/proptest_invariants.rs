//! Property-based tests (proptest) over the core data structures and the
//! paper's formulas.

use collusion::core::formula::{formula_band, formula_reputation};
use collusion::prelude::*;
use proptest::prelude::*;

/// Strategy: a list of ratings among `n` nodes.
fn ratings_strategy(n: u64, max_len: usize) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..n, 0..n, 0..3u8, 0..1000u64).prop_map(move |(a, b, v, t)| {
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
    /// Table I identities: N_i = N(j,i) + N(−j,i) and the positive/negative
    /// splits always agree with total counts.
    #[test]
    fn table_i_identities(ratings in ratings_strategy(8, 200)) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            h.record(*r);
        }
        for i in (0..8).map(NodeId) {
            let mut sum_pairs = 0u64;
            let mut sum_pos = 0u64;
            let mut sum_neg = 0u64;
            for j in (0..8).map(NodeId) {
                if i == j { continue; }
                sum_pairs += h.ratings_from_to(j, i);
                sum_pos += h.positive_from_to(j, i);
                sum_neg += h.negative_from_to(j, i);
                prop_assert_eq!(h.ratings_excluding(j, i), h.ratings_for(i) - h.ratings_from_to(j, i));
                prop_assert_eq!(h.positive_excluding(j, i), h.totals(i).positive - h.positive_from_to(j, i));
                prop_assert_eq!(h.negative_excluding(j, i), h.totals(i).negative - h.negative_from_to(j, i));
            }
            prop_assert_eq!(sum_pairs, h.ratings_for(i));
            prop_assert_eq!(h.signed_reputation(i), sum_pos as i64 - sum_neg as i64);
        }
    }

    /// Formula (1) equals the exact signed reputation for any ±1 split.
    #[test]
    fn formula_one_exact(n_ji in 0u64..300, extra in 0u64..300, pos_j_frac in 0.0f64..=1.0, pos_o_frac in 0.0f64..=1.0) {
        let n_i = n_ji + extra;
        prop_assume!(n_i > 0);
        let pos_j = (pos_j_frac * n_ji as f64).round() as u64;
        let pos_o = (pos_o_frac * extra as f64).round() as u64;
        let pos_j = pos_j.min(n_ji);
        let pos_o = pos_o.min(extra);
        let a = if n_ji == 0 { 0.0 } else { pos_j as f64 / n_ji as f64 };
        let b = if extra == 0 { 0.0 } else { pos_o as f64 / extra as f64 };
        let expected = (pos_j + pos_o) as i64 - ((n_ji - pos_j) + (extra - pos_o)) as i64;
        let got = formula_reputation(a, b, n_i, n_ji);
        prop_assert!((got - expected as f64).abs() < 1e-6);
    }

    /// Formula (2) band is necessary for the fraction test on any split
    /// with community evidence.
    #[test]
    fn band_necessity(
        n_ji in 1u64..120,
        extra in 1u64..120,
        pos_j in 0u64..120,
        pos_o in 0u64..120,
        t_a in 0.0f64..=1.0,
        t_b in 0.0f64..=1.0,
    ) {
        let pos_j = pos_j.min(n_ji);
        let pos_o = pos_o.min(extra);
        let n_i = n_ji + extra;
        let a = pos_j as f64 / n_ji as f64;
        let b = pos_o as f64 / extra as f64;
        if a >= t_a && b < t_b {
            let r = formula_reputation(a, b, n_i, n_ji);
            let band = formula_band(t_a, t_b, n_i, n_ji);
            prop_assert!(band.contains(r), "a={a} b={b} r={r} band={band:?}");
        }
    }

    /// Optimized's snapshot walk never misses a pair the Basic oracle finds
    /// on the raw history, for arbitrary *binary* (±1) histories and
    /// thresholds (strict policy on both). Neutral ratings
    /// void Formula (1)'s derivation — the band becomes conservative and
    /// may skip pairs the fraction test flags, as `formula.rs` documents —
    /// so the property is stated over the rating model the paper (eBay /
    /// EigenTrust, the simulator) actually uses.
    #[test]
    fn optimized_superset_of_basic(
        ratings in ratings_strategy(10, 400),
        t_n in 1u64..30,
        t_a in 0.5f64..=1.0,
        t_b in 0.0f64..=0.5,
    ) {
        let mut h = InteractionHistory::new();
        for r in &ratings {
            let binary = match r.value {
                RatingValue::Neutral => Rating::new(r.rater, r.ratee, RatingValue::Positive, r.time),
                _ => *r,
            };
            h.record(binary);
        }
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let th = Thresholds::new(1.0, t_n, t_a, t_b);
        let basic = BasicDetector::new(th).detect(&input);
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let opt =
            OptimizedDetector::new(th).detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
        let opt_set: std::collections::BTreeSet<_> = opt.pair_ids().into_iter().collect();
        for p in basic.pair_ids() {
            prop_assert!(opt_set.contains(&p), "optimized missed {p:?}");
        }
    }

    /// The band test degenerates to exact agreement when ratings are ±1
    /// only (no neutrals) — Basic ≡ Optimized requires binary ratings plus
    /// profile uniqueness, so we only check the containment both ways when
    /// every pair profile is all-positive or all-negative.
    #[test]
    fn merge_is_associative_on_counts(
        r1 in ratings_strategy(6, 100),
        r2 in ratings_strategy(6, 100),
    ) {
        let mut a = InteractionHistory::new();
        for r in &r1 { a.record(*r); }
        let mut b = InteractionHistory::new();
        for r in &r2 { b.record(*r); }
        // merged = a ⊎ b must equal recording everything into one history
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = InteractionHistory::new();
        for r in r1.iter().chain(r2.iter()) { direct.record(*r); }
        for i in (0..6).map(NodeId) {
            prop_assert_eq!(merged.ratings_for(i), direct.ratings_for(i));
            prop_assert_eq!(merged.signed_reputation(i), direct.signed_reputation(i));
            for j in (0..6).map(NodeId) {
                prop_assert_eq!(merged.pair(j, i), direct.pair(j, i));
            }
        }
    }

    /// EigenTrust always returns a probability distribution and is
    /// insensitive to rating order.
    #[test]
    fn eigentrust_distribution_and_order_independence(ratings in ratings_strategy(8, 300)) {
        let mut h = InteractionHistory::new();
        for r in &ratings { h.record(*r); }
        let res = EigenTrust::default().compute_from_history(&h, 8, &[NodeId(0)]);
        let sum: f64 = res.trust.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(res.trust.iter().all(|&v| v >= 0.0));
        // reversed insertion order gives identical trust
        let mut h2 = InteractionHistory::new();
        for r in ratings.iter().rev() { h2.record(*r); }
        let res2 = EigenTrust::default().compute_from_history(&h2, 8, &[NodeId(0)]);
        for (x, y) in res.trust.iter().zip(&res2.trust) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Weighted-sum reputations are non-negative, normalized, and monotone
    /// in added positive ratings.
    #[test]
    fn weighted_sum_monotone_in_praise(ratings in ratings_strategy(8, 200), target in 0u64..8) {
        let mut h = InteractionHistory::new();
        for r in &ratings { h.record(*r); }
        let engine = WeightedSumEngine::new(WeightedSumConfig { w_l: 0.2, w_s: 0.5, normalize: false });
        let before = engine.compute(&h, 8, &[]);
        // another in-range rater praises the target 5 times
        let rater = NodeId((target + 1) % 8);
        let mut h2 = h.clone();
        for t in 0..5 {
            h2.record(Rating::positive(rater, NodeId(target), SimTime(5000 + t)));
        }
        let after = engine.compute(&h2, 8, &[]);
        prop_assert!(after.raw[target as usize] > before.raw[target as usize]);
        // nobody else's raw score changed
        for i in 0..8 {
            if i != target as usize {
                prop_assert!((after.raw[i] - before.raw[i]).abs() < 1e-12);
            }
        }
    }
}
