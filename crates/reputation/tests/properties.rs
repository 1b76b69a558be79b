//! Property-based tests for the reputation substrate.

use collusion_reputation::history::NodeTotals;
use collusion_reputation::id::TimeWindow;
use collusion_reputation::prelude::*;
use collusion_reputation::trust_matrix::TrustMatrix;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// The naive reference for [`InteractionHistory`]: ordered maps, Table I
/// counted the obvious way.
#[derive(Clone, Debug, Default)]
struct HistoryModel {
    pairs: BTreeMap<(NodeId, NodeId), PairCounters>,
    /// ratee → (totals, distinct raters in first-seen order).
    rows: BTreeMap<NodeId, (NodeTotals, Vec<NodeId>)>,
    recorded: u64,
}

fn add_totals(t: &mut NodeTotals, (total, positive, negative): (u64, u64, u64)) {
    t.total += total;
    t.positive += positive;
    t.negative += negative;
}

impl HistoryModel {
    fn record(&mut self, r: Rating) -> bool {
        if r.rater == r.ratee {
            return false;
        }
        let mut one = PairCounters::default();
        one.accumulate(r.value);
        let pair = self.pairs.entry((r.rater, r.ratee)).or_default();
        let row = self.rows.entry(r.ratee).or_default();
        if pair.total == 0 {
            row.1.push(r.rater);
        }
        pair.merge(&one);
        add_totals(&mut row.0, (one.total, one.positive, one.negative));
        self.recorded += 1;
        true
    }

    /// Raters new to a row are appended in `other`'s first-seen order.
    fn merge(&mut self, other: &HistoryModel) {
        for (&ratee, (totals, raters)) in &other.rows {
            let row = self.rows.entry(ratee).or_default();
            for &rater in raters {
                let c = other.pairs[&(rater, ratee)];
                let pair = self.pairs.entry((rater, ratee)).or_default();
                if pair.total == 0 && c.total > 0 {
                    row.1.push(rater);
                }
                pair.merge(&c);
            }
            add_totals(&mut row.0, (totals.total, totals.positive, totals.negative));
        }
        self.recorded += other.recorded;
    }

    fn split_off_ratee(&mut self, ratee: NodeId) -> HistoryModel {
        let mut out = HistoryModel::default();
        let Some(row) = self.rows.remove(&ratee) else {
            return out;
        };
        for rater in &row.1 {
            let c = self.pairs.remove(&(*rater, ratee)).expect("a listed rater has a cell");
            out.pairs.insert((*rater, ratee), c);
        }
        self.recorded -= row.0.total;
        out.recorded = row.0.total;
        out.rows.insert(ratee, row);
        out
    }
}

/// Every read of `h` equals the model's, over the ids `0..n`.
fn assert_history_is_model(h: &InteractionHistory, m: &HistoryModel, n: u64) {
    prop_assert_eq!(h.recorded(), m.recorded);
    for a in (0..n).map(NodeId) {
        let (totals, raters) = m.rows.get(&a).cloned().unwrap_or_default();
        prop_assert_eq!(h.totals(a), totals, "totals of {:?}", a);
        prop_assert_eq!(h.raters_of(a), &raters[..], "raters of {:?}", a);
        for b in (0..n).map(NodeId) {
            let want = m.pairs.get(&(a, b)).copied().unwrap_or_default();
            prop_assert_eq!(h.pair(a, b), want, "pair {:?} -> {:?}", a, b);
        }
    }
    let ratees: BTreeSet<NodeId> = h.ratees().collect();
    prop_assert_eq!(ratees, m.rows.keys().copied().collect::<BTreeSet<_>>());
    let cells: BTreeMap<(NodeId, NodeId), PairCounters> =
        h.iter_pairs().map(|(rater, ratee, c)| ((rater, ratee), c)).collect();
    prop_assert_eq!(h.iter_pairs().len(), cells.len(), "iter_pairs repeats a cell");
    prop_assert_eq!(&cells, &m.pairs);
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

    /// [`InteractionHistory`] against [`HistoryModel`] over five ids:
    /// records (repeats, self-ratings, every value) interleaved with
    /// `merge` of a second stream and `split_off_ratee` (half the time
    /// merged straight back). Every read is compared after every step.
    #[test]
    fn history_matches_a_naive_model(
        ops in prop::collection::vec(
            (0u8..16, 0u64..5, 0u64..5, 0u8..3, ratings_strategy(5, 8)),
            0..120,
        ),
    ) {
        const N: u64 = 5;
        let mut h = InteractionHistory::new();
        let mut m = HistoryModel::default();
        for (t, (kind, rater, ratee, v, stream)) in ops.into_iter().enumerate() {
            match kind {
                0..=12 => {
                    let value = [RatingValue::Negative, RatingValue::Neutral, RatingValue::Positive]
                        [v as usize];
                    let r = Rating::new(NodeId(rater), NodeId(ratee), value, SimTime(t as u64));
                    prop_assert_eq!(h.record(r), m.record(r));
                }
                13 => {
                    let (mut other, mut other_m) = (InteractionHistory::new(), HistoryModel::default());
                    for r in stream {
                        prop_assert_eq!(other.record(r), other_m.record(r));
                    }
                    h.merge(&other);
                    m.merge(&other_m);
                }
                _ => {
                    let slice = h.split_off_ratee(NodeId(ratee));
                    let slice_m = m.split_off_ratee(NodeId(ratee));
                    assert_history_is_model(&slice, &slice_m, N);
                    if kind == 15 {
                        h.merge(&slice);
                        m.merge(&slice_m);
                    }
                }
            }
            assert_history_is_model(&h, &m, N);
        }
    }
}
