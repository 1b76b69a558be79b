//! The optimized collusion detection method (§IV.C).
//!
//! Instead of scanning the whole matrix row to compute the community
//! fraction `b`, the manager uses the closed-form Formula (2) band
//! ([`crate::formula`]): `n_i`'s reputation is *consistent with* collusion
//! by rater `n_j` iff
//!
//! ```text
//! 2·T_a·N(j,i) − N_i  ≤  R_i  <  2·T_b·(N_i − N(j,i)) + 2·N(j,i) − N_i
//! ```
//!
//! which needs only the per-pair counter `N(j,i)`, the total `N_i` and the
//! signed reputation `R_i` — all O(1) per pair, giving `O(m·n)` overall
//! (Proposition 4.2).
//!
//! The band test is a *necessary* condition for the basic detector's
//! fraction test (proved exhaustively in `formula::tests`), so Optimized
//! never misses a pair Basic finds; on rating profiles where several `(a,b)`
//! splits share one reputation value it can flag slightly more. On the
//! paper's workloads the two coincide ("Unoptimized and Optimized generate
//! the same results in collusion detection").

use crate::cost::CostMeter;
use crate::formula::{formula_band, formula_reputation};
use crate::input::SnapshotInput;
use crate::model::{DirectionEvidence, SuspectPair};
use crate::policy::DetectionPolicy;
use crate::report::DetectionReport;
use collusion_reputation::history::NodeTotals;
use collusion_reputation::sharded::{ShardedSnapshot, TotalsColumns};
use collusion_reputation::thresholds::Thresholds;

/// Counters from a band-pruned detection pass
/// ([`OptimizedDetector::detect_pruned`]), proving how much work the
/// Formula (2) pre-filter skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// High-reputed rows whose reputation provably falls outside every
    /// Formula (2) band their raters could produce.
    pub rows_pruned: u64,
    /// Candidate pairs skipped without probing any row data.
    pub pairs_pruned: u64,
    /// Candidate pairs that went through the full direction checks.
    pub pairs_examined: u64,
}

impl PruneStats {
    /// Fraction of candidate pairs skipped, 0.0 when nothing was seen.
    pub fn skip_rate(&self) -> f64 {
        let total = self.pairs_pruned + self.pairs_examined;
        if total == 0 {
            0.0
        } else {
            self.pairs_pruned as f64 / total as f64
        }
    }
}

/// The `O(m·n)` band-checking detector.
#[derive(Clone, Copy, Debug)]
pub struct OptimizedDetector {
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Strict §IV procedure or the extended evaluation policy.
    pub policy: DetectionPolicy,
}

impl OptimizedDetector {
    /// Detector with the given thresholds and the strict §IV policy.
    pub fn new(thresholds: Thresholds) -> Self {
        OptimizedDetector { thresholds, policy: DetectionPolicy::STRICT }
    }

    /// Detector with an explicit policy.
    pub fn with_policy(thresholds: Thresholds, policy: DetectionPolicy) -> Self {
        OptimizedDetector { thresholds, policy }
    }

    /// Detection pass over the manager's view on the frozen CSR snapshot:
    /// every high row's raters in row order, the pair probe a binary search
    /// in the ratee's row, and the extended-policy frequent aggregates served
    /// from the snapshot's precomputed table (falling back to a row pass
    /// when the snapshot was built without them, or for another `T_N`).
    /// `tests/scale_props.rs` pins the report (pairs *and* cost) to a
    /// reference walk written out from the specification.
    pub fn detect_snapshot(&self, input: &SnapshotInput<'_>) -> DetectionReport {
        self.walk_rows(input, false).0
    }

    /// Direction test: is `ratee`'s reputation inside the Formula (2)
    /// collusion band for rater `rater`? O(1) per pair under the strict
    /// policy; under the extended policy the ratee's frequent aggregate is
    /// supplied lazily by `freq_of`, which runs only under that policy, so
    /// a caller under the strict policy needs no aggregate cache. `rater`
    /// is `None` when the rater is not interned in this snapshot (a
    /// partitioned manager probing an unknown partner) — the probe then
    /// sees zero counters.
    pub(crate) fn check_direction_snap(
        &self,
        snap: &ShardedSnapshot,
        ratee: u32,
        rater: Option<u32>,
        meter: &CostMeter,
        freq_of: impl FnOnce() -> (u64, i64),
    ) -> Option<DirectionEvidence> {
        meter.element_check();
        let pair = rater.map(|r| snap.pair(r, ratee)).unwrap_or_default();
        let n_pair = pair.total;
        if !self.thresholds.is_frequent(n_pair) {
            return None;
        }
        let totals = snap.totals_of(ratee);
        let (n_eff, r_eff) = if self.policy.community_excludes_frequent {
            // ratee's view restricted to community + the tested partner
            let (freq_n, freq_signed) = freq_of();
            (totals.total - freq_n + n_pair, totals.signed() - freq_signed + pair.signed())
        } else {
            (totals.total, totals.signed())
        };
        if n_eff == n_pair {
            return None; // no community evidence (same convention as Basic)
        }
        meter.band_check();
        let band = formula_band(self.thresholds.t_a, self.thresholds.t_b, n_eff, n_pair);
        if !band.contains(r_eff as f64) {
            return None;
        }
        Some(DirectionEvidence {
            pair_ratings: n_pair,
            fraction_a: None,
            fraction_b: None,
            signed_reputation: r_eff,
        })
    }

    /// Sequential snapshot direction test backed by a dense per-ratee cache.
    /// A cache miss is metered as the row scan the paper's algorithm makes,
    /// even when the actual numbers come from the snapshot's precomputed
    /// table.
    pub(crate) fn direction_cached(
        &self,
        snap: &ShardedSnapshot,
        ratee: u32,
        rater: Option<u32>,
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
    ) -> Option<DirectionEvidence> {
        let t_n = self.thresholds.t_n;
        self.check_direction_snap(snap, ratee, rater, meter, || {
            if let Some(agg) = cache[ratee as usize] {
                return agg;
            }
            let (cols, _) = snap.row(ratee);
            meter.row_scan(cols.len() as u64);
            let agg = snap.frequent_agg(t_n, ratee).unwrap_or_else(|| snap.row_freq(ratee, t_n));
            cache[ratee as usize] = Some(agg);
            agg
        })
    }

    /// [`OptimizedDetector::detect_snapshot`] with a Formula (2) band
    /// pre-filter: before touching a candidate pair's row data, the pass
    /// asks whether the *row* (ratee) can possibly satisfy the band for
    /// **any** rater, using only the per-row totals already in cache:
    ///
    /// * `N_i < T_N` — no rater can reach the frequency gate, since
    ///   `N(j,i) ≤ N_i`;
    /// * `R_i ≥ N_i` — the band's upper bound
    ///   `2·T_b·(N_i − N(j,i)) + 2·N(j,i) − N_i` never exceeds `N_i` for
    ///   `T_b ≤ 1`, so a fully-positive reputation sits on or above every
    ///   band (applied only when `T_b ≤ 1 − 1e-9` and `N_i ≤ 10⁶`, where
    ///   the f64 evaluation error of the bound is provably below the
    ///   `2·(1 − T_b)` margin);
    /// * `R_i <` the band's lower bound at `N(j,i) = T_N` — the computed
    ///   lower bound `2·T_a·N(j,i) − N_i` is monotone non-decreasing in
    ///   `N(j,i)` (rounding is monotone), so falling below it at the
    ///   smallest feasible count falls below it everywhere.
    ///
    /// A pair is skipped when the prunable rows make a flag impossible:
    /// under `require_mutual` either endpoint being prunable kills the
    /// pair; otherwise both must be prunable. Pruning is sound only for
    /// the strict community definition — under
    /// `community_excludes_frequent` the band runs on *adjusted* totals,
    /// so the pre-filter disables itself and the pass degenerates to
    /// [`OptimizedDetector::detect_snapshot`].
    ///
    /// The suspect set is bit-identical to the unpruned pass (enforced by
    /// `tests/scale_props.rs`); the metered cost is lower, which is the
    /// point.
    pub fn detect_pruned(&self, input: &SnapshotInput<'_>) -> (DetectionReport, PruneStats) {
        self.walk_rows(input, !self.policy.community_excludes_frequent)
    }

    /// The one snapshot row walk: every high row's raters in row order,
    /// each pair examined at its first visit, both direction checks. The
    /// first visit needs no dedup set: `high` ascends and each high row is
    /// walked in full, so at row `i` the pair `{i, j}` has already been met
    /// exactly when `j < i` and `i` is a column of row `j` — one binary
    /// search in a row that is already sorted. With `prune` the
    /// band pre-filter of [`OptimizedDetector::detect_pruned`] runs ahead of
    /// the direction checks and fills the returned [`PruneStats`]; without
    /// it they stay zero.
    fn walk_rows(&self, input: &SnapshotInput<'_>, prune: bool) -> (DetectionReport, PruneStats) {
        let meter = CostMeter::new();
        let snap = input.snapshot;
        let high = input.high_reputed_idx(&self.thresholds);
        let mut is_high = vec![false; snap.n()];
        for &i in &high {
            is_high[i as usize] = true;
        }
        let mut stats = PruneStats::default();
        let mut prunable = vec![false; snap.n()];
        if prune {
            for &i in &high {
                if self.row_prunable(snap.totals_of(i)) {
                    prunable[i as usize] = true;
                    stats.rows_pruned += 1;
                }
            }
        }
        // the frequent aggregates feed only the policy's community adjustment
        let mut cache: Vec<Option<(u64, i64)>> =
            if self.policy.community_excludes_frequent { vec![None; snap.n()] } else { Vec::new() };
        let mut pairs = Vec::new();
        for &i in &high {
            let row_dead = prunable[i as usize];
            let (cols, _) = snap.row(i);
            meter.element_checks(cols.len() as u64);
            for &j in cols {
                if !is_high[j as usize] {
                    continue;
                }
                // met at row j already (the first-visit rule above)
                if j < i && snap.row(j).0.binary_search(&i).is_ok() {
                    continue;
                }
                if prune {
                    let skip = if self.policy.require_mutual {
                        row_dead || prunable[j as usize]
                    } else {
                        row_dead && prunable[j as usize]
                    };
                    if skip {
                        stats.pairs_pruned += 1;
                        continue;
                    }
                    stats.pairs_examined += 1;
                }
                let ev_fwd = self.direction_cached(snap, i, Some(j), &meter, &mut cache);
                if self.policy.require_mutual {
                    let Some(fwd) = ev_fwd else { continue };
                    let Some(rev) = self.direction_cached(snap, j, Some(i), &meter, &mut cache)
                    else {
                        continue;
                    };
                    pairs.push(SuspectPair::new(
                        snap.node_id(j),
                        snap.node_id(i),
                        Some(fwd),
                        Some(rev),
                    ));
                } else {
                    let ev_rev = self.direction_cached(snap, j, Some(i), &meter, &mut cache);
                    if ev_fwd.is_none() && ev_rev.is_none() {
                        continue;
                    }
                    pairs.push(SuspectPair::new(snap.node_id(j), snap.node_id(i), ev_fwd, ev_rev));
                }
            }
        }
        (DetectionReport::new(pairs, meter.snapshot()), stats)
    }

    /// Whether `totals` prove that **no** rater can put this ratee inside
    /// its Formula (2) band (see [`OptimizedDetector::detect_pruned`] for
    /// the three rules and their soundness arguments). Only valid under the
    /// strict community definition.
    ///
    /// This scalar form is the bit-identity oracle for
    /// [`OptimizedDetector::rows_prunable_batch`]; the property tests
    /// compare the two lane by lane.
    pub fn row_prunable(&self, totals: NodeTotals) -> bool {
        let t = &self.thresholds;
        let n_i = totals.total;
        if n_i < t.t_n {
            return true; // no rater can be frequent: N(j,i) ≤ N_i < T_N
        }
        let r = totals.signed();
        if t.t_b <= 1.0 - 1e-9 && n_i <= 1_000_000 && r >= n_i as i64 {
            return true; // on or above every band's upper bound
        }
        // below the smallest feasible lower bound (monotone in N(j,i))
        (r as f64) < formula_reputation(t.t_a, 0.0, n_i, t.t_n)
    }

    /// Batch form of [`OptimizedDetector::row_prunable`] over one shard's
    /// structure-of-arrays totals columns: sets `out[k]` to `1` iff global
    /// row `cols.base + k` is prunable, `0` otherwise.
    ///
    /// Every lane evaluates the same three rules as the scalar oracle with
    /// identical arithmetic, branch-free (`|`/`&` on the rule booleans
    /// instead of short-circuits) so LLVM autovectorizes the loop over the
    /// contiguous columns. The one rewrite is rule 3's lower bound: the
    /// scalar path calls `formula_reputation(t_a, 0.0, n_i, t_n)`, whose
    /// `b = 0` term is `+0.0 · x` with `x` a finite non-negative `f64` —
    /// always exactly `+0.0`, and `+0.0 + y` either equals `y` or flips a
    /// negative zero, which every `< r` comparison treats identically. The
    /// batch lane therefore hoists `2·T_a·T_N` out of the loop and compares
    /// against `lo_base − N_i` directly; `tests/scale_props.rs` asserts
    /// lane-for-lane equality with the oracle over adversarial totals.
    pub fn rows_prunable_batch(&self, cols: &TotalsColumns<'_>, out: &mut [u8]) {
        let rows = cols.total.len();
        assert!(
            out.len() >= rows && cols.positive.len() == rows && cols.negative.len() == rows,
            "totals columns and output flags disagree on row count"
        );
        let t = &self.thresholds;
        let upper_armed = t.t_b <= 1.0 - 1e-9;
        let lo_base = 2.0 * t.t_a * t.t_n as f64;
        for (k, flag) in out[..rows].iter_mut().enumerate() {
            *flag = prunable_lane(
                t.t_n,
                upper_armed,
                lo_base,
                cols.total[k],
                cols.positive[k],
                cols.negative[k],
            );
        }
    }
}

/// One lane of [`OptimizedDetector::rows_prunable_batch`]: the three
/// prunability rules evaluated branch-free. The signed reputation clamps
/// exactly like [`NodeTotals::signed`] (`i64::try_from(v).unwrap_or(MAX)`
/// is `min` against `i64::MAX`, then a saturating subtract).
#[inline(always)]
fn prunable_lane(
    t_n: u64,
    upper_armed: bool,
    lo_base: f64,
    total: u64,
    positive: u64,
    negative: u64,
) -> u8 {
    let p = positive.min(i64::MAX as u64) as i64;
    let n = negative.min(i64::MAX as u64) as i64;
    let r = p.saturating_sub(n);
    let prunable = (total < t_n)
        | (upper_armed & (total <= 1_000_000) & (r >= total as i64))
        | ((r as f64) < lo_base - total as f64);
    prunable as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicDetector;
    use crate::input::DetectionInput;
    use collusion_reputation::history::InteractionHistory;
    use collusion_reputation::id::{NodeId, SimTime};
    use collusion_reputation::rating::{Rating, RatingValue};
    use collusion_reputation::sharded::ShardedSnapshot;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn thresholds() -> Thresholds {
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    /// One detection pass over a one-shard snapshot of `h`.
    fn detect(det: OptimizedDetector, h: &InteractionHistory, nodes: &[NodeId]) -> DetectionReport {
        let snap = ShardedSnapshot::build(h, nodes, 1);
        det.detect_snapshot(&SnapshotInput::from_signed(&snap, nodes))
    }

    fn collusion_history(boost: u64, community_neg: u64) -> (InteractionHistory, Vec<NodeId>) {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for _ in 0..boost {
            h.record(Rating::positive(NodeId(1), NodeId(2), tick()));
            h.record(Rating::positive(NodeId(2), NodeId(1), tick()));
        }
        for k in 0..community_neg {
            h.record(Rating::negative(NodeId(10 + k % 3), NodeId(1), tick()));
            h.record(Rating::negative(NodeId(10 + k % 3), NodeId(2), tick()));
        }
        for k in 0..6 {
            h.record(Rating::positive(NodeId(10 + k % 3), NodeId(4), tick()));
        }
        let mut nodes: Vec<NodeId> = vec![NodeId(1), NodeId(2), NodeId(4)];
        nodes.extend((10..13).map(NodeId));
        (h, nodes)
    }

    #[test]
    fn detects_colluding_pair_via_band() {
        let (h, nodes) = collusion_history(30, 5);
        let report = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
        assert_eq!(report.pair_ids(), vec![(NodeId(1), NodeId(2))]);
        let fwd = report.pairs[0].low_boosts_high.unwrap();
        assert_eq!(fwd.signed_reputation, 25);
        assert!(fwd.fraction_a.is_none());
    }

    #[test]
    fn community_loved_node_not_flagged() {
        let (h, nodes) = collusion_history(30, 5);
        let report = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
        assert!(!report.is_colluder(NodeId(4)));
    }

    #[test]
    fn agrees_with_basic_on_canonical_scenarios() {
        for (boost, neg) in [(30, 5), (25, 3), (20, 1), (50, 20), (10, 2)] {
            let (h, nodes) = collusion_history(boost, neg);
            let input = DetectionInput::from_signed_history(&h, &nodes);
            let basic = BasicDetector::new(thresholds()).detect(&input);
            let opt = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
            assert_eq!(basic.pair_ids(), opt.pair_ids(), "disagreement at boost={boost} neg={neg}");
        }
    }

    #[test]
    fn optimized_never_misses_basic_pairs_randomized() {
        // Necessity of the band: on 200 random histories, every Basic pair
        // must appear in the Optimized report.
        let mut rng = SmallRng::seed_from_u64(0xc0ffee);
        for trial in 0..200 {
            let n_nodes = rng.random_range(4..12u64);
            let mut h = InteractionHistory::new();
            for t in 0..rng.random_range(50..300u64) {
                let a = rng.random_range(0..n_nodes);
                let mut b = rng.random_range(0..n_nodes);
                if a == b {
                    b = (b + 1) % n_nodes;
                }
                let v = if rng.random_bool(0.6) {
                    RatingValue::Positive
                } else {
                    RatingValue::Negative
                };
                h.record(Rating::new(NodeId(a), NodeId(b), v, SimTime(t)));
            }
            // inject one colluding pair half the time
            if rng.random_bool(0.5) {
                for t in 0..30 {
                    h.record(Rating::positive(NodeId(0), NodeId(1), SimTime(1000 + t)));
                    h.record(Rating::positive(NodeId(1), NodeId(0), SimTime(1000 + t)));
                }
            }
            let nodes: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
            let input = DetectionInput::from_signed_history(&h, &nodes);
            let th = Thresholds::new(1.0, 10, 0.8, 0.2);
            let basic = BasicDetector::new(th).detect(&input);
            let opt = detect(OptimizedDetector::new(th), &h, &nodes);
            let opt_set: std::collections::BTreeSet<_> = opt.pair_ids().into_iter().collect();
            for p in basic.pair_ids() {
                assert!(
                    opt_set.contains(&p),
                    "trial {trial}: Basic found {p:?} but Optimized missed it"
                );
            }
        }
    }

    #[test]
    fn snapshot_precomputed_aggregates_keep_costs_identical() {
        // built WITH frequent aggregates, the extended policy reads the
        // precomputed table; built without, it falls back to row passes. The
        // meter models the algorithm, so pairs and cost agree.
        let (h, nodes) = collusion_history(30, 5);
        let det = OptimizedDetector::with_policy(thresholds(), DetectionPolicy::EXTENDED);
        let snap = ShardedSnapshot::build_with_frequent(&h, &nodes, 1, thresholds().t_n);
        let precomputed = det.detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
        let row_passes = detect(det, &h, &nodes);
        assert_eq!(precomputed.pairs, row_passes.pairs);
        assert_eq!(precomputed.cost, row_passes.cost);
        assert!(precomputed.cost.row_scans > 0);
    }

    #[test]
    fn costs_far_below_basic() {
        let (h, nodes) = collusion_history(40, 10);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let basic = BasicDetector::new(thresholds()).detect(&input);
        let opt = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
        assert_eq!(opt.cost.row_scans, 0, "optimized must never scan rows");
        assert!(
            opt.cost.total(1) < basic.cost.total(1),
            "optimized {} !< basic {}",
            opt.cost.total(1),
            basic.cost.total(1)
        );
    }

    #[test]
    fn infrequent_pair_skipped() {
        let (h, nodes) = collusion_history(10, 2); // below T_N=20
        let report = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn pair_without_community_evidence_skipped() {
        let mut h = InteractionHistory::new();
        for t in 0..30 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
            h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
        }
        let nodes = vec![NodeId(1), NodeId(2)];
        let report = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn batch_prunable_matches_scalar_oracle() {
        // adversarial lane values: clamp edges, zero rows, the 1e6 upper
        // gate, and values straddling the lower-bound comparison
        let totals: Vec<(u64, u64, u64)> = vec![
            (0, 0, 0),
            (19, 19, 0),
            (20, 20, 0),
            (21, 0, 21),
            (1_000_000, 1_000_000, 0),
            (1_000_001, 1_000_001, 0),
            (40, 39, 1),
            (40, 8, 32),
            (u64::MAX, u64::MAX, 0),
            (u64::MAX, u64::MAX / 2, u64::MAX / 2),
            (100, i64::MAX as u64 + 7, 3),
            (50, 3, i64::MAX as u64 + 7),
        ];
        let (tot, pos, neg): (Vec<u64>, Vec<u64>, Vec<u64>) = totals.iter().fold(
            (Vec::new(), Vec::new(), Vec::new()),
            |(mut t, mut p, mut n), &(a, b, c)| {
                t.push(a);
                p.push(b);
                n.push(c);
                (t, p, n)
            },
        );
        for t_b in [0.2, 1.0] {
            let det = OptimizedDetector::new(Thresholds::new(1.0, 20, 0.8, t_b));
            let cols = collusion_reputation::sharded::TotalsColumns {
                base: 0,
                total: &tot,
                positive: &pos,
                negative: &neg,
            };
            let mut flags = vec![0u8; tot.len()];
            det.rows_prunable_batch(&cols, &mut flags);
            for (k, &(total, positive, negative)) in totals.iter().enumerate() {
                let expect = det.row_prunable(NodeTotals { total, positive, negative });
                assert_eq!(flags[k] != 0, expect, "lane {k} diverged (t_b={t_b})");
            }
        }
    }

    #[test]
    fn low_reputation_filter_applies() {
        let (h, nodes) = collusion_history(25, 40);
        let report = detect(OptimizedDetector::new(thresholds()), &h, &nodes);
        assert!(report.pairs.is_empty(), "drowned colluders fail the C1 filter");
    }
}
