//! The basic ("Unoptimized") collusion detection method (§IV.B).
//!
//! For every high-reputed node `n_i` (C1) the manager walks the matrix row
//! of `n_i`'s raters. For a rater `n_j` that is itself high-reputed (C1) and
//! rates frequently (`N(j,i) ≥ T_N`, C4) with mostly-positive ratings
//! (`a ≥ T_a`, C3), the manager scans the *rest of the row* to compute the
//! community fraction `b`; `b < T_b` (C2) makes the direction suspicious.
//! The same check is repeated in the reverse direction (`n_i` boosting
//! `n_j`); only a mutually suspicious pair is reported (C5: pairs). After a
//! pair is examined, both matrix cells are marked so it is never reexamined
//! from the other side.
//!
//! The row scan is what makes this method `O(m·n²)` (Proposition 4.1) and
//! what the optimized method eliminates.
//!
//! **Community-evidence convention.** The paper's `b < T_b` test is
//! undefined when the ratee has no raters besides the partner
//! (`N(−j,i) = 0`). We require at least one outside rating — C2 is about
//! *receiving* low ratings from others, which demands others exist. The
//! optimized detector inherits the same convention so the two agree.

use crate::cost::CostMeter;
use crate::input::{DetectionInput, SnapshotInput};
use crate::model::{DirectionEvidence, SuspectPair};
use crate::policy::DetectionPolicy;
use crate::report::DetectionReport;
use collusion_reputation::history::PairCounters;
use collusion_reputation::id::NodeId;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;
use std::collections::HashSet;

/// The `O(m·n²)` row-scanning detector.
#[derive(Clone, Copy, Debug)]
pub struct BasicDetector {
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Strict §IV procedure or the extended evaluation policy.
    pub policy: DetectionPolicy,
}

impl BasicDetector {
    /// Detector with the given thresholds and the strict §IV policy.
    pub fn new(thresholds: Thresholds) -> Self {
        BasicDetector { thresholds, policy: DetectionPolicy::STRICT }
    }

    /// Detector with an explicit policy.
    pub fn with_policy(thresholds: Thresholds, policy: DetectionPolicy) -> Self {
        BasicDetector { thresholds, policy }
    }

    /// Sequential detection with pair marking (the paper's exact procedure).
    ///
    /// The manager "scans each row in the matrix in the top-down manner,
    /// and scans elements in each row from the left to the right": every
    /// column `j` of a high-reputed row `i` is inspected, whether or not
    /// `n_j` ever rated `n_i` — the matrix is dense. This is what makes the
    /// method `O(m·n²)` and the Figure 13 cost curve what it is.
    pub fn detect(&self, input: &DetectionInput<'_>) -> DetectionReport {
        let meter = CostMeter::new();
        let high = input.high_reputed(&self.thresholds);
        let high_set: HashSet<NodeId> = high.iter().copied().collect();
        let mut checked: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut pairs = Vec::new();
        for &i in &high {
            for &j in &input.nodes {
                if j == i {
                    continue;
                }
                meter.element_check();
                let key = if i < j { (i, j) } else { (j, i) };
                if checked.contains(&key) {
                    continue;
                }
                // compute-then-test: the unoptimized manager evaluates the
                // full pair quantities for the cell, then applies the
                // threshold gates — including the partner's R_j ≥ T_R (C1),
                // which decides flagging but not the work done
                let flagged = self.check_pair(input, i, j, &meter);
                // mark a_ij and a_ji: whatever the outcome, this pair needs
                // no further checking when encountered from the other side
                checked.insert(key);
                if let Some(pair) = flagged {
                    if high_set.contains(&j) {
                        pairs.push(pair);
                    }
                }
            }
        }
        DetectionReport::new(pairs, meter.snapshot())
    }

    /// [`BasicDetector::detect`] on the frozen CSR snapshot: the identical
    /// dense row-by-row procedure and metering, with every matrix probe an
    /// array access instead of a hash lookup, and the pair marking read off
    /// the walk order: a pair `{i, j}` was checked before iff `j < i` and
    /// `j` is high, since every high row visits every view column. Produces
    /// a bit-identical [`DetectionReport`] (pairs *and* cost) to that
    /// oracle — enforced by `tests/detection_equivalence.rs`.
    pub fn detect_snapshot(&self, input: &SnapshotInput<'_>) -> DetectionReport {
        let meter = CostMeter::new();
        let snap = input.snapshot;
        let high = input.high_reputed_idx(&self.thresholds);
        let mut is_high = vec![false; snap.n()];
        for &i in &high {
            is_high[i as usize] = true;
        }
        let mut pairs = Vec::new();
        for &i in &high {
            for &j in input.view() {
                if j == i {
                    continue;
                }
                meter.element_check();
                // the dense walk visits every view column of every high row,
                // so {i, j} was checked at row j iff j is high and came first
                if j < i && is_high[j as usize] {
                    continue;
                }
                if let Some(pair) = self.check_pair_snap(snap, i, j, &meter) {
                    if is_high[j as usize] {
                        pairs.push(pair);
                    }
                }
            }
        }
        DetectionReport::new(pairs, meter.snapshot())
    }

    /// Snapshot analogue of [`BasicDetector::check_pair`].
    pub(crate) fn check_pair_snap(
        &self,
        snap: &ShardedSnapshot,
        i: u32,
        j: u32,
        meter: &CostMeter,
    ) -> Option<SuspectPair> {
        let (id_i, id_j) = (snap.node_id(i), snap.node_id(j));
        if self.policy.require_mutual {
            let ev_j_boosts_i = self.check_direction_snap(snap, i, Some(j), meter)?;
            let ev_i_boosts_j = self.check_direction_snap(snap, j, Some(i), meter)?;
            Some(SuspectPair::new(id_j, id_i, Some(ev_j_boosts_i), Some(ev_i_boosts_j)))
        } else {
            let ev_j_boosts_i = self.check_direction_snap(snap, i, Some(j), meter);
            let ev_i_boosts_j = self.check_direction_snap(snap, j, Some(i), meter);
            if ev_j_boosts_i.is_none() && ev_i_boosts_j.is_none() {
                return None;
            }
            Some(SuspectPair::new(id_j, id_i, ev_j_boosts_i, ev_i_boosts_j))
        }
    }

    /// Snapshot analogue of [`BasicDetector::check_direction`]: one pass
    /// over the ratee's CSR row yields `N(j,i)` *and* the community sums —
    /// the pair's counters are picked up while scanning past them, so the
    /// separate hash probe of the oracle disappears entirely. Metering
    /// is placed identically (row scan, then one element check). `rater` is
    /// `None` when the rater is not interned in this snapshot (a partitioned
    /// manager probing an unknown partner) — the scan then sees zero pair
    /// counters, exactly like the oracle's hash lookup of an absent pair.
    pub(crate) fn check_direction_snap(
        &self,
        snap: &ShardedSnapshot,
        ratee: u32,
        rater: Option<u32>,
        meter: &CostMeter,
    ) -> Option<DirectionEvidence> {
        let (cols, cells) = snap.row(ratee);
        meter.row_scan(cols.len() as u64);
        let mut n_other = 0u64;
        let mut pos_other = 0u64;
        let mut pair = PairCounters::default();
        for (&other, cell) in cols.iter().zip(cells) {
            if Some(other) == rater {
                pair = *cell;
                continue;
            }
            if self.policy.community_excludes_frequent && self.thresholds.is_frequent(cell.total) {
                continue; // a fellow booster, not community (see policy docs)
            }
            n_other += cell.total;
            pos_other += cell.positive;
        }
        meter.element_check();
        if !self.thresholds.is_frequent(pair.total) {
            return None;
        }
        let a = pair.positive_fraction()?;
        if !self.thresholds.a_suspicious(a) {
            return None;
        }
        if n_other == 0 {
            return None; // no community evidence (see module docs)
        }
        let b = pos_other as f64 / n_other as f64;
        if !self.thresholds.b_suspicious(b) {
            return None;
        }
        Some(DirectionEvidence {
            pair_ratings: pair.total,
            fraction_a: Some(a),
            fraction_b: Some(b),
            signed_reputation: snap.signed(ratee),
        })
    }

    /// Full examination of the unordered pair `{i, j}`. Under the strict
    /// policy both directions must be suspicious; under the extended policy
    /// one confirmed boosting direction implicates the pair.
    fn check_pair(
        &self,
        input: &DetectionInput<'_>,
        i: NodeId,
        j: NodeId,
        meter: &CostMeter,
    ) -> Option<SuspectPair> {
        if self.policy.require_mutual {
            let ev_j_boosts_i = self.check_direction(input, i, j, meter)?;
            let ev_i_boosts_j = self.check_direction(input, j, i, meter)?;
            Some(SuspectPair::new(j, i, Some(ev_j_boosts_i), Some(ev_i_boosts_j)))
        } else {
            let ev_j_boosts_i = self.check_direction(input, i, j, meter);
            let ev_i_boosts_j = self.check_direction(input, j, i, meter);
            if ev_j_boosts_i.is_none() && ev_i_boosts_j.is_none() {
                return None;
            }
            Some(SuspectPair::new(j, i, ev_j_boosts_i, ev_i_boosts_j))
        }
    }

    /// Direction test: is `ratee`'s high reputation mainly caused by
    /// `rater`'s frequent deviating ratings?
    ///
    /// The quantities `N(−j,i)` / `N⁺(−j,i)` are computed by an
    /// *unconditional* scan of `ratee`'s full rater row — the paper's
    /// unoptimized method "needs to scan all of its raters for rating
    /// values and frequency for each rater" (§V.C); gating that scan behind
    /// the cheap frequency/`a` tests is exactly the kind of shortcut the
    /// Optimized method formalizes, so the Basic detector deliberately does
    /// not take it. The threshold tests are applied *after* the scan; the
    /// detected pair set is unchanged, only the metered cost reflects the
    /// `O(m·n²)` procedure.
    pub(crate) fn check_direction(
        &self,
        input: &DetectionInput<'_>,
        ratee: NodeId,
        rater: NodeId,
        meter: &CostMeter,
    ) -> Option<DirectionEvidence> {
        let h = input.history;
        // the expensive part: scan every other rater of `ratee` to obtain
        // N⁺(−j,i) and N(−j,i)
        let raters = h.raters_of(ratee);
        meter.row_scan(raters.len() as u64);
        let mut n_other = 0u64;
        let mut pos_other = 0u64;
        for &other in raters {
            if other == rater {
                continue;
            }
            let c = h.pair(other, ratee);
            if self.policy.community_excludes_frequent && self.thresholds.is_frequent(c.total) {
                continue; // a fellow booster, not community (see policy docs)
            }
            n_other += c.total;
            pos_other += c.positive;
        }
        meter.element_check();
        let pair = h.pair(rater, ratee);
        if !self.thresholds.is_frequent(pair.total) {
            return None;
        }
        let a = pair.positive_fraction()?;
        if !self.thresholds.a_suspicious(a) {
            return None;
        }
        if n_other == 0 {
            return None; // no community evidence (see module docs)
        }
        let b = pos_other as f64 / n_other as f64;
        if !self.thresholds.b_suspicious(b) {
            return None;
        }
        Some(DirectionEvidence {
            pair_ratings: pair.total,
            fraction_a: Some(a),
            fraction_b: Some(b),
            signed_reputation: h.signed_reputation(ratee),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::history::InteractionHistory;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;
    use collusion_reputation::sharded::ShardedSnapshot;

    /// Build the canonical collusion scenario:
    /// colluders c1, c2 rate each other +1 `boost` times;
    /// the community (raters 10..10+others) rates them −1 `community` times;
    /// honest nodes h3, h4 trade `honest` mutual positives and get community
    /// positives too.
    fn scenario(boost: u64, community: u64) -> (InteractionHistory, Vec<NodeId>) {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        // colluders 1 and 2
        for _ in 0..boost {
            h.record(Rating::positive(NodeId(1), NodeId(2), tick()));
            h.record(Rating::positive(NodeId(2), NodeId(1), tick()));
        }
        for k in 0..community {
            let rater = NodeId(10 + (k % 5));
            h.record(Rating::negative(rater, NodeId(1), tick()));
            h.record(Rating::negative(rater, NodeId(2), tick()));
        }
        // honest pair 3 and 4: occasional mutual positives + community praise
        for _ in 0..3 {
            h.record(Rating::positive(NodeId(3), NodeId(4), tick()));
            h.record(Rating::positive(NodeId(4), NodeId(3), tick()));
        }
        for k in 0..community.max(4) {
            let rater = NodeId(10 + (k % 5));
            h.record(Rating::positive(rater, NodeId(3), tick()));
            h.record(Rating::positive(rater, NodeId(4), tick()));
        }
        let mut nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        nodes.extend((10..15).map(NodeId));
        (h, nodes)
    }

    fn thresholds() -> Thresholds {
        // T_R = 1.0 on signed sums: any net-positive node is "high-reputed"
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    #[test]
    fn detects_the_colluding_pair() {
        let (h, nodes) = scenario(30, 5);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert_eq!(report.pair_ids(), vec![(NodeId(1), NodeId(2))]);
        let p = &report.pairs[0];
        let fwd = p.low_boosts_high.unwrap();
        assert_eq!(fwd.pair_ratings, 30);
        assert!(fwd.fraction_a.unwrap() >= 0.8);
        assert!(fwd.fraction_b.unwrap() < 0.2);
    }

    #[test]
    fn honest_pair_not_flagged() {
        let (h, nodes) = scenario(30, 5);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert!(!report.is_colluder(NodeId(3)));
        assert!(!report.is_colluder(NodeId(4)));
    }

    #[test]
    fn infrequent_mutual_praise_not_flagged() {
        // below T_N = 20 mutual ratings → no collusion
        let (h, nodes) = scenario(10, 5);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn low_reputed_colluders_skipped() {
        // community drowns the boost: colluders end with negative sums,
        // so the T_R filter (C1) never examines them
        let (h, nodes) = scenario(25, 40);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert!(report.pairs.is_empty());
        assert!(input.signed_reputation(NodeId(1)) < 0);
    }

    #[test]
    fn one_directional_boost_is_not_collusion() {
        // n1 showers n2 with praise but n2 never reciprocates
        let mut h = InteractionHistory::new();
        for t in 0..30 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
        }
        for t in 0..5 {
            h.record(Rating::negative(NodeId(9), NodeId(2), SimTime(100 + t)));
            h.record(Rating::positive(NodeId(9), NodeId(1), SimTime(200 + t)));
        }
        let nodes = vec![NodeId(1), NodeId(2), NodeId(9)];
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn no_community_evidence_means_no_detection() {
        // colluders only rated by each other: b undefined → skip
        let mut h = InteractionHistory::new();
        for t in 0..30 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
            h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
        }
        let nodes = vec![NodeId(1), NodeId(2)];
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn snapshot_path_is_bit_identical() {
        let (h, nodes) = scenario(30, 5);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let sinput = SnapshotInput::from_signed(&snap, &nodes);
        for policy in [DetectionPolicy::STRICT, DetectionPolicy::EXTENDED] {
            let det = BasicDetector::with_policy(thresholds(), policy);
            let legacy = det.detect(&input);
            let fast = det.detect_snapshot(&sinput);
            assert_eq!(legacy.pairs, fast.pairs);
            assert_eq!(legacy.cost, fast.cost);
        }
    }

    #[test]
    fn extended_catches_one_directional_pairs() {
        // n1 showers n2 with praise; under the extended policy that alone
        // implicates the pair
        let mut h = InteractionHistory::new();
        for t in 0..30 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
        }
        for t in 0..5 {
            h.record(Rating::negative(NodeId(9), NodeId(2), SimTime(100 + t)));
            h.record(Rating::positive(NodeId(9), NodeId(1), SimTime(200 + t)));
        }
        let nodes = vec![NodeId(1), NodeId(2), NodeId(9)];
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let det = BasicDetector::with_policy(thresholds(), DetectionPolicy::EXTENDED);
        assert_eq!(det.detect(&input).pair_ids(), vec![(NodeId(1), NodeId(2))]);
    }

    #[test]
    fn cost_includes_row_scans() {
        let (h, nodes) = scenario(30, 5);
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert!(report.cost.row_scans >= 2, "both directions scanned");
        assert!(report.cost.scanned_elements > 0);
        assert!(report.cost.element_checks > 0);
    }

    #[test]
    fn multiple_colluding_pairs_all_found() {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for (a, b) in [(1u64, 2u64), (5, 6), (7, 8)] {
            for _ in 0..25 {
                h.record(Rating::positive(NodeId(a), NodeId(b), tick()));
                h.record(Rating::positive(NodeId(b), NodeId(a), tick()));
            }
            for k in 0..4 {
                h.record(Rating::negative(NodeId(20 + k), NodeId(a), tick()));
                h.record(Rating::negative(NodeId(20 + k), NodeId(b), tick()));
            }
        }
        let mut nodes: Vec<NodeId> = vec![1, 2, 5, 6, 7, 8].into_iter().map(NodeId).collect();
        nodes.extend((20..24).map(NodeId));
        let input = DetectionInput::from_signed_history(&h, &nodes);
        let report = BasicDetector::new(thresholds()).detect(&input);
        assert_eq!(
            report.pair_ids(),
            vec![(NodeId(1), NodeId(2)), (NodeId(5), NodeId(6)), (NodeId(7), NodeId(8)),]
        );
    }
}
