//! The decentralized detection round (§IV.B–C), written once for both
//! deployments.
//!
//! The managers are high-reputed "power nodes" forming a Chord ring;
//! manager `M_i` (the DHT owner of `ID_i`) holds every rating *about*
//! `n_i`. In a round, `M_i` walks the rows of its responsible high-reputed
//! nodes on a frozen slice and runs the forward direction test
//! `D(i ← j)` (`Kernel::round`). Where it holds, `M_i` asks the owner of
//! `n_j` what the other side says; that owner checks `R_j ≥ T_R` and runs
//! the reverse test `D(j ← i)` on its own slice (`Kernel::confirm`) and
//! answers with a [`ConfirmVerdict`].
//!
//! Only how the question travels differs between the deployments, so the
//! round takes it as a caller-supplied route answering a `Partner`:
//! [`crate::system::DecentralizedSystem`] passes it through a lossy
//! in-process [`crate::fault::FaultSession`] and answers from the
//! partner's slice in memory; [`crate::net::server::ManagerNode`] sends
//! `Confirm` over TCP with failover to the owner's replicas.

use std::collections::HashSet;

use crate::basic::BasicDetector;
use crate::cost::CostMeter;
use crate::model::{DirectionEvidence, SuspectPair};
use crate::optimized::OptimizedDetector;
use crate::policy::DetectionPolicy;
use collusion_reputation::id::NodeId;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;

/// Which direction-test the managers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Row-scanning fraction test (§IV.B).
    Basic,
    /// Formula (2) band test (§IV.C).
    Optimized,
}

/// The partner side's answer about the ratee `j` of a forward hit `D(i ← j)`
/// (on the wire, the reply to a `Confirm` probe). The default is the
/// answer of a manager holding no data for the ratee.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConfirmVerdict {
    /// Whether this manager holds (primary or replica) data for the ratee.
    pub known: bool,
    /// Whether the ratee is high-reputed on this manager's own slice.
    pub high_reputed: bool,
    /// Reverse-direction evidence (`ratee` boosts `rater`), if suspicious.
    pub reverse: Option<DirectionEvidence>,
}

/// What a round's partner route says about the other side of a forward hit.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Partner {
    /// The partner is on the walking manager's own slice: checked there.
    Local,
    /// The partner's manager (or a replica of its slice) answered.
    Answered(ConfirmVerdict),
    /// No answer within the retry budget or deadline.
    Unreachable,
    /// No manager holds the partner (a rater that never registered).
    Unmanaged,
}

/// What one manager's direction tests run with.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Kernel {
    pub(crate) method: Method,
    pub(crate) thresholds: Thresholds,
    pub(crate) policy: DetectionPolicy,
}

impl Kernel {
    /// The direction test `ratee ← rater` with the manager's [`Method`];
    /// `rater` is `None` when the slice never saw the rater (zero counters).
    fn direction(
        &self,
        snap: &ShardedSnapshot,
        (ratee, rater): (u32, Option<u32>),
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
    ) -> Option<DirectionEvidence> {
        match self.method {
            Method::Basic => BasicDetector::with_policy(self.thresholds, self.policy)
                .check_direction_snap(snap, ratee, rater, meter),
            Method::Optimized => OptimizedDetector::with_policy(self.thresholds, self.policy)
                .direction_cached(snap, ratee, rater, meter, cache),
        }
    }

    /// The per-ratee frequent-aggregate cache the direction tests read on
    /// `snap`: one empty cell per index under `community_excludes_frequent`,
    /// the one policy that reads it, else nothing.
    pub(crate) fn agg_cache(&self, snap: &ShardedSnapshot) -> Vec<Option<(u64, i64)>> {
        if self.policy.community_excludes_frequent {
            vec![None; snap.n()]
        } else {
            Vec::new()
        }
    }

    /// The partner-side check of `ratee` against `rater` on the slice that
    /// covers the ratee, so its reputation is its signed total there.
    pub(crate) fn confirm(
        &self,
        snap: &ShardedSnapshot,
        ratee: NodeId,
        rater: NodeId,
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
    ) -> ConfirmVerdict {
        let Some(r_idx) = snap.index(ratee) else { return ConfirmVerdict::default() };
        let high_reputed = self.thresholds.is_high_reputed(snap.signed(r_idx) as f64);
        let probe = (r_idx, snap.index(rater));
        let reverse = high_reputed.then(|| self.direction(snap, probe, meter, cache)).flatten();
        ConfirmVerdict { known: true, high_reputed, reverse }
    }

    /// One manager's share of a round: walk the rows of the `responsible`
    /// nodes that are high-reputed on `snap`, run the forward direction for
    /// every rater, and ask `route(j, i)` about the partner `j` of each hit
    /// `D(i ← j)`. Pairs already in `checked` are skipped and every hit
    /// joins it, so the mirrored probe of a pair is never sent. Returns the
    /// confirmed pairs and the unconfirmed ones (forward evidence only),
    /// each in walk order.
    pub(crate) fn round(
        &self,
        snap: &ShardedSnapshot,
        responsible: &[NodeId],
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
        checked: &mut HashSet<(NodeId, NodeId)>,
        mut route: impl FnMut(NodeId, NodeId) -> Partner,
    ) -> (Vec<SuspectPair>, Vec<SuspectPair>) {
        let mut confirmed = Vec::new();
        let mut unconfirmed = Vec::new();
        for &i in responsible {
            let Some(i_idx) = snap.index(i) else { continue };
            if !self.thresholds.is_high_reputed(snap.signed(i_idx) as f64) {
                continue;
            }
            let (cols, _) = snap.row(i_idx);
            meter.element_checks(cols.len() as u64);
            for &j_idx in cols {
                let j = snap.node_id(j_idx);
                let key = if i < j { (i, j) } else { (j, i) };
                if checked.contains(&key) {
                    continue;
                }
                let Some(fwd) = self.direction(snap, (i_idx, Some(j_idx)), meter, cache) else {
                    continue;
                };
                checked.insert(key);
                let verdict = match route(j, i) {
                    // a responsible node is always interned in its slice
                    Partner::Local => self.confirm(snap, j, i, meter, cache),
                    Partner::Answered(verdict) => verdict,
                    Partner::Unreachable => ConfirmVerdict::default(),
                    Partner::Unmanaged => continue,
                };
                if !verdict.known {
                    // no answer, or a replica without data: degraded, not lost
                    unconfirmed.push(SuspectPair::new(j, i, Some(fwd), None));
                } else if verdict.high_reputed
                    && (verdict.reverse.is_some() || !self.policy.require_mutual)
                {
                    confirmed.push(SuspectPair::new(j, i, Some(fwd), verdict.reverse));
                }
            }
        }
        (confirmed, unconfirmed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;

    /// The thresholds of the decentralized tests' fixtures.
    pub(crate) fn thresholds() -> Thresholds {
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    /// Each pair boosts itself 30 times each way; a five-node community
    /// (40..45) rates every colluder down once and each other up once.
    pub(crate) fn colluding_ratings(pairs: &[(u64, u64)]) -> Vec<Rating> {
        let mut out = Vec::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for &(a, b) in pairs {
            for _ in 0..30 {
                out.push(Rating::positive(NodeId(a), NodeId(b), tick()));
                out.push(Rating::positive(NodeId(b), NodeId(a), tick()));
            }
            for k in 0..5 {
                out.push(Rating::negative(NodeId(40 + k), NodeId(a), tick()));
                out.push(Rating::negative(NodeId(40 + k), NodeId(b), tick()));
            }
        }
        for k in 0..5u64 {
            for l in 0..5u64 {
                if k != l {
                    out.push(Rating::positive(NodeId(40 + k), NodeId(40 + l), tick()));
                }
            }
        }
        out
    }

    /// Two colluding pairs, (1, 2) and (20, 21), plus their community.
    pub(crate) fn ratings() -> Vec<Rating> {
        colluding_ratings(&[(1, 2), (20, 21)])
    }

    /// Every node [`ratings`] rates or is rated by.
    pub(crate) fn node_ids() -> Vec<NodeId> {
        (1..=2).chain(20..=21).chain(40..45).map(NodeId).collect()
    }

    /// Walk `responsible` on one slice holding all of [`ratings`], where a
    /// `Local` partner is checked as well.
    fn walk(
        require_mutual: bool,
        responsible: &[NodeId],
        checked: &mut HashSet<(NodeId, NodeId)>,
        route: impl FnMut(NodeId, NodeId) -> Partner,
    ) -> (Vec<SuspectPair>, Vec<SuspectPair>) {
        let mut h = collusion_reputation::history::InteractionHistory::new();
        for r in ratings() {
            h.record(r);
        }
        let snap = ShardedSnapshot::build(&h, &node_ids(), 1);
        let policy = DetectionPolicy { require_mutual, ..DetectionPolicy::STRICT };
        let k = Kernel { method: Method::Optimized, thresholds: thresholds(), policy };
        k.round(&snap, responsible, &CostMeter::new(), &mut k.agg_cache(&snap), checked, route)
    }

    #[test]
    fn verdicts_fold_into_confirmed_unconfirmed_or_dropped() {
        // the reverse evidence D(2 <- 1), read off a local check
        let (both, _) = walk(true, &[NodeId(1)], &mut HashSet::new(), |_, _| Partner::Local);
        let reverse = both[0].low_boosts_high;
        assert!(reverse.is_some());
        let answered = |high_reputed, reverse| {
            Partner::Answered(ConfirmVerdict { known: true, high_reputed, reverse })
        };
        // (the route's answer, outcome under require_mutual, outcome without)
        for (answer, mutual, one_way) in [
            (Partner::Local, "both ways", "both ways"),
            (answered(true, reverse), "both ways", "both ways"),
            (answered(true, None), "dropped", "forward only"),
            (answered(false, None), "dropped", "dropped"),
            (Partner::Answered(ConfirmVerdict::default()), "unconfirmed", "unconfirmed"),
            (Partner::Unreachable, "unconfirmed", "unconfirmed"),
            (Partner::Unmanaged, "dropped", "dropped"),
        ] {
            for (require_mutual, want) in [(true, mutual), (false, one_way)] {
                let mut asked = Vec::new();
                let (c, u) = walk(require_mutual, &[NodeId(1)], &mut HashSet::new(), |j, i| {
                    asked.push((j, i));
                    answer
                });
                // node 1's row has one forward hit: node 2 boosts it
                assert_eq!(asked, [(NodeId(2), NodeId(1))]);
                let forward = |p: &SuspectPair| {
                    p.ids() == (NodeId(1), NodeId(2)) && p.high_boosts_low.is_some()
                };
                let got = match (&c[..], &u[..]) {
                    ([], []) => "dropped",
                    ([p], []) if forward(p) && p.low_boosts_high == reverse => "both ways",
                    ([p], []) if forward(p) && p.low_boosts_high.is_none() => "forward only",
                    ([], [p]) if forward(p) && p.low_boosts_high.is_none() => "unconfirmed",
                    _ => "something else",
                };
                assert_eq!(got, want, "{answer:?}, require_mutual = {require_mutual}");
            }
        }
    }

    #[test]
    fn checked_pairs_are_never_probed_twice() {
        let mut checked = HashSet::new();
        let mut asked = 0;
        let mut route = |_, _| {
            asked += 1;
            Partner::Local
        };
        // node 2's row meets the confirmed pair again: its mirrored probe is skipped
        assert_eq!(walk(true, &[NodeId(1), NodeId(2)], &mut checked, &mut route).0.len(), 1);
        assert_eq!(checked, HashSet::from([(NodeId(1), NodeId(2))]));
        // and so it is in a later walk (another manager) sharing the set
        assert_eq!(walk(true, &[NodeId(2)], &mut checked, &mut route), (vec![], vec![]));
        assert_eq!(asked, 1);
    }
}
