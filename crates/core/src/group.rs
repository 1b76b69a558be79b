//! Group collusion detection — the paper's future work (§VI).
//!
//! "We will also investigate how to detect a collusion collective having
//! more than two nodes such as Sybil attack."
//!
//! The pair detectors (§IV) test one boosting partner at a time, so a
//! *group* of `k ≥ 3` nodes that spreads its mutual boosting across the
//! collective can stay below the pair thresholds (each pair's `N(j,i)` can
//! sit under `T_N` while the group's combined boost is huge). This module
//! generalizes the collusion model:
//!
//! 1. Build the **mutual-boost graph**: an edge joins `i` and `j` when each
//!    rates the other mostly-positively (`a ≥ T_a` both ways) with combined
//!    frequency at least `T_G` (a *group* frequency threshold that may sit
//!    below the pair threshold `T_N`).
//! 2. Find connected components of size ≥ 2 among high-reputed nodes.
//! 3. A component is a **suspect collective** when its members' community
//!    fraction (positive ratings from outside the component over all
//!    outside ratings) falls below `T_b` — the C2 test lifted from a
//!    partner to a collective.
//!
//! Pair collusion is the `k = 2` special case, so the group detector's
//! output on pure pair workloads matches the pair detectors' (tested
//! below); on clique workloads it finds what they structurally cannot.

use crate::input::SnapshotInput;
use collusion_reputation::id::NodeId;
use collusion_reputation::thresholds::Thresholds;
use std::collections::{BTreeMap, BTreeSet};

/// A detected colluding collective.
#[derive(Clone, Debug, PartialEq)]
pub struct SuspectGroup {
    /// Members, ascending. Always ≥ 2.
    pub members: Vec<NodeId>,
    /// Mutual-boost edges inside the group.
    pub internal_edges: usize,
    /// Combined internal boost ratings (both directions, all edges).
    pub internal_ratings: u64,
    /// The collective's community positive fraction (outside ratings only).
    pub community_fraction: f64,
}

impl SuspectGroup {
    /// Whether this is a plain pair (the §IV case).
    pub fn is_pair(&self) -> bool {
        self.members.len() == 2
    }

    /// Whether the group forms a cycle/clique of ≥3 — the structure the
    /// paper's Overstock analysis found absent (C5) and flags as future
    /// work.
    pub fn is_closed(&self) -> bool {
        self.internal_edges >= self.members.len() && self.members.len() >= 3
    }
}

/// Configuration of the group detector.
#[derive(Clone, Copy, Debug)]
pub struct GroupDetectorConfig {
    /// Pair thresholds; `t_a`/`t_b`/`t_r` are reused at group level.
    pub thresholds: Thresholds,
    /// Minimum mutual rating count (sum of both directions) for a
    /// mutual-boost edge. May sit below `2·T_N` to catch groups spreading
    /// their boosting across members.
    pub t_g: u64,
}

impl GroupDetectorConfig {
    /// Group threshold defaulting to the pair threshold (`T_G = T_N`, i.e.
    /// each direction averages `T_N / 2`).
    pub fn from_thresholds(thresholds: Thresholds) -> Self {
        GroupDetectorConfig { thresholds, t_g: thresholds.t_n }
    }
}

/// The group collusion detector.
#[derive(Clone, Copy, Debug)]
pub struct GroupDetector {
    /// Detector configuration.
    pub config: GroupDetectorConfig,
}

/// Result of a group detection pass.
#[derive(Clone, Debug, Default)]
pub struct GroupReport {
    /// Suspect collectives, ordered by smallest member.
    pub groups: Vec<SuspectGroup>,
}

impl GroupReport {
    /// Every implicated node, ascending.
    pub fn colluders(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> =
            self.groups.iter().flat_map(|g| g.members.iter().copied()).collect();
        set.into_iter().collect()
    }

    /// Groups of size ≥ 3.
    pub fn collectives(&self) -> Vec<&SuspectGroup> {
        self.groups.iter().filter(|g| g.members.len() >= 3).collect()
    }
}

impl GroupDetector {
    /// Detector with the given configuration.
    pub fn new(config: GroupDetectorConfig) -> Self {
        GroupDetector { config }
    }

    /// Run group detection over the manager's view. Members are found by
    /// dense index and reported by id; interning preserves id order, and
    /// every sum is an integer, so the report does not depend on the order
    /// a row lists its raters in.
    pub fn detect(&self, input: &SnapshotInput<'_>) -> GroupReport {
        let th = &self.config.thresholds;
        let snap = input.snapshot;
        let high = input.high_reputed_idx(th);
        let high_set: BTreeSet<u32> = high.iter().copied().collect();

        // 1. mutual-boost edges among high-reputed nodes
        let mut adjacency: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for &i in &high {
            for &j in snap.row(i).0 {
                if j <= i || !high_set.contains(&j) {
                    continue;
                }
                let ij = snap.pair(i, j);
                let ji = snap.pair(j, i);
                if ij.total + ji.total < self.config.t_g {
                    continue;
                }
                let a_ij = ij.positive_fraction().unwrap_or(0.0);
                let a_ji = ji.positive_fraction().unwrap_or(0.0);
                if th.a_suspicious(a_ij) && th.a_suspicious(a_ji) {
                    adjacency.entry(i).or_default().insert(j);
                    adjacency.entry(j).or_default().insert(i);
                }
            }
        }

        // 2. connected components
        let mut visited: BTreeSet<u32> = BTreeSet::new();
        let mut groups = Vec::new();
        for &start in adjacency.keys() {
            if visited.contains(&start) {
                continue;
            }
            let mut stack = vec![start];
            let mut members = BTreeSet::new();
            members.insert(start);
            visited.insert(start);
            while let Some(n) = stack.pop() {
                for &next in &adjacency[&n] {
                    if members.insert(next) {
                        visited.insert(next);
                        stack.push(next);
                    }
                }
            }
            // 3. collective community test (C2 lifted to the group)
            let mut outside_total = 0u64;
            let mut outside_pos = 0u64;
            let mut internal_ratings = 0u64;
            for &m in &members {
                let (raters, cells) = snap.row(m);
                for (rater, c) in raters.iter().zip(cells) {
                    if members.contains(rater) {
                        internal_ratings += c.total;
                    } else {
                        outside_total += c.total;
                        outside_pos += c.positive;
                    }
                }
            }
            if outside_total == 0 {
                continue; // no community evidence — same convention as §IV
            }
            let community_fraction = outside_pos as f64 / outside_total as f64;
            if !th.b_suspicious(community_fraction) {
                continue;
            }
            let internal_edges =
                members.iter().map(|m| adjacency.get(m).map_or(0, |s| s.len())).sum::<usize>() / 2;
            groups.push(SuspectGroup {
                members: members.into_iter().map(|m| snap.node_id(m)).collect(),
                internal_edges,
                internal_ratings,
                community_fraction,
            });
        }
        groups.sort_by_key(|g| g.members[0]);
        GroupReport { groups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimized::OptimizedDetector;
    use collusion_reputation::history::InteractionHistory;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::Rating;
    use collusion_reputation::sharded::ShardedSnapshot;

    fn thresholds() -> Thresholds {
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    /// Group detection over a one-shard snapshot of `h`, signed reputations.
    fn detect(h: &InteractionHistory, nodes: &[NodeId], t_g: u64) -> GroupReport {
        let snap = ShardedSnapshot::build(h, nodes, 1);
        let cfg = GroupDetectorConfig { thresholds: thresholds(), t_g };
        GroupDetector::new(cfg).detect(&SnapshotInput::from_signed(&snap, nodes))
    }

    /// A clique of `k` colluders spreading boosts so each *pair* exchanges
    /// only `per_pair` mutual ratings, plus community negatives.
    fn clique_history(k: u64, per_pair: u64) -> (InteractionHistory, Vec<NodeId>) {
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for i in 1..=k {
            for j in 1..=k {
                if i != j {
                    for _ in 0..per_pair {
                        h.record(Rating::positive(NodeId(i), NodeId(j), tick()));
                    }
                }
            }
        }
        for m in 1..=k {
            for r in 0..5u64 {
                h.record(Rating::negative(NodeId(100 + r), NodeId(m), tick()));
            }
        }
        // honest background
        for r in 0..5u64 {
            for s in 0..5u64 {
                if r != s {
                    h.record(Rating::positive(NodeId(100 + r), NodeId(100 + s), tick()));
                }
            }
        }
        let mut nodes: Vec<NodeId> = (1..=k).map(NodeId).collect();
        nodes.extend((100..105).map(NodeId));
        (h, nodes)
    }

    #[test]
    fn clique_below_pair_threshold_caught_by_group_detector() {
        // 5 colluders, 12 mutual ratings per pair: each pair is below
        // T_N = 20, so the §IV pair detector is structurally blind…
        let (h, nodes) = clique_history(5, 12);
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let input = SnapshotInput::from_signed(&snap, &nodes);
        let pair_report = OptimizedDetector::new(thresholds()).detect_snapshot(&input);
        assert!(pair_report.pairs.is_empty(), "pair detector should miss the spread clique");
        // …but the group detector with T_G = 20 (combined) sees the edges,
        // with one report for every shard count.
        let cfg = GroupDetectorConfig { thresholds: thresholds(), t_g: 20 };
        let report = GroupDetector::new(cfg).detect(&input);
        assert_eq!(report.groups.len(), 1);
        let g = &report.groups[0];
        assert_eq!(g.members, (1..=5).map(NodeId).collect::<Vec<_>>());
        assert!(g.is_closed());
        assert!(!g.is_pair());
        assert!(g.community_fraction < 0.2);
        assert_eq!(g.internal_edges, 10); // C(5,2)
        assert_eq!(g.internal_ratings, 20 * 12);
        for shards in [3, 64] {
            let snap = ShardedSnapshot::build(&h, &nodes, shards);
            let sharded =
                GroupDetector::new(cfg).detect(&SnapshotInput::from_signed(&snap, &nodes));
            assert_eq!(sharded.groups, report.groups, "{shards} shards");
        }
    }

    #[test]
    fn pair_collusion_is_the_k2_special_case() {
        let (h, nodes) = clique_history(2, 25);
        let snap = ShardedSnapshot::build(&h, &nodes, 1);
        let input = SnapshotInput::from_signed(&snap, &nodes);
        let pair_report = OptimizedDetector::new(thresholds()).detect_snapshot(&input);
        assert_eq!(pair_report.pair_ids(), vec![(NodeId(1), NodeId(2))]);
        let cfg = GroupDetectorConfig::from_thresholds(thresholds());
        let report = GroupDetector::new(cfg).detect(&input);
        assert_eq!(report.groups.len(), 1);
        assert!(report.groups[0].is_pair());
        assert_eq!(report.colluders(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn honest_cluster_not_a_collective() {
        // mutually praising honest nodes that the community ALSO likes
        let mut h = InteractionHistory::new();
        let mut t = 0u64;
        let mut tick = || {
            t += 1;
            SimTime(t)
        };
        for i in 1..=3u64 {
            for j in 1..=3u64 {
                if i != j {
                    for _ in 0..15 {
                        h.record(Rating::positive(NodeId(i), NodeId(j), tick()));
                    }
                }
            }
        }
        for m in 1..=3u64 {
            for r in 0..6u64 {
                h.record(Rating::positive(NodeId(100 + r), NodeId(m), tick()));
            }
        }
        let mut nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
        nodes.extend((100..106).map(NodeId));
        let report = detect(&h, &nodes, 20);
        assert!(report.groups.is_empty(), "community-loved cluster flagged: {report:?}");
    }

    #[test]
    fn no_community_evidence_skips_group() {
        let mut h = InteractionHistory::new();
        for t in 0..30u64 {
            h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
            h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
        }
        let nodes = vec![NodeId(1), NodeId(2)];
        let report = detect(&h, &nodes, thresholds().t_n);
        assert!(report.groups.is_empty());
    }

    #[test]
    fn low_reputed_clique_skipped() {
        // clique drowned in negatives: fails the C1 filter
        let (mut h, nodes) = clique_history(4, 15);
        let mut t = 10_000u64;
        for m in 1..=4u64 {
            for r in 0..60u64 {
                h.record(Rating::negative(NodeId(100 + r % 5), NodeId(m), SimTime(t)));
                t += 1;
            }
        }
        let report = detect(&h, &nodes, 20);
        assert!(report.groups.is_empty());
    }

    #[test]
    fn collectives_filter_returns_only_big_groups() {
        let (h, nodes) = clique_history(4, 12);
        let report = detect(&h, &nodes, 20);
        assert_eq!(report.collectives().len(), 1);
        assert_eq!(report.collectives()[0].members.len(), 4);
    }
}
