//! Simulation configuration — every §V parameter in one place.

use collusion_reputation::eigentrust::{EigenTrustConfig, WeightedSumConfig};
use collusion_reputation::id::NodeId;
use collusion_reputation::thresholds::Thresholds;

/// Which collusion detector (if any) runs after each reputation update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// No detection — plain reputation system (Figures 5–7).
    None,
    /// The `O(m·n²)` row-scanning detector ("Unoptimized").
    Basic,
    /// The `O(m·n)` Formula-(2) detector ("Optimized").
    Optimized,
    /// Optimized pair detection plus the group detector (future work §VI):
    /// catches collectives of ≥3 that spread their boosting below the pair
    /// threshold.
    GroupAware,
}

/// Global reputation engine choice.
#[derive(Clone, Copy, Debug)]
pub enum ReputationEngine {
    /// The paper's §V weighted sum (`w_l = 0.2`, `w_s = 0.5`) over raw
    /// signed rating sums, normalized.
    WeightedSum(WeightedSumConfig),
    /// The same weights over EigenTrust's *normalized local trust* values
    /// (one damped EigenTrust step) — caps the leverage of rating volume.
    NormalizedWeightedSum(WeightedSumConfig),
    /// Canonical EigenTrust power iteration over the pretrusted
    /// distribution (used for the Figure 13 cost accounting).
    PowerIteration(EigenTrustConfig),
    /// First-hand-only reputation (related work §II, group 1): every client
    /// selects servers by its *own* experience; collusive rating exchanges
    /// are invisible to third parties by construction. The published
    /// "global" reputation (for metrics/detection) is the community signed
    /// sum, normalized.
    FirstHand,
}

/// Full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of peers; ids are `1..=n_nodes`.
    pub n_nodes: u64,
    /// Number of interest categories (paper: 20).
    pub interest_categories: u8,
    /// Inclusive range of interests per node (paper: 1–5).
    pub interests_per_node: (u8, u8),
    /// Per-node request capacity per query cycle (paper: 50).
    pub capacity: u32,
    /// Inclusive range the per-node activity probability is drawn from
    /// (paper: \[0.3, 0.8\]).
    pub activity: (f64, f64),
    /// Query cycles per simulation cycle (paper: 20).
    pub query_cycles: u32,
    /// Simulation cycles per run (paper: 20).
    pub sim_cycles: u32,
    /// Pretrusted node ids (paper: 1–3; always-authentic servers).
    pub pretrusted: Vec<NodeId>,
    /// Colluder node ids (paper: 4–11), paired consecutively.
    pub colluders: Vec<NodeId>,
    /// Probability a colluder serves an authentic file (`B`).
    pub colluder_good_prob: f64,
    /// Probability a normal node serves an authentic file (paper: 0.8).
    pub normal_good_prob: f64,
    /// Mutual +1 ratings each colluding pair exchanges per query cycle
    /// (paper: 10).
    pub collusion_ratings_per_cycle: u32,
    /// Compromised pretrusted nodes: (pretrusted, colluder) pairs that
    /// collude with each other (Figures 7/11: (n1,n4), (n2,n6)).
    pub compromised: Vec<(NodeId, NodeId)>,
    /// Colluding groups of ≥3 members (future work §VI); each member rates
    /// every other member per query cycle, spreading the boost across the
    /// collective.
    pub colluding_groups: Vec<Vec<NodeId>>,
    /// Mutual +1 ratings per ordered member pair of a group per query cycle.
    pub group_ratings_per_cycle: u32,
    /// Detection period `T` in simulation cycles: the detector sees only
    /// the ratings of the last `w` cycles (the paper's Table I counters are
    /// per update period). `None` = cumulative history (default).
    pub detection_window_cycles: Option<u32>,
    /// Slander ratings per colluder per query cycle: the other half of the
    /// paper's collusion definition ("give all other peers low local
    /// reputation values", §I) — each colluder submits this many −1 ratings
    /// about random high-reputed non-colluders (the Figure 1(b) "rival"
    /// behaviour). Default 0.
    pub slander_ratings_per_cycle: u32,
    /// Reputation engine.
    pub engine: ReputationEngine,
    /// Which detector runs after each reputation update.
    pub detector: DetectorKind,
    /// Detection thresholds; `t_r` doubles as the system's reputation
    /// threshold (paper: 0.05).
    pub thresholds: Thresholds,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's baseline configuration (Figure 5: EigenTrust, `B = 0.6`,
    /// pretrusted 1–3, colluders 4–11, no detection).
    pub fn paper_baseline(seed: u64) -> Self {
        SimConfig {
            n_nodes: 200,
            interest_categories: 20,
            interests_per_node: (1, 5),
            capacity: 50,
            activity: (0.3, 0.8),
            query_cycles: 20,
            sim_cycles: 20,
            pretrusted: (1..=3).map(NodeId).collect(),
            colluders: (4..=11).map(NodeId).collect(),
            colluder_good_prob: 0.6,
            normal_good_prob: 0.8,
            collusion_ratings_per_cycle: 10,
            compromised: Vec::new(),
            colluding_groups: Vec::new(),
            group_ratings_per_cycle: 2,
            detection_window_cycles: None,
            slander_ratings_per_cycle: 0,
            engine: ReputationEngine::WeightedSum(WeightedSumConfig::default()),
            detector: DetectorKind::None,
            // The paper states T_R = 0.05 but not the simulation's T_a/T_b/
            // T_N, and its reputations are not normalized to sum to one as
            // ours are — at 200 nodes, 0.05 is 10× the uniform share and can
            // sit above crowded-out colluders (Figure 11's n8–n11). We use
            // twice the uniform share (2/200 = 0.01): still clearly "high
            // reputed", but scale-aware. T_N = 100: a colluding pair
            // exchanges 10 ratings per query cycle (200/sim cycle), while an
            // honest client would need 100+ repeat downloads from one server
            // in a period. T_a = 0.95 sits above the best honest service
            // rate (0.8 for normal nodes); T_b = 0.7 sits between a
            // colluder's community fraction (B ≤ 0.6) and an honest node's
            // (≥ 0.8).
            thresholds: Thresholds::new(0.01, 100, 0.95, 0.7),
            seed,
        }
    }

    /// Ground-truth colluding pairs: consecutive `colluders` entries plus
    /// the compromised (pretrusted, colluder) pairs.
    pub fn colluding_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> =
            self.colluders.chunks(2).filter(|c| c.len() == 2).map(|c| (c[0], c[1])).collect();
        pairs.extend(self.compromised.iter().copied());
        pairs
    }

    /// Validate internal consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(self.n_nodes >= 2, "need at least two nodes");
        assert!(self.interest_categories > 0, "need at least one interest");
        assert!(
            self.interests_per_node.0 >= 1
                && self.interests_per_node.0 <= self.interests_per_node.1
                && self.interests_per_node.1 <= self.interest_categories,
            "invalid interests_per_node range"
        );
        assert!(
            (0.0..=1.0).contains(&self.activity.0)
                && self.activity.0 <= self.activity.1
                && self.activity.1 <= 1.0,
            "invalid activity range"
        );
        assert!((0.0..=1.0).contains(&self.colluder_good_prob), "B out of range");
        assert!((0.0..=1.0).contains(&self.normal_good_prob), "normal_good_prob out of range");
        for id in self.pretrusted.iter().chain(self.colluders.iter()) {
            assert!(
                id.raw() >= 1 && id.raw() <= self.n_nodes,
                "node id {id} outside 1..={}",
                self.n_nodes
            );
        }
        for &(p, c) in &self.compromised {
            assert!(self.pretrusted.contains(&p), "compromised node {p} is not pretrusted");
            assert!(self.colluders.contains(&c), "compromised partner {c} is not a colluder");
        }
        let overlap = self.pretrusted.iter().any(|p| self.colluders.contains(p));
        assert!(!overlap, "a node cannot be both pretrusted and colluder");
        for group in &self.colluding_groups {
            assert!(
                group.len() >= 3,
                "colluding groups need ≥3 members (use `colluders` for pairs)"
            );
            for id in group {
                assert!(
                    id.raw() >= 1 && id.raw() <= self.n_nodes,
                    "group member {id} outside 1..={}",
                    self.n_nodes
                );
                assert!(!self.pretrusted.contains(id), "group member {id} is pretrusted");
            }
        }
    }

    /// Every group-colluding node, flattened.
    pub fn group_members(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.colluding_groups.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_parameters() {
        let c = SimConfig::paper_baseline(0);
        assert_eq!(c.n_nodes, 200);
        assert_eq!(c.interest_categories, 20);
        assert_eq!(c.capacity, 50);
        assert_eq!(c.activity, (0.3, 0.8));
        assert_eq!(c.query_cycles, 20);
        assert_eq!(c.sim_cycles, 20);
        assert_eq!(c.pretrusted, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(c.colluders.len(), 8);
        assert_eq!(c.collusion_ratings_per_cycle, 10);
        assert_eq!(c.thresholds.t_r, 0.01);
        c.validate();
    }

    #[test]
    fn colluding_pairs_pair_consecutively() {
        let c = SimConfig::paper_baseline(0);
        assert_eq!(
            c.colluding_pairs(),
            vec![
                (NodeId(4), NodeId(5)),
                (NodeId(6), NodeId(7)),
                (NodeId(8), NodeId(9)),
                (NodeId(10), NodeId(11)),
            ]
        );
    }

    #[test]
    fn compromised_pairs_appended() {
        let mut c = SimConfig::paper_baseline(0);
        c.compromised = vec![(NodeId(1), NodeId(4)), (NodeId(2), NodeId(6))];
        c.validate();
        let pairs = c.colluding_pairs();
        assert!(pairs.contains(&(NodeId(1), NodeId(4))));
        assert!(pairs.contains(&(NodeId(2), NodeId(6))));
        assert_eq!(pairs.len(), 6);
    }

    #[test]
    #[should_panic(expected = "not pretrusted")]
    fn compromised_must_be_pretrusted() {
        let mut c = SimConfig::paper_baseline(0);
        c.compromised = vec![(NodeId(99), NodeId(4))];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "both pretrusted and colluder")]
    fn overlapping_roles_rejected() {
        let mut c = SimConfig::paper_baseline(0);
        c.colluders.push(NodeId(1));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn out_of_range_id_rejected() {
        let mut c = SimConfig::paper_baseline(0);
        c.colluders.push(NodeId(999));
        c.validate();
    }

    #[test]
    fn odd_colluder_count_leaves_last_unpaired() {
        let mut c = SimConfig::paper_baseline(0);
        c.colluders = vec![NodeId(4), NodeId(5), NodeId(6)];
        assert_eq!(c.colluding_pairs(), vec![(NodeId(4), NodeId(5))]);
    }
}
