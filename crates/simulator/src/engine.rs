//! The simulation engine (§V "Simulation execution").
//!
//! Each run executes `sim_cycles` simulation cycles of `query_cycles` query
//! cycles. In a query cycle every active peer issues one file request to the
//! highest-reputed free-capacity neighbour in a randomly chosen interest
//! cluster, receives an authentic or inauthentic file per the server's
//! behaviour probability, and submits the corresponding ±1 rating; colluding
//! pairs additionally exchange `collusion_ratings_per_cycle` mutual +1
//! ratings. After every simulation cycle the global reputations are
//! recomputed and, when configured, the collusion detector runs and zeroes
//! detected nodes ("After the methods detect the colluders, they set their
//! reputations to 0"). Detected nodes stay zeroed for the rest of the run.
//!
//! The detector runs with the extended [`DetectionPolicy`] (see
//! `collusion_core::policy` for why the evaluation scenarios need it).

use crate::config::{DetectorKind, ReputationEngine, SimConfig};
use crate::metrics::SimMetrics;
use crate::network::InterestNetwork;
use crate::peer::{build_peers, NodeKind, Peer};
use collusion_core::basic::BasicDetector;
use collusion_core::cost::CostSnapshot;
use collusion_core::group::{GroupDetector, GroupDetectorConfig};
use collusion_core::input::SnapshotInput;
use collusion_core::optimized::OptimizedDetector;
use collusion_core::policy::DetectionPolicy;
use collusion_reputation::eigentrust::{EigenTrust, NormalizedWeightedEngine, WeightedSumEngine};
use collusion_reputation::epoch::EpochBuffer;
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::Rating;
use collusion_reputation::sharded::ShardedSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One simulation run in progress.
pub struct Simulation {
    config: SimConfig,
    peers: Vec<Peer>,
    network: InterestNetwork,
    history: InteractionHistory,
    /// Ratings of the current simulation cycle (kept for windowed detection).
    cycle_history: InteractionHistory,
    /// Ratings buffered within the current query cycle and folded into the
    /// histories at its end (epoch-style batched ingestion; see
    /// [`Simulation::flush_pending`]).
    pending: Vec<Rating>,
    /// Per-cycle histories of the last `detection_window_cycles` cycles.
    recent: std::collections::VecDeque<InteractionHistory>,
    /// CSR view of the cumulative ratings, advanced by one
    /// [`ShardedSnapshot::apply_epoch`] of `epoch` per detection period
    /// (cumulative mode only; windowed runs rebuild a fresh snapshot of the
    /// merged window every period).
    snapshot: ShardedSnapshot,
    /// Ratings folded since the last detection period, in cumulative
    /// detection runs only.
    epoch: EpochBuffer,
    /// Global reputation, indexed by raw node id (index 0 unused).
    reputation: Vec<f64>,
    detected: BTreeSet<NodeId>,
    rng: SmallRng,
    tick: u64,
    requests_total: u64,
    requests_to_colluders: u64,
    authentic: u64,
    inauthentic: u64,
    reputation_ops: u64,
    detection_cost: CostSnapshot,
}

impl Simulation {
    /// Set up a run (validates the config).
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        let peers = build_peers(&config);
        let network = InterestNetwork::build(&peers, config.interest_categories);
        const ENGINE_STREAM_SALT: u64 = 0x656e_6769_6e65_5f76; // "engine_v"
        let rng = SmallRng::seed_from_u64(config.seed ^ ENGINE_STREAM_SALT);
        let n = config.n_nodes as usize;
        let nodes: Vec<NodeId> = (1..=config.n_nodes).map(NodeId).collect();
        let snapshot = ShardedSnapshot::build_with_frequent(
            &InteractionHistory::new(),
            &nodes,
            1,
            config.thresholds.t_n,
        );
        Simulation {
            peers,
            network,
            history: InteractionHistory::new(),
            cycle_history: InteractionHistory::new(),
            pending: Vec::new(),
            recent: std::collections::VecDeque::new(),
            snapshot,
            epoch: EpochBuffer::new(),
            reputation: vec![0.0; n + 1],
            detected: BTreeSet::new(),
            rng,
            tick: 0,
            requests_total: 0,
            requests_to_colluders: 0,
            authentic: 0,
            inauthentic: 0,
            reputation_ops: 0,
            detection_cost: CostSnapshot::default(),
            config,
        }
    }

    /// Execute the full run and return its metrics.
    pub fn run(self) -> SimMetrics {
        self.run_with_history().0
    }

    /// Execute the full run, returning the metrics *and* the complete
    /// cumulative rating history — the workload the robustness experiments
    /// replay into a physically partitioned [`collusion_core::system::DecentralizedSystem`].
    pub fn run_with_history(mut self) -> (SimMetrics, InteractionHistory) {
        for _ in 0..self.config.sim_cycles {
            for _ in 0..self.config.query_cycles {
                self.query_cycle();
            }
            if let Some(w) = self.config.detection_window_cycles {
                self.recent.push_back(std::mem::take(&mut self.cycle_history));
                while self.recent.len() > w as usize {
                    self.recent.pop_front();
                }
            }
            self.update_reputation();
            self.run_detection();
        }
        let metrics = SimMetrics {
            reputation: self.reputation,
            requests_total: self.requests_total,
            requests_to_colluders: self.requests_to_colluders,
            authentic: self.authentic,
            inauthentic: self.inauthentic,
            reputation_ops: self.reputation_ops,
            detection_cost: self.detection_cost,
            detected: self.detected,
        };
        (metrics, self.history)
    }

    /// One query cycle: every active peer issues a request; colluding pairs
    /// exchange their mutual ratings.
    fn query_cycle(&mut self) {
        let n = self.config.n_nodes as usize;
        let mut capacity = vec![self.config.capacity; n + 1];
        let time = SimTime(self.tick);
        for idx in 0..self.peers.len() {
            let client = self.peers[idx].id;
            let activity = self.peers[idx].activity;
            if !self.rng.random_bool(activity) {
                continue;
            }
            let interests = &self.peers[idx].interests;
            let interest = interests[self.rng.random_range(0..interests.len())];
            // highest-reputed neighbour with free capacity; ties random
            let mut best_rep = f64::NEG_INFINITY;
            let mut best: Vec<NodeId> = Vec::new();
            let first_hand = matches!(self.config.engine, ReputationEngine::FirstHand);
            for neighbor in self.network.neighbors(client, interest) {
                if capacity[neighbor.raw() as usize] == 0 {
                    continue;
                }
                let r = if first_hand {
                    // personal experience only (related work §II, group 1)
                    self.history.pair(client, neighbor).signed() as f64
                } else {
                    self.reputation[neighbor.raw() as usize]
                };
                if r > best_rep {
                    best_rep = r;
                    best.clear();
                    best.push(neighbor);
                } else if r == best_rep {
                    best.push(neighbor);
                }
            }
            if best.is_empty() {
                continue; // cluster saturated or singleton
            }
            let server = best[self.rng.random_range(0..best.len())];
            capacity[server.raw() as usize] -= 1;
            self.requests_total += 1;
            let server_idx = (server.raw() - 1) as usize;
            if self.peers[server_idx].kind == NodeKind::Colluder {
                self.requests_to_colluders += 1;
            }
            let good = self.rng.random_bool(self.peers[server_idx].good_prob);
            let rating = if good {
                self.authentic += 1;
                Rating::positive(client, server, time)
            } else {
                self.inauthentic += 1;
                Rating::negative(client, server, time)
            };
            self.record(rating);
        }
        // pair-wise collusion: mutual +1 ratings (C3/C4)
        for (a, b) in self.config.colluding_pairs() {
            for _ in 0..self.config.collusion_ratings_per_cycle {
                self.record(Rating::positive(a, b, time));
                self.record(Rating::positive(b, a, time));
            }
        }
        // group collusion (future work §VI): boosts spread across the
        // collective so each pair stays below the pair rate
        let groups = std::mem::take(&mut self.config.colluding_groups);
        for group in &groups {
            for &a in group {
                for &b in group {
                    if a != b {
                        for _ in 0..self.config.group_ratings_per_cycle {
                            self.record(Rating::positive(a, b, time));
                        }
                    }
                }
            }
        }
        self.config.colluding_groups = groups;
        // slandering: colluders depress high-reputed competitors ("… and
        // (or) give all other peers low local reputation values", §I)
        if self.config.slander_ratings_per_cycle > 0 {
            let slanderers: Vec<NodeId> =
                self.config.colluders.iter().copied().chain(self.config.group_members()).collect();
            let colluder_set: std::collections::BTreeSet<NodeId> =
                slanderers.iter().copied().collect();
            // targets: the non-colluders currently leading the reputation
            // ranking (slander aims at competitors for requests)
            let mut targets: Vec<NodeId> = (1..=self.config.n_nodes)
                .map(NodeId)
                .filter(|id| !colluder_set.contains(id))
                .collect();
            targets.sort_by(|a, b| {
                self.reputation[b.raw() as usize]
                    .partial_cmp(&self.reputation[a.raw() as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            targets.truncate(10);
            if !targets.is_empty() {
                for slanderer in slanderers {
                    for _ in 0..self.config.slander_ratings_per_cycle {
                        let target = targets[self.rng.random_range(0..targets.len())];
                        self.record(Rating::negative(slanderer, target, time));
                    }
                }
            }
        }
        self.flush_pending();
        self.tick += 1;
    }

    /// Record a rating. Most engines only read the histories at cycle
    /// boundaries, so the rating is buffered and folded in by
    /// [`Simulation::flush_pending`] at the end of the query cycle — the
    /// same write-batching the epoch buffer applies at detection scale.
    /// First-hand selection reads the live history *inside* the cycle, so
    /// that engine keeps the immediate path (bit-identical either way for
    /// the rest).
    fn record(&mut self, rating: Rating) {
        if matches!(self.config.engine, ReputationEngine::FirstHand) {
            self.fold(rating);
        } else {
            self.pending.push(rating);
        }
    }

    /// Fold the query cycle's buffered ratings into the cumulative history
    /// (and the cycle slice or the detection epoch log), grouped by
    /// ratee so consecutive inserts hit the same row. Counter arithmetic
    /// commutes, so the grouped order leaves every history byte-identical
    /// to immediate ingestion.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.pending);
        batch.sort_by_key(|r| (r.ratee, r.rater));
        for rating in batch.drain(..) {
            self.fold(rating);
        }
        self.pending = batch; // keep the allocation for the next cycle
    }

    fn fold(&mut self, rating: Rating) {
        self.history.record(rating);
        if self.config.detection_window_cycles.is_some() {
            self.cycle_history.record(rating);
        } else if self.config.detector != DetectorKind::None {
            self.epoch.record(rating);
        }
    }

    /// Recompute global reputations (once per simulation cycle).
    fn update_reputation(&mut self) {
        let n = self.config.n_nodes as usize;
        match self.config.engine {
            ReputationEngine::WeightedSum(cfg) => {
                let res = WeightedSumEngine::new(cfg).compute(
                    &self.history,
                    n + 1,
                    &self.config.pretrusted,
                );
                self.reputation = res.reputation;
                self.reputation_ops += res.operations;
            }
            ReputationEngine::NormalizedWeightedSum(cfg) => {
                let res = NormalizedWeightedEngine::new(cfg).compute(
                    &self.history,
                    n + 1,
                    &self.config.pretrusted,
                );
                self.reputation = res.reputation;
                self.reputation_ops += res.operations;
            }
            ReputationEngine::PowerIteration(cfg) => {
                let res = EigenTrust::new(cfg).compute_from_history(
                    &self.history,
                    n + 1,
                    &self.config.pretrusted,
                );
                self.reputation = res.trust;
                self.reputation_ops += res.operations;
            }
            ReputationEngine::FirstHand => {
                // selection ignores this vector; publish the normalized
                // community signed sums for metrics and detection
                let mut raw: Vec<f64> = (0..=n as u64)
                    .map(|id| (self.history.signed_reputation(NodeId(id)) as f64).max(0.0))
                    .collect();
                let sum: f64 = raw.iter().sum();
                if sum > 0.0 {
                    for v in &mut raw {
                        *v /= sum;
                    }
                }
                self.reputation = raw;
                self.reputation_ops += n as u64;
            }
        }
    }

    /// Run the configured detector on the freshly computed (pre-mitigation)
    /// reputations, then zero every detected node — newly detected and
    /// previously detected alike.
    ///
    /// Detection sees the engine's raw output: colluders keep colluding, so
    /// each period's matrix makes them high-reputed again and the manager
    /// re-confirms them (the paper's manager "periodically updates the
    /// matrix … and detects collusion"). Server selection only ever sees
    /// the post-mitigation values.
    ///
    /// Every detector runs on a one-shard [`ShardedSnapshot`]: cumulative
    /// runs keep one snapshot alive and fold the period's ratings into it
    /// with [`ShardedSnapshot::apply_epoch`], the close a manager runs;
    /// windowed runs rebuild from the merged window.
    fn run_detection(&mut self) {
        if self.config.detector != DetectorKind::None {
            let nodes: Vec<NodeId> = (1..=self.config.n_nodes).map(NodeId).collect();
            let t_n = self.config.thresholds.t_n;
            // period T: windowed detectors see only the last w cycles
            let windowed: Option<InteractionHistory> =
                if self.config.detection_window_cycles.is_some() {
                    let mut merged = InteractionHistory::new();
                    for h in &self.recent {
                        merged.merge(h);
                    }
                    Some(merged)
                } else {
                    None
                };
            let fresh: ShardedSnapshot;
            let snap: &ShardedSnapshot = match &windowed {
                Some(h) => {
                    fresh = ShardedSnapshot::build_with_frequent(h, &nodes, 1, t_n);
                    &fresh
                }
                None => {
                    self.snapshot.apply_epoch(&self.epoch.drain(), 1);
                    &self.snapshot
                }
            };
            let reputation = &self.reputation;
            let input =
                SnapshotInput::with_reputation_fn(snap, &nodes, |id| reputation[id.raw() as usize]);
            let (implicated, cost) = match self.config.detector {
                DetectorKind::Basic => {
                    let report = BasicDetector::with_policy(
                        self.config.thresholds,
                        DetectionPolicy::EXTENDED,
                    )
                    .detect_snapshot(&input);
                    (report.colluders(), report.cost)
                }
                DetectorKind::Optimized => {
                    let report = OptimizedDetector::with_policy(
                        self.config.thresholds,
                        DetectionPolicy::EXTENDED,
                    )
                    .detect_snapshot(&input);
                    (report.colluders(), report.cost)
                }
                DetectorKind::GroupAware => {
                    let report = OptimizedDetector::with_policy(
                        self.config.thresholds,
                        DetectionPolicy::EXTENDED,
                    )
                    .detect_snapshot(&input);
                    let groups = GroupDetector::new(GroupDetectorConfig::from_thresholds(
                        self.config.thresholds,
                    ))
                    .detect(&input);
                    let mut implicated = report.colluders();
                    implicated.extend(groups.colluders());
                    (implicated, report.cost)
                }
                DetectorKind::None => unreachable!(),
            };
            self.detection_cost = self.detection_cost.plus(&cost);
            for c in implicated {
                self.detected.insert(c);
            }
        }
        // mitigation: every detected node's reputation is forced to zero
        for &d in &self.detected {
            self.reputation[d.raw() as usize] = 0.0;
        }
    }

    /// Read-only view of the current reputation vector (for tests).
    pub fn reputation(&self) -> &[f64] {
        &self.reputation
    }

    /// Read-only view of the accumulated history (for tests).
    pub fn history(&self) -> &InteractionHistory {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn quick(mut config: SimConfig) -> SimMetrics {
        // shrink for test speed: 60 nodes, 5 sim cycles
        config.n_nodes = 60;
        config.sim_cycles = 5;
        Simulation::new(config).run()
    }

    #[test]
    fn plain_eigentrust_lets_colluders_win_at_b06() {
        // Figure 5's headline: with B=0.6 colluders out-rank everyone.
        let m = quick(SimConfig::paper_baseline(1));
        let top: Vec<NodeId> = m.ranking().into_iter().take(8).map(|(n, _)| n).collect();
        let colluder_in_top = top.iter().filter(|n| (4..=11).contains(&n.raw())).count();
        assert!(colluder_in_top >= 6, "expected colluders to dominate the top-8, got {top:?}");
        assert!(m.detected.is_empty());
        assert!(m.requests_total > 0);
        assert!(m.requests_to_colluders > 0);
    }

    #[test]
    fn detection_zeroes_all_colluders() {
        // Figure 10: EigenTrust+Optimized with B=0.2.
        let mut cfg = SimConfig::paper_baseline(2);
        cfg.colluder_good_prob = 0.2;
        cfg.detector = crate::config::DetectorKind::Optimized;
        let m = quick(cfg);
        for id in 4..=11u64 {
            assert_eq!(m.reputation_of(NodeId(id)), 0.0, "colluder n{id} not zeroed");
            assert!(m.detected.contains(&NodeId(id)), "colluder n{id} not detected");
        }
        // pretrusted nodes stay clean
        for id in 1..=3u64 {
            assert!(!m.detected.contains(&NodeId(id)), "pretrusted n{id} falsely detected");
        }
    }

    #[test]
    fn no_normal_node_is_falsely_detected() {
        let mut cfg = SimConfig::paper_baseline(3);
        cfg.colluder_good_prob = 0.2;
        cfg.detector = crate::config::DetectorKind::Optimized;
        let m = quick(cfg);
        for d in &m.detected {
            assert!(
                (4..=11).contains(&d.raw()),
                "non-colluder {d} detected; detected set: {:?}",
                m.detected
            );
        }
    }

    #[test]
    fn basic_and_optimized_detect_same_nodes() {
        let mut cfg = SimConfig::paper_baseline(4);
        cfg.colluder_good_prob = 0.2;
        cfg.detector = crate::config::DetectorKind::Basic;
        let basic = quick(cfg.clone());
        cfg.detector = crate::config::DetectorKind::Optimized;
        let opt = quick(cfg);
        assert_eq!(basic.detected, opt.detected);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick(SimConfig::paper_baseline(5));
        let b = quick(SimConfig::paper_baseline(5));
        assert_eq!(a.reputation, b.reputation);
        assert_eq!(a.requests_total, b.requests_total);
        let c = quick(SimConfig::paper_baseline(6));
        assert_ne!(a.requests_total, c.requests_total);
    }

    #[test]
    fn reputations_form_distribution() {
        let m = quick(SimConfig::paper_baseline(7));
        let sum: f64 = m.reputation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "normalized reputations should sum to 1, got {sum}");
        assert!(m.reputation.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn detector_reduces_requests_to_colluders() {
        let mut cfg = SimConfig::paper_baseline(8);
        cfg.colluder_good_prob = 0.2;
        let plain = quick(cfg.clone());
        cfg.detector = crate::config::DetectorKind::Optimized;
        let protected = quick(cfg);
        assert!(
            protected.fraction_to_colluders() < plain.fraction_to_colluders(),
            "detector should starve colluders: {} !< {}",
            protected.fraction_to_colluders(),
            plain.fraction_to_colluders()
        );
    }

    #[test]
    fn compromised_pretrusted_detected_and_zeroed() {
        // Figure 11: pretrusted n1/n2 collude with n4/n6.
        let mut cfg = SimConfig::paper_baseline(9);
        cfg.colluder_good_prob = 0.2;
        cfg.compromised = vec![(NodeId(1), NodeId(4)), (NodeId(2), NodeId(6))];
        cfg.detector = crate::config::DetectorKind::Optimized;
        let m = quick(cfg);
        assert!(m.detected.contains(&NodeId(1)), "compromised pretrusted n1 not detected");
        assert!(m.detected.contains(&NodeId(2)), "compromised pretrusted n2 not detected");
        assert_eq!(m.reputation_of(NodeId(1)), 0.0);
        assert_eq!(m.reputation_of(NodeId(2)), 0.0);
        // the honest pretrusted node n3 keeps a healthy reputation
        assert!(!m.detected.contains(&NodeId(3)));
        assert!(m.reputation_of(NodeId(3)) > 0.0);
    }

    #[test]
    fn capacity_limits_requests_per_cycle() {
        let mut cfg = SimConfig::paper_baseline(10);
        cfg.n_nodes = 60;
        cfg.sim_cycles = 1;
        cfg.capacity = 1;
        let m = Simulation::new(cfg).run();
        // with capacity 1 per node, at most n_nodes requests per query cycle
        assert!(m.requests_total <= 60 * 20);
    }

    #[test]
    fn group_aware_detector_catches_spread_clique() {
        // a 4-member clique spreading boosts at 2 ratings/pair/cycle:
        // the pair detector is slow to cross T_N, the group detector is not
        let mut cfg = SimConfig::paper_baseline(13);
        cfg.colluders = Vec::new();
        cfg.colluding_groups = vec![(4..=7).map(NodeId).collect()];
        cfg.colluder_good_prob = 0.2;
        cfg.detector = crate::config::DetectorKind::GroupAware;
        let m = quick(cfg);
        for id in 4..=7u64 {
            assert!(
                m.detected.contains(&NodeId(id)),
                "group member n{id} not detected: {:?}",
                m.detected
            );
            assert_eq!(m.reputation_of(NodeId(id)), 0.0);
        }
        for d in &m.detected {
            assert!((4..=7).contains(&d.raw()), "false positive {d}");
        }
    }

    #[test]
    fn windowed_detection_still_catches_colluders() {
        // period T = 2 sim cycles: pairs exchange 400 ratings per window,
        // comfortably above T_N = 100, so detection still fires — while an
        // honest client can never hit 100 repeats inside one window
        let mut cfg = SimConfig::paper_baseline(14);
        cfg.colluder_good_prob = 0.2;
        cfg.detector = crate::config::DetectorKind::Optimized;
        cfg.detection_window_cycles = Some(2);
        let m = quick(cfg);
        for id in 4..=11u64 {
            assert!(m.detected.contains(&NodeId(id)), "colluder n{id} escaped the window");
            assert_eq!(m.reputation_of(NodeId(id)), 0.0);
        }
        for d in &m.detected {
            assert!((4..=11).contains(&d.raw()), "false positive {d}");
        }
    }

    #[test]
    fn windowed_and_cumulative_agree_on_detected_set_here() {
        let mut cumulative = SimConfig::paper_baseline(15);
        cumulative.colluder_good_prob = 0.2;
        cumulative.detector = crate::config::DetectorKind::Optimized;
        let mut windowed = cumulative.clone();
        windowed.detection_window_cycles = Some(3);
        let a = quick(cumulative);
        let b = quick(windowed);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn a_window_covering_the_run_equals_cumulative_detection() {
        // `quick` runs 5 cycles, so a 5-cycle window rebuilds a snapshot of
        // every rating so far each period: the cumulative `apply_epoch`
        // path must match it exactly, metered cost included
        use crate::config::DetectorKind;
        for seed in [15, 16] {
            for detector in [DetectorKind::Basic, DetectorKind::Optimized, DetectorKind::GroupAware]
            {
                let mut cumulative = SimConfig::paper_baseline(seed);
                cumulative.colluder_good_prob = 0.2;
                cumulative.colluding_groups = vec![(12..=15).map(NodeId).collect()];
                cumulative.detector = detector;
                let mut windowed = cumulative.clone();
                windowed.detection_window_cycles = Some(5);
                let (a, b) = (quick(cumulative), quick(windowed));
                let case = format!("seed {seed}, {detector:?}");
                assert!(!a.detected.is_empty(), "{case}: nothing detected");
                assert_eq!(a.detected, b.detected, "{case}: detected");
                assert_eq!(a.detection_cost, b.detection_cost, "{case}: detection cost");
                assert_eq!(a.reputation, b.reputation, "{case}: reputation");
            }
        }
    }

    #[test]
    fn slander_depresses_victims_but_detection_still_works() {
        // averaged over seeds: slander adds ratings, so single runs differ
        // by RNG stream, not just by effect
        let mean_fraction = |slander: u32| -> f64 {
            (0..6u64)
                .map(|k| {
                    let mut cfg = SimConfig::paper_baseline(16 + k);
                    cfg.colluder_good_prob = 0.2;
                    cfg.slander_ratings_per_cycle = slander;
                    quick(cfg).fraction_to_colluders()
                })
                .sum::<f64>()
                / 6.0
        };
        let slandered = mean_fraction(6);
        let clean = mean_fraction(0);
        // slander diverts requests toward the colluders (small noise margin)
        assert!(
            slandered >= clean - 0.02,
            "slander should not hurt the colluders: {slandered} vs {clean}"
        );
        // … and the detector still neutralizes them, with no false positives
        let mut cfg = SimConfig::paper_baseline(16);
        cfg.colluder_good_prob = 0.2;
        cfg.slander_ratings_per_cycle = 6;
        cfg.detector = crate::config::DetectorKind::Optimized;
        let protected = quick(cfg);
        for id in 4..=11u64 {
            assert!(protected.detected.contains(&NodeId(id)), "colluder n{id} escaped");
        }
        for d in &protected.detected {
            assert!((4..=11).contains(&d.raw()), "slander victim {d} falsely accused");
        }
    }

    #[test]
    fn first_hand_resists_collusion_without_detection() {
        // related work §II group 1: with first-hand-only selection, the
        // colluders' mutual boost cannot attract third-party requests —
        // averaged over seeds
        let mean_fraction = |engine_first_hand: bool| -> f64 {
            (0..4u64)
                .map(|k| {
                    let mut cfg = SimConfig::paper_baseline(30 + k);
                    cfg.colluder_good_prob = 0.2;
                    if engine_first_hand {
                        cfg.engine = crate::config::ReputationEngine::FirstHand;
                    }
                    quick(cfg).fraction_to_colluders()
                })
                .sum::<f64>()
                / 4.0
        };
        let weighted = mean_fraction(false);
        let first_hand = mean_fraction(true);
        assert!(
            first_hand < 0.5 * weighted,
            "first-hand selection should starve colluders: {first_hand} vs {weighted}"
        );
    }

    #[test]
    fn power_iteration_engine_runs() {
        let mut cfg = SimConfig::paper_baseline(11);
        cfg.engine = crate::config::ReputationEngine::PowerIteration(Default::default());
        let m = quick(cfg);
        assert!(m.reputation_ops > 0);
        let sum: f64 = m.reputation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }
}
