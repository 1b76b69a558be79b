//! Robustness experiments: decentralized detection under message loss and
//! manager churn.
//!
//! A robustness run takes the workload of a normal simulation (§V's 200-node
//! file-sharing network), replays its rating stream into a physically
//! partitioned [`DecentralizedSystem`], and runs one detection round twice:
//!
//! 1. **fault-free baseline** — unreplicated managers, [`FaultPlan::none`];
//! 2. **faulty run** — the configured replication factor, churn periods
//!    applied via [`DecentralizedSystem::apply_churn`], and the plan's
//!    message faults on every cross-manager confirmation.
//!
//! The outcome compares the faulty run's *confirmed* suspect pairs against
//! the baseline set (recall), checks that degraded pairs surface as
//! *unconfirmed* rather than vanish, and reports the message overhead the
//! tolerance machinery paid (retransmissions, replica pushes).
//!
//! Everything is deterministic in the seeds: the workload in
//! `sim.seed`, the drops in `plan.message.seed`, the churn victims in
//! `plan.churn.seed`.

use crate::config::SimConfig;
use crate::engine::Simulation;
use collusion_core::decentralized::Method;
use collusion_core::durability::{
    scratch_dir, DurabilityConfig, DurableEngine, EngineSetup, KillPoint,
};
use collusion_core::epoch::{EpochEngine, EpochMethod};
use collusion_core::fault::{FaultPlan, FaultStats};
use collusion_core::policy::DetectionPolicy;
use collusion_core::system::DecentralizedSystem;
use collusion_reputation::history::PairCounters;
use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::Rating;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::wal::SyncPolicy;

/// Configuration of one robustness experiment.
#[derive(Clone, Debug)]
pub struct RobustnessConfig {
    /// Workload generator (the rating stream replayed into the system).
    pub sim: SimConfig,
    /// Number of reputation managers on the Chord ring.
    pub managers: u64,
    /// Total copies of each node's history in the faulty run (1 = none).
    pub replication: usize,
    /// Faults injected into the run (message drops, retries, churn).
    pub plan: FaultPlan,
    /// Churn periods applied (each crashes/joins per `plan.churn`) before
    /// the detection round.
    pub churn_periods: u64,
    /// Detection thresholds applied to the managers' signed reputations.
    /// `T_R = 1` accepts any positively reputed node — the pair-rate and
    /// fraction thresholds do the discriminating on this workload.
    pub thresholds: Thresholds,
}

impl RobustnessConfig {
    /// The standard robustness scenario: the paper's 200-node network with
    /// deceptive colluders (`B = 0.2`), 16 managers, replication factor 3,
    /// six simulation cycles of workload, and no faults (add them with
    /// [`RobustnessConfig::with_plan`]).
    pub fn standard(seed: u64) -> Self {
        let mut sim = SimConfig::paper_baseline(seed);
        sim.colluder_good_prob = 0.2;
        sim.sim_cycles = 6;
        RobustnessConfig {
            sim,
            managers: 16,
            replication: 3,
            plan: FaultPlan::none(),
            churn_periods: 4,
            thresholds: Thresholds::new(1.0, 100, 0.95, 0.7),
        }
    }

    /// Replace the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replace the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }
}

/// Result of one robustness experiment.
#[derive(Clone, Debug)]
pub struct RobustnessOutcome {
    /// Suspect pairs confirmed by the fault-free baseline round.
    pub baseline_pairs: Vec<(NodeId, NodeId)>,
    /// Pairs confirmed under faults (cross-manager round-trip completed).
    pub confirmed_pairs: Vec<(NodeId, NodeId)>,
    /// Pairs stranded by exhausted retry budgets — reported, not dropped.
    pub unconfirmed_pairs: Vec<(NodeId, NodeId)>,
    /// `|confirmed ∩ baseline| / |baseline|` (1.0 when the baseline is empty).
    pub recall: f64,
    /// Baseline pairs accounted for somewhere (confirmed or unconfirmed)
    /// over `|baseline|` — the graceful-degradation guarantee.
    pub reported_fraction: f64,
    /// Retry/drop/completeness accounting of the faulty detection round.
    pub fault: FaultStats,
    /// Confirmation messages offered to the network in the faulty round.
    pub detection_messages: u64,
    /// Confirmation messages of the fault-free baseline round.
    pub baseline_messages: u64,
    /// `detection_messages / baseline_messages` (1.0 when baseline is 0).
    pub message_overhead: f64,
    /// Managers crashed by churn before the detection round.
    pub crashed: usize,
    /// Managers joined by churn before the detection round.
    pub joined: usize,
    /// Node histories recovered from replicas after crashes.
    pub recovered_nodes: u64,
    /// Node histories lost to crashes (no surviving replica).
    pub lost_nodes: u64,
}

/// The workload's rating stream in deterministic replay order: pair
/// counters in ascending `(ratee, rater)` order (`iter_pairs` itself is
/// hash-map ordered), each pair's positives then its negatives, one
/// rating a tick. Neutral ratings are not replayed (the simulator never
/// produces them).
pub(crate) fn replay_stream(sim: &SimConfig) -> Vec<Rating> {
    let (_, history) = Simulation::new(sim.clone()).run_with_history();
    let mut entries: Vec<(NodeId, NodeId, PairCounters)> = history.iter_pairs().collect();
    entries.sort_unstable_by_key(|&(rater, ratee, _)| (ratee, rater));
    let mut out = Vec::new();
    let mut t = 0u64;
    for (rater, ratee, c) in entries {
        for _ in 0..c.positive {
            t += 1;
            out.push(Rating::positive(rater, ratee, SimTime(t)));
        }
        for _ in 0..c.negative {
            t += 1;
            out.push(Rating::negative(rater, ratee, SimTime(t)));
        }
    }
    out
}

/// Build a partitioned system and replay `ratings` into it.
fn build_system(
    cfg: &RobustnessConfig,
    replication: usize,
    ratings: &[Rating],
) -> DecentralizedSystem {
    let manager_ids: Vec<NodeId> = (0..cfg.managers).map(|k| NodeId(0x4000_0000 + k)).collect();
    let mut sys = DecentralizedSystem::with_replication(
        &manager_ids,
        cfg.thresholds,
        Method::Optimized,
        DetectionPolicy::STRICT,
        replication,
    );
    for id in 1..=cfg.sim.n_nodes {
        sys.register(NodeId(id));
    }
    for &r in ratings {
        sys.submit(r);
    }
    sys
}

/// Run one robustness experiment (see the module docs for the protocol).
pub fn run_robustness(cfg: &RobustnessConfig) -> RobustnessOutcome {
    let ratings = replay_stream(&cfg.sim);

    // fault-free baseline: unreplicated, no churn, no message faults
    let mut baseline = build_system(cfg, 1, &ratings);
    let baseline_report = baseline.detect();
    let baseline_pairs = baseline_report.pair_ids();
    let baseline_messages = baseline.stats().detection_messages;

    // faulty run: churn between periods, then the detection round
    let mut sys = build_system(cfg, cfg.replication, &ratings);
    let (mut crashed, mut joined) = (0, 0);
    for period in 0..cfg.churn_periods {
        let (c, j) = sys.apply_churn(&cfg.plan.churn, period);
        crashed += c;
        joined += j;
    }
    let out = sys.detect_robust(&cfg.plan);
    let confirmed_pairs = out.report.pair_ids();
    let unconfirmed_pairs: Vec<(NodeId, NodeId)> =
        out.unconfirmed.iter().map(|p| p.ids()).collect();

    let recalled = baseline_pairs.iter().filter(|p| confirmed_pairs.contains(p)).count();
    let reported = baseline_pairs
        .iter()
        .filter(|p| confirmed_pairs.contains(p) || unconfirmed_pairs.contains(p))
        .count();
    let denom = baseline_pairs.len();
    let frac = |k: usize| if denom == 0 { 1.0 } else { k as f64 / denom as f64 };
    let fault = out.fault;
    let stats = sys.stats();
    RobustnessOutcome {
        recall: frac(recalled),
        reported_fraction: frac(reported),
        message_overhead: if baseline_messages == 0 {
            1.0
        } else {
            fault.messages_sent as f64 / baseline_messages as f64
        },
        baseline_pairs,
        confirmed_pairs,
        unconfirmed_pairs,
        fault,
        detection_messages: fault.messages_sent,
        baseline_messages,
        crashed,
        joined,
        recovered_nodes: stats.recovered_nodes,
        lost_nodes: stats.lost_nodes,
    }
}

/// One step of a durable rating stream: fold a rating, or close the epoch
/// on the driver's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamAction {
    Record(Rating),
    Close,
}

/// Configuration of one crash-recovery experiment: a simulated workload
/// streamed through a [`DurableEngine`], killed at a chosen stream position
/// and kill-point, recovered from disk, and resumed to completion.
#[derive(Clone, Debug)]
pub struct CrashRecoveryConfig {
    /// Workload generator (the rating stream fed to the engine).
    pub sim: SimConfig,
    /// Scheduled epoch length in ratings (a close every `epoch_len`).
    pub epoch_len: usize,
    /// Stream position (in actions) at which the process dies. Snapped to
    /// the next epoch boundary for boundary-only kill-points.
    pub crash_after: usize,
    /// WAL flush interval, checkpoint cadence, watermark.
    pub durability: DurabilityConfig,
    /// Shard count of the engine's snapshot.
    pub shards: usize,
    /// Detection thresholds.
    pub thresholds: Thresholds,
}

impl CrashRecoveryConfig {
    /// The standard crash scenario: the shrunk 200-node workload with
    /// deceptive colluders, epochs of 500 ratings, a checkpoint every other
    /// close, and a crash roughly 60% into the stream.
    pub fn standard(seed: u64) -> Self {
        let mut sim = SimConfig::paper_baseline(seed);
        sim.colluder_good_prob = 0.2;
        sim.sim_cycles = 6;
        CrashRecoveryConfig {
            sim,
            epoch_len: 500,
            crash_after: 0, // 0 = auto: 60% of the stream
            durability: DurabilityConfig {
                sync_policy: SyncPolicy::ASYNC_DEFAULT,
                checkpoint_interval: 2,
                keep_checkpoints: 2,
                pair_watermark: None,
            },
            shards: 8,
            thresholds: Thresholds::new(1.0, 100, 0.95, 0.7),
        }
    }
}

/// Result of one crash-recovery experiment.
#[derive(Clone, Debug)]
pub struct CrashRecoveryOutcome {
    /// The kill-point exercised.
    pub kill: KillPoint,
    /// Whether the recovered-and-resumed engine's serialized state (every
    /// pair counter, verdict, and stat) equals the uncrashed reference's
    /// byte for byte.
    pub bit_identical: bool,
    /// Whether the final suspect sets agree.
    pub suspects_match: bool,
    /// Final suspect pairs of the uncrashed reference run.
    pub reference_pairs: Vec<(NodeId, NodeId)>,
    /// Final suspect pairs of the crashed-recovered-resumed run.
    pub recovered_pairs: Vec<(NodeId, NodeId)>,
    /// WAL records replayed during recovery.
    pub replayed_records: u64,
    /// WAL records the checkpoint already covered.
    pub skipped_records: u64,
    /// Bytes truncated from the WAL as a torn tail.
    pub truncated_bytes: u64,
    /// Stream position the crash happened at (after boundary snapping).
    pub crashed_at: usize,
    /// Stream position the resumed driver continued from (actions whose
    /// WAL append never became durable are re-applied from here).
    pub resumed_from: usize,
    /// Total actions in the stream (ratings + scheduled closes).
    pub total_actions: usize,
}

/// Expand the workload into the driver's action stream: ratings in
/// deterministic order with a scheduled close every `epoch_len`, and a
/// final close sealing the tail epoch.
fn stream_actions(cfg: &CrashRecoveryConfig) -> Vec<StreamAction> {
    let mut actions = Vec::new();
    let mut in_epoch = 0usize;
    for rating in replay_stream(&cfg.sim) {
        actions.push(StreamAction::Record(rating));
        in_epoch += 1;
        if in_epoch == cfg.epoch_len {
            actions.push(StreamAction::Close);
            in_epoch = 0;
        }
    }
    if in_epoch > 0 {
        actions.push(StreamAction::Close);
    }
    actions
}

/// Run one crash-recovery experiment (see [`CrashRecoveryConfig`]):
///
/// 1. an uncrashed reference [`EpochEngine`] folds the whole action stream;
/// 2. a [`DurableEngine`] folds the stream up to the crash position, then
///    dies at `kill` (leaving the durability directory exactly as a real
///    process death would);
/// 3. [`DurableEngine::recover`] rebuilds from checkpoint + WAL tail, and
///    the driver re-submits every action whose WAL append never became
///    durable (first recorded sequence ≥ the recovered `next_seq`), then
///    the rest of the stream;
/// 4. the final states are compared byte for byte.
pub fn run_crash_recovery(cfg: &CrashRecoveryConfig, kill: KillPoint) -> CrashRecoveryOutcome {
    let actions = stream_actions(cfg);
    let nodes: Vec<NodeId> = (1..=cfg.sim.n_nodes).map(NodeId).collect();
    let setup = EngineSetup {
        target_shards: cfg.shards,
        method: EpochMethod::Optimized,
        thresholds: cfg.thresholds,
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };

    // 1. uncrashed reference
    let mut reference = EpochEngine::new(
        &nodes,
        setup.target_shards,
        setup.method,
        setup.thresholds,
        setup.policy,
        setup.prune,
    );
    reference.set_pair_watermark(cfg.durability.pair_watermark);
    for action in &actions {
        match action {
            StreamAction::Record(r) => {
                reference.record(*r);
            }
            StreamAction::Close => {
                reference.close_epoch();
            }
        }
    }

    // 2. durable run, killed at the crash position
    let crash_after = if cfg.crash_after == 0 {
        actions.len() * 3 / 5
    } else {
        cfg.crash_after.min(actions.len())
    };
    // checkpoints only happen at epoch boundaries, so the post-rename
    // kill-point snaps forward to the next scheduled close
    let crash_at = match kill {
        KillPoint::PostCheckpointRename => {
            let mut k = crash_after;
            while k > 0 && k < actions.len() && actions[k - 1] != StreamAction::Close {
                k += 1;
            }
            k
        }
        _ => crash_after,
    };
    let dir = scratch_dir("crash-matrix");
    let mut durable =
        DurableEngine::create(&dir, &nodes, setup, cfg.durability).expect("create durable engine");
    let mut seqs: Vec<u64> = Vec::with_capacity(crash_at);
    for action in &actions[..crash_at] {
        match action {
            StreamAction::Record(r) => {
                seqs.push(durable.record(*r).expect("durable record"));
            }
            StreamAction::Close => {
                let seq = durable.wal().next_seq();
                durable.close_epoch().expect("durable close");
                seqs.push(seq);
            }
        }
    }
    durable.crash(kill).expect("crash injection");

    // 3. recover and resume from the first non-durable action
    let (mut recovered, report) =
        DurableEngine::recover(&dir, &nodes, setup, cfg.durability).expect("recover");
    let resumed_from = seqs.iter().position(|&s| s >= report.next_seq).unwrap_or(seqs.len());
    for action in &actions[resumed_from..] {
        match action {
            StreamAction::Record(r) => {
                recovered.record(*r).expect("resumed record");
            }
            StreamAction::Close => {
                recovered.close_epoch().expect("resumed close");
            }
        }
    }

    // 4. byte-for-byte comparison of the serialized end states
    let reference_pairs = reference.report().pair_ids();
    let recovered_pairs = recovered.report().pair_ids();
    let outcome = CrashRecoveryOutcome {
        kill,
        bit_identical: reference.persist_bytes(0) == recovered.engine().persist_bytes(0),
        suspects_match: reference_pairs == recovered_pairs,
        reference_pairs,
        recovered_pairs,
        replayed_records: report.replayed_records,
        skipped_records: report.skipped_records,
        truncated_bytes: report.truncated_bytes,
        crashed_at: crash_at,
        resumed_from,
        total_actions: actions.len(),
    };
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Run the full crash matrix: one experiment per [`KillPoint`].
pub fn run_crash_matrix(cfg: &CrashRecoveryConfig) -> Vec<CrashRecoveryOutcome> {
    KillPoint::ALL.iter().map(|&kill| run_crash_recovery(cfg, kill)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> RobustnessConfig {
        // shrink the workload for test speed; colluding pairs still exchange
        // 10 × 20 × 3 = 600 mutual ratings, far above T_N = 100
        let mut cfg = RobustnessConfig::standard(seed);
        cfg.sim.n_nodes = 80;
        cfg.sim.sim_cycles = 3;
        cfg
    }

    #[test]
    fn baseline_finds_the_ground_truth_pairs() {
        let out = run_robustness(&quick(1));
        let truth = quick(1).sim.colluding_pairs();
        assert_eq!(out.baseline_pairs.len(), truth.len(), "{:?}", out.baseline_pairs);
        for (a, b) in truth {
            assert!(out.baseline_pairs.contains(&(a, b)), "pair ({a}, {b}) missed");
        }
        assert_eq!(out.recall, 1.0);
        assert_eq!(out.reported_fraction, 1.0);
        assert!(out.unconfirmed_pairs.is_empty());
        assert_eq!(out.fault.completeness(), 1.0);
    }

    #[test]
    fn moderate_drop_with_retries_keeps_full_recall() {
        let cfg = quick(2).with_plan(FaultPlan::with_drop(0.1, 7));
        let out = run_robustness(&cfg);
        assert_eq!(out.recall, 1.0, "confirmed {:?}", out.confirmed_pairs);
        assert!(out.message_overhead >= 1.0);
    }

    #[test]
    fn churn_with_replication_preserves_the_pair_set() {
        let cfg = quick(3).with_plan(FaultPlan::none().with_churn(1, 1, 5));
        let out = run_robustness(&cfg);
        assert!(out.crashed > 0 && out.joined > 0);
        assert_eq!(out.lost_nodes, 0, "replication 3 must cover churn crashes");
        assert_eq!(out.recall, 1.0);
    }

    #[test]
    fn same_seeds_same_outcome() {
        let cfg = quick(4).with_plan(FaultPlan::with_drop(0.3, 9).with_churn(1, 1, 5));
        let a = run_robustness(&cfg);
        let b = run_robustness(&cfg);
        assert_eq!(a.confirmed_pairs, b.confirmed_pairs);
        assert_eq!(a.unconfirmed_pairs, b.unconfirmed_pairs);
        assert_eq!(a.fault, b.fault);
        assert_eq!((a.crashed, a.joined), (b.crashed, b.joined));
    }

    fn crash_quick(seed: u64) -> CrashRecoveryConfig {
        let mut cfg = CrashRecoveryConfig::standard(seed);
        cfg.sim.n_nodes = 80;
        cfg.sim.sim_cycles = 3;
        cfg.epoch_len = 300;
        cfg
    }

    #[test]
    fn crash_matrix_recovers_bit_identically() {
        let cfg = crash_quick(1);
        for out in run_crash_matrix(&cfg) {
            assert!(!out.reference_pairs.is_empty(), "workload must produce suspects");
            assert!(
                out.suspects_match,
                "{:?}: {:?} vs {:?}",
                out.kill, out.reference_pairs, out.recovered_pairs
            );
            assert!(out.bit_identical, "{:?}: recovered state diverged", out.kill);
        }
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_resumed() {
        let out = run_crash_recovery(&crash_quick(2), KillPoint::MidWalAppend);
        assert!(out.truncated_bytes > 0, "mid-append crash must tear the tail");
        assert_eq!(out.resumed_from, out.crashed_at - 1, "exactly the torn action re-applies");
        assert!(out.bit_identical);
    }

    #[test]
    fn watermark_forced_closes_survive_crashes() {
        let mut cfg = crash_quick(3);
        cfg.durability.pair_watermark = Some(64);
        for out in run_crash_matrix(&cfg) {
            assert!(out.bit_identical, "{:?}: diverged under watermark closes", out.kill);
        }
    }

    #[test]
    fn checkpoints_bound_the_replay_tail() {
        let out = run_crash_recovery(&crash_quick(4), KillPoint::PostCheckpointRename);
        assert_eq!(out.replayed_records, 0, "a just-renamed checkpoint covers the whole log");
        assert!(out.skipped_records > 0);
        assert!(out.bit_identical);
        // without checkpoints the entire log replays instead
        let mut no_ckpt = crash_quick(4);
        no_ckpt.durability.checkpoint_interval = 0;
        let out = run_crash_recovery(&no_ckpt, KillPoint::MidCheckpointWrite);
        assert!(out.replayed_records > 0);
        assert_eq!(out.skipped_records, 0);
        assert!(out.bit_identical);
    }
}
