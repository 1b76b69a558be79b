//! Property-based tests for the pipelined ingest engine: across random
//! rating streams, epoch schedules, producer counts and detection
//! configurations, the staged concurrent engine must be *bit-identical*
//! to the serial [`EpochEngine`] — same per-epoch suspect sets, same
//! snapshot cells, high flags, verdict map and stats — and its WAL
//! directory must recover through the durability machinery (crash
//! kill-points, torn tails) to the same state.

use collusion::core::durability::scratch_dir;
use collusion::core::epoch::{EpochEngine, EpochMethod};
use collusion::core::optimized::OptimizedDetector;
use collusion::prelude::*;
use collusion::reputation::history::NodeTotals;
use collusion::reputation::sharded::TotalsColumns;
use collusion::reputation::wal::replay_bytes;
use proptest::prelude::*;

/// Strategy: a list of ratings among `n` nodes (self-ratings included —
/// both intake paths must reject them consistently).
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

fn setup_strategy() -> impl Strategy<Value = EngineSetup> {
    (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY).prop_map(|(basic, extended, prune)| {
        EngineSetup {
            target_shards: 2,
            method: if basic { EpochMethod::Basic } else { EpochMethod::Optimized },
            thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
            policy: if extended { DetectionPolicy::EXTENDED } else { DetectionPolicy::STRICT },
            prune,
            close_threads: 0,
        }
    })
}

/// Split `ratings` into epochs of `epoch_len` (final partial epoch kept;
/// at least one epoch even when empty).
fn epochs_of(ratings: &[Rating], epoch_len: usize) -> Vec<&[Rating]> {
    let mut epochs: Vec<&[Rating]> = ratings.chunks(epoch_len).collect();
    if epochs.is_empty() {
        epochs.push(&[]);
    }
    epochs
}

/// Fold one epoch's ratings through `producers` concurrent handles
/// (round-robin split), flushing every handle before returning.
fn submit_epoch(piped: &PipelinedEngine, ratings: &[Rating], producers: usize) {
    let mut handles: Vec<IngestHandle> = (0..producers).map(|_| piped.handle()).collect();
    std::thread::scope(|scope| {
        for (p, h) in handles.iter_mut().enumerate() {
            scope.spawn(move || {
                for r in ratings.iter().skip(p).step_by(producers) {
                    h.submit(*r);
                }
                h.flush();
            });
        }
    });
}

/// Serial reference fold of the same epoch schedule.
fn serial_fold(nodes: &[NodeId], s: EngineSetup, epochs: &[&[Rating]]) -> EpochEngine {
    let mut serial =
        EpochEngine::new(nodes, s.target_shards, s.method, s.thresholds, s.policy, s.prune);
    for epoch in epochs {
        for &r in *epoch {
            serial.record(r);
        }
        serial.close_epoch();
    }
    serial
}

/// Strategy: one row's raw totals, weighted toward the kernel's edge
/// cases — empty rows, counts at the `T_N` boundary, the `1_000_000`
/// upper-rule cutoff, and saturating values around `i64::MAX` where
/// [`NodeTotals::signed`] clamps.
fn totals_component() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0..200u64,
        1 => Just(0u64),
        1 => Just(1_000_000u64),
        1 => Just(1_000_001u64),
        1 => Just(i64::MAX as u64),
        1 => Just(i64::MAX as u64 + 1),
        1 => Just(u64::MAX),
        2 => any::<u64>(),
    ]
}

fn totals_strategy() -> impl Strategy<Value = (u64, u64, u64)> {
    (totals_component(), totals_component(), totals_component())
}

proptest! {
    /// The batch band kernel ([`OptimizedDetector::rows_prunable_batch`],
    /// SoA columns, branch-free lanes, `2·T_a·T_N` hoisted) must agree
    /// with the scalar oracle [`OptimizedDetector::row_prunable`] lane for
    /// lane on *arbitrary* totals, including saturating counts the clamp
    /// rules exist for. Both forms read the same raw fields, so
    /// independent per-component generation is valid and strictly more
    /// adversarial than realistic rows.
    #[test]
    fn batch_prunability_matches_scalar_oracle_lane_for_lane(
        rows in prop::collection::vec(totals_strategy(), 0..67),
        t_n in prop_oneof![Just(0u64), 1..64u64, Just(1_000_000u64), Just(u64::MAX)],
        t_a in 0.0f64..=1.0,
        t_b in prop_oneof![2 => 0.0f64..=1.0, 1 => 0.99f64..=1.0],
        base in 0u32..1000,
    ) {
        let det = OptimizedDetector::new(Thresholds::new(0.05, t_n, t_a, t_b));
        let total: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let positive: Vec<u64> = rows.iter().map(|r| r.1).collect();
        let negative: Vec<u64> = rows.iter().map(|r| r.2).collect();
        let cols = TotalsColumns { base, total: &total, positive: &positive, negative: &negative };
        // poison the flags so a lane the kernel skipped would be caught
        let mut flags = vec![2u8; rows.len()];
        det.rows_prunable_batch(&cols, &mut flags);
        for (k, &(t, p, n)) in rows.iter().enumerate() {
            let want = det.row_prunable(NodeTotals { total: t, positive: p, negative: n });
            prop_assert_eq!(
                flags[k],
                u8::from(want),
                "lane {} diverged from the scalar oracle: totals=({},{},{})", k, t, p, n
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: for any stream, epoch schedule, producer
    /// count and detection configuration, the pipelined engine's per-epoch
    /// reports and final state equal the serial engine's bit for bit.
    #[test]
    fn pipelined_engine_is_bit_identical_to_serial(
        ratings in ratings_strategy(10, 240),
        epoch_len in 5usize..40,
        producers in 1usize..8,
        intake_shards in 1usize..9,
        batch in 1usize..64,
        s in setup_strategy(),
    ) {
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let epochs = epochs_of(&ratings, epoch_len);
        let serial = serial_fold(&nodes, s, &epochs);

        let mut cfg = PipelineConfig::new(s);
        cfg.intake_shards = intake_shards;
        cfg.batch = batch;
        let mut piped = PipelinedEngine::new(&nodes, cfg);
        let mut serial_check =
            EpochEngine::new(&nodes, s.target_shards, s.method, s.thresholds, s.policy, s.prune);
        for epoch in &epochs {
            for &r in *epoch {
                serial_check.record(r);
            }
            let want = serial_check.close_epoch();
            submit_epoch(&piped, epoch, producers);
            let got = piped.close_epoch_sync();
            prop_assert_eq!(got.pairs, want.pairs, "per-epoch suspect set diverged");
            prop_assert_eq!(got.cost, want.cost, "per-epoch kernel cost diverged");
        }
        let (finished, _) = piped.finish();
        prop_assert!(
            finished.state_eq(&serial),
            "state diverged: {:?}",
            finished.state_diff(&serial)
        );
        // the serialized images agree too — the same bytes a checkpoint
        // would persist
        prop_assert_eq!(finished.persist_bytes(0), serial.persist_bytes(0));
    }

    /// A pipelined WAL directory is recoverable: whatever prefix of the log
    /// survives (here: a torn tail cut at an arbitrary byte), recovery
    /// equals a serial engine folding exactly the surviving records.
    #[test]
    fn torn_pipelined_wal_recovers_to_a_prefix_state(
        ratings in ratings_strategy(8, 160),
        epoch_len in 5usize..40,
        producers in 1usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let s = EngineSetup {
            target_shards: 2,
            method: EpochMethod::Optimized,
            thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
            policy: DetectionPolicy::STRICT,
            prune: true,
            close_threads: 0,
        };
        let dir = scratch_dir("pipeline-props-torn");
        let mut cfg = PipelineConfig::new(s);
        cfg.batch = 16;
        let mut piped = PipelinedEngine::with_wal(&dir, &nodes, cfg).expect("create");
        for epoch in epochs_of(&ratings, epoch_len) {
            submit_epoch(&piped, epoch, producers);
            piped.close_epoch_sync();
        }
        let (_full, _) = piped.finish();

        // tear the tail: keep the header plus an arbitrary record prefix
        let wal_path = dir.join("engine.wal");
        let bytes = std::fs::read(&wal_path).expect("read wal");
        let cut = 16 + ((bytes.len() - 16) as f64 * cut_frac) as usize;
        std::fs::write(&wal_path, &bytes[..cut]).expect("tear wal");

        let (recovered, report) =
            DurableEngine::recover(&dir, &nodes, s, DurabilityConfig::default()).expect("recover");

        // fold the surviving records into a fresh serial engine
        let replay = replay_bytes(&bytes[..cut]).expect("scan torn wal");
        prop_assert_eq!(report.replayed_records, replay.records.len() as u64);
        let mut serial =
            EpochEngine::new(&nodes, s.target_shards, s.method, s.thresholds, s.policy, s.prune);
        for (_, record) in &replay.records {
            match record {
                collusion::reputation::wal::WalRecord::Rating(r) => {
                    serial.record(*r);
                }
                collusion::reputation::wal::WalRecord::EpochClose { .. } => {
                    serial.close_epoch();
                }
                // stream-session watermarks carry no detection state
                collusion::reputation::wal::WalRecord::StreamSession { .. } => {}
            }
        }
        prop_assert!(
            recovered.engine().state_eq(&serial),
            "recovered state diverged: {:?}",
            recovered.engine().state_diff(&serial)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash kill-points compose with the pipeline: a serial durable engine
    /// crashed at each kill-point, recovered and resumed equals a
    /// pipelined engine folding the same logical stream with concurrent
    /// producers — recovery and concurrency are two routes to one state.
    #[test]
    fn kill_point_recovery_equals_pipelined_fold(
        ratings in ratings_strategy(8, 160),
        epoch_len in 5usize..30,
        producers in 2usize..6,
        crash_frac in 0.0f64..1.0,
    ) {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let s = EngineSetup {
            target_shards: 2,
            method: EpochMethod::Optimized,
            thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
            policy: DetectionPolicy::STRICT,
            prune: true,
            close_threads: 0,
        };
        let dcfg = DurabilityConfig {
            sync_policy: SyncPolicy::EveryK(8),
            checkpoint_interval: 2,
            keep_checkpoints: 2,
            pair_watermark: None,
        };
        let epochs = epochs_of(&ratings, epoch_len);

        // pipelined fold of the full stream with concurrent producers
        let mut piped = PipelinedEngine::new(&nodes, PipelineConfig::new(s));
        for epoch in &epochs {
            submit_epoch(&piped, epoch, producers);
            piped.close_epoch();
        }
        let (pipelined, _) = piped.finish();

        // the same schedule as a flat action list (for crash positioning)
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Step {
            Record(Rating),
            Close,
        }
        let steps: Vec<Step> = epochs
            .iter()
            .flat_map(|epoch| {
                epoch.iter().map(|&r| Step::Record(r)).chain(std::iter::once(Step::Close))
            })
            .collect();

        for kill in KillPoint::ALL {
            // serial durable run killed mid-stream, recovered, resumed.
            // Checkpoints only exist at epoch boundaries: snap the
            // post-rename kill-point forward to the next scheduled close.
            let mut crash_at = (steps.len() as f64 * crash_frac) as usize;
            if kill == KillPoint::PostCheckpointRename {
                while crash_at > 0 && crash_at < steps.len() && steps[crash_at - 1] != Step::Close {
                    crash_at += 1;
                }
            }
            let dir = scratch_dir("pipeline-props-kill");
            let mut durable = DurableEngine::create(&dir, &nodes, s, dcfg).expect("create");
            let mut seqs = Vec::with_capacity(crash_at);
            for step in &steps[..crash_at] {
                match step {
                    Step::Record(r) => seqs.push(durable.record(*r).expect("record")),
                    Step::Close => {
                        let seq = durable.wal().next_seq();
                        durable.close_epoch().expect("close");
                        seqs.push(seq);
                    }
                }
            }
            durable.crash(kill).expect("crash injection");

            let (mut recovered, report) =
                DurableEngine::recover(&dir, &nodes, s, dcfg).expect("recover");
            // resume from the first action whose WAL append was lost
            let resume =
                seqs.iter().position(|&seq| seq >= report.next_seq).unwrap_or(seqs.len());
            for step in &steps[resume..] {
                match step {
                    Step::Record(r) => {
                        recovered.record(*r).expect("resumed record");
                    }
                    Step::Close => {
                        recovered.close_epoch().expect("resumed close");
                    }
                }
            }
            prop_assert!(
                recovered.engine().state_eq(&pipelined),
                "kill {kill:?}: recovered+resumed diverged from pipelined: {:?}",
                recovered.engine().state_diff(&pipelined)
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fork-join epoch close is bit-identical to the serial oracle at
    /// every width: per-epoch suspect pairs *and* metered cost, the final
    /// snapshot state, and the persisted image all match `close_threads=1`
    /// exactly. Seeding only a prefix of the id space forces later epochs
    /// to intern fresh nodes, so the deterministic re-interning remap runs
    /// under fork-join too.
    #[test]
    fn parallel_close_matches_serial_oracle_across_widths(
        ratings in ratings_strategy(12, 240),
        epoch_len in 5usize..40,
        shards in 1usize..5,
        s in setup_strategy(),
    ) {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let epochs = epochs_of(&ratings, epoch_len);

        let mut oracle =
            EpochEngine::new(&nodes, shards, s.method, s.thresholds, s.policy, s.prune);
        oracle.set_close_threads(1);
        let mut oracle_reports = Vec::with_capacity(epochs.len());
        for epoch in &epochs {
            for &r in *epoch {
                oracle.record(r);
            }
            oracle_reports.push(oracle.close_epoch());
        }

        for width in [2usize, 4, 8] {
            let mut wide =
                EpochEngine::new(&nodes, shards, s.method, s.thresholds, s.policy, s.prune);
            wide.set_close_threads(width);
            for (epoch, want) in epochs.iter().zip(&oracle_reports) {
                for &r in *epoch {
                    wide.record(r);
                }
                let got = wide.close_epoch();
                prop_assert_eq!(&got.pairs, &want.pairs, "pairs @ width {}", width);
                prop_assert_eq!(got.cost, want.cost, "cost @ width {}", width);
            }
            prop_assert!(
                wide.state_eq(&oracle),
                "width {} diverged: {:?}",
                width,
                wide.state_diff(&oracle)
            );
            prop_assert_eq!(wide.persist_bytes(0), oracle.persist_bytes(0), "persisted image @ width {}", width);
        }
    }
}
