//! Property-based tests for the durability layer: corruption fuzzing over
//! the WAL and checkpoint codecs (decoding hostile bytes must never panic
//! and never yield a record that failed validation), and crash-point
//! recovery (for every kill-point, recover + resume is bit-identical to an
//! uncrashed engine over the same stream), and the replay volume of each
//! checkpoint cadence on one seeded scale trace.

use collusion::core::durability::{scratch_dir, DurabilityError};
use collusion::core::epoch::{EpochEngine, EpochMethod};
use collusion::prelude::*;
use collusion::reputation::checkpoint::{decode_checkpoint, encode_checkpoint};
use collusion::reputation::codec::{fnv64, wordsum64};
use collusion::reputation::wal::{replay_bytes, scan_bytes, Wal, WalRecord, WalReplay};
use collusion::trace::scale::ScaleConfig;
use proptest::prelude::*;

/// Strategy: a list of ratings among `n` nodes (self-ratings included —
/// the engine must reject them consistently on both paths).
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

/// Strategy: a WAL record (rating or epoch-close marker).
fn record_strategy() -> impl Strategy<Value = WalRecord> {
    (0..5u8, 0..16u64, 0..16u64, 0..1000u64).prop_map(|(kind, a, b, t)| match kind {
        0 => WalRecord::EpochClose { forced: false },
        1 => WalRecord::EpochClose { forced: true },
        _ => {
            let value = match kind {
                2 => RatingValue::Negative,
                3 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            WalRecord::Rating(Rating::new(NodeId(a), NodeId(b), value, SimTime(t)))
        }
    })
}

/// Write `records` into a fresh WAL file and return its raw bytes.
fn wal_bytes(records: &[WalRecord], start_seq: u64) -> Vec<u8> {
    let dir = scratch_dir("props-walbytes");
    let path = dir.join("w.wal");
    let mut wal = Wal::create(&path, start_seq).expect("create wal");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Opening the bytes as a file — the streamed scan recovery folds through —
/// hands its visitor exactly what `replay_bytes` collected from them,
/// reports the same stopping point, and leaves the file cut to its valid
/// prefix.
fn assert_streams_as_collected(bytes: &[u8], replay: &WalReplay) {
    let dir = scratch_dir("props-streamed");
    let path = dir.join("s.wal");
    std::fs::write(&path, bytes).expect("write log");
    let mut streamed = Vec::new();
    let (wal, scan) =
        Wal::open_with(&path, |seq, record| streamed.push((seq, record))).expect("opens");
    assert_eq!(streamed, replay.records);
    assert_eq!(
        (scan.valid_len, scan.truncated_bytes, scan.corruption, scan.next_seq),
        (replay.valid_len, replay.truncated_bytes, replay.corruption, replay.next_seq)
    );
    assert_eq!((wal.len_bytes(), wal.next_seq()), (replay.valid_len, replay.next_seq));
    drop(wal);
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), replay.valid_len);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Arbitrary bytes through the WAL scanner: no panic, and the reported
    /// valid prefix + discarded tail always account for every input byte.
    #[test]
    fn wal_scan_of_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(replay) = replay_bytes(&bytes) {
            prop_assert!(replay.valid_len as usize <= bytes.len());
            prop_assert_eq!(replay.valid_len + replay.truncated_bytes, bytes.len() as u64);
            assert_streams_as_collected(&bytes, &replay);
        } else {
            prop_assert!(scan_bytes(&bytes, |_, _| {}).is_err());
        }
    }

    /// A truncated valid WAL yields a strict prefix of the original records
    /// — never a wrong or reordered record.
    #[test]
    fn truncated_wal_yields_a_record_prefix(
        records in prop::collection::vec(record_strategy(), 1..40),
        start_seq in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = wal_bytes(&records, start_seq);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        match replay_bytes(&bytes[..cut]) {
            Err(_) => prop_assert!(cut < 16, "header-long prefixes must scan"),
            Ok(replay) => {
                prop_assert!(replay.records.len() <= records.len());
                for (k, (seq, rec)) in replay.records.iter().enumerate() {
                    prop_assert_eq!(*seq, start_seq + k as u64);
                    prop_assert_eq!(rec, &records[k]);
                }
                assert_streams_as_collected(&bytes[..cut], &replay);
            }
        }
    }

    /// A single flipped bit anywhere in a valid WAL never produces a record
    /// that differs from the original stream: the scan returns a (possibly
    /// shorter) prefix, or a header error if the flip hit the header.
    #[test]
    fn bit_flipped_wal_never_yields_a_corrupt_record(
        records in prop::collection::vec(record_strategy(), 1..40),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = wal_bytes(&records, 0);
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(replay) = replay_bytes(&bytes) {
            prop_assert!(replay.records.len() <= records.len());
            for (k, (seq, rec)) in replay.records.iter().enumerate() {
                prop_assert_eq!(*seq, k as u64);
                prop_assert_eq!(rec, &records[k]);
            }
            assert_streams_as_collected(&bytes, &replay);
        }
    }

    /// Arbitrary bytes through the checkpoint decoder: no panic, and any
    /// accepted image round-trips through the encoder.
    #[test]
    fn checkpoint_decode_of_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        if let Some((wal_seq, payload)) = decode_checkpoint(&bytes) {
            prop_assert_eq!(encode_checkpoint(wal_seq, payload), bytes);
        }
    }

    /// A flipped bit anywhere in a checkpoint image — magic, version,
    /// `wal_seq`, length, checksum or payload — is always caught: the
    /// checksum covers every byte of the file but itself.
    #[test]
    fn bit_flipped_checkpoint_never_yields_a_corrupt_payload(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        wal_seq in 0u64..1_000_000,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut image = encode_checkpoint(wal_seq, &payload);
        prop_assert_eq!(decode_checkpoint(&image), Some((wal_seq, &payload[..])));
        let idx = ((image.len() - 1) as f64 * byte_frac) as usize;
        image[idx] ^= 1 << bit;
        prop_assert_eq!(decode_checkpoint(&image), None, "flip at byte {} decoded", idx);
    }

    /// The image checksum tells apart what a byte-serial sum gets for free
    /// and a lane-parallel one must work for: a single flipped bit, a
    /// zero byte more at the end, two words trading places across lanes.
    #[test]
    fn wordsum64_sees_flips_extensions_and_transpositions(
        bytes in prop::collection::vec(any::<u8>(), 1..400),
        seed in any::<u64>(),
        at in 0.0f64..1.0,
        bit in 0u8..8,
        lane_a in 0usize..4,
        lane_gap in 1usize..4,
    ) {
        let sum = wordsum64(seed, &bytes);
        let mut flipped = bytes.clone();
        flipped[((bytes.len() - 1) as f64 * at) as usize] ^= 1 << bit;
        prop_assert_ne!(wordsum64(seed, &flipped), sum);
        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert_ne!(wordsum64(seed, &longer), sum);
        prop_assert_ne!(wordsum64(seed ^ (1 << bit), &bytes), sum);
        // two whole words of one 32-byte block, on different lanes
        let block = ((bytes.len() / 32) as f64 * at) as usize * 32;
        if block + 32 <= bytes.len() {
            let (a, b) = (block + 8 * lane_a, block + 8 * ((lane_a + lane_gap) % 4));
            if bytes[a..a + 8] != bytes[b..b + 8] {
                let mut swapped = bytes.clone();
                for k in 0..8 {
                    swapped.swap(a + k, b + k);
                }
                prop_assert_ne!(wordsum64(seed, &swapped), sum);
            }
        }
    }

    /// Asynchronous group commit must be invisible in the log: the same
    /// records written through a group-commit WAL (across the whole range
    /// of flush triggers, from commit-per-record to barrier-only) produce
    /// a file byte-identical to synchronous per-record mode, and any torn
    /// tail — including cuts inside what was one commit batch — recovers
    /// to the same strict record prefix.
    #[test]
    fn group_commit_wal_is_byte_identical_and_tears_like_sync_mode(
        records in prop::collection::vec(record_strategy(), 1..60),
        start_seq in 0u64..1000,
        max_bytes in prop_oneof![Just(1u32), 2..512u32, Just(1u32 << 20)],
        max_delay_micros in prop_oneof![Just(0u32), Just(1u32), Just(1u32 << 30)],
        cut_frac in 0.0f64..1.0,
    ) {
        let reference = wal_bytes(&records, start_seq);

        let dir = scratch_dir("props-groupwal");
        let path = dir.join("g.wal");
        let mut wal = Wal::create(&path, start_seq).expect("create wal");
        wal.enable_group_commit(max_bytes, max_delay_micros).expect("enable group commit");
        for r in &records {
            wal.append(r).expect("append");
        }
        wal.sync().expect("commit barrier");
        drop(wal);
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(&bytes, &reference, "group commit changed the byte stream");

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        if cut >= 16 {
            let replay = replay_bytes(&bytes[..cut]).expect("scan torn prefix");
            prop_assert!(replay.records.len() <= records.len());
            for (k, (seq, rec)) in replay.records.iter().enumerate() {
                prop_assert_eq!(*seq, start_seq + k as u64);
                prop_assert_eq!(rec, &records[k]);
            }
        }
    }

    /// Truncated checkpoint images never decode.
    #[test]
    fn truncated_checkpoint_never_decodes(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        wal_seq in 0u64..1_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let image = encode_checkpoint(wal_seq, &payload);
        let cut = ((image.len() - 1) as f64 * cut_frac) as usize;
        prop_assert_eq!(decode_checkpoint(&image[..cut]), None);
    }
}

/// One driver step: fold a rating or close the epoch on schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Record(Rating),
    Close,
}

fn steps_of(ratings: &[Rating], epoch_len: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(ratings.len() + ratings.len() / epoch_len + 1);
    for (k, &r) in ratings.iter().enumerate() {
        steps.push(Step::Record(r));
        if (k + 1) % epoch_len == 0 {
            steps.push(Step::Close);
        }
    }
    if !ratings.len().is_multiple_of(epoch_len) || ratings.is_empty() {
        steps.push(Step::Close);
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every kill-point: stream → crash → recover → resume equals an
    /// uncrashed engine over the same stream, byte for byte (pair counters,
    /// verdicts, evidence floats, and stats all travel through
    /// `persist_bytes`).
    #[test]
    fn every_kill_point_recovers_bit_identically(
        ratings in ratings_strategy(10, 240),
        epoch_len in 8usize..40,
        crash_frac in 0.0f64..1.0,
        watermark in (prop::bool::ANY, 2usize..12).prop_map(|(armed, w)| armed.then_some(w)),
        checkpoint_interval in 0u64..3,
    ) {
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let thresholds = Thresholds::new(1.0, 4, 0.6, 0.4);
        let setup = EngineSetup {
            target_shards: 2,
            method: EpochMethod::Optimized,
            thresholds,
            policy: DetectionPolicy::STRICT,
            prune: true,
            close_threads: 0,
        };
        let cfg = DurabilityConfig {
            sync_policy: SyncPolicy::ASYNC_DEFAULT,
            checkpoint_interval,
            keep_checkpoints: 2,
            pair_watermark: watermark,
        };
        let steps = steps_of(&ratings, epoch_len);

        // uncrashed reference
        let mut reference = EpochEngine::new(
            &nodes, setup.target_shards, setup.method, setup.thresholds, setup.policy, setup.prune,
        );
        reference.set_pair_watermark(cfg.pair_watermark);
        for step in &steps {
            match step {
                Step::Record(r) => { reference.record(*r); }
                Step::Close => { reference.close_epoch(); }
            }
        }
        let expected = reference.persist_bytes(0);

        for kill in KillPoint::ALL {
            // checkpoints only exist at epoch boundaries: snap the
            // post-rename kill-point forward to the next scheduled close
            let mut crash_at = (steps.len() as f64 * crash_frac) as usize;
            if kill == KillPoint::PostCheckpointRename {
                while crash_at > 0 && crash_at < steps.len() && steps[crash_at - 1] != Step::Close {
                    crash_at += 1;
                }
            }
            let dir = scratch_dir("props-killpoint");
            let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
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
                DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
            let resume = seqs.iter().position(|&s| s >= report.next_seq).unwrap_or(seqs.len());
            for step in &steps[resume..] {
                match step {
                    Step::Record(r) => { recovered.record(*r).expect("resumed record"); }
                    Step::Close => { recovered.close_epoch().expect("resumed close"); }
                }
            }
            let got = recovered.engine().persist_bytes(0);
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(
                &got, &expected,
                "kill={:?} crash_at={}/{} resume={} diverged", kill, crash_at, steps.len(), resume
            );
        }
    }

    /// A durable engine on [`SyncPolicy::ASYNC_DEFAULT`] crashes and
    /// recovers exactly the durable prefix: the state of an in-memory
    /// [`EpochEngine`] fed the steps whose records survived the crash. The
    /// async committer changes *when* bytes become durable, never *what*
    /// is in the log, so the crash harness's tear costs exactly the last
    /// record — or nothing, when a checkpoint already covers it.
    #[test]
    fn async_group_commit_recovers_the_durable_prefix(
        ratings in ratings_strategy(8, 160),
        epoch_len in 8usize..40,
        crash_frac in 0.0f64..1.0,
    ) {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let setup = EngineSetup {
            target_shards: 2,
            method: EpochMethod::Optimized,
            thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
            policy: DetectionPolicy::STRICT,
            close_threads: 0,
            prune: true,
        };
        let steps = steps_of(&ratings, epoch_len);
        let crash_at = (steps.len() as f64 * crash_frac) as usize;
        let cfg = DurabilityConfig {
            sync_policy: SyncPolicy::ASYNC_DEFAULT,
            checkpoint_interval: 2,
            keep_checkpoints: 2,
            pair_watermark: None,
        };
        let dir = scratch_dir("props-async-policy");
        let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
        let mut seqs = Vec::with_capacity(crash_at);
        for step in &steps[..crash_at] {
            seqs.push(durable.wal().next_seq());
            match step {
                Step::Record(r) => { durable.record(*r).expect("record"); }
                Step::Close => { durable.close_epoch().expect("close"); }
            }
        }
        durable.crash(KillPoint::MidWalAppend).expect("crash injection");
        let (mut recovered, report) =
            DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
        std::fs::remove_dir_all(&dir).ok();
        // the steps whose records are in the durable prefix
        let durable_steps = seqs.iter().position(|&s| s >= report.next_seq).unwrap_or(crash_at);
        prop_assert!(durable_steps + 1 >= crash_at, "the tear cost more than the last record");
        let mut reference = EpochEngine::new(
            &nodes, setup.target_shards, setup.method, setup.thresholds, setup.policy, setup.prune,
        );
        for step in &steps[..durable_steps] {
            match step {
                Step::Record(r) => { reference.record(*r); }
                Step::Close => { reference.close_epoch(); }
            }
        }
        // recovery may leave an open epoch buffer; close both so
        // `persist_bytes` has its epoch boundary
        recovered.close_epoch().expect("close recovered");
        reference.close_epoch();
        prop_assert_eq!(
            recovered.engine().persist_bytes(0), reference.persist_bytes(0),
            "recovered state diverged from the durable prefix"
        );
    }

    /// Recovery is idempotent: recovering twice from the same directory
    /// (no writes in between) produces identical engines and reports.
    #[test]
    fn repeated_recovery_is_stable(
        ratings in ratings_strategy(8, 120),
        epoch_len in 8usize..30,
        crash_frac in 0.0f64..1.0,
    ) {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let setup = EngineSetup {
            target_shards: 2,
            method: EpochMethod::Optimized,
            thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
            policy: DetectionPolicy::STRICT,
            prune: true,
            close_threads: 0,
        };
        let cfg = DurabilityConfig::default();
        let steps = steps_of(&ratings, epoch_len);
        let crash_at = (steps.len() as f64 * crash_frac) as usize;
        let dir = scratch_dir("props-idempotent");
        let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
        for step in &steps[..crash_at] {
            match step {
                Step::Record(r) => { durable.record(*r).expect("record"); }
                Step::Close => { durable.close_epoch().expect("close"); }
            }
        }
        durable.crash(KillPoint::MidWalAppend).expect("crash");
        let (mut a, ra) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("first recover");
        let (mut b, rb) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("second recover");
        // `persist_bytes` requires an epoch boundary; close the (possibly
        // open) recovered buffers identically before comparing
        a.close_epoch().expect("close a");
        b.close_epoch().expect("close b");
        let bytes_a = a.engine().persist_bytes(0);
        let bytes_b = b.engine().persist_bytes(0);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(bytes_a, bytes_b);
        prop_assert_eq!(ra.next_seq, rb.next_seq);
    }
}

/// The recovery report's whole-log facts — what a rejoining manager seeds
/// its `Status.recorded` and session table from — cover the records a
/// checkpoint makes the engine skip, count no self-rating, and keep only
/// the last marker of each session.
#[test]
fn recovery_report_counts_the_whole_log_in_one_pass() {
    let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
    let setup = EngineSetup {
        target_shards: 2,
        method: EpochMethod::Optimized,
        thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    let cfg = DurabilityConfig::default(); // checkpoint at every close
    let dir = scratch_dir("props-whole-log");
    let rate = |a: u64, b: u64| Rating::positive(NodeId(a), NodeId(b), SimTime(0));
    let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
    durable.record_frame(&[rate(1, 2), rate(3, 3), rate(2, 1)], 7, 1, 3).expect("frame");
    durable.record_frame(&[rate(4, 5)], 9, 1, 1).expect("frame");
    durable.close_epoch().expect("close");
    durable.record_frame(&[rate(1, 2), rate(5, 5)], 7, 2, 5).expect("frame");
    durable.record(rate(0, 1)).expect("record");
    durable.sync().expect("sync");
    drop(durable);

    let (recovered, report) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
    std::fs::remove_dir_all(&dir).ok();
    assert!(report.skipped_records > 0, "the checkpoint must cover the first epoch");
    assert_eq!(report.folded_ratings, 5, "7 rating records, 2 of them self-ratings");
    let stats = recovered.engine_stats();
    assert_eq!(stats.ratings + recovered.engine().pending_ratings(), report.folded_ratings);
    let sessions: Vec<_> = report.stream_sessions.into_iter().collect();
    assert_eq!(sessions, vec![(7, (2, 5)), (9, (1, 1))]);
}

/// A directory whose checkpoints were all written in the previous format
/// (version 1: FNV-1a over the payload alone) still recovers: every image
/// is skipped and counted, and the engine is rebuilt from the log, which
/// is never truncated — bit-identical to an uncrashed run.
#[test]
fn version_1_checkpoints_fall_back_to_the_whole_wal() {
    let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
    let setup = EngineSetup {
        target_shards: 2,
        method: EpochMethod::Optimized,
        thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    let cfg = DurabilityConfig::default(); // checkpoint at every close, keep 2
    let dir = scratch_dir("props-v1-fallback");
    let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
    let mut reference = EpochEngine::new(
        &nodes,
        setup.target_shards,
        setup.method,
        setup.thresholds,
        setup.policy,
        setup.prune,
    );
    for k in 0..60u64 {
        let r = Rating::positive(NodeId(k % 2), NodeId(2 + k % 3), SimTime(k));
        durable.record(r).expect("record");
        reference.record(r);
        if k % 20 == 19 {
            durable.close_epoch().expect("close");
            reference.close_epoch();
        }
    }
    drop(durable);

    let mut rewritten = 0;
    for entry in std::fs::read_dir(&dir).expect("list") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            let image = std::fs::read(&path).expect("read checkpoint");
            let (wal_seq, payload) = decode_checkpoint(&image).expect("a version-2 image");
            let mut v1 = b"CCKP".to_vec();
            v1.extend_from_slice(&1u32.to_le_bytes());
            v1.extend_from_slice(&wal_seq.to_le_bytes());
            v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            v1.extend_from_slice(&fnv64(payload).to_le_bytes());
            v1.extend_from_slice(payload);
            std::fs::write(&path, v1).expect("rewrite as version 1");
            rewritten += 1;
        }
    }
    assert_eq!(rewritten, 2);

    let (recovered, report) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.invalid_checkpoints, 2);
    assert_eq!(report.checkpoint_cursor, None);
    assert_eq!((report.skipped_records, report.replayed_records), (0, 63));
    assert_eq!(recovered.engine().persist_bytes(0), reference.persist_bytes(0));
}

/// The engine the checkpoint-writer tests run: 300 nodes, checkpoints
/// only where a test takes them.
fn writer_engine() -> (Vec<NodeId>, EngineSetup, DurabilityConfig) {
    let nodes: Vec<NodeId> = (0..300).map(NodeId).collect();
    let setup = EngineSetup {
        target_shards: 2,
        method: EpochMethod::Optimized,
        thresholds: Thresholds::new(1.0, 4, 0.6, 0.4),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    let cfg = DurabilityConfig { checkpoint_interval: 0, ..Default::default() }; // keeps 2
    (nodes, setup, cfg)
}

/// Fold one epoch of `len` seeded ratings among the 300 nodes and close it.
fn writer_epoch(durable: &mut DurableEngine, epoch: u64, len: u64) {
    let mut x = epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for t in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (a, b) = (x % 300, (x >> 20) % 300);
        durable.record(Rating::positive(NodeId(a), NodeId(b), SimTime(t))).expect("record");
    }
    durable.close_epoch().expect("close");
}

/// Completed checkpoint cursors in `dir`, ascending.
fn checkpoint_cursors(dir: &std::path::Path) -> Vec<u64> {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir)
        .expect("list")
        .filter_map(|e| {
            let name = e.expect("entry").file_name().into_string().expect("utf-8 name");
            name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?.parse().ok()
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// `checkpoint()` returns once the image is handed to the background
/// writer; dropping the engine right after must still leave that image on
/// disk, because the writer's drop waits for the save in flight.
#[test]
fn dropping_the_engine_lands_the_checkpoint_in_flight() {
    let (nodes, setup, cfg) = writer_engine();
    let dir = scratch_dir("props-writer-drop");
    let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
    writer_epoch(&mut durable, 1, 30_000);
    let cursor = durable.wal().next_seq();
    durable.checkpoint().expect("hand-off");
    drop(durable);

    let (_, report) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.checkpoint_cursor, Some(cursor));
    assert_eq!(report.replayed_records, 0);
    assert_eq!(report.stale_tmp, 0);
}

/// A background save that fails is returned exactly once, by the next
/// `checkpoint()`, which then takes no new image; the log keeps taking
/// ratings, and recovery, finding no checkpoint, replays all of it. The
/// directory is moved away rather than made read-only, which root ignores.
#[test]
fn a_failed_background_save_is_returned_once_and_the_log_carries_on() {
    let (nodes, setup, cfg) = writer_engine();
    let dir = scratch_dir("props-writer-fail");
    let moved = dir.with_extension("moved");
    let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
    writer_epoch(&mut durable, 1, 2_000);
    std::fs::rename(&dir, &moved).expect("move the directory away");
    durable.checkpoint().expect("the hand-off itself succeeds");
    let err = durable.checkpoint().expect_err("the failed save is returned");
    assert!(matches!(err, DurabilityError::Checkpoint(_)), "got {err}");
    durable.wait_checkpoint().expect("a failure is returned once");
    std::fs::rename(&moved, &dir).expect("put the directory back");

    writer_epoch(&mut durable, 2, 2_000);
    let stats = durable.stats();
    assert_eq!(stats.checkpoints, 0);
    let next_seq = durable.wal().next_seq();
    durable.sync().expect("sync");
    drop(durable);

    let (_, report) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.checkpoint_cursor, None);
    assert_eq!((report.skipped_records, report.replayed_records), (0, next_seq));
}

/// Checkpoints of closes that follow each other at once (a large epoch,
/// then two of a few ratings, checkpointing at every close) go to disk one
/// at a time in cursor order: the newest is the last one taken, and
/// retention keeps exactly the newest `keep_checkpoints`.
#[test]
fn back_to_back_checkpoints_land_in_cursor_order() {
    let (nodes, setup, cfg) = writer_engine();
    let cfg = DurabilityConfig { checkpoint_interval: 1, ..cfg };
    let dir = scratch_dir("props-writer-order");
    let mut durable = DurableEngine::create(&dir, &nodes, setup, cfg).expect("create");
    let mut cursors = Vec::new();
    for (epoch, len) in [(1, 10_000), (2, 10), (3, 10)] {
        writer_epoch(&mut durable, epoch, len);
        cursors.push(durable.wal().next_seq());
    }
    durable.wait_checkpoint().expect("every save succeeded");
    let stats = durable.stats();
    assert_eq!(stats.checkpoints, 3);
    assert_eq!(checkpoint_cursors(&dir), cursors[1..]);
    drop(durable);

    let (_, report) = DurableEngine::recover(&dir, &nodes, setup, cfg).expect("recover");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.checkpoint_cursor, Some(cursors[2]));
    assert_eq!(report.replayed_records, 0);
}

/// The seeded n = 2 000 scale trace in 20 epochs at three checkpoint
/// cadences — none, every close, every third close — pins how many images
/// are written and how much of the 41 620-record log recovery replays or
/// skips, and at every cadence the recovered engine persists the crashed
/// engine's image byte for byte.
#[test]
fn checkpoint_cadence_pins_replay_volume_on_the_scale_trace() {
    let cfg = ScaleConfig::at_scale(2_000, 42);
    let ratings = cfg.generate();
    let nodes = cfg.node_ids();
    let setup = EngineSetup {
        target_shards: 2,
        method: EpochMethod::Optimized,
        thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
        policy: DetectionPolicy::STRICT,
        prune: true,
        close_threads: 0,
    };
    let epoch_len = ratings.len().div_ceil(20);
    for (interval, expected) in [(0, (0, 41_620, 0)), (1, (20, 0, 41_620)), (3, (6, 4_162, 37_458))]
    {
        let dcfg = DurabilityConfig {
            sync_policy: SyncPolicy::ASYNC_DEFAULT,
            checkpoint_interval: interval,
            ..DurabilityConfig::default()
        };
        let dir = scratch_dir(&format!("props-cadence-{interval}"));
        let mut durable = DurableEngine::create(&dir, &nodes, setup, dcfg).expect("create");
        for epoch in ratings.chunks(epoch_len) {
            for &r in epoch {
                durable.record(r).expect("record");
            }
            durable.close_epoch().expect("close");
        }
        durable.sync().expect("sync");
        durable.wait_checkpoint().expect("last checkpoint on disk");
        assert_eq!(durable.wal().next_seq(), 41_620);
        let written = durable.stats().checkpoints;
        let image = durable.engine().persist_bytes(0);
        drop(durable);

        let (recovered, report) =
            DurableEngine::recover(&dir, &nodes, setup, dcfg).expect("recover");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            (written, report.replayed_records, report.skipped_records),
            expected,
            "checkpoint every {interval} close(s)"
        );
        assert!(
            recovered.engine().persist_bytes(0) == image,
            "interval {interval}: image diverged"
        );
    }
}
