//! The `scripts/check.sh` nemesis smoke gate: the live TCP cluster under
//! composed fault schedules, scored against the centralised baseline.

use collusion_sim::cluster::nemesis::{run_nemesis, NemesisConfig, NemesisKind};

/// The `scripts/check.sh` nemesis smoke gate: crash (two detector-gated
/// kills), partition (one ack-direction sever + heal), and overload
/// (shrunk intake watermark) nemeses against a live 3-manager cluster.
/// Every run must end with zero acked-rating loss, zero duplicates, and a
/// suspect set equal to the centralised baseline. Run with
/// `--nocapture`: the `NEMESIS` lines are the deterministic projection
/// `check.sh` diffs against `scripts/BENCH_nemesis_smoke_expected.txt`.
#[test]
fn nemesis_smoke_gate() {
    for kind in [NemesisKind::Crash, NemesisKind::Partition, NemesisKind::Overload] {
        let out = run_nemesis(&NemesisConfig::quick(kind, 71));
        assert_eq!(out.lost, 0, "{}: offered rating missing from the WALs", kind.label());
        assert_eq!(out.duplicated, 0, "{}: rating applied more than once", kind.label());
        assert_eq!(out.acked, out.ratings, "{}: every offered rating must be acked", kind.label());
        assert!(
            out.suspects_match,
            "{}: healed cluster diverged from the centralised baseline\n  cluster:  {:?}\n  baseline: {:?}",
            kind.label(),
            out.confirmed_pairs,
            out.baseline_pairs
        );
        assert!(!out.baseline_pairs.is_empty(), "workload must produce suspect pairs");
        match kind {
            NemesisKind::Crash => {
                assert_eq!(out.kills, 2, "both scheduled kills must fire");
                assert!(out.detect_ms > 0, "failover must be heartbeat-gated");
                assert!(out.sessions_resumed > 0, "killed owners must be resumed into");
            }
            NemesisKind::Partition => {
                assert_eq!(out.partitions, 1);
                assert!(out.resumes > 0, "the severed lane must resume");
            }
            NemesisKind::Overload => {
                assert!(out.throttled_frames > 0, "the shrunk watermark must throttle");
                assert_eq!(out.refused_frames, 0, "overload must throttle, never refuse");
            }
            _ => {}
        }
        println!(
            "NEMESIS {} ratings={} acked={} lost={} duplicated={} kills={} partitions={} refused={} suspects_match={}",
            kind.label(),
            out.ratings,
            out.acked,
            out.lost,
            out.duplicated,
            out.kills,
            out.partitions,
            out.refused_frames,
            out.suspects_match
        );
    }
}
