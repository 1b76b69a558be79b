//! Robustness curves for decentralized detection (`BENCH_robustness.json`).
//!
//! Sweeps message-drop probability × manager-churn rate over the standard
//! robustness scenario ([`RobustnessConfig::standard`]) and records, per
//! grid point, the recall of the confirmed suspect-pair set against the
//! fault-free baseline, the fraction of baseline pairs still *reported*
//! (confirmed or unconfirmed — the graceful-degradation guarantee), and the
//! message overhead paid by retries and replication:
//!
//! ```text
//! cargo run --release -p collusion-bench --bin robustness_json -- [nodes] [out]
//! ```
//!
//! Defaults: `nodes = 200` (the paper's evaluation size),
//! `out = BENCH_robustness.json`. Every grid point is deterministic in its
//! seeds; re-running the binary reproduces the grid bit for bit (the
//! `"nemesis"` section's rates and latencies are wall-clock measurements
//! and vary by machine — its invariant columns are still pinned). The
//! schema lives in [`collusion_bench::grid`].
//!
//! After the drop×churn sweep, every nemesis (crash / partition /
//! reconnect / overload, plus the fault-free reference) runs against a
//! live 3-manager TCP cluster ingesting through resumable stream
//! sessions. The binary itself asserts the invariants — zero acked-rating
//! loss, zero duplicates, suspect sets equal to the in-process baseline,
//! and ≥0.5× fault-free throughput under the overload nemesis (throttled,
//! never refused).

use collusion_bench::grid::{
    render_grid, render_nemesis_rows, standard_sweep, sweep_plan, GridHeader, GridRow, NemesisRow,
};
use collusion_sim::cluster::nemesis::{run_nemesis, NemesisConfig, NemesisKind};
use collusion_sim::robustness::{run_robustness, RobustnessConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let out_path = args.next().unwrap_or_else(|| "BENCH_robustness.json".to_string());

    let mut rows: Vec<GridRow> = Vec::new();
    for (drop, crashes) in standard_sweep() {
        let mut cfg = RobustnessConfig::standard(42).with_plan(sweep_plan(drop, crashes));
        cfg.sim.n_nodes = nodes;
        eprintln!("robustness: drop={drop} crashes/period={crashes} …");
        let o = run_robustness(&cfg);
        eprintln!(
            "  recall={:.3} reported={:.3} overhead={:.3} unconfirmed={} lost={}",
            o.recall,
            o.reported_fraction,
            o.message_overhead,
            o.unconfirmed_pairs.len(),
            o.lost_nodes
        );
        rows.push(GridRow {
            drop,
            crashes_per_period: crashes,
            joins_per_period: crashes,
            recall: o.recall,
            reported_fraction: o.reported_fraction,
            message_overhead: o.message_overhead,
            baseline_pairs: o.baseline_pairs.len(),
            confirmed_pairs: o.confirmed_pairs.len(),
            unconfirmed_pairs: o.unconfirmed_pairs.len(),
            detection_messages: o.detection_messages,
            baseline_messages: o.baseline_messages,
            retries: o.fault.retries,
            messages_dropped: o.fault.messages_dropped,
            completeness: o.fault.completeness(),
            crashed: o.crashed,
            joined: o.joined,
            extra: vec![
                ("recovered_nodes", o.recovered_nodes.to_string()),
                ("lost_nodes", o.lost_nodes.to_string()),
            ],
        });
    }

    // nemesis grid: composed fault schedules against a live TCP cluster,
    // fault-free reference first (it anchors the throughput ratios)
    let mut nemesis_rows: Vec<NemesisRow> = Vec::new();
    let mut fault_free_rate = 0.0f64;
    for kind in NemesisKind::all() {
        let mut ncfg = NemesisConfig::quick(kind, 71);
        ncfg.cluster.sim.n_nodes = nodes;
        eprintln!("nemesis: {} …", kind.label());
        let o = run_nemesis(&ncfg);
        assert_eq!(o.lost, 0, "{}: acked rating lost", kind.label());
        assert_eq!(o.duplicated, 0, "{}: rating applied twice", kind.label());
        assert!(o.suspects_match, "{}: suspect set diverged from baseline", kind.label());
        if kind == NemesisKind::None {
            fault_free_rate = o.ratings_per_sec;
        }
        let ratio = if fault_free_rate > 0.0 { o.ratings_per_sec / fault_free_rate } else { 1.0 };
        if kind == NemesisKind::Overload {
            assert_eq!(o.refused_frames, 0, "overload must throttle, never refuse");
            assert!(
                ratio >= 0.5,
                "overload nemesis sustained only {ratio:.3}x of the fault-free rate (floor 0.5)"
            );
        }
        eprintln!(
            "  acked={}/{} lost={} dup={} resumes={} kills={} partitions={} \
             throttled={} rate={:.0}/s ({:.2}x)",
            o.acked,
            o.ratings,
            o.lost,
            o.duplicated,
            o.resumes,
            o.kills,
            o.partitions,
            o.throttled_frames,
            o.ratings_per_sec,
            ratio
        );
        nemesis_rows.push(NemesisRow {
            kind: kind.label().to_string(),
            ratings: o.ratings,
            acked: o.acked,
            lost: o.lost,
            duplicated: o.duplicated,
            resumes: o.resumes,
            retransmitted: o.retransmitted,
            failed_recoveries: o.failed_recoveries,
            recovery_ms: o.recovery_ms,
            detect_ms: o.detect_ms,
            kills: o.kills,
            partitions: o.partitions,
            throttled_frames: o.throttled_frames,
            refused_frames: o.refused_frames,
            sessions_resumed: o.sessions_resumed,
            ratings_per_sec: o.ratings_per_sec,
            rate_vs_fault_free: ratio,
            suspects_match: o.suspects_match,
        });
    }

    let header = GridHeader {
        transport: "in-process",
        nodes,
        managers: 16,
        replication: 3,
        churn_periods: 4,
        extra: vec![("nemesis", render_nemesis_rows(&nemesis_rows))],
    };
    let json = render_grid(&header, &rows);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}
