//! Emitter for the robustness-grid JSON report (`robustness_json` →
//! `BENCH_robustness.json`).
//!
//! The schema is a header naming the transport and topology, then one row
//! per drop×churn grid point. Counters specific to a run ride along as
//! extra key/value pairs appended to the header or row (the nemesis
//! section is one such header field).
//!
//! All JSON is hand-rolled: the workspace deliberately carries no JSON
//! dependency.

/// Grid-report header: topology plus transport tag.
#[derive(Clone, Debug)]
pub struct GridHeader {
    /// `"in-process"` or `"tcp"`.
    pub transport: &'static str,
    /// Simulated network size.
    pub nodes: u64,
    /// Reputation managers on the ring.
    pub managers: u64,
    /// Replication factor of the faulty run.
    pub replication: usize,
    /// Churn periods applied before the round.
    pub churn_periods: u64,
    /// Transport-specific header fields, appended verbatim (values must
    /// already be valid JSON fragments).
    pub extra: Vec<(&'static str, String)>,
}

/// One grid point in the shared schema. Core fields carry the same names
/// in both reports; `extra` carries transport-specific counters.
#[derive(Clone, Debug, Default)]
pub struct GridRow {
    /// Message-drop probability of the point.
    pub drop: f64,
    /// Managers crashed per churn period.
    pub crashes_per_period: usize,
    /// Managers joined (in-process) or rejoined from disk (tcp) per period.
    pub joins_per_period: usize,
    /// `|confirmed ∩ baseline| / |baseline|`.
    pub recall: f64,
    /// Baseline pairs confirmed or unconfirmed, over `|baseline|`.
    pub reported_fraction: f64,
    /// Faulty-round messages over baseline messages.
    pub message_overhead: f64,
    /// Baseline suspect-pair count.
    pub baseline_pairs: usize,
    /// Confirmed suspect-pair count.
    pub confirmed_pairs: usize,
    /// Degraded (unconfirmed) pair count.
    pub unconfirmed_pairs: usize,
    /// Confirmation messages offered to the network in the faulty round.
    pub detection_messages: u64,
    /// Confirmation messages of the fault-free baseline round.
    pub baseline_messages: u64,
    /// Retransmissions across all exchanges.
    pub retries: u64,
    /// Messages the (simulated or proxied) network dropped.
    pub messages_dropped: u64,
    /// Fraction of exchanges that completed.
    pub completeness: f64,
    /// Managers crashed before the round.
    pub crashed: usize,
    /// Managers joined/rejoined before the round.
    pub joined: usize,
    /// Transport-specific row fields, appended verbatim (values must
    /// already be valid JSON fragments).
    pub extra: Vec<(&'static str, String)>,
}

/// Render the full report: header fields, then `"grid": [rows…]`.
pub fn render_grid(header: &GridHeader, rows: &[GridRow]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"transport\": \"{}\",\n  \"nodes\": {},\n  \"managers\": {},\n  \
         \"replication\": {},\n  \"churn_periods\": {},\n",
        header.transport, header.nodes, header.managers, header.replication, header.churn_periods
    ));
    for (k, v) in &header.extra {
        json.push_str(&format!("  \"{k}\": {v},\n"));
    }
    json.push_str("  \"grid\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"drop\": {:.2}, \"crashes_per_period\": {}, \"joins_per_period\": {}, \
             \"recall\": {:.4}, \"reported_fraction\": {:.4}, \"message_overhead\": {:.4}, \
             \"baseline_pairs\": {}, \"confirmed_pairs\": {}, \"unconfirmed_pairs\": {}, \
             \"detection_messages\": {}, \"baseline_messages\": {}, \"retries\": {}, \
             \"messages_dropped\": {}, \"completeness\": {:.4}, \"crashed\": {}, \"joined\": {}",
            r.drop,
            r.crashes_per_period,
            r.joins_per_period,
            r.recall,
            r.reported_fraction,
            r.message_overhead,
            r.baseline_pairs,
            r.confirmed_pairs,
            r.unconfirmed_pairs,
            r.detection_messages,
            r.baseline_messages,
            r.retries,
            r.messages_dropped,
            r.completeness,
            r.crashed,
            r.joined,
        ));
        for (k, v) in &r.extra {
            json.push_str(&format!(", \"{k}\": {v}"));
        }
        json.push_str(&format!("}}{sep}\n"));
    }
    json.push_str("  ]\n}\n");
    json
}

/// One nemesis experiment in the robustness report's `"nemesis"` section:
/// a composed fault schedule (crash / partition / reconnect / overload)
/// against a live TCP cluster ingesting through resumable stream sessions.
/// `lost`, `duplicated`, and `suspects_match` are the exactly-once and
/// detection invariants (must be 0 / 0 / true); the rates and latencies
/// are wall-clock measurements and vary by machine.
#[derive(Clone, Debug)]
pub struct NemesisRow {
    /// Nemesis label (`none` is the fault-free reference).
    pub kind: String,
    /// Ratings offered to the cluster.
    pub ratings: u64,
    /// Ratings acked durable by the streaming clients.
    pub acked: u64,
    /// Offered ratings missing from the WALs after healing.
    pub lost: u64,
    /// WAL ratings exceeding their offered multiplicity.
    pub duplicated: u64,
    /// `StreamResume` handshakes across all lanes (first connects included).
    pub resumes: u64,
    /// Frames retransmitted after a resume.
    pub retransmitted: u64,
    /// Recovery attempts that failed before one stuck.
    pub failed_recoveries: u64,
    /// Slowest single-lane cumulative recovery time, milliseconds.
    pub recovery_ms: u64,
    /// Slowest heartbeat confirmation of a kill, milliseconds.
    pub detect_ms: u64,
    /// Managers killed and rejoined.
    pub kills: u64,
    /// Sever/heal cycles applied.
    pub partitions: u64,
    /// Frames acked with a throttle hint.
    pub throttled_frames: u64,
    /// Frames refused past the intake hard limit.
    pub refused_frames: u64,
    /// `StreamResume` requests the servers answered.
    pub sessions_resumed: u64,
    /// Acked ratings per second of ingest wall-clock.
    pub ratings_per_sec: f64,
    /// This nemesis' rate over the fault-free (`none`) rate.
    pub rate_vs_fault_free: f64,
    /// Whether the healed cluster's suspect set equals the baseline.
    pub suspects_match: bool,
}

/// Render the `"nemesis"` section as a JSON array fragment suitable for a
/// [`GridHeader`] extra value (multi-line, indented to match the header).
pub fn render_nemesis_rows(rows: &[NemesisRow]) -> String {
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"kind\": \"{}\", \"ratings\": {}, \"acked\": {}, \"lost\": {}, \
             \"duplicated\": {}, \"resumes\": {}, \"retransmitted\": {}, \
             \"failed_recoveries\": {}, \"recovery_ms\": {}, \"detect_ms\": {}, \
             \"kills\": {}, \"partitions\": {}, \"throttled_frames\": {}, \
             \"refused_frames\": {}, \"sessions_resumed\": {}, \"ratings_per_sec\": {:.1}, \
             \"rate_vs_fault_free\": {:.3}, \"suspects_match\": {}}}{sep}\n",
            r.kind,
            r.ratings,
            r.acked,
            r.lost,
            r.duplicated,
            r.resumes,
            r.retransmitted,
            r.failed_recoveries,
            r.recovery_ms,
            r.detect_ms,
            r.kills,
            r.partitions,
            r.throttled_frames,
            r.refused_frames,
            r.sessions_resumed,
            r.ratings_per_sec,
            r.rate_vs_fault_free,
            r.suspects_match,
        ));
    }
    json.push_str("  ]");
    json
}

/// The standard drop×churn sweep both grids walk, with the seeds pinned by
/// the original robustness bench: drop seeds `0xD0 + drop*10`, churn seeds
/// `0xC0FF_EE00 + crashes`.
pub fn standard_sweep() -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    for &drop in &[0.0, 0.1, 0.3] {
        for &crashes in &[0usize, 1, 2] {
            out.push((drop, crashes));
        }
    }
    out
}

/// The fault plan of one sweep point (shared seed convention).
pub fn sweep_plan(drop: f64, crashes: usize) -> collusion_core::prelude::FaultPlan {
    use collusion_core::prelude::FaultPlan;
    let plan = if drop > 0.0 {
        FaultPlan::with_drop(drop, 0xD0_u64 + (drop * 10.0) as u64)
    } else {
        FaultPlan::none()
    };
    plan.with_churn(crashes, crashes, 0xC0FF_EE00 + crashes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_grid_is_valid_shapewise() {
        let header = GridHeader {
            transport: "tcp",
            nodes: 80,
            managers: 3,
            replication: 2,
            churn_periods: 2,
            extra: vec![("queries_per_sec", "123.4".to_string())],
        };
        let row = GridRow {
            drop: 0.1,
            recall: 1.0,
            reported_fraction: 1.0,
            message_overhead: 1.25,
            extra: vec![("round_ms", "17".to_string())],
            ..GridRow::default()
        };
        let json = render_grid(&header, &[row.clone(), row]);
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"queries_per_sec\": 123.4"));
        assert!(json.contains("\"round_ms\": 17"));
        // both rows present, comma-separated, no trailing comma
        assert_eq!(json.matches("\"drop\": 0.10").count(), 2);
        assert!(!json.contains(",\n  ]"));
        // braces balance
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn nemesis_rows_render_as_a_header_fragment() {
        let row = NemesisRow {
            kind: "crash".to_string(),
            ratings: 100,
            acked: 100,
            lost: 0,
            duplicated: 0,
            resumes: 4,
            retransmitted: 2,
            failed_recoveries: 1,
            recovery_ms: 120,
            detect_ms: 80,
            kills: 2,
            partitions: 0,
            throttled_frames: 0,
            refused_frames: 0,
            sessions_resumed: 2,
            ratings_per_sec: 1234.5,
            rate_vs_fault_free: 0.9,
            suspects_match: true,
        };
        let header = GridHeader {
            transport: "tcp",
            nodes: 80,
            managers: 3,
            replication: 1,
            churn_periods: 0,
            extra: vec![("nemesis", render_nemesis_rows(&[row.clone(), row]))],
        };
        let json = render_grid(&header, &[]);
        assert!(json.contains("\"nemesis\": [\n"));
        assert_eq!(json.matches("\"kind\": \"crash\"").count(), 2);
        assert!(json.contains("\"suspects_match\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sweep_covers_the_full_grid_with_pinned_seeds() {
        let sweep = standard_sweep();
        assert_eq!(sweep.len(), 9);
        let plan = sweep_plan(0.3, 2);
        assert_eq!(plan.message.drop_probability, 0.3);
        assert_eq!(plan.message.seed, 0xD3);
        assert_eq!(plan.churn.crashes_per_period, 2);
        assert_eq!(plan.churn.seed, 0xC0FF_EE02);
    }
}
