//! Prebuilt scenarios — one constructor per paper figure.
//!
//! Figures 5–11 are reputation-distribution experiments; [`fig12`] and
//! [`fig13`] are sweeps over the number of colluders. Every constructor
//! documents its deviation knobs (if any) from [`SimConfig::paper_baseline`].
//!
//! **Threshold note.** The paper sets the reputation threshold to 0.05 with
//! 8 colluders among 200 nodes; when the colluding population grows
//! (Figures 12–13 go up to 58), each colluder's share of the normalized
//! reputation mass drops below 0.05 even while they dominate, so the sweep
//! scenarios set `T_R` to twice the uniform share (`2/n`) — still "high
//! reputed", but scale-aware.

use crate::config::{DetectorKind, ReputationEngine, SimConfig};
use crate::runner::run_averaged;
use collusion_reputation::eigentrust::EigenTrustConfig;
use collusion_reputation::id::NodeId;
use collusion_reputation::thresholds::Thresholds;

/// Figure 5: plain EigenTrust, colluders' good-behaviour probability 0.6.
pub fn fig5(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline(seed);
    cfg.colluder_good_prob = 0.6;
    cfg
}

/// Figure 6: plain EigenTrust, `B = 0.2`.
pub fn fig6(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline(seed);
    cfg.colluder_good_prob = 0.2;
    cfg
}

/// Figure 7: plain EigenTrust with compromised pretrusted nodes
/// (`n1` colludes with `n4`, `n2` with `n6`), `B = 0.2`.
pub fn fig7(seed: u64) -> SimConfig {
    let mut cfg = fig6(seed);
    cfg.compromised = vec![(NodeId(1), NodeId(4)), (NodeId(2), NodeId(6))];
    cfg
}

/// Figure 8: the detectors alone (no pretrusted nodes), colluder ids 1–8,
/// `B = 0.2`. Unoptimized and Optimized produce identical distributions; the
/// returned config uses Optimized (swap `detector` for Basic to cross-check).
pub fn fig8(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline(seed);
    cfg.pretrusted = Vec::new();
    cfg.colluders = (1..=8).map(NodeId).collect();
    cfg.colluder_good_prob = 0.2;
    cfg.detector = DetectorKind::Optimized;
    cfg
}

/// Figure 9: EigenTrust + Optimized, `B = 0.6`.
pub fn fig9(seed: u64) -> SimConfig {
    let mut cfg = fig5(seed);
    cfg.detector = DetectorKind::Optimized;
    cfg
}

/// Figure 10: EigenTrust + Optimized, `B = 0.2`.
pub fn fig10(seed: u64) -> SimConfig {
    let mut cfg = fig6(seed);
    cfg.detector = DetectorKind::Optimized;
    cfg
}

/// Figure 11: EigenTrust + Optimized with compromised pretrusted nodes.
pub fn fig11(seed: u64) -> SimConfig {
    let mut cfg = fig7(seed);
    cfg.detector = DetectorKind::Optimized;
    cfg
}

/// The colluder-count sweep of Figures 12/13.
pub const COLLUDER_SWEEP: [u64; 6] = [8, 18, 28, 38, 48, 58];

/// Build a sweep config with `k` colluders (ids 4..4+k), `B = 0.2`,
/// scale-aware `T_R` (see module docs).
pub fn sweep_config(seed: u64, k: u64, detector: DetectorKind) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline(seed);
    cfg.colluders = (4..4 + k).map(NodeId).collect();
    cfg.colluder_good_prob = 0.2;
    cfg.detector = detector;
    cfg.thresholds = Thresholds::new(
        2.0 / cfg.n_nodes as f64,
        cfg.thresholds.t_n,
        cfg.thresholds.t_a,
        cfg.thresholds.t_b,
    );
    cfg
}

/// One point of the Figure 12 series.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Point {
    /// Number of colluders in the system.
    pub colluders: u64,
    /// % of requests served by colluders under plain EigenTrust.
    pub eigentrust: f64,
    /// … under EigenTrust + Unoptimized.
    pub unoptimized: f64,
    /// … under EigenTrust + Optimized.
    pub optimized: f64,
}

/// Figure 12: percent of file requests sent to colluders vs. the number of
/// colluders, for the three methods, averaged over `runs` runs.
pub fn fig12(seed: u64, runs: usize) -> Vec<Fig12Point> {
    COLLUDER_SWEEP
        .iter()
        .map(|&k| {
            let plain = run_averaged(&sweep_config(seed, k, DetectorKind::None), runs);
            let unopt = run_averaged(&sweep_config(seed, k, DetectorKind::Basic), runs);
            let opt = run_averaged(&sweep_config(seed, k, DetectorKind::Optimized), runs);
            Fig12Point {
                colluders: k,
                eigentrust: plain.fraction_to_colluders,
                unoptimized: unopt.fraction_to_colluders,
                optimized: opt.fraction_to_colluders,
            }
        })
        .collect()
}

/// One point of the Figure 13 series.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Point {
    /// Number of colluders in the system.
    pub colluders: u64,
    /// EigenTrust's operation cost (recursive reputation calculation).
    pub eigentrust: f64,
    /// Unoptimized detection cost (matrix row scans).
    pub unoptimized: f64,
    /// Optimized detection cost (band checks).
    pub optimized: f64,
}

/// Figure 13: operation cost vs. the number of colluders.
///
/// The EigenTrust series is the cost of its recursive global-reputation
/// calculation — the runs use the power-iteration engine so that cost is the
/// canonical one (flat in the number of colluders). The detector series
/// count only "information analysis and computation" (the paper's wording):
/// the detection cost itself.
pub fn fig13(seed: u64, runs: usize) -> Vec<Fig13Point> {
    COLLUDER_SWEEP
        .iter()
        .map(|&k| {
            // EigenTrust series: its recursive reputation calculation, so
            // the run uses the power-iteration engine and reports its ops.
            let mut plain_cfg = sweep_config(seed, k, DetectorKind::None);
            plain_cfg.engine = ReputationEngine::PowerIteration(EigenTrustConfig::default());
            let plain = run_averaged(&plain_cfg, runs);
            // Detector series: detection cost under the same weighted
            // system as Figure 12 (the setting "identical to Figure 6").
            let unopt = run_averaged(&sweep_config(seed, k, DetectorKind::Basic), runs);
            let opt = run_averaged(&sweep_config(seed, k, DetectorKind::Optimized), runs);
            Fig13Point {
                colluders: k,
                eigentrust: plain.avg_reputation_ops,
                unoptimized: unopt.avg_detection_cost,
                optimized: opt.avg_detection_cost,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_configs_differ_only_where_stated() {
        assert_eq!(fig5(0).colluder_good_prob, 0.6);
        assert_eq!(fig6(0).colluder_good_prob, 0.2);
        assert_eq!(fig7(0).compromised.len(), 2);
        assert!(fig8(0).pretrusted.is_empty());
        assert_eq!(fig8(0).colluders[0], NodeId(1));
        assert_eq!(fig9(0).detector, DetectorKind::Optimized);
        assert_eq!(fig9(0).colluder_good_prob, 0.6);
        assert_eq!(fig10(0).detector, DetectorKind::Optimized);
        assert_eq!(fig11(0).compromised.len(), 2);
        assert_eq!(fig11(0).detector, DetectorKind::Optimized);
        for cfg in [fig5(0), fig6(0), fig7(0), fig8(0), fig9(0), fig10(0), fig11(0)] {
            cfg.validate();
        }
    }

    #[test]
    fn sweep_config_scales_threshold() {
        let cfg = sweep_config(0, 58, DetectorKind::Optimized);
        assert_eq!(cfg.colluders.len(), 58);
        assert!((cfg.thresholds.t_r - 0.01).abs() < 1e-12);
        cfg.validate();
    }

    #[test]
    fn sweep_covers_paper_points() {
        assert_eq!(COLLUDER_SWEEP, [8, 18, 28, 38, 48, 58]);
    }
}
