//! Multi-run experiment execution.
//!
//! "Each experiment is run 5 times and the average of the results is the
//! final result." Runs are independent — run `k` uses seed `seed + k` —
//! and run one after another.

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::metrics::{AveragedMetrics, SimMetrics};

/// Execute `runs` independent simulations and average them.
pub fn run_averaged(config: &SimConfig, runs: usize) -> AveragedMetrics {
    assert!(runs > 0, "need at least one run");
    let results: Vec<SimMetrics> = (0..runs)
        .map(|k| {
            let mut cfg = config.clone();
            cfg.seed = config.seed.wrapping_add(k as u64);
            Simulation::new(cfg).run()
        })
        .collect();
    AveragedMetrics::from_runs(&results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_baseline(seed);
        cfg.n_nodes = 50;
        cfg.sim_cycles = 3;
        cfg
    }

    #[test]
    fn averaging_is_deterministic() {
        let a = run_averaged(&quick_config(1), 3);
        let b = run_averaged(&quick_config(1), 3);
        assert_eq!(a.reputation, b.reputation);
        assert_eq!(a.fraction_to_colluders, b.fraction_to_colluders);
    }

    #[test]
    fn runs_counted() {
        let m = run_averaged(&quick_config(2), 4);
        assert_eq!(m.runs, 4);
        assert!(m.avg_requests_total > 0.0);
    }

    #[test]
    fn averaged_reputation_is_distribution() {
        let m = run_averaged(&quick_config(3), 3);
        let sum: f64 = m.reputation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = run_averaged(&quick_config(4), 0);
    }
}
