//! P2P file-sharing network simulator — the paper's evaluation testbed (§V).
//!
//! Reproduces every stated parameter of the evaluation:
//!
//! * 200-node unstructured network, 20 interest categories, 1–5 interests
//!   per node, nodes with a shared interest fully connected in a cluster;
//! * capacity 50 requests per node per query cycle;
//! * node activity probability drawn from \[0.3, 0.8\];
//! * 20 simulation cycles × 20 query cycles, 5 runs averaged;
//! * pretrusted nodes (always authentic), normal nodes (authentic with
//!   probability 0.8), colluders (authentic with probability `B`), pair-wise
//!   collusion at 10 mutual +1 ratings per query cycle;
//! * server selection: highest-reputed cluster neighbour with free
//!   capacity, ties broken uniformly at random;
//! * EigenTrust-style reputation: the paper's weighted sum (`w_l = 0.2`,
//!   `w_s = 0.5`) or canonical power iteration, updated once per simulation
//!   cycle; reputation threshold 0.05;
//! * optional collusion detection (Basic / Optimized) after each reputation
//!   update, zeroing detected colluders (§V.B);
//! * compromised-pretrusted scenarios (pretrusted nodes colluding with
//!   colluders, Figures 7/11).
//!
//! [`scenario`] packages one constructor per paper figure; [`runner`]
//! averages runs in parallel with rayon.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod network;
pub mod peer;
pub mod robustness;
pub mod runner;
pub mod scenario;

/// Re-exports of the commonly used types.
pub mod prelude {
    pub use crate::cluster::nemesis::{run_nemesis, NemesisConfig, NemesisKind, NemesisOutcome};
    pub use crate::cluster::ClusterConfig;
    pub use crate::config::{DetectorKind, ReputationEngine, SimConfig};
    pub use crate::engine::Simulation;
    pub use crate::metrics::{AveragedMetrics, SimMetrics};
    pub use crate::network::InterestNetwork;
    pub use crate::peer::{NodeKind, Peer};
    pub use crate::robustness::{run_robustness, RobustnessConfig, RobustnessOutcome};
    pub use crate::runner::run_averaged;
}
