//! Collusion detection for P2P reputation systems — the primary contribution
//! of Li, Shen & Sapra, *ICPP 2012*.
//!
//! Two detectors are implemented, both driven by the collusion model the
//! paper distills from the Amazon/Overstock traces ([`model`]):
//!
//! * [`basic::BasicDetector`] ("Unoptimized", §IV.B) — the reputation
//!   manager scans its rating matrix row by row; for a high-reputed node
//!   `n_i` and a frequent high-reputed rater `n_j` it computes the positive
//!   fractions `a` (from `n_j`) and `b` (from everyone else) by scanning the
//!   full row, then repeats the check in the reverse direction.
//!   Complexity `O(m·n²)` (Proposition 4.1).
//!
//! * [`optimized::OptimizedDetector`] (§IV.C) — replaces the row scan with
//!   the closed-form reputation band of Formula (2) ([`formula`]), needing
//!   only `R_i`, `N_i` and `N(j,i)`. Complexity `O(m·n)` (Proposition 4.2).
//!
//! Both run centralized (one manager sees everything) or decentralized
//! ([`system`] in process, [`net`] over TCP): reputation managers on a
//! Chord ring each scan their responsible nodes and exchange confirmation
//! messages for cross-manager pairs ([`decentralized::Method`] names the
//! kernel they run).
//!
//! Detection costs are metered ([`cost`]) to reproduce the paper's Figure 13
//! cost comparison, and [`sweep`] provides the threshold-tuning machinery the
//! paper lists as future work.
//!
//! # Quick example
//!
//! ```
//! use collusion_core::prelude::*;
//! use collusion_reputation::prelude::*;
//!
//! let mut hist = InteractionHistory::new();
//! // colluders n1 and n2 rate each other +1 thirty times …
//! for t in 0..30 {
//!     hist.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
//!     hist.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
//! }
//! // … while the community rates them negatively
//! for t in 0..10 {
//!     hist.record(Rating::negative(NodeId(3), NodeId(1), SimTime(t)));
//!     hist.record(Rating::negative(NodeId(4), NodeId(2), SimTime(t)));
//! }
//! let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
//! let snap = ShardedSnapshot::build(&hist, &nodes, 1);
//! let report = OptimizedDetector::new(Thresholds::PAPER)
//!     .detect_snapshot(&SnapshotInput::from_signed(&snap, &nodes));
//! assert!(report.is_colluder(NodeId(1)) && report.is_colluder(NodeId(2)));
//! assert!(!report.is_colluder(NodeId(3)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod basic;
pub mod cost;
pub mod decentralized;
pub mod durability;
pub mod epoch;
pub mod fault;
pub mod formula;
pub mod group;
pub mod input;
pub mod mitigation;
pub mod model;
pub mod net;
pub mod optimized;
mod pairset;
pub mod policy;
pub mod report;
pub mod sweep;
pub mod system;

/// Re-exports of the commonly used types.
pub mod prelude {
    pub use crate::basic::BasicDetector;
    pub use crate::cost::{CostMeter, CostSnapshot};
    pub use crate::durability::{
        DurabilityConfig, DurableEngine, EngineSetup, KillPoint, RecoveryReport,
    };
    pub use crate::epoch::{EpochEngine, EpochMethod, EpochStats};
    pub use crate::fault::{ChurnSchedule, ExchangeOutcome, FaultPlan, FaultSession, FaultStats};
    pub use crate::formula::{formula_band, formula_reputation, Fig4Surface};
    pub use crate::group::{GroupDetector, GroupDetectorConfig, GroupReport, SuspectGroup};
    pub use crate::input::{DetectionInput, SnapshotInput};
    pub use crate::mitigation::apply_mitigation;
    pub use crate::model::{Characteristic, SuspectPair};
    pub use crate::net::view::PublishedView;
    pub use crate::optimized::{OptimizedDetector, PruneStats};
    pub use crate::policy::DetectionPolicy;
    pub use crate::report::{ConfusionMatrix, DetectionReport};
    pub use crate::sweep::{sweep_thresholds, SweepPoint};
    pub use crate::system::{DecentralizedSystem, RobustReport, SystemStats};
    pub use collusion_reputation::thresholds::Thresholds;
}
