//! Umbrella crate for the ICPP 2012 collusion-detection reproduction.
//!
//! Re-exports the five subsystem crates under one roof so applications can
//! depend on a single crate:
//!
//! * [`reputation`] — ratings, interaction history, EigenTrust engines;
//! * [`dht`] — the Chord DHT simulator backing decentralized managers;
//! * [`core`] — the paper's contribution: the Basic (`O(m·n²)`) and
//!   Optimized (`O(m·n)`) collusion detectors, centralized and
//!   decentralized, with cost metering and threshold sweeps;
//! * [`trace`] — calibrated synthetic Amazon/Overstock traces and the §III
//!   analysis pipeline;
//! * [`sim`] — the §V P2P file-sharing simulator and per-figure scenarios.
//!
//! # Quickstart
//!
//! ```
//! use collusion::prelude::*;
//!
//! // Two colluders boost each other while the community pans them…
//! let mut hist = InteractionHistory::new();
//! for t in 0..30 {
//!     hist.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
//!     hist.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
//!     if t % 3 == 0 {
//!         hist.record(Rating::negative(NodeId(3 + t % 4), NodeId(1), SimTime(t)));
//!         hist.record(Rating::negative(NodeId(3 + t % 4), NodeId(2), SimTime(t)));
//!     }
//! }
//! let nodes: Vec<NodeId> = (1..=6).map(NodeId).collect();
//! let snap = ShardedSnapshot::build(&hist, &nodes, 1);
//! let input = SnapshotInput::from_signed(&snap, &nodes);
//! let report = OptimizedDetector::new(Thresholds::new(1.0, 20, 0.8, 0.2)).detect_snapshot(&input);
//! assert_eq!(report.pair_ids(), vec![(NodeId(1), NodeId(2))]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use collusion_core as core;
pub use collusion_dht as dht;
pub use collusion_reputation as reputation;
pub use collusion_sim as sim;
pub use collusion_trace as trace;

/// One prelude across all subsystems.
pub mod prelude {
    pub use collusion_core::prelude::*;
    pub use collusion_dht::prelude::*;
    pub use collusion_reputation::prelude::*;
    pub use collusion_sim::prelude::*;
    pub use collusion_trace::prelude::*;
}
