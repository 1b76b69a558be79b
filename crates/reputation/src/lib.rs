//! Reputation-system substrates for collusion detection in P2P networks.
//!
//! This crate implements everything the ICPP 2012 paper *"Collusion Detection
//! in Reputation Systems for Peer-to-Peer Networks"* (Li, Shen, Sapra) assumes
//! as its environment:
//!
//! * rating primitives ([`rating::Rating`], [`rating::RatingValue`]) mirroring
//!   the Amazon/eBay −1/0/+1 feedback model,
//! * the interaction-history bookkeeping of the paper's Table I
//!   ([`history::InteractionHistory`]): per-pair rating counts `N(j,i)`,
//!   positive/negative splits, and the derived fractions `a` and `b`,
//! * global reputation engines ([`eigentrust`]): canonical EigenTrust power
//!   iteration with a pretrusted distribution, and the weighted-sum variant
//!   the paper's evaluation section uses (`w_l = 0.2`, `w_s = 0.5`).
//!
//! The collusion detectors themselves live in the `collusion-core` crate and
//! consume the types defined here.
//!
//! # Quick example
//!
//! ```
//! use collusion_reputation::prelude::*;
//!
//! let mut hist = InteractionHistory::new();
//! hist.record(Rating::positive(NodeId(1), NodeId(2), SimTime(0)));
//! hist.record(Rating::negative(NodeId(3), NodeId(2), SimTime(1)));
//! assert_eq!(hist.ratings_for(NodeId(2)), 2);
//! assert_eq!(hist.signed_reputation(NodeId(2)), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod checkpoint;
pub mod codec;
pub mod eigentrust;
pub mod epoch;
pub mod frame;
pub mod fxhash;
pub mod history;
pub mod id;
pub mod ingest;
pub mod par;
pub mod rating;
pub mod sharded;
pub mod thresholds;
pub mod trust_matrix;
pub mod wal;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::baselines::{DampenedConfig, DampenedEngine, FirstHandEngine};
    pub use crate::checkpoint::{CheckpointLoad, CheckpointStore};
    pub use crate::codec::{ByteReader, ByteWriter, CodecError};
    pub use crate::eigentrust::{
        EigenTrust, EigenTrustConfig, NormalizedWeightedEngine, WeightedSumConfig,
        WeightedSumEngine,
    };
    pub use crate::epoch::{EpochBuffer, EpochDelta};
    pub use crate::history::{InteractionHistory, PairCounters};
    pub use crate::id::{NodeId, SimTime};
    pub use crate::ingest::ShardedIntake;
    pub use crate::rating::{Rating, RatingLog, RatingValue};
    pub use crate::sharded::ShardedSnapshot;
    pub use crate::thresholds::Thresholds;
    pub use crate::trust_matrix::TrustMatrix;
    pub use crate::wal::{SyncPolicy, Wal, WalRecord, WalReplay};
}
