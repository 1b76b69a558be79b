//! Chord DHT simulator.
//!
//! The decentralized reputation system in the paper (§IV.A, Figure 2) runs on
//! a Chord ring (Stoica et al., TON 2003): "EigenTrust forms a number of
//! high-reputed power nodes into a Distributed Hash Table (DHT) for
//! reputation aggregation and calculation. … The reputation manager of
//! reputation ratings on node `n_i` is the DHT owner of `ID_i`. A node uses
//! DHT function `Insert(ID_i, r_i)` to send the rating of node `n_i` to its
//! reputation manager, and uses `Lookup(ID_i)` to query the reputation value
//! of node `n_i`."
//!
//! This crate implements that substrate in-process and deterministically:
//!
//! * [`id`] — a circular identifier space of configurable bit width `m`
//!   (the paper's example uses a 4-bit space; production uses 64),
//! * [`hash`] — consistent hashing of node addresses and keys,
//! * [`ring`] — ring membership, successor/predecessor relations, finger
//!   tables, join/leave churn,
//! * [`routing`] — iterative `find_successor` lookups with hop and message
//!   accounting,
//! * [`fault`] — seeded, deterministic message-fault injection (drop
//!   probability, delay distribution) for robustness experiments,
//! * [`error`] — the [`error::DhtError`] returned by fallible lookups
//!   while the ring is healing.
//!
//! # Example: the paper's Figure 2
//!
//! A 4-node ring in a 4-bit space; ratings about node with key 10 are stored
//! at its successor.
//!
//! ```
//! use collusion_dht::prelude::*;
//!
//! let mut ring = ChordRing::with_bits(4);
//! for key in [0u64, 6, 10, 15] {
//!     ring.join_with_key(Key::new(key, 4));
//! }
//! // the owner (trust host) of key 10 is node 10 itself
//! assert_eq!(ring.owner(Key::new(10, 4)).raw(), 10);
//! // … and key 11 wraps to node 15
//! assert_eq!(ring.owner(Key::new(11, 4)).raw(), 15);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod fault;
pub mod hash;
pub mod id;
pub mod ring;
pub mod routing;

/// Re-exports of the commonly used types.
pub mod prelude {
    pub use crate::error::DhtError;
    pub use crate::fault::{FaultRng, FaultyNet, MessageFaults, NetStats};
    pub use crate::hash::{consistent_hash, hash_address, hash_bytes};
    pub use crate::id::Key;
    pub use crate::ring::ChordRing;
    pub use crate::routing::{LookupResult, Router};
}
