//! Real networked detection cluster: wire protocol, RPC client, manager
//! server, and fault-injecting proxy.
//!
//! The paper's decentralised detection (§IV.A) over localhost TCP:
//!
//! * [`wire`] — length-prefixed, checksummed RPC codec built on
//!   [`collusion_reputation::frame`] (same fnv1a64 integrity primitive as
//!   the WAL);
//! * [`client`] — deadline-aware client with bounded exponential-backoff
//!   retries;
//! * [`server`] — [`server::ManagerNode`], a thread-per-connection TCP
//!   server owning a durable engine and a published read view;
//! * [`view`] — [`view::PublishedView`], that read view, which `Query`
//!   answers from;
//! * [`proxy`] — [`proxy::FaultProxy`], which drops, delays and
//!   partitions real frames on the link it fronts.
//!
//! The design goal is *degraded-mode correctness*: every RPC resolves
//! within its deadline, an unreachable partner yields an unconfirmed
//! verdict rather than a hang, and a killed manager rejoins from its WAL
//! with its full history intact.

pub mod client;
pub mod proxy;
pub mod server;
pub mod view;
pub mod wire;

pub use client::{
    FailureDetector, FailureDetectorConfig, InsertStream, ResumableStream, ResumeStats, RpcClient,
    RpcConfig, RpcError, StreamStats,
};
pub use proxy::{FaultProxy, NetFaultPlan, Partition};
pub use server::{centralised_baseline, Backpressure, ManagerConfig, ManagerNode, RingView};
pub use wire::{Request, Response};
