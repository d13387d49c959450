//! # condor-pool — the live TCP pool runtime
//!
//! The paper's five components are *network* protocols: ads flow to the
//! matchmaker, notifications flow back, and matched parties contact each
//! other **directly** to claim. The `matchmaker` crate implements the
//! messages and decision procedures over in-memory frames; this crate
//! supplies the missing substrate — long-running daemons on real
//! `std::net` sockets, reusing the wire format unchanged:
//!
//! * [`MatchmakerDaemon`] — a TCP listener wrapping
//!   [`matchmaker::Matchmaker`]: thread-per-connection with a bounded
//!   accept pool, per-connection [`matchmaker::FrameDecoder`] with a
//!   frame-size guard, read/write deadlines, a background
//!   negotiation-cycle ticker that dials matched parties to deliver
//!   notifications, and structured [`Message::Error`] replies before
//!   closing on protocol violations.
//! * [`ResourceAgent`] — a provider runtime: periodic ad refresh with
//!   lease renewal, a listener for *direct* claim connections that
//!   re-verifies constraints against current state and verifies tickets.
//! * [`CustomerAgent`] — a customer runtime: advertises requests,
//!   receives [`matchmaker::MatchNotification`]s, dials the provider
//!   directly to claim, and resubmits with bounded exponential backoff on
//!   rejection or provider death.
//! * [`PoolHandle`] / [`PoolBuilder`] — run an entire pool on loopback
//!   for tests and demos, with one-call graceful shutdown.
//!
//! Everything is deadline-bounded: connects, reads, and writes all carry
//! timeouts ([`IoConfig`]), and retries follow a capped exponential
//! [`Backoff`]. Weak consistency does the rest — a dead peer or a lost
//! notification costs a cycle, never a wrong allocation.
//!
//! [`Message::Error`]: matchmaker::Message::Error

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod customer;
pub mod daemon;
pub mod failover;
pub(crate) mod link;
pub(crate) mod observe;
pub mod pool;
pub mod resource;
pub mod wire;

/// Re-export of the retry schedule, which moved to `matchmaker::retry` so
/// socket-free crates (e.g. `condor-flock`) can pace their own retries.
/// Existing `condor_pool::retry::Backoff` paths keep working.
pub mod retry {
    pub use matchmaker::retry::Backoff;
}

pub use customer::{CustomerAgent, CustomerConfig, CustomerStatsSnapshot, JobStatus};
pub use daemon::{
    AlarmConfig, DaemonConfig, DaemonStatsSnapshot, HaConfig, MatchmakerDaemon, ViewConfig,
};
pub use pool::{PoolBuilder, PoolHandle};
pub use resource::{ResourceAgent, ResourceConfig, ResourceStatsSnapshot};
pub use retry::Backoff;
pub use wire::{IoConfig, WireError};
