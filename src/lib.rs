#![forbid(unsafe_code)]
//! # matchmaking — classad matchmaking for high-throughput computing
//!
//! Umbrella crate for a from-scratch reproduction of *Raman, Livny &
//! Solomon, "Matchmaking: Distributed Resource Management for High
//! Throughput Computing" (HPDC 1998)* — the ClassAd framework that
//! underpins Condor/HTCondor.
//!
//! The system is split into five crates, re-exported here:
//!
//! * [`classad`] — the ClassAd language: parser, three-valued evaluator,
//!   builtin functions, bilateral matching semantics, pretty-printer,
//!   JSON interop, and the paper's Figure 1/2 ads as fixtures.
//! * [`matchmaker`] — the framework: advertising protocol, soft-state ad
//!   store, fair-share priorities, negotiation cycles, match
//!   notifications, tickets, and the claiming protocol.
//! * [`condor_sim`] — a deterministic discrete-event simulation of a
//!   Condor-like pool (Resource-owner Agents, Customer Agents, pool
//!   manager) that drives the real protocol end to end.
//! * [`gangmatch`] — two of the paper's §5 directions, implemented: gang
//!   co-allocation and unsatisfiable-constraint diagnosis.
//! * [`condor_pool`] — the live runtime: the matchmaker as a TCP daemon
//!   plus resource/customer agent runtimes with soft-state leases,
//!   deadlines, and bounded retry, speaking the same wire format over
//!   real sockets.
//!
//! See `examples/quickstart.rs` for a three-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the paper-artifact map.

pub use classad;
pub use condor_pool;
pub use condor_sim;
pub use gangmatch;
pub use matchmaker;
