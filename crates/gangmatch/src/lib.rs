//! # gangmatch — co-allocation and diagnosis
//!
//! The paper's §5 sketches research directions beyond the core
//! framework; this crate implements two of them:
//!
//! * [`coalloc`] — **gang matching**: atomic co-allocation of several
//!   resources to one multi-port request expressed with nested classads;
//! * [`diagnosis`] — explain **why a request cannot match**: per-conjunct
//!   elimination statistics, offer-side veto attribution, and pool-profile
//!   hints for never-satisfiable constraints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coalloc;
pub mod diagnosis;
pub mod service;

pub use coalloc::{GangError, GangMatch, GangRequest, GangSolver};
pub use diagnosis::{conjuncts_of, diagnose, profile_attr, AttrProfile, ConjunctReport, Diagnosis};
pub use service::{negotiate_gangs, GangCycleOutcome, GangGrant, PortGrant};
