//! # pool_bench — the Fig. 3 transaction ledger
//!
//! A load generator that drives a real `condor_pool::MatchmakerDaemon`
//! over loopback sockets through five workloads and reports, for each,
//! the end-to-end numbers a user of the pool sees and — in a traced run —
//! the cost of every layer the work crosses. `README.md` defines every
//! workload and metric; `../BENCHMARK.json` is the contract the numbers
//! are compared under.
//!
//! Everything is measured from outside the system: by timing calls into
//! its public functions and reading its public counter snapshots.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod gen;
pub mod pool;
pub mod replay;
pub mod report;
pub mod workloads;
