//! # condor-sim — a discrete-event simulator of a Condor-like HTC pool
//!
//! The paper's evaluation substrate was the production Condor pool at
//! UW–Madison. This crate substitutes a deterministic discrete-event
//! simulation whose agents speak the *real* protocol from the
//! `matchmaker` crate: Resource-owner Agents advertise machine classads
//! (with owner policies up to and including the paper's Figure 1 policy,
//! verbatim), Customer Agents advertise job classads, the pool manager
//! runs real negotiation cycles, and claims are adjudicated by the real
//! ticket-and-reverify claiming protocol, decided by the live agents' cores
//! (`matchmaker::agent`). Nothing in `matchmaker` is mocked; the simulation
//! supplies only time, network, workload, and the agents' environment.
//!
//! ```
//! use condor_sim::scenario::{PolicyConfig, Scenario};
//! use condor_sim::workload::{FleetSpec, UserSpec};
//!
//! let scenario = Scenario {
//!     seed: 7,
//!     fleet: FleetSpec { count: 4, ..Default::default() },
//!     policy: PolicyConfig::Always,
//!     users: vec![UserSpec {
//!         arch_constraint_prob: 0.0,
//!         ..UserSpec::standard("alice", 3)
//!     }],
//!     duration_ms: 3_600_000,
//!     ..Default::default()
//! };
//! let (summary, _sim) = scenario.run();
//! assert_eq!(summary.jobs_completed, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod ctx;
pub mod customer;
pub mod engine;
pub mod gangca;
pub mod license;
pub mod machine;
pub mod manager;
pub mod metrics;
pub mod network;
pub mod scenario;
pub mod sim;
pub mod trace;
pub mod types;
pub mod workload;

pub use config::{scenario_from_ad, scenario_from_str, scenario_to_ad, ConfigError};
pub use engine::{EventQueue, SimTime, MS_PER_SEC};
pub use gangca::{GangCustomerAgent, GangJob, GangState};
pub use license::LicenseAgent;
pub use machine::{MachineAgent, MachinePolicy, REFERENCE_MIPS};
/// A job's status: the job-queue core's, as in the live pool.
pub use matchmaker::agent::JobStatus as JobState;
pub use metrics::{JobRecord, Metrics, Summary};
pub use network::NetworkModel;
pub use scenario::{NegotiatorSettings, PolicyConfig, Scenario};
pub use sim::{Node, Simulation};
pub use trace::{TraceEvent, TraceLog, TraceRecord};
pub use types::{Event, Job, NodeId, SimMsg};
pub use workload::{FleetSpec, JobArrival, MachineSpec, MachineTemplate, OwnerActivity, UserSpec};
