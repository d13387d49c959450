//! Shared simulation types: node addressing, messages, jobs, and events.

use crate::engine::SimTime;
use matchmaker::protocol::{ClaimRequest, ClaimResponse, Message};

/// Index of a node (agent) in the simulation.
pub type NodeId = usize;

/// A message traveling over the simulated network.
///
/// The matchmaking traffic is carried verbatim as the real protocol
/// [`Message`]s (so every wire path in the `matchmaker` crate is exercised
/// by the simulator); a claim exchange adds the name of the job that
/// dialed, standing in for the live agents' connection. The remaining
/// variants model the working relationship *after* a claim is
/// established, which the paper leaves to the entities themselves.
#[derive(Debug, Clone)]
pub enum SimMsg {
    /// A matchmaking-protocol message.
    Proto(Message),
    /// Customer → provider: a claim for `job`, which the reply echoes.
    Claim {
        /// The job (or gang) claiming.
        job: String,
        /// The claim.
        req: ClaimRequest,
    },
    /// Provider → customer: the verdict on `job`'s claim.
    ClaimReply {
        /// The job named in the claim.
        job: String,
        /// The verdict.
        resp: ClaimResponse,
    },
    /// Provider → customer: the running job finished.
    JobFinished {
        /// Job identifier.
        job_id: u64,
    },
    /// Provider → customer: the job was vacated before completion
    /// (owner reclaimed the workstation, or a higher-ranked customer
    /// preempted the claim). `done_ms` is work completed this attempt, at
    /// reference speed.
    Vacated {
        /// Job identifier.
        job_id: u64,
        /// Work completed during this attempt (reference-speed ms).
        done_ms: u64,
    },
    /// Provider → manager: usage accounting on claim release, feeding the
    /// fair-share priorities.
    UsageReport {
        /// The user whose job consumed the resource.
        user: String,
        /// Wall-clock ms of resource occupancy.
        used_ms: u64,
    },
    /// Manager → gang customer: every port of a gang request was matched
    /// (step 3 of Figure 3, once per port). The customer must now claim
    /// each port; the co-allocation only holds if every claim succeeds.
    GangNotify {
        /// The gang request's ad name.
        gang_name: String,
        /// Matched ports, in port order.
        ports: Vec<GangPortInfo>,
    },
}

/// Claiming details for one matched gang port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GangPortInfo {
    /// The granted provider's ad name.
    pub offer_name: String,
    /// Provider type (`"Machine"`, `"License"`, ...).
    pub offer_type: String,
    /// Provider contact address.
    pub contact: String,
    /// The provider's authorization ticket.
    pub ticket: matchmaker::ticket::Ticket,
}

/// Timer tags for machine (RA) nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineTimer {
    /// Periodic advertisement refresh.
    Advertise,
    /// The workstation owner arrives or departs.
    OwnerToggle,
    /// The running job completes (valid only for the matching claim
    /// generation — stale timers from vacated claims are ignored).
    JobDone {
        /// Claim generation this timer belongs to.
        generation: u64,
    },
}

/// Timer tags for customer-agent (CA) nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomerTimer {
    /// Periodic advertisement of idle jobs.
    Advertise,
    /// The next job arrives in this agent's queue.
    JobArrival,
}

/// Timer tags for license-provider nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LicenseTimer {
    /// Periodic advertisement refresh.
    Advertise,
}

/// Timer tags for gang customer agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GangTimer {
    /// Periodic advertisement of idle gangs.
    Advertise,
    /// The next gang arrives in the queue.
    Arrival,
}

/// Timer tags for the pool-manager node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerTimer {
    /// Run a tick: the periodic negotiation cycle.
    Negotiate,
    /// Run an arrival cycle for the job ads that arrived since the last
    /// cycle.
    Arrivals,
}

/// A simulation event.
#[derive(Debug, Clone)]
pub enum Event {
    /// Deliver a message to a node.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: SimMsg,
    },
    /// A machine timer fires.
    Machine {
        /// The machine node.
        node: NodeId,
        /// Which timer.
        tag: MachineTimer,
    },
    /// A customer-agent timer fires.
    Customer {
        /// The customer node.
        node: NodeId,
        /// Which timer.
        tag: CustomerTimer,
    },
    /// A manager timer fires.
    Manager {
        /// The manager node.
        node: NodeId,
        /// Which timer.
        tag: ManagerTimer,
    },
    /// A license-agent timer fires.
    License {
        /// The license node.
        node: NodeId,
        /// Which timer.
        tag: LicenseTimer,
    },
    /// A gang-customer timer fires.
    GangCustomer {
        /// The gang customer node.
        node: NodeId,
        /// Which timer.
        tag: GangTimer,
    },
}

/// What the simulator models of a job around the job-queue core: its
/// work, checkpointing and accounting. Its status lives in the customer
/// agent's [`matchmaker::agent::JobQueue`].
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique id across the simulation.
    pub id: u64,
    /// Ad name, e.g. `"alice.3"`.
    pub name: String,
    /// Owning user.
    pub owner: String,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Total service demand, in reference-speed milliseconds (the paper's
    /// machines advertise `Mips`; a machine with `Mips = 2 × reference`
    /// executes the job twice as fast).
    pub total_work_ms: u64,
    /// Work still to do (reference-speed ms).
    pub remaining_ms: u64,
    /// Memory requirement (MB), advertised and used in constraints.
    pub memory: i64,
    /// Whether the job checkpoints: a vacated checkpointing job keeps its
    /// progress, a non-checkpointing one restarts from zero (Condor's
    /// classic distinction).
    pub want_checkpoint: bool,
    /// Extra constraint source appended to the standard requirements
    /// (e.g. `other.Arch == "INTEL"`), or empty.
    pub extra_constraint: String,
    /// Rank expression source (customer preference over machines).
    pub rank: String,
    /// Number of times this job was vacated.
    pub vacations: u32,
    /// Work wasted by restarts (reference-speed ms).
    pub wasted_ms: u64,
    /// When the job first started running, if ever.
    pub first_start: Option<SimTime>,
}

impl Job {
    /// Render the job as a classad at time `now`.
    pub fn to_ad(&self) -> classad::ClassAd {
        let mut constraint = format!(
            "other.Type == \"Machine\" && other.Memory >= {}",
            self.memory
        );
        if !self.extra_constraint.is_empty() {
            constraint.push_str(" && ");
            constraint.push_str(&self.extra_constraint);
        }
        let src = format!(
            r#"[
                Name = "{name}";
                Type = "Job";
                JobId = {id};
                Owner = "{owner}";
                QDate = {qdate};
                Memory = {memory};
                RemainingWork = {remaining};
                WantCheckpoint = {ckpt};
                Rank = {rank};
                Constraint = {constraint};
            ]"#,
            name = self.name,
            id = self.id,
            owner = self.owner,
            qdate = self.submitted_at,
            memory = self.memory,
            remaining = self.remaining_ms,
            ckpt = if self.want_checkpoint { 1 } else { 0 },
            rank = if self.rank.is_empty() {
                "0"
            } else {
                &self.rank
            },
            constraint = constraint,
        );
        classad::parse_classad(&src)
            .unwrap_or_else(|e| panic!("internal: generated job ad failed to parse: {e}\n{src}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            id: 7,
            name: "alice.7".into(),
            owner: "alice".into(),
            submitted_at: 123,
            total_work_ms: 60_000,
            remaining_ms: 45_000,
            memory: 31,
            want_checkpoint: true,
            extra_constraint: r#"other.Arch == "INTEL""#.into(),
            rank: "other.Mips".into(),
            vacations: 0,
            wasted_ms: 0,
            first_start: None,
        }
    }

    #[test]
    fn job_ad_renders_and_carries_fields() {
        let ad = job().to_ad();
        assert_eq!(ad.get_string("Name"), Some("alice.7"));
        assert_eq!(ad.get_int("JobId"), Some(7));
        assert_eq!(ad.get_int("Memory"), Some(31));
        assert_eq!(ad.get_int("RemainingWork"), Some(45_000));
        assert!(ad.contains("Constraint"));
        assert!(ad.contains("Rank"));
    }

    #[test]
    fn job_ad_constraint_embeds_memory_and_extra() {
        let ad = job().to_ad();
        let c = ad.get("Constraint").unwrap().to_string();
        assert!(c.contains("other.Memory >= 31"), "{c}");
        assert!(c.contains("other.Arch == \"INTEL\""), "{c}");
    }

    #[test]
    fn job_ad_matches_suitable_machine() {
        let machine = classad::parse_classad(
            r#"[ Name = "m"; Type = "Machine"; Arch = "INTEL"; Memory = 64;
                 Mips = 100; Constraint = other.Type == "Job" ]"#,
        )
        .unwrap();
        let jad = job().to_ad();
        let policy = classad::EvalPolicy::default();
        let conv = classad::MatchConventions::default();
        assert!(classad::symmetric_match(&jad, &machine, &policy, &conv));
        assert_eq!(classad::rank_of(&jad, &machine, &policy, &conv), 100.0);
    }

    #[test]
    fn empty_rank_defaults_to_zero() {
        let mut j = job();
        j.rank = String::new();
        j.extra_constraint = String::new();
        let ad = j.to_ad();
        assert_eq!(ad.get_int("Rank"), Some(0));
    }
}
