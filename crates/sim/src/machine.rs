//! The Resource-owner Agent (RA): represents one workstation and enforces
//! its owner's usage policy (paper §4).
//!
//! "An RA periodically probes the resource to determine its current state,
//! and encapsulates this information in a classad along with the owner's
//! usage policy." The agent advertises, adjudicates claims with the real
//! [`ClaimHandler`] (ticket + constraint re-verification), runs jobs at a
//! speed proportional to its `Mips`, vacates them when the owner returns,
//! and — while claimed — keeps advertising with `State = "Claimed"` and a
//! `CurrentRank`, staying "interested in hearing from higher priority
//! customers".

use crate::ctx::Ctx;
use crate::engine::{SimTime, MS_PER_SEC};
use crate::types::{Event, MachineTimer, NodeId, SimMsg};
use crate::workload::MachineSpec;
use classad::{rank_of, ClassAd, EvalPolicy, MatchConventions, Value};
use matchmaker::claim::ClaimHandler;
use matchmaker::protocol::{Advertisement, ClaimRequest, EntityKind, Message};
use matchmaker::ticket::TicketIssuer;
use rand::Rng;

/// Reference speed: a machine with `Mips == 100` executes one
/// reference-millisecond of work per millisecond.
pub const REFERENCE_MIPS: f64 = 100.0;

/// The owner's usage policy, compiled into the advertised `Constraint` and
/// `Rank` expressions.
#[derive(Debug, Clone)]
pub enum MachinePolicy {
    /// Serve any job whenever the machine exists (dedicated node).
    Always,
    /// Serve jobs only when the owner has been away from the keyboard for
    /// at least this long (the opportunistic desktop policy).
    OwnerIdle {
        /// Required keyboard idle time, in seconds.
        min_keyboard_idle_s: i64,
    },
    /// The paper's Figure 1 policy: `untrusted` users never; `research`
    /// members always (rank 10); `friends` (rank 1) only when the machine
    /// is idle; everyone else only at night.
    Figure1 {
        /// Research-group members.
        research: Vec<String>,
        /// Friends.
        friends: Vec<String>,
        /// Banned users.
        untrusted: Vec<String>,
    },
}

/// Customers a compute node serves: plain jobs and gang (co-allocation)
/// envelopes, both of which carry the execution attributes machines need.
const COMPUTE_CUSTOMER: &str = "(other.Type == \"Job\" || other.Type == \"Gang\")";

impl MachinePolicy {
    fn list(src: &[String]) -> String {
        let items: Vec<String> = src.iter().map(|s| format!("\"{s}\"")).collect();
        format!("{{ {} }}", items.join(", "))
    }

    /// The `Constraint` expression source this policy advertises.
    pub fn constraint_src(&self) -> String {
        match self {
            MachinePolicy::Always => COMPUTE_CUSTOMER.to_string(),
            MachinePolicy::OwnerIdle {
                min_keyboard_idle_s,
            } => format!("{COMPUTE_CUSTOMER} && KeyboardIdle >= {min_keyboard_idle_s}"),
            MachinePolicy::Figure1 { .. } => {
                // Figure 1's policy in its prose-faithful reading: the
                // paper's text says untrusted users are *never* served, so
                // the untrusted test is conjoined outside the rank cascade.
                // (Read with standard `?:` precedence, the figure's own
                // expression would admit untrusted users at night — see
                // EXPERIMENTS.md E1.)
                "(other.Type == \"Job\" || other.Type == \"Gang\") && \
                 !member(other.Owner, Untrusted) && \
                 (Rank >= 10 ? true : \
                  Rank > 0 ? LoadAvg < 0.3 && KeyboardIdle > 15*60 : \
                  DayTime < 8*60*60 || DayTime > 18*60*60)"
                    .to_string()
            }
        }
    }

    /// The `Rank` expression source this policy advertises.
    pub fn rank_src(&self) -> String {
        match self {
            MachinePolicy::Always | MachinePolicy::OwnerIdle { .. } => "0".to_string(),
            MachinePolicy::Figure1 { .. } => {
                "member(other.Owner, ResearchGroup) * 10 + member(other.Owner, Friends)".to_string()
            }
        }
    }

    /// Does the policy care about owner presence (i.e. vacate on return)?
    pub fn owner_sensitive(&self) -> bool {
        !matches!(self, MachinePolicy::Always)
    }
}

#[derive(Debug, Clone)]
struct RunningJob {
    job_id: u64,
    owner: String,
    customer_contact: String,
    /// Reference-speed work remaining when the claim started.
    work_at_start_ms: u64,
    started_at: SimTime,
    /// This machine's execution speed multiplier.
    speed: f64,
    /// The machine's rank of the claimant (advertised as `CurrentRank`).
    rank: f64,
}

/// A simulated workstation with its Resource-owner Agent.
#[derive(Debug)]
pub struct MachineAgent {
    /// This node's id.
    pub id: NodeId,
    /// The manager node to advertise to.
    pub manager: NodeId,
    /// Static machine characteristics.
    pub spec: MachineSpec,
    /// Contact address (directory key).
    pub contact: String,
    /// Owner policy.
    pub policy: MachinePolicy,
    /// Advertisement refresh period, ms.
    pub advertise_period_ms: u64,
    /// Push a fresh ad immediately on state changes (owner toggle, claim,
    /// release). Disabling leaves only the periodic refresh, which widens
    /// the staleness window — the knob behind experiment E9.
    pub push_on_change: bool,

    owner_present: bool,
    /// When the owner last left (keyboard idle anchor).
    owner_left_at: SimTime,
    claim: ClaimHandler,
    tickets: TicketIssuer,
    running: Option<RunningJob>,
    /// Invalidates stale `JobDone` timers after vacate/complete.
    generation: u64,
    /// When the current claim started (for busy-time accounting).
    claim_started: Option<SimTime>,
    eval_policy: EvalPolicy,
    conventions: MatchConventions,
}

impl MachineAgent {
    /// Create an agent for `spec`, initially with the owner away.
    pub fn new(
        id: NodeId,
        manager: NodeId,
        spec: MachineSpec,
        policy: MachinePolicy,
        advertise_period_ms: u64,
        ticket_seed: u64,
    ) -> Self {
        let contact = format!("{}:9614", spec.name);
        MachineAgent {
            id,
            manager,
            spec,
            contact,
            policy,
            advertise_period_ms,
            owner_present: false,
            owner_left_at: 0,
            push_on_change: true,
            claim: ClaimHandler::new(),
            tickets: TicketIssuer::new(ticket_seed),
            running: None,
            generation: 0,
            claim_started: None,
            eval_policy: EvalPolicy::default(),
            conventions: MatchConventions::default(),
        }
    }

    /// Is a job currently running here?
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// Is the owner currently at the console?
    pub fn owner_present(&self) -> bool {
        self.owner_present
    }

    /// Keyboard idle time in **seconds** at `now`.
    pub fn keyboard_idle_s(&self, now: SimTime) -> i64 {
        if self.owner_present {
            0
        } else {
            (now.saturating_sub(self.owner_left_at) / MS_PER_SEC) as i64
        }
    }

    /// Build this machine's current classad.
    pub fn build_ad(&self, now: SimTime) -> ClassAd {
        let state = if self.running.is_some() {
            "Claimed"
        } else if self.owner_present {
            "Owner"
        } else {
            "Unclaimed"
        };
        let load = if self.running.is_some() { 1.0 } else { 0.02 };
        let day_time_s = (now / MS_PER_SEC) % 86_400;
        let mut src = format!(
            r#"[
                Name = "{name}";
                Type = "Machine";
                Arch = "{arch}";
                OpSys = "{opsys}";
                Mips = {mips};
                KFlops = {kflops};
                Memory = {memory};
                Disk = {disk};
                State = "{state}";
                Activity = "{activity}";
                LoadAvg = {load};
                KeyboardIdle = {kbd};
                DayTime = {day};
            "#,
            name = self.spec.name,
            arch = self.spec.arch,
            opsys = self.spec.opsys,
            mips = self.spec.mips,
            kflops = self.spec.mips * 210, // rough FLOPS model, cf. Fig. 1
            memory = self.spec.memory,
            disk = self.spec.disk,
            state = state,
            activity = if self.running.is_some() {
                "Busy"
            } else {
                "Idle"
            },
            load = load,
            kbd = self.keyboard_idle_s(now),
            day = day_time_s,
        );
        if let MachinePolicy::Figure1 {
            research,
            friends,
            untrusted,
        } = &self.policy
        {
            src.push_str(&format!(
                "ResearchGroup = {};\nFriends = {};\nUntrusted = {};\n",
                MachinePolicy::list(research),
                MachinePolicy::list(friends),
                MachinePolicy::list(untrusted),
            ));
        }
        if let Some(run) = &self.running {
            src.push_str(&format!(
                "RemoteOwner = \"{}\";\nCurrentRank = {:.6};\n",
                run.owner, run.rank
            ));
        }
        src.push_str(&format!(
            "Rank = {};\nConstraint = {};\n]",
            self.policy.rank_src(),
            self.policy.constraint_src()
        ));
        classad::parse_classad(&src)
            .unwrap_or_else(|e| panic!("internal: machine ad failed to parse: {e}\n{src}"))
    }

    /// Initialize: set owner presence and schedule the first timers.
    pub fn start(&mut self, initially_present: bool, ctx: &mut Ctx<'_>) {
        self.owner_present = initially_present;
        self.owner_left_at = 0;
        // Stagger first advertisements so the pool doesn't thunder.
        let jitter = ctx.rng.gen_range(0..self.advertise_period_ms.max(1));
        ctx.schedule(
            jitter,
            Event::Machine {
                node: self.id,
                tag: MachineTimer::Advertise,
            },
        );
        let toggle = self
            .spec
            .activity
            .sample_period(ctx.rng, self.owner_present, ctx.now);
        ctx.schedule(
            toggle,
            Event::Machine {
                node: self.id,
                tag: MachineTimer::OwnerToggle,
            },
        );
    }

    fn advertise(&mut self, ctx: &mut Ctx<'_>) {
        let ad = self.build_ad(ctx.now);
        let ticket = self.tickets.issue();
        self.claim.set_ticket(ticket);
        let adv = Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: self.contact.clone(),
            ticket: Some(ticket),
            // Lease slightly over two periods: one missed refresh is
            // tolerated, two are not.
            expires_at: ctx.now + self.advertise_period_ms * 2 + self.advertise_period_ms / 2,
        };
        ctx.send_to_node(self.manager, SimMsg::Proto(Message::Advertise(adv)));
    }

    /// Handle a timer event.
    pub fn on_timer(&mut self, tag: MachineTimer, ctx: &mut Ctx<'_>) {
        match tag {
            MachineTimer::Advertise => {
                self.advertise(ctx);
                ctx.schedule(
                    self.advertise_period_ms,
                    Event::Machine {
                        node: self.id,
                        tag: MachineTimer::Advertise,
                    },
                );
            }
            MachineTimer::OwnerToggle => {
                self.owner_present = !self.owner_present;
                ctx.metrics.trace.record(
                    ctx.now,
                    crate::trace::TraceEvent::OwnerToggle {
                        machine: self.spec.name.clone(),
                        present: self.owner_present,
                    },
                );
                if self.owner_present {
                    if self.policy.owner_sensitive() && self.running.is_some() {
                        ctx.metrics.vacated_by_owner += 1;
                        self.vacate(ctx);
                    }
                } else {
                    self.owner_left_at = ctx.now;
                }
                if self.push_on_change {
                    self.advertise(ctx);
                }
                let next = self
                    .spec
                    .activity
                    .sample_period(ctx.rng, self.owner_present, ctx.now);
                ctx.schedule(
                    next,
                    Event::Machine {
                        node: self.id,
                        tag: MachineTimer::OwnerToggle,
                    },
                );
            }
            MachineTimer::JobDone { generation } => {
                if generation != self.generation {
                    return; // stale timer from a vacated claim
                }
                self.complete(ctx);
            }
        }
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Proto(Message::Claim(req)) => self.on_claim(req, ctx),
            SimMsg::Proto(Message::Release { .. }) if self.running.is_some() => {
                // Customer relinquished: account the usage, free the slot.
                self.finish_claim(ctx);
                if self.push_on_change {
                    self.advertise(ctx);
                }
            }
            // RAs ignore other traffic (e.g. their own match notification —
            // in this model the customer drives the claim).
            _ => {}
        }
    }

    fn on_claim(&mut self, req: ClaimRequest, ctx: &mut Ctx<'_>) {
        let current_ad = self.build_ad(ctx.now);
        // Preemption policy: displace the current claimant only for a
        // request this machine ranks strictly higher.
        let current_rank = self.running.as_ref().map(|r| r.rank).unwrap_or(0.0);
        let eval_policy = EvalPolicy {
            now: Some((ctx.now / MS_PER_SEC) as i64),
            ..self.eval_policy.clone()
        };
        let conventions = self.conventions.clone();
        let new_rank = rank_of(&current_ad, &req.customer_ad, &eval_policy, &conventions);
        let preemptible = |_req: &ClaimRequest| new_rank > current_rank;

        let (resp, displaced) = self
            .claim
            .handle_claim(&req, &current_ad, ctx.now, preemptible);
        let accepted = resp.accepted;
        let reply_to = req.customer_contact.clone();

        if accepted {
            // If we displaced a running claim, vacate it first.
            if displaced.is_some() {
                ctx.metrics.preempted_by_rank += 1;
                self.vacate(ctx);
                // `vacate` resets claim state; re-establish the new claim.
                self.claim.set_ticket(req.ticket);
                let again = self
                    .claim
                    .handle_claim(&req, &current_ad, ctx.now, |_| true);
                debug_assert!(again.0.accepted);
            }
            // Extract execution parameters from the *current* customer ad.
            let job_id = req
                .customer_ad
                .eval_attr("JobId", &eval_policy)
                .as_int()
                .unwrap_or(0) as u64;
            let remaining = req
                .customer_ad
                .eval_attr("RemainingWork", &eval_policy)
                .as_int()
                .unwrap_or(0)
                .max(0) as u64;
            let owner = match req.customer_ad.eval_attr("Owner", &eval_policy) {
                Value::Str(s) => s.to_string(),
                _ => "<unknown>".to_string(),
            };
            let speed = self.spec.mips as f64 / REFERENCE_MIPS;
            let runtime_ms = ((remaining as f64) / speed.max(1e-9)).ceil() as u64;
            self.generation += 1;
            self.running = Some(RunningJob {
                job_id,
                owner,
                customer_contact: req.customer_contact.clone(),
                work_at_start_ms: remaining,
                started_at: ctx.now,
                speed,
                rank: new_rank,
            });
            self.claim_started = Some(ctx.now);
            ctx.schedule(
                runtime_ms.max(1),
                Event::Machine {
                    node: self.id,
                    tag: MachineTimer::JobDone {
                        generation: self.generation,
                    },
                },
            );
            ctx.metrics.claims_accepted += 1;
            ctx.metrics.trace.record(
                ctx.now,
                crate::trace::TraceEvent::ClaimAccepted {
                    provider: self.spec.name.clone(),
                    job: job_id,
                },
            );
        } else if let Some(why) = resp.rejection {
            ctx.metrics.claim_rejected(why);
            ctx.metrics.trace.record(
                ctx.now,
                crate::trace::TraceEvent::ClaimRejected {
                    provider: self.spec.name.clone(),
                    why: why.to_string(),
                },
            );
        }
        ctx.send_to_contact(&reply_to, SimMsg::Proto(Message::ClaimReply(resp)));
        if self.push_on_change {
            // State changed (or a customer needs fresh info): re-advertise.
            self.advertise(ctx);
        }
    }

    /// The running job finished: notify the customer and free the slot.
    fn complete(&mut self, ctx: &mut Ctx<'_>) {
        let Some(run) = self.running.clone() else {
            return;
        };
        ctx.metrics.trace.record(
            ctx.now,
            crate::trace::TraceEvent::JobFinished {
                provider: self.spec.name.clone(),
                job: run.job_id,
            },
        );
        ctx.send_to_contact(
            &run.customer_contact,
            SimMsg::JobFinished { job_id: run.job_id },
        );
        self.finish_claim(ctx);
        if self.push_on_change {
            self.advertise(ctx);
        }
    }

    /// Vacate the running job prematurely, reporting completed work.
    fn vacate(&mut self, ctx: &mut Ctx<'_>) {
        let Some(run) = self.running.clone() else {
            return;
        };
        ctx.metrics.trace.record(
            ctx.now,
            crate::trace::TraceEvent::Vacated {
                provider: self.spec.name.clone(),
                job: run.job_id,
                by_owner: self.owner_present,
            },
        );
        let elapsed = ctx.now.saturating_sub(run.started_at);
        let done_ms = (((elapsed as f64) * run.speed) as u64).min(run.work_at_start_ms);
        ctx.send_to_contact(
            &run.customer_contact,
            SimMsg::Vacated {
                job_id: run.job_id,
                done_ms,
            },
        );
        self.finish_claim(ctx);
    }

    /// Common claim-teardown: usage accounting and state reset.
    fn finish_claim(&mut self, ctx: &mut Ctx<'_>) {
        if let (Some(run), Some(started)) = (self.running.take(), self.claim_started.take()) {
            let used = ctx.now.saturating_sub(started);
            ctx.metrics.busy_ms += used;
            ctx.send_to_node(
                self.manager,
                SimMsg::UsageReport {
                    user: run.owner,
                    used_ms: used,
                },
            );
        }
        self.generation += 1;
        self.claim.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OwnerActivity;
    use classad::symmetric_match;

    fn spec() -> MachineSpec {
        MachineSpec {
            name: "leonardo.cs.wisc.edu".into(),
            arch: "INTEL".into(),
            opsys: "SOLARIS251".into(),
            mips: 104,
            memory: 64,
            disk: 323_496,
            activity: OwnerActivity::default(),
        }
    }

    fn agent(policy: MachinePolicy) -> MachineAgent {
        MachineAgent::new(0, 99, spec(), policy, 60_000, 7)
    }

    #[test]
    fn ad_reflects_state() {
        let a = agent(MachinePolicy::Always);
        let ad = a.build_ad(5_000);
        assert_eq!(ad.get_string("State"), Some("Unclaimed"));
        assert_eq!(ad.get_string("Arch"), Some("INTEL"));
        assert_eq!(ad.get_int("Mips"), Some(104));
        assert!(ad.contains("Constraint"));
        assert!(ad.contains("Rank"));
    }

    #[test]
    fn keyboard_idle_tracks_owner() {
        let mut a = agent(MachinePolicy::OwnerIdle {
            min_keyboard_idle_s: 900,
        });
        a.owner_present = true;
        assert_eq!(a.keyboard_idle_s(50_000), 0);
        a.owner_present = false;
        a.owner_left_at = 10_000;
        assert_eq!(a.keyboard_idle_s(50_000), 40);
    }

    #[test]
    fn owner_idle_policy_gates_matching() {
        let mut a = agent(MachinePolicy::OwnerIdle {
            min_keyboard_idle_s: 900,
        });
        let job = classad::parse_classad(
            r#"[ Name = "j"; Type = "Job"; Owner = "u";
                 Constraint = other.Type == "Machine" ]"#,
        )
        .unwrap();
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();
        // Recently departed owner: idle too short, no match.
        a.owner_present = false;
        a.owner_left_at = 0;
        let ad = a.build_ad(60_000); // 60s idle < 900s
        assert!(!symmetric_match(&ad, &job, &policy, &conv));
        // Long gone: matches.
        let ad = a.build_ad(2_000_000); // 2000s idle
        assert!(symmetric_match(&ad, &job, &policy, &conv));
    }

    #[test]
    fn figure1_policy_round_trips_through_agent() {
        let a = agent(MachinePolicy::Figure1 {
            research: vec![
                "raman".into(),
                "miron".into(),
                "solomon".into(),
                "jbasney".into(),
            ],
            friends: vec!["tannenba".into(), "wright".into()],
            untrusted: vec!["rival".into(), "riffraff".into()],
        });
        let ad = a.build_ad(36_107_000); // 10:01:47 into the day
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();
        let mk_job = |owner: &str| {
            classad::parse_classad(&format!(
                r#"[ Name = "j"; Type = "Job"; Owner = "{owner}";
                     Constraint = other.Type == "Machine" ]"#
            ))
            .unwrap()
        };
        // Research member always accepted.
        assert!(symmetric_match(&ad, &mk_job("raman"), &policy, &conv));
        // Untrusted never.
        assert!(!symmetric_match(&ad, &mk_job("riffraff"), &policy, &conv));
        // A friend when the machine is idle (keyboard idle since t=0).
        assert!(symmetric_match(&ad, &mk_job("tannenba"), &policy, &conv));
        // A stranger during the workday: rejected.
        assert!(!symmetric_match(&ad, &mk_job("stranger"), &policy, &conv));
        // Machine's rank of a research job is 10.
        assert_eq!(rank_of(&ad, &mk_job("raman"), &policy, &conv), 10.0);
        assert_eq!(rank_of(&ad, &mk_job("tannenba"), &policy, &conv), 1.0);
    }

    #[test]
    fn untrusted_rejected_even_at_night() {
        // The prose-faithful reading: untrusted users are never served,
        // including at night when strangers are.
        let a = agent(MachinePolicy::Figure1 {
            research: vec!["raman".into()],
            friends: vec![],
            untrusted: vec!["riffraff".into()],
        });
        let ad = a.build_ad(23 * 3_600 * 1000);
        let job = classad::parse_classad(
            r#"[ Name = "j"; Type = "Job"; Owner = "riffraff";
                 Constraint = other.Type == "Machine" ]"#,
        )
        .unwrap();
        assert!(!symmetric_match(
            &ad,
            &job,
            &EvalPolicy::default(),
            &MatchConventions::default()
        ));
    }

    #[test]
    fn stranger_accepted_at_night() {
        let a = agent(MachinePolicy::Figure1 {
            research: vec!["raman".into()],
            friends: vec![],
            untrusted: vec![],
        });
        // 23:00 into the day.
        let ad = a.build_ad(23 * 3_600 * 1000);
        let job = classad::parse_classad(
            r#"[ Name = "j"; Type = "Job"; Owner = "stranger";
                 Constraint = other.Type == "Machine" ]"#,
        )
        .unwrap();
        assert!(symmetric_match(
            &ad,
            &job,
            &EvalPolicy::default(),
            &MatchConventions::default()
        ));
    }

    #[test]
    fn claimed_ad_carries_preemption_info() {
        let mut a = agent(MachinePolicy::Always);
        a.running = Some(RunningJob {
            job_id: 1,
            owner: "alice".into(),
            customer_contact: "ca:1".into(),
            work_at_start_ms: 1000,
            started_at: 0,
            speed: 1.0,
            rank: 7.5,
        });
        let ad = a.build_ad(100);
        assert_eq!(ad.get_string("State"), Some("Claimed"));
        assert_eq!(ad.get_string("RemoteOwner"), Some("alice"));
        let policy = EvalPolicy::default();
        assert_eq!(ad.eval_attr("CurrentRank", &policy).as_f64(), Some(7.5));
    }
}
