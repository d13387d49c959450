//! The Resource-owner Agent (RA): represents one workstation and enforces
//! its owner's usage policy (paper §4).
//!
//! "An RA periodically probes the resource to determine its current state,
//! and encapsulates this information in a classad along with the owner's
//! usage policy." The protocol decisions — the advertised ticket, the
//! claim verdict (ticket + constraint re-verification, preemption by
//! rank) and release — are the live resource agent's, from
//! [`ProviderCore`] with [`Preemption::HigherRank`]: while claimed the
//! machine keeps advertising with `State = "Claimed"` and a `CurrentRank`,
//! staying "interested in hearing from higher priority customers". Around
//! the core the agent models its environment: the owner's presence, jobs
//! running at a speed proportional to `Mips`, vacating them when the owner
//! returns, and usage reports.

use crate::ctx::Ctx;
use crate::engine::{SimTime, MS_PER_SEC};
use crate::trace::TraceEvent;
use crate::types::{Event, MachineTimer, NodeId, SimMsg};
use crate::workload::MachineSpec;
use classad::ClassAd;
use matchmaker::agent::{Preemption, ProviderCore};
use matchmaker::claim::ClaimState;
use matchmaker::protocol::{ClaimRequest, Message};
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

/// The job a claim runs; who holds the claim, and since when, is the
/// core's [`ClaimState`].
#[derive(Debug, Clone)]
struct RunningJob {
    job_id: u64,
    /// Reference-speed work remaining when the claim started.
    work_ms: u64,
}

/// How a running job stopped, and so what its customer hears.
enum Stop {
    /// The customer released the claim: nothing.
    Released,
    /// `JobFinished`.
    Finished,
    /// `Vacated`, with the work done.
    Vacated,
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
    core: ProviderCore,
    /// The claimant's job, running while the core holds its claim.
    running: Option<RunningJob>,
    /// Invalidates stale `JobDone` timers after vacate/complete.
    generation: u64,
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
            core: ProviderCore::new(ticket_seed, Preemption::HigherRank),
            running: None,
            generation: 0,
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
        if let ClaimState::Claimed { owner, .. } = self.core.state() {
            src.push_str(&format!(
                "RemoteOwner = \"{owner}\";\nCurrentRank = {:.6};\n",
                self.core.claimant_rank()
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
        // Lease slightly over two periods: one missed refresh is
        // tolerated, two are not.
        let expires_at = ctx.now + self.advertise_period_ms * 2 + self.advertise_period_ms / 2;
        let ad = self.build_ad(ctx.now);
        if let Some(adv) = self.core.advertisement(ad, &self.contact, expires_at) {
            ctx.send_to_node(self.manager, SimMsg::Proto(Message::Advertise(adv)));
        }
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
                        if let Some(claim) = self.core.release() {
                            self.stop_job(claim, Stop::Vacated, ctx);
                        }
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
                if let Some(claim) = self.core.release() {
                    self.stop_job(claim, Stop::Finished, ctx);
                }
                if self.push_on_change {
                    self.advertise(ctx);
                }
            }
        }
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Claim { job, req } => self.on_claim(job, req, ctx),
            SimMsg::Proto(Message::Release { .. }) if self.running.is_some() => {
                // Customer relinquished: account the usage, free the slot.
                if let Some(claim) = self.core.release() {
                    self.stop_job(claim, Stop::Released, ctx);
                }
                if self.push_on_change {
                    self.advertise(ctx);
                }
            }
            // RAs ignore other traffic (e.g. their own match notification —
            // in this model the customer drives the claim).
            _ => {}
        }
    }

    fn on_claim(&mut self, job: String, req: ClaimRequest, ctx: &mut Ctx<'_>) {
        let current_ad = self.build_ad(ctx.now);
        let (resp, displaced) = self.core.claim(&req, &current_ad, ctx.now);
        if resp.accepted {
            // A claimant this machine ranks higher displaced the running
            // job: vacate it (the core already holds the new claim).
            if let Some(displaced) = displaced {
                ctx.metrics.preempted_by_rank += 1;
                self.stop_job(displaced, Stop::Vacated, ctx);
            }
            // Execution parameters come from the *current* customer ad.
            let job_id = req.customer_ad.get_int("JobId").unwrap_or(0) as u64;
            let work_ms = req.customer_ad.get_int("RemainingWork").unwrap_or(0).max(0) as u64;
            let runtime_ms = ((work_ms as f64) / self.speed().max(1e-9)).ceil() as u64;
            self.generation += 1;
            self.running = Some(RunningJob { job_id, work_ms });
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
        ctx.send_to_contact(&req.customer_contact, SimMsg::ClaimReply { job, resp });
        if self.push_on_change {
            // State changed (or a customer needs fresh info): re-advertise.
            self.advertise(ctx);
        }
    }

    /// Execution speed relative to the reference machine.
    fn speed(&self) -> f64 {
        self.spec.mips as f64 / REFERENCE_MIPS
    }

    /// The running job stopped under `claim`: tell its customer, report
    /// its usage to the manager, and invalidate its `JobDone` timer.
    fn stop_job(&mut self, claim: ClaimState, how: Stop, ctx: &mut Ctx<'_>) {
        let (
            Some(run),
            ClaimState::Claimed {
                owner,
                contact,
                since,
            },
        ) = (self.running.take(), claim)
        else {
            return;
        };
        self.generation += 1;
        let (provider, job) = (self.spec.name.clone(), run.job_id);
        let used = ctx.now.saturating_sub(since);
        let notice = match how {
            Stop::Released => None,
            Stop::Finished => Some((
                TraceEvent::JobFinished { provider, job },
                SimMsg::JobFinished { job_id: job },
            )),
            Stop::Vacated => {
                let done_ms = ((used as f64 * self.speed()) as u64).min(run.work_ms);
                let by_owner = self.owner_present;
                let event = TraceEvent::Vacated {
                    provider,
                    job,
                    by_owner,
                };
                Some((
                    event,
                    SimMsg::Vacated {
                        job_id: job,
                        done_ms,
                    },
                ))
            }
        };
        if let Some((event, msg)) = notice {
            ctx.metrics.trace.record(ctx.now, event);
            ctx.send_to_contact(&contact, msg);
        }
        ctx.metrics.busy_ms += used;
        ctx.send_to_node(
            self.manager,
            SimMsg::UsageReport {
                user: owner,
                used_ms: used,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventQueue;
    use crate::metrics::Metrics;
    use crate::network::NetworkModel;
    use crate::workload::OwnerActivity;
    use classad::{rank_of, symmetric_match, EvalPolicy, MatchConventions};
    use matchmaker::protocol::{Advertisement, ClaimRejection, ClaimResponse};
    use matchmaker::ticket::Ticket;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// A network of ideal links: what the machine sends stays in `queue`.
    struct H {
        queue: EventQueue<Event>,
        rng: SmallRng,
        metrics: Metrics,
        directory: HashMap<String, NodeId>,
        network: NetworkModel,
    }

    impl H {
        fn new() -> Self {
            let directory = [("ca:1", 9), ("ca:2", 10)]
                .into_iter()
                .map(|(c, n)| (c.to_string(), n))
                .collect();
            H {
                queue: EventQueue::new(),
                rng: SmallRng::seed_from_u64(3),
                metrics: Metrics::default(),
                directory,
                network: NetworkModel::ideal(),
            }
        }

        fn ctx(&mut self) -> Ctx<'_> {
            Ctx {
                now: self.queue.now(),
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                directory: &self.directory,
                queue: &mut self.queue,
                network: &self.network,
            }
        }

        /// Move the clock to `at`.
        fn advance(&mut self, at: SimTime) {
            self.queue.schedule_at(
                at,
                Event::Manager {
                    node: 99,
                    tag: crate::types::ManagerTimer::Negotiate,
                },
            );
            while self.queue.now() < at {
                self.queue.pop();
            }
        }

        /// Deliver everything sent so far (timers are dropped).
        fn sent(&mut self) -> Vec<(NodeId, SimMsg)> {
            let mut out = Vec::new();
            while let Some((_, ev)) = self.queue.pop() {
                if let Event::Deliver { to, msg } = ev {
                    out.push((to, msg));
                }
            }
            out
        }

        fn ads(&mut self) -> Vec<Advertisement> {
            self.sent()
                .into_iter()
                .filter_map(|(_, m)| match m {
                    SimMsg::Proto(Message::Advertise(a)) => Some(a),
                    _ => None,
                })
                .collect()
        }

        fn replies(&mut self) -> Vec<(String, ClaimResponse)> {
            self.sent()
                .into_iter()
                .filter_map(|(_, m)| match m {
                    SimMsg::ClaimReply { job, resp } => Some((job, resp)),
                    _ => None,
                })
                .collect()
        }
    }

    fn claim(m: &mut MachineAgent, h: &mut H, ticket: Ticket, owner: &str, contact: &str) {
        let req = matchmaker::agent::claim_request(
            ticket,
            classad::parse_classad(&format!(
                r#"[ Name = "{owner}.0"; Type = "Job"; Owner = "{owner}"; JobId = 1;
                     RemainingWork = 600000; Constraint = other.Type == "Machine" ]"#
            ))
            .unwrap(),
            contact,
        );
        let job = format!("{owner}.0");
        m.on_message(SimMsg::Claim { job, req }, &mut h.ctx());
    }

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

    fn figure1() -> MachinePolicy {
        MachinePolicy::Figure1 {
            research: vec!["raman".into()],
            friends: vec!["tannenba".into()],
            untrusted: vec![],
        }
    }

    #[test]
    fn claimed_ad_carries_preemption_info() {
        let mut h = H::new();
        let mut a = agent(figure1());
        a.advertise(&mut h.ctx());
        let ticket = h.ads()[0].ticket.unwrap();
        claim(&mut a, &mut h, ticket, "raman", "ca:1");
        assert!(a.is_busy());
        let ad = a.build_ad(100);
        assert_eq!(ad.get_string("State"), Some("Claimed"));
        assert_eq!(ad.get_string("RemoteOwner"), Some("raman"));
        let policy = EvalPolicy::default();
        assert_eq!(ad.eval_attr("CurrentRank", &policy).as_f64(), Some(10.0));
    }

    /// The simulated twin of the live resource agent's
    /// `stale_state_rejects_claim_and_ticket_survives_renewal`: the
    /// machine refreshes its ad between the match and the claim, and the
    /// claim on the matched ad's ticket is accepted.
    #[test]
    fn ticket_survives_a_refresh_between_match_and_claim() {
        let mut h = H::new();
        let mut a = agent(MachinePolicy::Always);
        a.on_timer(MachineTimer::Advertise, &mut h.ctx());
        let matched = h.ads().remove(0);
        a.on_timer(MachineTimer::Advertise, &mut h.ctx());
        let refreshed = h.ads().remove(0);
        assert_eq!(
            matched.ticket, refreshed.ticket,
            "a refresh must not rotate the ticket"
        );
        claim(&mut a, &mut h, matched.ticket.unwrap(), "alice", "ca:1");
        let replies = h.replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(
            replies[0].0, "alice.0",
            "the reply names the job that dialed"
        );
        assert!(replies[0].1.accepted, "{:?}", replies[0].1.rejection);
        assert!(a.is_busy());
        assert_eq!(h.metrics.claims_accepted, 1);
    }

    #[test]
    fn stale_state_rejects_the_claim_and_the_ticket_survives() {
        let mut h = H::new();
        let mut a = agent(MachinePolicy::OwnerIdle {
            min_keyboard_idle_s: 60,
        });
        a.push_on_change = false;
        h.advance(600_000);
        a.advertise(&mut h.ctx());
        let ticket = h.ads()[0].ticket.unwrap();
        // The owner comes back after the ad went out.
        a.on_timer(MachineTimer::OwnerToggle, &mut h.ctx());
        assert!(a.owner_present());
        claim(&mut a, &mut h, ticket, "alice", "ca:1");
        let replies = h.replies();
        assert_eq!(
            replies[0].1.rejection,
            Some(ClaimRejection::ConstraintFailed)
        );
        assert_eq!(replies[0].1.provider_ad.get_int("KeyboardIdle"), Some(0));
        assert!(!a.is_busy());
        a.advertise(&mut h.ctx());
        assert_eq!(h.ads()[0].ticket, Some(ticket));
    }

    #[test]
    fn a_higher_ranked_claim_preempts_on_the_claimed_ad_ticket() {
        let mut h = H::new();
        let mut a = agent(figure1());
        // An hour after the owner left: friends are welcome.
        h.advance(3_600_000);
        a.advertise(&mut h.ctx());
        let first = h.ads()[0].ticket.unwrap();
        claim(&mut a, &mut h, first, "tannenba", "ca:1");
        // While claimed the machine keeps advertising, on a fresh ticket.
        let claimed_ad = h.ads().remove(0);
        assert_eq!(claimed_ad.ad.get_string("State"), Some("Claimed"));
        let second = claimed_ad.ticket.unwrap();
        assert_ne!(second, first);
        claim(&mut a, &mut h, second, "raman", "ca:2");
        let sent = h.sent();
        assert!(
            sent.iter()
                .any(|(to, m)| *to == 9 && matches!(m, SimMsg::Vacated { job_id: 1, .. })),
            "the displaced friend is vacated: {sent:?}"
        );
        assert!(sent
            .iter()
            .any(|(to, m)| *to == 10
                && matches!(m, SimMsg::ClaimReply { resp, .. } if resp.accepted)));
        assert_eq!(h.metrics.preempted_by_rank, 1);
        assert_eq!(a.build_ad(0).get_string("RemoteOwner"), Some("raman"));
        // The displaced claimant's usage was reported to the manager.
        assert!(sent.iter().any(|(to, m)| *to == 99
            && matches!(m, SimMsg::UsageReport { user, .. } if user == "tannenba")));
    }
}
