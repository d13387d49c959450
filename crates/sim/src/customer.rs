//! The Customer Agent (CA): maintains one user's queue of submitted jobs
//! (paper §4), advertises idle jobs as request classads, and runs the
//! customer side of the claiming protocol.

use crate::ctx::Ctx;

use crate::metrics::JobRecord;
use crate::types::{CustomerTimer, Event, Job, JobState, NodeId, SimMsg};
use crate::workload::JobArrival;
use matchmaker::protocol::{Advertisement, ClaimRequest, EntityKind, Message};
use std::collections::VecDeque;

/// A simulated Customer Agent holding one user's job queue.
#[derive(Debug)]
pub struct CustomerAgent {
    /// This node's id.
    pub id: NodeId,
    /// The manager node to advertise to.
    pub manager: NodeId,
    /// The user this agent represents.
    pub user: String,
    /// Contact address (directory key).
    pub contact: String,
    /// Advertisement period, ms.
    pub advertise_period_ms: u64,
    /// The job queue (all states).
    pub jobs: Vec<Job>,
    arrivals: VecDeque<JobArrival>,
    next_local_id: u64,
    /// Global id base so job ids are unique across agents.
    id_base: u64,
}

impl CustomerAgent {
    /// Create an agent for `user` with a pre-generated arrival sequence.
    pub fn new(
        id: NodeId,
        manager: NodeId,
        user: &str,
        arrivals: Vec<JobArrival>,
        advertise_period_ms: u64,
        id_base: u64,
    ) -> Self {
        CustomerAgent {
            id,
            manager,
            user: user.to_string(),
            contact: format!("{user}-ca:1"),
            advertise_period_ms,
            jobs: Vec::new(),
            arrivals: arrivals.into(),
            next_local_id: 0,
            id_base,
        }
    }

    /// Jobs not yet completed.
    pub fn incomplete_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| !matches!(j.state, JobState::Completed { .. }))
            .count()
    }

    /// All jobs done and no arrivals pending?
    pub fn is_drained(&self) -> bool {
        self.arrivals.is_empty() && self.incomplete_jobs() == 0
    }

    /// Initialize: schedule the first arrival and the advertising timer.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(first) = self.arrivals.front() {
            let delay = first.at.saturating_sub(ctx.now);
            ctx.schedule(
                delay,
                Event::Customer {
                    node: self.id,
                    tag: CustomerTimer::JobArrival,
                },
            );
        }
        ctx.schedule(
            self.advertise_period_ms,
            Event::Customer {
                node: self.id,
                tag: CustomerTimer::Advertise,
            },
        );
    }

    fn submit_due_arrivals(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(a) = self.arrivals.front() {
            if a.at > ctx.now {
                break;
            }
            let a = self.arrivals.pop_front().unwrap();
            let local = self.next_local_id;
            self.next_local_id += 1;
            let job = Job {
                id: self.id_base + local,
                name: format!("{}.{}", self.user, local),
                owner: self.user.clone(),
                submitted_at: ctx.now,
                total_work_ms: a.work_ms,
                remaining_ms: a.work_ms,
                memory: a.memory,
                want_checkpoint: a.want_checkpoint,
                extra_constraint: a.extra_constraint,
                rank: a.rank,
                state: JobState::Idle,
                vacations: 0,
                wasted_ms: 0,
                first_start: None,
            };
            ctx.metrics.jobs_submitted += 1;
            self.jobs.push(job);
        }
        // Advertise new work right away rather than waiting out the period.
        self.advertise_idle(ctx);
        if let Some(next) = self.arrivals.front() {
            let delay = next.at.saturating_sub(ctx.now).max(1);
            ctx.schedule(
                delay,
                Event::Customer {
                    node: self.id,
                    tag: CustomerTimer::JobArrival,
                },
            );
        }
    }

    fn advertise_idle(&mut self, ctx: &mut Ctx<'_>) {
        let lease = ctx.now + self.advertise_period_ms * 2 + self.advertise_period_ms / 2;
        let mut to_send = Vec::new();
        for job in &self.jobs {
            if matches!(job.state, JobState::Idle) {
                to_send.push(Advertisement {
                    kind: EntityKind::Customer,
                    ad: job.to_ad(),
                    contact: self.contact.clone(),
                    ticket: None,
                    expires_at: lease,
                });
            }
        }
        for adv in to_send {
            ctx.send_to_node(self.manager, SimMsg::Proto(Message::Advertise(adv)));
        }
    }

    /// Handle a timer event.
    pub fn on_timer(&mut self, tag: CustomerTimer, ctx: &mut Ctx<'_>) {
        match tag {
            CustomerTimer::JobArrival => self.submit_due_arrivals(ctx),
            CustomerTimer::Advertise => {
                self.advertise_idle(ctx);
                ctx.schedule(
                    self.advertise_period_ms,
                    Event::Customer {
                        node: self.id,
                        tag: CustomerTimer::Advertise,
                    },
                );
            }
        }
    }

    fn job_by_name_mut(&mut self, name: &str) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.name == name)
    }

    fn job_by_id_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Proto(Message::Notify(n)) => {
                // Which job was matched? The matchmaker sends back our ad.
                let Some(name) = n.own_ad.get_string("Name").map(str::to_string) else {
                    return;
                };
                let contact = n.peer_contact.clone();
                let Some(ticket) = n.ticket else { return };
                let Some(job) = self.job_by_name_mut(&name) else {
                    return;
                };
                if !matches!(job.state, JobState::Idle) {
                    return; // stale notification; job moved on
                }
                job.state = JobState::Claiming {
                    provider: contact.clone(),
                };
                // Claim with the job's *current* ad (weak consistency:
                // RemainingWork may differ from the advertised copy).
                let req = ClaimRequest {
                    ticket,
                    customer_ad: job.to_ad(),
                    customer_contact: self.contact.clone(),
                };
                ctx.metrics.claim_attempts += 1;
                ctx.send_to_contact(&contact, SimMsg::Proto(Message::Claim(req)));
            }
            SimMsg::Proto(Message::ClaimReply(resp)) => {
                // Find the job that was claiming. (One claim in flight per
                // provider contact; the reply carries the provider's ad.)
                let provider = resp
                    .provider_ad
                    .get_string("Name")
                    .unwrap_or_default()
                    .to_string();
                let accepted = resp.accepted;
                let now = ctx.now;
                // Contacts are `name:port`; match on the name component
                // exactly ("m1" must not claim-correlate with "m10:9614").
                let provider_prefix = format!("{provider}:");
                let job = self.jobs.iter_mut().find(|j| {
                    matches!(&j.state, JobState::Claiming { provider: p }
                             if *p == provider
                                || p.starts_with(&provider_prefix)
                                || provider.is_empty())
                });
                let Some(job) = job else { return };
                if accepted {
                    job.first_start.get_or_insert(now);
                    let provider_contact = match &job.state {
                        JobState::Claiming { provider } => provider.clone(),
                        _ => unreachable!(),
                    };
                    job.state = JobState::Running {
                        provider: provider_contact,
                        since: now,
                    };
                } else {
                    job.state = JobState::Idle;
                }
            }
            SimMsg::JobFinished { job_id } => {
                let now = ctx.now;
                let Some(job) = self.job_by_id_mut(job_id) else {
                    return;
                };
                job.remaining_ms = 0;
                job.state = JobState::Completed { at: now };
                let rec = JobRecord {
                    id: job.id,
                    owner: job.owner.clone(),
                    submitted_at: job.submitted_at,
                    first_start: job.first_start,
                    completed_at: now,
                    work_ms: job.total_work_ms,
                    vacations: job.vacations,
                    wasted_ms: job.wasted_ms,
                };
                ctx.metrics.job_completed(rec);
            }
            SimMsg::Vacated { job_id, done_ms } => {
                let Some(job) = self.job_by_id_mut(job_id) else {
                    return;
                };
                job.vacations += 1;
                if job.want_checkpoint {
                    // Progress is preserved.
                    job.remaining_ms = job.remaining_ms.saturating_sub(done_ms);
                    if job.remaining_ms == 0 {
                        // Edge: vacated exactly at completion; count as a
                        // restartable sliver rather than completing here.
                        job.remaining_ms = 1;
                    }
                } else {
                    // Restart from scratch: everything done is wasted.
                    job.wasted_ms += done_ms;
                    job.remaining_ms = job.total_work_ms;
                }
                job.state = JobState::Idle;
                // Seek a new machine right away.
                self.advertise_idle(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventQueue;
    use crate::metrics::Metrics;
    use crate::network::NetworkModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    struct Harness {
        queue: EventQueue<Event>,
        rng: SmallRng,
        metrics: Metrics,
        directory: HashMap<String, NodeId>,
        network: NetworkModel,
    }

    impl Harness {
        fn new() -> Self {
            let mut directory = HashMap::new();
            directory.insert("m:9614".to_string(), 5);
            Harness {
                queue: EventQueue::new(),
                rng: SmallRng::seed_from_u64(1),
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
    }

    fn arrival(work: u64) -> JobArrival {
        JobArrival {
            at: 0,
            work_ms: work,
            memory: 31,
            extra_constraint: String::new(),
            want_checkpoint: true,
            rank: "other.Mips".into(),
        }
    }

    fn agent_with_one_job(h: &mut Harness) -> CustomerAgent {
        let mut ca = CustomerAgent::new(1, 0, "alice", vec![arrival(10_000)], 60_000, 1000);
        let mut ctx = h.ctx();
        ca.start(&mut ctx);
        ca.on_timer(CustomerTimer::JobArrival, &mut ctx);
        ca
    }

    fn notify_for(ca: &CustomerAgent) -> SimMsg {
        SimMsg::Proto(Message::Notify(matchmaker::protocol::MatchNotification {
            own_ad: ca.jobs[0].to_ad(),
            peer_ad: classad::parse_classad(r#"[ Name = "m"; Type = "Machine" ]"#).unwrap(),
            peer_contact: "m:9614".into(),
            ticket: Some(matchmaker::ticket::Ticket::from_raw(9)),
        }))
    }

    #[test]
    fn arrival_submits_and_advertises() {
        let mut h = Harness::new();
        let ca = agent_with_one_job(&mut h);
        assert_eq!(ca.jobs.len(), 1);
        assert_eq!(ca.jobs[0].name, "alice.0");
        assert_eq!(h.metrics.jobs_submitted, 1);
        assert!(h.metrics.messages_sent >= 1, "idle job must be advertised");
        assert!(!ca.is_drained());
    }

    #[test]
    fn notification_triggers_claim() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        let n = notify_for(&ca);
        let mut ctx = h.ctx();
        ca.on_message(n, &mut ctx);
        assert!(matches!(ca.jobs[0].state, JobState::Claiming { .. }));
        assert_eq!(h.metrics.claim_attempts, 1);
    }

    #[test]
    fn stale_notification_ignored_when_running() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        ca.jobs[0].state = JobState::Running {
            provider: "x".into(),
            since: 0,
        };
        let n = notify_for(&ca);
        let mut ctx = h.ctx();
        ca.on_message(n, &mut ctx);
        assert_eq!(h.metrics.claim_attempts, 0);
        assert!(matches!(ca.jobs[0].state, JobState::Running { .. }));
    }

    #[test]
    fn accepted_reply_starts_job() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        ca.jobs[0].state = JobState::Claiming {
            provider: "m:9614".into(),
        };
        let reply = SimMsg::Proto(Message::ClaimReply(matchmaker::protocol::ClaimResponse {
            accepted: true,
            rejection: None,
            provider_ad: classad::parse_classad(r#"[ Name = "m" ]"#).unwrap(),
        }));
        let mut ctx = h.ctx();
        ca.on_message(reply, &mut ctx);
        assert!(matches!(ca.jobs[0].state, JobState::Running { .. }));
        assert!(ca.jobs[0].first_start.is_some());
    }

    #[test]
    fn rejected_reply_returns_job_to_idle() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        ca.jobs[0].state = JobState::Claiming {
            provider: "m:9614".into(),
        };
        let reply = SimMsg::Proto(Message::ClaimReply(matchmaker::protocol::ClaimResponse {
            accepted: false,
            rejection: Some(matchmaker::protocol::ClaimRejection::ConstraintFailed),
            provider_ad: classad::parse_classad(r#"[ Name = "m" ]"#).unwrap(),
        }));
        let mut ctx = h.ctx();
        ca.on_message(reply, &mut ctx);
        assert_eq!(ca.jobs[0].state, JobState::Idle);
    }

    #[test]
    fn claim_reply_correlates_on_exact_provider_name() {
        // Two claims in flight: to m1 and to m10. A reply from "m1" must
        // resolve the m1 claim, not prefix-match m10's contact.
        let mut h = Harness::new();
        let mut ca = CustomerAgent::new(
            1,
            0,
            "alice",
            vec![arrival(10_000), arrival(10_000)],
            60_000,
            1000,
        );
        {
            let mut ctx = h.ctx();
            ca.start(&mut ctx);
            ca.on_timer(CustomerTimer::JobArrival, &mut ctx);
        }
        ca.jobs[0].state = JobState::Claiming {
            provider: "m10:9614".into(),
        };
        ca.jobs[1].state = JobState::Claiming {
            provider: "m1:9614".into(),
        };
        let reply = SimMsg::Proto(Message::ClaimReply(matchmaker::protocol::ClaimResponse {
            accepted: true,
            rejection: None,
            provider_ad: classad::parse_classad(r#"[ Name = "m1"; Type = "Machine" ]"#).unwrap(),
        }));
        let mut ctx = h.ctx();
        ca.on_message(reply, &mut ctx);
        assert!(
            matches!(ca.jobs[1].state, JobState::Running { .. }),
            "m1's reply must start the m1 job"
        );
        assert!(
            matches!(ca.jobs[0].state, JobState::Claiming { .. }),
            "m10's claim is still pending"
        );
    }

    #[test]
    fn finish_records_completion() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        let id = ca.jobs[0].id;
        ca.jobs[0].state = JobState::Running {
            provider: "m:9614".into(),
            since: 0,
        };
        ca.jobs[0].first_start = Some(0);
        let mut ctx = h.ctx();
        ca.on_message(SimMsg::JobFinished { job_id: id }, &mut ctx);
        assert!(matches!(ca.jobs[0].state, JobState::Completed { .. }));
        assert_eq!(h.metrics.jobs_completed, 1);
        assert!(ca.is_drained());
    }

    #[test]
    fn vacate_with_checkpoint_keeps_progress() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        let id = ca.jobs[0].id;
        ca.jobs[0].state = JobState::Running {
            provider: "m:9614".into(),
            since: 0,
        };
        let mut ctx = h.ctx();
        ca.on_message(
            SimMsg::Vacated {
                job_id: id,
                done_ms: 4_000,
            },
            &mut ctx,
        );
        assert_eq!(ca.jobs[0].remaining_ms, 6_000);
        assert_eq!(ca.jobs[0].wasted_ms, 0);
        assert_eq!(ca.jobs[0].vacations, 1);
        assert_eq!(ca.jobs[0].state, JobState::Idle);
    }

    #[test]
    fn vacate_without_checkpoint_restarts() {
        let mut h = Harness::new();
        let mut ca = CustomerAgent::new(
            1,
            0,
            "bob",
            vec![JobArrival {
                want_checkpoint: false,
                ..arrival(10_000)
            }],
            60_000,
            0,
        );
        {
            let mut ctx = h.ctx();
            ca.start(&mut ctx);
            ca.on_timer(CustomerTimer::JobArrival, &mut ctx);
        }
        let id = ca.jobs[0].id;
        ca.jobs[0].state = JobState::Running {
            provider: "m:9614".into(),
            since: 0,
        };
        let mut ctx = h.ctx();
        ca.on_message(
            SimMsg::Vacated {
                job_id: id,
                done_ms: 4_000,
            },
            &mut ctx,
        );
        assert_eq!(ca.jobs[0].remaining_ms, 10_000, "restart from scratch");
        assert_eq!(ca.jobs[0].wasted_ms, 4_000);
    }

    #[test]
    fn job_ids_offset_by_base() {
        let mut h = Harness::new();
        let ca = agent_with_one_job(&mut h);
        assert_eq!(ca.jobs[0].id, 1000);
    }
}
