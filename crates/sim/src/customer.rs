//! The Customer Agent (CA): maintains one user's queue of submitted jobs
//! (paper §4) — the live agent's [`JobQueue`], retrying a failed claim at
//! the next advertisement (a zero backoff that never runs out) — and
//! models each job's work around it: arrivals, completion, and vacates
//! with or without checkpoints.

use crate::ctx::Ctx;
use crate::metrics::JobRecord;
use crate::types::{CustomerTimer, Event, Job, NodeId, SimMsg};
use crate::workload::JobArrival;
use matchmaker::agent::{ClaimOutcome, JobQueue, JobStatus, QueuedJob};
use matchmaker::protocol::Message;
use matchmaker::retry::Backoff;
use std::collections::VecDeque;
use std::time::Duration;

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
    pub jobs: JobQueue,
    /// Each job's work and accounting, indexed by local job number.
    work: Vec<Job>,
    arrivals: VecDeque<JobArrival>,
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
            jobs: JobQueue::new(Backoff::unlimited(Duration::ZERO, Duration::ZERO)),
            work: Vec::new(),
            arrivals: arrivals.into(),
            id_base,
        }
    }

    /// All jobs done and no arrivals pending?
    pub fn is_drained(&self) -> bool {
        let done = |j: &QueuedJob| matches!(j.state, JobStatus::Completed { .. });
        self.arrivals.is_empty() && self.jobs.iter().all(done)
    }

    /// The work record of the job with global id `job_id`.
    fn job_mut(&mut self, job_id: u64) -> Option<&mut Job> {
        self.work
            .get_mut(job_id.checked_sub(self.id_base)? as usize)
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
            let local = self.work.len() as u64;
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
                vacations: 0,
                wasted_ms: 0,
                first_start: None,
            };
            ctx.metrics.jobs_submitted += 1;
            self.jobs.submit(job.name.clone(), job.to_ad(), ctx.now);
            self.work.push(job);
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
        let ads: Vec<_> = self
            .jobs
            .pending(ctx.now)
            .map(|j| j.advertisement(&self.contact, lease))
            .collect();
        for adv in ads {
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

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Proto(Message::Notify(n)) => match self.jobs.notify(&n, &self.contact) {
                Some((job, Some(req))) => {
                    ctx.metrics.claim_attempts += 1;
                    ctx.send_to_contact(&n.peer_contact, SimMsg::Claim { job, req });
                }
                Some((job, None)) => {
                    self.jobs.claim_result(&job, None, ctx.now);
                }
                None => {}
            },
            SimMsg::ClaimReply { job, resp } => {
                if self.jobs.claim_result(&job, Some(&resp), ctx.now) != Some(ClaimOutcome::Claimed)
                {
                    return;
                }
                let now = ctx.now;
                if let Some(w) = self.work.iter_mut().find(|w| w.name == job) {
                    w.first_start.get_or_insert(now);
                }
            }
            SimMsg::JobFinished { job_id } => {
                let now = ctx.now;
                let Some(job) = self.job_mut(job_id) else {
                    return;
                };
                job.remaining_ms = 0;
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
                let name = job.name.clone();
                self.jobs.finish(&name, now);
                ctx.metrics.job_completed(rec);
            }
            SimMsg::Vacated { job_id, done_ms } => {
                let Some(job) = self.job_mut(job_id) else {
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
                let (name, ad) = (job.name.clone(), job.to_ad());
                self.jobs.requeue(&name, ad, ctx.now);
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
    use matchmaker::protocol::{ClaimRejection, ClaimResponse, MatchNotification};
    use matchmaker::ticket::Ticket;
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
            let directory = ["m:9614", "m1:9614", "m10:9614"]
                .into_iter()
                .enumerate()
                .map(|(i, c)| (c.to_string(), 5 + i))
                .collect();
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

    fn agent_with(h: &mut Harness, arrivals: Vec<JobArrival>) -> CustomerAgent {
        let mut ca = CustomerAgent::new(1, 0, "alice", arrivals, 60_000, 1000);
        let mut ctx = h.ctx();
        ca.start(&mut ctx);
        ca.on_timer(CustomerTimer::JobArrival, &mut ctx);
        ca
    }

    fn agent_with_one_job(h: &mut Harness) -> CustomerAgent {
        agent_with(h, vec![arrival(10_000)])
    }

    fn state(ca: &CustomerAgent, job: &str) -> JobStatus {
        ca.jobs.get(job).unwrap().state.clone()
    }

    fn notify(ca: &mut CustomerAgent, h: &mut Harness, job: &str, provider: &str) {
        let n = SimMsg::Proto(Message::Notify(MatchNotification {
            own_ad: ca.jobs.get(job).unwrap().ad.clone(),
            peer_ad: classad::parse_classad(&format!(r#"[ Name = "{provider}" ]"#)).unwrap(),
            peer_contact: format!("{provider}:9614"),
            ticket: Some(Ticket::from_raw(9)),
        }));
        ca.on_message(n, &mut h.ctx());
    }

    fn reply(ca: &mut CustomerAgent, h: &mut Harness, job: &str, provider: &str, ok: bool) {
        let resp = ClaimResponse {
            accepted: ok,
            rejection: (!ok).then_some(ClaimRejection::ConstraintFailed),
            provider_ad: classad::parse_classad(&format!(r#"[ Name = "{provider}" ]"#)).unwrap(),
        };
        let job = job.to_string();
        ca.on_message(SimMsg::ClaimReply { job, resp }, &mut h.ctx());
    }

    fn run(ca: &mut CustomerAgent, h: &mut Harness) {
        notify(ca, h, "alice.0", "m");
        reply(ca, h, "alice.0", "m", true);
    }

    #[test]
    fn arrival_submits_and_advertises() {
        let mut h = Harness::new();
        let ca = agent_with_one_job(&mut h);
        assert_eq!(ca.jobs.iter().count(), 1);
        assert_eq!(ca.jobs.iter().next().unwrap().name, "alice.0");
        assert_eq!(h.metrics.jobs_submitted, 1);
        assert!(h.metrics.messages_sent >= 1, "idle job must be advertised");
        assert!(!ca.is_drained());
    }

    #[test]
    fn notification_triggers_claim() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        notify(&mut ca, &mut h, "alice.0", "m");
        assert!(matches!(state(&ca, "alice.0"), JobStatus::Claiming { .. }));
        assert_eq!(h.metrics.claim_attempts, 1);
    }

    #[test]
    fn stale_notification_ignored_when_running() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        run(&mut ca, &mut h);
        notify(&mut ca, &mut h, "alice.0", "m");
        assert_eq!(h.metrics.claim_attempts, 1);
        assert!(matches!(state(&ca, "alice.0"), JobStatus::Claimed { .. }));
    }

    #[test]
    fn accepted_reply_starts_job() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        run(&mut ca, &mut h);
        assert_eq!(
            state(&ca, "alice.0"),
            JobStatus::Claimed {
                provider_contact: "m:9614".into(),
                provider_name: "m".into()
            }
        );
        assert!(ca.job_mut(1000).unwrap().first_start.is_some());
    }

    #[test]
    fn rejected_reply_returns_job_to_idle() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        notify(&mut ca, &mut h, "alice.0", "m");
        reply(&mut ca, &mut h, "alice.0", "m", false);
        assert_eq!(state(&ca, "alice.0"), JobStatus::Idle);
        assert_eq!(
            ca.jobs.pending(h.queue.now()).count(),
            1,
            "re-advertised at the next advertisement"
        );
    }

    #[test]
    fn claim_reply_correlates_on_the_job_that_dialed() {
        // Two claims in flight: to m10 and to m1. The reply to the job
        // that dialed m1 resolves that job alone.
        let mut h = Harness::new();
        let mut ca = agent_with(&mut h, vec![arrival(10_000), arrival(10_000)]);
        notify(&mut ca, &mut h, "alice.0", "m10");
        notify(&mut ca, &mut h, "alice.1", "m1");
        reply(&mut ca, &mut h, "alice.1", "m1", true);
        assert!(
            matches!(state(&ca, "alice.1"), JobStatus::Claimed { provider_contact, .. } if provider_contact == "m1:9614"),
            "m1's reply must start the m1 job"
        );
        assert!(
            matches!(state(&ca, "alice.0"), JobStatus::Claiming { .. }),
            "m10's claim is still pending"
        );
    }

    #[test]
    fn finish_records_completion() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        run(&mut ca, &mut h);
        ca.on_message(SimMsg::JobFinished { job_id: 1000 }, &mut h.ctx());
        assert!(matches!(state(&ca, "alice.0"), JobStatus::Completed { .. }));
        assert_eq!(h.metrics.jobs_completed, 1);
        assert!(ca.is_drained());
    }

    #[test]
    fn vacate_with_checkpoint_keeps_progress() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        run(&mut ca, &mut h);
        ca.on_message(
            SimMsg::Vacated {
                job_id: 1000,
                done_ms: 4_000,
            },
            &mut h.ctx(),
        );
        let job = ca.job_mut(1000).unwrap();
        assert_eq!(job.remaining_ms, 6_000);
        assert_eq!(job.wasted_ms, 0);
        assert_eq!(job.vacations, 1);
        assert_eq!(state(&ca, "alice.0"), JobStatus::Idle);
        assert_eq!(
            ca.jobs.get("alice.0").unwrap().ad.get_int("RemainingWork"),
            Some(6_000),
            "the requeued job advertises what is left"
        );
    }

    #[test]
    fn vacate_without_checkpoint_restarts() {
        let mut h = Harness::new();
        let mut ca = agent_with(
            &mut h,
            vec![JobArrival {
                want_checkpoint: false,
                ..arrival(10_000)
            }],
        );
        run(&mut ca, &mut h);
        ca.on_message(
            SimMsg::Vacated {
                job_id: 1000,
                done_ms: 4_000,
            },
            &mut h.ctx(),
        );
        let job = ca.job_mut(1000).unwrap();
        assert_eq!(job.remaining_ms, 10_000, "restart from scratch");
        assert_eq!(job.wasted_ms, 4_000);
    }

    #[test]
    fn job_ids_offset_by_base() {
        let mut h = Harness::new();
        let mut ca = agent_with_one_job(&mut h);
        assert_eq!(ca.job_mut(1000).unwrap().name, "alice.0");
        assert!(ca.job_mut(999).is_none());
    }
}
