//! Agent cores: the protocol decisions of a provider and of a customer's
//! job queue, free of sockets and clocks. The live agents (`condor-pool`
//! threads) and the simulator's nodes (`condor-sim` handlers) drive the
//! same two, so both run one claiming protocol (paper §3.2, §4); the
//! agents keep when to act, how messages travel, and — in the simulator
//! — the environment (job execution, owner presence, usage reports).

use crate::claim::{ClaimHandler, ClaimState};
use crate::protocol::{
    Advertisement, ClaimRequest, ClaimResponse, EntityKind, MatchNotification, Timestamp,
};
use crate::retry::Backoff;
use crate::ticket::{Ticket, TicketIssuer};
use classad::{rank_of, ClassAd, EvalPolicy, MatchConventions};
use condor_obs::TraceContext;

/// When a claimed provider gives way to a new claimant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preemption {
    /// Never: a claim holds until released, and a claimed provider
    /// advertises nothing (a live resource agent, a license seat).
    Never,
    /// For a request the provider ranks strictly higher than its claimant;
    /// a claimed provider keeps advertising, "still interested in hearing
    /// from higher priority customers" (paper §4).
    HigherRank,
}

/// A provider's protocol decisions: what to advertise, the verdict on a
/// claim, and release.
#[derive(Debug)]
pub struct ProviderCore {
    claim: ClaimHandler,
    tickets: TicketIssuer,
    preemption: Preemption,
    /// The provider's rank of its claimant (0 when unclaimed or when it
    /// never preempts).
    claimant_rank: f64,
}

impl ProviderCore {
    /// A provider whose tickets are drawn from `ticket_seed`.
    pub fn new(ticket_seed: u64, preemption: Preemption) -> Self {
        ProviderCore {
            claim: ClaimHandler::new(),
            tickets: TicketIssuer::new(ticket_seed),
            preemption,
            claimant_rank: 0.0,
        }
    }

    /// `true` while a claim is active.
    pub fn is_claimed(&self) -> bool {
        self.claim.is_claimed()
    }

    /// The claim state.
    pub fn state(&self) -> &ClaimState {
        self.claim.state()
    }

    /// The provider's rank of its claimant (its `CurrentRank`).
    pub fn claimant_rank(&self) -> f64 {
        self.claimant_rank
    }

    /// The advertisement of `ad`, or `None` while claimed and not
    /// preemptible. It carries the outstanding ticket; a fresh one is
    /// issued only once an accepted claim consumed the last.
    pub fn advertisement(
        &mut self,
        ad: ClassAd,
        contact: &str,
        expires_at: Timestamp,
    ) -> Option<Advertisement> {
        if self.preemption == Preemption::Never && self.claim.is_claimed() {
            return None;
        }
        let ticket = self.claim.outstanding_ticket().unwrap_or_else(|| {
            let t = self.tickets.issue();
            self.claim.set_ticket(t);
            t
        });
        Some(Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: contact.to_owned(),
            ticket: Some(ticket),
            expires_at,
        })
    }

    /// The verdict on `req` against the provider's current ad, and on a
    /// preempting claim the displaced claimant for the caller to vacate
    /// (the new claim is already in force).
    pub fn claim(
        &mut self,
        req: &ClaimRequest,
        current_ad: &ClassAd,
        now: Timestamp,
    ) -> (ClaimResponse, Option<ClaimState>) {
        let rank = match self.preemption {
            Preemption::Never => 0.0,
            Preemption::HigherRank => rank_of(
                current_ad,
                &req.customer_ad,
                &EvalPolicy::default(),
                &MatchConventions::default(),
            ),
        };
        let preempts = rank > self.claimant_rank;
        let verdict = self.claim.handle_claim(req, current_ad, now, |_| preempts);
        if verdict.0.accepted {
            self.claimant_rank = rank;
        }
        verdict
    }

    /// End the active claim, returning it.
    pub fn release(&mut self) -> Option<ClaimState> {
        self.claimant_rank = 0.0;
        self.claim.release()
    }
}

/// The claim a customer presents for `ticket`: its current ad, and where
/// the provider reaches it while the claim lasts.
pub fn claim_request(ticket: Ticket, customer_ad: ClassAd, customer_contact: &str) -> ClaimRequest {
    ClaimRequest {
        ticket,
        customer_ad,
        customer_contact: customer_contact.to_owned(),
    }
}

/// Where a job stands in the advertise → match → claim lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a match; advertised once its backoff has passed.
    Idle,
    /// Notified of a match; the claim is in flight.
    Claiming {
        /// The provider being claimed.
        provider_contact: String,
    },
    /// The provider accepted the claim.
    Claimed {
        /// The provider's contact address.
        provider_contact: String,
        /// The provider's advertised name.
        provider_name: String,
    },
    /// The claim retry budget is exhausted; never resubmitted.
    Failed,
    /// Ran to completion (simulator only: in the live pool running the
    /// job is the claim holders' business).
    Completed {
        /// When it finished (ms on the caller's clock).
        at_ms: u64,
    },
}

/// One job in a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The job's name (its ad's `Name`).
    pub name: String,
    /// The job's current ad: advertised, and presented when claiming.
    pub ad: ClassAd,
    /// Where the job stands.
    pub state: JobStatus,
    /// Failed claim attempts so far (indexes the backoff schedule).
    pub attempts: u32,
    /// Earliest time (ms on the caller's clock) the job is advertised.
    pub not_before_ms: u64,
    /// Minted at submission and carried by every advertisement of the
    /// job, so its lifecycle stitches into one trace.
    pub trace: TraceContext,
}

impl QueuedJob {
    /// The job's request advertisement.
    pub fn advertisement(&self, contact: &str, expires_at: Timestamp) -> Advertisement {
        Advertisement {
            kind: EntityKind::Customer,
            ad: self.ad.clone(),
            contact: contact.to_owned(),
            ticket: None,
            expires_at,
        }
    }
}

/// What a claim attempt left its job as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The provider accepted.
    Claimed,
    /// The attempt failed; the job is idle again after its backoff.
    Requeued,
    /// The attempt failed and the retry budget is exhausted.
    Failed,
}

/// A customer's jobs by name, and the claim rules that move them.
#[derive(Debug)]
pub struct JobQueue {
    jobs: Vec<QueuedJob>,
    backoff: Backoff,
}

impl JobQueue {
    /// An empty queue that retries failed claims on `backoff`.
    pub fn new(backoff: Backoff) -> Self {
        JobQueue {
            jobs: Vec::new(),
            backoff,
        }
    }

    /// Add an idle job, advertised from `now_ms` on.
    pub fn submit(&mut self, name: impl Into<String>, ad: ClassAd, now_ms: u64) {
        self.jobs.push(QueuedJob {
            name: name.into(),
            ad,
            state: JobStatus::Idle,
            attempts: 0,
            not_before_ms: now_ms,
            trace: TraceContext::mint(),
        });
    }

    /// Every job, in submission order.
    pub fn iter(&self) -> std::slice::Iter<'_, QueuedJob> {
        self.jobs.iter()
    }

    /// The job named `name`.
    pub fn get(&self, name: &str) -> Option<&QueuedJob> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// The jobs to advertise at `now_ms`: idle, their backoff passed.
    pub fn pending(&self, now_ms: u64) -> impl Iterator<Item = &QueuedJob> {
        self.jobs
            .iter()
            .filter(move |j| j.state == JobStatus::Idle && j.not_before_ms <= now_ms)
    }

    /// A match notification, naming its job by the notification's copy
    /// of the job's ad. An idle job turns claiming: the result is its name
    /// and the claim to present, carrying the job's *current* ad — or no
    /// claim when the match came without a ticket. Either way the caller
    /// hands the provider's reply, or the lack of one, to
    /// [`JobQueue::claim_result`]. `None` for anything but an idle job of
    /// this queue (unknown, or a stale duplicate).
    pub fn notify(
        &mut self,
        note: &MatchNotification,
        customer_contact: &str,
    ) -> Option<(String, Option<ClaimRequest>)> {
        let name = note.own_ad.get_string("Name")?;
        let job = self
            .jobs
            .iter_mut()
            .find(|j| j.name == name && j.state == JobStatus::Idle)?;
        job.state = JobStatus::Claiming {
            provider_contact: note.peer_contact.clone(),
        };
        let claim = note
            .ticket
            .map(|ticket| claim_request(ticket, job.ad.clone(), customer_contact));
        Some((job.name.clone(), claim))
    }

    /// The result of `job`'s claim: the provider's reply, or `None` when
    /// none came (no ticket, dead provider, timeout). A failure backs the
    /// job off, or fails it once the budget is exhausted. `None` if `job`
    /// is not claiming.
    pub fn claim_result(
        &mut self,
        job: &str,
        reply: Option<&ClaimResponse>,
        now_ms: u64,
    ) -> Option<ClaimOutcome> {
        let job = self.jobs.iter_mut().find(|j| j.name == job)?;
        let JobStatus::Claiming { provider_contact } = &job.state else {
            return None;
        };
        if let Some(r) = reply.filter(|r| r.accepted) {
            job.state = JobStatus::Claimed {
                provider_contact: provider_contact.clone(),
                provider_name: r.provider_ad.get_string("Name").unwrap_or("").into(),
            };
            return Some(ClaimOutcome::Claimed);
        }
        job.attempts = job.attempts.saturating_add(1);
        Some(match self.backoff.delay(job.attempts) {
            Some(delay) => {
                job.state = JobStatus::Idle;
                job.not_before_ms = now_ms.saturating_add(delay.as_millis() as u64);
                ClaimOutcome::Requeued
            }
            None => {
                job.state = JobStatus::Failed;
                ClaimOutcome::Failed
            }
        })
    }

    /// Put `job` back with its current `ad` from `now_ms` on: its claim
    /// ended before it did. Not a failed attempt.
    pub fn requeue(&mut self, job: &str, ad: ClassAd, now_ms: u64) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.name == job) {
            job.ad = ad;
            job.state = JobStatus::Idle;
            job.not_before_ms = now_ms;
        }
    }

    /// Mark `job` completed at `now_ms`.
    pub fn finish(&mut self, job: &str, now_ms: u64) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.name == job) {
            job.state = JobStatus::Completed { at_ms: now_ms };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ClaimRejection;
    use classad::parse_classad;
    use std::time::Duration;

    fn machine_ad(keyboard_idle: i64) -> ClassAd {
        parse_classad(&format!(
            r#"[ Name = "m"; Type = "Machine"; KeyboardIdle = {keyboard_idle};
                Research = {{ "raman" }};
                Constraint = other.Type == "Job" && KeyboardIdle > 300;
                Rank = member(other.Owner, Research) * 10 ]"#
        ))
        .unwrap()
    }

    fn job_ad(name: &str, owner: &str) -> ClassAd {
        parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Job"; Owner = "{owner}";
                Constraint = other.Type == "Machine" ]"#
        ))
        .unwrap()
    }

    fn ticket_of(core: &mut ProviderCore) -> Ticket {
        core.advertisement(machine_ad(1000), "m:1", 60)
            .and_then(|a| a.ticket)
            .expect("an unclaimed provider advertises with a ticket")
    }

    fn claim(core: &mut ProviderCore, ticket: Ticket, owner: &str) -> ClaimResponse {
        let req = claim_request(ticket, job_ad("j", owner), "ca:1");
        core.claim(&req, &machine_ad(1000), 0).0
    }

    // ---- provider: ticket on re-advertise ----

    #[test]
    fn re_advertising_keeps_the_outstanding_ticket() {
        for preemption in [Preemption::Never, Preemption::HigherRank] {
            let mut core = ProviderCore::new(7, preemption);
            let t = ticket_of(&mut core);
            assert_eq!(ticket_of(&mut core), t, "{preemption:?}");
            // A claim racing the refresh still verifies.
            assert!(claim(&mut core, t, "u").accepted, "{preemption:?}");
        }
    }

    #[test]
    fn a_fresh_ticket_only_after_an_accepted_claim() {
        let mut core = ProviderCore::new(7, Preemption::Never);
        let t1 = ticket_of(&mut core);
        // A rejected claim consumes nothing.
        let stale = core.claim(
            &claim_request(t1, job_ad("j", "u"), "ca:1"),
            &machine_ad(5),
            0,
        );
        assert_eq!(stale.0.rejection, Some(ClaimRejection::ConstraintFailed));
        assert_eq!(ticket_of(&mut core), t1);
        assert!(claim(&mut core, t1, "u").accepted);
        core.release();
        let t2 = ticket_of(&mut core);
        assert_ne!(t2, t1);
        assert_eq!(
            claim(&mut core, t1, "u").rejection,
            Some(ClaimRejection::BadTicket),
            "a consumed ticket never verifies again"
        );
        assert!(claim(&mut core, t2, "u").accepted);
    }

    // ---- provider: advertise while claimed ----

    #[test]
    fn a_claimed_provider_advertises_only_if_it_can_be_preempted() {
        let mut never = ProviderCore::new(1, Preemption::Never);
        let t = ticket_of(&mut never);
        assert!(claim(&mut never, t, "u").accepted);
        assert!(never.advertisement(machine_ad(1000), "m:1", 60).is_none());
        never.release();
        assert!(never.advertisement(machine_ad(1000), "m:1", 60).is_some());

        let mut by_rank = ProviderCore::new(1, Preemption::HigherRank);
        let t = ticket_of(&mut by_rank);
        assert!(claim(&mut by_rank, t, "u").accepted);
        let adv = by_rank.advertisement(machine_ad(1000), "m:1", 60).unwrap();
        assert_ne!(adv.ticket, Some(t), "the consumed ticket is replaced");
    }

    // ---- provider: preempt a claimant ----

    #[test]
    fn never_preempts() {
        let mut core = ProviderCore::new(1, Preemption::Never);
        let t = ticket_of(&mut core);
        assert!(claim(&mut core, t, "u").accepted);
        // Even a higher-ranked claimant with a valid ticket is refused.
        core.claim.set_ticket(Ticket::from_raw(5));
        let r = claim(&mut core, Ticket::from_raw(5), "raman");
        assert_eq!(r.rejection, Some(ClaimRejection::Busy));
    }

    #[test]
    fn higher_rank_displaces_the_claimant_once() {
        let mut core = ProviderCore::new(1, Preemption::HigherRank);
        let t = ticket_of(&mut core);
        assert!(claim(&mut core, t, "stranger").accepted);
        assert_eq!(core.claimant_rank(), 0.0);
        // An equal rank does not preempt.
        let t = ticket_of(&mut core);
        assert_eq!(
            claim(&mut core, t, "other").rejection,
            Some(ClaimRejection::Busy)
        );
        // A higher rank does, on the same outstanding ticket, and the
        // displaced claim comes back for the caller to vacate.
        let req = claim_request(t, job_ad("j2", "raman"), "ca:2");
        let (resp, displaced) = core.claim(&req, &machine_ad(1000), 9);
        assert!(resp.accepted, "{:?}", resp.rejection);
        match displaced {
            Some(ClaimState::Claimed { owner, contact, .. }) => {
                assert_eq!(owner, "stranger");
                assert_eq!(contact, "ca:1");
            }
            other => panic!("{other:?}"),
        }
        match core.state() {
            ClaimState::Claimed { owner, since, .. } => {
                assert_eq!(owner, "raman");
                assert_eq!(*since, 9);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(core.claimant_rank(), 10.0);
        // The top-ranked claimant is not displaced by its equal.
        let t = ticket_of(&mut core);
        assert_eq!(
            claim(&mut core, t, "raman").rejection,
            Some(ClaimRejection::Busy)
        );
    }

    #[test]
    fn release_returns_the_claim_once() {
        let mut core = ProviderCore::new(1, Preemption::HigherRank);
        let t = ticket_of(&mut core);
        assert!(claim(&mut core, t, "raman").accepted);
        assert!(core.release().is_some());
        assert!(core.release().is_none());
        assert!(!core.is_claimed());
        assert_eq!(core.claimant_rank(), 0.0);
    }

    // ---- job queue ----

    fn note(job: &str, provider: &str, ticket: Option<Ticket>) -> MatchNotification {
        MatchNotification {
            own_ad: job_ad(job, "u"),
            peer_ad: parse_classad(&format!(r#"[ Name = "{provider}" ]"#)).unwrap(),
            peer_contact: format!("{provider}:9614"),
            ticket,
        }
    }

    fn reply(provider: &str, accepted: bool) -> ClaimResponse {
        ClaimResponse {
            accepted,
            rejection: (!accepted).then_some(ClaimRejection::ConstraintFailed),
            provider_ad: parse_classad(&format!(r#"[ Name = "{provider}" ]"#)).unwrap(),
        }
    }

    fn live_backoff() -> Backoff {
        Backoff {
            initial: Duration::from_millis(100),
            max_attempts: 2,
            ..Backoff::default()
        }
    }

    fn queue_of(backoff: Backoff, names: &[&str]) -> JobQueue {
        let mut q = JobQueue::new(backoff);
        for n in names {
            q.submit(*n, job_ad(n, "u"), 0);
        }
        q
    }

    fn dial(q: &mut JobQueue, job: &str, provider: &str) -> ClaimRequest {
        let (j, request) = q
            .notify(&note(job, provider, Some(Ticket::from_raw(3))), "ca:1")
            .unwrap();
        assert_eq!(j, job);
        request.unwrap()
    }

    #[test]
    fn a_job_moves_idle_claiming_claimed() {
        let mut q = queue_of(live_backoff(), &["j"]);
        assert_eq!(q.pending(0).count(), 1);
        let req = dial(&mut q, "j", "m");
        assert_eq!(req.ticket, Ticket::from_raw(3));
        assert_eq!(req.customer_ad.get_string("Name"), Some("j"));
        assert_eq!(req.customer_contact, "ca:1");
        assert_eq!(
            q.get("j").unwrap().state,
            JobStatus::Claiming {
                provider_contact: "m:9614".into()
            }
        );
        assert_eq!(q.pending(0).count(), 0, "a claiming job is not advertised");
        // A duplicate notification while claiming is ignored.
        assert_eq!(
            q.notify(&note("j", "m", Some(Ticket::from_raw(3))), "ca:1"),
            None
        );
        assert_eq!(
            q.claim_result("j", Some(&reply("m", true)), 5),
            Some(ClaimOutcome::Claimed)
        );
        assert_eq!(
            q.get("j").unwrap().state,
            JobStatus::Claimed {
                provider_contact: "m:9614".into(),
                provider_name: "m".into()
            }
        );
        // A late result for a job no longer claiming changes nothing.
        assert_eq!(q.claim_result("j", Some(&reply("m", false)), 6), None);
        assert_eq!(
            q.notify(&note("nobody", "m", Some(Ticket::from_raw(3))), "ca:1"),
            None
        );
    }

    #[test]
    fn a_notification_without_a_ticket_is_a_failed_attempt() {
        let mut q = queue_of(live_backoff(), &["j"]);
        // Claimed without a ticket: the claim fails without a dial.
        assert_eq!(
            q.notify(&note("j", "m", None), "ca:1"),
            Some(("j".to_string(), None))
        );
        assert_eq!(
            q.claim_result("j", None, 1_000),
            Some(ClaimOutcome::Requeued)
        );
        let job = q.get("j").unwrap();
        assert_eq!(job.state, JobStatus::Idle);
        assert_eq!(job.attempts, 1);
        assert_eq!(job.not_before_ms, 1_100, "backs off before re-advertising");
        assert_eq!(q.pending(1_099).count(), 0);
        assert_eq!(q.pending(1_100).count(), 1);
    }

    #[test]
    fn a_rejected_claim_backs_off_then_fails() {
        let mut q = queue_of(live_backoff(), &["j"]);
        dial(&mut q, "j", "m");
        assert_eq!(
            q.claim_result("j", Some(&reply("m", false)), 0),
            Some(ClaimOutcome::Requeued)
        );
        assert_eq!(q.get("j").unwrap().not_before_ms, 100);
        dial(&mut q, "j", "m");
        // No reply at all (a dead provider) is a failed attempt too.
        assert_eq!(q.claim_result("j", None, 0), Some(ClaimOutcome::Requeued));
        assert_eq!(q.get("j").unwrap().not_before_ms, 200);
        dial(&mut q, "j", "m");
        assert_eq!(
            q.claim_result("j", Some(&reply("m", false)), 0),
            Some(ClaimOutcome::Failed)
        );
        assert_eq!(q.get("j").unwrap().state, JobStatus::Failed);
        assert_eq!(q.pending(u64::MAX).count(), 0);
        assert_eq!(
            q.notify(&note("j", "m", Some(Ticket::from_raw(3))), "ca:1"),
            None,
            "a failed job is never claimed again"
        );
    }

    #[test]
    fn a_zero_backoff_retries_at_the_next_advertisement() {
        let mut q = queue_of(Backoff::unlimited(Duration::ZERO, Duration::ZERO), &["j"]);
        for attempt in 1..=50 {
            dial(&mut q, "j", "m");
            assert_eq!(
                q.claim_result("j", Some(&reply("m", false)), 7),
                Some(ClaimOutcome::Requeued)
            );
            let job = q.get("j").unwrap();
            assert_eq!(job.attempts, attempt);
            assert_eq!(job.not_before_ms, 7);
        }
        assert_eq!(q.pending(7).count(), 1);
    }

    #[test]
    fn a_claim_result_belongs_to_the_job_that_dialed() {
        // Two claims in flight, to m10 and to m1: the result for m1's job
        // settles that job alone, whatever the providers are named.
        let mut q = queue_of(live_backoff(), &["a", "b"]);
        dial(&mut q, "a", "m10");
        dial(&mut q, "b", "m1");
        assert_eq!(
            q.claim_result("b", Some(&reply("m1", true)), 0),
            Some(ClaimOutcome::Claimed)
        );
        assert!(matches!(
            q.get("a").unwrap().state,
            JobStatus::Claiming { .. }
        ));
        assert!(matches!(
            q.get("b").unwrap().state,
            JobStatus::Claimed { .. }
        ));
    }

    #[test]
    fn requeue_and_finish() {
        let mut q = queue_of(live_backoff(), &["j"]);
        dial(&mut q, "j", "m");
        q.claim_result("j", Some(&reply("m", true)), 0);
        let mut ad = job_ad("j", "u");
        ad.set_int("RemainingWork", 5);
        q.requeue("j", ad, 40);
        let job = q.get("j").unwrap();
        assert_eq!(job.state, JobStatus::Idle);
        assert_eq!(job.attempts, 0, "a requeue is not a failed attempt");
        assert_eq!(job.ad.get_int("RemainingWork"), Some(5));
        assert_eq!(q.pending(40).count(), 1);
        q.finish("j", 50);
        assert_eq!(
            q.get("j").unwrap().state,
            JobStatus::Completed { at_ms: 50 }
        );
    }
}
