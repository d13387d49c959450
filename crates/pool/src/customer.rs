//! The customer agent (CA): a user's live runtime.
//!
//! Advertises one request per pending job, listens for the matchmaker's
//! [`MatchNotification`], and dials the matched provider **directly** to
//! claim it (paper step 4) — presenting the relayed ticket and the job's
//! current ad for the provider's re-verification. A rejected or failed
//! claim re-queues the job behind a capped exponential [`Backoff`]; the
//! matchmaker simply matches it again, usually elsewhere. Exhausting the
//! retry budget marks the job [`JobStatus::Failed`]. These rules are the
//! [`JobQueue`] core's; this agent supplies the sockets and the clock.
//!
//! [`MatchNotification`]: matchmaker::protocol::MatchNotification

use crate::link::{claim_event, AgentLink};
use crate::retry::Backoff;
use crate::wire::{self, IoConfig};
use classad::ClassAd;
use condor_obs::{schema, JournalConfig, TraceContext};
use matchmaker::agent::{ClaimOutcome, JobQueue};
use matchmaker::protocol::{ClaimRequest, ClaimResponse, EntityKind, MatchNotification, Message};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a job stands in the advertise → match → claim lifecycle (the
/// [`JobQueue`] core's status, shared with the simulator).
pub use matchmaker::agent::JobStatus;

/// Customer-agent tunables.
#[derive(Debug, Clone)]
pub struct CustomerConfig {
    /// The submitting user (written into each job's `Owner` attribute).
    pub user: String,
    /// Matchmaker daemon address (`host:port`).
    pub matchmaker: String,
    /// Every matchmaker in an HA set, preferred-first. Empty (the
    /// default) means the lone [`matchmaker`] address and no probing.
    /// With two or more contacts the agent probes its current matchmaker
    /// each advertisement pass and follows leader redirects (see
    /// [`crate::failover`]): idle jobs chase the lease to the new leader
    /// while claimed jobs ride out the handover on their direct
    /// provider connections.
    ///
    /// [`matchmaker`]: CustomerConfig::matchmaker
    pub matchmakers: Vec<String>,
    /// Listen address for match notifications; port 0 picks one.
    pub bind: String,
    /// Period between advertisement passes over pending jobs.
    pub heartbeat: Duration,
    /// Lease length granted with each request advertisement.
    pub lease: Duration,
    /// Socket deadlines.
    pub io: IoConfig,
    /// Resubmission schedule after a rejected or failed claim; exhausting
    /// it marks the job [`JobStatus::Failed`].
    pub backoff: Backoff,
    /// Publish a `CustomerAgentStats` self-ad to the matchmaker on every
    /// advertisement pass (on by default; see `condor_obs::selfad`).
    pub publish_self_ad: bool,
    /// Event-journal destination; `None` disables journaling.
    pub journal: Option<JournalConfig>,
}

impl Default for CustomerConfig {
    fn default() -> Self {
        CustomerConfig {
            user: "user".into(),
            matchmaker: String::new(),
            matchmakers: Vec::new(),
            bind: "127.0.0.1:0".into(),
            heartbeat: Duration::from_secs(60),
            lease: Duration::from_secs(300),
            io: IoConfig::default(),
            backoff: Backoff::default(),
            publish_self_ad: true,
            journal: None,
        }
    }
}

/// The agent's metric handles, registered once at spawn.
#[derive(Debug)]
struct CaMetrics {
    ads_sent: Arc<condor_obs::Counter>,
    ad_failures: Arc<condor_obs::Counter>,
    notifications_received: Arc<condor_obs::Counter>,
    claims_accepted: Arc<condor_obs::Counter>,
    claims_rejected: Arc<condor_obs::Counter>,
    claim_dial_failures: Arc<condor_obs::Counter>,
    jobs_submitted: Arc<condor_obs::Counter>,
    jobs_failed: Arc<condor_obs::Counter>,
    jobs_idle: Arc<condor_obs::Gauge>,
    jobs_claimed: Arc<condor_obs::Gauge>,
    phase_claim_rtt_ms: Arc<condor_obs::WindowedHistogram>,
}

impl CaMetrics {
    fn new(reg: &condor_obs::Registry) -> Self {
        CaMetrics {
            ads_sent: reg.counter(schema::ADS_SENT),
            ad_failures: reg.counter(schema::AD_FAILURES),
            notifications_received: reg.counter(schema::NOTIFICATIONS_SEEN),
            claims_accepted: reg.counter(schema::CLAIMS_ACCEPTED),
            claims_rejected: reg.counter(schema::CLAIMS_REJECTED),
            claim_dial_failures: reg.counter(schema::CLAIM_DIAL_FAILURES),
            jobs_submitted: reg.counter(schema::JOBS_SUBMITTED),
            jobs_failed: reg.counter(schema::JOBS_FAILED),
            jobs_idle: reg.gauge(schema::JOBS_IDLE),
            jobs_claimed: reg.gauge(schema::JOBS_CLAIMED),
            phase_claim_rtt_ms: reg.histogram(schema::PHASE_CLAIM_RTT_MS, Duration::from_secs(300)),
        }
    }
}

/// Point-in-time copy of the customer-agent counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomerStatsSnapshot {
    /// Request advertisements delivered to the matchmaker.
    pub ads_sent: u64,
    /// Advertisement dials that failed.
    pub ad_failures: u64,
    /// Match notifications received.
    pub notifications_received: u64,
    /// Direct claims the provider accepted.
    pub claims_accepted: u64,
    /// Direct claims the provider rejected (stale state, bad ticket, busy).
    pub claims_rejected: u64,
    /// Claim dials that never reached the provider (death, timeout).
    pub claim_dial_failures: u64,
    /// Jobs abandoned after exhausting the retry budget.
    pub jobs_failed: u64,
    /// Times the agent switched matchmakers after a probe or redirect.
    pub failovers: u64,
}

struct CaShared {
    cfg: CustomerConfig,
    link: AgentLink,
    jobs: Mutex<JobQueue>,
    /// Zero of the clock the job queue's backoff times are on.
    started: Instant,
    metrics: CaMetrics,
    claimers: Mutex<Vec<JoinHandle<()>>>,
}

impl CaShared {
    /// Milliseconds since the agent started: the job queue's clock.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A live customer agent; see the module docs.
pub struct CustomerAgent {
    shared: Arc<CaShared>,
    /// The notification listener and the advertiser.
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CustomerAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomerAgent")
            .field("user", &self.shared.cfg.user)
            .field("addr", &self.shared.link.addr)
            .finish_non_exhaustive()
    }
}

impl CustomerAgent {
    /// Start the agent with an initial batch of `(name, ad)` jobs. Each
    /// ad gets its `Name` and `Owner` attributes overwritten.
    pub fn spawn(cfg: CustomerConfig, jobs: Vec<(String, ClassAd)>) -> std::io::Result<Self> {
        let (link, listener) = AgentLink::bind(
            ("CustomerAgent", &cfg.user),
            &cfg.bind,
            &cfg.matchmaker,
            &cfg.matchmakers,
            &cfg.io,
            cfg.journal.clone(),
        )?;
        let shared = Arc::new(CaShared {
            metrics: CaMetrics::new(link.observer.registry()),
            link,
            jobs: Mutex::new(JobQueue::new(cfg.backoff.clone())),
            started: Instant::now(),
            cfg,
            claimers: Mutex::new(Vec::new()),
        });
        for (name, ad) in jobs {
            push_job(&shared, name, ad);
        }
        let (s1, s2) = (Arc::clone(&shared), Arc::clone(&shared));
        let threads = vec![
            std::thread::Builder::new()
                .name("ca-listen".into())
                .spawn(move || {
                    s1.link
                        .accept_loop(listener, |peer| on_connection(&s1, peer))
                })?,
            std::thread::Builder::new()
                .name("ca-advertise".into())
                .spawn(move || advertise_loop(&s2))?,
        ];
        Ok(CustomerAgent { shared, threads })
    }

    /// The agent's notification-listener address — its advertised contact.
    pub fn addr(&self) -> SocketAddr {
        self.shared.link.addr
    }

    /// The submitting user.
    pub fn user(&self) -> &str {
        &self.shared.cfg.user
    }

    /// Submit another job after spawn.
    pub fn add_job(&self, name: impl Into<String>, ad: ClassAd) {
        push_job(&self.shared, name.into(), ad);
    }

    /// Every job's `(name, status)`.
    pub fn jobs(&self) -> Vec<(String, JobStatus)> {
        self.shared
            .jobs
            .lock()
            .iter()
            .map(|j| (j.name.clone(), j.state.clone()))
            .collect()
    }

    /// `true` once every job is [`JobStatus::Claimed`].
    pub fn all_claimed(&self) -> bool {
        let jobs = self.shared.jobs.lock();
        jobs.iter().next().is_some()
            && jobs
                .iter()
                .all(|j| matches!(j.state, JobStatus::Claimed { .. }))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CustomerStatsSnapshot {
        let m = &self.shared.metrics;
        CustomerStatsSnapshot {
            ads_sent: m.ads_sent.get(),
            ad_failures: m.ad_failures.get(),
            notifications_received: m.notifications_received.get(),
            claims_accepted: m.claims_accepted.get(),
            claims_rejected: m.claims_rejected.get(),
            claim_dial_failures: m.claim_dial_failures.get(),
            jobs_failed: m.jobs_failed.get(),
            failovers: self.shared.link.failovers.get(),
        }
    }

    /// The matchmaker this agent currently advertises to (the leader it
    /// last found, or the configured address).
    pub fn matchmaker_contact(&self) -> String {
        self.shared.link.matchmaker()
    }

    /// Release every established claim (dialing each provider), withdraw
    /// pending request ads by collapsing their leases, and stop all
    /// threads.
    pub fn shutdown(mut self) {
        self.teardown(true);
    }

    fn teardown(&mut self, graceful: bool) {
        let link = &self.shared.link;
        if graceful && !link.shutdown.load(Ordering::SeqCst) {
            let jobs = self.shared.jobs.lock();
            for j in jobs.iter() {
                match &j.state {
                    JobStatus::Claimed {
                        provider_contact, ..
                    } => {
                        // The ticket was consumed at claim time; Release is
                        // addressed by connection, any ticket value works.
                        let _ = wire::send_oneway(
                            provider_contact,
                            &Message::Release {
                                ticket: matchmaker::ticket::Ticket::from_raw(0),
                            },
                            &link.io,
                        );
                    }
                    JobStatus::Idle | JobStatus::Claiming { .. } => {
                        let adv = j.advertisement(&link.contact, wire::unix_now() + 1);
                        let _ = link.advertise(adv, None);
                    }
                    JobStatus::Failed | JobStatus::Completed { .. } => {}
                }
            }
        }
        link.stop();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        let claimers = std::mem::take(&mut *self.shared.claimers.lock());
        for h in claimers {
            let _ = h.join();
        }
    }
}

impl Drop for CustomerAgent {
    fn drop(&mut self) {
        self.teardown(false);
    }
}

fn push_job(shared: &Arc<CaShared>, name: String, mut ad: ClassAd) {
    ad.set_str("Name", &name);
    ad.set_str("Owner", &shared.cfg.user);
    shared.metrics.jobs_submitted.inc();
    shared.jobs.lock().submit(name, ad, shared.now_ms());
}

/// Recompute the job-state gauges from the queue (called on each
/// advertisement pass, just before the self-ad snapshot is taken). A job
/// with its claim in flight still counts as idle: it is not placed yet.
fn update_job_gauges(shared: &Arc<CaShared>) {
    let (mut idle, mut claimed) = (0, 0);
    for j in shared.jobs.lock().iter() {
        match j.state {
            JobStatus::Idle | JobStatus::Claiming { .. } => idle += 1,
            JobStatus::Claimed { .. } => claimed += 1,
            JobStatus::Failed | JobStatus::Completed { .. } => {}
        }
    }
    shared.metrics.jobs_idle.set(idle);
    shared.metrics.jobs_claimed.set(claimed);
}

fn advertise_loop(shared: &Arc<CaShared>) {
    loop {
        shared.link.ensure_matchmaker();
        advertise_pending(shared);
        if shared.cfg.publish_self_ad {
            update_job_gauges(shared);
            shared.link.publish_self_ad(
                &shared.cfg.user,
                schema::CUSTOMER_AGENT_STATS,
                EntityKind::Customer,
                ("User", &shared.cfg.user),
                (3 * shared.cfg.heartbeat.as_secs()).max(300),
            );
        }
        if wire::interruptible_sleep(&shared.link.shutdown, shared.cfg.heartbeat) {
            return;
        }
    }
}

fn advertise_pending(shared: &Arc<CaShared>) {
    let expires_at = wire::unix_now() + shared.cfg.lease.as_secs();
    let pending: Vec<_> = shared
        .jobs
        .lock()
        .pending(shared.now_ms())
        .map(|j| (j.advertisement(&shared.link.contact, expires_at), j.trace))
        .collect();
    for (adv, trace) in pending {
        if shared.link.advertise(adv, Some(&trace)) {
            shared.metrics.ads_sent.inc();
        } else {
            shared.metrics.ad_failures.inc();
        }
    }
}

/// Read one match notification and claim its job.
fn on_connection(shared: &Arc<CaShared>, mut stream: TcpStream) {
    let timeout = shared.link.io.read_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let mut dec = matchmaker::framing::FrameDecoder::new();
    let Ok((Message::Notify(note), trace, bytes_in)) =
        wire::recv_traced(&mut stream, &mut dec, Instant::now() + timeout)
    else {
        return;
    };
    shared.link.wire.read_bytes(bytes_in);
    shared.link.wire.frame_in();
    shared.metrics.notifications_received.inc();
    // Claim on a separate thread: a slow or dead provider must not block
    // notifications for the agent's other jobs.
    let claim_shared = Arc::clone(shared);
    if let Ok(h) = std::thread::Builder::new()
        .name("ca-claim".into())
        .spawn(move || attempt_claim(&claim_shared, note, trace))
    {
        let mut claimers = shared.claimers.lock();
        claimers.retain(|h| !h.is_finished());
        claimers.push(h);
    }
}

/// `trace` is the context off the Notify frame — a child of the
/// matchmaker's notification span. The claim dial forwards it to the
/// provider; the verdict is journaled under the RA's reply context, so
/// the customer's span sits beneath the provider's in the assembled tree.
fn attempt_claim(shared: &Arc<CaShared>, note: MatchNotification, trace: Option<TraceContext>) {
    // The queue marks the job claiming: at most one dial in flight per job.
    let notified = shared.jobs.lock().notify(&note, &shared.link.contact);
    let Some((job, request)) = notified else {
        return;
    };
    let reply = request.and_then(|req| dial_claim(shared, &note.peer_contact, req, trace));
    let outcome = shared
        .jobs
        .lock()
        .claim_result(&job, reply.as_ref(), shared.now_ms());
    if outcome == Some(ClaimOutcome::Failed) {
        shared.metrics.jobs_failed.inc();
    }
}

/// Dial the provider with `request` and journal its verdict; `None` when
/// no `ClaimReply` came back.
fn dial_claim(
    shared: &Arc<CaShared>,
    provider: &str,
    request: ClaimRequest,
    trace: Option<TraceContext>,
) -> Option<ClaimResponse> {
    let dialed = Instant::now();
    let exchange = match wire::request_reply_traced(
        provider,
        &Message::Claim(request),
        trace.as_ref(),
        &shared.link.io,
    ) {
        Ok(exchange) => exchange,
        Err(_) => {
            shared.metrics.claim_dial_failures.inc();
            return None;
        }
    };
    shared
        .metrics
        .phase_claim_rtt_ms
        .record(dialed.elapsed().as_secs_f64() * 1000.0);
    shared.link.wire.sent(exchange.bytes_out);
    shared.link.wire.read_bytes(exchange.bytes_in);
    shared.link.wire.frame_in();
    let Message::ClaimReply(r) = exchange.msg else {
        return None;
    };
    // Journal under the RA's reply context when it sent one, else under
    // the notification context we dialed with.
    let span = exchange.trace.or(trace).map(|ctx| ctx.begin_span());
    let provider = r.provider_ad.get_string("Name").unwrap_or_default();
    let verdict = if r.accepted {
        &shared.metrics.claims_accepted
    } else {
        &shared.metrics.claims_rejected
    };
    verdict.inc();
    let event = claim_event(&r, provider.into(), shared.cfg.user.clone());
    shared.link.observer.emit_traced(event, span);
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;
    use matchmaker::framing::FrameDecoder;
    use matchmaker::protocol::Advertisement;
    use matchmaker::ticket::Ticket;
    use std::net::TcpListener;

    fn job_ad() -> ClassAd {
        parse_classad(r#"[ Type = "Job"; Constraint = other.Type == "Machine"; Rank = 0 ]"#)
            .unwrap()
    }

    /// A fake matchmaker endpoint collecting advertisements. Self-ads
    /// (heartbeat telemetry) are skipped: these tests watch the job ads.
    fn recv_one_ad(listener: &TcpListener) -> Advertisement {
        loop {
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let mut dec = FrameDecoder::new();
            let msg =
                wire::recv(&mut s, &mut dec, Instant::now() + Duration::from_secs(5)).unwrap();
            match msg {
                Message::Advertise(a) if condor_obs::is_daemon_ad(&a.ad) => continue,
                Message::Advertise(a) => return a,
                other => panic!("expected Advertise, got {other:?}"),
            }
        }
    }

    fn fast_cfg(mm: String) -> CustomerConfig {
        CustomerConfig {
            user: "miron".into(),
            matchmaker: mm,
            heartbeat: Duration::from_millis(50),
            backoff: Backoff {
                initial: Duration::from_millis(5),
                max_attempts: 2,
                ..Backoff::default()
            },
            ..CustomerConfig::default()
        }
    }

    #[test]
    fn advertises_jobs_with_owner_and_name() {
        let mm = TcpListener::bind("127.0.0.1:0").unwrap();
        let ca = CustomerAgent::spawn(
            fast_cfg(mm.local_addr().unwrap().to_string()),
            vec![("job-1".into(), job_ad())],
        )
        .unwrap();
        let adv = recv_one_ad(&mm);
        assert_eq!(adv.kind, EntityKind::Customer);
        assert_eq!(adv.ad.get_string("Name"), Some("job-1"));
        assert_eq!(adv.ad.get_string("Owner"), Some("miron"));
        assert_eq!(adv.contact, ca.addr().to_string());
        assert_eq!(ca.jobs(), vec![("job-1".to_string(), JobStatus::Idle)]);
        ca.shutdown();
    }

    #[test]
    fn notification_triggers_claim_and_placement() {
        let mm = TcpListener::bind("127.0.0.1:0").unwrap();
        // Stand-in provider that accepts whatever it is sent.
        let provider = TcpListener::bind("127.0.0.1:0").unwrap();
        let provider_addr = provider.local_addr().unwrap().to_string();
        let ticket = Ticket::from_raw(42);
        let provider_thread = std::thread::spawn(move || {
            let (mut s, _) = provider.accept().unwrap();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let mut dec = FrameDecoder::new();
            let msg =
                wire::recv(&mut s, &mut dec, Instant::now() + Duration::from_secs(5)).unwrap();
            let Message::Claim(req) = msg else {
                panic!("{msg:?}")
            };
            assert_eq!(req.ticket, ticket);
            assert_eq!(req.customer_ad.get_string("Name"), Some("job-1"));
            wire::send(
                &mut s,
                &Message::ClaimReply(matchmaker::protocol::ClaimResponse {
                    accepted: true,
                    rejection: None,
                    provider_ad: parse_classad(r#"[ Name = "leonardo" ]"#).unwrap(),
                }),
            )
            .unwrap();
        });

        let ca = CustomerAgent::spawn(
            fast_cfg(mm.local_addr().unwrap().to_string()),
            vec![("job-1".into(), job_ad())],
        )
        .unwrap();
        let adv = recv_one_ad(&mm);
        // Play matchmaker: notify the CA of the match.
        let note = MatchNotification {
            own_ad: adv.ad.clone(),
            peer_ad: parse_classad(r#"[ Name = "leonardo" ]"#).unwrap(),
            peer_contact: provider_addr.clone(),
            ticket: Some(ticket),
        };
        wire::send_oneway(&adv.contact, &Message::Notify(note), &IoConfig::default()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while !ca.all_claimed() {
            assert!(
                Instant::now() < deadline,
                "claim never landed: {:?}",
                ca.jobs()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        provider_thread.join().unwrap();
        match &ca.jobs()[0].1 {
            JobStatus::Claimed {
                provider_contact,
                provider_name,
            } => {
                assert_eq!(provider_contact, &provider_addr);
                assert_eq!(provider_name, "leonardo");
            }
            s => panic!("{s:?}"),
        }
        assert_eq!(ca.stats().claims_accepted, 1);
        ca.shutdown();
    }

    #[test]
    fn dead_provider_exhausts_budget_and_fails_the_job() {
        let mm = TcpListener::bind("127.0.0.1:0").unwrap();
        let mm_addr = mm.local_addr().unwrap().to_string();
        let dead_provider = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        // The listener's backlog absorbs the CA's ads without an accept loop.
        let ca = CustomerAgent::spawn(fast_cfg(mm_addr), vec![("job-1".into(), job_ad())]).unwrap();
        let note = |ad: ClassAd| MatchNotification {
            own_ad: ad,
            peer_ad: parse_classad(r#"[ Name = "ghost" ]"#).unwrap(),
            peer_contact: dead_provider.clone(),
            ticket: Some(Ticket::from_raw(1)),
        };
        let contact = ca.addr().to_string();
        let mut own = job_ad();
        own.set_str("Name", "job-1");
        // Each failed dial burns one attempt; budget is 2.
        let deadline = Instant::now() + Duration::from_secs(20);
        while ca.stats().jobs_failed == 0 {
            assert!(
                Instant::now() < deadline,
                "job never failed: {:?}",
                ca.jobs()
            );
            let _ = wire::send_oneway(
                &contact,
                &Message::Notify(note(own.clone())),
                &IoConfig::default(),
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(ca.jobs()[0].1, JobStatus::Failed);
        assert!(ca.stats().claim_dial_failures >= 3);
        ca.shutdown();
        drop(mm);
    }
}
