//! The resource agent (RA): a provider's live runtime.
//!
//! Owns the machine's *current* classad and a [`ClaimHandler`], refreshes
//! the matchmaker's copy on a heartbeat (renewing the soft-state lease),
//! and serves **direct** claim connections from matched customers — the
//! paper's step 4, which never passes through the matchmaker. Claims are
//! adjudicated against the current ad, so a stale advertisement costs a
//! rejected claim, never a wrong allocation.
//!
//! Ticket discipline: the outstanding ticket is *reused* across lease
//! renewals and only replaced after an accepted claim consumes it —
//! otherwise a claim racing an ad refresh would spuriously fail ticket
//! verification.

use crate::failover::{self, Probe};
use crate::observe::{self_ad_name, Observer, WireCounters};
use crate::retry::Backoff;
use crate::wire::{self, IoConfig};
use classad::ClassAd;
use condor_obs::{schema, Event, JournalConfig, TraceContext};
use matchmaker::claim::ClaimHandler;
use matchmaker::protocol::{Advertisement, EntityKind, Message};
use matchmaker::ticket::TicketIssuer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resource-agent tunables.
#[derive(Debug, Clone)]
pub struct ResourceConfig {
    /// Machine name (written into the ad's `Name` attribute).
    pub name: String,
    /// Matchmaker daemon address (`host:port`).
    pub matchmaker: String,
    /// Every matchmaker in an HA set, preferred-first. Empty (the
    /// default) means the lone [`matchmaker`] address and no probing.
    /// With two or more contacts the agent probes its current matchmaker
    /// each heartbeat and follows leader redirects (see
    /// [`crate::failover`]), so advertisements chase the lease across
    /// failovers while any established claim rides out the handover
    /// untouched.
    ///
    /// [`matchmaker`]: ResourceConfig::matchmaker
    pub matchmakers: Vec<String>,
    /// Listen address for direct claim connections; port 0 picks one.
    pub bind: String,
    /// Period between advertisement refreshes (lease renewals).
    pub heartbeat: Duration,
    /// Lease length granted with each advertisement.
    pub lease: Duration,
    /// Socket deadlines.
    pub io: IoConfig,
    /// Retry schedule for a failed advertisement dial (within one
    /// heartbeat; the next heartbeat starts a fresh budget).
    pub backoff: Backoff,
    /// Seed for the ticket issuer (distinct per agent in a pool).
    pub ticket_seed: u64,
    /// Publish a `ResourceAgentStats` self-ad to the matchmaker on every
    /// heartbeat (on by default; see `condor_obs::selfad`).
    pub publish_self_ad: bool,
    /// Event-journal destination; `None` disables journaling.
    pub journal: Option<JournalConfig>,
}

impl Default for ResourceConfig {
    fn default() -> Self {
        ResourceConfig {
            name: "machine".into(),
            matchmaker: String::new(),
            matchmakers: Vec::new(),
            bind: "127.0.0.1:0".into(),
            heartbeat: Duration::from_secs(60),
            lease: Duration::from_secs(300),
            io: IoConfig::default(),
            backoff: Backoff::default(),
            ticket_seed: 1,
            publish_self_ad: true,
            journal: None,
        }
    }
}

/// The agent's metric handles, registered once at spawn.
#[derive(Debug)]
struct RaMetrics {
    ads_sent: Arc<condor_obs::Counter>,
    ad_failures: Arc<condor_obs::Counter>,
    self_ads_sent: Arc<condor_obs::Counter>,
    claims_accepted: Arc<condor_obs::Counter>,
    claims_rejected: Arc<condor_obs::Counter>,
    notifications_seen: Arc<condor_obs::Counter>,
    releases: Arc<condor_obs::Counter>,
    failovers: Arc<condor_obs::Counter>,
    claimed: Arc<condor_obs::Gauge>,
    phase_notify_claim_gap_ms: Arc<condor_obs::WindowedHistogram>,
    phase_reverify_ms: Arc<condor_obs::WindowedHistogram>,
    wire: WireCounters,
}

impl RaMetrics {
    fn new(reg: &condor_obs::Registry) -> Self {
        let window = Duration::from_secs(300);
        RaMetrics {
            ads_sent: reg.counter(schema::ADS_SENT),
            ad_failures: reg.counter(schema::AD_FAILURES),
            self_ads_sent: reg.counter(schema::SELF_ADS_SENT),
            claims_accepted: reg.counter(schema::CLAIMS_ACCEPTED),
            claims_rejected: reg.counter(schema::CLAIMS_REJECTED),
            notifications_seen: reg.counter(schema::NOTIFICATIONS_SEEN),
            releases: reg.counter(schema::RELEASES),
            failovers: reg.counter(schema::MATCHMAKER_FAILOVERS),
            claimed: reg.gauge(schema::CLAIMED),
            phase_notify_claim_gap_ms: reg.histogram(schema::PHASE_NOTIFY_CLAIM_GAP_MS, window),
            phase_reverify_ms: reg.histogram(schema::PHASE_REVERIFY_MS, window),
            wire: WireCounters::new(reg),
        }
    }
}

/// Point-in-time copy of the resource-agent counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceStatsSnapshot {
    /// Advertisements delivered to the matchmaker.
    pub ads_sent: u64,
    /// Advertisement dials that exhausted their retry budget.
    pub ad_failures: u64,
    /// Claims accepted (ticket verified, constraints re-held).
    pub claims_accepted: u64,
    /// Claims rejected (bad ticket, stale state, busy).
    pub claims_rejected: u64,
    /// Match notifications received from the matchmaker.
    pub notifications_seen: u64,
    /// Release messages honored.
    pub releases: u64,
    /// Times the agent switched matchmakers after a probe or redirect.
    pub failovers: u64,
}

struct RaShared {
    cfg: ResourceConfig,
    contact: String,
    /// The matchmaker currently advertised to — rewritten by
    /// [`RaShared::ensure_matchmaker`] when the leader moves.
    matchmaker: Mutex<String>,
    ad: Mutex<ClassAd>,
    claim: Mutex<ClaimHandler>,
    issuer: Mutex<TicketIssuer>,
    shutdown: AtomicBool,
    metrics: RaMetrics,
    observer: Observer,
    /// When each traced match notification arrived, keyed by trace id:
    /// consumed when the matching claim lands to feed the notify→claim
    /// gap histogram, age-pruned on insert.
    notified_at: Mutex<HashMap<u64, Instant>>,
}

/// A live resource agent; see the module docs.
pub struct ResourceAgent {
    shared: Arc<RaShared>,
    addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    refresher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ResourceAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceAgent")
            .field("name", &self.shared.cfg.name)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ResourceAgent {
    /// Start the agent: bind the claim listener, then advertise `ad`
    /// immediately and on every heartbeat. The ad's `Name` is overwritten
    /// with `cfg.name`.
    pub fn spawn(cfg: ResourceConfig, mut ad: ClassAd) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        ad.set_str("Name", &cfg.name);
        let observer = Observer::new(cfg.journal.clone())?;
        let metrics = RaMetrics::new(observer.registry());
        let matchmaker = cfg
            .matchmakers
            .first()
            .cloned()
            .unwrap_or_else(|| cfg.matchmaker.clone());
        let shared = Arc::new(RaShared {
            contact: addr.to_string(),
            matchmaker: Mutex::new(matchmaker),
            issuer: Mutex::new(TicketIssuer::new(cfg.ticket_seed)),
            cfg,
            ad: Mutex::new(ad),
            claim: Mutex::new(ClaimHandler::new()),
            shutdown: AtomicBool::new(false),
            metrics,
            observer,
            notified_at: Mutex::new(HashMap::new()),
        });
        shared.observer.emit(Event::AgentRestarted {
            agent: "ResourceAgent".into(),
            name: shared.cfg.name.clone(),
        });
        let listen_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ra-listen".into())
                .spawn(move || listen_loop(&shared, listener))?
        };
        let refresher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ra-refresh".into())
                .spawn(move || refresh_loop(&shared))?
        };
        Ok(ResourceAgent {
            shared,
            addr,
            listener: Some(listen_thread),
            refresher: Some(refresher),
        })
    }

    /// The agent's claim-listener address — also its advertised contact.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The machine name this agent advertises under.
    pub fn name(&self) -> &str {
        &self.shared.cfg.name
    }

    /// Whether a customer currently holds the resource.
    pub fn is_claimed(&self) -> bool {
        self.shared.claim.lock().is_claimed()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResourceStatsSnapshot {
        let m = &self.shared.metrics;
        ResourceStatsSnapshot {
            ads_sent: m.ads_sent.get(),
            ad_failures: m.ad_failures.get(),
            claims_accepted: m.claims_accepted.get(),
            claims_rejected: m.claims_rejected.get(),
            notifications_seen: m.notifications_seen.get(),
            releases: m.releases.get(),
            failovers: m.failovers.get(),
        }
    }

    /// The matchmaker this agent currently advertises to (the leader it
    /// last found, or the configured address).
    pub fn matchmaker_contact(&self) -> String {
        self.shared.current_matchmaker()
    }

    /// Mutate the machine's *current* state without re-advertising — the
    /// matchmaker's copy goes stale until the next heartbeat, exactly the
    /// window the claim-time re-verification exists to cover.
    pub fn update_ad(&self, f: impl FnOnce(&mut ClassAd)) {
        f(&mut self.shared.ad.lock());
    }

    /// Die abruptly: close the listener and stop all threads without
    /// withdrawing the advertisement. The matchmaker keeps matching the
    /// lingering ad until its lease lapses; customers discover the death
    /// when their direct claim dial fails.
    pub fn kill(mut self) {
        self.stop_threads();
    }

    /// Exit gracefully: collapse the lease (re-advertise with an
    /// expiry one second out, the closest the protocol has to a withdraw),
    /// withdraw the stats self-ad the same way — its lease is minutes
    /// long, and leaving it behind would keep the departed agent looking
    /// alive to the view collector (and mute the deadman alert) until it
    /// expired — then stop all threads.
    pub fn shutdown(mut self) {
        let adv = self.shared.build_advertisement(1);
        let _ = wire::send_oneway(
            &self.shared.current_matchmaker(),
            &Message::Advertise(adv),
            &self.shared.cfg.io,
        );
        if self.shared.cfg.publish_self_ad {
            self.shared.publish_self_ad(1);
        }
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.refresher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ResourceAgent {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

impl RaShared {
    /// Assemble the advertisement from current state. Reuses the
    /// outstanding ticket if one exists (see module docs); `lease_secs`
    /// overrides the configured lease for the withdraw path.
    fn build_advertisement(&self, lease_secs: u64) -> Advertisement {
        let ticket = {
            let mut claim = self.claim.lock();
            match claim.outstanding_ticket() {
                Some(t) => t,
                None => {
                    let t = self.issuer.lock().issue();
                    claim.set_ticket(t);
                    t
                }
            }
        };
        Advertisement {
            kind: EntityKind::Provider,
            ad: self.ad.lock().clone(),
            contact: self.contact.clone(),
            ticket: Some(ticket),
            expires_at: wire::unix_now() + lease_secs,
        }
    }

    /// Send the `ResourceAgentStats` self-ad to the matchmaker (best
    /// effort, no retry: the next heartbeat brings the next one).
    /// `lease_secs` is the advertised lease — heartbeats renew with a
    /// generous one, the shutdown path withdraws with 1s.
    fn publish_self_ad(&self, lease_secs: u64) {
        self.metrics
            .claimed
            .set(i64::from(self.claim.lock().is_claimed()));
        let mut ad = self
            .observer
            .build_self_ad(&self_ad_name(&self.cfg.name), schema::RESOURCE_AGENT_STATS);
        ad.set_str("Machine", &self.cfg.name);
        let adv = Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: self.contact.clone(),
            ticket: None,
            expires_at: wire::unix_now() + lease_secs,
        };
        if let Ok(n) = wire::send_oneway(
            &self.current_matchmaker(),
            &Message::Advertise(adv),
            &self.cfg.io,
        ) {
            self.metrics.self_ads_sent.inc();
            self.metrics.wire.sent(n as u64);
        }
    }

    /// The matchmaker this agent currently speaks to.
    fn current_matchmaker(&self) -> String {
        self.matchmaker.lock().clone()
    }

    /// Multi-matchmaker failover: probe the current contact and, if it no
    /// longer answers like the leader (dead socket or a standby's
    /// redirect), walk the configured set for whoever holds the lease.
    /// Single-contact agents skip the probe entirely — the classic
    /// single-matchmaker exchange pattern is untouched.
    fn ensure_matchmaker(&self) {
        if self.cfg.matchmakers.len() < 2 {
            return;
        }
        let current = self.current_matchmaker();
        if failover::probe(&current, &self.cfg.io) == Probe::Leader {
            return;
        }
        if let Some(leader) = failover::find_leader(&self.cfg.matchmakers, &self.cfg.io) {
            if leader != current {
                *self.matchmaker.lock() = leader;
                self.metrics.failovers.inc();
            }
        }
    }
}

fn refresh_loop(shared: &Arc<RaShared>) {
    loop {
        shared.ensure_matchmaker();
        // A claimed machine stops renewing: its ad was withdrawn at match
        // time and must not re-enter the pool until released.
        if !shared.claim.lock().is_claimed() {
            advertise_with_retry(shared);
        }
        // The self-ad renews even while claimed — a claimed machine is
        // exactly when an operator wants to see its telemetry.
        if shared.cfg.publish_self_ad {
            shared.publish_self_ad((3 * shared.cfg.heartbeat.as_secs()).max(300));
        }
        if wire::interruptible_sleep(&shared.shutdown, shared.cfg.heartbeat) {
            return;
        }
    }
}

fn advertise_with_retry(shared: &Arc<RaShared>) {
    let mut attempt = 0u32;
    loop {
        let adv = shared.build_advertisement(shared.cfg.lease.as_secs());
        match wire::send_oneway(
            &shared.current_matchmaker(),
            &Message::Advertise(adv),
            &shared.cfg.io,
        ) {
            Ok(n) => {
                shared.metrics.ads_sent.inc();
                shared.metrics.wire.sent(n as u64);
                return;
            }
            Err(_) => {
                attempt += 1;
                match shared.cfg.backoff.delay(attempt) {
                    Some(d) => {
                        if wire::interruptible_sleep(&shared.shutdown, d) {
                            return;
                        }
                        // The dial failed: the leader may have moved.
                        shared.ensure_matchmaker();
                    }
                    None => {
                        shared.metrics.ad_failures.inc();
                        return;
                    }
                }
            }
        }
    }
}

fn listen_loop(shared: &Arc<RaShared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        serve_peer(shared, stream);
    }
}

/// Serve one direct connection: read messages until the peer closes or
/// goes idle past the read timeout. Claims and releases are quick, so the
/// RA handles peers sequentially — deadlines bound any one peer's hold.
fn serve_peer(shared: &Arc<RaShared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.io.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io.write_timeout));
    let mut dec = matchmaker::framing::FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        loop {
            match dec.next_message_traced() {
                Ok(Some((msg, trace))) => {
                    shared.metrics.wire.frame_in();
                    if !handle_peer_message(shared, &mut stream, msg, trace) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    if let Ok(n) = wire::send(
                        &mut stream,
                        &Message::Error {
                            detail: e.to_string(),
                        },
                    ) {
                        shared.metrics.wire.sent(n as u64);
                    }
                    return;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                shared.metrics.wire.read_bytes(n as u64);
                dec.push(&buf[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Returns `false` when the connection should close. `trace` is the
/// frame's propagated context: claims carry the matchmaker-minted match
/// trace, and the RA's claim verdict is journaled as a child span under
/// it; the `ClaimReply` carries that span's child context back so the
/// customer's side of the claim lands beneath the RA's.
fn handle_peer_message(
    shared: &Arc<RaShared>,
    stream: &mut TcpStream,
    msg: Message,
    trace: Option<TraceContext>,
) -> bool {
    match msg {
        Message::Claim(req) => {
            let span = trace.map(|ctx| ctx.begin_span());
            if let Some(span) = span {
                if let Some(seen) = shared.notified_at.lock().remove(&span.trace_id) {
                    shared
                        .metrics
                        .phase_notify_claim_gap_ms
                        .record(seen.elapsed().as_secs_f64() * 1000.0);
                }
            }
            let customer = req
                .customer_ad
                .get_string("Owner")
                .or_else(|| req.customer_ad.get_string("Name"))
                .unwrap_or("?")
                .to_string();
            let current = shared.ad.lock().clone();
            let reverify_started = Instant::now();
            let (resp, _displaced) = shared.claim.lock().handle_claim(
                &req,
                &current,
                wire::unix_now(),
                |_| false, // this RA never preempts an active claim
            );
            shared
                .metrics
                .phase_reverify_ms
                .record(reverify_started.elapsed().as_secs_f64() * 1000.0);
            if resp.accepted {
                shared.metrics.claims_accepted.inc();
                shared.metrics.claimed.set(1);
                shared.observer.emit_traced(
                    Event::ClaimEstablished {
                        provider: shared.cfg.name.clone(),
                        customer,
                    },
                    span,
                );
            } else {
                shared.metrics.claims_rejected.inc();
                shared.observer.emit_traced(
                    Event::ClaimRejected {
                        provider: shared.cfg.name.clone(),
                        customer,
                        reason: resp
                            .rejection
                            .map(|r| format!("{r:?}"))
                            .unwrap_or_else(|| "unspecified".into()),
                    },
                    span,
                );
            }
            let reply_ctx = span.map(|s| s.child_context());
            match wire::send_traced(stream, &Message::ClaimReply(resp), reply_ctx.as_ref()) {
                Ok(n) => {
                    shared.metrics.wire.sent(n as u64);
                    true
                }
                Err(_) => false,
            }
        }
        Message::Release { .. } => {
            if shared.claim.lock().release().is_some() {
                shared.metrics.releases.inc();
                shared.metrics.claimed.set(0);
            }
            true
        }
        Message::Notify(_) => {
            // Informational on the provider side: the binding event is the
            // customer's direct claim, not this notification — but the
            // arrival instant starts the notify→claim gap clock.
            shared.metrics.notifications_seen.inc();
            if let Some(ctx) = trace {
                let mut notified = shared.notified_at.lock();
                notified.retain(|_, t| t.elapsed() < Duration::from_secs(600));
                notified.insert(ctx.trace_id, Instant::now());
            }
            true
        }
        Message::Error { .. } => false,
        other => {
            let _ = wire::send(
                stream,
                &Message::Error {
                    detail: format!("resource agent cannot serve {}", message_kind(&other)),
                },
            );
            false
        }
    }
}

fn message_kind(msg: &Message) -> &'static str {
    match msg {
        Message::Advertise(_) => "Advertise",
        Message::Notify(_) => "Notify",
        Message::Claim(_) => "Claim",
        Message::ClaimReply(_) => "ClaimReply",
        Message::Release { .. } => "Release",
        Message::Query { .. } => "Query",
        Message::QueryReply { .. } => "QueryReply",
        Message::Error { .. } => "Error",
        Message::ElectionBid { .. } => "ElectionBid",
        Message::LeaderLease { .. } => "LeaderLease",
        Message::FlockQuery { .. } => "FlockQuery",
        Message::FlockOffer { .. } => "FlockOffer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;
    use matchmaker::framing::FrameDecoder;
    use matchmaker::protocol::{ClaimRejection, ClaimRequest};
    use matchmaker::ticket::Ticket;
    use std::time::Instant;

    fn idle_machine_ad() -> ClassAd {
        parse_classad(
            r#"[ Type = "Machine"; Mips = 100; KeyboardIdle = 1000;
                 Constraint = other.Type == "Job" && KeyboardIdle > 300;
                 Rank = 0 ]"#,
        )
        .unwrap()
    }

    fn job_ad() -> ClassAd {
        parse_classad(
            r#"[ Name = "job-0"; Type = "Job"; Owner = "raman";
                 Constraint = other.Type == "Machine"; Rank = 0 ]"#,
        )
        .unwrap()
    }

    /// Capture what the RA advertises by standing in for the matchmaker.
    /// Self-ads (heartbeat telemetry) are skipped: these tests watch the
    /// machine's primary advertisement.
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

    fn spawn_ra(mm_addr: String, heartbeat: Duration) -> ResourceAgent {
        ResourceAgent::spawn(
            ResourceConfig {
                name: "leonardo".into(),
                matchmaker: mm_addr,
                heartbeat,
                backoff: Backoff {
                    max_attempts: 1,
                    ..Backoff::default()
                },
                ..ResourceConfig::default()
            },
            idle_machine_ad(),
        )
        .unwrap()
    }

    #[test]
    fn advertises_and_accepts_direct_claim() {
        let mm = TcpListener::bind("127.0.0.1:0").unwrap();
        let ra = spawn_ra(
            mm.local_addr().unwrap().to_string(),
            Duration::from_secs(3600),
        );
        let adv = recv_one_ad(&mm);
        assert_eq!(adv.ad.get_string("Name"), Some("leonardo"));
        assert_eq!(adv.contact, ra.addr().to_string());
        let ticket = adv.ticket.expect("provider ads carry a ticket");

        let claim = Message::Claim(ClaimRequest {
            ticket,
            customer_ad: job_ad(),
            customer_contact: "127.0.0.1:9".into(),
        });
        let reply =
            wire::request_reply(&ra.addr().to_string(), &claim, &IoConfig::default()).unwrap();
        let Message::ClaimReply(r) = reply else {
            panic!("{reply:?}")
        };
        assert!(r.accepted, "{:?}", r.rejection);
        assert!(ra.is_claimed());
        assert_eq!(ra.stats().claims_accepted, 1);
        ra.shutdown();
    }

    #[test]
    fn stale_state_rejects_claim_and_ticket_survives_renewal() {
        let mm = TcpListener::bind("127.0.0.1:0").unwrap();
        let ra = spawn_ra(
            mm.local_addr().unwrap().to_string(),
            Duration::from_millis(50),
        );
        let first = recv_one_ad(&mm);
        let second = recv_one_ad(&mm);
        assert_eq!(
            first.ticket, second.ticket,
            "lease renewal must not rotate the ticket"
        );

        // The keyboard comes back to life after the ad went out.
        ra.update_ad(|ad| ad.set_int("KeyboardIdle", 5));
        let claim = Message::Claim(ClaimRequest {
            ticket: first.ticket.unwrap(),
            customer_ad: job_ad(),
            customer_contact: "127.0.0.1:9".into(),
        });
        let reply =
            wire::request_reply(&ra.addr().to_string(), &claim, &IoConfig::default()).unwrap();
        let Message::ClaimReply(r) = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(r.rejection, Some(ClaimRejection::ConstraintFailed));
        assert!(!ra.is_claimed());
        // The response carries the *current* ad so the customer sees why.
        assert_eq!(r.provider_ad.get_int("KeyboardIdle"), Some(5));
        ra.shutdown();
    }

    #[test]
    fn bad_ticket_rejected() {
        let mm = TcpListener::bind("127.0.0.1:0").unwrap();
        let ra = spawn_ra(
            mm.local_addr().unwrap().to_string(),
            Duration::from_secs(3600),
        );
        let adv = recv_one_ad(&mm);
        let wrong = Ticket::from_raw(adv.ticket.unwrap().raw().wrapping_add(1));
        let claim = Message::Claim(ClaimRequest {
            ticket: wrong,
            customer_ad: job_ad(),
            customer_contact: "127.0.0.1:9".into(),
        });
        let reply =
            wire::request_reply(&ra.addr().to_string(), &claim, &IoConfig::default()).unwrap();
        let Message::ClaimReply(r) = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(r.rejection, Some(ClaimRejection::BadTicket));
        assert_eq!(ra.stats().claims_rejected, 1);
        ra.shutdown();
    }

    #[test]
    fn unreachable_matchmaker_exhausts_retry_budget() {
        // Bind-then-drop guarantees a dead port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let ra = ResourceAgent::spawn(
            ResourceConfig {
                name: "orphan".into(),
                matchmaker: dead,
                heartbeat: Duration::from_secs(3600),
                backoff: Backoff {
                    initial: Duration::from_millis(5),
                    max_attempts: 2,
                    ..Backoff::default()
                },
                ..ResourceConfig::default()
            },
            idle_machine_ad(),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ra.stats().ad_failures == 0 {
            assert!(Instant::now() < deadline, "retry budget never exhausted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(ra.stats().ads_sent, 0);
        ra.kill();
    }
}
