//! The matchmaker as a long-running TCP daemon.
//!
//! One listener thread accepts connections. A one-shot advertisement —
//! one `Advertise` frame and then the sender's close, within
//! `ONE_SHOT_WINDOW` (1 ms) of accept — is served on that thread and closed;
//! most of a pool's traffic is these heartbeats and job ads. Every other
//! connection goes to a bounded pool of connection-handler threads with
//! the bytes already read, and the stream's read timeout doubles as an
//! idle timeout. Each connection gets its own [`FrameDecoder`] (with the
//! daemon's frame-size guard), and both paths serve frames through one
//! handler, `serve_buffered`. A background ticker runs a
//! negotiation cycle every `cycle_interval` and, in between, as soon as a
//! new or changed job ad is stored, and dials both matched parties'
//! contact addresses to deliver the step-3 notifications — which is why
//! this daemon's advertising protocol demands real `host:port` contacts.
//!
//! Protocol violations never strand a peer: the offending connection gets
//! a structured [`Message::Error`] reply and is then closed — and, when a
//! journal is configured, leaves a `FrameRejected` event with the peer's
//! address and the reason.
//!
//! Observability: the daemon keeps a `condor_obs` metrics registry and
//! publishes a self-ad (`MyType == "MatchmakerStats"`, `DaemonAd = true`)
//! into its own ad store — at spawn, after every periodic cycle (once per
//! `cycle_interval`), and freshly before serving any query that could
//! select it (not a customer-only query, not a constant `false`) — so
//! `Message::Query` with `other.MyType == "MatchmakerStats"` reads live
//! daemon health over the same wire as any other query.

use crate::failover::{find_leader, leader_redirect_detail};
use crate::observe::{self_ad_name, Observer, WireCounters};
use crate::wire::{self, IoConfig, WireError};
use classad::json::to_json;
use classad::ClassAd;
use condor_flock::{FlockManager, QueryOutcome};
use condor_ha::{recover_pool, Election, ElectionConfig, LeaseVerdict, PoolSnapshot, Tick};
use condor_obs::{schema, Event, JournalConfig, TraceContext};
use matchmaker::framing::FrameDecoder;
use matchmaker::negotiate::{Negotiator, NegotiatorConfig, UnmatchedCluster};
use matchmaker::protocol::{
    encode_notify, tag, Advertisement, AdvertisingProtocol, EntityKind, MatchNotification, Message,
    ProtocolError,
};
use matchmaker::query::{Collection, Query};
use matchmaker::service::Matchmaker;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// High-availability tunables: run this daemon as one member of a
/// matchmaker HA set instead of a lone leader.
///
/// An HA daemon boots as a *standby*: it listens one full [`lease`] for
/// the incumbent's heartbeat before contending, redirects agents to the
/// leader it observes, and negotiates only while it holds the lease
/// itself (see `condor_ha::Election` for the protocol). Everything else —
/// sockets, framing, journaling — is identical to a lone daemon.
///
/// [`lease`]: HaConfig::lease
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Contact addresses of the *other* matchmakers in the set. May start
    /// empty and be filled in with [`MatchmakerDaemon::set_ha_peers`] once
    /// ephemeral ports are known.
    pub peers: Vec<String>,
    /// Leader-lease length. The leader heartbeats several times per
    /// lease; a standby waits out a full lease before calling an
    /// election, so failover completes within roughly one lease.
    pub lease: Duration,
    /// Journal to replay on inauguration (last checkpoint plus tail).
    /// `None` replays this daemon's own [`DaemonConfig::journal`] — the
    /// right choice when the HA set shares a journal path on a common
    /// filesystem, and a no-op (recover by re-advertisement alone) when
    /// each member journals privately.
    pub recovery_path: Option<PathBuf>,
}

impl Default for HaConfig {
    fn default() -> Self {
        HaConfig {
            peers: Vec::new(),
            lease: Duration::from_secs(10),
            recovery_path: None,
        }
    }
}

/// Pool-history (CondorView) tunables: run an embedded view collector
/// inside this matchmaker.
///
/// The collector polls the daemon's own ad store for self-ads every
/// [`sample_interval`], folds them into a [`condor_view::HistoryStore`]
/// (pool utilization, match/flock rates, leader epochs, per-daemon
/// gauges, absent tombstones for departed agents), tails the daemon's
/// event journal, and — when [`federate`] is on and flocking is
/// configured — polls each flock peer's matchmaker self-ad so one store
/// renders a multi-pool picture. A `Query` of the `HistorySeries`
/// collection reads the store over the wire; in an HA set every member
/// collects (history survives failover) but standbys redirect queries to
/// the leader.
///
/// [`sample_interval`]: ViewConfig::sample_interval
/// [`federate`]: ViewConfig::federate
#[derive(Debug, Clone)]
pub struct ViewConfig {
    /// Period between collection passes.
    pub sample_interval: Duration,
    /// Checkpoint journal for the history store; `None` keeps history in
    /// memory only (lost on restart). With a journal, a restart recovers
    /// everything up to the last completed pass — at most one
    /// [`sample_interval`](ViewConfig::sample_interval) of loss.
    pub journal: Option<JournalConfig>,
    /// The store's downsampling tiers.
    pub history: condor_view::HistoryConfig,
    /// Also poll flock peers' matchmaker self-ads into per-peer series.
    pub federate: bool,
}

impl Default for ViewConfig {
    fn default() -> Self {
        ViewConfig {
            sample_interval: Duration::from_secs(10),
            journal: None,
            history: condor_view::HistoryConfig::default(),
            federate: true,
        }
    }
}

/// Alerting tunables: run an embedded [`condor_alarm::Monitor`] inside
/// this matchmaker.
///
/// The monitor thread matches every alert rule (each an ordinary classad,
/// see `condor_alarm::Rule`) against live telemetry — the daemon self-ads
/// in the ad store plus, when [`DaemonConfig::view`] is on, the presence
/// and history-summary ads derived from the view collector — every
/// [`interval`]. Raise/clear transitions are journaled as `AlertRaised` /
/// `AlertCleared`, the firing set is advertised in the matchmaker
/// self-ad (`ActiveAlerts`, `ActiveAlertSummary`), and
/// a `Query` of the `AlertState` collection reads the full alert state
/// over the wire.
///
/// [`interval`]: AlarmConfig::interval
#[derive(Debug, Clone)]
pub struct AlarmConfig {
    /// Period between evaluation sweeps. All rule hysteresis
    /// (`ForIntervals` / `ClearIntervals`) counts in units of this.
    pub interval: Duration,
    /// Extra rule ads evaluated alongside (or instead of) the built-in
    /// pack. Ads without the `AlertRuleAd = true` marker are ignored;
    /// malformed rule ads fail the spawn.
    pub rules: Vec<ClassAd>,
    /// Start from `condor_alarm::default_pack()` (matchmaker down, agent
    /// absent, utilization collapse, match-rate stall, lease-expiry
    /// storm, flock peer flapping). Off means only [`rules`] apply.
    ///
    /// [`rules`]: AlarmConfig::rules
    pub default_pack: bool,
    /// How many finest-tier history buckets each presence / summary ad
    /// aggregates when the view collector feeds the monitor.
    pub history_window: usize,
    /// Flap-suppression knobs (window and transition budget).
    pub monitor: condor_alarm::MonitorConfig,
}

impl Default for AlarmConfig {
    fn default() -> Self {
        AlarmConfig {
            interval: Duration::from_secs(10),
            rules: Vec::new(),
            default_pack: true,
            history_window: 6,
            monitor: condor_alarm::MonitorConfig::default(),
        }
    }
}

/// Daemon tunables.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub bind: String,
    /// Connections served concurrently; excess connections are refused
    /// with a [`Message::Error`] and closed immediately.
    pub max_connections: usize,
    /// Socket deadlines for serving connections and dialing notifications.
    pub io: IoConfig,
    /// Period between ticks: the periodic negotiation cycle, which also
    /// attributes rejections, feeds flocking, renews the self-ad and
    /// counts toward `checkpoint_every`. Between ticks, a new or changed
    /// job ad starts an arrival cycle — grants only — as soon as the
    /// previous cycle has finished; arrivals during a cycle are served
    /// together by the next one. Provider ads and lease renewals never
    /// start one: a machine arriving for a waiting job is picked up by the
    /// next tick.
    pub cycle_interval: Duration,
    /// Negotiator tunables for the wrapped service.
    pub negotiator: NegotiatorConfig,
    /// Largest frame a peer may send (see
    /// [`FrameDecoder::with_max_frame_len`]).
    pub max_frame_len: usize,
    /// Demand `host:port` contact addresses in ads (on by default: the
    /// daemon must dial contacts back to deliver notifications).
    pub require_socket_contact: bool,
    /// Daemon name; the self-ad advertises as `<name>#stats`.
    pub name: String,
    /// Event-journal destination; `None` disables journaling.
    pub journal: Option<JournalConfig>,
    /// Checkpoint the ad store into the journal every this many ticks
    /// (one per `cycle_interval`) while leading (`0` disables). Arrival
    /// cycles do not count, so a busy pool checkpoints no more often than
    /// a quiet one. Only meaningful with a journal; a restarting daemon
    /// resumes from the last checkpoint plus the journal tail instead of
    /// an empty store.
    pub checkpoint_every: u64,
    /// Run as one member of a high-availability set; `None` (the
    /// default) is the classic lone matchmaker, leader from birth.
    pub ha: Option<HaConfig>,
    /// Pool federation (flocking): consult these peer pools when a
    /// negotiation cycle leaves autoclusters unmatched, and grant free
    /// local providers to peers' forwarded representatives. `None` (the
    /// default) disables both directions; `Some` with an empty peer list
    /// answers peers' queries without ever forwarding its own.
    pub flock: Option<condor_flock::FlockConfig>,
    /// Embedded pool-history collector (CondorView). `None` (the
    /// default) keeps no history; a `Query` of the `HistorySeries`
    /// collection then gets a structured `Error`.
    pub view: Option<ViewConfig>,
    /// Embedded pool health monitor (alerting). `None` (the default)
    /// evaluates nothing; a `Query` of the `AlertState` collection then
    /// gets a structured `Error`.
    pub alarm: Option<AlarmConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            bind: "127.0.0.1:0".into(),
            max_connections: 64,
            io: IoConfig::default(),
            cycle_interval: Duration::from_secs(2),
            // Live pools attribute match failures out of the box: the
            // daemon serves `MatchAnalysis` queries, journals
            // `CycleRejections`, and advertises top reject reasons. (The library-level
            // `NegotiatorConfig::default()` keeps attribution off so
            // embedded/benchmark negotiators pay nothing.)
            negotiator: NegotiatorConfig {
                attribution: true,
                ..NegotiatorConfig::default()
            },
            max_frame_len: 4 * 1024 * 1024,
            require_socket_contact: true,
            name: "matchmaker".into(),
            journal: None,
            checkpoint_every: 10,
            ha: None,
            flock: None,
            view: None,
            alarm: None,
        }
    }
}

/// The daemon's metric handles — registered once at spawn, updated with
/// relaxed atomics on the hot paths (see `condor_obs::Registry`).
#[derive(Debug)]
struct DaemonMetrics {
    connections_accepted: Arc<condor_obs::Counter>,
    connections_inline: Arc<condor_obs::Counter>,
    connections_refused: Arc<condor_obs::Counter>,
    active_connections: Arc<condor_obs::Gauge>,
    frames_handled: Arc<condor_obs::Counter>,
    frames_rejected: Arc<condor_obs::Counter>,
    error_replies: Arc<condor_obs::Counter>,
    cycles: Arc<condor_obs::Counter>,
    notifications_sent: Arc<condor_obs::Counter>,
    notifications_failed: Arc<condor_obs::Counter>,
    cycle_duration_ms: Arc<condor_obs::WindowedHistogram>,
    phase_queue_wait_ms: Arc<condor_obs::WindowedHistogram>,
    phase_negotiation_ms: Arc<condor_obs::WindowedHistogram>,
    leader_redirects: Arc<condor_obs::Counter>,
    elections_won: Arc<condor_obs::Counter>,
    checkpoints_written: Arc<condor_obs::Counter>,
    flock_queries_sent: Arc<condor_obs::Counter>,
    flock_queries_received: Arc<condor_obs::Counter>,
    flock_matches: Arc<condor_obs::Counter>,
    flock_grants: Arc<condor_obs::Counter>,
    flock_rejects: Arc<condor_obs::Counter>,
    jobs_flocked: Arc<condor_obs::Counter>,
    flock_peers_up: Arc<condor_obs::Gauge>,
    flock_peers_down: Arc<condor_obs::Gauge>,
    flock_peers_non_flocking: Arc<condor_obs::Gauge>,
    wire: WireCounters,
}

impl DaemonMetrics {
    fn new(reg: &condor_obs::Registry) -> Self {
        let window = Duration::from_secs(300);
        DaemonMetrics {
            connections_accepted: reg.counter(schema::CONNECTIONS_ACCEPTED),
            connections_inline: reg.counter(schema::CONNECTIONS_INLINE),
            connections_refused: reg.counter(schema::CONNECTIONS_REFUSED),
            active_connections: reg.gauge(schema::ACTIVE_CONNECTIONS),
            frames_handled: reg.counter(schema::FRAMES_HANDLED),
            frames_rejected: reg.counter(schema::FRAMES_REJECTED),
            error_replies: reg.counter(schema::ERROR_REPLIES),
            cycles: reg.counter(schema::CYCLES),
            notifications_sent: reg.counter(schema::NOTIFICATIONS_SENT),
            notifications_failed: reg.counter(schema::NOTIFICATIONS_FAILED),
            cycle_duration_ms: reg.histogram(schema::CYCLE_DURATION_MS, window),
            phase_queue_wait_ms: reg.histogram(schema::PHASE_QUEUE_WAIT_MS, window),
            phase_negotiation_ms: reg.histogram(schema::PHASE_NEGOTIATION_MS, window),
            leader_redirects: reg.counter(schema::LEADER_REDIRECTS),
            elections_won: reg.counter(schema::ELECTIONS_WON),
            checkpoints_written: reg.counter(schema::CHECKPOINTS_WRITTEN),
            flock_queries_sent: reg.counter(schema::FLOCK_QUERIES_SENT),
            flock_queries_received: reg.counter(schema::FLOCK_QUERIES_RECEIVED),
            flock_matches: reg.counter(schema::FLOCK_MATCHES),
            flock_grants: reg.counter(schema::FLOCK_GRANTS),
            flock_rejects: reg.counter(schema::FLOCK_REJECTS),
            jobs_flocked: reg.counter(schema::JOBS_FLOCKED),
            flock_peers_up: reg.gauge(schema::FLOCK_PEERS_UP),
            flock_peers_down: reg.gauge(schema::FLOCK_PEERS_DOWN),
            flock_peers_non_flocking: reg.gauge(schema::FLOCK_PEERS_NON_FLOCKING),
            wire: WireCounters::new(reg),
        }
    }
}

/// Point-in-time copy of the daemon counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStatsSnapshot {
    /// Connections handed to a connection thread.
    pub connections_accepted: u64,
    /// Connections served and closed on the accept thread: one-shot
    /// advertisements, and connections closed before a whole frame.
    pub connections_inline: u64,
    /// Connections refused because the pool was full.
    pub connections_refused: u64,
    /// Decoded frames dispatched to the service.
    pub frames_handled: u64,
    /// Frames refused: undecodable bytes or out-of-protocol messages.
    pub frames_rejected: u64,
    /// Structured error replies sent before closing a connection.
    pub error_replies: u64,
    /// Negotiation cycles run by the ticker.
    pub cycles: u64,
    /// Match notifications delivered to contact addresses.
    pub notifications_sent: u64,
    /// Notification dials that failed (soft state: costs one cycle).
    pub notifications_failed: u64,
    /// Agent requests answered with a leader redirect while standing by.
    pub leader_redirects: u64,
    /// Elections this daemon has won (inaugurations).
    pub elections_won: u64,
    /// Ad-store checkpoints written into the journal.
    pub checkpoints_written: u64,
    /// Flock queries sent to peer pools.
    pub flock_queries_sent: u64,
    /// Flock queries received from peer pools.
    pub flock_queries_received: u64,
    /// Remote grants relayed to this pool's own customers.
    pub flock_matches: u64,
    /// Local providers granted to peer pools.
    pub flock_grants: u64,
    /// Inbound flock queries answered dry after a loop, hop-budget, or
    /// no-free-provider rejection.
    pub flock_rejects: u64,
}

struct Shared {
    service: Matchmaker,
    cfg: DaemonConfig,
    metrics: DaemonMetrics,
    observer: Observer,
    contact: String,
    shutdown: AtomicBool,
    /// Set once a new or changed job ad is stored (not on a lease
    /// renewal), cleared when the next cycle starts: every arrival during
    /// a cycle folds into one pending flag, so the batch a cycle takes
    /// grows with load. (`std`'s mutex because the ticker waits on it with
    /// `cycle_wake`.)
    request_pending: std::sync::Mutex<bool>,
    cycle_wake: Condvar,
    active: AtomicUsize,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// When each traced customer ad was accepted, keyed by trace id:
    /// consumed at match time to feed the queue-wait phase histogram,
    /// age-pruned every cycle for requests that never match.
    queue_started: Mutex<HashMap<u64, Instant>>,
    /// The latest tick's rejection summary (capped; see
    /// [`rejections_line`]), advertised as `RejectionTopReasons` in the
    /// self-ad. Empty when the last tick left nothing unmatched.
    last_rejections_line: Mutex<String>,
    /// The leader-election state machine: [`Election::solo`] for a lone
    /// matchmaker, a contending standby for an HA set member.
    election: Mutex<Election>,
    /// Standbys that acknowledged our last heartbeat round (leader only).
    standby_count: AtomicUsize,
    /// The flock peer table (empty and inert without
    /// [`DaemonConfig::flock`]). Like the negotiator: not internally
    /// synchronized, held behind the mutex.
    flock: Mutex<FlockManager>,
    /// Hands each cycle's unmatched clusters to the `mm-flock` dialer
    /// thread; `None` when flocking is off (no thread to feed).
    flock_tx: Mutex<Option<mpsc::Sender<Vec<UnmatchedCluster>>>>,
    /// The embedded pool-history collector (`None` without
    /// [`DaemonConfig::view`]). Fed by the `mm-view` thread, read by
    /// `HistorySeries` queries.
    view: Option<condor_view::Collector>,
    /// The embedded alert monitor (`None` without
    /// [`DaemonConfig::alarm`]). Swept by the `mm-alarm` thread, read by
    /// `AlertState` queries and the self-ad publisher.
    alarm: Option<condor_alarm::Monitor>,
}

/// A live matchmaker listening on TCP.
#[derive(Debug)]
pub struct MatchmakerDaemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    election: Option<JoinHandle<()>>,
    flock: Option<JoinHandle<()>>,
    view: Option<JoinHandle<()>>,
    alarm: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl MatchmakerDaemon {
    /// Bind the listener and start the accept and negotiation threads.
    pub fn spawn(mut cfg: DaemonConfig) -> std::io::Result<Self> {
        // Flocking with peers configured needs the negotiator to hand
        // back each cycle's unmatched clusters; pools without peers (or
        // without flocking at all) keep the hook off and pay nothing.
        let flock_peers = cfg.flock.as_ref().is_some_and(|f| !f.peers.is_empty());
        if flock_peers {
            cfg.negotiator.flocking = true;
        }
        let flock = FlockManager::new(cfg.flock.clone().unwrap_or_default());
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        let protocol = AdvertisingProtocol {
            require_socket_contact: cfg.require_socket_contact,
            ..AdvertisingProtocol::default()
        };
        let observer = Observer::new(cfg.journal.clone())?;
        let metrics = DaemonMetrics::new(observer.registry());
        // The history collector recovers its store from its checkpoint
        // journal here, before any thread runs: a restarted view server
        // resumes with at most one sample interval missing.
        let view = cfg
            .view
            .as_ref()
            .map(|vc| condor_view::Collector::new(vc.history.clone(), vc.journal.clone()))
            .transpose()?;
        // A malformed rule ad fails the spawn here, not the first sweep:
        // a pool that boots with alerting on has validated rules.
        let alarm = cfg
            .alarm
            .as_ref()
            .map(|ac| {
                if ac.default_pack {
                    condor_alarm::Monitor::with_default_pack(&ac.rules, ac.monitor.clone())
                } else {
                    condor_alarm::Monitor::new(&ac.rules, ac.monitor.clone())
                }
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))
            })
            .transpose()?;
        let contact = addr.to_string();
        // A lone matchmaker leads from birth; an HA set member boots as a
        // standby and earns the lease (see `condor_ha::Election`).
        let election = match &cfg.ha {
            None => Election::solo(contact.clone()),
            Some(ha) => Election::new(
                ElectionConfig {
                    contact: contact.clone(),
                    peers: ha.peers.clone(),
                    lease_secs: ha.lease.as_secs().max(1),
                },
                wire::unix_now(),
            ),
        };
        let shared = Arc::new(Shared {
            service: Matchmaker::with_protocol(Negotiator::new(cfg.negotiator.clone()), protocol),
            cfg,
            metrics,
            observer,
            contact,
            shutdown: AtomicBool::new(false),
            request_pending: std::sync::Mutex::new(false),
            cycle_wake: Condvar::new(),
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            queue_started: Mutex::new(HashMap::new()),
            last_rejections_line: Mutex::new(String::new()),
            election: Mutex::new(election),
            standby_count: AtomicUsize::new(0),
            flock: Mutex::new(flock),
            flock_tx: Mutex::new(None),
            view,
            alarm,
        });
        shared.observer.emit(Event::AgentRestarted {
            agent: "MatchmakerDaemon".into(),
            name: shared.cfg.name.clone(),
        });
        // A lone matchmaker restarting over an existing journal resumes
        // from its last checkpoint plus tail right now; an HA standby
        // defers recovery until (if ever) it is inaugurated.
        if shared.cfg.ha.is_none() {
            shared.recover_from_journal();
        }
        shared.publish_self_ad();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mm-accept".into())
                .spawn(move || accept_loop(&shared, listener))?
        };
        let ticker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mm-ticker".into())
                .spawn(move || ticker_loop(&shared))?
        };
        let election = match shared.cfg.ha {
            None => None,
            Some(_) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("mm-election".into())
                        .spawn(move || election_loop(&shared))?,
                )
            }
        };
        let flock = if flock_peers {
            let (tx, rx) = mpsc::channel();
            *shared.flock_tx.lock() = Some(tx);
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("mm-flock".into())
                    .spawn(move || flock_loop(&shared, rx))?,
            )
        } else {
            None
        };
        let view = if shared.view.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("mm-view".into())
                    .spawn(move || view_loop(&shared))?,
            )
        } else {
            None
        };
        let alarm = if shared.alarm.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("mm-alarm".into())
                    .spawn(move || alarm_loop(&shared))?,
            )
        } else {
            None
        };
        Ok(MatchmakerDaemon {
            shared,
            addr,
            accept: Some(accept),
            ticker: Some(ticker),
            election,
            flock,
            view,
            alarm,
        })
    }

    /// The bound listen address (dial this as `addr().to_string()`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped thread-safe service (for in-process inspection; remote
    /// parties use the socket).
    pub fn service(&self) -> &Matchmaker {
        &self.shared.service
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DaemonStatsSnapshot {
        let m = &self.shared.metrics;
        DaemonStatsSnapshot {
            connections_accepted: m.connections_accepted.get(),
            connections_inline: m.connections_inline.get(),
            connections_refused: m.connections_refused.get(),
            frames_handled: m.frames_handled.get(),
            frames_rejected: m.frames_rejected.get(),
            error_replies: m.error_replies.get(),
            cycles: m.cycles.get(),
            notifications_sent: m.notifications_sent.get(),
            notifications_failed: m.notifications_failed.get(),
            leader_redirects: m.leader_redirects.get(),
            elections_won: m.elections_won.get(),
            checkpoints_written: m.checkpoints_written.get(),
            flock_queries_sent: m.flock_queries_sent.get(),
            flock_queries_received: m.flock_queries_received.get(),
            flock_matches: m.flock_matches.get(),
            flock_grants: m.flock_grants.get(),
            flock_rejects: m.flock_rejects.get(),
        }
    }

    /// `true` while this daemon holds the pool (always, without HA).
    pub fn is_leader(&self) -> bool {
        self.shared.election.lock().is_leader()
    }

    /// The highest election epoch this daemon has observed or won (0 for
    /// a lone matchmaker).
    pub fn leader_epoch(&self) -> u64 {
        self.shared.election.lock().epoch()
    }

    /// The leader this daemon currently believes in — itself while
    /// leading, the lease holder while standing by, `None` while an
    /// election is unresolved.
    pub fn leader_contact(&self) -> Option<String> {
        self.shared.election.lock().leader().map(String::from)
    }

    /// Replace the HA peer list. HA sets whose members bind ephemeral
    /// ports spawn first and exchange addresses afterwards; call this
    /// within the boot grace (one lease) so the first election sees the
    /// full set. A no-op for a daemon spawned without [`DaemonConfig::ha`].
    pub fn set_ha_peers(&self, peers: Vec<String>) {
        if self.shared.cfg.ha.is_some() {
            self.shared.election.lock().set_peers(peers);
        }
    }

    /// Per-peer flocking rows (empty without [`DaemonConfig::flock`]).
    pub fn flock_peers(&self) -> Vec<condor_flock::PeerSnapshot> {
        self.shared.flock.lock().snapshot()
    }

    /// The embedded history collector, when [`DaemonConfig::view`] is on
    /// (in-process inspection; remote parties query `HistorySeries`).
    pub fn view(&self) -> Option<&condor_view::Collector> {
        self.shared.view.as_ref()
    }

    /// The embedded alert monitor, when [`DaemonConfig::alarm`] is on
    /// (in-process inspection; remote parties query `AlertState`).
    pub fn alarm(&self) -> Option<&condor_alarm::Monitor> {
        self.shared.alarm.as_ref()
    }

    /// Stop accepting, finish in-flight connections, and join every
    /// thread. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        self.shared.wake_ticker(false);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        if let Some(h) = self.election.take() {
            let _ = h.join();
        }
        if let Some(h) = self.view.take() {
            let _ = h.join();
        }
        if let Some(h) = self.alarm.take() {
            let _ = h.join();
        }
        // Dropping the sender disconnects the dialer's queue so it exits
        // even mid-backlog.
        *self.shared.flock_tx.lock() = None;
        if let Some(h) = self.flock.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for h in conns {
            let _ = h.join();
        }
    }
}

impl Drop for MatchmakerDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// Wake the ticker, marking a request pending when `request` is set.
    /// The flag is written under its lock, so a wake-up cannot slip in
    /// between the ticker's last check and its wait.
    fn wake_ticker(&self, request: bool) {
        let mut pending = self
            .request_pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *pending |= request;
        self.cycle_wake.notify_one();
    }

    /// Block the ticker until a request is pending or `deadline` has
    /// passed, then clear the flag. `false` means the daemon is shutting
    /// down.
    fn await_cycle(&self, deadline: Instant) -> bool {
        let mut pending = self
            .request_pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            if *pending || now >= deadline {
                *pending = false;
                return true;
            }
            pending = self
                .cycle_wake
                .wait_timeout(pending, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Answer a `Query` (standbys were redirected before this, so only the
    /// leader serves): the `HistorySeries` and `AlertState` collections
    /// from the view and the alarm, an error when that component is off;
    /// the ad store and `MatchAnalysis` from the service. A query that can
    /// see the self-ad (a provider ad) gets it refreshed first, so the
    /// reply reflects this very moment.
    fn query_reply(&self, q: &Query, now: u64) -> Result<bytes::Bytes, ProtocolError> {
        let off = |c: Collection, component: &str| {
            ProtocolError::BadFrame(format!(
                "no {} collection: this matchmaker runs without `{component}`",
                c.my_type()
            ))
        };
        match q.collection() {
            Some(c @ Collection::HistorySeries) => {
                let view = self.view.as_ref().ok_or_else(|| off(c, "view"))?;
                Ok(self.service.collection_reply(q, &view.series_ads()))
            }
            Some(c @ Collection::AlertState) => {
                let alarm = self.alarm.as_ref().ok_or_else(|| off(c, "alarm"))?;
                Ok(self.service.collection_reply(q, &alarm.state_ads()))
            }
            _ => {
                if q.may_select(EntityKind::Provider) {
                    self.publish_self_ad();
                }
                self.service.query_reply(q, now)
            }
        }
    }

    /// (Re)insert the daemon's self-ad into its own ad store. The lease
    /// outlives three cycle intervals (floor five minutes) so the ad
    /// survives quiet stretches; every refresh renews it.
    fn publish_self_ad(&self) {
        // Fold the peer table into the gauges before the registry
        // snapshot below bakes them into the ad.
        let peer_table = {
            let flock = self.flock.lock();
            if flock.is_enabled() {
                let c = flock.counters();
                self.metrics.flock_peers_up.set(c.peers_up as i64);
                self.metrics.flock_peers_down.set(c.peers_down as i64);
                self.metrics
                    .flock_peers_non_flocking
                    .set(c.peers_non_flocking as i64);
                Some(flock.peer_table())
            } else {
                None
            }
        };
        let mut ad = self
            .observer
            .build_self_ad(&self_ad_name(&self.cfg.name), schema::MATCHMAKER_STATS);
        if let Some(table) = peer_table {
            ad.set_str("FlockPeerTable", &table);
        }
        {
            let line = self.last_rejections_line.lock();
            if !line.is_empty() {
                ad.set_str("RejectionTopReasons", &line);
            }
        }
        // The firing set, severity-sorted. The numeric alert counters
        // (`ActiveAlerts`, `AlertsRaisedTotal`, ...) ride in via the
        // registry snapshot inside `build_self_ad`.
        if let Some(monitor) = &self.alarm {
            let summary = monitor.active_summary();
            if !summary.is_empty() {
                ad.set_str("ActiveAlertSummary", &summary);
            }
        }
        {
            let el = self.election.lock();
            ad.set_bool("IsLeader", el.is_leader());
            ad.set_int("LeaderEpoch", el.epoch() as i64);
            if let Some(leader) = el.leader() {
                ad.set_str("LeaderContact", leader);
            }
        }
        ad.set_int(
            "StandbyCount",
            self.standby_count.load(Ordering::Relaxed) as i64,
        );
        let lease = (3 * self.cfg.cycle_interval.as_secs()).max(300);
        let adv = Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: self.contact.clone(),
            ticket: None,
            expires_at: wire::unix_now() + lease,
        };
        // Failure here means the protocol rejected our own telemetry ad —
        // never fatal to matchmaking itself.
        let _ = self.service.publish_self_ad(adv, wire::unix_now());
    }

    /// Resume the ad store from the recovery journal's last checkpoint
    /// plus tail (both sides of every post-checkpoint match withdrawn —
    /// they are likely mid-claim). Quietly a no-op without a journal or
    /// without a checkpoint in it: soft state recovers those pools by
    /// re-advertisement alone.
    fn recover_from_journal(&self) {
        let path = self
            .cfg
            .ha
            .as_ref()
            .and_then(|ha| ha.recovery_path.clone())
            .or_else(|| self.cfg.journal.as_ref().map(|j| j.path.clone()));
        let Some(path) = path else { return };
        match recover_pool(&path) {
            Ok(rec) => {
                if let Some(store) = rec.adjusted_store() {
                    self.service.restore_state(&store);
                }
            }
            // A missing journal is a first boot; a corrupt checkpoint is
            // journaled so operators see the state loss, then the daemon
            // proceeds empty — agents re-advertise within a heartbeat.
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => self.observer.emit(Event::FrameRejected {
                peer: path.display().to_string(),
                reason: format!("journal recovery failed: {e}"),
            }),
        }
    }
}

/// The election thread for an HA set member: tick the state machine a few
/// times per lease, ship the heartbeats or bids it asks for, and fold the
/// replies back in. Lone matchmakers never run this thread.
fn election_loop(shared: &Arc<Shared>) {
    let lease = shared
        .cfg
        .ha
        .as_ref()
        .map(|ha| ha.lease)
        .unwrap_or(Duration::from_secs(10));
    let tick_every = (lease / 5).max(Duration::from_millis(50));
    // A deterministic per-daemon stagger applied before bidding breaks
    // the symmetry of simultaneous elections: the less-staggered standby
    // usually collects concessions before the other even bids. (A true
    // tie still converges — the election tie-breaks on contact order.)
    let stagger = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        shared.contact.hash(&mut h);
        Duration::from_millis(h.finish() % (tick_every.as_millis().max(1) as u64))
    };
    loop {
        if wire::interruptible_sleep(&shared.shutdown, tick_every) {
            return;
        }
        let action = shared.election.lock().tick(wire::unix_now());
        match action {
            Tick::Wait => {}
            Tick::Lead { epoch, expires_at } => {
                let (leader, peers) = {
                    let el = shared.election.lock();
                    (el.contact().to_string(), el.peers().to_vec())
                };
                let mut standbys = 0usize;
                let mut stepped_down = false;
                for peer in &peers {
                    let heartbeat = Message::LeaderLease {
                        epoch,
                        leader: leader.clone(),
                        expires_at,
                    };
                    // A standby acks with its own lease view; a peer
                    // asserting a higher epoch unseats us on the spot.
                    if let Ok(Message::LeaderLease {
                        epoch: e,
                        leader: l,
                        expires_at: x,
                    }) = wire::request_reply(peer, &heartbeat, &shared.cfg.io)
                    {
                        standbys += 1;
                        if shared.election.lock().observe_lease(e, &l, x)
                            == LeaseVerdict::SteppedDown
                        {
                            stepped_down = true;
                            break;
                        }
                    }
                }
                shared
                    .standby_count
                    .store(if stepped_down { 0 } else { standbys }, Ordering::Relaxed);
                if stepped_down {
                    shared.publish_self_ad();
                }
            }
            Tick::Contend { epoch } => {
                if wire::interruptible_sleep(&shared.shutdown, stagger) {
                    return;
                }
                // The stagger may have let a faster standby win: bid only
                // if the lease is still lapsed.
                if !matches!(
                    shared.election.lock().tick(wire::unix_now()),
                    Tick::Contend { .. }
                ) {
                    continue;
                }
                let (candidate, peers) = {
                    let el = shared.election.lock();
                    (el.contact().to_string(), el.peers().to_vec())
                };
                for peer in &peers {
                    let bid = Message::ElectionBid {
                        epoch,
                        candidate: candidate.clone(),
                    };
                    // Dead peers and pre-HA matchmakers (structured
                    // rejection of tag 11) are concessions: they cannot
                    // out-vote a live candidate, so errors are ignored.
                    if let Ok(Message::LeaderLease {
                        epoch: e,
                        leader: l,
                        expires_at: x,
                    }) = wire::request_reply(peer, &bid, &shared.cfg.io)
                    {
                        shared.election.lock().observe_lease(e, &l, x);
                    }
                }
                let won = shared
                    .election
                    .lock()
                    .try_inaugurate(epoch, wire::unix_now());
                if won {
                    shared.metrics.elections_won.inc();
                    shared.observer.emit(Event::AgentRestarted {
                        agent: "MatchmakerLeader".into(),
                        name: format!("{} epoch {epoch}", shared.cfg.name),
                    });
                    // Inherit the pool: replay the recovery journal, then
                    // advertise leadership so redirected agents find us.
                    shared.recover_from_journal();
                    shared.publish_self_ad();
                }
            }
        }
    }
}

/// How long, measured from accept, the accept thread waits for a new
/// connection to show itself a one-shot advertisement: one whole
/// `Advertise` frame and then the sender's close. Agents dial, write and
/// close at once, so nearly every heartbeat ad is complete well within it.
/// A connection that is not by then goes to a connection thread; no later
/// read extends the wait. New connections queue in the listen backlog
/// meanwhile, so it also bounds how long one slow peer delays the next.
const ONE_SHOT_WINDOW: Duration = Duration::from_millis(1);

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Some((mut stream, dec)) = serve_one_shot(shared, stream) else {
            continue;
        };
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            shared.metrics.connections_refused.inc();
            let _ = stream.set_write_timeout(Some(shared.cfg.io.write_timeout));
            let _ = wire::send(
                &mut stream,
                &Message::Error {
                    detail: "connection limit reached, retry later".into(),
                },
            );
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.metrics.connections_accepted.inc();
        shared.metrics.active_connections.add(1);
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("mm-conn".into())
            .spawn(move || {
                serve_connection(&conn_shared, stream, dec);
                conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                conn_shared.metrics.active_connections.add(-1);
            });
        match handle {
            Ok(h) => {
                let mut conns = shared.conns.lock();
                conns.retain(|h| !h.is_finished());
                conns.push(h);
            }
            Err(_) => {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.metrics.active_connections.add(-1);
            }
        }
    }
}

/// Read a new connection on the accept thread for up to
/// [`ONE_SHOT_WINDOW`]. A connection that sends at most one `Advertise`
/// frame and closes is served here by [`serve_buffered`] and closed: no
/// thread and no `max_connections` slot. Its reply, if any (a rejection
/// or a leader redirect), is written without blocking, so a peer cannot
/// stall the accept thread. Any other tag, a second frame, a length over
/// the frame bound, or the window passing returns the connection at once,
/// blocking again, with a decoder seeded with every byte read.
fn serve_one_shot(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
) -> Option<(TcpStream, FrameDecoder)> {
    let deadline = Instant::now() + ONE_SHOT_WINDOW;
    let max_frame_len = shared.cfg.max_frame_len;
    let mut dec = FrameDecoder::with_max_frame_len(max_frame_len);
    if stream.set_nonblocking(true).is_err() {
        return Some((stream, dec));
    }
    let mut pending = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let closed = loop {
        match stream.read(&mut buf) {
            Ok(0) => break true,
            Ok(n) => {
                shared.metrics.wire.read_bytes(n as u64);
                pending.extend_from_slice(&buf[..n]);
                if !may_be_one_advertise(&pending, max_frame_len) {
                    break false;
                }
            }
            // Poll: a socket read timeout is rounded up to the kernel's
            // timer tick (several milliseconds), coarser than the window.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    break false;
                }
                std::thread::sleep((deadline - now).min(ONE_SHOT_WINDOW / 20));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Reset: serve what the peer sent before it went.
            Err(_) => break true,
        }
    };
    dec.push(&pending);
    if !closed {
        // A socket that cannot block again is broken: drop it.
        return stream
            .set_nonblocking(false)
            .is_ok()
            .then_some((stream, dec));
    }
    shared.metrics.connections_inline.inc();
    serve_buffered(shared, &mut stream, &mut dec);
    None
}

/// Whether `bytes`, all a connection has sent so far, can still be a
/// single `Advertise` frame: a length prefix within `max_frame_len`, the
/// `Advertise` tag, and nothing past the frame's end.
fn may_be_one_advertise(bytes: &[u8], max_frame_len: usize) -> bool {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return true;
    };
    let len = u32::from_be_bytes(*prefix) as usize;
    (1..=max_frame_len).contains(&len)
        && bytes.len() <= 4 + len
        && bytes.get(4).is_none_or(|&t| t == tag::ADVERTISE)
}

/// Socket options for an accepted connection: no Nagle delay on reply
/// frames, and the configured read/write timeouts.
fn arm_accepted(stream: &TcpStream, io: &IoConfig) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io.read_timeout));
    let _ = stream.set_write_timeout(Some(io.write_timeout));
}

/// A connection thread: serve what the accept thread already read, then
/// read and serve until the peer closes, goes idle past the read timeout,
/// or breaks the protocol.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream, mut dec: FrameDecoder) {
    arm_accepted(&stream, &shared.cfg.io);
    let mut buf = [0u8; 16 * 1024];
    loop {
        if !serve_buffered(shared, &mut stream, &mut dec) {
            return;
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
            // Idle past the read timeout: close (clients reconnect per
            // exchange, long-lived silence is a leak, not a session).
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
            Err(_) => return,
        }
    }
}

/// Serve every frame `dec` holds, in order: the one frame handler of both
/// the accept thread and the connection threads. `false` means close the
/// connection: a reply could not be written, or a frame was refused.
fn serve_buffered(shared: &Arc<Shared>, stream: &mut TcpStream, dec: &mut FrameDecoder) -> bool {
    loop {
        let (msg, frame_trace) = match dec.next_message_traced() {
            Ok(Some(frame)) => frame,
            Ok(None) => return true,
            Err(e) => {
                reject_frame(shared, stream, &e.to_string(), None);
                return false;
            }
        };
        shared.metrics.frames_handled.inc();
        shared.metrics.wire.frame_in();
        // HA traffic never reaches the matchmaking service: election
        // frames are folded into the state machine and answered with our
        // lease view, and while standing by every agent-facing request is
        // answered with a leader-redirect error instead (the connection
        // stays open — a redirect is advice, not a violation).
        let ha_reply = match &msg {
            Message::ElectionBid { epoch, candidate } => {
                let (e, l, x) =
                    shared
                        .election
                        .lock()
                        .observe_bid(*epoch, candidate, wire::unix_now());
                Some(Message::LeaderLease {
                    epoch: e,
                    leader: l,
                    expires_at: x,
                })
            }
            Message::LeaderLease {
                epoch,
                leader,
                expires_at,
            } => {
                let mut el = shared.election.lock();
                el.observe_lease(*epoch, leader, *expires_at);
                Some(Message::LeaderLease {
                    epoch: el.epoch(),
                    leader: el.leader().unwrap_or_default().to_string(),
                    expires_at: el.lease_expires(),
                })
            }
            // A solo daemon leads from birth — skip the election lock on
            // the hot advertise path.
            _ if shared.cfg.ha.is_none() => None,
            _ => {
                let el = shared.election.lock();
                if el.is_leader() {
                    None
                } else {
                    shared.metrics.leader_redirects.inc();
                    shared.metrics.error_replies.inc();
                    Some(Message::Error {
                        detail: leader_redirect_detail(
                            el.leader().filter(|l| *l != el.contact()),
                            el.epoch(),
                        ),
                    })
                }
            }
        };
        if let Some(reply) = ha_reply {
            match wire::send(stream, &reply) {
                Ok(n) => shared.metrics.wire.sent(n as u64),
                Err(_) => return false,
            }
            continue;
        }
        // Flock traffic: a peer pool's forwarded representative, answered
        // here before service dispatch (the HA match above already
        // redirected standbys). A daemon with flocking off falls through
        // to the service instead and rejects the message with a
        // structured error — the same degradation a truly pre-flock peer
        // produces by not decoding the tag at all.
        if shared.cfg.flock.is_some() {
            if let Message::FlockQuery {
                origin,
                members,
                rep,
            } = &msg
            {
                let (reply, reply_ctx) =
                    answer_flock_query(shared, origin, *members, rep, frame_trace);
                match wire::send_traced(stream, &reply, reply_ctx.as_ref()) {
                    Ok(n) => shared.metrics.wire.sent(n as u64),
                    Err(_) => return false,
                }
                continue;
            }
        }
        // Journal context, captured before the message moves.
        let ad_info = match &msg {
            Message::Advertise(adv) => Some((
                format!("{:?}", adv.kind),
                adv.ad.get_string("Name").unwrap_or("?").to_string(),
                adv.contact.clone(),
                adv.is_request(),
            )),
            _ => None,
        };
        // Adopt the peer's trace context — or, when this is an
        // advertisement from a pre-tracing peer, mint a fresh trace here:
        // the matchmaker is where a request enters the match lifecycle.
        let (span, store_trace) = if ad_info.is_some() {
            let ctx = frame_trace.unwrap_or_else(TraceContext::mint);
            let span = ctx.begin_span();
            (Some(span), Some(span.child_context()))
        } else {
            (None, None)
        };
        let now = wire::unix_now();
        let handled = match msg {
            Message::Advertise(adv) => shared
                .service
                .admit(adv, now, store_trace)
                .map(|(_, wake)| (None, wake)),
            Message::Query {
                constraint,
                kind,
                projection,
            } => Query::from_message(&constraint, kind, projection)
                .and_then(|q| shared.query_reply(&q, now))
                .map(|reply| (Some(reply), false)),
            msg => shared.service.handle_message(msg, now).map(|r| (r, false)),
        };
        let (reply, wake) = match handled {
            Ok(handled) => handled,
            Err(e) => {
                // Structured rejection, then close: the peer sees why
                // instead of a silent hangup.
                reject_frame(shared, stream, &e.to_string(), frame_trace);
                return false;
            }
        };
        if let Some((kind, name, contact, is_request)) = ad_info {
            shared.observer.emit_traced(
                Event::AdReceived {
                    kind,
                    name,
                    contact,
                },
                span,
            );
            if let Some(span) = span.filter(|_| is_request) {
                shared
                    .queue_started
                    .lock()
                    .insert(span.trace_id, Instant::now());
            }
        }
        if wake {
            shared.wake_ticker(true);
        }
        if let Some(reply) = reply {
            match wire::send_body(stream, &reply) {
                Ok(n) => shared.metrics.wire.sent(n as u64),
                Err(_) => return false,
            }
        }
    }
}

/// Count, journal, and answer a refused frame: the peer gets a structured
/// [`Message::Error`]; the journal gets a `FrameRejected` with the peer's
/// address and the reason. When the offending frame carried a trace, the
/// rejection is journaled under it and the error reply carries it back.
fn reject_frame(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    reason: &str,
    trace: Option<TraceContext>,
) {
    shared.metrics.frames_rejected.inc();
    shared.metrics.error_replies.inc();
    let span = trace.map(|ctx| ctx.begin_span());
    shared.observer.emit_traced(
        Event::FrameRejected {
            peer: stream
                .peer_addr()
                .map_or_else(|_| "?".into(), |a| a.to_string()),
            reason: reason.to_string(),
        },
        span,
    );
    let reply_ctx = span.map(|s| s.child_context());
    if let Ok(n) = wire::send_traced(
        stream,
        &Message::Error {
            detail: reason.to_string(),
        },
        reply_ctx.as_ref(),
    ) {
        shared.metrics.wire.sent(n as u64);
    }
}

/// The self-ad's `RejectionTopReasons` value: the first few clusters'
/// rejection tables, capped so a pathological pool cannot bloat the ad.
fn rejections_line(outcome: &matchmaker::negotiate::CycleOutcome) -> String {
    const MAX_SEGMENTS: usize = 3;
    let mut parts: Vec<String> = outcome
        .rejections
        .iter()
        .take(MAX_SEGMENTS)
        .map(|c| c.encode())
        .collect();
    if outcome.rejections.len() > MAX_SEGMENTS {
        parts.push(format!(
            "+{} more clusters",
            outcome.rejections.len() - MAX_SEGMENTS
        ));
    }
    parts.join(" | ")
}

/// Serve one inbound `FlockQuery`: admit it past the anti-loop checks,
/// try the local free pool, spend any remaining hop budget on this pool's
/// own peers, and answer with a `FlockOffer` (a grant, or dry). The reply
/// context chains the peer's trace so a cross-pool match stitches into
/// one span tree.
fn answer_flock_query(
    shared: &Arc<Shared>,
    origin: &str,
    members: u32,
    rep: &ClassAd,
    trace: Option<TraceContext>,
) -> (Message, Option<TraceContext>) {
    shared.metrics.flock_queries_received.inc();
    let span = trace.map(|ctx| ctx.begin_span());
    let reply_ctx = span.map(|s| s.child_context());
    let dry = Message::FlockOffer {
        pool: shared.contact.clone(),
        grant: None,
    };
    // Loops and spent hop budgets are answered dry rather than with an
    // `Error`: the query was well-formed, this pool just declines it, and
    // the origin's peer table keeps the pool Up.
    let admitted = match condor_flock::admit(rep, &shared.contact) {
        Ok(a) => a,
        Err(_) => {
            shared.metrics.flock_rejects.inc();
            return (dry, reply_ctx);
        }
    };
    let rep_name = rep.get_string("Name").unwrap_or("?").to_string();
    if let Some(grant) = shared.service.flock_match(rep, wire::unix_now()) {
        shared.metrics.flock_grants.inc();
        shared.observer.emit_traced(
            Event::FlockMatchMade {
                request: rep_name,
                offer: grant.ad.get_string("Name").unwrap_or("?").to_string(),
                origin: origin.to_string(),
            },
            span,
        );
        return (
            Message::FlockOffer {
                pool: shared.contact.clone(),
                grant: Some(grant),
            },
            reply_ctx,
        );
    }
    // Nothing free here: chain-forward to our own peers if the hop
    // budget allows, relaying any grant upstream in our own offer.
    if let Some(chained) = condor_flock::stamp_chain(rep, &admitted, &shared.contact) {
        let query_ctx = span.map(|s| s.child_context());
        if let Some((_, grant)) = flock_dial(shared, &chained, members, query_ctx.as_ref()) {
            shared.metrics.flock_grants.inc();
            shared.observer.emit_traced(
                Event::FlockMatchMade {
                    request: rep_name,
                    offer: grant.ad.get_string("Name").unwrap_or("?").to_string(),
                    origin: origin.to_string(),
                },
                span,
            );
            return (
                Message::FlockOffer {
                    pool: shared.contact.clone(),
                    grant: Some(grant),
                },
                reply_ctx,
            );
        }
    }
    shared.metrics.flock_rejects.inc();
    (dry, reply_ctx)
}

/// Dial the eligible peers with an already-stamped representative ad and
/// return the best grant, ranked by the representative's own `Rank`
/// (ties break toward earlier-configured peers). Each dial probes the
/// peer's contact list for its current leader first — a peer pool running
/// HA answers flock queries only at its leader — and the peer table is
/// updated around every exchange.
fn flock_dial(
    shared: &Arc<Shared>,
    stamped: &ClassAd,
    members: u32,
    trace: Option<&TraceContext>,
) -> Option<(String, Advertisement)> {
    let visited: Vec<String> = stamped
        .get_string(condor_flock::ATTR_VISITED)
        .map(|s| {
            s.split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let eligible = shared.flock.lock().eligible(wire::unix_now_ms(), &visited);
    let mut grants: Vec<(String, Advertisement)> = Vec::new();
    for peer in eligible {
        let (contacts, name) = {
            let flock = shared.flock.lock();
            (flock.contacts(peer).to_vec(), flock.name(peer).to_string())
        };
        shared.flock.lock().query_started(peer);
        let outcome = match find_leader(&contacts, &shared.cfg.io) {
            None => QueryOutcome::Failed,
            Some(leader) => {
                let query = Message::FlockQuery {
                    origin: shared.contact.clone(),
                    members,
                    rep: stamped.clone(),
                };
                match wire::request_reply_traced(&leader, &query, trace, &shared.cfg.io) {
                    Ok(exchange) => {
                        shared.metrics.flock_queries_sent.inc();
                        shared.metrics.wire.sent(exchange.bytes_out);
                        shared.metrics.wire.read_bytes(exchange.bytes_in);
                        shared.metrics.wire.frame_in();
                        match exchange.msg {
                            Message::FlockOffer {
                                grant: Some(adv), ..
                            } => {
                                grants.push((name, adv));
                                QueryOutcome::Granted
                            }
                            Message::FlockOffer { grant: None, .. } => QueryOutcome::Dry,
                            _ => QueryOutcome::Failed,
                        }
                    }
                    Err(WireError::Remote(detail)) => {
                        shared.metrics.flock_queries_sent.inc();
                        // A structured rejection of the tag itself marks a
                        // pre-flock peer, permanently skipped; any other
                        // remote error (a redirect mid-election, a protocol
                        // complaint) is a transient failure.
                        if detail.contains("unknown tag") {
                            QueryOutcome::NonFlocking
                        } else {
                            QueryOutcome::Failed
                        }
                    }
                    Err(_) => QueryOutcome::Failed,
                }
            }
        };
        shared
            .flock
            .lock()
            .query_finished(peer, outcome, wire::unix_now_ms());
    }
    let engine = shared.service.match_engine();
    let best = condor_flock::select_grant(stamped, &grants, &engine)?;
    grants.into_iter().nth(best)
}

/// The `mm-flock` dialer thread: drains each cycle's unmatched clusters,
/// forwards one representative per cluster to peer pools, and relays any
/// delegation grant to the representative's customer as an ordinary
/// `Notify` — the claim then runs directly, agent to remote agent.
fn flock_loop(shared: &Arc<Shared>, rx: mpsc::Receiver<Vec<UnmatchedCluster>>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let clusters = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(c) => c,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        for cluster in &clusters {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            flock_one_cluster(shared, cluster);
        }
        // Refresh the self-ad so the peer table reflects this round.
        shared.publish_self_ad();
    }
}

/// Flock one unmatched cluster: stamp its representative with the hop
/// budget, consult the peers, and deliver any grant.
fn flock_one_cluster(shared: &Arc<Shared>, cluster: &UnmatchedCluster) {
    let hop_budget = shared.flock.lock().hop_budget();
    let stamped = condor_flock::stamp_outbound(&cluster.rep_ad, hop_budget, &shared.contact);
    // The flock attempt is a child of the representative's match
    // lifecycle: the FlockQuery and the relayed Notify both carry this
    // span's child context, so the remote grant and the eventual direct
    // claim stitch into the same tree as a local match would.
    let span = cluster.trace.map(|ctx| ctx.begin_span());
    let query_ctx = span.map(|s| s.child_context());
    let Some((peer, grant)) =
        flock_dial(shared, &stamped, cluster.members as u32, query_ctx.as_ref())
    else {
        return;
    };
    let note = MatchNotification {
        own_ad: (*cluster.rep_ad).clone(),
        peer_ad: grant.ad.clone(),
        peer_contact: grant.contact.clone(),
        ticket: grant.ticket,
    };
    let notify_ctx = span.map(|s| s.child_context());
    match wire::send_oneway_traced(
        &cluster.customer_contact,
        &Message::Notify(note),
        notify_ctx.as_ref(),
        &shared.cfg.io,
    ) {
        Ok(n) => {
            shared.metrics.notifications_sent.inc();
            shared.metrics.wire.sent(n as u64);
        }
        Err(_) => {
            // Soft state, same as a local notification failure: the
            // grantor's provider re-advertises on its next heartbeat and
            // the customer retries; nothing to unwind.
            shared.metrics.notifications_failed.inc();
            return;
        }
    }
    shared.metrics.flock_matches.inc();
    shared.metrics.jobs_flocked.inc();
    // The representative found its machine elsewhere: withdraw its ad,
    // exactly as a local match would have.
    shared
        .service
        .withdraw(EntityKind::Customer, &cluster.rep_name);
    shared.observer.emit_traced(
        Event::JobFlocked {
            request: cluster.rep_name.clone(),
            offer: grant.ad.get_string("Name").unwrap_or("?").to_string(),
            peer,
        },
        span,
    );
}

/// The `mm-view` collector thread: every sample interval, poll the
/// daemon's own ad store for self-ads, fold them (plus the tailed event
/// journal and, when federating, each flock peer's matchmaker self-ad)
/// into the history store, and checkpoint the store into its journal.
///
/// Every HA set member runs this loop — history must survive a failover,
/// so standbys collect too — but the standby leader-redirect in
/// `serve_buffered` means only the leader ever *serves* the history.
fn view_loop(shared: &Arc<Shared>) {
    let Some(view) = &shared.view else { return };
    let Some(vc) = shared.cfg.view.as_ref() else {
        return;
    };
    let reg = shared.observer.registry();
    let collections = reg.counter(schema::VIEW_COLLECTIONS);
    let samples = reg.counter(schema::VIEW_SAMPLES);
    let series = reg.gauge(schema::VIEW_SERIES);
    let mut last_observations = view.observations();
    loop {
        if wire::interruptible_sleep(&shared.shutdown, vc.sample_interval) {
            return;
        }
        // Refresh the self-ad first so this pass samples the counters as
        // of now, not as of the last cycle.
        shared.publish_self_ad();
        let now = wire::unix_now();
        let ads = daemon_self_ads(shared, now);
        view.ingest(condor_view::LOCAL_POOL, &ads, now);
        if let Some(jc) = &shared.cfg.journal {
            // The daemon's own event journal: an independent,
            // event-sourced view of the same activity the polled
            // counters report.
            let _ = view.tail_journal(condor_view::LOCAL_POOL, &jc.path, now);
        }
        if vc.federate {
            collect_flock_peers(shared, view, now);
        }
        view.checkpoint(shared.election.lock().epoch());
        // Fold collector health into the registry, so the next pass —
        // and any operator query — sees the view watching itself.
        collections.inc();
        let observations = view.observations();
        samples.add(observations.saturating_sub(last_observations));
        last_observations = observations;
        series.set(view.series_count() as i64);
    }
}

/// The `mm-alarm` monitor thread: every alarm interval, gather the
/// telemetry ads (daemon self-ads from the ad store, plus presence and
/// history-summary ads derived from the view collector when it is on),
/// run one monitor sweep, journal every raise/clear transition, and fold
/// the monitor's counters into the registry so the self-ad advertises
/// them.
///
/// The journal key for a transition is `rule@subject` — the same key the
/// monitor tracks — so replaying the journal reconstructs the exact
/// raise/clear sequence per alert.
fn alarm_loop(shared: &Arc<Shared>) {
    let Some(monitor) = &shared.alarm else { return };
    let Some(ac) = shared.cfg.alarm.as_ref() else {
        return;
    };
    let reg = shared.observer.registry();
    let active = reg.gauge(schema::ACTIVE_ALERTS);
    let raised = reg.counter(schema::ALERTS_RAISED);
    let cleared = reg.counter(schema::ALERTS_CLEARED);
    let rules = reg.gauge(schema::ALERT_RULES);
    let flaps = reg.counter(schema::ALERT_FLAPS_SUPPRESSED);
    let evaluations = reg.counter(schema::ALERT_EVALUATIONS);
    rules.set(monitor.rule_count() as i64);
    let mut last_flaps = 0u64;
    loop {
        if wire::interruptible_sleep(&shared.shutdown, ac.interval) {
            return;
        }
        // Refresh the self-ad first so the sweep judges the matchmaker
        // as of now — a stalled cycle counter, not a stale ad.
        shared.publish_self_ad();
        let now = wire::unix_now();
        let mut telemetry = daemon_self_ads(shared, now);
        if let Some(view) = &shared.view {
            telemetry.extend(condor_alarm::view_telemetry(view, ac.history_window));
        }
        for t in monitor.evaluate(&telemetry, now) {
            let key = format!("{}@{}", t.rule, t.subject);
            if t.raised {
                raised.inc();
                shared.observer.emit(Event::AlertRaised {
                    rule: key,
                    severity: t.severity,
                    detail: t.detail,
                });
            } else {
                cleared.inc();
                shared.observer.emit(Event::AlertCleared {
                    rule: key,
                    severity: t.severity,
                });
            }
        }
        evaluations.inc();
        active.set(monitor.active() as i64);
        let total_flaps = monitor.flaps_suppressed();
        flaps.add(total_flaps.saturating_sub(last_flaps));
        last_flaps = total_flaps;
    }
}

/// All daemon self-ads currently in the matchmaker's own ad store.
fn daemon_self_ads(shared: &Arc<Shared>, now: u64) -> Vec<ClassAd> {
    let mut ads = Vec::new();
    for ty in [
        schema::MATCHMAKER_STATS,
        schema::RESOURCE_AGENT_STATS,
        schema::CUSTOMER_AGENT_STATS,
    ] {
        if let Ok(q) = Query::from_constraint(&condor_obs::self_ad_constraint(ty)) {
            ads.extend(shared.service.query(&q, now));
        }
    }
    ads
}

/// Federated collection: poll each reachable flock peer's matchmaker
/// self-ad into per-peer pool series, so one `HistorySeries` query renders a
/// multi-pool picture. Reuses the flock peer table (and its failure
/// backoff) but speaks plain `Query` — a pre-view peer serves it anyway.
fn collect_flock_peers(shared: &Arc<Shared>, view: &condor_view::Collector, now: u64) {
    let eligible = {
        let flock = shared.flock.lock();
        if !flock.is_enabled() {
            return;
        }
        flock.eligible(wire::unix_now_ms(), &[])
    };
    for peer in eligible {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (contacts, name) = {
            let flock = shared.flock.lock();
            (flock.contacts(peer).to_vec(), flock.name(peer).to_string())
        };
        // Either failure path below tombstones the peer's series: a dead
        // peer's rollups must read as *departed*, not silently stale —
        // otherwise the last sampled values linger as if fresh and the
        // deadman alert never sees a growing absent tail.
        let Some(leader) = find_leader(&contacts, &shared.cfg.io) else {
            view.record_pool_absent(&name, now);
            continue;
        };
        let query = Message::Query {
            constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: None,
            projection: Vec::new(),
        };
        match wire::request_reply(&leader, &query, &shared.cfg.io) {
            Ok(Message::QueryReply { ads }) => view.ingest(&name, &ads, now),
            _ => view.record_pool_absent(&name, now),
        }
    }
}

/// The negotiation thread. A *tick* runs `cycle_interval` after the last
/// tick ended: the periodic cycle, with everything that goes with it —
/// rejection attribution, flocking, self-ad renewal, checkpoints, match
/// list aging. Between ticks, a new or changed job ad wakes an *arrival*
/// cycle that only grants matches, so a busy pool is served per arrival
/// while the per-cycle side work keeps the clock's cadence.
fn ticker_loop(shared: &Arc<Shared>) {
    let interval = shared.cfg.cycle_interval;
    let mut ticks_since_checkpoint = 0u64;
    let mut next_tick = Instant::now() + interval;
    while shared.await_cycle(next_tick) {
        let tick = Instant::now() >= next_tick;
        // Standbys never negotiate — the pool's state lives with the
        // leader — but they keep their own telemetry ad fresh so the
        // in-process stats stay inspectable.
        if !shared.election.lock().is_leader() {
            if tick {
                ticks_since_checkpoint = 0;
                shared.publish_self_ad();
                next_tick = Instant::now() + interval;
            }
            continue;
        }
        let started = Instant::now();
        let mut outcome = if tick {
            shared.service.negotiate(wire::unix_now())
        } else {
            shared.service.negotiate_arrivals(wire::unix_now())
        };
        let duration_ms = started.elapsed().as_secs_f64() * 1000.0;
        // The cycle bridge bumps `cycles`, the totals, and the last-cycle
        // gauges; the duration histogram is ours to record.
        outcome.stats.record(shared.observer.registry());
        shared.metrics.cycle_duration_ms.record(duration_ms);
        if outcome.stats.expired_ads > 0 {
            shared.observer.emit(Event::LeaseExpired {
                expired: outcome.stats.expired_ads as u64,
            });
        }
        shared.observer.emit(Event::CycleCompleted {
            requests: outcome.stats.requests_considered as u64,
            offers: outcome.stats.offers_considered as u64,
            matches: outcome.stats.matches as u64,
            unmatched: outcome.stats.unmatched_requests as u64,
            duration_ms: duration_ms as u64,
            incremental: outcome.stats.incremental_cycles > 0,
        });
        // Attribution (ticks only): journal the full per-cluster breakdown
        // and keep a capped summary for the self-ad. A tick with nothing
        // unmatched clears the summary — the pool's story is "all served".
        if !outcome.rejections.is_empty() {
            shared.observer.emit(Event::CycleRejections {
                cycle: outcome.cycle,
                clusters: outcome.rejections.len() as u64,
                rejected: outcome.stats.rejected_pairings as u64,
                breakdown: outcome
                    .rejections
                    .iter()
                    .map(|c| c.encode())
                    .collect::<Vec<_>>()
                    .join(" | "),
            });
        }
        if tick {
            *shared.last_rejections_line.lock() = rejections_line(&outcome);
        }
        // Flocking: clusters the cycle could not serve locally go to the
        // dialer thread; the cycle itself never blocks on peer sockets.
        // (The vec is empty unless `NegotiatorConfig::flocking` is on and
        // this is a tick.)
        if !outcome.unmatched_clusters.is_empty() {
            if let Some(tx) = &*shared.flock_tx.lock() {
                let _ = tx.send(std::mem::take(&mut outcome.unmatched_clusters));
            }
        }
        for m in &outcome.matches {
            // Span B: the match decision itself, a child of the request's
            // AdReceived span. Queue wait is measured here — ad accepted
            // to matched — against the arrival instant stashed at receive.
            let match_span = m.trace.map(|ctx| ctx.begin_span());
            if let Some(span) = match_span {
                if let Some(arrived) = shared.queue_started.lock().remove(&span.trace_id) {
                    shared
                        .metrics
                        .phase_queue_wait_ms
                        .record(arrived.elapsed().as_secs_f64() * 1000.0);
                }
            }
            shared.observer.emit_traced(
                Event::MatchMade {
                    request: m.request_name.clone(),
                    offer: m.offer_name.clone(),
                },
                match_span,
            );
            // Span C: notification delivery, child of the match span; the
            // Notify frames carry C's child context so both agents' spans
            // land under it.
            let notify_span = match_span.map(|s| s.child_context().begin_span());
            let notify_ctx = notify_span.map(|s| s.child_context());
            // Each party gets its own ad and the other's: encode each once.
            let (request, offer) = (to_json(&m.request_ad), to_json(&m.offer_ad));
            let mut delivered = true;
            for (contact, body) in [
                (
                    &m.provider_contact,
                    encode_notify(
                        &offer,
                        &request,
                        &m.customer_contact,
                        None,
                        notify_ctx.as_ref(),
                    ),
                ),
                (
                    &m.customer_contact,
                    encode_notify(
                        &request,
                        &offer,
                        &m.provider_contact,
                        m.ticket,
                        notify_ctx.as_ref(),
                    ),
                ),
            ] {
                match wire::send_body_oneway(contact, &body, &shared.cfg.io) {
                    Ok(n) => {
                        shared.metrics.notifications_sent.inc();
                        shared.metrics.wire.sent(n as u64);
                    }
                    Err(_) => {
                        // Soft state: an undeliverable notification wastes
                        // this match; both parties re-advertise.
                        shared.metrics.notifications_failed.inc();
                        delivered = false;
                    }
                }
            }
            shared.observer.emit_traced(
                Event::MatchNotified {
                    request: m.request_name.clone(),
                    offer: m.offer_name.clone(),
                    delivered,
                },
                notify_span,
            );
            // Matched-to-notified residency of this cycle.
            shared
                .metrics
                .phase_negotiation_ms
                .record(started.elapsed().as_secs_f64() * 1000.0);
        }
        // Arrival instants for requests that never matched age out here so
        // the map cannot grow without bound under churn.
        shared
            .queue_started
            .lock()
            .retain(|_, t| t.elapsed() < Duration::from_secs(600));
        if !tick {
            continue;
        }
        // Checkpoint cadence: every N ticks the full ad store (plus this
        // tick's matches, for the record) lands in the journal, so a
        // restart or takeover resumes from here instead of empty.
        if shared.cfg.checkpoint_every > 0 && shared.observer.journal().is_some() {
            ticks_since_checkpoint += 1;
            if ticks_since_checkpoint >= shared.cfg.checkpoint_every {
                ticks_since_checkpoint = 0;
                let snap = PoolSnapshot {
                    store: shared.service.snapshot_state(),
                    matches: outcome.matches.clone(),
                };
                let epoch = shared.election.lock().epoch();
                shared.observer.emit(snap.checkpoint_event(epoch));
                shared.metrics.checkpoints_written.inc();
            }
        }
        // Renew the self-ad with the cycles since the last tick folded in;
        // readers that need it fresher get it refreshed per `Query`.
        shared.publish_self_ad();
        next_tick = Instant::now() + interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::protocol::{Advertisement, EntityKind};
    use matchmaker::query::attr_is;
    use std::time::Instant;

    fn machine_adv(name: &str, contact: &str) -> Advertisement {
        Advertisement {
            kind: EntityKind::Provider,
            ad: classad::parse_classad(&format!(
                r#"[ Name = "{name}"; Type = "Machine"; Mips = 100;
                     Constraint = other.Type == "Job"; Rank = 0 ]"#
            ))
            .unwrap(),
            contact: contact.into(),
            ticket: None,
            expires_at: wire::unix_now() + 300,
        }
    }

    fn quiet_daemon() -> MatchmakerDaemon {
        MatchmakerDaemon::spawn(DaemonConfig {
            cycle_interval: Duration::from_secs(3600),
            io: IoConfig {
                read_timeout: Duration::from_millis(400),
                ..IoConfig::default()
            },
            ..DaemonConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn advertise_and_query_over_tcp() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        // The self-ad is in the store from spawn.
        assert_eq!(daemon.service().ad_count(), 1);
        // Stream several ads over one connection, then query over another.
        let mut stream = wire::connect(&addr, &io).unwrap();
        for i in 0..3 {
            wire::send(
                &mut stream,
                &Message::Advertise(machine_adv(&format!("m{i}"), "127.0.0.1:9")),
            )
            .unwrap();
        }
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.service().ad_count() < 4 {
            assert!(Instant::now() < deadline, "ads never arrived");
            std::thread::sleep(Duration::from_millis(10));
        }
        let q = Message::Query {
            constraint: "other.Mips >= 50".into(),
            kind: Some(EntityKind::Provider),
            projection: vec!["Name".into()],
        };
        let reply = wire::request_reply(&addr, &q, &io).unwrap();
        let Message::QueryReply { ads } = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(ads.len(), 3, "the self-ad has no Mips and stays out");
        daemon.shutdown();
        assert_eq!(daemon.stats().frames_handled, 4);
    }

    #[test]
    fn both_ends_of_a_daemon_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let io = IoConfig::default();
        let client = wire::connect(&listener.local_addr().unwrap().to_string(), &io).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        arm_accepted(&accepted, &io);
        assert!(client.nodelay().unwrap(), "dialing side");
        assert!(accepted.nodelay().unwrap(), "daemon side");
    }

    #[test]
    fn self_ad_answers_stats_queries_over_tcp() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let q = Message::Query {
            constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: None,
            projection: vec![],
        };
        let reply = wire::request_reply(&addr, &q, &IoConfig::default()).unwrap();
        let Message::QueryReply { ads } = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(ads.len(), 1);
        let ad = &ads[0];
        assert_eq!(
            ad.get_string("MyType"),
            Some(schema::MATCHMAKER_STATS),
            "{ad}"
        );
        // Refreshed just before the query: our own connection is visible.
        assert_eq!(ad.get_int("ConnectionsAccepted"), Some(1), "{ad}");
        assert_eq!(ad.get_int("ActiveConnections"), Some(1), "{ad}");
        daemon.shutdown();
    }

    #[test]
    fn only_queries_that_can_see_the_self_ad_refresh_it() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        let self_ad_seq = |daemon: &MatchmakerDaemon| {
            let snap = daemon.service().snapshot_state();
            let ad = snap.ads.iter().find(|s| condor_obs::is_daemon_ad(&s.ad));
            ad.expect("the self-ad is stored").seq
        };
        let published = self_ad_seq(&daemon);
        let blind = [
            // The HA/flock leader probe and a stream's acknowledgement.
            crate::failover::probe_query(),
            Message::Query {
                constraint: "false".into(),
                kind: Some(EntityKind::Customer),
                projection: vec![],
            },
            Message::Query {
                constraint: "true".into(),
                kind: Some(EntityKind::Customer),
                projection: vec![],
            },
        ];
        for q in blind.iter().cycle().take(20) {
            let reply = wire::request_reply(&addr, q, &io).unwrap();
            assert!(matches!(&reply, Message::QueryReply { ads } if ads.is_empty()));
        }
        // Each of those connections moved `ConnectionsAccepted`, so a
        // refresh would have stored a changed ad under a new seq.
        assert_eq!(self_ad_seq(&daemon), published);

        let q = Message::Query {
            constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: Some(EntityKind::Provider),
            projection: vec!["ConnectionsAccepted".into()],
        };
        let Ok(Message::QueryReply { ads }) = wire::request_reply(&addr, &q, &io) else {
            panic!("self-ad query failed")
        };
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].get_int("ConnectionsAccepted"), Some(21));
        assert!(self_ad_seq(&daemon) > published);
        daemon.shutdown();
    }

    /// A `Query` of one of the matchmaker's collections over TCP.
    fn collection_query<S: AsRef<str>>(
        addr: &str,
        collection: Collection,
        conjuncts: &[S],
    ) -> Result<Message, WireError> {
        let q = Message::Query {
            constraint: collection.constraint(conjuncts),
            kind: None,
            projection: vec![],
        };
        wire::request_reply(addr, &q, &IoConfig::default())
    }

    #[test]
    fn history_query_over_tcp_returns_series_ads() {
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            cycle_interval: Duration::from_secs(3600),
            io: IoConfig {
                read_timeout: Duration::from_millis(400),
                ..IoConfig::default()
            },
            view: Some(ViewConfig {
                sample_interval: Duration::from_millis(50),
                ..ViewConfig::default()
            }),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        // Let the collector run a couple of passes over the self-ad.
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.view().unwrap().collections() < 2 {
            assert!(Instant::now() < deadline, "collector never ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        let reply = collection_query(
            &addr,
            Collection::HistorySeries,
            &[
                attr_is("Metric", condor_view::metric::MATCH_RATE),
                "other.Tier == 0".into(),
            ],
        )
        .unwrap();
        let Message::QueryReply { ads } = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(ads.len(), 1);
        assert_eq!(
            ads[0].get_string("MyType"),
            Some(condor_view::SERIES_AD_TYPE)
        );
        assert_eq!(
            Collection::HistorySeries.my_type(),
            condor_view::SERIES_AD_TYPE
        );
        assert_eq!(ads[0].get_string("Kind"), Some("Counter"));
        // A malformed constraint earns a structured error, which the
        // client surfaces as a remote failure.
        match collection_query(&addr, Collection::HistorySeries, &["(("]) {
            Err(WireError::Remote(detail)) => {
                assert!(detail.contains("bad query constraint"), "{detail}")
            }
            other => panic!("expected a structured rejection, got {other:?}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn history_query_without_view_earns_structured_error() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        match collection_query(&addr, Collection::HistorySeries, &["true"]) {
            Err(WireError::Remote(detail)) => assert!(
                detail.contains("no HistorySeries collection") && detail.contains("without `view`"),
                "{detail}"
            ),
            other => panic!("expected a structured rejection, got {other:?}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn alert_query_over_tcp_returns_alert_state_ads() {
        // One custom rule that trivially fires against the matchmaker's
        // own self-ad, so the test needs no pool and no dead daemons.
        let rule = classad::parse_classad(
            r#"[ AlertRuleAd = true; Name = "SelfAware"; Severity = "info";
                 Subjects = other.MyType == "MatchmakerStats";
                 Constraint = other.Cycles >= 0 ]"#,
        )
        .unwrap();
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            cycle_interval: Duration::from_secs(3600),
            alarm: Some(AlarmConfig {
                interval: Duration::from_millis(50),
                rules: vec![rule],
                default_pack: false,
                ..AlarmConfig::default()
            }),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.alarm().unwrap().sweeps() < 2 {
            assert!(Instant::now() < deadline, "monitor never swept");
            std::thread::sleep(Duration::from_millis(10));
        }
        let reply =
            collection_query(&addr, Collection::AlertState, &[attr_is("State", "firing")]).unwrap();
        let Message::QueryReply { ads } = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(ads.len(), 1, "{ads:?}");
        assert_eq!(
            ads[0].get_string("MyType"),
            Some(condor_alarm::ALERT_AD_TYPE)
        );
        assert_eq!(
            Collection::AlertState.my_type(),
            condor_alarm::ALERT_AD_TYPE
        );
        assert_eq!(ads[0].get_string("Rule"), Some("SelfAware"));
        assert_eq!(ads[0].get_string("Severity"), Some("info"));
        // The firing set is advertised in the self-ad too.
        let sq = Message::Query {
            constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: None,
            projection: vec![],
        };
        let Ok(Message::QueryReply { ads }) = wire::request_reply(&addr, &sq, &io) else {
            panic!("self-ad query failed")
        };
        assert!(
            ads[0].get_int("ActiveAlerts").unwrap_or(0) >= 1,
            "{}",
            ads[0]
        );
        assert!(
            ads[0]
                .get_string("ActiveAlertSummary")
                .unwrap_or("")
                .contains("info:SelfAware"),
            "{}",
            ads[0]
        );
        // A malformed constraint earns a structured error.
        match collection_query(&addr, Collection::AlertState, &["(("]) {
            Err(WireError::Remote(detail)) => {
                assert!(detail.contains("bad query constraint"), "{detail}")
            }
            other => panic!("expected a structured rejection, got {other:?}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn alert_query_without_alarm_earns_structured_error() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        match collection_query(&addr, Collection::AlertState, &["true"]) {
            Err(WireError::Remote(detail)) => assert!(
                detail.contains("no AlertState collection") && detail.contains("without `alarm`"),
                "{detail}"
            ),
            other => panic!("expected a structured rejection, got {other:?}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn malformed_rule_ads_fail_the_spawn() {
        let bad = classad::parse_classad(
            r#"[ AlertRuleAd = true; Name = "broken"; Severity = "fatal"; Constraint = true ]"#,
        )
        .unwrap();
        let err = MatchmakerDaemon::spawn(DaemonConfig {
            alarm: Some(AlarmConfig {
                rules: vec![bad],
                ..AlarmConfig::default()
            }),
            ..DaemonConfig::default()
        });
        assert!(err.is_err(), "unknown severity must fail validation");
    }

    #[test]
    fn analyze_over_tcp_names_the_failing_clause() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        wire::send_oneway(
            &addr,
            &Message::Advertise(machine_adv("m0", "127.0.0.1:9")),
            &io,
        )
        .unwrap();
        let job = Advertisement {
            kind: EntityKind::Customer,
            ad: classad::parse_classad(
                r#"[ Name = "picky"; Type = "Job"; Owner = "alice";
                     Constraint = other.Type == "Machine" && other.Mips >= 10000;
                     Rank = 0 ]"#,
            )
            .unwrap(),
            contact: "127.0.0.1:9".into(),
            ticket: None,
            expires_at: wire::unix_now() + 300,
        };
        wire::send_oneway(&addr, &Message::Advertise(job), &io).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.service().ad_count() < 3 {
            assert!(Instant::now() < deadline, "ads never arrived");
            std::thread::sleep(Duration::from_millis(10));
        }
        let reply = collection_query(
            &addr,
            Collection::MatchAnalysis,
            &[attr_is("Name", "picky")],
        )
        .unwrap();
        let Message::QueryReply { ads } = reply else {
            panic!("{reply:?}")
        };
        let [ad] = &ads[..] else {
            panic!("one analysis: {ads:?}")
        };
        assert_eq!(ad.get_string("MyType"), Some("MatchAnalysis"), "{ad}");
        assert_eq!(ad.get("Found").unwrap().to_string(), "true", "{ad}");
        assert_eq!(ad.get_int("MatchesNow"), Some(0), "{ad}");
        assert_eq!(
            ad.get_string("FailingClause"),
            Some("other.Mips >= 10000"),
            "{ad}"
        );
        daemon.shutdown();
    }

    #[test]
    fn symbolic_contact_rejected_with_error_reply() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let err = wire::request_reply(
            &addr,
            &Message::Advertise(machine_adv("m", "leonardo")),
            &IoConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref d) if d.contains("leonardo")),
            "{err}"
        );
        daemon.shutdown();
        assert_eq!(daemon.stats().error_replies, 1);
        assert_eq!(daemon.stats().frames_rejected, 1);
        assert_eq!(
            daemon.service().ad_count(),
            1,
            "only the self-ad; the bad ad was refused"
        );
    }

    #[test]
    fn rejected_frames_land_in_the_journal_with_peer_and_reason() {
        let dir = std::env::temp_dir().join(format!("mm-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal_path = dir.join("journal.jsonl");
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            cycle_interval: Duration::from_secs(3600),
            journal: Some(JournalConfig::new(journal_path.clone())),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        // A well-formed frame the matchmaker endpoint must refuse.
        let release = Message::Release {
            ticket: matchmaker::ticket::Ticket::from_raw(7),
        };
        let err = wire::request_reply(&addr, &release, &IoConfig::default()).unwrap_err();
        assert!(matches!(err, WireError::Remote(_)), "{err}");
        daemon.shutdown();
        let records = condor_obs::replay(&journal_path).unwrap();
        let rejection = records
            .iter()
            .find_map(|r| match &r.event {
                Event::FrameRejected { peer, reason } => Some((peer.clone(), reason.clone())),
                _ => None,
            })
            .expect("a FrameRejected event is journaled");
        assert!(
            rejection.0.contains(':'),
            "peer is an addr: {}",
            rejection.0
        );
        assert!(
            rejection.1.contains("Release"),
            "reason names the offense: {}",
            rejection.1
        );
        // The restart marker precedes it.
        assert!(matches!(
            records[0].event,
            Event::AgentRestarted { ref agent, .. } if agent == "MatchmakerDaemon"
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    use crate::wire::WireError;

    #[test]
    fn connection_limit_refuses_with_error() {
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            max_connections: 0,
            cycle_interval: Duration::from_secs(3600),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let err = wire::request_reply(
            &addr,
            &Message::Query {
                constraint: "true".into(),
                kind: None,
                projection: vec![],
            },
            &IoConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref d) if d.contains("limit")),
            "{err}"
        );
        daemon.shutdown();
        assert_eq!(daemon.stats().connections_refused, 1);
        assert_eq!(daemon.stats().connections_accepted, 0);
    }

    fn job_adv(name: &str, contact: &str) -> Advertisement {
        Advertisement {
            kind: EntityKind::Customer,
            ad: classad::parse_classad(&format!(
                r#"[ Name = "{name}"; Type = "Job"; Owner = "alice";
                     Constraint = other.Type == "Machine"; Rank = 0 ]"#
            ))
            .unwrap(),
            contact: contact.into(),
            ticket: None,
            expires_at: wire::unix_now() + 300,
        }
    }

    /// A contact that takes any number of notifications and reads none.
    fn notify_sink() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || listener.incoming().for_each(drop));
        addr
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn wait_for_ads(daemon: &MatchmakerDaemon, count: usize) {
        wait_until(&format!("store never reached {count} ads"), || {
            daemon.service().ad_count() == count
        });
    }

    #[test]
    fn a_stored_job_is_negotiated_without_waiting_for_the_interval() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        let machine_contact = notify_sink();
        let customer = TcpListener::bind("127.0.0.1:0").unwrap();
        let customer_contact = customer.local_addr().unwrap().to_string();
        wire::send_oneway(
            &addr,
            &Message::Advertise(machine_adv("m0", &machine_contact)),
            &io,
        )
        .unwrap();
        wait_for_ads(&daemon, 2);
        wire::send_oneway(
            &addr,
            &Message::Advertise(job_adv("j0", &customer_contact)),
            &io,
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        customer.set_nonblocking(true).unwrap();
        let mut stream = loop {
            match customer.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "no Notify within 2 s");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("{e}"),
            }
        };
        stream.set_nonblocking(false).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let msg = wire::recv(&mut stream, &mut FrameDecoder::new(), deadline).unwrap();
        let Message::Notify(note) = msg else {
            panic!("{msg:?}")
        };
        assert_eq!(note.peer_contact, machine_contact);
        daemon.shutdown();
        assert_eq!(daemon.stats().cycles, 1, "one arrival, one cycle");
    }

    #[test]
    fn provider_ads_never_start_a_cycle() {
        let mut daemon = quiet_daemon();
        let mut stream = wire::connect(&daemon.addr().to_string(), &IoConfig::default()).unwrap();
        for i in 0..200 {
            wire::send(
                &mut stream,
                &Message::Advertise(machine_adv(&format!("m{i}"), "127.0.0.1:9")),
            )
            .unwrap();
        }
        drop(stream);
        wait_for_ads(&daemon, 201);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(daemon.stats().cycles, 0);
        daemon.shutdown();
    }

    #[test]
    fn a_renewed_job_starts_no_cycle() {
        let mut daemon = quiet_daemon();
        let mut stream = wire::connect(&daemon.addr().to_string(), &IoConfig::default()).unwrap();
        let until = |done: &dyn Fn(DaemonStatsSnapshot) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done(daemon.stats()) {
                assert!(Instant::now() < deadline, "{:?}", daemon.stats());
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // No machine: the job waits, as an unmatchable one would, and its
        // agent's heartbeats re-advertise it unchanged.
        for _ in 0..50 {
            wire::send(
                &mut stream,
                &Message::Advertise(job_adv("j0", "127.0.0.1:9")),
            )
            .unwrap();
        }
        until(&|s| s.frames_handled == 50);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(daemon.stats().cycles, 1, "the first arrival only");
        // That arrival cycle attributed nothing: the tick does that.
        let analysis = daemon.service().analyze("j0", wire::unix_now());
        assert!(
            analysis.get("LastCycleRejections").is_none(),
            "{analysis:?}"
        );
        // A changed job is new work.
        wire::send(
            &mut stream,
            &Message::Advertise(job_adv("j0", "127.0.0.1:10")),
        )
        .unwrap();
        until(&|s| s.cycles == 2);
        drop(stream);
        daemon.shutdown();
    }

    #[test]
    fn shutdown_wakes_the_waiting_ticker() {
        let mut daemon = quiet_daemon();
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        daemon.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "shutdown took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn checkpoints_follow_the_clock_not_the_cycle_count() {
        const JOBS: usize = 50;
        let dir = std::env::temp_dir().join(format!("mm-ckpt-cadence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            cycle_interval: Duration::from_millis(200),
            checkpoint_every: 2,
            journal: Some(JournalConfig::new(dir.join("journal.jsonl"))),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        let sink = notify_sink();
        let mut stream = wire::connect(&addr, &io).unwrap();
        for i in 0..JOBS {
            wire::send(
                &mut stream,
                &Message::Advertise(machine_adv(&format!("m{i}"), &sink)),
            )
            .unwrap();
        }
        drop(stream);
        wait_for_ads(&daemon, 1 + JOBS);
        // One job at a time, each matched before the next arrives: a
        // cycle per job.
        for i in 0..JOBS {
            wire::send_oneway(
                &addr,
                &Message::Advertise(job_adv(&format!("j{i}"), &sink)),
                &io,
            )
            .unwrap();
            wait_for_ads(&daemon, JOBS - i);
        }
        let stats = daemon.stats();
        let elapsed = started.elapsed();
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(stats.cycles >= JOBS as u64, "{stats:?}");
        let bound = elapsed.as_millis().div_ceil(400) as u64 + 1;
        assert!(
            stats.checkpoints_written <= bound,
            "{} checkpoints in {elapsed:?} (bound {bound})",
            stats.checkpoints_written
        );
    }

    #[test]
    fn only_one_shot_ads_are_served_on_the_accept_thread() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        wire::send_oneway(
            &addr,
            &Message::Advertise(machine_adv("m0", "127.0.0.1:9")),
            &io,
        )
        .unwrap();
        wait_for_ads(&daemon, 2);
        let s = daemon.stats();
        assert_eq!((s.connections_inline, s.connections_accepted), (1, 0));

        // A query, and two ads streamed down one connection, each take a
        // connection thread.
        let q = Message::Query {
            constraint: attr_is("Name", "m0"),
            kind: Some(EntityKind::Provider),
            projection: vec![],
        };
        assert!(matches!(
            wire::request_reply(&addr, &q, &io).unwrap(),
            Message::QueryReply { ads } if ads.len() == 1
        ));
        let mut stream = wire::connect(&addr, &io).unwrap();
        for name in ["m1", "m2"] {
            wire::send(
                &mut stream,
                &Message::Advertise(machine_adv(name, "127.0.0.1:9")),
            )
            .unwrap();
        }
        drop(stream);
        wait_for_ads(&daemon, 4);
        wait_until("the stream's thread never finished", || {
            daemon.shared.active.load(Ordering::SeqCst) == 0
        });
        let s = daemon.stats();
        assert_eq!((s.connections_inline, s.connections_accepted), (1, 2));
        daemon.shutdown();
    }

    #[test]
    fn a_trickling_peer_delays_a_one_shot_ad_by_at_most_the_window() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        // A whole Advertise frame, one byte every 0.5 ms: over half a second.
        let mut padded = machine_adv("slow", "127.0.0.1:9");
        padded.ad.set_str("Pad", &"x".repeat(1000));
        let frame = matchmaker::framing::encode_framed(&Message::Advertise(padded));
        // Connected first, so accepted first: the one-shot ad below
        // queues behind it.
        let mut slow = wire::connect(&addr, &io).unwrap();
        let trickle = std::thread::spawn(move || {
            use std::io::Write;
            for b in frame.iter() {
                slow.write_all(&[*b]).unwrap();
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let sent = Instant::now();
        wire::send_oneway(
            &addr,
            &Message::Advertise(machine_adv("fast", "127.0.0.1:9")),
            &io,
        )
        .unwrap();
        let stored = |name: &str| {
            daemon
                .service()
                .read_store(|s| s.get(EntityKind::Provider, name).is_some())
        };
        wait_until("the one-shot ad was never stored", || stored("fast"));
        let waited = sent.elapsed();
        assert!(
            waited < ONE_SHOT_WINDOW + Duration::from_millis(100),
            "the one-shot ad waited {waited:?} behind a trickling peer"
        );
        trickle.join().unwrap();
        wait_until("the trickled ad was never stored", || stored("slow"));
        let s = daemon.stats();
        assert_eq!((s.connections_inline, s.connections_accepted), (1, 1));
        daemon.shutdown();
    }

    #[test]
    fn an_advertise_then_a_query_on_one_connection_are_answered_in_order() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let io = IoConfig::default();
        // The query either follows at once or after the one-shot window.
        for (i, pause) in [Duration::ZERO, 5 * ONE_SHOT_WINDOW]
            .into_iter()
            .enumerate()
        {
            let name = format!("m{i}");
            let mut stream = wire::connect(&addr, &io).unwrap();
            wire::send(
                &mut stream,
                &Message::Advertise(machine_adv(&name, "127.0.0.1:9")),
            )
            .unwrap();
            std::thread::sleep(pause);
            let q = Message::Query {
                constraint: attr_is("Name", &name),
                kind: Some(EntityKind::Provider),
                projection: vec!["Name".into()],
            };
            wire::send(&mut stream, &q).unwrap();
            let reply = wire::recv(
                &mut stream,
                &mut FrameDecoder::new(),
                Instant::now() + Duration::from_secs(5),
            )
            .unwrap();
            let Message::QueryReply { ads } = reply else {
                panic!("{reply:?}")
            };
            assert_eq!(ads.len(), 1, "the ad was stored before the query ran");
            assert_eq!(ads[0].get_string("Name"), Some(name.as_str()));
        }
        daemon.shutdown();
        assert_eq!(daemon.stats().connections_inline, 0);
    }

    #[test]
    fn a_rejected_one_shot_ad_gets_its_error_reply_and_journal_event() {
        let dir = std::env::temp_dir().join(format!("mm-inline-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal_path = dir.join("journal.jsonl");
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            cycle_interval: Duration::from_secs(3600),
            journal: Some(JournalConfig::new(journal_path.clone())),
            ..DaemonConfig::default()
        })
        .unwrap();
        let io = IoConfig::default();
        let mut stream = wire::connect(&daemon.addr().to_string(), &io).unwrap();
        wire::send(
            &mut stream,
            &Message::Advertise(machine_adv("m", "leonardo")),
        )
        .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let err = wire::recv(
            &mut stream,
            &mut FrameDecoder::new(),
            Instant::now() + Duration::from_secs(5),
        )
        .unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref d) if d.contains("leonardo")),
            "{err}"
        );
        daemon.shutdown();
        let s = daemon.stats();
        assert_eq!((s.connections_inline, s.connections_accepted), (1, 0));
        assert_eq!((s.frames_rejected, s.error_replies), (1, 1));
        let records = condor_obs::replay(&journal_path).unwrap();
        let (peer, reason) = records
            .iter()
            .find_map(|r| match &r.event {
                Event::FrameRejected { peer, reason } => Some((peer.clone(), reason.clone())),
                _ => None,
            })
            .expect("a FrameRejected event is journaled");
        assert!(peer.contains(':'), "peer is an addr: {peer}");
        assert!(reason.contains("leonardo"), "{reason}");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Finding 6: agents started together heartbeat in step, and before
    /// one-shot ads were served on the accept thread the bursts overran
    /// `max_connections` and their ads were lost.
    #[test]
    fn heartbeats_started_together_are_never_refused() {
        use crate::resource::{ResourceAgent, ResourceConfig};
        const AGENTS: usize = 64;
        let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
            max_connections: 8,
            cycle_interval: Duration::from_secs(3600),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let heartbeat = Duration::from_millis(100);
        let agents: Vec<ResourceAgent> = (0..AGENTS)
            .map(|i| {
                let ad = classad::parse_classad(
                    r#"[ Type = "Machine"; Mips = 100; Constraint = other.Type == "Job"; Rank = 0 ]"#,
                )
                .unwrap();
                ResourceAgent::spawn(
                    ResourceConfig {
                        name: format!("m{i}"),
                        matchmaker: addr.clone(),
                        heartbeat,
                        ticket_seed: i as u64 + 1,
                        ..ResourceConfig::default()
                    },
                    ad,
                )
                .unwrap()
            })
            .collect();
        std::thread::sleep(10 * heartbeat);
        let machines = Query::from_constraint(r#"other.Type == "Machine""#).unwrap();
        let stored = daemon.service().query(&machines, wire::unix_now()).len();
        for agent in agents {
            agent.kill();
        }
        daemon.shutdown();
        let s = daemon.stats();
        assert_eq!(s.connections_refused, 0, "{s:?}");
        assert_eq!(stored, AGENTS);
        assert!(s.connections_inline > 0, "{s:?}");
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let mut daemon = quiet_daemon();
        let addr = daemon.addr().to_string();
        let _ = wire::send_oneway(
            &addr,
            &Message::Advertise(machine_adv("m", "127.0.0.1:9")),
            &IoConfig::default(),
        );
        daemon.shutdown();
        daemon.shutdown();
        // Post-shutdown dials fail (listener gone).
        assert!(wire::connect(&addr, &IoConfig::default()).is_err());
    }
}
