//! What the two live agents share around their protocol cores: the
//! listener they are reached on, the matchmaker they speak to (following
//! leader redirects in an HA set), their observer, and their self-ad.

use crate::failover::{self, Probe};
use crate::observe::{self_ad_name, Observer, WireCounters};
use crate::wire::{self, IoConfig};
use condor_obs::{schema, Counter, Event, JournalConfig, TraceContext};
use matchmaker::protocol::{Advertisement, ClaimResponse, EntityKind, Message};
use parking_lot::Mutex;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One live agent's link to the pool; see the module docs.
#[derive(Debug)]
pub(crate) struct AgentLink {
    /// The listener's address: the agent's advertised contact.
    pub addr: SocketAddr,
    /// `addr` as the contact string ads carry.
    pub contact: String,
    pub io: IoConfig,
    matchmakers: Vec<String>,
    /// The matchmaker currently advertised to — rewritten by
    /// [`AgentLink::ensure_matchmaker`] when the leader moves.
    matchmaker: Mutex<String>,
    pub shutdown: AtomicBool,
    pub observer: Observer,
    pub wire: WireCounters,
    pub failovers: Arc<Counter>,
    self_ads_sent: Arc<Counter>,
}

impl AgentLink {
    /// Bind the agent's listener on `bind` and open its observer; the
    /// journal's first record says `agent` `name` (re)started. The agent
    /// speaks to the first of `matchmakers`, or else to `matchmaker`.
    pub(crate) fn bind(
        (agent, name): (&str, &str),
        bind: &str,
        matchmaker: &str,
        matchmakers: &[String],
        io: &IoConfig,
        journal: Option<JournalConfig>,
    ) -> std::io::Result<(AgentLink, TcpListener)> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let observer = Observer::new(journal)?;
        let reg = observer.registry();
        let link = AgentLink {
            addr,
            contact: addr.to_string(),
            io: io.clone(),
            matchmakers: matchmakers.to_vec(),
            matchmaker: Mutex::new(
                matchmakers
                    .first()
                    .map_or(matchmaker, String::as_str)
                    .into(),
            ),
            shutdown: AtomicBool::new(false),
            wire: WireCounters::new(reg),
            failovers: reg.counter(schema::MATCHMAKER_FAILOVERS),
            self_ads_sent: reg.counter(schema::SELF_ADS_SENT),
            observer,
        };
        link.observer.emit(Event::AgentRestarted {
            agent: agent.into(),
            name: name.into(),
        });
        Ok((link, listener))
    }

    /// The matchmaker this agent currently speaks to.
    pub(crate) fn matchmaker(&self) -> String {
        self.matchmaker.lock().clone()
    }

    /// Multi-matchmaker failover: probe the current contact and, if it no
    /// longer answers like the leader (dead socket or a standby's
    /// redirect), walk the configured set for whoever holds the lease.
    /// Single-contact agents skip the probe entirely — the classic
    /// single-matchmaker exchange pattern is untouched.
    pub(crate) fn ensure_matchmaker(&self) {
        if self.matchmakers.len() < 2 {
            return;
        }
        let current = self.matchmaker();
        if failover::probe(&current, &self.io) == Probe::Leader {
            return;
        }
        if let Some(leader) = failover::find_leader(&self.matchmakers, &self.io) {
            if leader != current {
                *self.matchmaker.lock() = leader;
                self.failovers.inc();
            }
        }
    }

    /// Send one advertisement to the current matchmaker; `true` if sent.
    pub(crate) fn advertise(&self, adv: Advertisement, trace: Option<&TraceContext>) -> bool {
        let msg = Message::Advertise(adv);
        let sent = wire::send_oneway_traced(&self.matchmaker(), &msg, trace, &self.io);
        if let Ok(n) = sent {
            self.wire.sent(n as u64);
        }
        sent.is_ok()
    }

    /// Send the agent's self-ad (best effort, no retry: the next
    /// heartbeat brings the next one). `attr = value` names what the
    /// agent stands for; `lease_secs` is the advertised lease.
    pub(crate) fn publish_self_ad(
        &self,
        name: &str,
        my_type: &str,
        kind: EntityKind,
        (attr, value): (&str, &str),
        lease_secs: u64,
    ) {
        let mut ad = self.observer.build_self_ad(&self_ad_name(name), my_type);
        ad.set_str(attr, value);
        let adv = Advertisement {
            kind,
            ad,
            contact: self.contact.clone(),
            ticket: None,
            expires_at: wire::unix_now() + lease_secs,
        };
        if self.advertise(adv, None) {
            self.self_ads_sent.inc();
        }
    }

    /// Accept connections until shutdown, handing each to `serve`.
    pub(crate) fn accept_loop(&self, listener: TcpListener, mut serve: impl FnMut(TcpStream)) {
        loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            serve(stream);
        }
    }

    /// Raise the shutdown flag and wake the accept loop.
    pub(crate) fn stop(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// The journal event for a claim verdict, on either side of the claim.
pub(crate) fn claim_event(resp: &ClaimResponse, provider: String, customer: String) -> Event {
    if resp.accepted {
        return Event::ClaimEstablished { provider, customer };
    }
    let reason = resp.rejection.map(|r| format!("{r:?}"));
    Event::ClaimRejected {
        provider,
        customer,
        reason: reason.unwrap_or_else(|| "unspecified".into()),
    }
}
