//! The system under test, brought up the way each workload needs it: a
//! real [`MatchmakerDaemon`] on loopback with `DaemonConfig::default()`
//! (only `cycle_interval` set), and behind it either real
//! [`ResourceAgent`]s or the in-driver machine *farm*.

use crate::driver::Net;
use crate::gen::{machine_name, Inputs};
use classad::ClassAd;
use condor_pool::wire::{self, WireError};
use condor_pool::{DaemonConfig, MatchmakerDaemon, ResourceAgent, ResourceConfig};
use matchmaker::claim::ClaimHandler;
use matchmaker::protocol::{Advertisement, ClaimRequest, ClaimResponse, EntityKind, Message};
use matchmaker::ticket::TicketIssuer;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Lease on every ad the driver sends: far beyond any run.
const LEASE_SECS: u64 = 3600;

/// How long the matchmaker may take to work through the set-up stream.
const LOAD_LIMIT: Duration = Duration::from_secs(120);

/// Heartbeat of the real resource agents in `fig3_paced`.
pub const RA_HEARTBEAT: Duration = Duration::from_millis(250);

/// A contact that resolves but is never dialed (ads of pools without jobs).
pub const UNDIALED_CONTACT: &str = "127.0.0.1:9";

/// A provider advertisement of `ad` with the driver's long lease.
pub fn provider_adv(ad: ClassAd, contact: &str, ticket: Option<matchmaker::Ticket>) -> Message {
    Message::Advertise(Advertisement {
        kind: EntityKind::Provider,
        ad,
        contact: contact.into(),
        ticket,
        expires_at: wire::unix_now() + LEASE_SECS,
    })
}

/// A customer advertisement of `ad`, notified at `contact`.
pub fn customer_adv(ad: ClassAd, contact: &str) -> Message {
    Message::Advertise(Advertisement {
        kind: EntityKind::Customer,
        ad,
        contact: contact.into(),
        ticket: None,
        expires_at: wire::unix_now() + LEASE_SECS,
    })
}

struct FarmMachine {
    ad: ClassAd,
    handler: ClaimHandler,
    issuer: TicketIssuer,
}

/// Synthetic machines served by the driver: one listener is the contact
/// of every machine, each machine has its own [`ClaimHandler`] and
/// [`TicketIssuer`] — the provider half of the claiming protocol without
/// the agents' heartbeat timers.
pub struct Farm {
    machines: Vec<FarmMachine>,
    contact: String,
}

impl Farm {
    /// A farm of the generated machines, reachable at `contact`.
    pub fn new(inputs: &Inputs, contact: String, seed: u64) -> Farm {
        Farm {
            machines: inputs
                .machines
                .iter()
                .enumerate()
                .map(|(i, ad)| FarmMachine {
                    ad: ad.clone(),
                    handler: ClaimHandler::new(),
                    issuer: TicketIssuer::new(seed.wrapping_add(i as u64)),
                })
                .collect(),
            contact,
        }
    }

    /// The advertisement of machine `i`, under its outstanding ticket or —
    /// once a claim has consumed that — a fresh one.
    pub fn advertise(&mut self, i: usize) -> Message {
        let m = &mut self.machines[i];
        let ticket = m.handler.outstanding_ticket().unwrap_or_else(|| {
            let t = m.issuer.issue();
            m.handler.set_ticket(t);
            t
        });
        provider_adv(m.ad.clone(), &self.contact, Some(ticket))
    }

    /// Adjudicate a claim on machine `i` against its current ad. Also
    /// says whether the machine was already claimed when the claim came.
    pub fn claim(&mut self, i: usize, req: &ClaimRequest) -> (ClaimResponse, bool) {
        let m = &mut self.machines[i];
        let was_claimed = m.handler.is_claimed();
        let (resp, _) = m
            .handler
            .handle_claim(req, &m.ad, wire::unix_now(), |_| false);
        (resp, was_claimed)
    }

    /// Release machine `i`'s claim.
    pub fn release(&mut self, i: usize) {
        self.machines[i].handler.release();
    }
}

/// Who serves the machines of a pool.
pub enum Providers {
    /// Real resource agents, one per machine.
    Agents(Vec<ResourceAgent>),
    /// The in-driver farm.
    Farm(Farm),
    /// Nobody: the ads are in the store and never matched.
    Static,
}

/// A pool that is up, loaded and confirmed.
pub struct LivePool {
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// The generated inputs the pool was loaded from.
    pub inputs: Inputs,
    /// The matchmaker.
    pub daemon: MatchmakerDaemon,
    /// Its `host:port`.
    pub addr: String,
    /// The machines' providers.
    pub providers: Providers,
    /// The driver's listener: contact of every job and every farm machine.
    pub listener: TcpListener,
    /// Its `host:port`.
    pub contact: String,
}

/// How to bring a pool up.
#[derive(Debug, Clone, Copy)]
pub struct PoolSpec {
    /// Machines in the pool.
    pub machines: usize,
    /// Distinct job shapes generated.
    pub shapes: usize,
    /// The daemon's `cycle_interval`.
    pub cycle_interval: Duration,
    /// Who serves the machines.
    pub serving: Serving,
}

/// Who serves a pool's machines (see [`Providers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// Real resource agents.
    Agents,
    /// The in-driver farm.
    Farm,
    /// Nobody: no jobs will come.
    Static,
}

/// Generate the inputs from `seed`, spawn the daemon and the providers,
/// load the pool over the wire and confirm it with a synchronous query.
pub fn bring_up(spec: &PoolSpec, seed: u64, net: &Net) -> Result<LivePool, WireError> {
    let inputs = Inputs::generate(seed, spec.machines, spec.shapes);
    let daemon = MatchmakerDaemon::spawn(DaemonConfig {
        cycle_interval: spec.cycle_interval,
        ..DaemonConfig::default()
    })?;
    let addr = daemon.addr().to_string();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let contact = listener.local_addr()?.to_string();

    let providers = if spec.serving == Serving::Agents {
        let agents = inputs
            .machines
            .iter()
            .enumerate()
            .map(|(i, ad)| {
                // Agents advertise when they start and every heartbeat
                // after: spread the starts over one heartbeat, as the
                // machines of a real pool are, or the whole pool dials
                // the matchmaker in the same few milliseconds.
                if i > 0 {
                    std::thread::sleep(RA_HEARTBEAT / spec.machines as u32);
                }
                ResourceAgent::spawn(
                    ResourceConfig {
                        name: machine_name(i),
                        matchmaker: addr.clone(),
                        heartbeat: RA_HEARTBEAT,
                        ticket_seed: seed.wrapping_add(i as u64),
                        ..ResourceConfig::default()
                    },
                    ad.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        await_machines(&addr, spec.machines, net)?;
        Providers::Agents(agents)
    } else {
        let mut farm = Farm::new(&inputs, contact.clone(), seed);
        let (mut stream, _open) = net.connect(&addr)?;
        let ads = (0..spec.machines).map(|i| {
            if spec.serving == Serving::Farm {
                farm.advertise(i)
            } else {
                provider_adv(inputs.machines[i].clone(), UNDIALED_CONTACT, None)
            }
        });
        net.stream_and_sync(&mut stream, ads, LOAD_LIMIT)?;
        // The machines and the daemon's own self-ad.
        let stored = daemon.service().ad_count();
        if stored != spec.machines + 1 {
            return Err(WireError::Remote(format!(
                "{stored} ads stored after loading {} machines",
                spec.machines
            )));
        }
        if spec.serving == Serving::Farm {
            Providers::Farm(farm)
        } else {
            Providers::Static
        }
    };
    Ok(LivePool {
        seed,
        inputs,
        daemon,
        addr,
        providers,
        listener,
        contact,
    })
}

/// Poll the matchmaker until it holds `n` machine ads (the agents
/// advertise on their own threads). A poll that fails is asked again: a
/// matchmaker at its connection limit answers with an `Error` and hangs
/// up, which the dialer may see as a reset.
fn await_machines(addr: &str, n: usize, net: &Net) -> Result<(), WireError> {
    let count = Message::Query {
        constraint: r#"other.Type == "Machine""#.into(),
        kind: Some(EntityKind::Provider),
        projection: vec!["Name".into()],
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let polled = net.request_reply(addr, &count);
        if let Ok(Message::QueryReply { ads }) = &polled {
            if ads.len() == n {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(polled.err().unwrap_or(WireError::TimedOut));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::protocol::ClaimRejection;

    #[test]
    fn farm_machine_serves_one_claim_per_ticket() {
        let inputs = Inputs::generate(1, 8, 8);
        let mut farm = Farm::new(&inputs, "127.0.0.1:9".into(), 1);
        let Message::Advertise(adv) = farm.advertise(0) else {
            unreachable!()
        };
        // A renewal keeps the ticket.
        let Message::Advertise(again) = farm.advertise(0) else {
            unreachable!()
        };
        assert_eq!(adv.ticket, again.ticket);
        // Any job its owner policy admits: the research group is always
        // served, so try all four owners.
        let req = (0..4)
            .map(|k| ClaimRequest {
                ticket: adv.ticket.unwrap(),
                customer_ad: {
                    let mut job = inputs.shapes[k].clone();
                    job.set("Constraint", classad::Expr::bool(true));
                    job
                },
                customer_contact: "127.0.0.1:9".into(),
            })
            .find(|req| farm.claim(0, req).0.accepted)
            .expect("some owner is in the research group");
        let (busy, was_claimed) = farm.claim(0, &req);
        assert!(was_claimed && !busy.accepted);
        assert_eq!(busy.rejection, Some(ClaimRejection::BadTicket));
        farm.release(0);
        let Message::Advertise(fresh) = farm.advertise(0) else {
            unreachable!()
        };
        assert_ne!(fresh.ticket, adv.ticket);
    }
}
