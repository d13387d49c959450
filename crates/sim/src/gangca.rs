//! A gang customer agent: submits co-allocation requests (compute node +
//! software license) and runs the multi-port claiming protocol.
//!
//! The interesting failure mode is *partial claim failure*: the gang
//! matcher worked from possibly-stale ads, so one port's claim can be
//! rejected after another port was already claimed. Co-allocation is
//! atomic, so the agent releases the claimed ports and retries the whole
//! gang at the next advertisement — exactly the weak-consistency recovery
//! the paper prescribes, extended to aggregates.

use crate::ctx::Ctx;
use crate::engine::SimTime;
use crate::metrics::JobRecord;
use crate::types::{Event, GangPortInfo, GangTimer, NodeId, SimMsg};
use classad::ClassAd;
use matchmaker::agent::claim_request;
use matchmaker::protocol::{Advertisement, EntityKind, Message};
use std::collections::{HashMap, VecDeque};

/// Where a gang currently stands.
#[derive(Debug, Clone, PartialEq)]
pub enum GangState {
    /// Waiting for the gang matcher.
    Idle,
    /// Claims in flight for all ports.
    Claiming {
        /// Ports awaiting a reply.
        pending: Vec<GangPortInfo>,
        /// Ports already claimed (to release if the gang aborts).
        claimed: Vec<GangPortInfo>,
    },
    /// All ports claimed; the compute port is executing.
    Running {
        /// Non-compute ports to release on completion.
        auxiliary: Vec<GangPortInfo>,
    },
    /// Finished.
    Completed,
}

/// One gang request in the agent's queue.
#[derive(Debug, Clone)]
pub struct GangJob {
    /// Unique id.
    pub id: u64,
    /// Ad name.
    pub name: String,
    /// Service demand at reference speed, ms.
    pub work_ms: u64,
    /// Memory requirement for the compute port, MB.
    pub memory: i64,
    /// Submission time.
    pub submitted_at: SimTime,
    /// First successful start.
    pub first_start: Option<SimTime>,
    /// Current state.
    pub state: GangState,
    /// Claim-time aborts experienced.
    pub aborts: u32,
}

/// A customer agent submitting two-port gangs (machine + license).
#[derive(Debug)]
pub struct GangCustomerAgent {
    /// This node's id.
    pub id: NodeId,
    /// The manager node.
    pub manager: NodeId,
    /// The user this agent represents.
    pub user: String,
    /// Contact address.
    pub contact: String,
    /// Advertisement period, ms.
    pub advertise_period_ms: u64,
    /// License product the gangs require.
    pub product: String,
    /// The gang queue.
    pub gangs: Vec<GangJob>,
    arrivals: VecDeque<(SimTime, u64, i64)>, // (at, work_ms, memory)
    id_base: u64,
    next_local: u64,
    /// Ports whose claims were in flight when their gang aborted: if the
    /// late reply turns out to be an accept, the seat must be released or
    /// it leaks (keyed by provider ad name).
    orphan_claims: HashMap<String, GangPortInfo>,
}

impl GangCustomerAgent {
    /// Create an agent with a pre-generated arrival list of
    /// `(time, work_ms, memory)` gangs.
    pub fn new(
        id: NodeId,
        manager: NodeId,
        user: &str,
        product: &str,
        arrivals: Vec<(SimTime, u64, i64)>,
        advertise_period_ms: u64,
        id_base: u64,
    ) -> Self {
        GangCustomerAgent {
            id,
            manager,
            user: user.to_string(),
            contact: format!("{user}-gangca:1"),
            advertise_period_ms,
            product: product.to_string(),
            gangs: Vec::new(),
            arrivals: arrivals.into(),
            id_base,
            next_local: 0,
            orphan_claims: HashMap::new(),
        }
    }

    /// Gangs not yet completed.
    pub fn incomplete(&self) -> usize {
        self.gangs
            .iter()
            .filter(|g| g.state != GangState::Completed)
            .count()
    }

    /// The gang request ad (envelope + ports) for a queued gang.
    pub fn gang_ad(&self, g: &GangJob) -> ClassAd {
        let src = format!(
            r#"[
                Name = "{name}";
                Type = "Gang";
                Owner = "{owner}";
                JobId = {id};
                Memory = {memory};
                RemainingWork = {work};
                WantCheckpoint = 0;
                Constraint = true;
                Ports = {{
                    [ Label = "compute";
                      Constraint = other.Type == "Machine" && other.Memory >= {memory};
                      Rank = other.Mips ],
                    [ Label = "license";
                      Constraint = other.Type == "License" && other.Product == "{product}" ]
                }};
            ]"#,
            name = g.name,
            owner = self.user,
            id = g.id,
            memory = g.memory,
            work = g.work_ms,
            product = self.product,
        );
        classad::parse_classad(&src)
            .unwrap_or_else(|e| panic!("internal: gang ad failed to parse: {e}\n{src}"))
    }

    /// Initialize timers.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((at, _, _)) = self.arrivals.front() {
            let delay = at.saturating_sub(ctx.now);
            ctx.schedule(
                delay,
                Event::GangCustomer {
                    node: self.id,
                    tag: GangTimer::Arrival,
                },
            );
        }
        ctx.schedule(
            self.advertise_period_ms,
            Event::GangCustomer {
                node: self.id,
                tag: GangTimer::Advertise,
            },
        );
    }

    fn advertise_idle(&mut self, ctx: &mut Ctx<'_>) {
        let lease = ctx.now + self.advertise_period_ms * 2 + self.advertise_period_ms / 2;
        let ads: Vec<Advertisement> = self
            .gangs
            .iter()
            .filter(|g| g.state == GangState::Idle)
            .map(|g| Advertisement {
                kind: EntityKind::Customer,
                ad: self.gang_ad(g),
                contact: self.contact.clone(),
                ticket: None,
                expires_at: lease,
            })
            .collect();
        for adv in ads {
            ctx.send_to_node(self.manager, SimMsg::Proto(Message::Advertise(adv)));
        }
    }

    /// Handle a timer event.
    pub fn on_timer(&mut self, tag: GangTimer, ctx: &mut Ctx<'_>) {
        match tag {
            GangTimer::Arrival => {
                while let Some(&(at, work, memory)) = self.arrivals.front() {
                    if at > ctx.now {
                        break;
                    }
                    self.arrivals.pop_front();
                    let local = self.next_local;
                    self.next_local += 1;
                    ctx.metrics.jobs_submitted += 1;
                    self.gangs.push(GangJob {
                        id: self.id_base + local,
                        name: format!("{}.gang.{local}", self.user),
                        work_ms: work,
                        memory,
                        submitted_at: ctx.now,
                        first_start: None,
                        state: GangState::Idle,
                        aborts: 0,
                    });
                }
                self.advertise_idle(ctx);
                if let Some((at, _, _)) = self.arrivals.front() {
                    let delay = at.saturating_sub(ctx.now).max(1);
                    ctx.schedule(
                        delay,
                        Event::GangCustomer {
                            node: self.id,
                            tag: GangTimer::Arrival,
                        },
                    );
                }
            }
            GangTimer::Advertise => {
                self.advertise_idle(ctx);
                ctx.schedule(
                    self.advertise_period_ms,
                    Event::GangCustomer {
                        node: self.id,
                        tag: GangTimer::Advertise,
                    },
                );
            }
        }
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::GangNotify { gang_name, ports } => self.on_grant(gang_name, ports, ctx),
            SimMsg::ClaimReply { resp, .. } => self.on_claim_reply(resp, ctx),
            SimMsg::JobFinished { job_id } => self.on_finished(job_id, ctx),
            SimMsg::Vacated { job_id, .. } => self.on_vacated(job_id, ctx),
            _ => {}
        }
    }

    fn on_grant(&mut self, gang_name: String, ports: Vec<GangPortInfo>, ctx: &mut Ctx<'_>) {
        // Build the claim payload before borrowing the gang mutably.
        let Some(idx) = self.gangs.iter().position(|g| g.name == gang_name) else {
            return;
        };
        if self.gangs[idx].state != GangState::Idle {
            return; // stale grant
        }
        let customer_ad = {
            let mut ad = self.gang_ad(&self.gangs[idx]);
            ad.remove("Ports");
            ad
        };
        for port in &ports {
            ctx.metrics.claim_attempts += 1;
            ctx.send_to_contact(
                &port.contact,
                SimMsg::Claim {
                    job: gang_name.clone(),
                    req: claim_request(port.ticket, customer_ad.clone(), &self.contact),
                },
            );
        }
        self.gangs[idx].state = GangState::Claiming {
            pending: ports,
            claimed: Vec::new(),
        };
    }

    fn on_claim_reply(&mut self, resp: matchmaker::protocol::ClaimResponse, ctx: &mut Ctx<'_>) {
        let provider = resp
            .provider_ad
            .get_string("Name")
            .unwrap_or_default()
            .to_string();
        let now = ctx.now;
        // A late reply for a gang that already aborted: if the provider
        // accepted, release the seat immediately, or it leaks.
        if let Some(port) = self.orphan_claims.remove(&provider) {
            if resp.accepted {
                ctx.send_to_contact(
                    &port.contact,
                    SimMsg::Proto(Message::Release {
                        ticket: port.ticket,
                    }),
                );
            }
            return;
        }
        // Find the gang with this provider pending.
        let Some(gang) = self.gangs.iter_mut().find(|g| {
            matches!(&g.state, GangState::Claiming { pending, .. }
                     if pending.iter().any(|p| p.offer_name == provider))
        }) else {
            return;
        };
        let GangState::Claiming { pending, claimed } = &mut gang.state else {
            unreachable!()
        };
        let pos = pending
            .iter()
            .position(|p| p.offer_name == provider)
            .unwrap();
        let port = pending.remove(pos);
        if resp.accepted {
            claimed.push(port);
            if pending.is_empty() {
                // All ports claimed: the compute port is now executing.
                gang.first_start.get_or_insert(now);
                let auxiliary: Vec<GangPortInfo> = claimed
                    .iter()
                    .filter(|p| p.offer_type != "Machine")
                    .cloned()
                    .collect();
                gang.state = GangState::Running { auxiliary };
            }
        } else {
            // Atomicity: release everything already claimed, remember the
            // claims still in flight (their late accepts must be released
            // too), and retry the whole gang later.
            gang.aborts += 1;
            ctx.metrics.gangs_aborted += 1;
            let to_release: Vec<GangPortInfo> = std::mem::take(claimed);
            let in_flight: Vec<GangPortInfo> = std::mem::take(pending);
            gang.state = GangState::Idle;
            for p in to_release {
                ctx.send_to_contact(
                    &p.contact,
                    SimMsg::Proto(Message::Release { ticket: p.ticket }),
                );
            }
            for p in in_flight {
                self.orphan_claims.insert(p.offer_name.clone(), p);
            }
        }
    }

    fn on_finished(&mut self, job_id: u64, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        let Some(gang) = self.gangs.iter_mut().find(|g| g.id == job_id) else {
            return;
        };
        let aux = match &gang.state {
            GangState::Running { auxiliary } => auxiliary.clone(),
            _ => Vec::new(),
        };
        gang.state = GangState::Completed;
        ctx.metrics.job_completed(JobRecord {
            id: gang.id,
            owner: self.user.clone(),
            submitted_at: gang.submitted_at,
            first_start: gang.first_start,
            completed_at: now,
            work_ms: gang.work_ms,
            vacations: gang.aborts,
            wasted_ms: 0,
        });
        // Release the auxiliary resources (e.g. the license seat).
        for p in aux {
            ctx.send_to_contact(
                &p.contact,
                SimMsg::Proto(Message::Release { ticket: p.ticket }),
            );
        }
    }

    fn on_vacated(&mut self, job_id: u64, ctx: &mut Ctx<'_>) {
        // The compute port was vacated (owner returned): release the
        // auxiliary ports and retry the whole gang.
        let Some(gang) = self.gangs.iter_mut().find(|g| g.id == job_id) else {
            return;
        };
        let aux = match &gang.state {
            GangState::Running { auxiliary } => auxiliary.clone(),
            _ => Vec::new(),
        };
        gang.aborts += 1;
        gang.state = GangState::Idle;
        for p in aux {
            ctx.send_to_contact(
                &p.contact,
                SimMsg::Proto(Message::Release { ticket: p.ticket }),
            );
        }
        self.advertise_idle(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventQueue;
    use crate::metrics::Metrics;
    use crate::network::NetworkModel;
    use matchmaker::ticket::Ticket;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    struct H {
        queue: EventQueue<Event>,
        rng: SmallRng,
        metrics: Metrics,
        directory: HashMap<String, NodeId>,
        network: NetworkModel,
    }

    impl H {
        fn new() -> Self {
            let mut directory = HashMap::new();
            directory.insert("m:9614".to_string(), 5);
            directory.insert("lic:27000".to_string(), 6);
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
    }

    fn agent_with_gang(h: &mut H) -> GangCustomerAgent {
        let mut ga =
            GangCustomerAgent::new(1, 0, "raman", "matlab", vec![(0, 60_000, 31)], 60_000, 5000);
        let mut ctx = h.ctx();
        ga.start(&mut ctx);
        ga.on_timer(GangTimer::Arrival, &mut ctx);
        ga
    }

    fn ports() -> Vec<GangPortInfo> {
        vec![
            GangPortInfo {
                offer_name: "m".into(),
                offer_type: "Machine".into(),
                contact: "m:9614".into(),
                ticket: Ticket::from_raw(1),
            },
            GangPortInfo {
                offer_name: "lic".into(),
                offer_type: "License".into(),
                contact: "lic:27000".into(),
                ticket: Ticket::from_raw(2),
            },
        ]
    }

    fn reply(provider: &str, accepted: bool) -> SimMsg {
        let job = "raman.gang.0".to_string();
        let resp = matchmaker::protocol::ClaimResponse {
            accepted,
            rejection: if accepted {
                None
            } else {
                Some(matchmaker::protocol::ClaimRejection::ConstraintFailed)
            },
            provider_ad: classad::parse_classad(&format!(
                r#"[ Name = "{provider}"; Type = "{}" ]"#,
                if provider == "m" {
                    "Machine"
                } else {
                    "License"
                }
            ))
            .unwrap(),
        };
        SimMsg::ClaimReply { job, resp }
    }

    #[test]
    fn gang_ad_is_well_formed() {
        let mut h = H::new();
        let ga = agent_with_gang(&mut h);
        let ad = ga.gang_ad(&ga.gangs[0]);
        assert_eq!(ad.get_string("Type"), Some("Gang"));
        let gang = gangmatch::coalloc::GangRequest::from_ad(&ad).unwrap();
        assert_eq!(gang.ports.len(), 2);
        assert_eq!(h.metrics.jobs_submitted, 1);
    }

    #[test]
    fn grant_claims_every_port() {
        let mut h = H::new();
        let mut ga = agent_with_gang(&mut h);
        let name = ga.gangs[0].name.clone();
        let mut ctx = h.ctx();
        ga.on_message(
            SimMsg::GangNotify {
                gang_name: name,
                ports: ports(),
            },
            &mut ctx,
        );
        assert_eq!(h.metrics.claim_attempts, 2);
        assert!(matches!(ga.gangs[0].state, GangState::Claiming { .. }));
    }

    #[test]
    fn all_accepts_move_to_running() {
        let mut h = H::new();
        let mut ga = agent_with_gang(&mut h);
        let name = ga.gangs[0].name.clone();
        {
            let mut ctx = h.ctx();
            ga.on_message(
                SimMsg::GangNotify {
                    gang_name: name,
                    ports: ports(),
                },
                &mut ctx,
            );
            ga.on_message(reply("lic", true), &mut ctx);
            ga.on_message(reply("m", true), &mut ctx);
        }
        match &ga.gangs[0].state {
            GangState::Running { auxiliary } => {
                assert_eq!(auxiliary.len(), 1);
                assert_eq!(auxiliary[0].offer_name, "lic");
            }
            s => panic!("{s:?}"),
        }
        assert!(ga.gangs[0].first_start.is_some());
    }

    #[test]
    fn partial_rejection_aborts_atomically() {
        let mut h = H::new();
        let mut ga = agent_with_gang(&mut h);
        let name = ga.gangs[0].name.clone();
        {
            let mut ctx = h.ctx();
            ga.on_message(
                SimMsg::GangNotify {
                    gang_name: name,
                    ports: ports(),
                },
                &mut ctx,
            );
            // License accepted first, then the machine refuses.
            ga.on_message(reply("lic", true), &mut ctx);
            ga.on_message(reply("m", false), &mut ctx);
        }
        assert_eq!(
            ga.gangs[0].state,
            GangState::Idle,
            "gang retries from scratch"
        );
        assert_eq!(ga.gangs[0].aborts, 1);
        assert_eq!(h.metrics.gangs_aborted, 1);
        // A Release was queued for the license seat.
        let mut release_seen = false;
        while let Some((_, ev)) = h.queue.pop() {
            if let Event::Deliver {
                to: 6,
                msg: SimMsg::Proto(Message::Release { .. }),
            } = ev
            {
                release_seen = true;
            }
        }
        assert!(release_seen, "already-claimed port must be released");
    }

    #[test]
    fn completion_releases_auxiliary_and_records() {
        let mut h = H::new();
        let mut ga = agent_with_gang(&mut h);
        let name = ga.gangs[0].name.clone();
        let id = ga.gangs[0].id;
        {
            let mut ctx = h.ctx();
            ga.on_message(
                SimMsg::GangNotify {
                    gang_name: name,
                    ports: ports(),
                },
                &mut ctx,
            );
            ga.on_message(reply("m", true), &mut ctx);
            ga.on_message(reply("lic", true), &mut ctx);
            ga.on_message(SimMsg::JobFinished { job_id: id }, &mut ctx);
        }
        assert_eq!(ga.gangs[0].state, GangState::Completed);
        assert_eq!(h.metrics.jobs_completed, 1);
        assert_eq!(ga.incomplete(), 0);
    }

    #[test]
    fn late_accept_after_abort_is_released() {
        // Machine rejects while the license reply is still in flight; the
        // license's late ACCEPT must be answered with a Release.
        let mut h = H::new();
        let mut ga = agent_with_gang(&mut h);
        let name = ga.gangs[0].name.clone();
        {
            let mut ctx = h.ctx();
            ga.on_message(
                SimMsg::GangNotify {
                    gang_name: name,
                    ports: ports(),
                },
                &mut ctx,
            );
            ga.on_message(reply("m", false), &mut ctx); // abort, license pending
        }
        assert_eq!(ga.gangs[0].state, GangState::Idle);
        {
            let mut ctx = h.ctx();
            ga.on_message(reply("lic", true), &mut ctx); // late accept
        }
        let mut release_to_license = false;
        while let Some((_, ev)) = h.queue.pop() {
            if let Event::Deliver {
                to: 6,
                msg: SimMsg::Proto(Message::Release { .. }),
            } = ev
            {
                release_to_license = true;
            }
        }
        assert!(
            release_to_license,
            "late-accepted orphan seat must be released"
        );
        // And the orphan entry is consumed (no double release on replays).
        let mut ctx = h.ctx();
        ga.on_message(reply("lic", true), &mut ctx);
        assert_eq!(h.queue.pending(), 0);
    }

    #[test]
    fn vacate_releases_and_retries() {
        let mut h = H::new();
        let mut ga = agent_with_gang(&mut h);
        let name = ga.gangs[0].name.clone();
        let id = ga.gangs[0].id;
        {
            let mut ctx = h.ctx();
            ga.on_message(
                SimMsg::GangNotify {
                    gang_name: name,
                    ports: ports(),
                },
                &mut ctx,
            );
            ga.on_message(reply("m", true), &mut ctx);
            ga.on_message(reply("lic", true), &mut ctx);
            ga.on_message(
                SimMsg::Vacated {
                    job_id: id,
                    done_ms: 100,
                },
                &mut ctx,
            );
        }
        assert_eq!(ga.gangs[0].state, GangState::Idle);
        assert_eq!(ga.gangs[0].aborts, 1);
    }
}
