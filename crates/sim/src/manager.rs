//! The pool manager node: hosts the matchmaker (ad store + negotiator) and
//! periodically runs negotiation cycles (paper §4).
//!
//! After each cycle the manager sends both parties their match
//! notifications (step 3 of Figure 3) and forgets the match — claiming is
//! entirely between the matched entities. Matched ads are withdrawn from
//! the store; the parties re-advertise with their post-match state, which
//! is how the store converges back to reality.

use crate::ctx::Ctx;
use crate::engine::MS_PER_SEC;
use crate::types::{Event, GangPortInfo, ManagerTimer, NodeId, SimMsg};
use classad::{EvalPolicy, Value};
use gangmatch::coalloc::GangSolver;
use gangmatch::service::negotiate_gangs;
use matchmaker::admanager::AdStore;
use matchmaker::negotiate::{Negotiator, NegotiatorConfig};
use matchmaker::protocol::{AdvertisingProtocol, EntityKind, Message};

/// The simulated pool-manager node.
#[derive(Debug)]
pub struct ManagerNode {
    /// This node's id.
    pub id: NodeId,
    /// The matchmaker's ad store.
    pub store: AdStore,
    /// The negotiator (match engine + priorities).
    pub negotiator: Negotiator,
    /// Advertising protocol enforced on incoming ads.
    pub protocol: AdvertisingProtocol,
    /// Negotiation cycle period, ms.
    pub cycle_period_ms: u64,
    /// Ads rejected by the advertising protocol (protocol violations).
    pub ads_rejected: u64,
    /// Gang (co-allocation) solver used for multi-port requests.
    pub gang_solver: GangSolver,
}

impl ManagerNode {
    /// Create a manager with the given negotiator configuration.
    pub fn new(id: NodeId, config: NegotiatorConfig, cycle_period_ms: u64) -> Self {
        ManagerNode {
            id,
            store: AdStore::new(),
            negotiator: Negotiator::new(config),
            protocol: AdvertisingProtocol::default(),
            cycle_period_ms,
            ads_rejected: 0,
            gang_solver: GangSolver::default(),
        }
    }

    /// Initialize: schedule the first negotiation cycle.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(
            self.cycle_period_ms,
            Event::Manager {
                node: self.id,
                tag: ManagerTimer::Negotiate,
            },
        );
    }

    /// Handle a timer event.
    pub fn on_timer(&mut self, tag: ManagerTimer, ctx: &mut Ctx<'_>) {
        match tag {
            ManagerTimer::Negotiate => {
                self.run_cycle(ctx);
                ctx.schedule(
                    self.cycle_period_ms,
                    Event::Manager {
                        node: self.id,
                        tag: ManagerTimer::Negotiate,
                    },
                );
            }
            ManagerTimer::Expire => {
                self.store.expire(ctx.now);
            }
        }
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Proto(Message::Advertise(adv)) => {
                #[allow(clippy::collapsible_match)]
                if self.store.advertise(adv, ctx.now, &self.protocol).is_err() {
                    self.ads_rejected += 1;
                }
            }
            SimMsg::UsageReport { user, used_ms } => {
                // Account usage in seconds of resource time.
                self.negotiator
                    .charge_usage(&user, used_ms as f64 / MS_PER_SEC as f64, ctx.now);
            }
            _ => {}
        }
    }

    /// Run one negotiation cycle and dispatch notifications. Gang
    /// (multi-port) requests are served first — atomically, by the gang
    /// matcher — then the bilateral algorithm serves the plain requests
    /// from the remaining offers.
    pub fn run_cycle(&mut self, ctx: &mut Ctx<'_>) {
        self.store.expire(ctx.now);
        self.run_gang_pass(ctx);
        // The matchmaker evaluates with the pool's clock available to ads
        // that reference time().
        self.negotiator.engine.policy.now = Some((ctx.now / MS_PER_SEC) as i64);
        let outcome = self.negotiator.negotiate(&self.store, ctx.now);
        ctx.metrics.cycles += 1;
        ctx.metrics.matches += outcome.stats.matches as u64;
        ctx.metrics.requests_considered += outcome.stats.requests_considered as u64;
        ctx.metrics.unmatched_requests += outcome.stats.unmatched_requests as u64;
        ctx.metrics.clusters_formed += outcome.stats.clusters_formed as u64;
        ctx.metrics.matchlist_hits += outcome.stats.matchlist_hits as u64;
        ctx.metrics.full_scans += outcome.stats.full_scans as u64;
        for m in &outcome.matches {
            ctx.metrics.trace.record(
                ctx.now,
                crate::trace::TraceEvent::Match {
                    request: m.request_name.clone(),
                    offer: m.offer_name.clone(),
                    rank: m.request_rank,
                },
            );
            let (to_customer, to_provider) = m.notifications();
            ctx.send_to_contact(
                &m.customer_contact,
                SimMsg::Proto(Message::Notify(to_customer)),
            );
            ctx.send_to_contact(
                &m.provider_contact,
                SimMsg::Proto(Message::Notify(to_provider)),
            );
            // Matched ads leave the store until their owners re-advertise
            // with current state.
            self.store.withdraw(EntityKind::Customer, &m.request_name);
            self.store.withdraw(EntityKind::Provider, &m.offer_name);
        }
    }

    /// Serve the multi-port (gang) requests in the store.
    fn run_gang_pass(&mut self, ctx: &mut Ctx<'_>) {
        let out = negotiate_gangs(&self.store, ctx.now, &self.gang_solver);
        ctx.metrics.gangs_unmatched += out.failed.len() as u64;
        let eval_policy = EvalPolicy::default();
        for grant in out.granted {
            ctx.metrics.gangs_granted += 1;
            ctx.metrics.matches += 1;
            let ports: Vec<GangPortInfo> = grant
                .ports
                .iter()
                .filter_map(|p| {
                    let ticket = p.ticket?;
                    let offer_type = match p.offer_ad.eval_attr("Type", &eval_policy) {
                        Value::Str(s) => s.to_string(),
                        _ => String::new(),
                    };
                    Some(GangPortInfo {
                        offer_name: p.offer_name.clone(),
                        offer_type,
                        contact: p.provider_contact.clone(),
                        ticket,
                    })
                })
                .collect();
            if ports.len() != grant.ports.len() {
                // A port without a ticket cannot be claimed; treat as
                // unmatched (provider protocol violation).
                ctx.metrics.gangs_granted -= 1;
                ctx.metrics.gangs_unmatched += 1;
                continue;
            }
            ctx.send_to_contact(
                &grant.customer_contact,
                SimMsg::GangNotify {
                    gang_name: grant.gang_name.clone(),
                    ports,
                },
            );
            // Granted ads leave the store until re-advertised.
            self.store.withdraw(EntityKind::Customer, &grant.gang_name);
            for p in &grant.ports {
                self.store.withdraw(EntityKind::Provider, &p.offer_name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventQueue;
    use crate::metrics::Metrics;
    use crate::network::NetworkModel;
    use matchmaker::protocol::Advertisement;
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
            directory.insert("m:9614".to_string(), 1);
            directory.insert("alice-ca:1".to_string(), 2);
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

    fn machine_adv() -> Advertisement {
        Advertisement {
            kind: EntityKind::Provider,
            ad: classad::parse_classad(
                r#"[ Name = "m"; Type = "Machine"; Mips = 100;
                     Constraint = other.Type == "Job"; Rank = 0 ]"#,
            )
            .unwrap(),
            contact: "m:9614".into(),
            ticket: Some(matchmaker::ticket::Ticket::from_raw(5)),
            expires_at: 1_000_000,
        }
    }

    fn job_adv() -> Advertisement {
        Advertisement {
            kind: EntityKind::Customer,
            ad: classad::parse_classad(
                r#"[ Name = "alice.0"; Type = "Job"; Owner = "alice";
                     Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
            )
            .unwrap(),
            contact: "alice-ca:1".into(),
            ticket: None,
            expires_at: 1_000_000,
        }
    }

    #[test]
    fn advertisements_fill_store() {
        let mut h = Harness::new();
        let mut mgr = ManagerNode::new(0, NegotiatorConfig::default(), 60_000);
        let mut ctx = h.ctx();
        mgr.on_message(SimMsg::Proto(Message::Advertise(machine_adv())), &mut ctx);
        mgr.on_message(SimMsg::Proto(Message::Advertise(job_adv())), &mut ctx);
        assert_eq!(mgr.store.len(), 2);
        assert_eq!(mgr.ads_rejected, 0);
    }

    #[test]
    fn protocol_violations_counted() {
        let mut h = Harness::new();
        let mut mgr = ManagerNode::new(0, NegotiatorConfig::default(), 60_000);
        let mut bad = machine_adv();
        bad.ad.remove("Name");
        let mut ctx = h.ctx();
        mgr.on_message(SimMsg::Proto(Message::Advertise(bad)), &mut ctx);
        assert_eq!(mgr.ads_rejected, 1);
        assert_eq!(mgr.store.len(), 0);
    }

    #[test]
    fn cycle_produces_notifications_and_withdraws_ads() {
        let mut h = Harness::new();
        let mut mgr = ManagerNode::new(0, NegotiatorConfig::default(), 60_000);
        {
            let mut ctx = h.ctx();
            mgr.on_message(SimMsg::Proto(Message::Advertise(machine_adv())), &mut ctx);
            mgr.on_message(SimMsg::Proto(Message::Advertise(job_adv())), &mut ctx);
            mgr.run_cycle(&mut ctx);
        }
        assert_eq!(h.metrics.matches, 1);
        assert_eq!(h.metrics.cycles, 1);
        assert_eq!(mgr.store.len(), 0, "both matched ads withdrawn");
        // Two notifications queued for delivery.
        let mut notify_targets = Vec::new();
        while let Some((_, ev)) = h.queue.pop() {
            if let Event::Deliver {
                to,
                msg: SimMsg::Proto(Message::Notify(_)),
            } = ev
            {
                notify_targets.push(to);
            }
        }
        notify_targets.sort();
        assert_eq!(notify_targets, vec![1, 2]);
    }

    #[test]
    fn a_recurring_job_shape_keeps_its_match_list_across_cycles() {
        // Sub-second cycles (the simulator's clock is in ms): one job of
        // the same shape per cycle, each taking a machine. The shape's
        // list is built once and patched after, however short the period.
        const CYCLES: usize = 8;
        let mut h = Harness::new();
        let mut mgr = ManagerNode::new(0, NegotiatorConfig::default(), 100);
        {
            let mut ctx = h.ctx();
            for i in 0..CYCLES {
                let mut m = machine_adv();
                m.ad.set_str("Name", &format!("m{i}"));
                mgr.on_message(SimMsg::Proto(Message::Advertise(m)), &mut ctx);
            }
        }
        for i in 0..CYCLES {
            h.queue.schedule(
                100,
                Event::Manager {
                    node: 0,
                    tag: ManagerTimer::Negotiate,
                },
            );
            // Skip the notifications the last cycle queued.
            while !matches!(h.queue.pop(), Some((_, Event::Manager { .. }))) {}
            let mut ctx = h.ctx();
            let mut job = job_adv();
            job.ad.set_str("Name", &format!("alice.{i}"));
            mgr.on_message(SimMsg::Proto(Message::Advertise(job)), &mut ctx);
            mgr.run_cycle(&mut ctx);
        }
        assert_eq!(h.metrics.matches, CYCLES as u64);
        assert_eq!(h.metrics.full_scans, 1);
    }

    #[test]
    fn usage_reports_feed_priorities() {
        let mut h = Harness::new();
        let mut mgr = ManagerNode::new(0, NegotiatorConfig::default(), 60_000);
        let mut ctx = h.ctx();
        mgr.on_message(
            SimMsg::UsageReport {
                user: "alice".into(),
                used_ms: 30_000,
            },
            &mut ctx,
        );
        assert!((mgr.negotiator.priorities.usage("alice", 0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn expired_ads_not_matched() {
        let mut h = Harness::new();
        let mut mgr = ManagerNode::new(0, NegotiatorConfig::default(), 60_000);
        let mut short = machine_adv();
        short.expires_at = 10;
        {
            let mut ctx = h.ctx();
            mgr.on_message(SimMsg::Proto(Message::Advertise(short)), &mut ctx);
            mgr.on_message(SimMsg::Proto(Message::Advertise(job_adv())), &mut ctx);
        }
        // Advance time past the machine lease.
        h.queue.schedule(
            100,
            Event::Manager {
                node: 0,
                tag: ManagerTimer::Negotiate,
            },
        );
        let (_, _) = h.queue.pop().unwrap();
        let mut ctx = h.ctx();
        mgr.run_cycle(&mut ctx);
        assert_eq!(h.metrics.matches, 0);
        assert_eq!(h.metrics.unmatched_requests, 1);
    }
}
