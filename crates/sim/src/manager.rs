//! The pool manager node: an event adapter over the matchmaker service the
//! live daemon wraps ([`Matchmaker`], paper §4).
//!
//! It drives the service as the daemon does. Ads enter through
//! [`Matchmaker::admit`]; an ad that the service's wake rule marks (a new
//! or changed job) starts an *arrival cycle* at its arrival instant, into
//! which the arrivals already pending coalesce; a periodic timer runs the
//! *tick*. The gang (co-allocation) pass runs before either kind of cycle.
//!
//! After each cycle the manager sends both parties their match
//! notifications (step 3 of Figure 3) and forgets the match — claiming is
//! entirely between the matched entities. The service withdraws the
//! matched ads; the parties re-advertise with their post-match state, which
//! is how the store converges back to reality.

use crate::ctx::Ctx;
use crate::engine::MS_PER_SEC;
use crate::types::{Event, GangPortInfo, ManagerTimer, NodeId, SimMsg};
use classad::{EvalPolicy, Value};
use gangmatch::coalloc::GangSolver;
use gangmatch::service::negotiate_gangs;
use matchmaker::protocol::{EntityKind, Message};
use matchmaker::service::Matchmaker;

/// The simulated pool-manager node.
#[derive(Debug)]
pub struct ManagerNode {
    /// This node's id.
    pub id: NodeId,
    /// The matchmaker: ad store, negotiator and advertising protocol.
    pub matchmaker: Matchmaker,
    /// Tick period, ms.
    pub cycle_period_ms: u64,
    /// Gang (co-allocation) solver used for multi-port requests.
    pub gang_solver: GangSolver,
    /// An arrival cycle is scheduled and no cycle has run since.
    arrival_pending: bool,
}

impl ManagerNode {
    /// Create a manager around `matchmaker`, ticking every
    /// `cycle_period_ms`.
    pub fn new(id: NodeId, matchmaker: Matchmaker, cycle_period_ms: u64) -> Self {
        ManagerNode {
            id,
            matchmaker,
            cycle_period_ms,
            gang_solver: GangSolver::default(),
            arrival_pending: false,
        }
    }

    /// Initialize: schedule the first tick.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule(self.cycle_period_ms, ManagerTimer::Negotiate, ctx);
    }

    fn schedule(&self, delay: u64, tag: ManagerTimer, ctx: &mut Ctx<'_>) {
        ctx.schedule(delay, Event::Manager { node: self.id, tag });
    }

    /// Handle a timer event.
    pub fn on_timer(&mut self, tag: ManagerTimer, ctx: &mut Ctx<'_>) {
        match tag {
            ManagerTimer::Negotiate => {
                self.run_cycle(true, ctx);
                self.schedule(self.cycle_period_ms, ManagerTimer::Negotiate, ctx);
            }
            // A cycle since the arrival was scheduled has served it.
            ManagerTimer::Arrivals if self.arrival_pending => self.run_cycle(false, ctx),
            ManagerTimer::Arrivals => {}
        }
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Proto(Message::Advertise(adv)) => {
                let wake = matches!(self.matchmaker.admit(adv, ctx.now, None), Ok((_, true)));
                if wake && !std::mem::replace(&mut self.arrival_pending, true) {
                    self.schedule(0, ManagerTimer::Arrivals, ctx);
                }
            }
            SimMsg::UsageReport { user, used_ms } => {
                // Account usage in seconds of resource time.
                self.matchmaker
                    .charge_usage(&user, used_ms as f64 / MS_PER_SEC as f64, ctx.now);
            }
            _ => {}
        }
    }

    /// Run one cycle — a tick, or an arrival cycle — and dispatch
    /// notifications. Gang (multi-port) requests are served first —
    /// atomically, by the gang matcher — then the bilateral algorithm
    /// serves the plain requests from the remaining offers.
    fn run_cycle(&mut self, tick: bool, ctx: &mut Ctx<'_>) {
        self.arrival_pending = false;
        self.run_gang_pass(ctx);
        let outcome = if tick {
            self.matchmaker.negotiate(ctx.now)
        } else {
            self.matchmaker.negotiate_arrivals(ctx.now)
        };
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
        }
    }

    /// Serve the multi-port (gang) requests in the store.
    fn run_gang_pass(&mut self, ctx: &mut Ctx<'_>) {
        let out = self
            .matchmaker
            .read_store(|store| negotiate_gangs(store, ctx.now, &self.gang_solver));
        ctx.metrics.gangs_unmatched += out.failed.len() as u64;
        let eval_policy = EvalPolicy::default();
        for grant in out.granted {
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
                ctx.metrics.gangs_unmatched += 1;
                continue;
            }
            ctx.metrics.gangs_granted += 1;
            ctx.metrics.matches += 1;
            ctx.send_to_contact(
                &grant.customer_contact,
                SimMsg::GangNotify {
                    gang_name: grant.gang_name.clone(),
                    ports,
                },
            );
            // Granted ads leave the store until re-advertised.
            self.matchmaker
                .withdraw(EntityKind::Customer, &grant.gang_name);
            for p in &grant.ports {
                self.matchmaker
                    .withdraw(EntityKind::Provider, &p.offer_name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EventQueue, SimTime};
    use crate::metrics::Metrics;
    use crate::network::NetworkModel;
    use matchmaker::negotiate::NegotiatorConfig;
    use matchmaker::protocol::Advertisement;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// The manager (node 0) alone on an ideal network: messages to it are
    /// delivered, timers fire, and everything it sends anyone else is kept.
    struct Harness {
        queue: EventQueue<Event>,
        rng: SmallRng,
        metrics: Metrics,
        directory: HashMap<String, NodeId>,
        network: NetworkModel,
        mgr: ManagerNode,
        /// Messages the manager sent, with their destination.
        sent: Vec<(NodeId, SimMsg)>,
    }

    impl Harness {
        /// A started manager ticking every `period_ms`.
        fn new(period_ms: u64) -> Self {
            let mut directory = HashMap::new();
            directory.insert("m:9614".to_string(), 1);
            directory.insert("alice-ca:1".to_string(), 2);
            directory.insert("bob-ca:1".to_string(), 3);
            let mut h = Harness {
                queue: EventQueue::new(),
                rng: SmallRng::seed_from_u64(1),
                metrics: Metrics::default(),
                directory,
                network: NetworkModel::ideal(),
                mgr: ManagerNode::new(0, Matchmaker::new(NegotiatorConfig::default()), period_ms),
                sent: Vec::new(),
            };
            let (mgr, mut ctx) = h.split();
            mgr.start(&mut ctx);
            h
        }

        fn split(&mut self) -> (&mut ManagerNode, Ctx<'_>) {
            let ctx = Ctx {
                now: self.queue.now(),
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                directory: &self.directory,
                queue: &mut self.queue,
                network: &self.network,
            };
            (&mut self.mgr, ctx)
        }

        /// Deliver `msg` to the manager at `at`.
        fn send_at(&mut self, at: SimTime, msg: SimMsg) {
            self.queue.schedule_at(at, Event::Deliver { to: 0, msg });
        }

        fn advertise_at(&mut self, at: SimTime, adv: Advertisement) {
            self.send_at(at, SimMsg::Proto(Message::Advertise(adv)));
        }

        /// Process every event up to and including `until`.
        fn run_until(&mut self, until: SimTime) {
            while self.queue.peek_time().is_some_and(|t| t <= until) {
                let (_, ev) = self.queue.pop().unwrap();
                let (mgr, mut ctx) = self.split();
                match ev {
                    Event::Manager { tag, .. } => mgr.on_timer(tag, &mut ctx),
                    Event::Deliver { to: 0, msg } => mgr.on_message(msg, &mut ctx),
                    Event::Deliver { to, msg } => self.sent.push((to, msg)),
                    _ => {}
                }
            }
        }

        /// The nodes notified of a match, sorted.
        fn notified(&self) -> Vec<NodeId> {
            let mut to: Vec<NodeId> = self
                .sent
                .iter()
                .filter(|(_, m)| matches!(m, SimMsg::Proto(Message::Notify(_))))
                .map(|(to, _)| *to)
                .collect();
            to.sort();
            to
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
        let mut h = Harness::new(60_000);
        let (mgr, mut ctx) = h.split();
        mgr.on_message(SimMsg::Proto(Message::Advertise(machine_adv())), &mut ctx);
        mgr.on_message(SimMsg::Proto(Message::Advertise(job_adv())), &mut ctx);
        assert_eq!(h.mgr.matchmaker.ad_count(), 2);
        assert_eq!(h.mgr.matchmaker.stats().ads_rejected, 0);
    }

    #[test]
    fn protocol_violations_counted() {
        let mut h = Harness::new(60_000);
        let mut bad = machine_adv();
        bad.ad.remove("Name");
        h.advertise_at(0, bad);
        h.run_until(0);
        assert_eq!(h.mgr.matchmaker.stats().ads_rejected, 1);
        assert_eq!(h.mgr.matchmaker.ad_count(), 0);
    }

    #[test]
    fn cycle_produces_notifications_and_withdraws_ads() {
        let mut h = Harness::new(60_000);
        h.advertise_at(0, machine_adv());
        h.advertise_at(0, job_adv());
        h.run_until(0);
        assert_eq!(h.metrics.matches, 1);
        assert_eq!(h.metrics.cycles, 1);
        assert_eq!(h.mgr.matchmaker.ad_count(), 0, "both matched ads withdrawn");
        assert_eq!(h.notified(), vec![1, 2]);
    }

    #[test]
    fn a_job_is_matched_at_its_arrival_instant() {
        // A free machine, and a job that arrives mid-period: the job is
        // matched when it arrives, not at the next tick.
        let mut h = Harness::new(60_000);
        h.advertise_at(0, machine_adv());
        h.advertise_at(5_000, job_adv());
        h.run_until(5_000);
        assert_eq!(h.metrics.matches, 1);
        assert_eq!(h.metrics.cycles, 1, "one arrival cycle, no tick yet");
        assert_eq!(h.notified(), vec![1, 2]);
    }

    #[test]
    fn arrivals_at_one_instant_share_one_cycle() {
        let mut h = Harness::new(60_000);
        for i in 0..3 {
            let mut m = machine_adv();
            m.ad.set_str("Name", &format!("m{i}"));
            h.advertise_at(1_000, m);
            let mut job = job_adv();
            job.ad.set_str("Name", &format!("alice.{i}"));
            h.advertise_at(1_000, job);
        }
        h.run_until(1_000);
        assert_eq!(h.metrics.matches, 3);
        assert_eq!(h.metrics.cycles, 1);
    }

    #[test]
    fn a_recurring_job_shape_keeps_its_match_list_across_cycles() {
        // One job of the same shape per period, arriving between ticks and
        // each taking a machine. The shape's list is built once and patched
        // after, whatever the period: nothing a cycle reads moves with the
        // clock.
        const CYCLES: u64 = 8;
        for period in [100, 60_000] {
            let mut h = Harness::new(period);
            for i in 0..CYCLES {
                let mut m = machine_adv();
                m.ad.set_str("Name", &format!("m{i}"));
                h.advertise_at(0, m);
                let mut job = job_adv();
                job.ad.set_str("Name", &format!("alice.{i}"));
                h.advertise_at(i * period + period / 2, job);
            }
            h.run_until(CYCLES * period);
            assert_eq!(h.metrics.matches, CYCLES, "period {period}");
            assert_eq!(h.metrics.cycles, 2 * CYCLES, "period {period}");
            assert_eq!(h.metrics.full_scans, 1, "period {period}");
        }
    }

    #[test]
    fn usage_reports_feed_priorities() {
        // One machine, one job each from alice and bob. Without usage they
        // tie; alice's reported usage hands the machine to bob.
        let mut h = Harness::new(60_000);
        h.send_at(
            0,
            SimMsg::UsageReport {
                user: "alice".into(),
                used_ms: 30_000,
            },
        );
        h.advertise_at(0, machine_adv());
        h.advertise_at(0, job_adv());
        let mut bob = job_adv();
        bob.ad.set_str("Name", "bob.0");
        bob.ad.set_str("Owner", "bob");
        bob.contact = "bob-ca:1".into();
        h.advertise_at(0, bob);
        h.run_until(0);
        assert_eq!(h.notified(), vec![1, 3]);
    }

    #[test]
    fn expired_ads_not_matched() {
        // The machine's lease ends at 10 ms; the job arrives at 100 ms.
        // Neither its arrival cycle nor the tick after matches it.
        let mut h = Harness::new(60_000);
        let mut short = machine_adv();
        short.expires_at = 10;
        h.advertise_at(0, short);
        h.advertise_at(100, job_adv());
        h.run_until(60_000);
        assert_eq!(h.metrics.cycles, 2);
        assert_eq!(h.metrics.matches, 0);
        assert_eq!(h.metrics.unmatched_requests, 2);
    }

    #[test]
    fn a_gang_with_a_ticketless_port_is_not_a_match() {
        // A license offer without a ticket cannot be claimed, so the gang
        // that needs it is unmatched — in every cycle, and never counted as
        // a match.
        let mut h = Harness::new(60_000);
        h.advertise_at(
            0,
            Advertisement {
                kind: EntityKind::Provider,
                ad: classad::parse_classad(
                    r#"[ Name = "lic"; Type = "License"; Constraint = true; Rank = 0 ]"#,
                )
                .unwrap(),
                contact: "lic:1".into(),
                ticket: None,
                expires_at: 1_000_000,
            },
        );
        h.advertise_at(
            0,
            Advertisement {
                kind: EntityKind::Customer,
                ad: classad::parse_classad(
                    r#"[ Name = "alice.gang.0"; Type = "Gang"; Owner = "alice";
                         Constraint = true;
                         Ports = { [ Label = "license";
                                     Constraint = other.Type == "License" ] } ]"#,
                )
                .unwrap(),
                contact: "alice-ca:1".into(),
                ticket: None,
                expires_at: 1_000_000,
            },
        );
        h.run_until(60_000);
        assert_eq!(h.metrics.cycles, 2);
        assert_eq!(h.metrics.gangs_granted, 0);
        assert_eq!(h.metrics.gangs_unmatched, 2);
        assert_eq!(h.metrics.matches, 0);
    }
}
