//! A software-license provider agent: the simplest non-machine resource
//! in the pool, demonstrating the paper's claim that "a large number of
//! dissimilar resources (such as workstations, tape drives, network
//! links, application instances, and software licenses)" all fit the same
//! advertise/match/claim cycle. Its protocol decisions are the live
//! resource agent's: a [`ProviderCore`] that never preempts.

use crate::ctx::Ctx;
use crate::types::{Event, LicenseTimer, NodeId, SimMsg};
use classad::ClassAd;
use matchmaker::agent::{Preemption, ProviderCore};
use matchmaker::protocol::{ClaimRequest, Message};
use rand::Rng;

/// A single-seat license token served through matchmaking.
#[derive(Debug)]
pub struct LicenseAgent {
    /// This node's id.
    pub id: NodeId,
    /// The manager node to advertise to.
    pub manager: NodeId,
    /// License (ad) name, e.g. `"matlab-lic-0"`.
    pub name: String,
    /// Product string advertised.
    pub product: String,
    /// Contact address (directory key).
    pub contact: String,
    /// Advertisement refresh period, ms.
    pub advertise_period_ms: u64,
    core: ProviderCore,
}

impl LicenseAgent {
    /// Create a license agent.
    pub fn new(
        id: NodeId,
        manager: NodeId,
        name: &str,
        product: &str,
        advertise_period_ms: u64,
        ticket_seed: u64,
    ) -> Self {
        LicenseAgent {
            id,
            manager,
            name: name.to_string(),
            product: product.to_string(),
            contact: format!("{name}:27000"),
            advertise_period_ms,
            // One seat, first valid claim wins.
            core: ProviderCore::new(ticket_seed, Preemption::Never),
        }
    }

    /// Is the seat currently claimed?
    pub fn is_claimed(&self) -> bool {
        self.core.is_claimed()
    }

    /// The license's current classad.
    pub fn build_ad(&self) -> ClassAd {
        let state = if self.is_claimed() {
            "Claimed"
        } else {
            "Unclaimed"
        };
        classad::parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "License";
                 Product = "{product}"; Seats = 1;
                 State = "{state}";
                 Constraint = other.Type == "Gang" || other.Type == "Job";
                 Rank = 0 ]"#,
            name = self.name,
            product = self.product,
        ))
        .unwrap()
    }

    /// Initialize: schedule the first advertisement (jittered).
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rng.gen_range(0..self.advertise_period_ms.max(1));
        ctx.schedule(
            jitter,
            Event::License {
                node: self.id,
                tag: LicenseTimer::Advertise,
            },
        );
    }

    fn advertise(&mut self, ctx: &mut Ctx<'_>) {
        // A claimed seat advertises nothing: the old ad's lease lapses.
        let expires_at = ctx.now + self.advertise_period_ms * 2 + self.advertise_period_ms / 2;
        if let Some(adv) = self
            .core
            .advertisement(self.build_ad(), &self.contact, expires_at)
        {
            ctx.send_to_node(self.manager, SimMsg::Proto(Message::Advertise(adv)));
        }
    }

    /// Handle a timer event.
    pub fn on_timer(&mut self, tag: LicenseTimer, ctx: &mut Ctx<'_>) {
        match tag {
            LicenseTimer::Advertise => {
                self.advertise(ctx);
                ctx.schedule(
                    self.advertise_period_ms,
                    Event::License {
                        node: self.id,
                        tag: LicenseTimer::Advertise,
                    },
                );
            }
        }
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, msg: SimMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SimMsg::Claim { job, req } => self.on_claim(job, req, ctx),
            SimMsg::Proto(Message::Release { .. }) => {
                self.core.release();
                self.advertise(ctx);
            }
            _ => {}
        }
    }

    fn on_claim(&mut self, job: String, req: ClaimRequest, ctx: &mut Ctx<'_>) {
        let (resp, _) = self.core.claim(&req, &self.build_ad(), ctx.now);
        if resp.accepted {
            ctx.metrics.claims_accepted += 1;
        } else if let Some(why) = resp.rejection {
            ctx.metrics.claim_rejected(why);
        }
        ctx.send_to_contact(&req.customer_contact, SimMsg::ClaimReply { job, resp });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventQueue;
    use crate::metrics::Metrics;
    use crate::network::NetworkModel;
    use matchmaker::ticket::{Ticket, TicketIssuer};
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
            directory.insert("ca:1".to_string(), 9);
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

    fn claim(ticket: Ticket) -> SimMsg {
        SimMsg::Claim {
            job: "g".into(),
            req: matchmaker::agent::claim_request(
                ticket,
                classad::parse_classad(
                    r#"[ Name = "g"; Type = "Gang"; Owner = "u"; Constraint = true ]"#,
                )
                .unwrap(),
                "ca:1",
            ),
        }
    }

    #[test]
    fn re_advertising_keeps_the_outstanding_ticket() {
        let mut h = H::new();
        let mut lic = LicenseAgent::new(1, 0, "lic", "matlab", 60_000, 4);
        lic.advertise(&mut h.ctx());
        lic.advertise(&mut h.ctx());
        let mut tickets = Vec::new();
        while let Some((_, ev)) = h.queue.pop() {
            if let Event::Deliver {
                msg: SimMsg::Proto(Message::Advertise(a)),
                ..
            } = ev
            {
                tickets.push(a.ticket.unwrap());
            }
        }
        assert_eq!(tickets.len(), 2);
        assert_eq!(tickets[0], tickets[1]);
        lic.on_message(claim(tickets[0]), &mut h.ctx());
        assert!(lic.is_claimed(), "a claim on the first ad's ticket holds");
    }

    #[test]
    fn advertises_until_claimed() {
        let mut h = H::new();
        let mut lic = LicenseAgent::new(1, 0, "matlab-lic-0", "matlab", 60_000, 4);
        {
            let mut ctx = h.ctx();
            lic.advertise(&mut ctx);
        }
        assert_eq!(h.metrics.messages_sent, 1);
        // Claim with the outstanding ticket.
        let ticket = {
            // Re-derive the ticket by replaying the issuer.
            let mut t = TicketIssuer::new(4);
            t.issue()
        };
        let mut ctx = h.ctx();
        lic.on_message(claim(ticket), &mut ctx);
        assert!(lic.is_claimed());
        // Claimed seat does not re-advertise.
        let sent_before = h.metrics.messages_sent;
        let mut ctx = h.ctx();
        lic.on_timer(LicenseTimer::Advertise, &mut ctx);
        // Only the timer reschedule, no Advertise message.
        assert_eq!(h.metrics.messages_sent, sent_before);
    }

    #[test]
    fn release_frees_the_seat() {
        let mut h = H::new();
        let mut lic = LicenseAgent::new(1, 0, "lic", "matlab", 60_000, 4);
        let ticket = TicketIssuer::new(4).issue();
        {
            let mut ctx = h.ctx();
            lic.advertise(&mut ctx);
            lic.on_message(claim(ticket), &mut ctx);
        }
        assert!(lic.is_claimed());
        let mut ctx = h.ctx();
        lic.on_message(SimMsg::Proto(Message::Release { ticket }), &mut ctx);
        assert!(!lic.is_claimed());
    }

    #[test]
    fn ad_matches_gang_envelopes() {
        let lic = LicenseAgent::new(1, 0, "lic", "matlab", 60_000, 4);
        let ad = lic.build_ad();
        let gang = classad::parse_classad(
            r#"[ Name = "g"; Type = "Gang"; Owner = "u"; Constraint = true ]"#,
        )
        .unwrap();
        assert!(classad::symmetric_match(
            &ad,
            &gang,
            &classad::EvalPolicy::default(),
            &classad::MatchConventions::default()
        ));
    }
}
