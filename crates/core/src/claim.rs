//! The provider side of the claiming protocol (paper §3.2, §4).
//!
//! "The RA accepts the resource request only if the ticket matches the one
//! that it gave the pool manager, and the request matches the RA's
//! constraints with respect to the updated state of the request and
//! resource, which may have changed since the last advertisement."
//!
//! This module implements that decision procedure as a small state machine
//! that agents (simulated or real) embed. The key property is **weak
//! consistency**: the matchmaker may have matched against a stale ad; the
//! claim handshake re-verifies everything against *current* state, so
//! staleness costs only a rejected claim, never a wrong allocation.

use crate::protocol::{ClaimRejection, ClaimRequest, ClaimResponse, Timestamp};
use crate::ticket::Ticket;
use classad::{constraint_holds, ClassAd, EvalPolicy, MatchConventions};

/// A provider's claim state.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimState {
    /// No active claim.
    Unclaimed,
    /// Claimed by a customer.
    Claimed {
        /// The claiming user.
        owner: String,
        /// Customer contact for the claim.
        contact: String,
        /// When the claim was established.
        since: Timestamp,
    },
}

/// Provider-side claim handler: owns the outstanding ticket and the claim
/// state, and adjudicates claim requests against the provider's *current*
/// ad.
///
/// The ticket rule: a provider re-advertises its *outstanding* ticket, so
/// a claim racing a lease renewal still verifies; only an accepted claim
/// consumes it, and the next advertisement carries a fresh one
/// ([`crate::agent::ProviderCore`] applies it for every agent).
#[derive(Debug)]
pub struct ClaimHandler {
    /// Ticket most recently advertised to the matchmaker, outstanding
    /// until an accepted claim consumes it.
    outstanding_ticket: Option<Ticket>,
    state: ClaimState,
    policy: EvalPolicy,
    conventions: MatchConventions,
}

impl ClaimHandler {
    /// New handler with default evaluation policy and conventions.
    pub fn new() -> Self {
        ClaimHandler {
            outstanding_ticket: None,
            state: ClaimState::Unclaimed,
            policy: EvalPolicy::default(),
            conventions: MatchConventions::default(),
        }
    }

    /// Current claim state.
    pub fn state(&self) -> &ClaimState {
        &self.state
    }

    /// `true` if a claim is active.
    pub fn is_claimed(&self) -> bool {
        matches!(self.state, ClaimState::Claimed { .. })
    }

    /// Record the ticket sent with the latest advertisement.
    pub fn set_ticket(&mut self, t: Ticket) {
        self.outstanding_ticket = Some(t);
    }

    /// The ticket currently outstanding, if any (see the ticket rule).
    pub fn outstanding_ticket(&self) -> Option<Ticket> {
        self.outstanding_ticket
    }

    /// Adjudicate a claim request against the provider's current ad.
    ///
    /// `preemptible` reports whether the provider is willing to displace
    /// its current claimant for this request (the RA's own policy decides;
    /// the handler only asks when a claim is already active). On
    /// acceptance the previous claim (if any) is returned so the caller
    /// can notify/vacate the displaced customer.
    pub fn handle_claim(
        &mut self,
        req: &ClaimRequest,
        current_ad: &ClassAd,
        now: Timestamp,
        preemptible: impl FnOnce(&ClaimRequest) -> bool,
    ) -> (ClaimResponse, Option<ClaimState>) {
        let reject = |r: ClaimRejection| {
            (
                ClaimResponse {
                    accepted: false,
                    rejection: Some(r),
                    provider_ad: current_ad.clone(),
                },
                None,
            )
        };

        // 1. Ticket check: must match the outstanding ticket exactly.
        let ok = match &self.outstanding_ticket {
            Some(t) => t.verify(&req.ticket),
            None => false,
        };
        if !ok {
            return reject(ClaimRejection::BadTicket);
        }

        // 2. Busy check (with the RA's preemption policy).
        let displaced = if self.is_claimed() {
            if !preemptible(req) {
                return reject(ClaimRejection::Busy);
            }
            Some(self.state.clone())
        } else {
            None
        };

        // 3. Constraint re-verification against *current* state, both ways.
        if !constraint_holds(
            current_ad,
            &req.customer_ad,
            &self.policy,
            &self.conventions,
        ) {
            return reject(ClaimRejection::ConstraintFailed);
        }
        if !constraint_holds(
            &req.customer_ad,
            current_ad,
            &self.policy,
            &self.conventions,
        ) {
            return reject(ClaimRejection::CustomerConstraintFailed);
        }

        // Accept: single-use ticket is consumed; claim becomes active.
        self.outstanding_ticket = None;
        let owner = match req.customer_ad.eval_attr("Owner", &self.policy) {
            classad::Value::Str(s) => s.to_string(),
            _ => String::new(),
        };
        self.state = ClaimState::Claimed {
            owner,
            contact: req.customer_contact.clone(),
            since: now,
        };
        (
            ClaimResponse {
                accepted: true,
                rejection: None,
                provider_ad: current_ad.clone(),
            },
            displaced,
        )
    }

    /// Release the active claim (customer finished or was preempted).
    /// Returns the released state, if any.
    pub fn release(&mut self) -> Option<ClaimState> {
        match std::mem::replace(&mut self.state, ClaimState::Unclaimed) {
            ClaimState::Unclaimed => None,
            s => Some(s),
        }
    }
}

impl Default for ClaimHandler {
    fn default() -> Self {
        ClaimHandler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;

    fn machine_ad(keyboard_idle: i64) -> ClassAd {
        parse_classad(&format!(
            r#"[ Name = "m"; Type = "Machine"; KeyboardIdle = {keyboard_idle};
                Constraint = other.Type == "Job" && KeyboardIdle > 300 ]"#
        ))
        .unwrap()
    }

    fn job_req(ticket: Ticket) -> ClaimRequest {
        ClaimRequest {
            ticket,
            customer_ad: parse_classad(
                r#"[ Name = "j"; Type = "Job"; Owner = "raman";
                    Constraint = other.Type == "Machine" ]"#,
            )
            .unwrap(),
            customer_contact: "ca:1".into(),
        }
    }

    #[test]
    fn accepts_valid_claim() {
        let mut h = ClaimHandler::new();
        let t = Ticket::from_raw(99);
        h.set_ticket(t);
        let (resp, displaced) = h.handle_claim(&job_req(t), &machine_ad(1000), 50, |_| false);
        assert!(resp.accepted, "{:?}", resp.rejection);
        assert!(displaced.is_none());
        assert!(h.is_claimed());
        match h.state() {
            ClaimState::Claimed { owner, since, .. } => {
                assert_eq!(owner, "raman");
                assert_eq!(*since, 50);
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn rejects_wrong_ticket() {
        let mut h = ClaimHandler::new();
        h.set_ticket(Ticket::from_raw(99));
        let (resp, _) = h.handle_claim(
            &job_req(Ticket::from_raw(100)),
            &machine_ad(1000),
            0,
            |_| true,
        );
        assert_eq!(resp.rejection, Some(ClaimRejection::BadTicket));
        assert!(!h.is_claimed());
    }

    #[test]
    fn rejects_without_outstanding_ticket() {
        let mut h = ClaimHandler::new();
        let (resp, _) = h.handle_claim(&job_req(Ticket::from_raw(0)), &machine_ad(1000), 0, |_| {
            true
        });
        assert_eq!(resp.rejection, Some(ClaimRejection::BadTicket));
    }

    #[test]
    fn ticket_is_single_use() {
        let mut h = ClaimHandler::new();
        let t = Ticket::from_raw(7);
        h.set_ticket(t);
        let (r1, _) = h.handle_claim(&job_req(t), &machine_ad(1000), 0, |_| false);
        assert!(r1.accepted);
        h.release();
        let (r2, _) = h.handle_claim(&job_req(t), &machine_ad(1000), 0, |_| false);
        assert_eq!(
            r2.rejection,
            Some(ClaimRejection::BadTicket),
            "replay must fail"
        );
    }

    #[test]
    fn stale_ad_rejected_by_current_state() {
        // The machine advertised while idle, but by claim time the keyboard
        // is active: the constraint re-check against *current* state fails.
        let mut h = ClaimHandler::new();
        let t = Ticket::from_raw(1);
        h.set_ticket(t);
        let (resp, _) = h.handle_claim(&job_req(t), &machine_ad(10), 0, |_| false);
        assert_eq!(resp.rejection, Some(ClaimRejection::ConstraintFailed));
        assert!(!h.is_claimed());
        // The response carries the current ad so the customer can see why.
        assert_eq!(resp.provider_ad.get_int("KeyboardIdle"), Some(10));
    }

    #[test]
    fn customer_constraint_also_rechecked() {
        let mut h = ClaimHandler::new();
        let t = Ticket::from_raw(1);
        h.set_ticket(t);
        let mut req = job_req(t);
        req.customer_ad.set(
            "Constraint",
            classad::parse_expr("other.Memory >= 1024").unwrap(),
        );
        let (resp, _) = h.handle_claim(&req, &machine_ad(1000), 0, |_| false);
        assert_eq!(
            resp.rejection,
            Some(ClaimRejection::CustomerConstraintFailed)
        );
    }

    #[test]
    fn busy_rejected_unless_preemptible() {
        let mut h = ClaimHandler::new();
        let t1 = Ticket::from_raw(1);
        h.set_ticket(t1);
        let (r, _) = h.handle_claim(&job_req(t1), &machine_ad(1000), 0, |_| false);
        assert!(r.accepted);
        // Second claim with a fresh ticket, provider not preemptible.
        let t2 = Ticket::from_raw(2);
        h.set_ticket(t2);
        let (r, _) = h.handle_claim(&job_req(t2), &machine_ad(1000), 5, |_| false);
        assert_eq!(r.rejection, Some(ClaimRejection::Busy));
        // Now preemptible: accepted, and the displaced claim is returned.
        h.set_ticket(t2);
        let (r, displaced) = h.handle_claim(&job_req(t2), &machine_ad(1000), 9, |_| true);
        assert!(r.accepted);
        match displaced {
            Some(ClaimState::Claimed { since, .. }) => assert_eq!(since, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn release_returns_state_once() {
        let mut h = ClaimHandler::new();
        let t = Ticket::from_raw(1);
        h.set_ticket(t);
        h.handle_claim(&job_req(t), &machine_ad(1000), 0, |_| false);
        assert!(h.release().is_some());
        assert!(h.release().is_none());
        assert!(!h.is_claimed());
    }
}
