//! The matchmaker as a shareable service.
//!
//! The paper's matchmaker is "a general service which does not depend on
//! the kinds of services and resources that are being matched" and holds
//! only soft state. This module packages the ad store, negotiator, and
//! advertising protocol behind a thread-safe facade that a server (or a
//! multi-threaded benchmark) shares between connection threads and the
//! thread that runs negotiation cycles.
//!
//! Locking discipline: the ad store sits behind a `parking_lot::RwLock`.
//! Advertisements take the write lock briefly. A negotiation cycle takes
//! the write lock to sweep expired leases, the read lock only while it
//! reads the store (`Negotiator::sync`: the eligible requests and the
//! provider changes), and the write lock again to withdraw what it
//! matched; clustering, the fairness rounds and the grants
//! (`Negotiator::run`) hold no store lock at all. So an advertisement
//! waits only for a sweep, a sync, a withdrawal or a checkpoint, never for
//! matching, and a cycle matches against a view a few milliseconds stale:
//! the paper's weak consistency, which the claim's re-verification and
//! `withdraw_if_current` settle. The negotiator — which carries the
//! priority state and the cross-cycle match lists — sits behind a `Mutex`
//! taken only by cycles and usage reports. Queries, analyses and flock
//! grants never take it: the match engine and configuration they need are
//! immutable copies on the service. Statistics are relaxed atomics: they
//! are monotone counters with no ordering requirements.

use crate::admanager::{AdStore, Admission, StoreSnapshot, StoredAd};
use crate::matcher::{Candidate, MatchEngine};
use crate::negotiate::{
    offer_meta_of, ClusterRejections, CycleOutcome, Negotiator, NegotiatorConfig, RejectionTable,
};
use crate::protocol::{
    encode_query_reply, Advertisement, AdvertisingProtocol, EntityKind, Message, ProtocolError,
    Timestamp, TraceContext,
};
use crate::query::{project, Collection, Query};
use classad::json::to_json;
use classad::{traced_symmetric_match, ClassAd, RejectReason, RejectSide};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone service counters (readable without locks).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Advertisements accepted.
    pub ads_accepted: AtomicU64,
    /// Advertisements rejected by the advertising protocol.
    pub ads_rejected: AtomicU64,
    /// Negotiation cycles run.
    pub cycles: AtomicU64,
    /// Matches produced over all cycles.
    pub matches: AtomicU64,
    /// Queries served.
    pub queries: AtomicU64,
    /// `MatchAnalysis` ads computed.
    pub analyses: AtomicU64,
}

/// Snapshot of [`ServiceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Advertisements accepted.
    pub ads_accepted: u64,
    /// Advertisements rejected.
    pub ads_rejected: u64,
    /// Cycles run.
    pub cycles: u64,
    /// Matches produced.
    pub matches: u64,
    /// Queries served.
    pub queries: u64,
    /// `MatchAnalysis` ads computed.
    pub analyses: u64,
}

/// A frame the matchmaker endpoint refused, carrying the encoded
/// [`Message::Error`] reply the server should send the peer before
/// closing the connection — so a request/reply peer learns *why* instead
/// of waiting forever on a stream whose decoder the error poisoned.
#[derive(Debug)]
pub struct FrameRejection {
    /// Why the frame was refused.
    pub error: ProtocolError,
    /// Encoded [`Message::Error`] frame to send before closing.
    pub reply: bytes::Bytes,
}

impl FrameRejection {
    /// Wrap a protocol error together with its wire-level error reply.
    pub fn new(error: ProtocolError) -> Self {
        let reply = Message::Error {
            detail: error.to_string(),
        }
        .encode();
        FrameRejection { error, reply }
    }
}

impl std::fmt::Display for FrameRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for FrameRejection {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The most recent tick's per-cluster rejection tables, retained so
/// `MatchAnalysis` ads can name the cycle the journal's `CycleRejections`
/// event describes. Empty until a tick runs with attribution on.
#[derive(Debug, Clone, Default)]
struct RetainedRejections {
    cycle: u64,
    rejections: Vec<ClusterRejections>,
}

/// A thread-safe matchmaking service.
#[derive(Debug)]
pub struct Matchmaker {
    store: RwLock<AdStore>,
    negotiator: Mutex<Negotiator>,
    /// The negotiator's engine and configuration, fixed at construction:
    /// what out-of-cycle readers use instead of waiting for a cycle.
    engine: MatchEngine,
    config: NegotiatorConfig,
    protocol: AdvertisingProtocol,
    stats: ServiceStats,
    last_rejections: Mutex<RetainedRejections>,
}

impl Matchmaker {
    /// Create a service with the given negotiator configuration and the
    /// default advertising protocol.
    pub fn new(config: NegotiatorConfig) -> Self {
        Matchmaker::with_protocol(Negotiator::new(config), AdvertisingProtocol::default())
    }

    /// Create a service around `negotiator` — whose priority tracker may
    /// already be configured — with an explicit advertising protocol (e.g.
    /// one that demands real `host:port` contact addresses for live pools).
    pub fn with_protocol(negotiator: Negotiator, protocol: AdvertisingProtocol) -> Self {
        Matchmaker {
            store: RwLock::new(AdStore::new()),
            engine: negotiator.engine().clone(),
            config: negotiator.config.clone(),
            negotiator: Mutex::new(negotiator),
            protocol,
            stats: ServiceStats::default(),
            last_rejections: Mutex::new(RetainedRejections::default()),
        }
    }

    /// The advertising protocol in force.
    pub fn protocol(&self) -> &AdvertisingProtocol {
        &self.protocol
    }

    /// Accept one advertisement.
    pub fn advertise(&self, adv: Advertisement, now: Timestamp) -> Result<String, ProtocolError> {
        self.admit(adv, now, None).map(|(name, _)| name)
    }

    /// Accept one advertisement under an optional trace context; the
    /// context follows the stored ad into every match it produces (see
    /// [`crate::negotiate::MatchRecord::trace`]). Returns the entity's
    /// name and whether the ad should start an arrival cycle
    /// ([`Matchmaker::negotiate_arrivals`]).
    ///
    /// That is the wake rule the daemon and the simulator both follow: a new
    /// or changed job ad is something to match now, not at the next tick.
    /// A lease renewal ([`Admission::Renewed`]) changes nothing a cycle
    /// would see, a provider ad waits for the tick, and a daemon self-ad is
    /// telemetry.
    pub fn admit(
        &self,
        adv: Advertisement,
        now: Timestamp,
        trace: Option<TraceContext>,
    ) -> Result<(String, bool), ProtocolError> {
        let job = adv.is_request();
        let result = self.store.write().admit(adv, now, &self.protocol, trace);
        match &result {
            Ok(_) => self.stats.ads_accepted.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.stats.ads_rejected.fetch_add(1, Ordering::Relaxed),
        };
        result.map(|(name, admission)| (name, job && admission == Admission::Changed))
    }

    /// Accept a raw protocol frame. `Advertise` mutates the store (no
    /// response); `Query` returns a `QueryReply` frame. A malformed or
    /// out-of-protocol frame is rejected with a [`FrameRejection`] whose
    /// `reply` is an encoded [`Message::Error`]: the server sends it and
    /// then closes, instead of leaving the peer waiting on a poisoned
    /// decoder.
    pub fn handle_frame(
        &self,
        frame: bytes::Bytes,
        now: Timestamp,
    ) -> Result<Option<bytes::Bytes>, FrameRejection> {
        let msg = Message::decode(frame).map_err(FrameRejection::new)?;
        self.handle_message(msg, now).map_err(FrameRejection::new)
    }

    /// Accept one already-decoded protocol message (servers with their own
    /// stream decoder skip the redundant re-decode `handle_frame` would
    /// do). Anything but `Advertise` and `Query` is a protocol violation
    /// at this endpoint (notifications flow *from* the matchmaker, claims
    /// bypass it entirely).
    pub fn handle_message(
        &self,
        msg: Message,
        now: Timestamp,
    ) -> Result<Option<bytes::Bytes>, ProtocolError> {
        match msg {
            Message::Advertise(adv) => {
                self.admit(adv, now, None)?;
                Ok(None)
            }
            Message::Query {
                constraint,
                kind,
                projection,
            } => {
                let q = Query::from_message(&constraint, kind, projection)?;
                self.query_reply(&q, now).map(Some)
            }
            other => Err(ProtocolError::BadFrame(format!(
                "matchmaker endpoint only accepts advertisements and queries, got {other:?}"
            ))),
        }
    }

    /// Insert a daemon self-ad (a `DaemonAd = true` telemetry ad, see
    /// `condor_obs::selfad`). It goes through the same admission checks as
    /// a real advertisement — so it is queryable like any other ad — but
    /// bypasses the `ads_accepted`/`ads_rejected` counters: the service
    /// statistics keep describing the pool's real requests and offers, and
    /// the daemon's own heartbeat does not inflate them.
    pub fn publish_self_ad(
        &self,
        adv: Advertisement,
        now: Timestamp,
    ) -> Result<String, ProtocolError> {
        self.store.write().advertise(adv, now, &self.protocol)
    }

    /// Withdraw an entity's ad.
    pub fn withdraw(&self, kind: EntityKind, name: &str) -> bool {
        self.store.write().withdraw(kind, name)
    }

    /// Number of stored ads.
    pub fn ad_count(&self) -> usize {
        self.store.read().len()
    }

    /// Run `f` over the ad store under its read lock: the read-only view a
    /// pass the negotiator does not run (the gang matcher) works from.
    pub fn read_store<R>(&self, f: impl FnOnce(&AdStore) -> R) -> R {
        f(&self.store.read())
    }

    /// Checkpoint the ad store's full state — every ad and the sequence
    /// counter (see [`AdStore::snapshot_state`]). Taken under the read
    /// lock: queries go on, but advertisements wait until the copy is done
    /// (about 11 ms at 8 192 ads), as they do for a cycle's sync.
    pub fn snapshot_state(&self) -> StoreSnapshot {
        self.store.read().snapshot_state()
    }

    /// Replace the ad store with one rebuilt from a checkpoint (see
    /// [`AdStore::restore_state`]). Used by a newly inaugurated HA leader
    /// to resume from last-checkpoint-plus-tail before its first cycle;
    /// whatever the store held before is discarded.
    pub fn restore_state(&self, snap: &StoreSnapshot) {
        *self.store.write() = AdStore::restore_state(snap);
    }

    /// Run one negotiation cycle — a tick ([`Negotiator::negotiate`]) — at
    /// `now`. Expired ads are swept first (their count lands in
    /// `stats.expired_ads`).
    pub fn negotiate(&self, now: Timestamp) -> CycleOutcome {
        self.cycle(now, true)
    }

    /// Run one arrival cycle ([`Negotiator::negotiate_arrivals`]) at `now`:
    /// the grants of [`Matchmaker::negotiate`] without its attribution and
    /// flocking passes. `MatchAnalysis` keeps echoing the last tick's
    /// rejections.
    pub fn negotiate_arrivals(&self, now: Timestamp) -> CycleOutcome {
        self.cycle(now, false)
    }

    fn cycle(&self, now: Timestamp, tick: bool) -> CycleOutcome {
        let mut negotiator = self.negotiator.lock();
        let outcome = self.run_cycle(&mut negotiator, now, tick);
        self.withdraw_matched(&outcome);
        self.stats.cycles.fetch_add(1, Ordering::Relaxed);
        self.stats
            .matches
            .fetch_add(outcome.stats.matches as u64, Ordering::Relaxed);
        if tick {
            *self.last_rejections.lock() = RetainedRejections {
                cycle: outcome.cycle,
                rejections: outcome.rejections.clone(),
            };
        }
        outcome
    }

    /// Sweep under the write lock, sync under the read lock, then match
    /// with the store unlocked: advertisements and queries go on while the
    /// rounds run.
    fn run_cycle(&self, negotiator: &mut Negotiator, now: Timestamp, tick: bool) -> CycleOutcome {
        let expired = self.store.write().expire(now);
        let synced = negotiator.sync(&self.store.read(), now);
        let mut outcome = negotiator.run(synced, tick);
        outcome.stats.expired_ads = expired;
        outcome
    }

    /// Matched ads leave the store until their owners re-advertise — but
    /// only the ads the cycle actually matched. The store was unlocked
    /// since the cycle read it; an entity that re-advertised new content
    /// in that gap keeps its newer ad (the match it missed is the paper's
    /// weak-consistency case, settled at claim time).
    fn withdraw_matched(&self, outcome: &CycleOutcome) {
        let mut store = self.store.write();
        for m in &outcome.matches {
            store.withdraw_if_current(EntityKind::Customer, &m.request_name, &m.request_ad);
            store.withdraw_if_current(EntityKind::Provider, &m.offer_name, &m.offer_ad);
        }
    }

    /// Report actual usage for fair-share accounting.
    pub fn charge_usage(&self, user: &str, seconds: f64, now: Timestamp) {
        self.negotiator.lock().charge_usage(user, seconds, now);
    }

    /// Answer "why is this request not matching?" with a `MatchAnalysis`
    /// classad (the [`Collection::MatchAnalysis`] ad a `Query` reads).
    ///
    /// The reply combines two views:
    ///
    /// * **a live traced scan** — the named request (if still stored) is
    ///   re-evaluated against every current offer with the tracing
    ///   evaluator, producing `RejectBreakdown` plus the dominant failing
    ///   clause/attribute (`TopReason`, `FailingSide`, `FailingClause`,
    ///   `FailingAttr`) and `MatchesNow`, the offers it *would* match;
    /// * **the last cycle's verdict** — when the negotiator ran with
    ///   attribution on, the retained per-cluster table covering this
    ///   request is echoed verbatim (`LastCycleRejections`,
    ///   `LastCycleCluster`, `Cycle`), byte-identical to the segment the
    ///   journal's `CycleRejections` event recorded for that cycle.
    ///
    /// `Found = false` means the request ad is not currently stored —
    /// either it was never advertised, its lease expired, or it matched
    /// and was withdrawn.
    pub fn analyze(&self, name: &str, now: Timestamp) -> ClassAd {
        self.stats.analyses.fetch_add(1, Ordering::Relaxed);
        let engine = &self.engine;
        let (preemption_on, margin) = (self.config.preemption, self.config.preemption_rank_margin);
        let retained = self.last_rejections.lock().clone();

        let (request, offers): (Option<Arc<ClassAd>>, Vec<Arc<ClassAd>>) = {
            let store = self.store.read();
            let request = store.get(EntityKind::Customer, name).map(|s| s.ad.clone());
            let offers = store
                .snapshot(EntityKind::Provider, now)
                .into_iter()
                .filter(|o| !condor_obs::is_daemon_ad(&o.ad))
                .map(|o| o.ad)
                .collect();
            (request, offers)
        };

        let mut out = ClassAd::new();
        out.set_str("MyType", "MatchAnalysis");
        out.set_str("Name", name);
        out.set_bool("Found", request.is_some());
        out.set_int("PoolSize", offers.len() as i64);
        if retained.cycle > 0 {
            out.set_int("Cycle", retained.cycle as i64);
        }
        if let Some(cr) = retained
            .rejections
            .iter()
            .find(|c| c.requests.iter().any(|n| n == name))
        {
            out.set_int("LastCycleCluster", cr.cluster as i64);
            out.set_str("LastCycleRejections", &cr.encode());
        }
        let Some(request) = request else {
            return out;
        };

        let mut table = RejectionTable::default();
        let mut matches_now = 0i64;
        for (oi, offer) in offers.iter().enumerate() {
            match engine.score(&request, offer, oi) {
                None => {
                    let trace = traced_symmetric_match(
                        &request,
                        offer,
                        &engine.policy,
                        &engine.conventions,
                    );
                    table.add(trace.reason.unwrap_or(RejectReason::EvalError {
                        side: RejectSide::Request,
                    }));
                }
                Some(c) => match offer_meta_of(engine, offer).claimed_rank {
                    Some(current) if !(preemption_on && c.offer_rank > current + margin) => {
                        table.add(RejectReason::Busy);
                    }
                    _ => matches_now += 1,
                },
            }
        }
        out.set_int("MatchesNow", matches_now);
        if let Some(expr) = engine
            .conventions
            .constraint_attr_of(&request)
            .and_then(|a| request.get(a))
        {
            out.set_str("RequestConstraint", &expr.to_string());
        }
        if !table.is_empty() {
            out.set_str("RejectBreakdown", &table.encode());
            if let Some((reason, _)) = table.ranked().first() {
                out.set_str("TopReason", &reason.label());
                out.set_str("TopReasonKind", reason.kind());
                match reason {
                    RejectReason::RequirementsFalse { side, clause } => {
                        out.set_str("FailingSide", side.label());
                        out.set_str("FailingClause", clause);
                    }
                    RejectReason::UndefinedAttr { side, attr } => {
                        out.set_str("FailingSide", side.label());
                        out.set_str("FailingAttr", attr);
                    }
                    RejectReason::EvalError { side } => {
                        out.set_str("FailingSide", side.label());
                    }
                    RejectReason::Busy | RejectReason::LostRank => {}
                }
            }
        }
        out
    }

    /// Serve a peer pool's `FlockQuery`: scan the live offers for the
    /// best free provider the forwarded representative mutually matches,
    /// withdraw it from the store, and return its full advertisement —
    /// contact and authorization ticket included — as the delegation
    /// grant. The origin pool relays the grant to its customer as an
    /// ordinary `Notify`, and the customer claims the provider directly;
    /// this matchmaker never hears about the claim.
    ///
    /// Two deliberate restrictions keep local autonomy intact:
    ///
    /// * claimed providers are never granted — flocked jobs do not
    ///   preempt this pool's own claimants, whatever the ranks say;
    /// * selection uses the same deterministic order as a local cycle
    ///   (request rank, then offer rank, then oldest ad), so a flocked
    ///   representative gets exactly what a local job with the same ad
    ///   would have gotten from the free pool.
    ///
    /// Withdrawing the granted ad is soft state, not a reservation: if
    /// the remote claim never arrives, the provider's next heartbeat
    /// re-advertises it and it rejoins local negotiation a cycle later.
    pub fn flock_match(&self, rep: &ClassAd, now: Timestamp) -> Option<Advertisement> {
        // Same lock discipline as `analyze`: snapshot the store, scan
        // lock-free.
        let engine = &self.engine;
        let offers: Vec<StoredAd> = {
            let store = self.store.read();
            store
                .snapshot(EntityKind::Provider, now)
                .into_iter()
                .filter(|o| !condor_obs::is_daemon_ad(&o.ad))
                .collect()
        };
        let mut best: Option<Candidate> = None;
        for (oi, offer) in offers.iter().enumerate() {
            let Some(c) = engine.score_keyed(rep, &offer.ad, oi, offer.seq) else {
                continue;
            };
            if offer_meta_of(engine, &offer.ad).claimed_rank.is_some() {
                continue;
            }
            match &best {
                Some(b) if !c.better_than(b) => {}
                _ => best = Some(c),
            }
        }
        let grant = &offers[best?.index];
        self.store
            .write()
            .withdraw(EntityKind::Provider, &grant.name);
        Some(Advertisement {
            kind: EntityKind::Provider,
            ad: (*grant.ad).clone(),
            contact: grant.contact.clone(),
            ticket: grant.ticket,
            expires_at: grant.expires_at,
        })
    }

    /// A copy of the negotiator's match engine — its policy and
    /// evaluation conventions — for out-of-cycle scoring (flock grant
    /// ranking). Fixed at construction, so this never waits on a cycle.
    pub fn match_engine(&self) -> MatchEngine {
        self.engine.clone()
    }

    /// Serve a one-way query. Takes only the store's read lock: a status
    /// tool never waits for the negotiator.
    pub fn query(&self, q: &Query, now: Timestamp) -> Vec<ClassAd> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let store = self.store.read();
        q.run_projected(&store, now, &self.engine.policy, &self.engine.conventions)
    }

    /// Serve a one-way query as an encoded [`Message::QueryReply`] frame.
    /// A query of the [`Collection::MatchAnalysis`] collection gets the
    /// analysis of the request its `other.Name` conjunct names, if the
    /// whole constraint holds for it; without that conjunct it is an
    /// error. Any other query reads the ad store, byte-equal to encoding
    /// [`Matchmaker::query`]'s result: whole ads are written from each
    /// stored ad's cached encoding ([`StoredAd::json`]), so an ad is
    /// encoded once however often it is returned; projected results are
    /// built and encoded per query. The view and alarm collections are not
    /// this service's: their owner serves them with
    /// [`Matchmaker::collection_reply`].
    pub fn query_reply(&self, q: &Query, now: Timestamp) -> Result<bytes::Bytes, ProtocolError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        if q.collection() == Some(Collection::MatchAnalysis) {
            let name = q.name().ok_or_else(|| {
                ProtocolError::BadFrame(
                    "a MatchAnalysis query names one request: other.Name == \"<name>\"".into(),
                )
            })?;
            return Ok(self.collection_reply(q, &[self.analyze(name, now)]));
        }
        let store = self.store.read();
        let (policy, conv) = (&self.engine.policy, &self.engine.conventions);
        let selected = q.select_in(&store, now, policy, conv);
        Ok(match &q.projection {
            None => {
                let ads: Vec<Arc<str>> = selected.iter().map(|s| s.json().clone()).collect();
                drop(store);
                encode_query_reply(&ads)
            }
            Some(attrs) => {
                let ads: Vec<String> = selected
                    .iter()
                    .map(|s| to_json(&project(&s.ad, attrs, policy)))
                    .collect();
                drop(store);
                encode_query_reply(&ads)
            }
        })
    }

    /// Answer `q` over a collection's ads, under this service's evaluation
    /// policy and conventions ([`Query::select_from`]), as an encoded
    /// [`Message::QueryReply`] frame.
    pub fn collection_reply(&self, q: &Query, ads: &[ClassAd]) -> bytes::Bytes {
        let (policy, conv) = (&self.engine.policy, &self.engine.conventions);
        let ads: Vec<String> = q
            .select_from(ads, policy, conv)
            .iter()
            .map(to_json)
            .collect();
        encode_query_reply(&ads)
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            ads_accepted: self.stats.ads_accepted.load(Ordering::Relaxed),
            ads_rejected: self.stats.ads_rejected.load(Ordering::Relaxed),
            cycles: self.stats.cycles.load(Ordering::Relaxed),
            matches: self.stats.matches.load(Ordering::Relaxed),
            queries: self.stats.queries.load(Ordering::Relaxed),
            analyses: self.stats.analyses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::attr_is;
    use classad::parse_classad;

    fn machine_adv(i: usize) -> Advertisement {
        Advertisement {
            kind: EntityKind::Provider,
            ad: parse_classad(&format!(
                r#"[ Name = "m{i}"; Type = "Machine"; Mips = {};
                     Constraint = other.Type == "Job"; Rank = 0 ]"#,
                50 + i
            ))
            .unwrap(),
            contact: format!("m{i}:1"),
            ticket: None,
            expires_at: 1_000_000,
        }
    }

    fn job_adv(i: usize) -> Advertisement {
        Advertisement {
            kind: EntityKind::Customer,
            ad: parse_classad(&format!(
                r#"[ Name = "j{i}"; Type = "Job"; Owner = "u{}";
                     Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
                i % 4
            ))
            .unwrap(),
            contact: "ca:1".into(),
            ticket: None,
            expires_at: 1_000_000,
        }
    }

    #[test]
    fn advertise_negotiate_and_stats() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..4 {
            svc.advertise(machine_adv(i), 0).unwrap();
        }
        for i in 0..2 {
            svc.advertise(job_adv(i), 0).unwrap();
        }
        assert_eq!(svc.ad_count(), 6);
        let outcome = svc.negotiate(0);
        assert_eq!(outcome.stats.matches, 2);
        // Matched ads were withdrawn.
        assert_eq!(svc.ad_count(), 2);
        let s = svc.stats();
        assert_eq!(s.ads_accepted, 6);
        assert_eq!(s.cycles, 1);
        assert_eq!(s.matches, 2);
    }

    #[test]
    fn self_ads_are_queryable_but_invisible_to_negotiation() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..2 {
            svc.advertise(machine_adv(i), 0).unwrap();
            svc.advertise(job_adv(i), 0).unwrap();
        }
        let reg = condor_obs::Registry::new();
        reg.counter(condor_obs::schema::CYCLES).add(7);
        let self_ad = condor_obs::self_ad(
            "mm@local:9618",
            condor_obs::schema::MATCHMAKER_STATS,
            5,
            &reg.snapshot(),
        );
        svc.publish_self_ad(
            Advertisement {
                kind: EntityKind::Provider,
                ad: self_ad,
                contact: "local:9618".into(),
                ticket: None,
                expires_at: 1_000_000,
            },
            0,
        )
        .unwrap();
        // Not counted as a real advertisement.
        assert_eq!(svc.stats().ads_accepted, 4);
        assert_eq!(svc.ad_count(), 5);
        // Queryable through the normal path.
        let q = Query::from_constraint(&condor_obs::self_ad_constraint(
            condor_obs::schema::MATCHMAKER_STATS,
        ))
        .unwrap();
        let hits = svc.query(&q, 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get_int("Cycles"), Some(7));
        // Invisible to the negotiator: both jobs match real machines, the
        // self-ad is neither counted nor matched nor withdrawn.
        let outcome = svc.negotiate(0);
        assert_eq!(outcome.stats.offers_considered, 2);
        assert_eq!(outcome.stats.matches, 2);
        assert_eq!(svc.ad_count(), 1, "only the self-ad remains");
    }

    #[test]
    fn rejected_ads_counted() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        let mut bad = machine_adv(0);
        bad.ad.remove("Name");
        assert!(svc.advertise(bad, 0).is_err());
        assert_eq!(svc.stats().ads_rejected, 1);
        assert_eq!(svc.ad_count(), 0);
    }

    #[test]
    fn frames_accepted_only_for_advertise_and_query() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        let adv = Message::Advertise(machine_adv(1));
        assert_eq!(svc.handle_frame(adv.encode(), 0).unwrap(), None);
        let release = Message::Release {
            ticket: crate::ticket::Ticket::from_raw(1),
        };
        assert!(svc.handle_frame(release.encode(), 0).is_err());
        assert!(svc
            .handle_frame(bytes::Bytes::from_static(&[9, 9]), 0)
            .is_err());
    }

    #[test]
    fn rejections_carry_an_error_reply_frame() {
        // A peer that sends garbage gets a decodable Message::Error back
        // (to be written before the connection closes), not silence.
        let svc = Matchmaker::new(NegotiatorConfig::default());
        let rej = svc
            .handle_frame(bytes::Bytes::from_static(&[9, 9]), 0)
            .unwrap_err();
        let Message::Error { detail } = Message::decode(rej.reply.clone()).unwrap() else {
            panic!("rejection reply must be a Message::Error")
        };
        assert_eq!(detail, rej.error.to_string());
        assert!(!detail.is_empty());
        // Out-of-protocol (but well-formed) messages reject the same way.
        let release = Message::Release {
            ticket: crate::ticket::Ticket::from_raw(1),
        };
        let rej = svc.handle_frame(release.encode(), 0).unwrap_err();
        assert!(matches!(
            Message::decode(rej.reply).unwrap(),
            Message::Error { .. }
        ));
    }

    #[test]
    fn query_frames_get_reply_frames() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..3 {
            svc.advertise(machine_adv(i), 0).unwrap();
        }
        let q = Message::Query {
            constraint: "other.Mips >= 51".into(),
            kind: Some(EntityKind::Provider),
            projection: vec!["Name".into(), "Mips".into()],
        };
        let reply = svc
            .handle_frame(q.encode(), 0)
            .unwrap()
            .expect("query gets a reply");
        let Message::QueryReply { ads } = Message::decode(reply).unwrap() else {
            panic!()
        };
        assert_eq!(ads.len(), 2);
        assert_eq!(ads[0].len(), 2, "projected to Name and Mips");
        // A malformed constraint is a protocol error, not a panic.
        let bad = Message::Query {
            constraint: "((".into(),
            kind: None,
            projection: vec![],
        };
        assert!(svc.handle_frame(bad.encode(), 0).is_err());
    }

    fn whole_ad_reply(svc: &Matchmaker, constraint: &str) -> bytes::Bytes {
        let q = Message::Query {
            constraint: constraint.into(),
            kind: None,
            projection: vec![],
        };
        svc.handle_frame(q.encode(), 0).unwrap().expect("a reply")
    }

    fn cached_encoding(svc: &Matchmaker, name: &str) -> Option<Arc<str>> {
        let store = svc.store.read();
        store
            .get(EntityKind::Provider, name)
            .and_then(|s| s.encoded.get().cloned())
    }

    #[test]
    fn replies_from_cached_encodings_equal_encoding_the_ads() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..4 {
            svc.advertise(machine_adv(i), 0).unwrap();
            svc.advertise(job_adv(i), 0).unwrap();
        }
        // Three machines and four jobs, both kinds in one reply.
        let constraint = r#"other.Mips >= 51 || other.Type == "Job""#;
        let q = Query::from_constraint(constraint).unwrap();
        let expected = Message::QueryReply {
            ads: svc.query(&q, 0),
        }
        .encode();
        assert!(
            cached_encoding(&svc, "m1").is_none(),
            "filled on first reply"
        );
        assert_eq!(whole_ad_reply(&svc, constraint), expected);
        assert!(cached_encoding(&svc, "m1").is_some());
        assert!(
            cached_encoding(&svc, "m0").is_none(),
            "never returned whole"
        );
        // The second reply copies the cached strings: same bytes.
        assert_eq!(whole_ad_reply(&svc, constraint), expected);
        assert_eq!(svc.query_reply(&q, 0).unwrap(), expected);
    }

    #[test]
    fn renewals_keep_the_cached_encoding_and_changes_replace_it() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        svc.advertise(machine_adv(1), 0).unwrap();
        whole_ad_reply(&svc, "other.Mips >= 50");
        let cached = cached_encoding(&svc, "m1").expect("filled");
        svc.advertise(machine_adv(1), 1).unwrap();
        let renewed = cached_encoding(&svc, "m1").expect("kept across a renewal");
        assert!(Arc::ptr_eq(&cached, &renewed));

        let mut changed = machine_adv(1);
        changed.ad.set_int("Mips", 999);
        svc.advertise(changed, 2).unwrap();
        assert!(
            cached_encoding(&svc, "m1").is_none(),
            "a changed ad starts empty"
        );
        let Message::QueryReply { ads } =
            Message::decode(whole_ad_reply(&svc, "other.Mips >= 50")).unwrap()
        else {
            panic!("expected QueryReply")
        };
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].get_int("Mips"), Some(999), "{}", ads[0]);
    }

    fn never_matching_job() -> Advertisement {
        Advertisement {
            kind: EntityKind::Customer,
            ad: parse_classad(
                r#"[ Name = "never"; Type = "Job"; Owner = "u0";
                     Constraint = other.Type == "Machine" && other.Mips >= 1000;
                     Rank = 0 ]"#,
            )
            .unwrap(),
            contact: "ca:1".into(),
            ticket: None,
            expires_at: 1_000_000,
        }
    }

    /// The `MatchAnalysis` collection over the wire path: the reply's ads
    /// for `other.MyType == "MatchAnalysis" && (other.Name == <name>)`
    /// plus any `extra` conjuncts.
    fn analysis_ads(svc: &Matchmaker, name: &str, extra: &[&str]) -> Vec<ClassAd> {
        let mut conjuncts = vec![attr_is("Name", name)];
        conjuncts.extend(extra.iter().map(|c| c.to_string()));
        let q = Message::Query {
            constraint: Collection::MatchAnalysis.constraint(&conjuncts),
            kind: None,
            projection: vec![],
        };
        let reply = svc.handle_frame(q.encode(), 0).unwrap().expect("a reply");
        let Message::QueryReply { ads } = Message::decode(reply).unwrap() else {
            panic!("expected QueryReply")
        };
        ads
    }

    fn analysis(svc: &Matchmaker, name: &str) -> Option<ClassAd> {
        let mut ads = analysis_ads(svc, name, &[]);
        assert!(ads.len() <= 1, "one analysis per name: {ads:?}");
        ads.pop()
    }

    #[test]
    fn match_analysis_needs_a_name_and_the_whole_constraint() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        svc.advertise(machine_adv(0), 0).unwrap();
        svc.advertise(never_matching_job(), 0).unwrap();
        // Without an `other.Name` conjunct there is nothing to analyze.
        for constraint in [
            r#"other.MyType == "MatchAnalysis""#,
            r#"other.MyType == "MatchAnalysis" && (other.Name == "never" || true)"#,
        ] {
            let q = Message::Query {
                constraint: constraint.into(),
                kind: None,
                projection: vec![],
            };
            let err = svc.handle_frame(q.encode(), 0).unwrap_err();
            let Message::Error { detail } = Message::decode(err.reply).unwrap() else {
                panic!("expected Error")
            };
            assert!(
                detail.contains("a MatchAnalysis query names one request"),
                "{detail}"
            );
        }
        // The analysis ad is returned only if the whole constraint holds,
        // projected like any result.
        assert_eq!(analysis_ads(&svc, "never", &["other.Found"]).len(), 1);
        assert!(analysis_ads(&svc, "never", &["other.PoolSize > 1"]).is_empty());
        let q = Query::from_constraint(
            &Collection::MatchAnalysis.constraint(&[attr_is("Name", "never")]),
        )
        .unwrap()
        .select(&["PoolSize"]);
        let Message::QueryReply { ads } = Message::decode(svc.query_reply(&q, 0).unwrap()).unwrap()
        else {
            panic!("expected QueryReply")
        };
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].len(), 1, "{}", ads[0]);
        assert_eq!(ads[0].get_int("PoolSize"), Some(1));
        // Kind-restricted, the same constraint reads the ad store.
        let stored = q.of_kind(EntityKind::Customer);
        assert!(svc.query(&stored, 0).is_empty());
    }

    #[test]
    fn a_quoted_request_name_is_analyzed_under_exactly_that_name() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        let mut job = never_matching_job();
        let name = r#"never" || other.Name == "x"#;
        job.ad.set_str("Name", name);
        svc.advertise(job, 0).unwrap();
        svc.advertise(never_matching_job(), 0).unwrap();
        let ad = analysis(&svc, name).expect("analyzed");
        assert_eq!(ad.get_string("Name"), Some(name));
        assert_eq!(ad.get("Found").unwrap().to_string(), "true");
        let plain = analysis(&svc, "never").expect("analyzed");
        assert_eq!(plain.get_string("Name"), Some("never"));
    }

    #[test]
    fn analyze_names_the_failing_clause() {
        let svc = Matchmaker::new(NegotiatorConfig {
            attribution: true,
            ..Default::default()
        });
        for i in 0..3 {
            svc.advertise(machine_adv(i), 0).unwrap();
        }
        svc.advertise(never_matching_job(), 0).unwrap();
        let out = svc.negotiate(0);
        assert_eq!(out.stats.matches, 0);
        assert_eq!(out.rejections.len(), 1);

        let ad = analysis(&svc, "never").expect("the constraint holds");
        assert_eq!(ad.get_string("MyType"), Some("MatchAnalysis"));
        assert_eq!(ad.get_string("Name"), Some("never"));
        assert_eq!(ad.get("Found").unwrap().to_string(), "true");
        assert_eq!(ad.get_int("PoolSize"), Some(3));
        assert_eq!(ad.get_int("MatchesNow"), Some(0));
        assert_eq!(ad.get_int("Cycle"), Some(1));
        assert_eq!(ad.get_string("TopReasonKind"), Some("RequirementsFalse"));
        assert_eq!(ad.get_string("FailingSide"), Some("request"));
        assert_eq!(ad.get_string("FailingClause"), Some("other.Mips >= 1000"));
        let breakdown = ad.get_string("RejectBreakdown").unwrap();
        assert!(
            breakdown.contains("ReqFalse(request): other.Mips >= 1000=3"),
            "{breakdown}"
        );
        // The retained cycle verdict matches what the cycle itself said.
        assert_eq!(
            ad.get_string("LastCycleRejections"),
            Some(out.rejections[0].encode().as_str())
        );
        assert_eq!(
            ad.get_int("LastCycleCluster"),
            Some(out.rejections[0].cluster as i64)
        );
        assert_eq!(svc.stats().analyses, 1);
    }

    #[test]
    fn analyze_unknown_request_reports_not_found() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        svc.advertise(machine_adv(0), 0).unwrap();
        let ad = svc.analyze("no-such-job", 0);
        assert_eq!(ad.get("Found").unwrap().to_string(), "false");
        assert_eq!(ad.get_int("PoolSize"), Some(1));
        assert!(ad.get_string("RejectBreakdown").is_none());
    }

    #[test]
    fn analyze_counts_busy_offers() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        svc.advertise(
            Advertisement {
                kind: EntityKind::Provider,
                ad: parse_classad(
                    r#"[ Name = "busy"; Type = "Machine"; Mips = 2000;
                         State = "Claimed"; RemoteOwner = "other";
                         CurrentRank = 99;
                         Constraint = other.Type == "Job"; Rank = 0 ]"#,
                )
                .unwrap(),
                contact: "busy:1".into(),
                ticket: None,
                expires_at: 1_000_000,
            },
            0,
        )
        .unwrap();
        svc.advertise(never_matching_job(), 0).unwrap();
        // No cycle has run: the live scan alone classifies the pairing.
        let ad = svc.analyze("never", 0);
        assert_eq!(ad.get_string("TopReasonKind"), Some("Busy"));
        assert_eq!(ad.get_int("MatchesNow"), Some(0));
        assert!(ad.get_int("Cycle").is_none(), "no cycle retained yet");
    }

    #[test]
    fn queries_run_against_live_store() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..3 {
            svc.advertise(machine_adv(i), 0).unwrap();
        }
        let q = Query::from_constraint("other.Mips >= 51").unwrap();
        let results = svc.query(&q, 0);
        assert_eq!(results.len(), 2);
        assert_eq!(svc.stats().queries, 1);
    }

    #[test]
    fn concurrent_advertising_and_negotiation() {
        // The service must stay consistent under concurrent writers and
        // cycle-runners: every accepted ad is either matched (and
        // withdrawn) or still stored.
        let svc = Matchmaker::new(NegotiatorConfig::default());
        let threads = 4;
        let per_thread = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let svc = &svc;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let idx = t * per_thread + i;
                        svc.advertise(machine_adv(idx), 0).unwrap();
                        if idx % 5 == 0 {
                            svc.advertise(job_adv(idx), 0).unwrap();
                        }
                    }
                });
            }
            let svc = &svc;
            s.spawn(move || {
                for _ in 0..10 {
                    svc.negotiate(0);
                }
            });
        });
        // Final cycle to drain any remaining pairs.
        svc.negotiate(0);
        let s = svc.stats();
        let expected_ads = (threads * per_thread) as u64
            + s.ads_rejected
            + (0..threads * per_thread).filter(|i| i % 5 == 0).count() as u64;
        assert_eq!(s.ads_accepted + s.ads_rejected, expected_ads);
        assert_eq!(s.ads_rejected, 0);
        // All 40 jobs eventually matched (machines outnumber them).
        assert_eq!(
            s.matches,
            (0..threads * per_thread).filter(|i| i % 5 == 0).count() as u64
        );
    }

    #[test]
    fn ad_readvertised_between_cycle_and_withdrawal_is_kept() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        svc.advertise(machine_adv(0), 0).unwrap();
        svc.advertise(machine_adv(1), 0).unwrap();
        svc.advertise(job_adv(0), 0).unwrap();
        svc.advertise(job_adv(1), 0).unwrap();
        let outcome = svc.run_cycle(&mut svc.negotiator.lock(), 0, true);
        assert_eq!(outcome.stats.matches, 2);
        // In the gap before the withdrawal, m1 re-advertises with new
        // content and j1 with a new contact; m0 merely renews its lease.
        let mut changed = machine_adv(1);
        changed.ad.set_int("Mips", 999);
        svc.advertise(changed, 1).unwrap();
        svc.advertise(machine_adv(0), 1).unwrap();
        let mut moved = job_adv(1);
        moved.contact = "ca:2".into();
        svc.advertise(moved, 1).unwrap();
        svc.withdraw_matched(&outcome);
        let store = svc.store.read();
        let m1 = store
            .get(EntityKind::Provider, "m1")
            .expect("newer ad kept");
        assert_eq!(m1.ad.get_int("Mips"), Some(999));
        assert_eq!(
            store.get(EntityKind::Customer, "j1").unwrap().contact,
            "ca:2"
        );
        assert!(store.get(EntityKind::Provider, "m0").is_none(), "matched");
        assert!(store.get(EntityKind::Customer, "j0").is_none(), "matched");
    }

    /// A job whose constraint admits machines of at least `min_mips`: one
    /// cluster signature per distinct `min_mips`.
    fn shaped_job(name: &str, min_mips: usize) -> Advertisement {
        Advertisement {
            kind: EntityKind::Customer,
            ad: parse_classad(&format!(
                r#"[ Name = "{name}"; Type = "Job"; Owner = "u{}";
                     Constraint = other.Type == "Machine" && other.Mips >= {min_mips};
                     Rank = other.Mips ]"#,
                min_mips % 4
            ))
            .unwrap(),
            contact: "ca:1".into(),
            ticket: None,
            expires_at: 1_000_000,
        }
    }

    #[test]
    fn admits_withdrawals_and_queries_do_not_wait_for_matching() {
        use crate::negotiate::FullScan;
        use std::time::Instant;
        const MACHINES: usize = 1024;
        const SHAPES: usize = 32;
        const LATE: usize = 16;
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..MACHINES {
            svc.advertise(machine_adv(i), 0).unwrap();
        }
        for k in 0..SHAPES {
            svc.advertise(shaped_job(&format!("j{k}"), k), 0).unwrap();
        }
        // A cold cycle scores every shape against the whole pool on one
        // thread while another admits, withdraws and queries.
        let ((first, started, ended), returned) = std::thread::scope(|scope| {
            let cycle = scope.spawn(|| {
                let started = Instant::now();
                let out = svc.negotiate(0);
                (out, started, Instant::now())
            });
            while svc.negotiator.try_lock().is_some() {
                std::thread::yield_now();
            }
            let mut returned = Vec::new();
            for i in 0..LATE {
                svc.advertise(shaped_job(&format!("late{i}"), i), 0)
                    .unwrap();
                svc.advertise(machine_adv(MACHINES + i), 0).unwrap();
                if i % 2 == 1 {
                    svc.withdraw(EntityKind::Provider, &format!("m{}", MACHINES + i - 1));
                }
                let q = Query::from_constraint(&attr_is("Name", &format!("late{i}"))).unwrap();
                assert_eq!(svc.query(&q, 0).len(), 1);
                returned.push(Instant::now());
            }
            (cycle.join().unwrap(), returned)
        });
        let cycle = ended - started;
        assert!(
            returned[0] - started < cycle / 2 && returned[LATE - 1] < ended,
            "the first admit returned {:?} and the last operation {:?} into a {cycle:?} cycle",
            returned[0] - started,
            returned[LATE - 1] - started,
        );

        // Quiescence: drain, then every job was placed exactly once.
        let mut placed: Vec<(String, String)> = first
            .matches
            .iter()
            .map(|m| (m.request_name.clone(), m.offer_name.clone()))
            .collect();
        loop {
            let out = svc.negotiate(0);
            if out.matches.is_empty() {
                break;
            }
            placed.extend(
                out.matches
                    .into_iter()
                    .map(|m| (m.request_name, m.offer_name)),
            );
        }
        let mut jobs: Vec<&str> = placed.iter().map(|(j, _)| j.as_str()).collect();
        jobs.sort_unstable();
        let mut expected: Vec<String> = (0..SHAPES)
            .map(|k| format!("j{k}"))
            .chain((0..LATE).map(|i| format!("late{i}")))
            .collect();
        expected.sort_unstable();
        assert_eq!(jobs, expected);
        let mut machines: Vec<&str> = placed.iter().map(|(_, m)| m.as_str()).collect();
        machines.sort_unstable();
        machines.dedup();
        assert_eq!(machines.len(), placed.len(), "no machine granted twice");

        // The negotiator's cross-cycle state followed every concurrent
        // change: its next cycle grants what the full-scan oracle grants
        // over the same store.
        for k in 0..8 {
            svc.advertise(shaped_job(&format!("last{k}"), 40 + k), 0)
                .unwrap();
        }
        let oracle: Vec<(String, String)> = Negotiator::new(NegotiatorConfig::default())
            .negotiate_full(&svc.store.read(), 0, FullScan::PerRequest)
            .matches
            .into_iter()
            .map(|m| (m.request_name, m.offer_name))
            .collect();
        let grants: Vec<(String, String)> = svc
            .negotiate(0)
            .matches
            .into_iter()
            .map(|m| (m.request_name, m.offer_name))
            .collect();
        assert_eq!(oracle.len(), 8);
        assert_eq!(grants, oracle);
    }

    #[test]
    fn queries_do_not_wait_for_the_negotiator() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        svc.advertise(machine_adv(0), 0).unwrap();
        svc.advertise(never_matching_job(), 0).unwrap();
        let cycle_in_progress = svc.negotiator.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let q = Query::from_constraint("other.Mips >= 50").unwrap();
                let hits = svc.query(&q, 0).len();
                let found = svc.analyze("never", 0).get("Found").map(|e| e.to_string());
                let engine = svc.match_engine();
                tx.send((hits, found, engine)).unwrap();
            });
            let (hits, found, engine) = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("status calls finished while the negotiator lock was held");
            assert_eq!((hits, found.as_deref()), (1, Some("true")));
            assert_eq!(
                format!("{engine:?}"),
                format!("{:?}", cycle_in_progress.engine())
            );
        });
    }

    #[test]
    fn flock_match_grants_the_best_free_provider_and_withdraws_it() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        for i in 0..3 {
            svc.advertise(machine_adv(i), 0).unwrap(); // Mips 50, 51, 52
        }
        let rep = parse_classad(
            r#"[ Name = "remote-job"; Type = "Job";
                 Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
        )
        .unwrap();
        let grant = svc.flock_match(&rep, 10).expect("a grant");
        assert_eq!(grant.ad.get_string("Name"), Some("m2"), "highest rank");
        assert_eq!(grant.contact, "m2:1", "contact travels for direct claim");
        // The granted ad left the store: a second identical query gets the
        // next-best machine, not the same one twice.
        assert_eq!(svc.ad_count(), 2);
        let second = svc.flock_match(&rep, 10).expect("next grant");
        assert_eq!(second.ad.get_string("Name"), Some("m1"));
    }

    #[test]
    fn flock_match_never_grants_claimed_or_incompatible_providers() {
        let svc = Matchmaker::new(NegotiatorConfig::default());
        let mut claimed = machine_adv(0);
        claimed.ad.set_str("State", "Claimed");
        claimed.ad.set_real("CurrentRank", 0.0);
        svc.advertise(claimed, 0).unwrap();
        let rep = parse_classad(
            r#"[ Name = "remote-job"; Type = "Job";
                 Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
        )
        .unwrap();
        assert_eq!(
            svc.flock_match(&rep, 10),
            None,
            "flocked jobs never preempt local claimants"
        );
        let picky = parse_classad(
            r#"[ Name = "picky"; Type = "Job";
                 Constraint = other.Type == "Machine" && other.Mips > 9000;
                 Rank = 0 ]"#,
        )
        .unwrap();
        svc.advertise(machine_adv(1), 0).unwrap();
        assert_eq!(svc.flock_match(&picky, 10), None);
    }
}
