//! The negotiation cycle: the matchmaking algorithm plus the fair-matching
//! policy (paper §4).
//!
//! "Periodically, the pool manager enters a negotiation cycle. This phase
//! invokes the matchmaking algorithm, which determines which CAs require
//! matchmaking services, obtains requests from these CAs, and matches them
//! with compatible RA ads."
//!
//! Fairness is implemented in two cooperating layers:
//!
//! * **across cycles** — past usage decays into an effective user priority
//!   ([`crate::priority`]), and users are served best-priority-first;
//! * **within a cycle** — users are served in *rounds* (one request per
//!   user per round), so a user with a thousand queued jobs cannot starve
//!   everyone behind them in a single cycle.
//!
//! Preemption follows the paper's model: a claimed resource "may also send
//! an ad when it starts running the job, indicating that although the
//! workstation is currently busy, it is still interested in hearing from
//! higher priority customers. The specification of what constitutes higher
//! priority is completely under the control of the RA" — i.e. a claimed
//! offer is matched only when the offer's *own* `Rank` of the new request
//! strictly exceeds its rank of the current claimant (advertised as
//! `CurrentRank`).

use crate::admanager::{AdStore, FeedCursor, StoredAd};
use crate::autocluster::{
    cluster_requests, offer_external_refs, request_signature, MatchList, OfferMeta,
};
use crate::matcher::{Candidate, MatchEngine};
use crate::priority::PriorityTracker;
use crate::protocol::{EntityKind, MatchNotification, Timestamp};
use crate::ticket::Ticket;
use classad::{traced_symmetric_match, ClassAd, RejectReason, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Attribute names the negotiator reads from ads (beyond the match
/// conventions).
const ATTR_OWNER: &str = "Owner";
const ATTR_STATE: &str = "State";
const ATTR_CURRENT_RANK: &str = "CurrentRank";
const ATTR_REMOTE_OWNER: &str = "RemoteOwner";
const STATE_CLAIMED: &str = "Claimed";

/// Negotiator tunables. Policy only: how a cycle finds its matches is not
/// configurable (see [`Negotiator::negotiate`]).
#[derive(Debug, Clone)]
pub struct NegotiatorConfig {
    /// Whether claimed resources may be matched to better-ranked requests.
    pub preemption: bool,
    /// How much the offer must prefer the new request over its current
    /// claimant (`offer_rank > CurrentRank + margin`).
    pub preemption_rank_margin: f64,
    /// Usage (resource-seconds) charged to a user per successful match, as
    /// an advance estimate; agents report actual usage later through
    /// [`Negotiator::charge_usage`].
    pub charge_per_match: f64,
    /// After the rounds, classify every rejected (cluster, offer) pairing
    /// into per-cluster [`RejectionTable`]s using the tracing evaluator
    /// ([`classad::traced_symmetric_match`]). Off by default: attribution
    /// re-scans the pool once per *unmatched* cluster, and pools that do
    /// not serve `MatchAnalysis` queries should not pay for it. Match outcomes
    /// are identical either way.
    pub attribution: bool,
    /// After the rounds, collect one [`UnmatchedCluster`] per autocluster
    /// left entirely unmatched — the post-cycle hook pool federation
    /// (flocking) forwards to peer pools. Off by default: a pool with no
    /// flock peers pays nothing, not even the grouping pass. Match
    /// outcomes are identical either way.
    pub flocking: bool,
}

impl Default for NegotiatorConfig {
    fn default() -> Self {
        NegotiatorConfig {
            preemption: true,
            preemption_rank_margin: 0.0,
            charge_per_match: 0.0,
            attribution: false,
            flocking: false,
        }
    }
}

/// Which reference implementation [`Negotiator::negotiate_full`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullScan {
    /// Autocluster the requests and serve each cluster from one match list
    /// built by a full scan this cycle.
    Clustered,
    /// No clustering: one scan per request, rescanning past claimed offers
    /// the request cannot preempt.
    PerRequest,
}

/// How many distinct [`RejectReason`]s a [`RejectionTable`] keeps before
/// folding further reasons into its overflow bucket.
const MAX_TABLE_REASONS: usize = 8;

/// A bounded-cardinality histogram of [`RejectReason`]s. The first
/// [`MAX_TABLE_REASONS`] distinct reasons get their own buckets; anything
/// rarer lands in a single overflow count, so the table stays small no
/// matter how pathological the pool's constraints are.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RejectionTable {
    entries: Vec<(RejectReason, u64)>,
    overflow: u64,
}

impl RejectionTable {
    /// Count one rejection.
    pub fn add(&mut self, reason: RejectReason) {
        if let Some((_, n)) = self.entries.iter_mut().find(|(r, _)| *r == reason) {
            *n += 1;
        } else if self.entries.len() < MAX_TABLE_REASONS {
            self.entries.push((reason, 1));
        } else {
            self.overflow += 1;
        }
    }

    /// Total rejections counted (including the overflow bucket).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, n)| n).sum::<u64>() + self.overflow
    }

    /// Rejections that did not get their own bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// No rejections recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.overflow == 0
    }

    /// Buckets sorted most-frequent first (ties broken by label for a
    /// deterministic rendering).
    pub fn ranked(&self) -> Vec<(&RejectReason, u64)> {
        let mut v: Vec<(&RejectReason, u64)> = self.entries.iter().map(|(r, n)| (r, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.label().cmp(&b.0.label())));
        v
    }

    /// Render as `label=count; label=count[; +overflow=n]`, most frequent
    /// first — the format self-ads, journal events, and `MatchAnalysis` ads
    /// share, so their counts can be compared textually.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (reason, n) in self.ranked() {
            if !out.is_empty() {
                out.push_str("; ");
            }
            let _ = write!(out, "{}={n}", reason.label());
        }
        if self.overflow > 0 {
            if !out.is_empty() {
                out.push_str("; ");
            }
            let _ = write!(out, "+overflow={}", self.overflow);
        }
        out
    }

    /// Count per coarse reason kind (see [`RejectReason::kind`]); the
    /// overflow bucket is not attributable and is excluded.
    pub fn count_kind(&self, kind: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(r, _)| r.kind() == kind)
            .map(|(_, n)| n)
            .sum()
    }
}

/// Why one request equivalence class went (partly) unserved: every
/// non-granted (member, offer) pairing classified by reason. Produced only
/// for clusters with at least one unmatched request — matched clusters
/// need no diagnosis.
#[derive(Debug, Clone)]
pub struct ClusterRejections {
    /// Cluster id (request index on the [`FullScan::PerRequest`] oracle).
    pub cluster: usize,
    /// Names of the cluster's unmatched requests (capped; see
    /// [`ClusterRejections::MAX_NAMES`]).
    pub requests: Vec<String>,
    /// Unmatched requests beyond the `requests` cap.
    pub more_requests: usize,
    /// The representative request's constraint text, for display.
    pub constraint: Option<String>,
    /// The classified rejections.
    pub table: RejectionTable,
}

impl ClusterRejections {
    /// Cap on the member names carried per cluster.
    pub const MAX_NAMES: usize = 5;

    /// Render as `c<id>[name+name]: <table>` — one segment of the
    /// `CycleRejections` journal event's breakdown, and the exact string
    /// a `MatchAnalysis` ad echoes for the request's cluster.
    pub fn encode(&self) -> String {
        let mut names = self.requests.join("+");
        if self.more_requests > 0 {
            let _ = write!(names, "+{}more", self.more_requests);
        }
        format!("c{}[{}]: {}", self.cluster, names, self.table.encode())
    }
}

/// One match produced by a negotiation cycle.
#[derive(Debug, Clone)]
pub struct MatchRecord {
    /// Customer-side (request) ad name.
    pub request_name: String,
    /// The request's owner (user).
    pub owner: String,
    /// The request ad as matched.
    pub request_ad: Arc<ClassAd>,
    /// Customer contact address.
    pub customer_contact: String,
    /// Provider-side (offer) ad name.
    pub offer_name: String,
    /// The offer ad as matched.
    pub offer_ad: Arc<ClassAd>,
    /// Provider contact address.
    pub provider_contact: String,
    /// Provider's authorization ticket to relay to the customer.
    pub ticket: Option<Ticket>,
    /// The request's rank of the offer.
    pub request_rank: f64,
    /// The offer's rank of the request.
    pub offer_rank: f64,
    /// If this match preempts a running claim, the displaced user.
    pub preempts: Option<String>,
    /// The request ad's trace context (see
    /// [`crate::admanager::StoredAd::trace`]), so the notifier can keep
    /// the match's causal chain alive across daemons.
    pub trace: Option<crate::protocol::TraceContext>,
}

impl MatchRecord {
    /// Build the two step-3 notifications (customer copy carries the
    /// ticket; provider copy does not need it).
    pub fn notifications(&self) -> (MatchNotification, MatchNotification) {
        let to_customer = MatchNotification {
            own_ad: (*self.request_ad).clone(),
            peer_ad: (*self.offer_ad).clone(),
            peer_contact: self.provider_contact.clone(),
            ticket: self.ticket,
        };
        let to_provider = MatchNotification {
            own_ad: (*self.offer_ad).clone(),
            peer_ad: (*self.request_ad).clone(),
            peer_contact: self.customer_contact.clone(),
            ticket: None,
        };
        (to_customer, to_provider)
    }
}

/// Aggregate statistics for one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleStats {
    /// Requests in the store at cycle start.
    pub requests_considered: usize,
    /// Offers in the store at cycle start.
    pub offers_considered: usize,
    /// Matches produced.
    pub matches: usize,
    /// Of which preemptions.
    pub preemptions: usize,
    /// Requests that found no compatible offer.
    pub unmatched_requests: usize,
    /// Distinct users that received at least one match.
    pub users_served: usize,
    /// Fairness rounds executed.
    pub rounds: usize,
    /// Request equivalence classes formed (0 on the
    /// [`FullScan::PerRequest`] oracle).
    pub clusters_formed: usize,
    /// Requests served from an already-built cluster match list.
    pub matchlist_hits: usize,
    /// Full scans of the offer pool: match-list builds from scratch on the
    /// clustered paths, every best-match invocation (including
    /// preemption-exclusion rescans) on the [`FullScan::PerRequest`]
    /// oracle.
    pub full_scans: usize,
    /// Ads swept by lease expiry just before this cycle (filled in by the
    /// service layer, which owns the sweep; zero when negotiating against
    /// a store directly).
    pub expired_ads: usize,
    /// The store is one partition: 1 if the incremental path read any
    /// change this cycle — a change-feed entry, the whole table, or its
    /// held leases because their watermark passed — else 0 (0 on the
    /// full-scan path). Kept under this name for the benchmark ledger's
    /// `core.negotiate.shards_*` rows.
    pub shards_scanned: usize,
    /// The converse of [`CycleStats::shards_scanned`]: 1 if the
    /// incremental path read nothing from the store this cycle.
    pub shards_skipped: usize,
    /// Provider ads whose cached state (claim metadata, external refs) was
    /// derived this cycle: the ads added or changed since the last cycle
    /// (the whole pool on a cold cycle; 0 on the full-scan path, which
    /// caches nothing). Withdrawn, renewed and lapsed ads cost none.
    pub dirty_resources: usize,
    /// (cluster, offer) pairs the incremental path scored this cycle:
    /// `clusters × pool` for lists built from scratch, `clusters × delta`
    /// once they are warm, 0 when nothing changed.
    pub pairs_evaluated: usize,
    /// 1 if this cycle reused offers cached by a previous cycle, 0 for a
    /// from-scratch cycle — summed into a counter by
    /// [`CycleStats::record`], so the registry total reads "cycles that
    /// ran incrementally".
    pub incremental_cycles: usize,
    /// Rejected (cluster, offer) pairings classified by the attribution
    /// pass (0 unless [`NegotiatorConfig::attribution`] is on, and on an
    /// arrival cycle, which runs no attribution).
    pub rejected_pairings: usize,
    /// Of which: a constraint evaluated to a definite `false`.
    pub reject_req_false: usize,
    /// Of which: a constraint evaluated to `undefined`.
    pub reject_undefined: usize,
    /// Of which: a constraint evaluated to `error` or a non-boolean.
    pub reject_error: usize,
    /// Of which: offer claimed and not preemptible.
    pub reject_busy: usize,
    /// Of which: compatible, but the offer went to a competing request.
    pub reject_lost_rank: usize,
}

impl CycleStats {
    /// Fold this cycle into an observability registry using the shared
    /// metric schema ([`condor_obs::schema`]): monotone totals accumulate
    /// into counters, the per-cycle figures land in `last_cycle_*` gauges.
    /// Cycle wall-clock duration is not known here — callers that time the
    /// cycle record it into [`condor_obs::schema::CYCLE_DURATION_MS`].
    pub fn record(&self, registry: &condor_obs::Registry) {
        use condor_obs::schema;
        registry.counter(schema::CYCLES).inc();
        registry.counter(schema::MATCHES).add(self.matches as u64);
        registry
            .counter(schema::REQUESTS_CONSIDERED)
            .add(self.requests_considered as u64);
        registry
            .counter(schema::UNMATCHED_REQUESTS)
            .add(self.unmatched_requests as u64);
        registry
            .counter(schema::PREEMPTIONS)
            .add(self.preemptions as u64);
        registry
            .counter(schema::CLUSTERS_FORMED)
            .add(self.clusters_formed as u64);
        registry
            .counter(schema::MATCHLIST_HITS)
            .add(self.matchlist_hits as u64);
        registry
            .counter(schema::FULL_SCANS)
            .add(self.full_scans as u64);
        registry
            .counter(schema::ADS_EXPIRED)
            .add(self.expired_ads as u64);
        registry
            .counter(schema::DIRTY_RESOURCES)
            .add(self.dirty_resources as u64);
        registry
            .counter(schema::PAIRS_EVALUATED)
            .add(self.pairs_evaluated as u64);
        registry
            .counter(schema::INCREMENTAL_CYCLES)
            .add(self.incremental_cycles as u64);
        registry
            .gauge(schema::LAST_CYCLE_REQUESTS)
            .set(self.requests_considered as i64);
        registry
            .gauge(schema::LAST_CYCLE_OFFERS)
            .set(self.offers_considered as i64);
        registry
            .gauge(schema::LAST_CYCLE_MATCHES)
            .set(self.matches as i64);
        registry
            .gauge(schema::LAST_CYCLE_UNMATCHED)
            .set(self.unmatched_requests as i64);
        registry
            .counter(schema::REJECTED_PAIRINGS)
            .add(self.rejected_pairings as u64);
        registry
            .counter(schema::REJECT_REQ_FALSE)
            .add(self.reject_req_false as u64);
        registry
            .counter(schema::REJECT_UNDEFINED)
            .add(self.reject_undefined as u64);
        registry
            .counter(schema::REJECT_ERROR)
            .add(self.reject_error as u64);
        registry
            .counter(schema::REJECT_BUSY)
            .add(self.reject_busy as u64);
        registry
            .counter(schema::REJECT_LOST_RANK)
            .add(self.reject_lost_rank as u64);
        registry
            .gauge(schema::LAST_CYCLE_REJECTED)
            .set(self.rejected_pairings as i64);
    }
}

/// The outcome of a negotiation cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleOutcome {
    /// Matches, in the order they were granted.
    pub matches: Vec<MatchRecord>,
    /// Statistics.
    pub stats: CycleStats,
    /// This cycle's ordinal (1-based, counted by the negotiator across its
    /// lifetime) — lets retained rejection tables, journal events, and
    /// `MatchAnalysis` ads name the same cycle.
    pub cycle: u64,
    /// Per-cluster rejection tables for clusters left with unmatched
    /// requests (empty unless [`NegotiatorConfig::attribution`] is on, and
    /// after an arrival cycle).
    pub rejections: Vec<ClusterRejections>,
    /// One entry per autocluster left with unmatched requests, each
    /// represented by its first unmatched member (empty unless
    /// [`NegotiatorConfig::flocking`] is on, and after an arrival cycle).
    /// The flocking hook forwards these representatives to peer pools
    /// after the cycle.
    pub unmatched_clusters: Vec<UnmatchedCluster>,
}

/// An autocluster a completed cycle could not serve, reduced to the one
/// representative ad flocking forwards to peer pools. The representative
/// is the cluster's first unmatched member in request order — the same
/// rule the attribution pass uses, and deterministic because request
/// order is seq order. Cluster signatures guarantee every member shares
/// the representative's constraint text, so a peer's verdict on the
/// representative holds for the whole cluster.
#[derive(Debug, Clone)]
pub struct UnmatchedCluster {
    /// The cluster's id within its cycle.
    pub cluster: usize,
    /// The representative request's `Name`.
    pub rep_name: String,
    /// The representative request's ad.
    pub rep_ad: Arc<ClassAd>,
    /// The representative's customer contact — where a remote grant is
    /// delivered as an ordinary `Notify`.
    pub customer_contact: String,
    /// The trace the representative's match lifecycle belongs to; carried
    /// on flock frames so a cross-pool match stitches into one span tree.
    pub trace: Option<crate::protocol::TraceContext>,
    /// How many unmatched requests the representative stands for.
    pub members: usize,
}

/// One live provider ad as the negotiator last derived it. The slot keeps
/// the [`StoredAd`] — and with it the `Arc` — alive, so `(seq, Arc
/// pointer)` stays a sound identity for as long as the slot exists: a
/// store rebuilt by [`AdStore::restore_state`] may hand out an old `seq`
/// again, never an old pointer.
#[derive(Debug)]
struct OfferSlot {
    /// The ad's canonical name, its key in [`OfferTable::by_key`].
    key: Arc<str>,
    stored: StoredAd,
    /// Request-side attribute names this ad can read — its contribution to
    /// the signature seed set, reference-counted in [`OfferTable::external`].
    external: Vec<Arc<str>>,
}

/// One cluster signature's rank-ordered candidate list over the whole pool
/// (candidate index = slot, tie key = ad seq), kept across cycles.
#[derive(Debug, Default)]
struct ClusterList {
    list: MatchList,
    /// Absolute [`OfferTable::log`] position this list has caught up to.
    synced: u64,
    /// The [`OfferTable::ticks`] count when a request last hashed to this
    /// signature.
    last_used: u64,
}

/// How many ticks ([`Negotiator::negotiate`] cycles) a cluster's list
/// survives without any request hashing to its signature. Arrival cycles
/// ([`Negotiator::negotiate_arrivals`]) do not count: a daemon that runs
/// one per job arrival runs hundreds a second, and a list must outlive a
/// burst of them to be reused. A daemon ticks once per `cycle_interval`,
/// so a dead signature's list is gone after about 8 intervals.
pub const MATCH_LIST_TTL_TICKS: u64 = 8;

/// Cross-cycle memory of the incremental path: a table of the live
/// provider ads in stable slots, and the per-cluster candidate lists as
/// views over it, maintained from the table's changes (DESIGN.md §7).
#[derive(Debug, Default)]
struct OfferTable {
    slots: Vec<Option<OfferSlot>>,
    /// Claim metadata per slot (parallel to `slots`, the layout
    /// [`MatchList::pop_next`] reads).
    meta: Vec<OfferMeta>,
    free: Vec<usize>,
    /// The slot of each held ad, by canonical name.
    by_key: HashMap<Arc<str>, usize>,
    live: usize,
    /// The signature seed set, with how many live ads read each name.
    external: BTreeMap<Arc<str>, usize>,
    /// Where this table last read the store's change feed.
    cursor: FeedCursor,
    /// No held lease ends before this. Stale low: a pure renewal moves a
    /// lease without a feed entry, so held leases lag the store's.
    min_expiry: Timestamp,
    /// Slots whose ad left or was replaced this sync, evicted once every
    /// new ad has a slot (kept between syncs for its allocation).
    leaving: Vec<usize>,
    /// Slot of every ad admitted or evicted, oldest first; `log[0]` is at
    /// absolute position `log_base`. Trimmed to what the list furthest
    /// behind still needs.
    log: Vec<usize>,
    log_base: u64,
    lists: HashMap<String, ClusterList>,
    /// Ticks run against this table: the clock lists age by.
    ticks: u64,
    /// Per-slot scratch marks ("seen in this sync", "touched since this
    /// list caught up"), valid when equal to `mark`.
    marks: Vec<u64>,
    mark: u64,
    merge_buf: Vec<Candidate>,
}

impl OfferTable {
    /// Bring the table up to the store's state at `now`. A cycle reads
    /// the provider names the store's change feed lists since the last
    /// sync and diffs each against its slot by `(seq, Arc pointer)`; a
    /// cursor the feed cannot continue diffs the whole table instead.
    /// Classads are evaluated only for ads the table has not seen. When
    /// the held leases' watermark passes, every held lease is refreshed
    /// from the store and the lapsed ads leave, swept or not.
    fn sync(
        &mut self,
        engine: &MatchEngine,
        store: &AdStore,
        now: Timestamp,
        stats: &mut CycleStats,
    ) {
        let mut read = false;
        let mut refresh = self.min_expiry <= now;
        match store.changes_since(self.cursor) {
            Some(changes) => {
                for key in changes {
                    read = true;
                    let ad = store.get(EntityKind::Provider, key);
                    self.diff(engine, key, ad, now, stats);
                }
            }
            None => {
                // The first sync, a restored store, or a reader the feed
                // left behind: diff every stored provider, then let the
                // lease pass drop the slots no stored ad confirms. Ads
                // keep their identity, so slots survive.
                for (key, ad) in store.providers() {
                    self.diff(engine, key, Some(ad), now, stats);
                }
                refresh = true;
            }
        }
        self.cursor = store.feed_end();
        if refresh {
            read = true;
            let mut min_expiry = Timestamp::MAX;
            for (slot, held) in self.slots.iter_mut().enumerate() {
                let Some(held) = held else { continue };
                match store.get(EntityKind::Provider, &held.key) {
                    Some(ad) if ad.expires_at > now => {
                        held.stored.expires_at = ad.expires_at;
                        min_expiry = min_expiry.min(ad.expires_at);
                    }
                    _ => self.leaving.push(slot),
                }
            }
            self.min_expiry = min_expiry;
        }
        // Withdrawn, replaced, lapsed or swept: no evaluation needed.
        for i in 0..self.leaving.len() {
            self.evict(self.leaving[i]);
        }
        self.leaving.clear();
        stats.shards_scanned = usize::from(read);
        stats.shards_skipped = usize::from(!read);
    }

    /// Bring the slot held under `key` in line with `ad`, the store's ad
    /// under it: a new or changed live ad is admitted, and a slot whose ad
    /// left or changed joins [`OfferTable::leaving`].
    fn diff(
        &mut self,
        engine: &MatchEngine,
        key: &Arc<str>,
        ad: Option<&StoredAd>,
        now: Timestamp,
        stats: &mut CycleStats,
    ) {
        let held = self.by_key.get(key).copied();
        let ad = ad.filter(|a| a.expires_at > now);
        if let (Some(i), Some(ad)) = (held, ad) {
            let o = self.slots[i].as_mut().expect("indexed slots are live");
            if o.stored.seq == ad.seq && Arc::ptr_eq(&o.stored.ad, &ad.ad) {
                // A renewal moves only the lease.
                o.stored.expires_at = ad.expires_at;
                self.min_expiry = self.min_expiry.min(ad.expires_at);
                return;
            }
        }
        self.leaving.extend(held);
        if let Some(ad) = ad.filter(|a| !condor_obs::is_daemon_ad(&a.ad)) {
            stats.dirty_resources += 1;
            self.admit(engine, key, ad);
        }
    }

    /// Drop the lists not worth keeping. Age: a list unused for more than
    /// [`MATCH_LIST_TTL_TICKS`] ticks belongs to a shape that has left the
    /// pool. Backlog: a list more than two log entries per slot behind
    /// (as if every ad had changed) would pin that much change log. This
    /// rule bounds the log's memory, not the catch-up cost — a patch
    /// scores only the distinct live slots touched, never more than a
    /// rebuild. The rebuild it can force scores each live ad once: at most
    /// half a score per log entry that forced it.
    fn prune(&mut self) {
        let log_end = self.log_base + self.log.len() as u64;
        let max_lag = 2 * self.slots.len() as u64;
        let ticks = self.ticks;
        self.lists.retain(|_, l| {
            log_end - l.synced <= max_lag && ticks - l.last_used <= MATCH_LIST_TTL_TICKS
        });
    }

    /// Derive a new ad's cached state (claim metadata, external refs) and
    /// give it a slot.
    fn admit(&mut self, engine: &MatchEngine, key: &Arc<str>, ad: &StoredAd) {
        let external: Vec<Arc<str>> =
            offer_external_refs(&engine.conventions, std::slice::from_ref(&ad.ad))
                .into_iter()
                .collect();
        for name in &external {
            *self.external.entry(name.clone()).or_insert(0) += 1;
        }
        let slot = Some(OfferSlot {
            key: key.clone(),
            stored: ad.clone(),
            external,
        });
        let meta = offer_meta_of(engine, &ad.ad);
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                self.meta[i] = meta;
                i
            }
            None => {
                self.slots.push(slot);
                self.meta.push(meta);
                self.marks.push(0);
                self.slots.len() - 1
            }
        };
        self.by_key.insert(key.clone(), i);
        self.min_expiry = self.min_expiry.min(ad.expires_at);
        self.live += 1;
        self.log.push(i);
    }

    fn evict(&mut self, i: usize) {
        let Some(slot) = self.slots[i].take() else {
            return;
        };
        for name in &slot.external {
            if let Some(n) = self.external.get_mut(name) {
                *n -= 1;
                if *n == 0 {
                    self.external.remove(name);
                }
            }
        }
        // The name may already hold the ad that replaced this one.
        if self.by_key.get(&slot.key) == Some(&i) {
            self.by_key.remove(&slot.key);
        }
        self.free.push(i);
        self.live -= 1;
        self.log.push(i);
    }

    /// Take the candidate list for `sig` out of the table for this cycle,
    /// caught up with every change since it was last used: candidates of
    /// touched slots are dropped, touched slots that are live are scored
    /// against `request` (any member of the cluster scores alike) and
    /// merged in by rank. A signature seen for the first time touches
    /// every slot — the one full scan.
    fn checkout(
        &mut self,
        engine: &MatchEngine,
        sig: &str,
        request: &ClassAd,
        stats: &mut CycleStats,
    ) -> ClusterList {
        let log_end = self.log_base + self.log.len() as u64;
        let (mut cl, touched): (ClusterList, Vec<usize>) = match self.lists.remove(sig) {
            Some(cl) => {
                let from = (cl.synced - self.log_base) as usize;
                (cl, self.log[from..].to_vec())
            }
            None => {
                stats.full_scans += 1;
                (ClusterList::default(), (0..self.slots.len()).collect())
            }
        };
        cl.synced = log_end;
        if touched.is_empty() {
            cl.list.rewind();
            return cl;
        }
        self.mark += 1;
        let mut added: Vec<Candidate> = Vec::new();
        for i in touched {
            if std::mem::replace(&mut self.marks[i], self.mark) == self.mark {
                continue;
            }
            if let Some(o) = &self.slots[i] {
                stats.pairs_evaluated += 1;
                added.extend(engine.score_keyed(request, &o.stored.ad, i, o.stored.seq));
            }
        }
        added.sort_by(Candidate::best_first);
        let (marks, mark) = (&self.marks, self.mark);
        cl.list
            .patch(|i| marks[i] == mark, &added, &mut self.merge_buf);
        cl
    }

    /// Return the cycle's lists, stamped with the current tick, and trim
    /// the change log to what the list furthest behind still needs.
    fn checkin(&mut self, lists: impl Iterator<Item = (String, ClusterList)>) {
        for (sig, mut cl) in lists {
            cl.last_used = self.ticks;
            self.lists.insert(sig, cl);
        }
        let log_end = self.log_base + self.log.len() as u64;
        let needed_from = self
            .lists
            .values()
            .map(|l| l.synced)
            .min()
            .unwrap_or(log_end);
        self.log.drain(..(needed_from - self.log_base) as usize);
        self.log_base = needed_from;
    }

    /// The live offers in seq order — the flat view the full scan works
    /// on — with each one's slot.
    fn live_in_seq_order(&self) -> Vec<(usize, &StoredAd)> {
        let mut live: Vec<(usize, &StoredAd)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((i, &o.as_ref()?.stored)))
            .collect();
        live.sort_by_key(|(_, o)| o.seq);
        live
    }
}

/// The pool manager's negotiator.
#[derive(Debug, Default)]
pub struct Negotiator {
    /// The match engine (evaluation policy + conventions), fixed at
    /// construction: every verdict the offer table caches was derived
    /// under it.
    engine: MatchEngine,
    /// The fair-share priority tracker.
    pub priorities: PriorityTracker,
    /// Tunables.
    pub config: NegotiatorConfig,
    /// Cycles run by this negotiator (stamps [`CycleOutcome::cycle`]).
    cycles_run: u64,
    /// Cross-cycle per-ad state for the incremental path.
    pool: OfferTable,
}

/// What a cycle read from the store ([`Negotiator::sync`]): the
/// eligible requests, oldest first, and the sync's statistics. Matching
/// ([`Negotiator::run`]) needs nothing else from the store: the offer
/// table holds its own copy of every live offer.
#[derive(Debug)]
pub(crate) struct SyncedCycle {
    requests: Vec<StoredAd>,
    now: Timestamp,
    stats: CycleStats,
}

/// One request's grant: the candidate, the user it displaces (for a
/// preempting grant), and the offer it names.
type Grant = (Candidate, Option<String>, StoredAd);

impl Negotiator {
    /// Create a negotiator with default engine, priorities, and config.
    pub fn new(config: NegotiatorConfig) -> Self {
        Negotiator {
            config,
            ..Negotiator::default()
        }
    }

    /// The match engine every cycle evaluates under.
    pub fn engine(&self) -> &MatchEngine {
        &self.engine
    }

    /// Report actual resource usage (resource-seconds) for a user, e.g.
    /// when a claim is released.
    pub fn charge_usage(&mut self, user: &str, seconds: f64, now: Timestamp) {
        self.priorities.charge(user, seconds, now);
    }

    /// Select the negotiation-eligible customer ads: no daemon self-ads
    /// (telemetry, not participants), no multi-port gang requests (served
    /// by the `gangmatch` crate — a `Ports` list must be granted atomically
    /// or not at all), oldest first (FIFO within a user).
    fn eligible_requests(store: &AdStore, now: Timestamp) -> Vec<StoredAd> {
        let mut requests: Vec<StoredAd> = store.snapshot(EntityKind::Customer, now);
        requests.retain(|r| !condor_obs::is_daemon_ad(&r.ad) && !r.ad.contains("Ports"));
        requests.sort_by_key(|r| r.seq);
        requests
    }

    /// The fairness rounds every path shares: one request per user per
    /// round, best-priority user first, until a full round makes no
    /// progress. `choose` is the match source — it grants request `i` its
    /// best still-eligible offer (and marks it taken) or nothing. Fills in
    /// the matches and the round statistics; returns the unmatched request
    /// indices in the order they failed.
    fn serve_rounds(
        &mut self,
        requests: &[StoredAd],
        now: Timestamp,
        outcome: &mut CycleOutcome,
        mut choose: impl FnMut(usize, &mut CycleStats) -> Option<Grant>,
    ) -> Vec<usize> {
        let mut by_owner: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, r) in requests.iter().enumerate() {
            let owner = match r.ad.eval_attr(ATTR_OWNER, &self.engine.policy) {
                Value::Str(s) => s.to_string(),
                _ => "<unknown>".to_string(),
            };
            by_owner.entry(owner).or_default().push(i);
        }
        let users = self
            .priorities
            .order_users(by_owner.keys().map(|s| s.as_str()), now);
        let mut cursor: HashMap<&str, usize> = HashMap::new();
        let mut served_users: BTreeSet<&str> = BTreeSet::new();
        let mut unmatched_reqs: Vec<usize> = Vec::new();
        loop {
            let mut progress = false;
            outcome.stats.rounds += 1;
            for user in &users {
                let Some(queue) = by_owner.get(user.as_str()) else {
                    continue;
                };
                let pos = cursor.entry(user.as_str()).or_insert(0);
                // Skip requests that already failed or matched.
                if *pos >= queue.len() {
                    continue;
                }
                let req_idx = queue[*pos];
                *pos += 1;
                progress = true;

                let request = &requests[req_idx];
                let Some((c, preempts, offer)) = choose(req_idx, &mut outcome.stats) else {
                    unmatched_reqs.push(req_idx);
                    continue;
                };
                if preempts.is_some() {
                    outcome.stats.preemptions += 1;
                }
                served_users.insert(user.as_str());
                if self.config.charge_per_match > 0.0 {
                    self.priorities
                        .charge(user, self.config.charge_per_match, now);
                }
                outcome.matches.push(MatchRecord {
                    request_name: request.name.clone(),
                    owner: user.clone(),
                    request_ad: request.ad.clone(),
                    customer_contact: request.contact.clone(),
                    offer_name: offer.name,
                    offer_ad: offer.ad,
                    provider_contact: offer.contact,
                    ticket: offer.ticket,
                    request_rank: c.request_rank,
                    offer_rank: c.offer_rank,
                    preempts,
                    trace: request.trace,
                });
            }
            if !progress {
                break;
            }
        }
        outcome.stats.matches = outcome.matches.len();
        outcome.stats.unmatched_requests = unmatched_reqs.len();
        outcome.stats.users_served = served_users.len();
        self.cycles_run += 1;
        outcome.cycle = self.cycles_run;
        unmatched_reqs
    }

    /// The post-rounds passes every path shares: rejection attribution and
    /// the flocking hook, each only when configured and only when some
    /// request went unmatched. `offer_ads`/`offer_meta`/`taken` are the
    /// flat pool view in seq order.
    #[allow(clippy::too_many_arguments)]
    fn post_rounds(
        &self,
        outcome: &mut CycleOutcome,
        requests: &[StoredAd],
        offer_ads: &[Arc<ClassAd>],
        offer_meta: &[OfferMeta],
        taken: &[bool],
        cluster_of: Option<&[usize]>,
        unmatched_reqs: &[usize],
    ) {
        if self.config.attribution {
            self.attribute_rejections(
                outcome,
                requests,
                offer_ads,
                offer_meta,
                taken,
                cluster_of,
                unmatched_reqs,
            );
        }
        if self.config.flocking {
            collect_unmatched_clusters(outcome, requests, cluster_of, unmatched_reqs);
        }
    }

    /// The test oracle: a from-scratch cycle that snapshots everything and
    /// scans everything, in one of the two reference implementations
    /// [`FullScan`] names. It caches nothing across cycles and is not a
    /// production path — no configuration selects it; the equivalence
    /// tests call it directly and hold [`Negotiator::negotiate`] to its
    /// grants byte for byte.
    pub fn negotiate_full(
        &mut self,
        store: &AdStore,
        now: Timestamp,
        scan: FullScan,
    ) -> CycleOutcome {
        let mut offers: Vec<StoredAd> = store.snapshot(EntityKind::Provider, now);
        // Daemon self-ads live in the store so they are queryable, but
        // they are telemetry, not participants: matching against them (or
        // counting them in cycle statistics) would corrupt both.
        offers.retain(|o| !condor_obs::is_daemon_ad(&o.ad));
        // Oldest first, so that a scan's index order is seq order and the
        // lowest-index tie-break coincides with the intrinsic lowest-seq
        // (oldest ad wins) rule the incremental path uses — equal ranks
        // must resolve identically on every path and in any table order.
        offers.sort_by_key(|o| o.seq);
        let requests = Self::eligible_requests(store, now);

        let engine = self.engine.clone();
        let offer_ads: Vec<Arc<ClassAd>> = offers.iter().map(|o| o.ad.clone()).collect();
        // Per-offer claim snapshot, evaluated once per cycle: whether the
        // offer is claimed (per its own advertised state), at what rank it
        // values its current claimant, and who that claimant is. Grant-time
        // code reads these instead of re-evaluating `State`/`CurrentRank`/
        // `RemoteOwner` per request.
        let offer_meta: Vec<OfferMeta> = offers
            .iter()
            .map(|o| offer_meta_of(&engine, &o.ad))
            .collect();

        let mut outcome = CycleOutcome::default();
        outcome.stats.requests_considered = requests.len();
        outcome.stats.offers_considered = offers.len();

        // Autoclustering: partition requests into equivalence classes whose
        // members score identically against every offer, then serve each
        // class from one shared match list built on first use.
        let clustering = (scan == FullScan::Clustered).then(|| {
            let external = offer_external_refs(&engine.conventions, &offer_ads);
            cluster_requests(
                &engine.conventions,
                requests.iter().map(|r| r.ad.as_ref()),
                &external,
            )
        });
        let num_clusters = clustering.as_ref().map_or(0, |c| c.num_clusters);
        outcome.stats.clusters_formed = num_clusters;
        let mut match_lists: Vec<Option<MatchList>> = (0..num_clusters).map(|_| None).collect();
        let mut taken = vec![false; offers.len()];
        let (preemption_on, margin) = (self.config.preemption, self.config.preemption_rank_margin);

        let unmatched_reqs = self.serve_rounds(&requests, now, &mut outcome, |req_idx, stats| {
            let request = &requests[req_idx].ad;
            let chosen: Option<(Candidate, Option<String>)> = if let Some(cl) = &clustering {
                // Clustered path: the first member of an equivalence
                // class pays one full scan to build the sorted match
                // list; everyone else in the class consumes from it.
                let slot = &mut match_lists[cl.cluster_of[req_idx]];
                if slot.is_some() {
                    stats.matchlist_hits += 1;
                } else {
                    stats.full_scans += 1;
                }
                slot.get_or_insert_with(|| MatchList::build(&engine, request, &offer_ads))
                    .pop_next(&taken, &offer_meta, preemption_on, margin)
            } else {
                // Per-request scan with retry. The best-ranked offer may
                // be claimed and not preemptible by this request, in which
                // case it is excluded and the scan repeats.
                let mut excluded: Vec<bool> = vec![false; offers.len()];
                loop {
                    // With preemption disabled, claimed offers can
                    // never be granted: filter them up front rather
                    // than excluding them one rescan at a time (keeps
                    // the no-preemption cycle linear in the pool size).
                    let eligible = |i: usize| {
                        !taken[i]
                            && !excluded[i]
                            && (preemption_on || offer_meta[i].claimed_rank.is_none())
                    };
                    stats.full_scans += 1;
                    match engine.best_match(request, &offer_ads, eligible) {
                        None => break None,
                        Some(c) => match offer_meta[c.index].claimed_rank {
                            None => break Some((c, None)),
                            Some(current) => {
                                if preemption_on && c.offer_rank > current + margin {
                                    let displaced = offer_meta[c.index].remote_owner.clone();
                                    break Some((c, Some(displaced.unwrap_or_default())));
                                }
                                excluded[c.index] = true;
                            }
                        },
                    }
                }
            };
            let (c, preempts) = chosen?;
            taken[c.index] = true;
            Some((c, preempts, offers[c.index].clone()))
        });

        if !unmatched_reqs.is_empty() {
            self.post_rounds(
                &mut outcome,
                &requests,
                &offer_ads,
                &offer_meta,
                &taken,
                clustering.as_ref().map(|c| c.cluster_of.as_slice()),
                &unmatched_reqs,
            );
        }
        outcome
    }

    /// Run one negotiation cycle over the ads in `store` at time `now`.
    ///
    /// The cycle is incremental: the live offers sit in a table of stable
    /// slots that survives the cycle ([`OfferTable`]), each cluster
    /// signature keeps one rank-ordered candidate list over the whole
    /// pool, and a cycle pays classad evaluation only for what changed
    /// since the last one — a new or changed ad has its metadata derived
    /// once and is scored once per cluster list that is actually used.
    /// The candidate order is the intrinsic (rank, rank, seq) total order,
    /// so the grants are byte-identical to [`Negotiator::negotiate_full`]'s
    /// for any table order and any history — the equivalence proptests in
    /// `tests/proptests.rs` hold the two to that.
    ///
    /// This is a *tick*: the periodic cycle, which also runs the
    /// attribution and flocking passes and ages the match lists
    /// ([`MATCH_LIST_TTL_TICKS`]). It is `Negotiator::sync` followed by
    /// `Negotiator::run`; only the first reads the store.
    pub fn negotiate(&mut self, store: &AdStore, now: Timestamp) -> CycleOutcome {
        let synced = self.sync(store, now);
        self.run(synced, true)
    }

    /// An *arrival* cycle: the same grants as [`Negotiator::negotiate`],
    /// without its per-tick work — no rejection attribution, no flocking
    /// candidates, and the match lists do not age. A daemon that
    /// negotiates as soon as jobs arrive runs these between its ticks.
    pub fn negotiate_arrivals(&mut self, store: &AdStore, now: Timestamp) -> CycleOutcome {
        let synced = self.sync(store, now);
        self.run(synced, false)
    }

    /// A cycle's first step, the only one that reads `store`: take the
    /// eligible requests and bring the offer table up to the store's state
    /// at `now`. The result owns everything [`Negotiator::run`] needs, so
    /// a caller that shares the store can release it in between.
    pub(crate) fn sync(&mut self, store: &AdStore, now: Timestamp) -> SyncedCycle {
        let requests = Self::eligible_requests(store, now);
        let mut stats = CycleStats {
            requests_considered: requests.len(),
            ..CycleStats::default()
        };
        self.pool.sync(&self.engine, store, now, &mut stats);
        SyncedCycle {
            requests,
            now,
            stats,
        }
    }

    /// A cycle's second step, which reads no store: cluster the synced
    /// requests, serve the fairness rounds from the offer table and make
    /// the grants. A tick (`tick`) also ages the match lists and runs the
    /// attribution and flocking passes; an arrival cycle does neither.
    pub(crate) fn run(&mut self, synced: SyncedCycle, tick: bool) -> CycleOutcome {
        let SyncedCycle {
            requests,
            now,
            stats,
        } = synced;
        let (preemption_on, margin) = (self.config.preemption, self.config.preemption_rank_margin);
        let engine = self.engine.clone();
        let mut pool = std::mem::take(&mut self.pool);

        let mut outcome = CycleOutcome {
            stats,
            ..CycleOutcome::default()
        };
        pool.ticks += u64::from(tick);
        pool.prune();
        outcome.stats.offers_considered = pool.live;
        // Some live offer was not derived this cycle: it was carried over.
        outcome.stats.incremental_cycles = usize::from(pool.live > outcome.stats.dirty_resources);

        // Cluster the requests, keeping each cluster's signature string:
        // the signature is the cross-cycle key of its candidate list. The
        // seed set is exactly what a rebuild over the live offers would
        // compute, so a list is only ever reused for requests that agree
        // on every attribute any offer scored into it could read.
        let external: BTreeSet<Arc<str>> = pool.external.keys().cloned().collect();
        let mut sig_ids: HashMap<String, usize> = HashMap::new();
        let mut cluster_of: Vec<usize> = Vec::with_capacity(requests.len());
        for r in &requests {
            let sig = request_signature(&engine.conventions, &r.ad, &external);
            let next = sig_ids.len();
            cluster_of.push(*sig_ids.entry(sig).or_insert(next));
        }
        outcome.stats.clusters_formed = sig_ids.len();
        let mut cluster_sig: Vec<String> = vec![String::new(); sig_ids.len()];
        for (sig, id) in sig_ids {
            cluster_sig[id] = sig;
        }

        let mut lists: Vec<Option<ClusterList>> = cluster_sig.iter().map(|_| None).collect();
        let mut taken = vec![false; pool.slots.len()];
        let unmatched_reqs = self.serve_rounds(&requests, now, &mut outcome, |req_idx, stats| {
            let cid = cluster_of[req_idx];
            if lists[cid].is_some() {
                stats.matchlist_hits += 1;
            }
            let cl = lists[cid].get_or_insert_with(|| {
                pool.checkout(&engine, &cluster_sig[cid], &requests[req_idx].ad, stats)
            });
            let (c, preempts) = cl
                .list
                .pop_next(&taken, &pool.meta, preemption_on, margin)?;
            taken[c.index] = true;
            let offer = pool.slots[c.index]
                .as_ref()
                .expect("listed offers are live");
            Some((c, preempts, offer.stored.clone()))
        });
        pool.checkin(
            cluster_sig
                .into_iter()
                .zip(lists)
                .filter_map(|(s, l)| Some((s, l?))),
        );

        if tick && !unmatched_reqs.is_empty() && (self.config.attribution || self.config.flocking) {
            let live = pool.live_in_seq_order();
            let offer_ads: Vec<Arc<ClassAd>> = live.iter().map(|(_, o)| o.ad.clone()).collect();
            let offer_meta: Vec<OfferMeta> =
                live.iter().map(|&(i, _)| pool.meta[i].clone()).collect();
            let taken: Vec<bool> = live.iter().map(|&(i, _)| taken[i]).collect();
            self.post_rounds(
                &mut outcome,
                &requests,
                &offer_ads,
                &offer_meta,
                &taken,
                Some(&cluster_of),
                &unmatched_reqs,
            );
        }
        self.pool = pool;
        outcome
    }

    /// Classify every (cluster, offer) pairing that left the cluster with
    /// unmatched requests. One traced scan per unmatched cluster — matched
    /// clusters and the whole pass are skipped when attribution is off, so
    /// the hot path pays nothing.
    #[allow(clippy::too_many_arguments)]
    fn attribute_rejections(
        &self,
        outcome: &mut CycleOutcome,
        requests: &[StoredAd],
        offer_ads: &[Arc<ClassAd>],
        offer_meta: &[OfferMeta],
        taken: &[bool],
        cluster_of: Option<&[usize]>,
        unmatched_reqs: &[usize],
    ) {
        let preemption_on = self.config.preemption;
        let margin = self.config.preemption_rank_margin;
        let unmatched_by_cluster = group_unmatched_by_cluster(cluster_of, unmatched_reqs);

        for (cid, members) in unmatched_by_cluster {
            // Signatures make match verdicts and reject reasons cluster-
            // invariant, so the first unmatched member speaks for all.
            let rep = &requests[members[0]];
            let mut table = RejectionTable::default();
            for (oi, offer) in offer_ads.iter().enumerate() {
                match self.engine.score(&rep.ad, offer, oi) {
                    None => {
                        let trace = traced_symmetric_match(
                            &rep.ad,
                            offer,
                            &self.engine.policy,
                            &self.engine.conventions,
                        );
                        // `score` returned None, so the traced verdict is
                        // false and a reason is present; the fallback only
                        // guards against the impossible.
                        table.add(trace.reason.unwrap_or(RejectReason::EvalError {
                            side: classad::RejectSide::Request,
                        }));
                    }
                    Some(c) => match offer_meta[oi].claimed_rank {
                        Some(current) if !(preemption_on && c.offer_rank > current + margin) => {
                            table.add(RejectReason::Busy);
                        }
                        _ if taken[oi] => table.add(RejectReason::LostRank),
                        // Compatible, free, and still unmatched cannot
                        // happen after a completed rounds loop; leave such
                        // a pairing unclassified rather than invent a
                        // reason.
                        _ => {}
                    },
                }
            }
            outcome.stats.rejected_pairings += table.total() as usize;
            outcome.stats.reject_req_false += table.count_kind("RequirementsFalse") as usize;
            outcome.stats.reject_undefined += table.count_kind("UndefinedAttr") as usize;
            outcome.stats.reject_error += table.count_kind("EvalError") as usize;
            outcome.stats.reject_busy += table.count_kind("Busy") as usize;
            outcome.stats.reject_lost_rank += table.count_kind("LostRank") as usize;
            let constraint = self
                .engine
                .conventions
                .constraint_attr_of(&rep.ad)
                .and_then(|a| rep.ad.get(a))
                .map(|e| e.to_string());
            let names: Vec<String> = members
                .iter()
                .take(ClusterRejections::MAX_NAMES)
                .map(|&ri| requests[ri].name.clone())
                .collect();
            outcome.rejections.push(ClusterRejections {
                cluster: cid,
                more_requests: members.len().saturating_sub(names.len()),
                requests: names,
                constraint,
                table,
            });
        }
    }
}

/// Unmatched request indices per cluster, in request order, sorted by
/// cluster id. Without a clustering (the [`FullScan::PerRequest`] oracle)
/// every request is its own singleton cluster. Shared by attribution and
/// flocking so both see the same clusters and the same first-member
/// representative.
fn group_unmatched_by_cluster(
    cluster_of: Option<&[usize]>,
    unmatched_reqs: &[usize],
) -> Vec<(usize, Vec<usize>)> {
    let mut unmatched_by_cluster: Vec<(usize, Vec<usize>)> = Vec::new();
    for &ri in unmatched_reqs {
        let cid = cluster_of.map_or(ri, |c| c[ri]);
        match unmatched_by_cluster.iter_mut().find(|(c, _)| *c == cid) {
            Some((_, members)) => members.push(ri),
            None => unmatched_by_cluster.push((cid, vec![ri])),
        }
    }
    // `unmatched_reqs` arrives in fair-share round order (priority-ordered
    // users interleaved), not request order; restore request order so the
    // first member — the representative — is the seq-lowest one.
    for (_, members) in &mut unmatched_by_cluster {
        members.sort_unstable();
    }
    unmatched_by_cluster.sort_by_key(|(cid, _)| *cid);
    unmatched_by_cluster
}

/// Populate [`CycleOutcome::unmatched_clusters`] with one representative
/// per unmatched cluster (flocking's forwarding unit).
fn collect_unmatched_clusters(
    outcome: &mut CycleOutcome,
    requests: &[StoredAd],
    cluster_of: Option<&[usize]>,
    unmatched_reqs: &[usize],
) {
    for (cid, members) in group_unmatched_by_cluster(cluster_of, unmatched_reqs) {
        let rep = &requests[members[0]];
        outcome.unmatched_clusters.push(UnmatchedCluster {
            cluster: cid,
            rep_name: rep.name.clone(),
            rep_ad: rep.ad.clone(),
            customer_contact: rep.contact.clone(),
            trace: rep.trace,
            members: members.len(),
        });
    }
}

/// Evaluate an offer's claim metadata (see [`OfferMeta`]): whether it
/// advertises `State == "Claimed"`, at what rank it values its claimant,
/// and who that claimant is.
pub(crate) fn offer_meta_of(engine: &MatchEngine, ad: &ClassAd) -> OfferMeta {
    let state = ad.eval_attr(ATTR_STATE, &engine.policy);
    let claimed = matches!(&state, Value::Str(s) if &**s == STATE_CLAIMED);
    if claimed {
        OfferMeta {
            claimed_rank: Some(
                ad.eval_attr(ATTR_CURRENT_RANK, &engine.policy)
                    .as_f64()
                    .unwrap_or(0.0),
            ),
            remote_owner: match ad.eval_attr(ATTR_REMOTE_OWNER, &engine.policy) {
                Value::Str(s) => Some(s.to_string()),
                _ => None,
            },
        }
    } else {
        OfferMeta::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Advertisement, AdvertisingProtocol};
    use classad::parse_classad;

    fn proto() -> AdvertisingProtocol {
        AdvertisingProtocol::default()
    }

    fn machine_ad(name: &str, mips: i64) -> Advertisement {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Machine"; Mips = {mips};
                State = "Unclaimed";
                Constraint = other.Type == "Job"; Rank = 0 ]"#
        ))
        .unwrap();
        Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: format!("{name}:9614"),
            ticket: Some(Ticket::from_raw(name.len() as u128)),
            expires_at: 10_000,
        }
    }

    fn claimed_machine_ad(name: &str, remote_owner: &str, current_rank: f64) -> Advertisement {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Machine"; Mips = 100;
                State = "Claimed"; RemoteOwner = "{remote_owner}";
                CurrentRank = {current_rank};
                Constraint = other.Type == "Job";
                Rank = other.JobPrio ]"#
        ))
        .unwrap();
        Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: format!("{name}:9614"),
            ticket: None,
            expires_at: 10_000,
        }
    }

    fn job_ad(name: &str, owner: &str) -> Advertisement {
        job_ad_with(name, owner, "")
    }

    fn job_ad_with(name: &str, owner: &str, extra: &str) -> Advertisement {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Job"; Owner = "{owner}"; {extra}
                Constraint = other.Type == "Machine"; Rank = other.Mips ]"#
        ))
        .unwrap();
        Advertisement {
            kind: EntityKind::Customer,
            ad,
            contact: format!("{owner}-ca:1"),
            ticket: None,
            expires_at: 10_000,
        }
    }

    fn store_with(ads: Vec<Advertisement>) -> AdStore {
        let mut store = AdStore::new();
        for a in ads {
            store.advertise(a, 0, &proto()).unwrap();
        }
        store
    }

    #[test]
    fn single_job_gets_best_machine() {
        let store = store_with(vec![
            machine_ad("slow", 10),
            machine_ad("fast", 104),
            job_ad("j1", "raman"),
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 1);
        assert_eq!(out.matches[0].offer_name, "fast");
        assert_eq!(out.matches[0].request_rank, 104.0);
        assert_eq!(out.stats.unmatched_requests, 0);
    }

    #[test]
    fn each_offer_granted_once_per_cycle() {
        let store = store_with(vec![
            machine_ad("m1", 50),
            job_ad("j1", "alice"),
            job_ad("j2", "alice"),
            job_ad("j3", "alice"),
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 1);
        assert_eq!(out.stats.unmatched_requests, 2);
    }

    #[test]
    fn round_robin_across_users_within_cycle() {
        // Two machines, two users with two jobs each: each user must get
        // exactly one machine even though alice's jobs sort first.
        let store = store_with(vec![
            machine_ad("m1", 50),
            machine_ad("m2", 60),
            job_ad("a1", "alice"),
            job_ad("a2", "alice"),
            job_ad("b1", "bob"),
            job_ad("b2", "bob"),
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 2);
        let mut owners: Vec<&str> = out.matches.iter().map(|m| m.owner.as_str()).collect();
        owners.sort();
        assert_eq!(owners, vec!["alice", "bob"]);
        assert_eq!(out.stats.users_served, 2);
    }

    #[test]
    fn priority_order_decides_who_gets_scarce_resource() {
        let store = store_with(vec![
            machine_ad("only", 50),
            job_ad("a1", "heavy"),
            job_ad("b1", "light"),
        ]);
        let mut neg = Negotiator::default();
        neg.priorities.charge("heavy", 100_000.0, 0);
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 1);
        assert_eq!(out.matches[0].owner, "light");
    }

    #[test]
    fn fifo_within_user() {
        let store = store_with(vec![
            machine_ad("m1", 50),
            job_ad("first", "alice"),
            job_ad("second", "alice"),
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.matches[0].request_name, "first");
    }

    #[test]
    fn preemption_when_offer_prefers_new_request() {
        let store = store_with(vec![
            claimed_machine_ad("busy", "olduser", 5.0),
            job_ad_with("hot", "newuser", "JobPrio = 10;"),
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 1);
        assert_eq!(out.stats.preemptions, 1);
        assert_eq!(out.matches[0].preempts.as_deref(), Some("olduser"));
    }

    #[test]
    fn no_preemption_when_rank_not_higher() {
        let store = store_with(vec![
            claimed_machine_ad("busy", "olduser", 5.0),
            job_ad_with("cold", "newuser", "JobPrio = 5;"), // equal, not higher
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 0);
        assert_eq!(out.stats.unmatched_requests, 1);
    }

    #[test]
    fn preemption_disabled_by_config() {
        let store = store_with(vec![
            claimed_machine_ad("busy", "olduser", 5.0),
            job_ad_with("hot", "newuser", "JobPrio = 10;"),
        ]);
        let mut neg = Negotiator::new(NegotiatorConfig {
            preemption: false,
            ..Default::default()
        });
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 0);
    }

    #[test]
    fn preemption_retry_falls_back_to_unclaimed() {
        // Best-ranked machine is claimed and non-preemptible; the job must
        // fall back to the unclaimed slower machine.
        let store = store_with(vec![
            claimed_machine_ad("busy", "olduser", 50.0), // Mips 100 but won't preempt
            machine_ad("free", 10),
            job_ad_with("j", "alice", "JobPrio = 1;"),
        ]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 1);
        assert_eq!(out.matches[0].offer_name, "free");
    }

    #[test]
    fn charge_per_match_feeds_priorities() {
        let store = store_with(vec![
            machine_ad("m1", 50),
            machine_ad("m2", 50),
            job_ad("a1", "alice"),
        ]);
        let mut neg = Negotiator::new(NegotiatorConfig {
            charge_per_match: 300.0,
            ..Default::default()
        });
        assert_eq!(neg.priorities.usage("alice", 0), 0.0);
        neg.negotiate(&store, 0);
        assert_eq!(neg.priorities.usage("alice", 0), 300.0);
    }

    #[test]
    fn autocluster_shares_one_scan_per_equivalence_class() {
        let mut ads = vec![
            machine_ad("m1", 50),
            machine_ad("m2", 60),
            machine_ad("m3", 70),
        ];
        for i in 0..5 {
            ads.push(job_ad(&format!("j{i}"), "alice"));
        }
        let store = store_with(ads);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(
            out.stats.clusters_formed, 1,
            "identical jobs form one cluster"
        );
        assert_eq!(
            out.stats.full_scans, 1,
            "one scan builds the shared match list"
        );
        assert_eq!(out.stats.matchlist_hits, 4, "remaining jobs reuse the list");
        assert_eq!(out.stats.matches, 3);
        assert_eq!(out.stats.unmatched_requests, 2);
    }

    #[test]
    fn oracle_path_counts_scans_and_forms_no_clusters() {
        let store = store_with(vec![
            machine_ad("m1", 50),
            job_ad("j1", "alice"),
            job_ad("j2", "alice"),
        ]);
        let out = Negotiator::default().negotiate_full(&store, 0, FullScan::PerRequest);
        assert_eq!(out.stats.clusters_formed, 0);
        assert_eq!(out.stats.matchlist_hits, 0);
        assert_eq!(out.stats.full_scans, 2, "one scan per request");
    }

    #[test]
    fn autocluster_matches_oracle_on_mixed_pool() {
        let mut ads = vec![];
        for i in 0..12 {
            ads.push(machine_ad(&format!("m{i}"), (i * 13) % 97));
        }
        ads.push(claimed_machine_ad("busy-lo", "olduser", 2.0));
        ads.push(claimed_machine_ad("busy-hi", "olduser", 50.0));
        for i in 0..9 {
            let owner = ["alice", "bob", "carol"][i % 3];
            ads.push(job_ad_with(
                &format!("j{i}"),
                owner,
                &format!("JobPrio = {};", i),
            ));
        }
        let store = store_with(ads);
        let a = Negotiator::default().negotiate(&store, 0);
        let b = Negotiator::default().negotiate_full(&store, 0, FullScan::PerRequest);
        let key = |o: &CycleOutcome| {
            o.matches
                .iter()
                .map(|m| {
                    (
                        m.request_name.clone(),
                        m.offer_name.clone(),
                        m.request_rank.to_bits(),
                        m.offer_rank.to_bits(),
                        m.preempts.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.stats.matches, b.stats.matches);
        assert_eq!(a.stats.preemptions, b.stats.preemptions);
        assert_eq!(a.stats.unmatched_requests, b.stats.unmatched_requests);
        assert_eq!(a.stats.users_served, b.stats.users_served);
        assert!(a.stats.full_scans < b.stats.full_scans);
    }

    #[test]
    fn attribution_classifies_unmatchable_requests() {
        let ad = parse_classad(
            r#"[ Name = "never"; Type = "Job"; Owner = "alice";
                Constraint = other.Type == "Machine" && other.Mips >= 1000;
                Rank = 0 ]"#,
        )
        .unwrap();
        let mut store = store_with(vec![machine_ad("m1", 50), machine_ad("m2", 60)]);
        store
            .advertise(
                Advertisement {
                    kind: EntityKind::Customer,
                    ad,
                    contact: "alice-ca:1".into(),
                    ticket: None,
                    expires_at: 10_000,
                },
                0,
                &proto(),
            )
            .unwrap();
        let mut neg = Negotiator::new(NegotiatorConfig {
            attribution: true,
            ..Default::default()
        });
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.cycle, 1);
        assert_eq!(out.stats.matches, 0);
        assert_eq!(out.stats.unmatched_requests, 1);
        assert_eq!(out.rejections.len(), 1);
        let cr = &out.rejections[0];
        assert_eq!(cr.requests, vec!["never".to_string()]);
        assert_eq!(cr.table.total(), 2, "both machines classified");
        assert_eq!(out.stats.rejected_pairings, 2);
        assert_eq!(out.stats.reject_req_false, 2);
        let encoded = cr.encode();
        assert!(
            encoded.contains("ReqFalse(request): other.Mips >= 1000"),
            "{encoded}"
        );
        assert!(encoded.starts_with("c0[never]: "), "{encoded}");
    }

    #[test]
    fn attribution_counts_busy_and_lost_rank() {
        let store = store_with(vec![
            claimed_machine_ad("busy", "olduser", 50.0), // unpreemptible for JobPrio 1
            machine_ad("free", 10),
            job_ad_with("j1", "alice", "JobPrio = 1;"),
            job_ad_with("j2", "bob", "JobPrio = 1;"),
        ]);
        let mut neg = Negotiator::new(NegotiatorConfig {
            attribution: true,
            ..Default::default()
        });
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 1, "one job takes the free machine");
        assert_eq!(out.stats.unmatched_requests, 1);
        assert_eq!(out.rejections.len(), 1);
        let table = &out.rejections[0].table;
        assert_eq!(table.count_kind("Busy"), 1);
        assert_eq!(table.count_kind("LostRank"), 1);
        assert_eq!(out.stats.reject_busy, 1);
        assert_eq!(out.stats.reject_lost_rank, 1);
    }

    #[test]
    fn attribution_never_changes_match_outcomes() {
        let mut ads = vec![];
        for i in 0..10 {
            ads.push(machine_ad(&format!("m{i}"), (i * 13) % 97));
        }
        ads.push(claimed_machine_ad("busy", "olduser", 50.0));
        for i in 0..8 {
            let owner = ["alice", "bob"][i % 2];
            ads.push(job_ad_with(
                &format!("j{i}"),
                owner,
                &format!("JobPrio = {};", i),
            ));
        }
        let store = store_with(ads);
        let mut plain = Negotiator::default();
        let mut attributed = Negotiator::new(NegotiatorConfig {
            attribution: true,
            ..Default::default()
        });
        let a = plain.negotiate(&store, 0);
        let b = attributed.negotiate(&store, 0);
        let key = |o: &CycleOutcome| {
            o.matches
                .iter()
                .map(|m| (m.request_name.clone(), m.offer_name.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.stats.matches, b.stats.matches);
        assert_eq!(a.stats.unmatched_requests, b.stats.unmatched_requests);
        assert_eq!(a.stats.rejected_pairings, 0, "off by default");
    }

    #[test]
    fn arrival_cycles_grant_alike_and_skip_the_post_pass() {
        let store = store_with(vec![
            machine_ad("m1", 50),
            job_ad("j1", "alice"),
            job_ad("j2", "bob"),
        ]);
        let config = NegotiatorConfig {
            attribution: true,
            flocking: true,
            ..Default::default()
        };
        let tick = Negotiator::new(config.clone()).negotiate(&store, 0);
        let arrival = Negotiator::new(config).negotiate_arrivals(&store, 0);
        let key = |o: &CycleOutcome| {
            o.matches
                .iter()
                .map(|m| (m.request_name.clone(), m.offer_name.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&tick), key(&arrival));
        assert_eq!(arrival.stats.unmatched_requests, 1);
        assert_eq!(
            (tick.rejections.len(), tick.unmatched_clusters.len()),
            (1, 1)
        );
        assert!(arrival.rejections.is_empty() && arrival.unmatched_clusters.is_empty());
        assert_eq!(arrival.stats.rejected_pairings, 0);
    }

    #[test]
    fn attribution_oracle_path_uses_singleton_clusters() {
        let store = store_with(vec![
            machine_ad("m1", 50),
            job_ad("j1", "alice"),
            job_ad("j2", "alice"),
        ]);
        let mut neg = Negotiator::new(NegotiatorConfig {
            attribution: true,
            ..Default::default()
        });
        let out = neg.negotiate_full(&store, 0, FullScan::PerRequest);
        assert_eq!(out.stats.matches, 1);
        assert_eq!(out.rejections.len(), 1, "the unmatched job's singleton");
        assert_eq!(out.rejections[0].table.count_kind("LostRank"), 1);
    }

    #[test]
    fn rejection_table_bounds_cardinality() {
        let mut table = RejectionTable::default();
        for i in 0..20 {
            table.add(RejectReason::RequirementsFalse {
                side: classad::RejectSide::Offer,
                clause: format!("clause_{i}"),
            });
        }
        table.add(RejectReason::Busy);
        assert_eq!(table.total(), 21);
        assert_eq!(table.ranked().len(), 8);
        assert_eq!(table.overflow(), 13);
        assert!(table.encode().contains("+overflow=13"));
    }

    #[test]
    fn notifications_relay_ticket_to_customer_only() {
        let store = store_with(vec![machine_ad("m", 50), job_ad("j", "alice")]);
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        let (to_customer, to_provider) = out.matches[0].notifications();
        assert!(to_customer.ticket.is_some());
        assert!(to_provider.ticket.is_none());
        assert_eq!(to_customer.peer_contact, "m:9614");
        assert_eq!(to_provider.peer_contact, "alice-ca:1");
        assert_eq!(to_customer.peer_ad, *out.matches[0].offer_ad);
    }

    #[test]
    fn empty_store_yields_empty_cycle() {
        let store = AdStore::new();
        let mut neg = Negotiator::default();
        let out = neg.negotiate(&store, 0);
        assert_eq!(out.stats.matches, 0);
        assert_eq!(out.stats.requests_considered, 0);
    }
}
