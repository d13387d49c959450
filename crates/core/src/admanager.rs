//! The ad store: the matchmaker's only state.
//!
//! The matchmaker holds *soft* state — ads with leases that lapse unless
//! refreshed. This is what makes the service effectively stateless with
//! respect to matches (paper §3.2): losing the store loses nothing that the
//! next round of periodic advertisements does not restore.
//!
//! ## One table per kind, and a change feed
//!
//! Provider (resource) and customer (request) ads live in one table type:
//! a dense vector of ads plus an index from canonical (lowercase) name to
//! position. Removal is a `swap_remove` that fixes up one index entry.
//!
//! Every change to the live *provider* set — an insert, a replacement, a
//! withdrawal, a sweep by [`AdStore::expire`], a renewal that brings a
//! lapsed ad back — appends the ad's canonical name to a **change feed**.
//! A consumer that keeps a [`FeedCursor`] reads only the names that moved
//! since ([`AdStore::changes_since`]); the negotiator diffs each against
//! its per-ad table (see [`crate::negotiate`]). A pure lease **renewal** —
//! a re-advertisement whose ad content, contact, and ticket are unchanged
//! and whose lease does not shorten — updates the lease *without* a feed
//! entry (and without a new sequence number), which is what keeps a
//! heartbeating 100k-machine pool almost entirely quiet between cycles.
//!
//! The feed never holds more entries than the provider table holds ads,
//! plus a small constant: a reader further behind than that would read
//! more names than a diff of the whole table costs. Such a cursor, or one
//! from another store (a store rebuilt by [`AdStore::restore_state`] is
//! another store), reads as "re-read everything". Match outcomes never
//! depend on table order (see [`crate::matcher::Candidate`] for the
//! intrinsic tie-break that guarantees this).
//!
//! Customer ads get no feed — request-side incrementality comes from
//! autocluster signatures — but they get the same renewal treatment so a
//! re-submitted identical job keeps its queue position.

use crate::protocol::{
    Advertisement, AdvertisingProtocol, EntityKind, ProtocolError, Timestamp, TraceContext,
};
use crate::ticket::Ticket;
use classad::ast::{Expr, Literal};
use classad::{ClassAd, EvalPolicy, Value};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of store ids. Process-wide, so a [`FeedCursor`] names one feed
/// of one store: a store rebuilt by [`AdStore::restore_state`] never
/// continues a cursor taken on the store it replaces.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// How many feed entries beyond the provider count the change feed keeps.
const FEED_SLACK: usize = 8;

/// A stored advertisement, frozen behind `Arc` so match scans can snapshot
/// the pool without copying ads.
#[derive(Debug, Clone)]
pub struct StoredAd {
    /// Entity name (from the ad's `Name` attribute), original spelling.
    pub name: String,
    /// Provider or customer.
    pub kind: EntityKind,
    /// The classad.
    pub ad: Arc<ClassAd>,
    /// Contact address for claiming.
    pub contact: String,
    /// Provider's authorization ticket, if any.
    pub ticket: Option<Ticket>,
    /// Lease expiry (absolute seconds).
    pub expires_at: Timestamp,
    /// Monotone sequence number: the ad's stable identity for ordering.
    /// Assigned at first admission (or on any content change) and *kept*
    /// across pure lease renewals, so it doubles as the deterministic
    /// rank tie-break key (see [`crate::matcher::Candidate::tie`]).
    pub seq: u64,
    /// The trace this ad's match lifecycle belongs to. A request's trace
    /// rides into every [`crate::negotiate::MatchRecord`] it produces.
    /// `None` for ads from pre-tracing peers or paths that never minted a
    /// context.
    pub trace: Option<TraceContext>,
    /// The ad's wire encoding ([`classad::json::to_json`]), filled by the
    /// first whole-ad query reply that returns it ([`StoredAd::json`]).
    /// Never stale: the ad behind the `Arc` is immutable and a changed ad
    /// is a new `StoredAd`, while a pure renewal keeps this one.
    pub encoded: OnceLock<Arc<str>>,
}

impl StoredAd {
    /// The ad's JSON encoding, computed on first use and cached for the
    /// life of this stored ad.
    pub fn json(&self) -> &Arc<str> {
        self.encoded
            .get_or_init(|| Arc::from(classad::json::to_json(&self.ad)))
    }

    /// Whether the ad's `Name` is a string literal spelling its store key.
    /// Only then does every evaluation of `Name` — in any context, against
    /// any other ad — give the name the ad is stored under.
    pub fn name_is_literal(&self) -> bool {
        matches!(
            self.ad.get("name").map(|e| &**e),
            Some(Expr::Lit(Literal::Str(s))) if s.eq_ignore_ascii_case(&self.name)
        )
    }
}

/// The canonical (lowercase) store key of a name, borrowed when the name
/// already is one.
fn canonical(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The ads of one kind: a dense vector, and an index from canonical name
/// to position.
#[derive(Debug, Default)]
struct Table {
    ads: Vec<StoredAd>,
    /// `keys[i]` is the canonical name of `ads[i]`, sharing its allocation
    /// with the index key and any change-feed entry.
    keys: Vec<Arc<str>>,
    index: HashMap<Arc<str>, usize>,
}

impl Table {
    fn get(&self, key: &str) -> Option<&StoredAd> {
        self.index.get(key).map(|&i| &self.ads[i])
    }

    /// Store `stored` under `key`, returning the key's shared spelling and
    /// the ad it replaced.
    fn insert(&mut self, key: &str, stored: StoredAd) -> (Arc<str>, Option<StoredAd>) {
        match self.index.get(key) {
            Some(&i) => (
                self.keys[i].clone(),
                Some(std::mem::replace(&mut self.ads[i], stored)),
            ),
            None => {
                let key: Arc<str> = Arc::from(key);
                self.index.insert(key.clone(), self.ads.len());
                self.keys.push(key.clone());
                self.ads.push(stored);
                (key, None)
            }
        }
    }

    /// Remove the ad at position `i`; the last ad takes its place.
    fn remove_at(&mut self, i: usize) -> (Arc<str>, StoredAd) {
        let key = self.keys.swap_remove(i);
        let removed = self.ads.swap_remove(i);
        self.index.remove(&*key);
        if let Some(moved) = self.keys.get(i) {
            self.index.insert(moved.clone(), i);
        }
        (key, removed)
    }
}

/// A reader's place in an [`AdStore`]'s change feed. The default cursor
/// belongs to no store: it reads as "re-read everything" anywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedCursor {
    store: u64,
    pos: u64,
}

/// How [`AdStore::admit`] took an advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A new ad, new content, contact or ticket under a stored name, or a
    /// renewal that brings a lapsed ad back: what a cycle matches changed.
    Changed,
    /// A lease renewal of a live ad.
    Renewed,
}

/// In-memory ad store keyed by `(kind, lowercase name)`, with a change
/// feed over the provider ads (see the module docs).
///
/// Re-advertising under the same name *replaces* the old ad (and renews the
/// lease); ads whose lease lapses are dropped by [`AdStore::expire`].
#[derive(Debug)]
pub struct AdStore {
    providers: Table,
    customers: Table,
    /// Canonical names of changed providers, oldest first; `feed[0]` is
    /// at absolute position `feed_base`.
    feed: VecDeque<Arc<str>>,
    feed_base: u64,
    /// This store's identity in a [`FeedCursor`].
    id: u64,
    /// No stored lease ends before this (`u64::MAX` when empty). Stale low
    /// after renewals and removals; [`AdStore::expire`] recomputes it.
    min_expiry: Timestamp,
    next_seq: u64,
    eval_policy: EvalPolicy,
    /// Stored ads (lapsed or not) whose `Name` is not a string literal
    /// spelling their key ([`StoredAd::name_is_literal`]).
    computed_names: usize,
}

impl Default for AdStore {
    fn default() -> Self {
        AdStore {
            providers: Table::default(),
            customers: Table::default(),
            feed: VecDeque::new(),
            feed_base: 0,
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            min_expiry: Timestamp::MAX,
            next_seq: 0,
            eval_policy: EvalPolicy::default(),
            computed_names: 0,
        }
    }
}

impl AdStore {
    /// Create an empty store.
    pub fn new() -> Self {
        AdStore::default()
    }

    fn table(&self, kind: EntityKind) -> &Table {
        match kind {
            EntityKind::Provider => &self.providers,
            EntityKind::Customer => &self.customers,
        }
    }

    fn table_mut(&mut self, kind: EntityKind) -> &mut Table {
        match kind {
            EntityKind::Provider => &mut self.providers,
            EntityKind::Customer => &mut self.customers,
        }
    }

    /// Record a change to the provider set under `key`, dropping the
    /// oldest entries past the feed's bound.
    fn changed(&mut self, kind: EntityKind, key: Arc<str>) {
        if kind != EntityKind::Provider {
            return;
        }
        self.feed.push_back(key);
        let bound = self.providers.ads.len() + FEED_SLACK;
        while self.feed.len() > bound {
            self.feed.pop_front();
            self.feed_base += 1;
        }
    }

    /// The cursor just past the newest feed entry.
    pub fn feed_end(&self) -> FeedCursor {
        FeedCursor {
            store: self.id,
            pos: self.feed_base + self.feed.len() as u64,
        }
    }

    /// The canonical names of the providers changed since `cursor`, oldest
    /// first (a name may repeat), or `None` for "re-read everything": the
    /// cursor is from another store, or older than the oldest entry kept.
    pub fn changes_since(&self, cursor: FeedCursor) -> Option<impl Iterator<Item = &Arc<str>>> {
        let end = self.feed_end();
        if cursor.store != self.id || cursor.pos < self.feed_base || cursor.pos > end.pos {
            return None;
        }
        Some(self.feed.range((cursor.pos - self.feed_base) as usize..))
    }

    /// Every stored provider ad with its canonical name, lapsed or not, in
    /// table order.
    pub(crate) fn providers(&self) -> impl Iterator<Item = (&Arc<str>, &StoredAd)> {
        self.providers.keys.iter().zip(&self.providers.ads)
    }

    /// Number of live ads (including any whose lease has lapsed but which
    /// have not yet been swept by [`AdStore::expire`]).
    pub fn len(&self) -> usize {
        self.providers.ads.len() + self.customers.ads.len()
    }

    /// `true` if no ads are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored ads whose `Name` is not a string literal spelling
    /// their key ([`StoredAd::name_is_literal`]). While it is 0, an ad
    /// whose `Name` equals a string is exactly the ad [`AdStore::get`]
    /// finds under that string, whoever evaluates the `Name`.
    pub fn computed_names(&self) -> usize {
        self.computed_names
    }

    /// Keep [`AdStore::computed_names`] as `added` enters and `removed`
    /// leaves the store.
    fn recount(&mut self, added: Option<&StoredAd>, removed: Option<&StoredAd>) {
        let computed = |s: Option<&StoredAd>| usize::from(s.is_some_and(|s| !s.name_is_literal()));
        self.computed_names = self.computed_names + computed(added) - computed(removed);
    }

    /// Admit an advertisement, validating it against the advertising
    /// protocol. Returns the entity's name key. Equivalent to
    /// [`AdStore::admit`] with no trace context.
    pub fn advertise(
        &mut self,
        adv: Advertisement,
        now: Timestamp,
        proto: &AdvertisingProtocol,
    ) -> Result<String, ProtocolError> {
        self.admit(adv, now, proto, None).map(|(name, _)| name)
    }

    /// Admit an advertisement under an optional trace context; the
    /// context rides on the stored ad into every match it produces.
    /// Returns the entity's name key and how the store took the ad.
    ///
    /// A re-advertisement whose ad content, contact, and ticket all equal
    /// the stored ad's is a **lease renewal** ([`Admission::Renewed`]):
    /// the lease (and trace) update in place and the sequence number is
    /// kept. A renewal that arrives after the lease had already lapsed
    /// (and before a sweep) brings the ad back into the live set, which
    /// is a visible change ([`Admission::Changed`]; the sequence number is
    /// still kept). A provider renewal is a feed entry when it brings the
    /// ad back or shortens its lease, and only then.
    pub fn admit(
        &mut self,
        adv: Advertisement,
        now: Timestamp,
        proto: &AdvertisingProtocol,
        trace: Option<TraceContext>,
    ) -> Result<(String, Admission), ProtocolError> {
        proto.validate(&adv, now)?;
        let name = match adv.ad.eval_attr("Name", &self.eval_policy) {
            Value::Str(s) => s.to_string(),
            _ => return Err(ProtocolError::MissingAttribute("Name".into())),
        };
        let key = name.to_ascii_lowercase();
        let kind = adv.kind;
        self.min_expiry = self.min_expiry.min(adv.expires_at);
        let table = self.table_mut(kind);
        if let Some(&i) = table.index.get(key.as_str()) {
            let existing = &mut table.ads[i];
            if *existing.ad == adv.ad
                && existing.contact == adv.contact
                && existing.ticket == adv.ticket
            {
                let lapsed = existing.expires_at <= now;
                let shortened = adv.expires_at < existing.expires_at;
                existing.expires_at = adv.expires_at;
                existing.trace = trace;
                if lapsed || shortened {
                    let key = table.keys[i].clone();
                    self.changed(kind, key);
                }
                let admission = if lapsed {
                    Admission::Changed
                } else {
                    Admission::Renewed
                };
                return Ok((name, admission));
            }
        }
        let stored = self.fresh(name.clone(), adv, trace);
        self.recount(Some(&stored), None);
        let (key, replaced) = self.table_mut(kind).insert(&key, stored);
        self.recount(None, replaced.as_ref());
        self.changed(kind, key);
        Ok((name, Admission::Changed))
    }

    /// A new stored ad for `adv` under the next sequence number.
    fn fresh(&mut self, name: String, adv: Advertisement, trace: Option<TraceContext>) -> StoredAd {
        self.next_seq += 1;
        StoredAd {
            name,
            kind: adv.kind,
            ad: Arc::new(adv.ad),
            contact: adv.contact,
            ticket: adv.ticket,
            expires_at: adv.expires_at,
            seq: self.next_seq,
            trace,
            encoded: OnceLock::new(),
        }
    }

    /// Remove the ad at position `i` of one kind's table.
    fn remove_at(&mut self, kind: EntityKind, i: usize) {
        let (key, removed) = self.table_mut(kind).remove_at(i);
        self.recount(None, Some(&removed));
        self.changed(kind, key);
    }

    /// Remove an entity's ad (e.g. clean shutdown). Returns `true` if it
    /// was present.
    pub fn withdraw(&mut self, kind: EntityKind, name: &str) -> bool {
        let Some(&i) = self.table(kind).index.get(&*canonical(name)) else {
            return false;
        };
        self.remove_at(kind, i);
        true
    }

    /// Remove an entity's ad only if the stored ad is still the very ad
    /// `seen` (by `Arc` identity). A matchmaker withdraws both sides of a
    /// match some time after the cycle that read them; an entity that
    /// re-advertised new content in between keeps its newer ad.
    pub fn withdraw_if_current(
        &mut self,
        kind: EntityKind,
        name: &str,
        seen: &Arc<ClassAd>,
    ) -> bool {
        match self.get(kind, name) {
            Some(stored) if Arc::ptr_eq(&stored.ad, seen) => self.withdraw(kind, name),
            _ => false,
        }
    }

    /// Look up an ad by kind and name.
    pub fn get(&self, kind: EntityKind, name: &str) -> Option<&StoredAd> {
        self.table(kind).get(&canonical(name))
    }

    /// Drop all ads whose lease has lapsed, one by one, each provider onto
    /// the change feed. Returns how many were dropped. Returns at once
    /// while no lease can have lapsed.
    pub fn expire(&mut self, now: Timestamp) -> usize {
        if self.min_expiry > now {
            return 0;
        }
        let mut dropped = 0;
        let mut min_expiry = Timestamp::MAX;
        for kind in [EntityKind::Provider, EntityKind::Customer] {
            let mut i = 0;
            while let Some(ad) = self.table(kind).ads.get(i) {
                if ad.expires_at > now {
                    min_expiry = min_expiry.min(ad.expires_at);
                    i += 1;
                } else {
                    self.remove_at(kind, i);
                    dropped += 1;
                }
            }
        }
        self.min_expiry = min_expiry;
        dropped
    }

    /// The live ads of one kind, by reference, in table order.
    pub(crate) fn live(&self, kind: EntityKind, now: Timestamp) -> impl Iterator<Item = &StoredAd> {
        self.table(kind)
            .ads
            .iter()
            .filter(move |s| s.expires_at > now)
    }

    /// Snapshot the live ads of one kind, freshest first (by sequence
    /// number). The `Arc`s make this cheap; match scans work on the
    /// snapshot while new ads arrive. O(pool) — the incremental
    /// negotiation path reads the change feed instead.
    pub fn snapshot(&self, kind: EntityKind, now: Timestamp) -> Vec<StoredAd> {
        let mut v: Vec<StoredAd> = self.live(kind, now).cloned().collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.seq));
        v
    }

    /// Iterate over all stored ads.
    pub fn iter(&self) -> impl Iterator<Item = &StoredAd> {
        self.providers.ads.iter().chain(&self.customers.ads)
    }

    /// Capture the store's **full** state — every ad of both kinds
    /// (lapsed or not) and the sequence counter — for checkpointing (HA
    /// recovery). Unlike [`AdStore::snapshot`], which is a match-scan view
    /// of live ads of one kind, this is the everything-needed-to-rebuild-me
    /// view: restoring it with [`AdStore::restore_state`] yields a store
    /// that answers every query, match, and renewal exactly as this one
    /// would.
    pub fn snapshot_state(&self) -> StoreSnapshot {
        StoreSnapshot {
            next_seq: self.next_seq,
            ads: self.iter().cloned().collect(),
        }
    }

    /// Rebuild a store from a [`StoreSnapshot`]. Every ad keeps its
    /// sequence number, lease, ticket, contact, and trace; the sequence
    /// counter resumes where the snapshot left it, so ads admitted after a
    /// restore sort strictly fresher than everything checkpointed. The
    /// rebuilt store is a new store: its change feed continues no cursor.
    pub fn restore_state(snap: &StoreSnapshot) -> AdStore {
        let mut store = AdStore {
            next_seq: snap.next_seq,
            ..AdStore::default()
        };
        for stored in &snap.ads {
            store.min_expiry = store.min_expiry.min(stored.expires_at);
            let key = stored.name.to_ascii_lowercase();
            let (_, replaced) = store.table_mut(stored.kind).insert(&key, stored.clone());
            store.recount(Some(stored), replaced.as_ref());
        }
        store
    }
}

/// Full recoverable state of an [`AdStore`], produced by
/// [`AdStore::snapshot_state`] and consumed by [`AdStore::restore_state`].
/// This is what an HA checkpoint freezes into the journal stream (see
/// `condor-ha`): the monotone sequence counter and every stored ad with
/// its lease, ticket, and trace intact.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// The sequence counter; the restored store resumes from here.
    pub next_seq: u64,
    /// Every stored ad, providers and customers alike, lapsed or not
    /// (expiry is re-judged against the clock after restore, not here).
    pub ads: Vec<StoredAd>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;

    fn adv(name: &str, kind: EntityKind, expires_at: Timestamp) -> Advertisement {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; Constraint = true; Rank = 0 ]"#
        ))
        .unwrap();
        Advertisement {
            kind,
            ad,
            contact: format!("{name}:1"),
            ticket: None,
            expires_at,
        }
    }

    fn adv_with_attr(name: &str, kind: EntityKind, expires_at: Timestamp, x: i64) -> Advertisement {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; X = {x}; Constraint = true; Rank = 0 ]"#
        ))
        .unwrap();
        Advertisement {
            kind,
            ad,
            contact: format!("{name}:1"),
            ticket: None,
            expires_at,
        }
    }

    fn proto() -> AdvertisingProtocol {
        AdvertisingProtocol::default()
    }

    /// The feed entries after `cursor`.
    fn changes(store: &AdStore, cursor: FeedCursor) -> Vec<String> {
        store
            .changes_since(cursor)
            .expect("cursor is current")
            .map(|k| k.to_string())
            .collect()
    }

    #[test]
    fn advertise_and_get() {
        let mut store = AdStore::new();
        let name = store
            .advertise(adv("leonardo", EntityKind::Provider, 100), 0, &proto())
            .unwrap();
        assert_eq!(name, "leonardo");
        assert_eq!(store.len(), 1);
        let s = store.get(EntityKind::Provider, "LEONARDO").unwrap();
        assert_eq!(s.name, "leonardo");
        assert_eq!(s.contact, "leonardo:1");
    }

    #[test]
    fn same_name_different_kind_coexist() {
        let mut store = AdStore::new();
        store
            .advertise(adv("x", EntityKind::Provider, 100), 0, &proto())
            .unwrap();
        store
            .advertise(adv("x", EntityKind::Customer, 100), 0, &proto())
            .unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn changed_readvertise_replaces_and_bumps_version() {
        let mut store = AdStore::new();
        store
            .advertise(adv_with_attr("m", EntityKind::Provider, 50, 1), 0, &proto())
            .unwrap();
        let first_seq = store.get(EntityKind::Provider, "m").unwrap().seq;
        let cursor = store.feed_end();
        store
            .advertise(
                adv_with_attr("M", EntityKind::Provider, 150, 2),
                10,
                &proto(),
            )
            .unwrap();
        assert_eq!(store.len(), 1);
        let s = store.get(EntityKind::Provider, "m").unwrap();
        assert!(s.seq > first_seq, "content change takes a new seq");
        assert_eq!(s.expires_at, 150);
        assert_eq!(changes(&store, cursor), ["m"], "one canonical entry");
    }

    #[test]
    fn pure_renewal_keeps_seq_and_version() {
        let mut store = AdStore::new();
        store
            .advertise(adv("m", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let first_seq = store.get(EntityKind::Provider, "m").unwrap().seq;
        let cursor = store.feed_end();
        store
            .advertise(adv("m", EntityKind::Provider, 150), 10, &proto())
            .unwrap();
        let s = store.get(EntityKind::Provider, "m").unwrap();
        assert_eq!(s.seq, first_seq, "identical re-ad is a pure renewal");
        assert_eq!(s.expires_at, 150, "lease still renews");
        assert!(changes(&store, cursor).is_empty(), "renewal is no change");
        // A renewal that shortens the lease is one a reader must see.
        store
            .advertise(adv("m", EntityKind::Provider, 120), 20, &proto())
            .unwrap();
        assert_eq!(changes(&store, cursor), ["m"]);
        assert_eq!(store.get(EntityKind::Provider, "m").unwrap().seq, first_seq);
    }

    #[test]
    fn renewal_after_the_lease_lapsed_bumps_the_version() {
        // Unswept, the lapsed ad was invisible to a cycle at t=60; the
        // renewal makes it visible again, so the feed must name it.
        let mut store = AdStore::new();
        store
            .advertise(adv("m", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let seq = store.get(EntityKind::Provider, "m").unwrap().seq;
        let cursor = store.feed_end();
        store
            .advertise(adv("m", EntityKind::Provider, 150), 70, &proto())
            .unwrap();
        assert_eq!(store.get(EntityKind::Provider, "m").unwrap().seq, seq);
        assert_eq!(changes(&store, cursor), ["m"]);
    }

    #[test]
    fn admit_tells_a_change_from_a_renewal() {
        for kind in [EntityKind::Provider, EntityKind::Customer] {
            let mut store = AdStore::new();
            let mut admit =
                |ad: Advertisement, now| store.admit(ad, now, &proto(), None).unwrap().1;
            assert_eq!(admit(adv("x", kind, 50), 0), Admission::Changed, "new");
            assert_eq!(admit(adv("x", kind, 60), 10), Admission::Renewed);
            assert_eq!(
                admit(adv_with_attr("x", kind, 70, 1), 20),
                Admission::Changed,
                "new content"
            );
            assert_eq!(
                admit(adv_with_attr("x", kind, 150, 1), 80),
                Admission::Changed,
                "a renewal that brings a lapsed ad back"
            );
        }
    }

    #[test]
    fn customers_never_enter_the_feed() {
        let mut store = AdStore::new();
        let cursor = store.feed_end();
        store
            .advertise(adv("j", EntityKind::Customer, 50), 0, &proto())
            .unwrap();
        store.withdraw(EntityKind::Customer, "j");
        assert!(changes(&store, cursor).is_empty());
    }

    #[test]
    fn a_restored_store_never_continues_an_old_cursor() {
        let mut store = AdStore::new();
        store
            .advertise(adv("a", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let restored = AdStore::restore_state(&store.snapshot_state());
        assert!(restored.changes_since(store.feed_end()).is_none());
        assert!(store.changes_since(restored.feed_end()).is_none());
        assert!(
            AdStore::new()
                .changes_since(FeedCursor::default())
                .is_none(),
            "the default cursor reads everything, even on an empty store"
        );
    }

    #[test]
    fn expire_sweeps_lapsed_leases_into_the_feed() {
        let mut store = AdStore::new();
        store
            .advertise(adv("a", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        store
            .advertise(adv("b", EntityKind::Provider, 150), 0, &proto())
            .unwrap();
        store
            .advertise(adv("j", EntityKind::Customer, 60), 0, &proto())
            .unwrap();
        let cursor = store.feed_end();
        assert_eq!(store.expire(100), 2);
        assert_eq!(store.len(), 1);
        assert!(store.get(EntityKind::Provider, "a").is_none());
        assert!(store.get(EntityKind::Provider, "b").is_some());
        assert_eq!(changes(&store, cursor), ["a"], "expiry is a change");
    }

    #[test]
    fn snapshot_filters_kind_and_lease_and_orders_by_freshness() {
        let mut store = AdStore::new();
        store
            .advertise(adv("old", EntityKind::Provider, 150), 0, &proto())
            .unwrap();
        store
            .advertise(adv("lapsed", EntityKind::Provider, 60), 0, &proto())
            .unwrap();
        store
            .advertise(adv("fresh", EntityKind::Provider, 150), 0, &proto())
            .unwrap();
        store
            .advertise(adv("job", EntityKind::Customer, 150), 0, &proto())
            .unwrap();
        let snap = store.snapshot(EntityKind::Provider, 100);
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["fresh", "old"]);
    }

    #[test]
    fn withdraw_removes() {
        let mut store = AdStore::new();
        store
            .advertise(adv("m", EntityKind::Provider, 100), 0, &proto())
            .unwrap();
        let cursor = store.feed_end();
        assert!(store.withdraw(EntityKind::Provider, "M"));
        assert!(!store.withdraw(EntityKind::Provider, "M"));
        assert!(store.is_empty());
        assert_eq!(changes(&store, cursor), ["m"]);
    }

    #[test]
    fn validation_errors_propagate() {
        let mut store = AdStore::new();
        let mut bad = adv("m", EntityKind::Provider, 100);
        bad.ad.remove("Name");
        assert!(store.advertise(bad, 0, &proto()).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn computed_name_is_evaluated() {
        let mut store = AdStore::new();
        let ad =
            parse_classad(r#"[ Base = "node"; Name = strcat(Base, "-", 7); Constraint = true ]"#)
                .unwrap();
        let a = Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: "c:1".into(),
            ticket: None,
            expires_at: 100,
        };
        let name = store.advertise(a, 0, &proto()).unwrap();
        assert_eq!(name, "node-7");
    }

    #[test]
    fn removals_keep_every_other_ad_findable() {
        let mut store = AdStore::new();
        for i in 0..50 {
            store
                .advertise(
                    adv(&format!("M{i}"), EntityKind::Provider, 100 + i),
                    0,
                    &proto(),
                )
                .unwrap();
        }
        // Withdrawals and a sweep move the table's tail into the holes.
        for i in (0..50).step_by(7) {
            assert!(store.withdraw(EntityKind::Provider, &format!("m{i}")));
        }
        assert_eq!(store.expire(110), 9, "m1..m10, less the withdrawn m7");
        assert_eq!(store.providers().count(), 50 - 8 - 9);
        for i in 0..50u64 {
            let name = format!("m{i}");
            let want = i % 7 != 0 && i > 10;
            assert_eq!(
                store.get(EntityKind::Provider, &name).is_some(),
                want,
                "{name}"
            );
        }
        for (key, s) in store.providers() {
            assert_eq!(**key, s.name.to_ascii_lowercase());
        }
    }

    #[test]
    fn the_feed_stays_within_its_bound_without_a_reader() {
        let mut store = AdStore::new();
        let start = store.feed_end();
        for i in 0..10_000i64 {
            let name = format!("m{}", i % 10);
            store
                .advertise(
                    adv_with_attr(&name, EntityKind::Provider, 1_000, i),
                    0,
                    &proto(),
                )
                .unwrap();
            assert!(store.feed.len() <= store.providers.ads.len() + FEED_SLACK);
        }
        assert!(
            store.changes_since(start).is_none(),
            "the first reader fell off"
        );
        for i in 0..10 {
            store.withdraw(EntityKind::Provider, &format!("m{i}"));
        }
        assert_eq!(store.feed.len(), FEED_SLACK);
        let last = store.feed_end();
        assert_eq!(store.changes_since(last).unwrap().count(), 0);
    }

    #[test]
    fn snapshot_state_roundtrips_ads_seq_and_layout() {
        let mut store = AdStore::new();
        for i in 0..20 {
            store
                .advertise(
                    adv_with_attr(&format!("m{i}"), EntityKind::Provider, 100 + i as u64, i),
                    0,
                    &proto(),
                )
                .unwrap();
        }
        store
            .advertise(adv("job-1", EntityKind::Customer, 150), 0, &proto())
            .unwrap();
        let snap = store.snapshot_state();
        assert_eq!(snap.ads.len(), 21);
        let restored = AdStore::restore_state(&snap);
        assert_eq!(restored.len(), store.len());
        for i in 0..20 {
            let name = format!("m{i}");
            let a = store.get(EntityKind::Provider, &name).unwrap();
            let b = restored.get(EntityKind::Provider, &name).unwrap();
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.expires_at, b.expires_at);
            assert_eq!(a.contact, b.contact);
            assert_eq!(*a.ad, *b.ad);
        }
        assert!(restored.get(EntityKind::Customer, "job-1").is_some());
        // The seq counter resumes: a new ad sorts fresher than everything
        // checkpointed.
        let mut restored = restored;
        restored
            .advertise(adv("late", EntityKind::Provider, 200), 0, &proto())
            .unwrap();
        let late = restored.get(EntityKind::Provider, "late").unwrap().seq;
        assert!(snap.ads.iter().all(|a| a.seq < late));
    }

    #[test]
    fn restored_store_treats_identical_readvertise_as_renewal() {
        let mut store = AdStore::new();
        store
            .advertise(adv("m", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let seq = store.get(EntityKind::Provider, "m").unwrap().seq;
        let mut restored = AdStore::restore_state(&store.snapshot_state());
        restored
            .advertise(adv("m", EntityKind::Provider, 150), 10, &proto())
            .unwrap();
        let s = restored.get(EntityKind::Provider, "m").unwrap();
        assert_eq!(s.seq, seq, "renewal semantics survive the roundtrip");
        assert_eq!(s.expires_at, 150);
    }

    #[test]
    fn min_expiry_tracks_the_earliest_lease() {
        let mut store = AdStore::new();
        assert_eq!(store.min_expiry, u64::MAX);
        store
            .advertise(adv("a", EntityKind::Provider, 80), 0, &proto())
            .unwrap();
        store
            .advertise(adv("b", EntityKind::Customer, 50), 0, &proto())
            .unwrap();
        assert_eq!(store.min_expiry, 50);
        assert_eq!(store.expire(40), 0, "nothing can have lapsed");
        store.expire(60);
        assert_eq!(store.min_expiry, 80);
        let restored = AdStore::restore_state(&store.snapshot_state());
        assert_eq!(restored.min_expiry, 80);
    }
}
