//! The ad store: the matchmaker's only state.
//!
//! The matchmaker holds *soft* state — ads with leases that lapse unless
//! refreshed. This is what makes the service effectively stateless with
//! respect to matches (paper §3.2): losing the store loses nothing that the
//! next round of periodic advertisements does not restore.
//!
//! ## Shards and dirtiness
//!
//! Provider (resource) ads are partitioned into **shared-nothing shards**
//! by a stable hash of the ad's name, so negotiation scans can fan out
//! across shards with no shared mutable state and — more importantly — so
//! cycles can be *incremental*: every mutation of a shard's contents
//! (insert, content change, withdraw, lease expiry) bumps that shard's
//! **version**, so a consumer that remembers the version it last read a
//! shard at knows, by one integer compare, whether anything in it changed
//! (the negotiator then diffs the shard against its per-ad table, see
//! [`crate::negotiate`]). A pure lease **renewal** — a re-advertisement
//! whose ad content, contact, and ticket are unchanged — updates the lease
//! *without* bumping the version (and without assigning a new sequence
//! number), which is what keeps a heartbeating 100k-machine pool almost
//! entirely clean between cycles.
//!
//! Shard count is stable-hash-partitioned and **auto-scales**: when the
//! average shard grows past twice the target size the shard count doubles
//! and every ad is redistributed (all versions bump, every ad keeps its
//! identity — a rare re-read that re-derives nothing).
//! [`AdStore::with_shards`] pins an explicit count instead. Match outcomes
//! never depend on the shard count (see [`crate::matcher::Candidate`] for
//! the intrinsic tie-break that guarantees this).
//!
//! Customer (request) ads are not sharded — request-side incrementality
//! comes from autocluster signatures, not partitioning — but they get the
//! same renewal treatment so a re-submitted identical job keeps its
//! queue position.

use crate::protocol::{
    Advertisement, AdvertisingProtocol, EntityKind, ProtocolError, Timestamp, TraceContext,
};
use crate::ticket::Ticket;
use classad::ast::{Expr, Literal};
use classad::{ClassAd, EvalPolicy, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of shard versions. Process-wide rather than per store, so a
/// version names one state of one shard of one store: a store rebuilt by
/// [`AdStore::restore_state`] can never present a version a consumer has
/// already seen on the store it replaces.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Default initial shard count for provider ads.
pub const DEFAULT_SHARDS: usize = 8;

/// The most provider shards a store restored from outside input may have.
/// Far above anything auto-resharding at [`TARGET_SHARD_SIZE`] reaches:
/// 65 536 shards is about 67 M provider ads. A larger count in a
/// checkpoint is corruption, not a pool, and would only make the
/// recovering daemon allocate itself to death.
pub const MAX_SHARDS: usize = 65_536;

/// Auto-scaling target: when the mean shard size exceeds twice this, the
/// shard count doubles. Chosen so the unit of incremental re-read work (one
/// shard) stays small and roughly constant as the pool grows.
pub const TARGET_SHARD_SIZE: usize = 512;

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
    /// The trace this ad's match lifecycle belongs to, carried into every
    /// [`crate::negotiate::MatchRecord`] the ad produces. `None` for ads
    /// from pre-tracing peers or paths that never minted a context.
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

/// FNV-1a over the canonical (lowercase) name: a stable hash — identical
/// across processes and runs — so an ad's shard is a pure function of its
/// name and the shard count.
fn stable_hash(name_lower: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name_lower.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One shared-nothing partition of the provider ads.
///
/// Ads live in a dense `order` vector (position is stable while the
/// version is stable — removal is `swap_remove`, which bumps the version);
/// `by_key` maps canonical names to positions.
#[derive(Debug)]
struct Shard {
    order: Vec<StoredAd>,
    by_key: HashMap<String, usize>,
    version: u64,
    /// Smallest `expires_at` in the shard (`u64::MAX` when empty). May be
    /// conservatively *stale low* after renewals; [`Shard::refresh_min`]
    /// recomputes it.
    min_expiry: Timestamp,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            order: Vec::new(),
            by_key: HashMap::new(),
            version: 0,
            min_expiry: u64::MAX,
        }
    }
}

impl Shard {
    fn touch(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    fn refresh_min(&mut self) {
        self.min_expiry = self
            .order
            .iter()
            .map(|s| s.expires_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Store `stored` under `key`, returning the ad it replaced.
    fn insert(&mut self, key: String, stored: StoredAd) -> Option<StoredAd> {
        self.min_expiry = self.min_expiry.min(stored.expires_at);
        let replaced = match self.by_key.get(&key) {
            Some(&i) => Some(std::mem::replace(&mut self.order[i], stored)),
            None => {
                self.by_key.insert(key, self.order.len());
                self.order.push(stored);
                None
            }
        };
        self.touch();
        replaced
    }

    fn remove(&mut self, key: &str) -> Option<StoredAd> {
        let i = self.by_key.remove(key)?;
        let removed = self.order.swap_remove(i);
        if let Some(moved) = self.order.get(i) {
            self.by_key.insert(moved.name.to_ascii_lowercase(), i);
        }
        self.touch();
        self.refresh_min();
        Some(removed)
    }
}

/// How [`AdStore::admit`] took an advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A new ad, new content, contact or ticket under a stored name, or a
    /// renewal that brings a lapsed ad back: what a cycle matches changed.
    Changed,
    /// A pure lease renewal of a live ad.
    Renewed,
}

/// In-memory ad store keyed by `(kind, lowercase name)`, with provider ads
/// sharded by a stable hash of the name (see the module docs).
///
/// Re-advertising under the same name *replaces* the old ad (and renews the
/// lease); ads whose lease lapses are dropped by [`AdStore::expire`].
#[derive(Debug)]
pub struct AdStore {
    shards: Vec<Shard>,
    /// `true` when the shard count was pinned by [`AdStore::with_shards`];
    /// auto-scaling is disabled.
    pinned: bool,
    customers: HashMap<String, StoredAd>,
    next_seq: u64,
    eval_policy: EvalPolicy,
    /// Stored ads (lapsed or not) whose `Name` is not a string literal
    /// spelling their key ([`StoredAd::name_is_literal`]).
    computed_names: usize,
}

impl Default for AdStore {
    fn default() -> Self {
        AdStore {
            shards: (0..DEFAULT_SHARDS).map(|_| Shard::default()).collect(),
            pinned: false,
            customers: HashMap::new(),
            next_seq: 0,
            eval_policy: EvalPolicy::default(),
            computed_names: 0,
        }
    }
}

impl AdStore {
    /// Create an empty store with the default (auto-scaling) shard layout.
    pub fn new() -> Self {
        AdStore::default()
    }

    /// Create an empty store with a pinned provider shard count (`n >= 1`);
    /// auto-scaling is disabled. `with_shards(1)` is the unsharded layout.
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1);
        AdStore {
            shards: (0..n).map(|_| Shard::default()).collect(),
            pinned: true,
            ..AdStore::default()
        }
    }

    /// Number of provider shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a provider ad with this name lives in (a pure function of
    /// the name and the shard count).
    pub fn shard_of(&self, name: &str) -> usize {
        (stable_hash(&name.to_ascii_lowercase()) % self.shards.len() as u64) as usize
    }

    /// Mutation version of one provider shard (`0` = never mutated, hence
    /// empty). Anything computed from the shard's contents is valid exactly
    /// while this is unchanged; versions are unique across stores, so that
    /// holds across [`AdStore::restore_state`] too.
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.shards[shard].version
    }

    /// The provider ads of one shard, in slot order (stable while the
    /// shard's version is stable). May include ads whose lease has lapsed
    /// but which [`AdStore::expire`] has not yet swept — consumers filter
    /// with [`AdStore::shard_min_expiry`] or per ad.
    pub fn shard_ads(&self, shard: usize) -> &[StoredAd] {
        &self.shards[shard].order
    }

    /// Lower bound on the earliest lease expiry in the shard (`u64::MAX`
    /// when empty). If this is `> now`, no ad in the shard has lapsed.
    pub fn shard_min_expiry(&self, shard: usize) -> Timestamp {
        self.shards[shard].min_expiry
    }

    /// Number of live ads (including any whose lease has lapsed but which
    /// have not yet been swept by [`AdStore::expire`]).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.order.len()).sum::<usize>() + self.customers.len()
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
    /// the stored ad's is a **pure lease renewal** ([`Admission::Renewed`]):
    /// the lease (and trace) update in place, the sequence number is kept,
    /// and — for providers — the shard's version does *not* change, so
    /// everything cached against the shard stays valid. The one exception
    /// is a renewal that arrives after the lease had already lapsed (and
    /// before a sweep): the ad re-enters the live set, which is a visible
    /// change ([`Admission::Changed`]), so the version bumps (the sequence
    /// number is still kept).
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
        match adv.kind {
            EntityKind::Provider => {
                let shard = self.shard_of(&name);
                if let Some(&slot) = self.shards[shard].by_key.get(&key) {
                    let existing = &mut self.shards[shard].order[slot];
                    if *existing.ad == adv.ad
                        && existing.contact == adv.contact
                        && existing.ticket == adv.ticket
                    {
                        let lapsed = existing.expires_at <= now;
                        existing.expires_at = adv.expires_at;
                        existing.trace = trace;
                        self.shards[shard].min_expiry =
                            self.shards[shard].min_expiry.min(adv.expires_at);
                        if !lapsed {
                            return Ok((name, Admission::Renewed));
                        }
                        self.shards[shard].touch();
                        return Ok((name, Admission::Changed));
                    }
                }
                let stored = self.fresh(name.clone(), adv, trace);
                self.recount(Some(&stored), None);
                let replaced = self.shards[shard].insert(key, stored);
                self.recount(None, replaced.as_ref());
                self.maybe_split();
            }
            EntityKind::Customer => {
                if let Some(existing) = self.customers.get_mut(&key) {
                    if *existing.ad == adv.ad
                        && existing.contact == adv.contact
                        && existing.ticket == adv.ticket
                    {
                        let lapsed = existing.expires_at <= now;
                        existing.expires_at = adv.expires_at;
                        existing.trace = trace;
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
                let replaced = self.customers.insert(key, stored);
                self.recount(None, replaced.as_ref());
            }
        }
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

    /// Double the shard count and redistribute when the mean shard size
    /// outgrows the target. Every version bumps (the world moved); the ads
    /// themselves move, keeping their `seq` and `Arc`, so per-ad consumers
    /// recognize every one of them.
    fn maybe_split(&mut self) {
        if self.pinned {
            return;
        }
        let providers: usize = self.shards.iter().map(|s| s.order.len()).sum();
        if providers <= self.shards.len() * TARGET_SHARD_SIZE * 2 {
            return;
        }
        let new_count = self.shards.len() * 2;
        let old = std::mem::take(&mut self.shards);
        self.shards = (0..new_count).map(|_| Shard::default()).collect();
        for shard in old {
            for stored in shard.order {
                let key = stored.name.to_ascii_lowercase();
                let idx = (stable_hash(&key) % new_count as u64) as usize;
                self.shards[idx].insert(key, stored);
            }
        }
    }

    /// Remove an entity's ad (e.g. clean shutdown). Returns `true` if it
    /// was present.
    pub fn withdraw(&mut self, kind: EntityKind, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        let removed = match kind {
            EntityKind::Provider => {
                let shard = self.shard_of(name);
                self.shards[shard].remove(&key)
            }
            EntityKind::Customer => self.customers.remove(&key),
        };
        self.recount(None, removed.as_ref());
        removed.is_some()
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
        let key = name.to_ascii_lowercase();
        match kind {
            EntityKind::Provider => {
                let shard = self.shard_of(name);
                let slot = *self.shards[shard].by_key.get(&key)?;
                self.shards[shard].order.get(slot)
            }
            EntityKind::Customer => self.customers.get(&key),
        }
    }

    /// Drop all ads whose lease has lapsed. Returns how many were dropped.
    /// Provider shards that lose ads get their version bumped — an expired
    /// resource is a dirty resource.
    pub fn expire(&mut self, now: Timestamp) -> usize {
        let mut dropped = 0;
        let mut computed_dropped = 0;
        let mut keep = |s: &StoredAd| {
            let live = s.expires_at > now;
            if !live && !s.name_is_literal() {
                computed_dropped += 1;
            }
            live
        };
        for shard in &mut self.shards {
            if shard.min_expiry > now {
                continue;
            }
            let before = shard.order.len();
            shard.order.retain(&mut keep);
            let removed = before - shard.order.len();
            if removed > 0 {
                dropped += removed;
                shard.by_key.clear();
                for (i, s) in shard.order.iter().enumerate() {
                    shard.by_key.insert(s.name.to_ascii_lowercase(), i);
                }
                shard.touch();
            }
            shard.refresh_min();
        }
        let before = self.customers.len();
        self.customers.retain(|_, s| keep(s));
        dropped += before - self.customers.len();
        self.computed_names -= computed_dropped;
        dropped
    }

    /// The live ads of one kind, by reference, in storage order (shard by
    /// shard for providers; unordered for customers).
    pub(crate) fn live(&self, kind: EntityKind, now: Timestamp) -> impl Iterator<Item = &StoredAd> {
        let (shards, customers) = match kind {
            EntityKind::Provider => (&self.shards[..], None),
            EntityKind::Customer => (&[][..], Some(&self.customers)),
        };
        shards
            .iter()
            .flat_map(|sh| sh.order.iter())
            .chain(customers.into_iter().flat_map(|c| c.values()))
            .filter(move |s| s.expires_at > now)
    }

    /// Snapshot the live ads of one kind, freshest first (by sequence
    /// number). The `Arc`s make this cheap; match scans work on the
    /// snapshot while new ads arrive. O(pool) — the incremental
    /// negotiation path reads shards directly instead.
    pub fn snapshot(&self, kind: EntityKind, now: Timestamp) -> Vec<StoredAd> {
        let mut v: Vec<StoredAd> = self.live(kind, now).cloned().collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.seq));
        v
    }

    /// Iterate over all stored ads.
    pub fn iter(&self) -> impl Iterator<Item = &StoredAd> {
        self.shards
            .iter()
            .flat_map(|sh| sh.order.iter())
            .chain(self.customers.values())
    }

    /// Capture the store's **full** state — every ad of both kinds
    /// (lapsed or not), the shard layout, and the sequence counter — for
    /// checkpointing (HA recovery). Unlike [`AdStore::snapshot`], which
    /// is a match-scan view of live ads of one kind, this is the
    /// everything-needed-to-rebuild-me view: restoring it with
    /// [`AdStore::restore_state`] yields a store that answers every
    /// query, match, and renewal exactly as this one would.
    pub fn snapshot_state(&self) -> StoreSnapshot {
        StoreSnapshot {
            shards: self.shards.len(),
            pinned: self.pinned,
            next_seq: self.next_seq,
            ads: self.iter().cloned().collect(),
        }
    }

    /// Rebuild a store from a [`StoreSnapshot`]. Every ad lands in the
    /// shard its name hashes to under the snapshot's shard count, keeping
    /// its sequence number, lease, ticket, contact, and trace; the
    /// sequence counter resumes where the snapshot left it, so ads
    /// admitted after a restore sort strictly fresher than everything
    /// checkpointed.
    pub fn restore_state(snap: &StoreSnapshot) -> AdStore {
        let n = snap.shards.max(1);
        let mut store = AdStore {
            shards: (0..n).map(|_| Shard::default()).collect(),
            pinned: snap.pinned,
            next_seq: snap.next_seq,
            ..AdStore::default()
        };
        for stored in &snap.ads {
            let key = stored.name.to_ascii_lowercase();
            let replaced = match stored.kind {
                EntityKind::Provider => {
                    let shard = store.shard_of(&stored.name);
                    store.shards[shard].insert(key, stored.clone())
                }
                EntityKind::Customer => store.customers.insert(key, stored.clone()),
            };
            store.recount(Some(stored), replaced.as_ref());
        }
        store
    }
}

/// Full recoverable state of an [`AdStore`], produced by
/// [`AdStore::snapshot_state`] and consumed by [`AdStore::restore_state`].
/// This is what an HA checkpoint freezes into the journal stream (see
/// `condor-ha`): the shard layout, the monotone sequence counter, and
/// every stored ad with its lease, ticket, and trace intact.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// Provider shard count at snapshot time.
    pub shards: usize,
    /// Whether the shard count was pinned (auto-scaling disabled).
    pub pinned: bool,
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
        let shard = store.shard_of("m");
        let first_seq = store.get(EntityKind::Provider, "m").unwrap().seq;
        let first_version = store.shard_version(shard);
        store
            .advertise(
                adv_with_attr("m", EntityKind::Provider, 150, 2),
                10,
                &proto(),
            )
            .unwrap();
        assert_eq!(store.len(), 1);
        let s = store.get(EntityKind::Provider, "m").unwrap();
        assert!(s.seq > first_seq, "content change takes a new seq");
        assert_eq!(s.expires_at, 150);
        assert!(store.shard_version(shard) > first_version);
    }

    #[test]
    fn pure_renewal_keeps_seq_and_version() {
        let mut store = AdStore::new();
        store
            .advertise(adv("m", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let shard = store.shard_of("m");
        let first_seq = store.get(EntityKind::Provider, "m").unwrap().seq;
        let first_version = store.shard_version(shard);
        store
            .advertise(adv("m", EntityKind::Provider, 150), 10, &proto())
            .unwrap();
        let s = store.get(EntityKind::Provider, "m").unwrap();
        assert_eq!(s.seq, first_seq, "identical re-ad is a pure renewal");
        assert_eq!(s.expires_at, 150, "lease still renews");
        assert_eq!(
            store.shard_version(shard),
            first_version,
            "renewal leaves the shard clean"
        );
    }

    #[test]
    fn renewal_after_the_lease_lapsed_bumps_the_version() {
        // Unswept, the lapsed ad was invisible to a cycle at t=60; the
        // renewal makes it visible again, so the shard must read as changed.
        let mut store = AdStore::new();
        store
            .advertise(adv("m", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let shard = store.shard_of("m");
        let (seq, version) = (
            store.get(EntityKind::Provider, "m").unwrap().seq,
            store.shard_version(shard),
        );
        store
            .advertise(adv("m", EntityKind::Provider, 150), 70, &proto())
            .unwrap();
        assert_eq!(store.get(EntityKind::Provider, "m").unwrap().seq, seq);
        assert_ne!(store.shard_version(shard), version);
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
    fn restored_store_never_reuses_a_shard_version() {
        let mut store = AdStore::with_shards(1);
        store
            .advertise(adv("a", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        let restored = AdStore::restore_state(&store.snapshot_state());
        assert_ne!(restored.shard_version(0), store.shard_version(0));
        assert_eq!(AdStore::with_shards(1).shard_version(0), 0, "empty");
    }

    #[test]
    fn expire_sweeps_lapsed_leases_and_dirties_shards() {
        let mut store = AdStore::new();
        store
            .advertise(adv("a", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        store
            .advertise(adv("b", EntityKind::Provider, 150), 0, &proto())
            .unwrap();
        let shard_a = store.shard_of("a");
        let v_before = store.shard_version(shard_a);
        assert_eq!(store.expire(100), 1);
        assert_eq!(store.len(), 1);
        assert!(store.get(EntityKind::Provider, "a").is_none());
        assert!(store.get(EntityKind::Provider, "b").is_some());
        assert!(
            store.shard_version(shard_a) > v_before,
            "expiry dirties the shard"
        );
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
        assert!(store.withdraw(EntityKind::Provider, "M"));
        assert!(!store.withdraw(EntityKind::Provider, "M"));
        assert!(store.is_empty());
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
    fn sharding_is_stable_and_total() {
        let store = AdStore::with_shards(8);
        assert_eq!(store.num_shards(), 8);
        for name in ["alpha", "beta", "GAMMA", "Gamma"] {
            let s = store.shard_of(name);
            assert!(s < 8);
            assert_eq!(s, store.shard_of(name), "shard_of is a pure function");
        }
        // Case-insensitive: same key, same shard.
        assert_eq!(store.shard_of("GAMMA"), store.shard_of("gamma"));
    }

    #[test]
    fn shard_ads_cover_every_provider_exactly_once() {
        let mut store = AdStore::with_shards(4);
        for i in 0..50 {
            store
                .advertise(
                    adv(&format!("m{i}"), EntityKind::Provider, 100),
                    0,
                    &proto(),
                )
                .unwrap();
        }
        let mut names: Vec<String> = (0..store.num_shards())
            .flat_map(|s| store.shard_ads(s).iter().map(|a| a.name.clone()))
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 50);
        // And every ad sits in the shard its name hashes to.
        for s in 0..store.num_shards() {
            for ad in store.shard_ads(s) {
                assert_eq!(store.shard_of(&ad.name), s);
            }
        }
    }

    #[test]
    fn auto_resharding_doubles_and_redistributes() {
        let mut store = AdStore::new();
        let initial = store.num_shards();
        let enough = initial * TARGET_SHARD_SIZE * 2 + 1;
        for i in 0..enough {
            store
                .advertise(
                    adv(&format!("m{i}"), EntityKind::Provider, u64::MAX),
                    0,
                    &proto(),
                )
                .unwrap();
        }
        assert!(store.num_shards() > initial, "shard count grew");
        // Every ad still findable and in the right shard.
        for i in (0..enough).step_by(997) {
            let name = format!("m{i}");
            let s = store.get(EntityKind::Provider, &name).unwrap();
            assert_eq!(s.name, name);
        }
        let total: usize = (0..store.num_shards())
            .map(|s| store.shard_ads(s).len())
            .sum();
        assert_eq!(total, enough);
    }

    #[test]
    fn pinned_shard_count_never_changes() {
        let mut store = AdStore::with_shards(2);
        for i in 0..(2 * TARGET_SHARD_SIZE * 2 + 10) {
            store
                .advertise(
                    adv(&format!("m{i}"), EntityKind::Provider, u64::MAX),
                    0,
                    &proto(),
                )
                .unwrap();
        }
        assert_eq!(store.num_shards(), 2);
    }

    #[test]
    fn snapshot_state_roundtrips_ads_seq_and_layout() {
        let mut store = AdStore::with_shards(4);
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
        assert_eq!(snap.shards, 4);
        assert!(snap.pinned);
        assert_eq!(snap.ads.len(), 21);
        let restored = AdStore::restore_state(&snap);
        assert_eq!(restored.num_shards(), store.num_shards());
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
        let mut store = AdStore::with_shards(1);
        assert_eq!(store.shard_min_expiry(0), u64::MAX);
        store
            .advertise(adv("a", EntityKind::Provider, 80), 0, &proto())
            .unwrap();
        store
            .advertise(adv("b", EntityKind::Provider, 50), 0, &proto())
            .unwrap();
        assert_eq!(store.shard_min_expiry(0), 50);
        store.expire(60);
        assert_eq!(store.shard_min_expiry(0), 80);
    }
}
