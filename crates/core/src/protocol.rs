//! The advertising, matchmaking, and claiming protocol messages (paper §3).
//!
//! The framework decomposes into five parts; this module defines the
//! *conventions and messages* for three of them:
//!
//! * the **advertising protocol** — what a classad must contain to
//!   participate in matchmaking ([`AdvertisingProtocol`],
//!   [`Advertisement`]);
//! * the **matchmaking protocol** — how matched parties are notified
//!   ([`MatchNotification`]);
//! * the **claiming protocol** — how a customer claims a provider directly,
//!   bypassing the matchmaker ([`ClaimRequest`], [`ClaimResponse`]).
//!
//! Messages carry their classads by value and encode to a length-prefixed
//! binary frame (see [`Message::encode`]) so agents can exchange them over
//! any byte stream. The matchmaker itself stays stateless with respect to
//! matches: once a [`MatchNotification`] is sent, everything else happens
//! between the two entities.

use crate::ticket::Ticket;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use classad::json::{from_json, to_json};
use classad::{ClassAd, MatchConventions};
use std::fmt;

pub use condor_obs::trace::TraceContext;

/// Logical timestamps, in seconds. The simulator drives these from its
/// virtual clock; a live deployment would use wall-clock seconds.
pub type Timestamp = u64;

/// Which side of a match an entity advertises as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A service/resource provider (e.g. a workstation's Resource-owner
    /// Agent).
    Provider,
    /// A service customer (e.g. a Customer Agent holding a job queue).
    Customer,
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EntityKind::Provider => "provider",
            EntityKind::Customer => "customer",
        })
    }
}

/// A classad submitted for matchmaking, together with the envelope data the
/// advertising protocol requires.
#[derive(Debug, Clone, PartialEq)]
pub struct Advertisement {
    /// Provider or customer.
    pub kind: EntityKind,
    /// The advertised classad.
    pub ad: ClassAd,
    /// Where the advertising entity can be reached for claiming.
    pub contact: String,
    /// Authorization ticket a provider hands to the matchmaker; relayed to
    /// the matched customer and verified at claim time (paper §4).
    pub ticket: Option<Ticket>,
    /// When this ad lapses if not refreshed (absolute, seconds).
    pub expires_at: Timestamp,
}

impl Advertisement {
    /// A customer's request — not a daemon self-ad, which is telemetry.
    pub fn is_request(&self) -> bool {
        self.kind == EntityKind::Customer && !condor_obs::is_daemon_ad(&self.ad)
    }
}

/// Errors the advertising protocol can raise when admitting an ad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A required attribute is missing from the classad.
    MissingAttribute(String),
    /// The contact address is empty.
    MissingContact,
    /// The contact address is not a resolvable `host:port` (only raised
    /// when the protocol demands real socket contacts — live deployments).
    BadContact(String),
    /// The ad has already expired at submission time.
    AlreadyExpired,
    /// A frame failed to decode.
    BadFrame(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::MissingAttribute(a) => write!(f, "ad lacks required attribute `{a}`"),
            ProtocolError::MissingContact => f.write_str("ad has no contact address"),
            ProtocolError::BadContact(c) => {
                write!(f, "contact `{c}` is not a usable host:port address")
            }
            ProtocolError::AlreadyExpired => f.write_str("ad is already expired"),
            ProtocolError::BadFrame(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The matchmaker's advertising protocol: which attributes an ad must carry
/// to be admitted, and which attribute names carry match semantics.
///
/// The paper's pool manager "states that every classad should include
/// expressions named Constraint and Rank" plus a contact address and, for
/// providers, an optional authorization ticket.
#[derive(Debug, Clone)]
pub struct AdvertisingProtocol {
    /// Attributes every ad must define (checked case-insensitively).
    pub required_attrs: Vec<String>,
    /// Attribute names carrying match semantics (`Constraint`, `Rank`).
    pub conventions: MatchConventions,
    /// Default lease length granted to ads that will be refreshed
    /// periodically, in seconds.
    pub default_lease: u64,
    /// Require `contact` to parse as a real socket address (`host:port`).
    /// Off by default so in-memory pools and the simulator can use symbolic
    /// contacts; a live TCP daemon turns this on, because it must be able
    /// to dial the contact back to deliver match notifications.
    pub require_socket_contact: bool,
}

impl Default for AdvertisingProtocol {
    fn default() -> Self {
        AdvertisingProtocol {
            // `Name` identifies the entity; `Constraint`/`Rank` presence is
            // checked through the conventions (either spelling accepted).
            required_attrs: vec!["Name".to_string()],
            conventions: MatchConventions::default(),
            default_lease: 300,
            require_socket_contact: false,
        }
    }
}

impl AdvertisingProtocol {
    /// Validate an advertisement against the protocol.
    pub fn validate(&self, adv: &Advertisement, now: Timestamp) -> Result<(), ProtocolError> {
        for attr in &self.required_attrs {
            if !adv.ad.contains(attr) {
                return Err(ProtocolError::MissingAttribute(attr.clone()));
            }
        }
        if self.conventions.constraint_attr_of(&adv.ad).is_none() {
            return Err(ProtocolError::MissingAttribute(
                self.conventions.constraint_attrs[0].clone(),
            ));
        }
        if adv.contact.is_empty() {
            return Err(ProtocolError::MissingContact);
        }
        if self.require_socket_contact {
            use std::net::ToSocketAddrs;
            let resolvable = adv
                .contact
                .to_socket_addrs()
                .map(|mut a| a.next().is_some())
                .unwrap_or(false);
            if !resolvable {
                return Err(ProtocolError::BadContact(adv.contact.clone()));
            }
        }
        if adv.expires_at <= now {
            return Err(ProtocolError::AlreadyExpired);
        }
        Ok(())
    }
}

/// Sent by the matchmaker to both matched parties (step 3 in the paper's
/// Figure 3): each side receives the *other* side's ad, the peer's contact
/// address, and — for the customer — the provider's authorization ticket.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchNotification {
    /// The ad of the entity being notified, as the matchmaker saw it
    /// (lets the entity detect how stale the matched state is).
    pub own_ad: ClassAd,
    /// The matched peer's ad.
    pub peer_ad: ClassAd,
    /// The peer's contact address.
    pub peer_contact: String,
    /// The provider's authorization ticket (present on the customer's copy).
    pub ticket: Option<Ticket>,
}

/// Step 4: the customer contacts the provider directly to establish the
/// claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimRequest {
    /// The ticket relayed through the matchmaker.
    pub ticket: Ticket,
    /// The customer's *current* ad — the provider re-verifies its
    /// constraint against this, not against the possibly-stale ad it
    /// advertised with.
    pub customer_ad: ClassAd,
    /// Customer contact address for the duration of the claim.
    pub customer_contact: String,
}

/// Why a provider refused a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimRejection {
    /// The ticket did not match the one the provider issued.
    BadTicket,
    /// The provider's constraint no longer accepts the customer (state
    /// changed since the ad was sent — the weak-consistency case).
    ConstraintFailed,
    /// The customer's constraint no longer accepts the provider's current
    /// state.
    CustomerConstraintFailed,
    /// The provider is already claimed and not preemptible by this request.
    Busy,
}

impl fmt::Display for ClaimRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClaimRejection::BadTicket => "authorization ticket mismatch",
            ClaimRejection::ConstraintFailed => "provider constraint no longer satisfied",
            ClaimRejection::CustomerConstraintFailed => "customer constraint no longer satisfied",
            ClaimRejection::Busy => "provider busy and not preemptible",
        })
    }
}

/// The provider's answer to a [`ClaimRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimResponse {
    /// Accepted or not.
    pub accepted: bool,
    /// Populated when rejected.
    pub rejection: Option<ClaimRejection>,
    /// The provider's current ad (so the customer can re-advertise
    /// accurately after a rejection).
    pub provider_ad: ClassAd,
}

/// All protocol messages, for framing over a byte stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Step 1: an entity advertises.
    Advertise(Advertisement),
    /// Step 3: the matchmaker notifies a matched entity.
    Notify(MatchNotification),
    /// Step 4a: the customer claims the provider.
    Claim(ClaimRequest),
    /// Step 4b: the provider answers.
    ClaimReply(ClaimResponse),
    /// A customer releases an established claim.
    Release {
        /// Ticket of the claim being released.
        ticket: Ticket,
    },
    /// A one-way query from a status/administrative tool (paper §4). With
    /// no `kind`, a constraint conjunct `other.MyType == "<type>"` naming
    /// one of the matchmaker's own collections (`MatchAnalysis`,
    /// `HistorySeries`, `AlertState`; see [`crate::query::Collection`])
    /// reads that collection instead of the ad store.
    Query {
        /// Constraint expression source selecting target ads.
        constraint: String,
        /// Restrict to providers/customers, or both when `None`.
        kind: Option<EntityKind>,
        /// Attributes to project in results; empty = whole ads.
        projection: Vec<String>,
    },
    /// The matchmaker's answer to a [`Message::Query`].
    QueryReply {
        /// The matching (possibly projected) ads.
        ads: Vec<ClassAd>,
    },
    /// A structured rejection an endpoint sends before closing the
    /// connection when the peer's frame was malformed or violated the
    /// endpoint's protocol — so a request/reply peer sees *why* instead of
    /// waiting on a stream whose decoder lost sync.
    Error {
        /// Human-readable description of what was rejected.
        detail: String,
    },
    /// A matchmaker daemon bids for pool leadership (HA election; see
    /// `docs/protocol.md` §13). A bid proposes an epoch strictly greater
    /// than any lease the bidder has observed; peers answer with their
    /// current [`Message::LeaderLease`] (conceding or asserting). A
    /// pre-HA matchmaker answers [`Message::Error`] (`unknown tag 11`),
    /// which bidders treat as a concession — no framing desync.
    ElectionBid {
        /// The epoch the bidder proposes to lead.
        epoch: u64,
        /// The bidder's matchmaker contact address (`host:port`).
        candidate: String,
    },
    /// A leadership lease assertion: `leader` holds the pool for `epoch`
    /// until `expires_at`. Sent in reply to an [`Message::ElectionBid`]
    /// and broadcast by the leader as a heartbeat; standbys contend only
    /// once the lease they last saw has lapsed.
    LeaderLease {
        /// The epoch this lease belongs to. Higher epochs always win.
        epoch: u64,
        /// The leader's matchmaker contact address (`host:port`).
        leader: String,
        /// When the lease lapses if not refreshed (absolute, seconds).
        expires_at: Timestamp,
    },
    /// A matchmaker forwards one representative request ad from an
    /// unmatched autocluster to a peer pool's matchmaker (flocking; see
    /// `docs/protocol.md` §14). The representative ad carries the
    /// anti-loop state as ordinary attributes (`FlockHops` — remaining
    /// hop budget — and `FlockVisited` — pools already consulted). A
    /// pre-flock matchmaker answers [`Message::Error`] (`unknown tag
    /// 13`), which the sender treats as "peer does not flock" — no
    /// framing desync, normal traffic undisturbed.
    FlockQuery {
        /// The originating pool's matchmaker contact (`host:port`).
        origin: String,
        /// How many requests the forwarded representative stands for.
        members: u32,
        /// The representative request ad (constraint shared verbatim by
        /// every member of the autocluster).
        rep: ClassAd,
    },
    /// A peer matchmaker's answer to a [`Message::FlockQuery`]: either a
    /// delegation grant — the matched provider's full [`Advertisement`],
    /// whose contact and authorization ticket let the *origin* pool's
    /// customer claim the remote provider directly, with no state
    /// replicated between matchmakers — or no grant (healthy peer, no
    /// matching resource free right now).
    FlockOffer {
        /// The answering pool's matchmaker contact (`host:port`).
        pool: String,
        /// The matched provider's advertisement, if any.
        grant: Option<Advertisement>,
    },
}

/// The wire tag assigned to each [`Message`] variant — the first byte of
/// every encoded frame. Collected here (rather than scattered through the
/// encoder) so the full tag space is auditable at a glance and tools can
/// name tags without re-deriving them.
///
/// Tag `0` is deliberately never assigned: a zero first byte is the most
/// common corruption pattern, and keeping it unknown means such frames
/// fail decoding immediately.
pub mod tag {
    /// Step 1: an entity advertises ([`super::Message::Advertise`]).
    pub const ADVERTISE: u8 = 1;
    /// Step 3: match notification ([`super::Message::Notify`]).
    pub const NOTIFY: u8 = 2;
    /// Step 4a: direct claim ([`super::Message::Claim`]).
    pub const CLAIM: u8 = 3;
    /// Step 4b: claim answer ([`super::Message::ClaimReply`]).
    pub const CLAIM_REPLY: u8 = 4;
    /// Claim release ([`super::Message::Release`]).
    pub const RELEASE: u8 = 5;
    /// Status-tool query ([`super::Message::Query`]).
    pub const QUERY: u8 = 6;
    /// Query answer ([`super::Message::QueryReply`]).
    pub const QUERY_REPLY: u8 = 7;
    /// Structured rejection ([`super::Message::Error`]).
    pub const ERROR: u8 = 8;
    /// HA leadership bid ([`super::Message::ElectionBid`]).
    pub const ELECTION_BID: u8 = 11;
    /// HA leadership lease ([`super::Message::LeaderLease`]).
    pub const LEADER_LEASE: u8 = 12;
    /// Cross-pool representative-ad forward ([`super::Message::FlockQuery`]).
    pub const FLOCK_QUERY: u8 = 13;
    /// Cross-pool delegation answer ([`super::Message::FlockOffer`]).
    pub const FLOCK_OFFER: u8 = 14;

    // Retired, never to be reassigned: 9/10 (match analysis), 15/16 (pool
    // history) and 17/18 (alert state). Those answers are `Query`
    // collections now; a frame with one of these tags decodes as an
    // unknown tag, so an old tool gets a structured `Error`, never a
    // misread reply.

    /// Every assigned tag, in order. Exhaustiveness tests iterate this so
    /// a new variant cannot land without joining the round-trip suite.
    pub const ALL: [u8; 12] = [
        ADVERTISE,
        NOTIFY,
        CLAIM,
        CLAIM_REPLY,
        RELEASE,
        QUERY,
        QUERY_REPLY,
        ERROR,
        ELECTION_BID,
        LEADER_LEASE,
        FLOCK_QUERY,
        FLOCK_OFFER,
    ];
}

/// Whether a tag may carry the optional trace-context trailer (the five
/// match-lifecycle messages plus the two flock messages; see
/// `docs/protocol.md` §11 and §14). Queries and releases stay
/// trailer-free: they are not part of any match's causal chain. Flock
/// frames *do* carry it so a cross-pool match stitches into the same span
/// tree as a local one.
fn tag_carries_trace(t: u8) -> bool {
    matches!(
        t,
        tag::ADVERTISE
            | tag::NOTIFY
            | tag::CLAIM
            | tag::CLAIM_REPLY
            | tag::ERROR
            | tag::FLOCK_QUERY
            | tag::FLOCK_OFFER
    )
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_ad(buf: &mut BytesMut, ad: &ClassAd) {
    put_string(buf, &to_json(ad));
}

/// Encode a [`Message::QueryReply`] frame from ads already in their wire
/// form ([`classad::json::to_json`]): the same bytes as
/// `Message::QueryReply { ads }.encode()` for the ads they encode, with no
/// ad re-encoded and the frame allocated once.
pub fn encode_query_reply<S: AsRef<str>>(ads: &[S]) -> Bytes {
    let len = 5 + ads.iter().map(|a| 4 + a.as_ref().len()).sum::<usize>();
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u8(tag::QUERY_REPLY);
    buf.put_u32(ads.len() as u32);
    for ad in ads {
        put_string(&mut buf, ad.as_ref());
    }
    buf.freeze()
}

/// Encode a [`Message::Notify`] from the two ads in their wire form
/// ([`classad::json::to_json`]): the same bytes as
/// `Message::Notify(..).encode_traced(trace)` for the ads they encode. A
/// match notifies both parties, each with the other's ad, so a notifier
/// that encodes each matched ad once can build both messages.
pub fn encode_notify(
    own_ad: &str,
    peer_ad: &str,
    peer_contact: &str,
    ticket: Option<Ticket>,
    trace: Option<&TraceContext>,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + own_ad.len() + peer_ad.len());
    put_notify(&mut buf, own_ad, peer_ad, peer_contact, &ticket);
    if let Some(ctx) = trace {
        put_trace(&mut buf, ctx);
    }
    buf.freeze()
}

/// A `Notify` message body: the tag, both ads' JSON, the peer's contact
/// and the optional ticket.
fn put_notify(
    buf: &mut BytesMut,
    own_ad: &str,
    peer_ad: &str,
    peer_contact: &str,
    ticket: &Option<Ticket>,
) {
    buf.put_u8(tag::NOTIFY);
    put_string(buf, own_ad);
    put_string(buf, peer_ad);
    put_string(buf, peer_contact);
    put_opt_ticket(buf, ticket);
}

/// The trace-context trailer: `marker(1) · trace_id(8) · parent_span_id(8)`.
fn put_trace(buf: &mut BytesMut, ctx: &TraceContext) {
    buf.put_u8(1);
    buf.put_u64(ctx.trace_id);
    buf.put_u64(ctx.parent_span_id);
}

fn put_opt_ticket(buf: &mut BytesMut, t: &Option<Ticket>) {
    match t {
        Some(t) => {
            buf.put_u8(1);
            buf.put_u128(t.raw());
        }
        None => buf.put_u8(0),
    }
}

struct Reader {
    buf: Bytes,
}

impl Reader {
    fn need(&self, n: usize) -> Result<(), ProtocolError> {
        if self.buf.remaining() < n {
            Err(ProtocolError::BadFrame(format!(
                "needed {n} bytes, {} remaining",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    fn u128(&mut self) -> Result<u128, ProtocolError> {
        self.need(16)?;
        Ok(self.buf.get_u128())
    }

    /// Hand the next length-prefixed UTF-8 field to `f`, read in place in
    /// the frame, then step past it.
    fn with_str<T>(&mut self, f: impl FnOnce(&str) -> T) -> Result<T, ProtocolError> {
        self.need(4)?;
        let len = self.buf.get_u32() as usize;
        self.need(len)?;
        let s = std::str::from_utf8(&self.buf.chunk()[..len])
            .map_err(|e| ProtocolError::BadFrame(format!("invalid utf-8: {e}")))?;
        let out = f(s);
        self.buf.advance(len);
        Ok(out)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        self.with_str(str::to_owned)
    }

    fn ad(&mut self) -> Result<ClassAd, ProtocolError> {
        self.with_str(from_json)?
            .map_err(|e| ProtocolError::BadFrame(format!("bad ad json: {e}")))
    }

    fn opt_ticket(&mut self) -> Result<Option<Ticket>, ProtocolError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Ticket::from_raw(self.u128()?))),
            other => Err(ProtocolError::BadFrame(format!("bad option tag {other}"))),
        }
    }
}

impl Message {
    /// Encode to a self-describing binary frame. The classads inside travel
    /// as JSON (see [`classad::json`]), everything else as fixed-width
    /// fields. Equivalent to [`Message::encode_traced`] with no context —
    /// the two produce byte-identical frames, which is what makes the
    /// trace trailer backward compatible: a peer that never minted a
    /// context emits exactly the pre-tracing wire format.
    pub fn encode(&self) -> Bytes {
        self.encode_traced(None)
    }

    /// Encode with an optional trace-context trailer. On the five
    /// match-lifecycle tags (`Advertise`, `Notify`, `Claim`, `ClaimReply`,
    /// `Error`) a context appends `marker(1) · trace_id(8) · parent_span_id(8)`
    /// after the message payload; `None` appends nothing. Other tags
    /// ignore the context entirely.
    pub fn encode_traced(&self, trace: Option<&TraceContext>) -> Bytes {
        let mut buf = BytesMut::with_capacity(256);
        match self {
            Message::Advertise(adv) => {
                buf.put_u8(tag::ADVERTISE);
                buf.put_u8(match adv.kind {
                    EntityKind::Provider => 0,
                    EntityKind::Customer => 1,
                });
                put_ad(&mut buf, &adv.ad);
                put_string(&mut buf, &adv.contact);
                put_opt_ticket(&mut buf, &adv.ticket);
                buf.put_u64(adv.expires_at);
            }
            Message::Notify(n) => put_notify(
                &mut buf,
                &to_json(&n.own_ad),
                &to_json(&n.peer_ad),
                &n.peer_contact,
                &n.ticket,
            ),
            Message::Claim(c) => {
                buf.put_u8(tag::CLAIM);
                buf.put_u128(c.ticket.raw());
                put_ad(&mut buf, &c.customer_ad);
                put_string(&mut buf, &c.customer_contact);
            }
            Message::ClaimReply(r) => {
                buf.put_u8(tag::CLAIM_REPLY);
                buf.put_u8(r.accepted as u8);
                buf.put_u8(match r.rejection {
                    None => 0,
                    Some(ClaimRejection::BadTicket) => 1,
                    Some(ClaimRejection::ConstraintFailed) => 2,
                    Some(ClaimRejection::CustomerConstraintFailed) => 3,
                    Some(ClaimRejection::Busy) => 4,
                });
                put_ad(&mut buf, &r.provider_ad);
            }
            Message::Release { ticket } => {
                buf.put_u8(tag::RELEASE);
                buf.put_u128(ticket.raw());
            }
            Message::Query {
                constraint,
                kind,
                projection,
            } => {
                buf.put_u8(tag::QUERY);
                buf.put_u8(match kind {
                    None => 0,
                    Some(EntityKind::Provider) => 1,
                    Some(EntityKind::Customer) => 2,
                });
                put_string(&mut buf, constraint);
                buf.put_u32(projection.len() as u32);
                for p in projection {
                    put_string(&mut buf, p);
                }
            }
            Message::QueryReply { ads } => {
                buf.put_u8(tag::QUERY_REPLY);
                buf.put_u32(ads.len() as u32);
                for ad in ads {
                    put_ad(&mut buf, ad);
                }
            }
            Message::Error { detail } => {
                buf.put_u8(tag::ERROR);
                put_string(&mut buf, detail);
            }
            Message::ElectionBid { epoch, candidate } => {
                buf.put_u8(tag::ELECTION_BID);
                buf.put_u64(*epoch);
                put_string(&mut buf, candidate);
            }
            Message::LeaderLease {
                epoch,
                leader,
                expires_at,
            } => {
                buf.put_u8(tag::LEADER_LEASE);
                buf.put_u64(*epoch);
                put_string(&mut buf, leader);
                buf.put_u64(*expires_at);
            }
            Message::FlockQuery {
                origin,
                members,
                rep,
            } => {
                buf.put_u8(tag::FLOCK_QUERY);
                put_string(&mut buf, origin);
                buf.put_u32(*members);
                put_ad(&mut buf, rep);
            }
            Message::FlockOffer { pool, grant } => {
                buf.put_u8(tag::FLOCK_OFFER);
                put_string(&mut buf, pool);
                match grant {
                    None => buf.put_u8(0),
                    Some(adv) => {
                        buf.put_u8(1);
                        buf.put_u8(match adv.kind {
                            EntityKind::Provider => 0,
                            EntityKind::Customer => 1,
                        });
                        put_ad(&mut buf, &adv.ad);
                        put_string(&mut buf, &adv.contact);
                        put_opt_ticket(&mut buf, &adv.ticket);
                        buf.put_u64(adv.expires_at);
                    }
                }
            }
        }
        if let Some(ctx) = trace {
            if tag_carries_trace(buf[0]) {
                put_trace(&mut buf, ctx);
            }
        }
        buf.freeze()
    }

    /// Decode a frame produced by [`Message::encode`]. Equivalent to
    /// [`Message::decode_traced`] with the context discarded.
    pub fn decode(bytes: Bytes) -> Result<Message, ProtocolError> {
        Self::decode_traced(bytes).map(|(msg, _)| msg)
    }

    /// Decode a frame plus its optional trace-context trailer. Frames from
    /// pre-tracing peers (no trailer) decode with `None`; an explicit
    /// zero marker also decodes with `None`.
    pub fn decode_traced(bytes: Bytes) -> Result<(Message, Option<TraceContext>), ProtocolError> {
        let mut r = Reader { buf: bytes };
        let tag = r.u8()?;
        let msg = match tag {
            tag::ADVERTISE => {
                let kind = match r.u8()? {
                    0 => EntityKind::Provider,
                    1 => EntityKind::Customer,
                    k => return Err(ProtocolError::BadFrame(format!("bad entity kind {k}"))),
                };
                Message::Advertise(Advertisement {
                    kind,
                    ad: r.ad()?,
                    contact: r.string()?,
                    ticket: r.opt_ticket()?,
                    expires_at: r.u64()?,
                })
            }
            tag::NOTIFY => Message::Notify(MatchNotification {
                own_ad: r.ad()?,
                peer_ad: r.ad()?,
                peer_contact: r.string()?,
                ticket: r.opt_ticket()?,
            }),
            tag::CLAIM => Message::Claim(ClaimRequest {
                ticket: Ticket::from_raw(r.u128()?),
                customer_ad: r.ad()?,
                customer_contact: r.string()?,
            }),
            tag::CLAIM_REPLY => {
                let accepted = r.u8()? != 0;
                let rejection = match r.u8()? {
                    0 => None,
                    1 => Some(ClaimRejection::BadTicket),
                    2 => Some(ClaimRejection::ConstraintFailed),
                    3 => Some(ClaimRejection::CustomerConstraintFailed),
                    4 => Some(ClaimRejection::Busy),
                    k => return Err(ProtocolError::BadFrame(format!("bad rejection {k}"))),
                };
                Message::ClaimReply(ClaimResponse {
                    accepted,
                    rejection,
                    provider_ad: r.ad()?,
                })
            }
            tag::RELEASE => Message::Release {
                ticket: Ticket::from_raw(r.u128()?),
            },
            tag::QUERY => {
                let kind = match r.u8()? {
                    0 => None,
                    1 => Some(EntityKind::Provider),
                    2 => Some(EntityKind::Customer),
                    k => return Err(ProtocolError::BadFrame(format!("bad query kind {k}"))),
                };
                let constraint = r.string()?;
                let n = r.u32()? as usize;
                if n > 1024 {
                    return Err(ProtocolError::BadFrame(format!("projection of {n} attrs")));
                }
                let mut projection = Vec::with_capacity(n);
                for _ in 0..n {
                    projection.push(r.string()?);
                }
                Message::Query {
                    constraint,
                    kind,
                    projection,
                }
            }
            tag::QUERY_REPLY => {
                let n = r.u32()? as usize;
                if n > 1_000_000 {
                    return Err(ProtocolError::BadFrame(format!("reply of {n} ads")));
                }
                let mut ads = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ads.push(r.ad()?);
                }
                Message::QueryReply { ads }
            }
            tag::ERROR => Message::Error {
                detail: r.string()?,
            },
            tag::ELECTION_BID => Message::ElectionBid {
                epoch: r.u64()?,
                candidate: r.string()?,
            },
            tag::LEADER_LEASE => Message::LeaderLease {
                epoch: r.u64()?,
                leader: r.string()?,
                expires_at: r.u64()?,
            },
            tag::FLOCK_QUERY => Message::FlockQuery {
                origin: r.string()?,
                members: r.u32()?,
                rep: r.ad()?,
            },
            tag::FLOCK_OFFER => {
                let pool = r.string()?;
                let grant = match r.u8()? {
                    0 => None,
                    1 => {
                        let kind = match r.u8()? {
                            0 => EntityKind::Provider,
                            1 => EntityKind::Customer,
                            k => {
                                return Err(ProtocolError::BadFrame(format!("bad entity kind {k}")))
                            }
                        };
                        Some(Advertisement {
                            kind,
                            ad: r.ad()?,
                            contact: r.string()?,
                            ticket: r.opt_ticket()?,
                            expires_at: r.u64()?,
                        })
                    }
                    k => return Err(ProtocolError::BadFrame(format!("bad grant flag {k}"))),
                };
                Message::FlockOffer { pool, grant }
            }
            other => return Err(ProtocolError::BadFrame(format!("unknown tag {other}"))),
        };
        let trace = if tag_carries_trace(tag) && r.buf.has_remaining() {
            match r.u8()? {
                0 => None,
                1 => {
                    let trace_id = r.u64()?;
                    let parent_span_id = r.u64()?;
                    Some(TraceContext {
                        trace_id,
                        parent_span_id,
                    })
                }
                other => return Err(ProtocolError::BadFrame(format!("bad trace marker {other}"))),
            }
        } else {
            None
        };
        if r.buf.has_remaining() {
            return Err(ProtocolError::BadFrame(format!(
                "{} trailing bytes",
                r.buf.remaining()
            )));
        }
        Ok((msg, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{attr_is, Collection};
    use classad::parse_classad;
    use std::sync::Arc;

    fn sample_ad() -> ClassAd {
        parse_classad(
            r#"[ Name = "leonardo"; Type = "Machine"; Memory = 64;
                Constraint = other.Type == "Job"; Rank = 0 ]"#,
        )
        .unwrap()
    }

    fn sample_adv() -> Advertisement {
        Advertisement {
            kind: EntityKind::Provider,
            ad: sample_ad(),
            contact: "leonardo.cs.wisc.edu:9614".into(),
            ticket: Some(Ticket::from_raw(0xDEAD_BEEF)),
            expires_at: 1000,
        }
    }

    #[test]
    fn validation_accepts_conforming_ad() {
        let proto = AdvertisingProtocol::default();
        assert_eq!(proto.validate(&sample_adv(), 10), Ok(()));
    }

    #[test]
    fn validation_requires_name() {
        let proto = AdvertisingProtocol::default();
        let mut adv = sample_adv();
        adv.ad.remove("Name");
        assert_eq!(
            proto.validate(&adv, 10),
            Err(ProtocolError::MissingAttribute("Name".into()))
        );
    }

    #[test]
    fn validation_requires_constraint_by_either_spelling() {
        let proto = AdvertisingProtocol::default();
        let mut adv = sample_adv();
        adv.ad.remove("Constraint");
        assert!(matches!(
            proto.validate(&adv, 10),
            Err(ProtocolError::MissingAttribute(_))
        ));
        adv.ad.set("Requirements", classad::Expr::bool(true));
        assert_eq!(proto.validate(&adv, 10), Ok(()));
    }

    #[test]
    fn validation_requires_contact_and_lease() {
        let proto = AdvertisingProtocol::default();
        let mut adv = sample_adv();
        adv.contact.clear();
        assert_eq!(proto.validate(&adv, 10), Err(ProtocolError::MissingContact));
        let mut adv = sample_adv();
        adv.expires_at = 10;
        assert_eq!(proto.validate(&adv, 10), Err(ProtocolError::AlreadyExpired));
    }

    #[test]
    fn advertise_roundtrips() {
        let msg = Message::Advertise(sample_adv());
        let bytes = msg.encode();
        assert_eq!(Message::decode(bytes).unwrap(), msg);
    }

    #[test]
    fn decoded_ads_share_one_policy_tree() {
        let decode = |name: &str| {
            let mut adv = sample_adv();
            adv.ad.set_str("Name", name);
            let Ok(Message::Advertise(back)) = Message::decode(Message::Advertise(adv).encode())
            else {
                panic!("advertise did not round-trip");
            };
            back.ad
        };
        let a = decode("leonardo");
        let b = decode("raphael");
        let tree = |ad: &ClassAd| Arc::clone(ad.get("Constraint").unwrap());
        assert!(
            Arc::ptr_eq(&tree(&a), &tree(&b)),
            "one Constraint text, one parsed tree"
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.names().zip(b.names()) {
            assert_eq!(x.as_str(), y.as_str());
            assert_eq!(
                x.as_str().as_ptr(),
                y.as_str().as_ptr(),
                "one spelling of `{x}`, one allocation"
            );
        }
    }

    /// Invalid UTF-8 in an ad or a string field is rejected with the
    /// decoder's `Utf8Error` text, whether the field is read in place or
    /// copied out.
    #[test]
    fn invalid_utf8_fields_are_bad_frames() {
        let frame = |tag: u8, field: &[u8]| {
            let mut buf = BytesMut::new();
            buf.put_u8(tag);
            if tag == tag::ADVERTISE {
                buf.put_u8(0);
            }
            buf.put_u32(field.len() as u32);
            buf.put_slice(field);
            buf.freeze()
        };
        let cases: [(u8, &[u8], &str); 4] = [
            (
                tag::ADVERTISE,
                b"{\"A\":\"\xff\"}",
                "invalid utf-8: invalid utf-8 sequence of 1 bytes from index 6",
            ),
            (
                tag::ADVERTISE,
                b"{\"A\":\"\xe2\x88",
                "invalid utf-8: incomplete utf-8 byte sequence from index 6",
            ),
            (
                tag::ERROR,
                b"detail \xc3\x28",
                "invalid utf-8: invalid utf-8 sequence of 1 bytes from index 7",
            ),
            (
                tag::ERROR,
                b"\xf0\x9f\x98",
                "invalid utf-8: incomplete utf-8 byte sequence from index 0",
            ),
        ];
        for (t, field, want) in cases {
            match Message::decode(frame(t, field)) {
                Err(ProtocolError::BadFrame(m)) => assert_eq!(m, want, "tag {t}"),
                other => panic!("tag {t}: expected BadFrame, got {other:?}"),
            }
        }
    }

    #[test]
    fn notify_roundtrips() {
        let msg = Message::Notify(MatchNotification {
            own_ad: sample_ad(),
            peer_ad: parse_classad("[ Name = \"job-1\"; Constraint = true ]").unwrap(),
            peer_contact: "ca.cs.wisc.edu:1234".into(),
            ticket: None,
        });
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn notify_frames_from_encoded_ads_equal_encoding_the_message() {
        use crate::framing::{encode_framed_traced, frame_body};
        let (own, peer) = (
            sample_ad(),
            parse_classad(r#"[ Name = "job-1"; Note = "a \"quoted\" word" ]"#).unwrap(),
        );
        let ctx = TraceContext {
            trace_id: 0xABCD,
            parent_span_id: 0x1234,
        };
        for ticket in [None, Some(Ticket::from_raw(u128::MAX - 7))] {
            for trace in [None, Some(&ctx)] {
                let msg = Message::Notify(MatchNotification {
                    own_ad: own.clone(),
                    peer_ad: peer.clone(),
                    peer_contact: "ca.cs.wisc.edu:1234".into(),
                    ticket,
                });
                let body = encode_notify(
                    &to_json(&own),
                    &to_json(&peer),
                    "ca.cs.wisc.edu:1234",
                    ticket,
                    trace,
                );
                assert_eq!(frame_body(&body), encode_framed_traced(&msg, trace));
            }
        }
    }

    #[test]
    fn claim_and_reply_roundtrip() {
        let claim = Message::Claim(ClaimRequest {
            ticket: Ticket::from_raw(42),
            customer_ad: sample_ad(),
            customer_contact: "ca:1".into(),
        });
        assert_eq!(Message::decode(claim.encode()).unwrap(), claim);
        for rejection in [
            None,
            Some(ClaimRejection::BadTicket),
            Some(ClaimRejection::ConstraintFailed),
            Some(ClaimRejection::CustomerConstraintFailed),
            Some(ClaimRejection::Busy),
        ] {
            let reply = Message::ClaimReply(ClaimResponse {
                accepted: rejection.is_none(),
                rejection,
                provider_ad: sample_ad(),
            });
            assert_eq!(Message::decode(reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn release_roundtrips() {
        let msg = Message::Release {
            ticket: Ticket::from_raw(7),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn query_and_reply_roundtrip() {
        let q = Message::Query {
            constraint: r#"other.Arch == "INTEL" && other.Memory >= 64"#.into(),
            kind: Some(EntityKind::Provider),
            projection: vec!["Name".into(), "Mips".into()],
        };
        assert_eq!(Message::decode(q.encode()).unwrap(), q);
        let q = Message::Query {
            constraint: "true".into(),
            kind: None,
            projection: vec![],
        };
        assert_eq!(Message::decode(q.encode()).unwrap(), q);
        let reply = Message::QueryReply {
            ads: vec![sample_ad(), parse_classad("[ x = 1 ]").unwrap()],
        };
        assert_eq!(Message::decode(reply.encode()).unwrap(), reply);
        let empty = Message::QueryReply { ads: vec![] };
        assert_eq!(Message::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn error_roundtrips() {
        let msg = Message::Error {
            detail: "malformed frame: unknown tag 99".into(),
        };
        assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
        let empty = Message::Error {
            detail: String::new(),
        };
        assert_eq!(Message::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn election_messages_roundtrip() {
        let bid = Message::ElectionBid {
            epoch: 7,
            candidate: "127.0.0.1:9614".into(),
        };
        assert_eq!(Message::decode(bid.encode()).unwrap(), bid);
        let lease = Message::LeaderLease {
            epoch: 7,
            leader: "127.0.0.1:9614".into(),
            expires_at: 1_700_000_000,
        };
        assert_eq!(Message::decode(lease.encode()).unwrap(), lease);
    }

    #[test]
    fn election_tags_never_carry_trace_trailers() {
        // Elections are pool-control traffic, not part of any match's
        // causal chain — like Query/Release they stay trailer-free.
        let ctx = TraceContext {
            trace_id: 1,
            parent_span_id: 2,
        };
        let bid = Message::ElectionBid {
            epoch: 1,
            candidate: "mm:1".into(),
        };
        assert_eq!(bid.encode(), bid.encode_traced(Some(&ctx)));
        let lease = Message::LeaderLease {
            epoch: 1,
            leader: "mm:1".into(),
            expires_at: 99,
        };
        assert_eq!(lease.encode(), lease.encode_traced(Some(&ctx)));
        // Trailing bytes after an election frame are rejected, not
        // misparsed as a trailer.
        let mut bytes = bid.encode().to_vec();
        bytes.push(1);
        assert!(Message::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn pre_ha_peers_reject_election_tags_cleanly() {
        // An old decoder sees tags 11/12 as unknown and raises BadFrame
        // (its daemon replies with a structured Error), which bidders
        // interpret as a concession from a pre-HA peer.
        let bid = Message::ElectionBid {
            epoch: 1,
            candidate: "mm:1".into(),
        };
        assert_eq!(bid.encode()[0], tag::ELECTION_BID);
        let lease = Message::LeaderLease {
            epoch: 1,
            leader: "mm:1".into(),
            expires_at: 99,
        };
        assert_eq!(lease.encode()[0], tag::LEADER_LEASE);
    }

    fn sample_message_for(t: u8) -> Message {
        match t {
            tag::ADVERTISE => Message::Advertise(sample_adv()),
            tag::NOTIFY => Message::Notify(MatchNotification {
                own_ad: sample_ad(),
                peer_ad: sample_ad(),
                peer_contact: "ca:1".into(),
                ticket: Some(Ticket::from_raw(3)),
            }),
            tag::CLAIM => Message::Claim(ClaimRequest {
                ticket: Ticket::from_raw(42),
                customer_ad: sample_ad(),
                customer_contact: "ca:1".into(),
            }),
            tag::CLAIM_REPLY => Message::ClaimReply(ClaimResponse {
                accepted: false,
                rejection: Some(ClaimRejection::Busy),
                provider_ad: sample_ad(),
            }),
            tag::RELEASE => Message::Release {
                ticket: Ticket::from_raw(7),
            },
            tag::QUERY => Message::Query {
                constraint: "other.Mips > 10".into(),
                kind: Some(EntityKind::Customer),
                projection: vec!["Name".into()],
            },
            tag::QUERY_REPLY => Message::QueryReply {
                ads: vec![sample_ad()],
            },
            tag::ERROR => Message::Error {
                detail: "nope".into(),
            },
            tag::ELECTION_BID => Message::ElectionBid {
                epoch: 9,
                candidate: "mm:1".into(),
            },
            tag::LEADER_LEASE => Message::LeaderLease {
                epoch: 9,
                leader: "mm:1".into(),
                expires_at: 1_700_000_000,
            },
            tag::FLOCK_QUERY => Message::FlockQuery {
                origin: "127.0.0.1:9614".into(),
                members: 12,
                rep: sample_ad(),
            },
            tag::FLOCK_OFFER => Message::FlockOffer {
                pool: "127.0.0.1:9615".into(),
                grant: Some(sample_adv()),
            },
            other => panic!("no sample message for tag {other}"),
        }
    }

    #[test]
    fn every_assigned_tag_round_trips_through_encode_decode() {
        // Exhaustive over the tag space: a new Message variant cannot ship
        // without registering in tag::ALL and round-tripping here.
        assert!(tag::ALL.windows(2).all(|w| w[0] < w[1]), "tags ascend");
        for &t in &tag::ALL {
            let msg = sample_message_for(t);
            let bytes = msg.encode();
            assert_eq!(bytes[0], t, "first frame byte is the tag");
            assert_eq!(Message::decode(bytes).unwrap(), msg);
        }
        // Tag 0 stays unassigned: a zeroed frame must fail, not parse.
        assert!(Message::decode(Bytes::from_static(&[0])).is_err());
        let next_free = *tag::ALL.iter().max().unwrap() + 1;
        assert!(Message::decode(Bytes::from(vec![next_free])).is_err());
    }

    #[test]
    fn flock_messages_roundtrip() {
        let query = Message::FlockQuery {
            origin: "127.0.0.1:9614".into(),
            members: 3,
            rep: parse_classad(
                r#"[ Name = "job-1"; Type = "Job"; FlockHops = 2;
                     FlockVisited = "127.0.0.1:9614";
                     Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
            )
            .unwrap(),
        };
        assert_eq!(Message::decode(query.encode()).unwrap(), query);
        // A grant carries the provider's full advertisement — contact and
        // delegation ticket included — so the origin pool's customer can
        // claim directly.
        let offer = Message::FlockOffer {
            pool: "127.0.0.1:9615".into(),
            grant: Some(sample_adv()),
        };
        assert_eq!(Message::decode(offer.encode()).unwrap(), offer);
        // And a healthy "no resource free" answer is an empty grant.
        let dry = Message::FlockOffer {
            pool: "127.0.0.1:9615".into(),
            grant: None,
        };
        assert_eq!(Message::decode(dry.encode()).unwrap(), dry);
    }

    #[test]
    fn flock_tags_carry_trace_trailers() {
        // Cross-pool matches must stitch into one span tree, so flock
        // frames carry the same optional trailer as the lifecycle tags.
        let ctx = TraceContext {
            trace_id: 0xFACE,
            parent_span_id: 0xB00C,
        };
        for t in [tag::FLOCK_QUERY, tag::FLOCK_OFFER] {
            let msg = sample_message_for(t);
            let (back, trace) = Message::decode_traced(msg.encode_traced(Some(&ctx))).unwrap();
            assert_eq!(back, msg);
            assert_eq!(trace, Some(ctx));
            // Traceless flock frames stay trailer-free and decode with None.
            let (_, none) = Message::decode_traced(msg.encode()).unwrap();
            assert_eq!(none, None);
        }
    }

    #[test]
    fn pre_flock_peers_reject_the_tags_cleanly() {
        // An old decoder sees tags 13/14 as unknown and raises BadFrame;
        // its daemon replies with a structured Error (`unknown tag 13`),
        // which the flock manager reads as "peer does not flock".
        let query = sample_message_for(tag::FLOCK_QUERY);
        assert_eq!(query.encode()[0], tag::FLOCK_QUERY);
        let err = match Message::decode(Bytes::from_static(&[29])) {
            Err(ProtocolError::BadFrame(m)) => m,
            other => panic!("expected BadFrame, got {other:?}"),
        };
        assert!(err.contains("unknown tag 29"), "{err}");
    }

    /// A `Query` of `collection` and a reply of `ads` round-trip, stay
    /// trailer-free with a trace context in hand, and reject a stray byte
    /// instead of misparsing it as a trailer.
    fn assert_collection_exchange(collection: Collection, conjunct: &str, ads: Vec<ClassAd>) {
        let q = Message::Query {
            constraint: collection.constraint(&[conjunct]),
            kind: None,
            projection: vec![],
        };
        let reply = Message::QueryReply { ads };
        let ctx = TraceContext {
            trace_id: 1,
            parent_span_id: 2,
        };
        for msg in [q, reply] {
            assert_eq!(Message::decode(msg.encode()).unwrap(), msg);
            assert_eq!(msg.encode(), msg.encode_traced(Some(&ctx)));
            let mut bytes = msg.encode().to_vec();
            bytes.push(1);
            assert!(Message::decode(Bytes::from(bytes)).is_err());
        }
    }

    fn collection_ad(collection: Collection, extra: &str) -> ClassAd {
        let mut ad = parse_classad(&format!("[ {extra} ]")).unwrap();
        ad.set_str("MyType", collection.my_type());
        ad
    }

    #[test]
    fn analyze_and_reply_roundtrip() {
        let ad = collection_ad(
            Collection::MatchAnalysis,
            r#"Name = "job-17"; Found = false"#,
        );
        assert_collection_exchange(
            Collection::MatchAnalysis,
            &attr_is("Name", "job-17"),
            vec![ad],
        );
    }

    #[test]
    fn analyze_tags_never_carry_trace_trailers() {
        // A name with quotes travels inside the constraint string intact.
        let conjunct = attr_is("Name", r#"j" || true"#);
        assert_collection_exchange(Collection::MatchAnalysis, &conjunct, vec![]);
    }

    #[test]
    fn history_messages_roundtrip() {
        let ad = collection_ad(Collection::HistorySeries, r#"Metric = "Utilization""#);
        let conjunct = r#"other.Metric == "Utilization" && other.Tier == 0"#;
        assert_collection_exchange(Collection::HistorySeries, conjunct, vec![ad, sample_ad()]);
    }

    #[test]
    fn history_tags_never_carry_trace_trailers() {
        assert_collection_exchange(Collection::HistorySeries, "true", vec![]);
    }

    #[test]
    fn alert_messages_roundtrip() {
        let ad = collection_ad(Collection::AlertState, r#"Rule = "MatchmakerDown""#);
        let conjunct = r#"other.State == "firing" && other.Severity == "critical""#;
        assert_collection_exchange(Collection::AlertState, conjunct, vec![ad, sample_ad()]);
    }

    #[test]
    fn alert_tags_never_carry_trace_trailers() {
        assert_collection_exchange(Collection::AlertState, "true", vec![]);
    }

    /// Each retired tag decodes as unknown — a `BadFrame` the daemon turns
    /// into a structured `Error` — and none is in `tag::ALL`.
    fn assert_retired(tags: &[u8]) {
        for &t in tags {
            assert!(!tag::ALL.contains(&t), "tag {t} is retired");
            match Message::decode(Bytes::from(vec![t, 0, 0, 0, 0])) {
                Err(ProtocolError::BadFrame(m)) => assert_eq!(m, format!("unknown tag {t}")),
                other => panic!("tag {t}: expected BadFrame, got {other:?}"),
            }
        }
    }

    #[test]
    fn pre_analyze_peers_reject_the_tag_cleanly() {
        // Tags 9/10 are retired (match analysis is the `MatchAnalysis`
        // query collection): every decoder now treats them the way a
        // pre-analysis peer did.
        assert_retired(&[9, 10]);
    }

    #[test]
    fn pre_view_peers_reject_the_history_tags_cleanly() {
        // Tags 15/16 are retired (pool history is the `HistorySeries`
        // query collection).
        assert_retired(&[15, 16]);
    }

    #[test]
    fn pre_alarm_peers_reject_the_alert_tags_cleanly() {
        // Tags 17/18 are retired (alert state is the `AlertState` query
        // collection).
        assert_retired(&[17, 18]);
    }

    #[test]
    fn socket_contact_enforced_when_required() {
        let proto = AdvertisingProtocol {
            require_socket_contact: true,
            ..Default::default()
        };
        let mut adv = sample_adv();
        adv.contact = "127.0.0.1:9614".into();
        assert_eq!(proto.validate(&adv, 10), Ok(()));
        adv.contact = "leonardo".into(); // no port
        assert_eq!(
            proto.validate(&adv, 10),
            Err(ProtocolError::BadContact("leonardo".into()))
        );
        // The default protocol keeps accepting symbolic contacts.
        let lax = AdvertisingProtocol::default();
        assert_eq!(lax.validate(&adv, 10), Ok(()));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(Bytes::from_static(&[])).is_err());
        assert!(Message::decode(Bytes::from_static(&[99])).is_err());
        assert!(Message::decode(Bytes::from_static(&[tag::RELEASE, 1, 2])).is_err());
        // Trailing bytes after a valid message.
        let mut good = Message::Release {
            ticket: Ticket::from_raw(7),
        }
        .encode()
        .to_vec();
        good.push(0);
        assert!(Message::decode(Bytes::from(good)).is_err());
    }

    #[test]
    fn trace_trailer_roundtrips_on_lifecycle_tags() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            parent_span_id: 0x99AA_BBCC_DDEE_FF00,
        };
        let messages = vec![
            Message::Advertise(sample_adv()),
            Message::Notify(MatchNotification {
                own_ad: sample_ad(),
                peer_ad: sample_ad(),
                peer_contact: "ca:1".into(),
                ticket: None,
            }),
            Message::Claim(ClaimRequest {
                ticket: Ticket::from_raw(42),
                customer_ad: sample_ad(),
                customer_contact: "ca:1".into(),
            }),
            Message::ClaimReply(ClaimResponse {
                accepted: true,
                rejection: None,
                provider_ad: sample_ad(),
            }),
            Message::Error {
                detail: "no".into(),
            },
        ];
        for msg in messages {
            let bytes = msg.encode_traced(Some(&ctx));
            let (back, trace) = Message::decode_traced(bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(trace, Some(ctx));
        }
    }

    #[test]
    fn traceless_frames_are_byte_identical_to_the_old_format() {
        // Backward compatibility hinges on this: an encoder with no
        // context emits exactly what a pre-tracing peer would.
        let msg = Message::Advertise(sample_adv());
        assert_eq!(msg.encode(), msg.encode_traced(None));
        // And a trailer-free frame decodes with no context.
        let (back, trace) = Message::decode_traced(msg.encode()).unwrap();
        assert_eq!(back, msg);
        assert_eq!(trace, None);
    }

    #[test]
    fn explicit_zero_marker_means_no_trace() {
        let mut bytes = Message::Error { detail: "x".into() }.encode().to_vec();
        bytes.push(0);
        let (_, trace) = Message::decode_traced(Bytes::from(bytes)).unwrap();
        assert_eq!(trace, None);
    }

    #[test]
    fn trace_trailer_is_ignored_on_non_lifecycle_tags() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span_id: 2,
        };
        let q = Message::Query {
            constraint: "true".into(),
            kind: None,
            projection: vec![],
        };
        assert_eq!(q.encode(), q.encode_traced(Some(&ctx)));
        let rel = Message::Release {
            ticket: Ticket::from_raw(7),
        };
        assert_eq!(rel.encode(), rel.encode_traced(Some(&ctx)));
    }

    #[test]
    fn truncated_or_bad_trace_trailer_is_rejected() {
        let base = Message::Error { detail: "x".into() }.encode().to_vec();
        // Marker says "context follows" but the ids are missing.
        let mut truncated = base.clone();
        truncated.push(1);
        truncated.extend_from_slice(&[0; 4]);
        assert!(Message::decode(Bytes::from(truncated)).is_err());
        // Unknown marker value.
        let mut bad_marker = base.clone();
        bad_marker.push(9);
        assert!(Message::decode(Bytes::from(bad_marker)).is_err());
        // Full trailer plus junk after it.
        let mut overlong = base;
        overlong.push(1);
        overlong.extend_from_slice(&[0; 16]);
        overlong.push(7);
        assert!(Message::decode(Bytes::from(overlong)).is_err());
    }

    #[test]
    fn computed_expressions_survive_framing() {
        // Constraint/Rank are computed expressions; framing must not
        // flatten them to values.
        let msg = Message::Advertise(sample_adv());
        let Message::Advertise(back) = Message::decode(msg.encode()).unwrap() else {
            panic!()
        };
        let c = back.ad.get("Constraint").unwrap();
        assert_eq!(c.to_string(), "other.Type == \"Job\"");
    }

    #[test]
    fn error_display() {
        assert!(ProtocolError::MissingAttribute("X".into())
            .to_string()
            .contains('X'));
        assert!(ClaimRejection::BadTicket.to_string().contains("ticket"));
        assert_eq!(EntityKind::Provider.to_string(), "provider");
    }
}
