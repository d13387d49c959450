//! # matchmaker — the matchmaking framework
//!
//! The paper's primary contribution (Raman, Livny & Solomon, HPDC 1998):
//! a resource-management architecture for distributively owned pools, built
//! on the `classad` language. The framework's five components map to this
//! crate as follows:
//!
//! | paper component | module |
//! |-----------------|--------|
//! | 1. classad specification | the [`classad`] crate |
//! | 2. advertising protocol | [`protocol`] ([`AdvertisingProtocol`]), [`admanager`] |
//! | 3. matchmaking algorithm | [`matcher`], [`autocluster`], [`negotiate`], [`priority`] |
//! | 4. matchmaking protocol | [`protocol`] ([`MatchNotification`]) |
//! | 5. claiming protocol | [`protocol`], [`claim`], [`ticket`], [`agent`] |
//!
//! One-way queries (status tools) live in [`query`].
//!
//! ## The shape of the system
//!
//! The matchmaker is deliberately *stateless with respect to matches*: its
//! only state is a soft-state [`admanager::AdStore`] of leased
//! advertisements. A match is "a mutual introduction of the two entities"
//! — a hint — and the entities run the claiming protocol directly between
//! themselves, re-verifying constraints against current state
//! ([`claim::ClaimHandler`]). This tolerance of weak consistency is what
//! makes the design robust and scalable.
//!
//! ```
//! use matchmaker::prelude::*;
//! use classad::parse_classad;
//!
//! let proto = AdvertisingProtocol::default();
//! let mut store = AdStore::new();
//! store.advertise(Advertisement {
//!     kind: EntityKind::Provider,
//!     ad: parse_classad(r#"[ Name = "leonardo"; Type = "Machine"; Mips = 104;
//!                           Constraint = other.Type == "Job"; Rank = 0 ]"#).unwrap(),
//!     contact: "leonardo:9614".into(),
//!     ticket: None,
//!     expires_at: 600,
//! }, 0, &proto).unwrap();
//! store.advertise(Advertisement {
//!     kind: EntityKind::Customer,
//!     ad: parse_classad(r#"[ Name = "job-1"; Type = "Job"; Owner = "raman";
//!                           Constraint = other.Type == "Machine";
//!                           Rank = other.Mips ]"#).unwrap(),
//!     contact: "raman-ca:1".into(),
//!     ticket: None,
//!     expires_at: 600,
//! }, 0, &proto).unwrap();
//!
//! let mut negotiator = Negotiator::default();
//! let outcome = negotiator.negotiate(&store, 0);
//! assert_eq!(outcome.stats.matches, 1);
//! assert_eq!(outcome.matches[0].offer_name, "leonardo");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admanager;
pub mod agent;
pub mod autocluster;
pub mod claim;
pub mod framing;
pub mod matcher;
pub mod negotiate;
pub mod priority;
pub mod protocol;
pub mod query;
pub mod retry;
pub mod service;
pub mod ticket;

pub use admanager::{AdStore, StoreSnapshot, StoredAd};
pub use autocluster::{Clustering, MatchList, OfferMeta};
pub use claim::{ClaimHandler, ClaimState};
pub use framing::{encode_framed, frame_body, FrameDecoder, MAX_FRAME_LEN};
pub use matcher::{Candidate, MatchEngine};
pub use negotiate::{
    ClusterRejections, CycleOutcome, CycleStats, MatchRecord, Negotiator, NegotiatorConfig,
    RejectionTable, UnmatchedCluster,
};
pub use priority::{PriorityConfig, PriorityTracker};
pub use protocol::{
    Advertisement, AdvertisingProtocol, ClaimRejection, ClaimRequest, ClaimResponse, EntityKind,
    MatchNotification, Message, ProtocolError, Timestamp,
};
pub use query::Query;
pub use retry::Backoff;
pub use service::{FrameRejection, Matchmaker, ServiceStats, StatsSnapshot};
pub use ticket::{Ticket, TicketIssuer};

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::admanager::{AdStore, StoredAd};
    pub use crate::claim::{ClaimHandler, ClaimState};
    pub use crate::matcher::MatchEngine;
    pub use crate::negotiate::{Negotiator, NegotiatorConfig};
    pub use crate::priority::{PriorityConfig, PriorityTracker};
    pub use crate::protocol::{
        Advertisement, AdvertisingProtocol, ClaimRequest, ClaimResponse, EntityKind,
        MatchNotification, Message, Timestamp,
    };
    pub use crate::query::Query;
    pub use crate::service::Matchmaker;
    pub use crate::ticket::{Ticket, TicketIssuer};
}
