//! CondorView-style pool history: multi-resolution time series over the
//! matchmaking pool, queryable as classads.
//!
//! The paper's protocols keep only the *present*: the ad store holds the
//! current offers, requests, and daemon self-ads, and a lease expiry
//! erases a machine as if it never advertised. This crate adds the
//! *past* — the CondorView layer of the Condor ecosystem — without
//! changing any of that weak-consistency machinery:
//!
//! * [`HistoryStore`] keeps every metric at several resolutions at once
//!   (by default 10 s × 360, 1 m × 360, 10 m × 432 ring buffers).
//!   Counters are stored as per-bucket deltas so a series integrates
//!   exactly back to the live counter; gauges keep min/avg/max/last.
//!   Departed sources leave **absent tombstones**, so history can tell a
//!   machine that left the pool from one that is merely unreachable.
//! * [`Collector`] feeds the store from daemon self-ads polled through
//!   the ordinary `Query` path (pool utilization, match and flock rates,
//!   leader epochs, per-daemon gauges) and from tailed journal events,
//!   and checkpoints the whole store into a `condor-obs` journal so a
//!   restart loses at most one sample interval.
//! * Queries keep the "stats are just ads" philosophy: each (series,
//!   tier) renders as a `HistorySeries` classad ([`HistoryStore::series_ads`]),
//!   an ordinary constraint expression selects among them, and the
//!   samples travel as attributes of the matching ads — over the wire as
//!   the `HistorySeries` collection of the matchmaker's `Query`
//!   (`docs/protocol.md` §6, §15). [`keep_newest`] cuts a series ad to
//!   its newest points for display.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collect;
pub mod store;

pub use collect::{metric, Collector, Resumption, LOCAL_POOL, POOL_SOURCE};
pub use store::{
    keep_newest, Bucket, HistoryConfig, HistoryStore, RecentWindow, SeriesKey, SeriesKind,
    TierSpec, SERIES_AD_TYPE,
};
