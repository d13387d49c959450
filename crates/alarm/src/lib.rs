//! # condor-alarm — ClassAd-native alerting
//!
//! The paper's central claim is that one constraint language can describe
//! both sides of every policy decision. PRs 3–9 made all pool telemetry
//! *classads* — daemon self-ads, match analyses, history series-ads — and
//! this crate closes the loop: alert rules are themselves ordinary
//! classads whose `Constraint` is continuously matched against that
//! telemetry, the same bilateral evaluation the negotiator performs.
//! DeWitt/Robinson's "Turning Cluster Management into Data Management"
//! frames exactly this as *standing queries over management data*.
//!
//! ## The pieces
//!
//! * [`Rule`] — a validated alert rule parsed from a rule ad
//!   (`AlertRuleAd = true` with `Name`, `Severity`, an optional
//!   `Subjects` selector, the alert `Constraint`, and the hysteresis
//!   knobs `ForIntervals` / `ClearIntervals`).
//! * [`default_pack`] — the built-in rules every monitored pool starts
//!   with: matchmaker down, agent absent, utilization collapse,
//!   match-rate stall, lease-expiry storm, flock peer flapping.
//! * [`Monitor`] — the evaluation engine: each sweep it matches every
//!   rule against every telemetry ad, runs the per-(rule, subject)
//!   hysteresis state machine (hold-to-fire, hold-to-clear, flap
//!   suppression), and reports raise/clear [`Transition`]s. While a rule
//!   is *not* firing the monitor traces the evaluation with
//!   `classad::analyze`, so when it finally fires the transition names
//!   the conjunct that tripped — the clause that was holding the rule
//!   back the sweep before.
//! * [`view_telemetry`] — bridges `condor-view`'s history store into
//!   telemetry ads: per-source presence ads (deadman tombstone tails)
//!   and per-series history summaries (rate-of-change, integral, mean),
//!   so rules can predicate on history without touching ring buffers.
//!
//! The monitor owns no sockets, no clock, and no journal: the embedding
//! daemon (`condor-pool`'s `mm-alarm` thread) supplies telemetry each
//! interval, journals the transitions as `AlertRaised` / `AlertCleared`
//! events, and serves [`Monitor::state_ads`] as the `AlertState`
//! collection of its `Query`. See `docs/observability.md` §7.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod monitor;
pub mod rule;
pub mod telemetry;

pub use monitor::{Monitor, MonitorConfig, Transition};
pub use rule::{default_pack, severity_rank, Rule, ALERT_AD_TYPE, RULE_AD_MARKER};
pub use telemetry::{view_telemetry, HISTORY_SUMMARY_AD_TYPE, PRESENCE_AD_TYPE};
