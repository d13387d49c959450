//! The shared metric-name schema.
//!
//! One set of names, three reporters: the live daemons (`condor-pool`),
//! the negotiator bridge (`matchmaker::service::record_cycle`), and the
//! simulator's metrics export (`condor-sim`). Keeping the names here —
//! rather than as string literals at each call site — is what makes "sim
//! and live pool report through one schema" a compiler-checked property
//! instead of a convention.
//!
//! Names are `snake_case`; they surface in self-ads as PascalCase
//! attributes (see [`crate::selfad::attr_name`]): `cycles` → `Cycles`,
//! `claims_accepted` → `ClaimsAccepted`.

/// `MyType` value of the matchmaker daemon's self-ad.
pub const MATCHMAKER_STATS: &str = "MatchmakerStats";
/// `MyType` value of a resource agent's self-ad.
pub const RESOURCE_AGENT_STATS: &str = "ResourceAgentStats";
/// `MyType` value of a customer agent's self-ad.
pub const CUSTOMER_AGENT_STATS: &str = "CustomerAgentStats";
/// `MyType` value of a simulation run's stats ad.
pub const SIMULATOR_STATS: &str = "SimulatorStats";

// ---- negotiation (matchmaker + simulator) ----

/// Negotiation cycles run.
pub const CYCLES: &str = "cycles";
/// Matches produced over all cycles.
pub const MATCHES: &str = "matches_total";
/// Requests considered over all cycles.
pub const REQUESTS_CONSIDERED: &str = "requests_considered_total";
/// Requests that found no compatible offer, over all cycles.
pub const UNMATCHED_REQUESTS: &str = "unmatched_requests_total";
/// Matches that preempt a running claim, over all cycles.
pub const PREEMPTIONS: &str = "preemptions_total";
/// Request equivalence classes formed by autoclustering, over all cycles.
pub const CLUSTERS_FORMED: &str = "clusters_formed_total";
/// Requests served from a cached cluster match list, over all cycles.
pub const MATCHLIST_HITS: &str = "matchlist_hits_total";
/// Full offer-pool scans, over all cycles.
pub const FULL_SCANS: &str = "full_scans_total";
/// Ads dropped by lease expiry, over all cycles.
pub const ADS_EXPIRED: &str = "ads_expired_total";
/// Provider ads whose cached state was (re)derived — the ads added or
/// changed between cycles — over all cycles (surfaces as
/// `DirtyResources`).
pub const DIRTY_RESOURCES: &str = "dirty_resources";
/// (cluster, offer) pairs scored by the incremental path, over all cycles
/// (surfaces as `PairsEvaluated`).
pub const PAIRS_EVALUATED: &str = "pairs_evaluated";
/// Cycles that reused cross-cycle cached state (surfaces as
/// `IncrementalCycles`).
pub const INCREMENTAL_CYCLES: &str = "incremental_cycles";
/// Last cycle: requests considered.
pub const LAST_CYCLE_REQUESTS: &str = "last_cycle_requests";
/// Last cycle: offers considered.
pub const LAST_CYCLE_OFFERS: &str = "last_cycle_offers";
/// Last cycle: matches produced.
pub const LAST_CYCLE_MATCHES: &str = "last_cycle_matches";
/// Last cycle: unmatched requests.
pub const LAST_CYCLE_UNMATCHED: &str = "last_cycle_unmatched";
/// Recent cycle wall-clock duration, milliseconds (windowed histogram).
pub const CYCLE_DURATION_MS: &str = "cycle_duration_ms";

// ---- match-failure attribution (matchmaker; populated only when the
// negotiator runs with attribution on) ----

/// Rejected (cluster, offer) pairings classified, over all cycles.
pub const REJECTED_PAIRINGS: &str = "rejected_pairings_total";
/// Rejections where a constraint evaluated to a definite `false`.
pub const REJECT_REQ_FALSE: &str = "reject_requirements_false_total";
/// Rejections where a constraint evaluated to `undefined`.
pub const REJECT_UNDEFINED: &str = "reject_undefined_attr_total";
/// Rejections where a constraint evaluated to `error`/non-boolean.
pub const REJECT_ERROR: &str = "reject_eval_error_total";
/// Rejections because the offer was claimed and not preemptible.
pub const REJECT_BUSY: &str = "reject_busy_total";
/// Rejections because the offer went to a competing request.
pub const REJECT_LOST_RANK: &str = "reject_lost_rank_total";
/// Last cycle: rejected pairings classified.
pub const LAST_CYCLE_REJECTED: &str = "last_cycle_rejected";

// ---- match-lifecycle phase timings (windowed histograms) ----
//
// Each daemon times the phases it can observe with its own monotonic
// clock; the trace assembler (`condor_obs::trace`) recomputes the same
// phases from cross-daemon journal timestamps. The two views should
// agree to within the histogram window and clock resolution.

/// Matchmaker: customer ad accepted → matched in a negotiation cycle.
pub const PHASE_QUEUE_WAIT_MS: &str = "phase_queue_wait_ms";
/// Matchmaker: cycle start → both match notifications dispatched.
pub const PHASE_NEGOTIATION_MS: &str = "phase_negotiation_ms";
/// Resource agent: notification seen → the customer's claim arrived.
pub const PHASE_NOTIFY_CLAIM_GAP_MS: &str = "phase_notify_claim_gap_ms";
/// Customer agent: claim dial → claim reply (round trip).
pub const PHASE_CLAIM_RTT_MS: &str = "phase_claim_rtt_ms";
/// Resource agent: claim re-verification (requirement re-evaluation).
pub const PHASE_REVERIFY_MS: &str = "phase_reverify_ms";

// ---- wire / daemon ----

/// Connections handed to a connection thread.
pub const CONNECTIONS_ACCEPTED: &str = "connections_accepted";
/// Connections served and closed on the accept thread: one-shot
/// advertisements, and connections closed before a whole frame.
pub const CONNECTIONS_INLINE: &str = "connections_inline";
/// Connections refused because the pool was full.
pub const CONNECTIONS_REFUSED: &str = "connections_refused";
/// Connections currently being served (gauge).
pub const ACTIVE_CONNECTIONS: &str = "active_connections";
/// Decoded frames dispatched to the service.
pub const FRAMES_HANDLED: &str = "frames_handled";
/// Frames refused (undecodable bytes or out-of-protocol messages).
pub const FRAMES_REJECTED: &str = "frames_rejected";
/// Structured error replies sent before closing a connection.
pub const ERROR_REPLIES: &str = "error_replies";
/// Match notifications delivered to contact addresses.
pub const NOTIFICATIONS_SENT: &str = "notifications_sent";
/// Notification dials that failed (soft state: costs one cycle).
pub const NOTIFICATIONS_FAILED: &str = "notifications_failed";
/// Frames decoded off the wire (all peers).
pub const FRAMES_IN: &str = "frames_in";
/// Frames written to the wire (all peers).
pub const FRAMES_OUT: &str = "frames_out";
/// Bytes read off the wire, framing included.
pub const BYTES_IN: &str = "bytes_in";
/// Bytes written to the wire, framing included.
pub const BYTES_OUT: &str = "bytes_out";
/// Journal events dropped because an append failed at the I/O layer.
pub const JOURNAL_DROPPED: &str = "journal_dropped";
/// Journal lines from a future (unknown) event kind, skipped-and-counted
/// during seq resume so newer writers stay replayable by older readers.
pub const JOURNAL_UNKNOWN_KIND: &str = "journal_unknown_kind";

// ---- high availability ----

/// Agent requests answered with a leader-redirect error while standing by.
pub const LEADER_REDIRECTS: &str = "leader_redirects";
/// Elections this daemon has won (inaugurations, including takeovers).
pub const ELECTIONS_WON: &str = "elections_won";
/// Ad-store checkpoints written into the journal.
pub const CHECKPOINTS_WRITTEN: &str = "checkpoints_written";
/// Times an agent switched matchmakers after a probe or redirect.
pub const MATCHMAKER_FAILOVERS: &str = "matchmaker_failovers";

// ---- flocking (cross-pool federation) ----

/// Flock queries this matchmaker sent to peer pools.
pub const FLOCK_QUERIES_SENT: &str = "flock_queries_sent";
/// Flock queries this matchmaker received from peer pools.
pub const FLOCK_QUERIES_RECEIVED: &str = "flock_queries_received";
/// Remote grants this matchmaker relayed to its own customers
/// (origin-side flocked matches).
pub const FLOCK_MATCHES: &str = "flock_matches";
/// Local providers this matchmaker granted to peer pools.
pub const FLOCK_GRANTS: &str = "flock_grants";
/// Inbound flock queries rejected (loop detected, hop budget exhausted,
/// or no compatible free provider).
pub const FLOCK_REJECTS: &str = "flock_rejects";
/// Peer matchmakers currently reachable (gauge).
pub const FLOCK_PEERS_UP: &str = "flock_peers_up";
/// Peer matchmakers currently failed or backing off (gauge).
pub const FLOCK_PEERS_DOWN: &str = "flock_peers_down";
/// Peer matchmakers marked pre-flock (rejected the tags) and skipped
/// permanently (gauge).
pub const FLOCK_PEERS_NON_FLOCKING: &str = "flock_peers_non_flocking";
/// Requests whose autocluster was served by a peer pool, over all cycles.
pub const JOBS_FLOCKED: &str = "jobs_flocked";

// ---- pool history (condor-view collector) ----

/// Self-ad batches the embedded view collector has ingested.
pub const VIEW_COLLECTIONS: &str = "view_collections";
/// Observations the view collector's history store has recorded.
pub const VIEW_SAMPLES: &str = "view_samples_total";
/// Time series the history store currently retains (gauge).
pub const VIEW_SERIES: &str = "view_series";

// ---- alerting (condor-alarm monitor) ----

/// Alert rules currently in the firing state (gauge; surfaces as
/// `ActiveAlerts`).
pub const ACTIVE_ALERTS: &str = "active_alerts";
/// Raise transitions the alarm monitor has journaled, over its lifetime
/// (surfaces as `AlertsRaisedTotal`).
pub const ALERTS_RAISED: &str = "alerts_raised_total";
/// Clear transitions the alarm monitor has journaled, over its lifetime
/// (surfaces as `AlertsClearedTotal`).
pub const ALERTS_CLEARED: &str = "alerts_cleared_total";
/// Alert rules the monitor is evaluating (gauge; default pack + extras).
pub const ALERT_RULES: &str = "alert_rules";
/// Raise/clear transitions swallowed by flap suppression, over the
/// monitor's lifetime.
pub const ALERT_FLAPS_SUPPRESSED: &str = "alert_flaps_suppressed_total";
/// Evaluation sweeps the alarm monitor has completed.
pub const ALERT_EVALUATIONS: &str = "alert_evaluations";

// ---- agents (live pool + simulator) ----

/// Advertisements delivered to the matchmaker.
pub const ADS_SENT: &str = "ads_sent";
/// Advertisement dials that exhausted their retry budget.
pub const AD_FAILURES: &str = "ad_failures";
/// Self-ads (daemon ads) published to the matchmaker.
pub const SELF_ADS_SENT: &str = "self_ads_sent";
/// Match notifications received.
pub const NOTIFICATIONS_SEEN: &str = "notifications_seen";
/// Claim attempts (customer side: dials; simulator: requests sent).
pub const CLAIM_ATTEMPTS: &str = "claim_attempts";
/// Claims accepted.
pub const CLAIMS_ACCEPTED: &str = "claims_accepted";
/// Claims rejected.
pub const CLAIMS_REJECTED: &str = "claims_rejected";
/// Claim dials that never reached the provider (death, timeout).
pub const CLAIM_DIAL_FAILURES: &str = "claim_dial_failures";
/// Release messages honored.
pub const RELEASES: &str = "releases";
/// Whether the resource is currently claimed (gauge, 0/1).
pub const CLAIMED: &str = "claimed";
/// Jobs submitted.
pub const JOBS_SUBMITTED: &str = "jobs_submitted";
/// Jobs completed.
pub const JOBS_COMPLETED: &str = "jobs_completed";
/// Jobs abandoned after exhausting the retry budget.
pub const JOBS_FAILED: &str = "jobs_failed";
/// Jobs currently unplaced (gauge).
pub const JOBS_IDLE: &str = "jobs_idle";
/// Jobs currently holding a claim (gauge).
pub const JOBS_CLAIMED: &str = "jobs_claimed";
