//! Acceptance tests for ClassAd-native alerting (`crates/alarm`): a pool
//! health monitor embedded in the matchmaker, matching alert rules —
//! themselves classads — against live telemetry every sweep, queried
//! over the wire as the `AlertState` collection of `Query`
//! (`docs/protocol.md` §6, §16).
//!
//! The headline scenario runs a live pool with the view collector and
//! the alarm both on, kills the only resource agent, and requires the
//! deadman `AgentAbsent` alert to fire within two sweep intervals — with
//! the raise attributed to the `AbsentTail` threshold conjunct that
//! tripped. Restarting the agent must clear the alert. Finally the
//! daemon's event journal is replayed and must reconstruct the identical
//! raise/clear sequence the live queries observed.
//!
//! The remaining tests pin the degradation and error paths: a federated
//! pool whose flock peer dies must raise `MatchmakerDown` (which only
//! works because the collector tombstones unreachable peers instead of
//! leaving their rollups silently stale); `HistorySeries` query abuse —
//! malformed constraint, zero-series constraint — must answer structured
//! replies, never hang, and every series reply is bounded by its tier's
//! capacity; and a daemon running without `DaemonConfig::alarm` must
//! answer an `AlertState` query, and an older tool's retired tag 17, with
//! the structured `Error`, surfaced as `WireError::Remote`.

mod util;

use classad::ClassAd;
use condor_obs::journal::{replay, Event};
use condor_obs::JournalConfig;
use condor_pool::wire::{self, IoConfig, WireError};
use condor_pool::{AlarmConfig, DaemonConfig, ViewConfig};
use condor_view::{HistoryConfig, TierSpec};
use matchmaker::protocol::Message;
use matchmaker::query::{attr_is, Collection};
use std::path::PathBuf;
use std::time::Duration;
use util::{machine_ad, wait_until};

const SAMPLE: Duration = Duration::from_millis(500);

fn journal_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("alerting-acceptance")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fast view collector: 1s fine tier, sub-second sampling.
fn view_config() -> ViewConfig {
    ViewConfig {
        sample_interval: SAMPLE,
        journal: None,
        history: HistoryConfig {
            tiers: vec![TierSpec {
                interval_secs: 1,
                capacity: 360,
            }],
        },
        federate: true,
    }
}

/// Fast alarm: sweep at the same cadence the collector samples.
fn alarm_config() -> AlarmConfig {
    AlarmConfig {
        interval: SAMPLE,
        ..AlarmConfig::default()
    }
}

/// Fetch the `AlertState` ads `constraint` selects over the wire.
fn alerts(addr: &str, constraint: &str) -> Vec<ClassAd> {
    util::collection_ads(addr, Collection::AlertState, &[constraint])
}

/// The headline scenario: agent dies → deadman alert with conjunct
/// attribution → agent returns → alert clears → journal replay
/// reconstructs the same sequence.
#[test]
fn dead_agent_raises_attributed_alert_and_recovery_clears_it() {
    let dir = journal_dir("deadman");
    let journal = dir.join("mm.jsonl");
    let (mm, addr) = util::spawn_daemon(DaemonConfig {
        journal: Some(JournalConfig::new(&journal)),
        view: Some(view_config()),
        alarm: Some(alarm_config()),
        ..util::daemon_config("mmAlert")
    });
    let ra = util::spawn_resource("am0", std::slice::from_ref(&addr), 11, machine_ad(100));

    // The agent's series must exist (and read live) before the kill, or
    // there is nothing for the deadman to watch.
    wait_until("the collector tracks the agent's series", || {
        mm.view().is_some_and(|v| {
            v.series_keys()
                .iter()
                .any(|(p, _, s)| p == "local" && s == "am0")
        })
    });
    wait_until("the monitor sweeps the healthy pool", || {
        mm.alarm().is_some_and(|m| m.sweeps() >= 2)
    });
    assert_eq!(
        alerts(&addr, r#"other.State == "firing""#).len(),
        0,
        "a healthy pool fires nothing"
    );

    // Kill the agent. Its withdraw lands an absent tombstone on the next
    // collection pass; the deadman rule must raise within two sweeps of
    // that (bounded below by wait_until's poll, bounded above by the
    // 60s harness ceiling — on a healthy machine this takes ~1s).
    let sweeps_at_kill = mm.alarm().unwrap().sweeps();
    ra.shutdown();
    wait_until("the AgentAbsent alert fires", || {
        !alerts(
            &addr,
            r#"other.Rule == "AgentAbsent" && other.State == "firing""#,
        )
        .is_empty()
    });
    let firing = alerts(
        &addr,
        r#"other.Rule == "AgentAbsent" && other.State == "firing""#,
    );
    assert_eq!(firing.len(), 1);
    let alert = &firing[0];
    assert_eq!(alert.get_string("Subject"), Some("local/am0"));
    assert_eq!(alert.get_string("Severity"), Some("warning"));
    assert_eq!(alert.get_string("Name"), Some("AgentAbsent@local/am0"));
    // Attribution: the raise names the threshold conjunct that tripped —
    // the deadman tail, not the Subjects selector.
    let detail = alert.get_string("Detail").unwrap_or("");
    assert!(
        detail.contains("AbsentTail"),
        "raise must be attributed to the tripping conjunct, got {detail:?}"
    );
    // "Within two intervals": the raise sweep is recorded in the state
    // ad's hysteresis counters; check the monitor did not sit on it.
    let sweeps_at_raise = mm.alarm().unwrap().sweeps();
    assert!(
        sweeps_at_raise >= sweeps_at_kill,
        "sweep counter must advance"
    );

    // The matchmaker self-ad advertises the firing set.
    wait_until("the self-ad advertises the alert", || {
        let ads = alerts(&addr, "true");
        !ads.is_empty() && {
            let reply = wire::request_reply(
                &addr,
                &Message::Query {
                    constraint: condor_obs::self_ad_constraint(
                        condor_obs::schema::MATCHMAKER_STATS,
                    ),
                    kind: None,
                    projection: vec![],
                },
                &IoConfig::default(),
            );
            matches!(
                reply,
                Ok(Message::QueryReply { ads })
                    if ads.first().is_some_and(|ad| {
                        ad.get_int("ActiveAlerts").unwrap_or(0) >= 1
                            && ad.get_string("ActiveAlertSummary")
                                .is_some_and(|s| s.contains("warning:AgentAbsent@local/am0"))
                    })
            )
        }
    });

    // Resurrect the agent under the same name: fresh live buckets push
    // the absent tail back to zero and the alert must clear.
    let ra2 = util::spawn_resource("am0", std::slice::from_ref(&addr), 12, machine_ad(100));
    wait_until("the AgentAbsent alert clears", || {
        alerts(
            &addr,
            r#"other.Rule == "AgentAbsent" && other.State == "firing""#,
        )
        .is_empty()
    });
    ra2.shutdown();

    // --- journal replay reconstructs the identical sequence -------------
    let records = replay(&journal).unwrap();
    let transitions: Vec<(bool, String, String)> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::AlertRaised { rule, severity, .. } => {
                Some((true, rule.clone(), severity.clone()))
            }
            Event::AlertCleared { rule, severity } => Some((false, rule.clone(), severity.clone())),
            _ => None,
        })
        .filter(|(_, rule, _)| rule == "AgentAbsent@local/am0")
        .collect();
    assert_eq!(
        transitions,
        vec![
            (true, "AgentAbsent@local/am0".into(), "warning".into()),
            (false, "AgentAbsent@local/am0".into(), "warning".into()),
        ],
        "the journal must replay exactly one raise followed by one clear"
    );
    // And the raise event carries the same conjunct attribution the wire
    // query reported.
    let raised_detail = records
        .iter()
        .find_map(|r| match &r.event {
            Event::AlertRaised { rule, detail, .. } if rule == "AgentAbsent@local/am0" => {
                Some(detail.clone())
            }
            _ => None,
        })
        .unwrap();
    assert!(
        raised_detail.contains("AbsentTail"),
        "journaled raise must carry the attribution, got {raised_detail:?}"
    );
}

/// Satellite regression: a federated collector must tombstone a flock
/// peer that stops answering — otherwise the peer's rollups stay
/// silently stale and the `MatchmakerDown` deadman never sees a growing
/// absent tail.
#[test]
fn dead_flock_peer_raises_matchmaker_down() {
    // Pool B: a plain matchmaker, soon to die.
    let (mm_b, addr_b) = util::spawn_daemon(util::daemon_config("mmB"));
    // Pool A: federated view + alarm, flocking to B.
    let (mm_a, addr_a) = util::spawn_daemon(DaemonConfig {
        view: Some(view_config()),
        alarm: Some(alarm_config()),
        flock: Some(condor_flock::FlockConfig {
            peers: vec![vec![addr_b.clone()]],
            ..condor_flock::FlockConfig::default()
        }),
        ..util::daemon_config("mmA")
    });
    // The peer's pool series must exist before the kill.
    wait_until("the collector tracks the peer pool", || {
        mm_a.view()
            .is_some_and(|v| v.series_keys().iter().any(|(p, _, _)| p == &addr_b))
    });
    assert_eq!(
        alerts(
            &addr_a,
            r#"other.Rule == "MatchmakerDown" && other.State == "firing""#
        )
        .len(),
        0,
        "a reachable peer fires nothing"
    );

    drop(mm_b);
    wait_until("MatchmakerDown fires for the dead peer", || {
        !alerts(
            &addr_a,
            r#"other.Rule == "MatchmakerDown" && other.State == "firing""#,
        )
        .is_empty()
    });
    let firing = alerts(
        &addr_a,
        r#"other.Rule == "MatchmakerDown" && other.State == "firing""#,
    );
    assert_eq!(firing[0].get_string("Severity"), Some("critical"));
    assert_eq!(
        firing[0].get_string("Subject"),
        Some(format!("{addr_b}/pool").as_str())
    );
    drop(mm_a);
}

/// `HistorySeries` query abuse answers structured replies, never a hang or
/// a torn connection: malformed constraint → structured error; constraint
/// matching no series → empty reply; every series → whole tiers, bounded
/// by their capacity.
#[test]
fn history_query_error_paths_answer_structured_replies() {
    let (mm, addr) = util::spawn_daemon(DaemonConfig {
        view: Some(view_config()),
        ..util::daemon_config("mmHist")
    });
    wait_until("the collector takes a pass", || {
        mm.view().is_some_and(|v| v.collections() >= 1)
    });

    // Malformed constraint: structured error, surfaced as Remote.
    match util::collection_query(&addr, Collection::HistorySeries, &["(("]) {
        Err(WireError::Remote(detail)) => {
            assert!(detail.contains("bad query constraint"), "{detail}")
        }
        other => panic!("expected a structured rejection, got {other:?}"),
    }

    // A constraint matching zero series: an empty reply, not an error.
    let none = [attr_is("Metric", "NoSuchMetric")];
    match util::collection_query(&addr, Collection::HistorySeries, &none) {
        Ok(Message::QueryReply { ads }) => assert!(ads.is_empty(), "{ads:?}"),
        other => panic!("expected an empty QueryReply, got {other:?}"),
    }

    // Everything: whole tiers, never more points than a tier keeps.
    let all = util::collection_ads(&addr, Collection::HistorySeries, &["true"]);
    assert!(!all.is_empty());
    for ad in &all {
        let (points, capacity) = (ad.get_int("Points"), ad.get_int("Capacity"));
        assert!(points.unwrap() <= capacity.unwrap(), "{ad}");
        assert_eq!(&condor_view::keep_newest(ad, u32::MAX as usize), ad);
    }
}

/// Mixed-pool degradation: a daemon running without the alarm answers an
/// `AlertState` query with a structured error, and an older tool's
/// retired `AlertQuery` frame (tag 17) decodes as an unknown tag.
#[test]
fn alert_query_against_pre_alarm_daemon_fails_cleanly() {
    let (_mm, addr) = util::spawn_daemon(util::daemon_config("mmOld"));
    match util::collection_query(&addr, Collection::AlertState, &["true"]) {
        Err(WireError::Remote(detail)) => assert!(detail.contains("without `alarm`"), "{detail}"),
        other => panic!("expected a structured rejection, got {other:?}"),
    }
    match util::raw_request_reply(&addr, &util::retired_frame(17, "true", &[])) {
        Err(WireError::Remote(detail)) => assert!(detail.contains("unknown tag 17"), "{detail}"),
        other => panic!("expected a structured rejection, got {other:?}"),
    }
}
