//! Acceptance tests for the pool-history subsystem (`crates/view`): a
//! CondorView-style time-series store embedded in the matchmaker,
//! queried over the wire as the `HistorySeries` collection of `Query`
//! (`docs/protocol.md` §6, §15).
//!
//! The headline scenario runs a live federated pool for 30+ seconds of
//! activity — local matches and claims, one resource-agent death, one
//! job flocked to a peer pool — then checks the history against the
//! daemons' *live* self-ad counters: the match-rate series must
//! integrate to exactly the matches the matchmaker counted, and the
//! utilization series must track the claimed fraction, both within one
//! sample interval. Then the view server is killed and restarted on the
//! same checkpoint journal, and the recovered history must be missing
//! at most one interval.
//!
//! The second test pins the degradation paths: an older tool's retired
//! `HistoryQuery` frame (tag 15) and a `HistorySeries` query to a daemon
//! running without `DaemonConfig::view` both get the structured `Error`,
//! surfaced to the client as `WireError::Remote` — never a hang or a torn
//! connection — and the daemon keeps serving queries.

mod util;

use classad::{ClassAd, Expr, Literal};
use condor_obs::{schema, self_ad_constraint, JournalConfig};
use condor_pool::wire::{self, IoConfig, WireError};
use condor_pool::{DaemonConfig, ViewConfig};
use condor_view::{HistoryConfig, Resumption, TierSpec};
use matchmaker::protocol::Message;
use matchmaker::query::Collection;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use util::{job_ad, machine_ad, wait_until};

/// Journal directory shared with CI's view smoke run.
fn journal_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("history-acceptance");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn real(ad: &ClassAd, attr: &str) -> Option<f64> {
    match ad.get(attr).map(|e| e.as_ref()) {
        Some(Expr::Lit(Literal::Real(v))) => Some(*v),
        Some(Expr::Lit(Literal::Int(v))) => Some(*v as f64),
        _ => None,
    }
}

/// Fetch history series over the wire: the `HistorySeries` ads
/// `constraint` selects.
fn history(addr: &str, constraint: &str) -> Vec<ClassAd> {
    util::collection_ads(addr, Collection::HistorySeries, &[constraint])
}

/// Live self-ads of one daemon type, via the ordinary query path.
fn stats_ads(addr: &str, my_type: &str) -> Vec<ClassAd> {
    let reply = wire::request_reply(
        addr,
        &Message::Query {
            constraint: self_ad_constraint(my_type),
            kind: None,
            projection: vec![],
        },
        &IoConfig::default(),
    )
    .unwrap();
    let Message::QueryReply { ads } = reply else {
        panic!("unexpected reply: {reply:?}")
    };
    ads
}

/// The `Integral` of the first series matching `constraint`, or `None`
/// while the series has not appeared yet.
fn integral(addr: &str, constraint: &str) -> Option<f64> {
    history(addr, constraint)
        .first()
        .and_then(|ad| real(ad, "Integral"))
}

const SAMPLE: Duration = Duration::from_millis(500);

fn view_config(journal: &PathBuf) -> ViewConfig {
    ViewConfig {
        sample_interval: SAMPLE,
        journal: Some(JournalConfig::new(journal)),
        // 1s fine tier + 10s coarse tier: 30s of pool life lands ~30
        // fine buckets and a few coarse ones, so both resolutions are
        // exercised over the wire.
        history: HistoryConfig {
            tiers: vec![
                TierSpec {
                    interval_secs: 1,
                    capacity: 360,
                },
                TierSpec {
                    interval_secs: 10,
                    capacity: 432,
                },
            ],
        },
        federate: true,
    }
}

/// The 30-second federated pool run, checked against live counters,
/// then killed and recovered from the checkpoint journal.
#[test]
fn history_tracks_live_pool_and_survives_view_server_restart() {
    let dir = journal_dir();
    let view_journal = dir.join("view.jsonl");

    // Pool B: grant-only flocking, one fast machine, no jobs of its own.
    let (_mm_b, addr_b) = util::spawn_daemon(DaemonConfig {
        flock: Some(condor_flock::FlockConfig::default()),
        ..util::daemon_config("mmB")
    });
    let ra_b = util::spawn_resource("bm0", std::slice::from_ref(&addr_b), 77, machine_ad(400));

    // Pool A: the matchmaker under test — embedded view collector with a
    // checkpoint journal, flocking to B. One machine, two jobs: one
    // claims locally, the other must flock.
    let (mut mm_a, addr_a) = util::spawn_daemon(DaemonConfig {
        view: Some(view_config(&view_journal)),
        flock: Some(condor_flock::FlockConfig {
            peers: vec![vec![addr_b.clone()]],
            ..condor_flock::FlockConfig::default()
        }),
        ..util::daemon_config("mmA")
    });
    // Let the collector take its baseline sample (MatchesTotal = 0)
    // before any activity, so the match-rate integral equals the
    // counter's absolute value for the rest of the test.
    wait_until("the view collector takes its baseline pass", || {
        mm_a.view().is_some_and(|v| v.collections() >= 1)
    });

    let ra_a = util::spawn_resource("am0", std::slice::from_ref(&addr_a), 11, machine_ad(100));
    let ca = util::spawn_customer(
        "hist",
        std::slice::from_ref(&addr_a),
        vec![("h-0".into(), job_ad()), ("h-1".into(), job_ad())],
    );
    let started = Instant::now();

    // Matches + claims: one job on A's machine, the flocked one on B's.
    wait_until("one job claims the local machine", || {
        ca.jobs().iter().any(
            |(_, s)| matches!(s, condor_pool::JobStatus::Claimed { provider_name, .. } if provider_name == "am0"),
        )
    });
    wait_until("the other job flocks to pool B", || {
        ca.jobs().iter().any(
            |(_, s)| matches!(s, condor_pool::JobStatus::Claimed { provider_name, .. } if provider_name == "bm0"),
        )
    });
    assert!(ra_b.is_claimed());

    // Half-time: one resource agent dies. The orphaned job resubmits and
    // keeps the negotiator busy (unmatched locally, peer machine taken)
    // for the rest of the run.
    std::thread::sleep(Duration::from_secs(15).saturating_sub(started.elapsed()));
    ra_a.shutdown();

    // Let the pool live past the 30s activity bar, then quiesce: totals
    // stop moving, so history and live counters must converge exactly.
    std::thread::sleep(Duration::from_secs(33).saturating_sub(started.elapsed()));
    let view = mm_a.view().expect("daemon was spawned with a view");
    assert_eq!(view.resumption(), Resumption::Fresh);
    assert!(
        view.collections() >= 40,
        "500ms sampling for 30s+ must collect dozens of passes, got {}",
        view.collections()
    );

    // --- utilization vs the live claimed fraction -----------------------
    let q_util = r#"other.Pool == "local" && other.Metric == "Utilization" && other.Tier == 0"#;
    wait_until(
        "utilization history matches the live claimed fraction",
        || {
            let ras = stats_ads(&addr_a, schema::RESOURCE_AGENT_STATS);
            let claimed = ras
                .iter()
                .filter(|ad| ad.get_int("Claimed") == Some(1))
                .count() as f64;
            let live = claimed / ras.len().max(1) as f64;
            history(&addr_a, q_util).first().is_some_and(|ad| {
                let last = ad
                    .get_string("DataLast")
                    .and_then(|s| s.rsplit(',').next().and_then(|v| v.parse::<f64>().ok()));
                last.is_some_and(|l| (l - live).abs() < 1e-9)
            })
        },
    );

    // --- match rate integrates to the matchmaker's own counter ----------
    // "Within one sample interval" made operational: a counter reading
    // taken one interval *before* the history query and one taken right
    // after it must bracket the integral, because the integral reflects
    // some sample in between. MatchesTotal is monotone, so the bracket
    // is exact even while the pool keeps matching.
    let q_match = r#"other.Pool == "local" && other.Metric == "MatchRate" && other.Tier == 0"#;
    let live_matches_at = || {
        stats_ads(&addr_a, schema::MATCHMAKER_STATS)[0]
            .get_int("MatchesTotal")
            .unwrap_or(0) as f64
    };
    let lo = live_matches_at();
    std::thread::sleep(SAMPLE + SAMPLE / 2); // ensure a sample ≥ the lo reading
    let i = integral(&addr_a, q_match).expect("match-rate series exists");
    let hi = live_matches_at();
    // The flocked job counts in FlockMatches, not MatchesTotal, so one
    // local match is the floor here.
    assert!(hi >= 1.0, "the local job negotiated at least once: {hi}");
    assert!(
        lo - 1e-9 <= i && i <= hi + 1e-9,
        "integral {i} must sit within one sample interval of the live \
         counter (bracket [{lo}, {hi}])"
    );

    // --- the flocked job shows up in the flock-rate series --------------
    let q_flock = r#"other.Pool == "local" && other.Metric == "FlockRate" && other.Tier == 0"#;
    let flocked = integral(&addr_a, q_flock).expect("flock-rate series exists");
    assert!(
        flocked >= 1.0,
        "the flocked job must be on the books: {flocked}"
    );

    // --- federation-aware collection: peer-pool series exist ------------
    let remote = history(&addr_a, r#"other.Pool != "local""#);
    assert!(
        !remote.is_empty(),
        "federate=true must collect pool B's matchmaker self-ads"
    );

    // --- both tiers answer over the wire, spanning the 30s run ----------
    // One query fetches both tiers from the same store snapshot, so
    // their integrals must agree exactly: every observation lands in
    // every tier simultaneously.
    let both = history(
        &addr_a,
        r#"other.Pool == "local" && other.Metric == "MatchRate""#,
    );
    assert_eq!(both.len(), 2, "fine + coarse tier for the one series");
    let fine = both
        .iter()
        .find(|ad| ad.get_int("Tier") == Some(0))
        .unwrap();
    let coarse = both
        .iter()
        .find(|ad| ad.get_int("Tier") == Some(1))
        .unwrap();
    let span =
        |ad: &ClassAd| ad.get_int("EndUnix").unwrap_or(0) - ad.get_int("StartUnix").unwrap_or(0);
    assert!(
        span(fine) >= 25,
        "fine tier must span most of the run, got {}s",
        span(fine)
    );
    let (fi, ci) = (
        real(fine, "Integral").unwrap(),
        real(coarse, "Integral").unwrap(),
    );
    assert!(
        (fi - ci).abs() < 1e-9,
        "tiers integrate to the same total: fine {fi} vs coarse {ci}"
    );

    // --- kill the view server, restart on the same journal --------------
    let pre_points = fine.get_int("Points").unwrap();
    // The pool may still be matching (the orphaned job keeps retrying
    // against the dead machine's leased ad), so bound the recovered
    // integral with readings taken just before the kill: the store
    // checkpoints on every pass, so the last checkpoint can only be
    // *newer* than this query — and never newer than the live counter.
    std::thread::sleep(2 * SAMPLE);
    let pre_integral = integral(&addr_a, q_match).unwrap();
    let final_matches = live_matches_at();
    mm_a.shutdown();

    let (mut mm_a2, addr_a2) = util::spawn_daemon(DaemonConfig {
        view: Some(view_config(&view_journal)),
        ..util::daemon_config("mmA2")
    });
    let view2 = mm_a2.view().expect("restarted daemon has a view");
    assert_eq!(
        view2.resumption(),
        Resumption::Recovered,
        "the collector must recover from its checkpoint journal"
    );
    wait_until("the recovered collector resumes sampling", || {
        view2.collections() >= 1
    });
    // All but at most one sample interval survives the restart: the
    // integral is intact (the pool had quiesced) and at most one fine
    // bucket of points can be missing.
    let after = history(&addr_a2, q_match);
    assert_eq!(after.len(), 1, "recovered series answers over the wire");
    let after_integral = real(&after[0], "Integral").unwrap();
    assert!(
        pre_integral - 1e-9 <= after_integral && after_integral <= final_matches + 1e-9,
        "recovered integral {after_integral} must carry everything up to \
         the last checkpoint (bracket [{pre_integral}, {final_matches}])"
    );
    assert!(
        after[0].get_int("Points").unwrap() >= pre_points - 1,
        "at most one interval may be lost across the restart"
    );

    ca.shutdown();
    mm_a2.shutdown();
}

/// A daemon must answer an older tool's history tags, and a history query
/// when it runs without the view, with the structured `Error`; the client
/// sees a clean `WireError::Remote` and the daemon keeps serving.
#[test]
fn pre_view_daemon_rejects_history_tags_with_structured_error() {
    let (mut mm, addr) = util::spawn_daemon(util::daemon_config("no-view"));
    assert!(mm.view().is_none());

    // Tag 15 is retired: an old `HistoryQuery { "true", limit 0 }` frame
    // decodes as an unknown tag, and so does tag 16.
    for (tag, frame) in [
        (15, util::retired_frame(15, "true", &[0; 4])),
        (16, vec![16, 0, 0, 0, 0]),
    ] {
        match util::raw_request_reply(&addr, &frame) {
            Err(WireError::Remote(detail)) => {
                assert!(detail.contains(&format!("unknown tag {tag}")), "{detail}");
            }
            other => panic!("expected a structured remote error, got {other:?}"),
        }
    }

    // The collection itself, on a daemon without the view.
    match util::collection_query(&addr, Collection::HistorySeries, &["true"]) {
        Err(WireError::Remote(detail)) => {
            assert!(detail.contains("without `view`"), "{detail}");
        }
        other => panic!("expected a structured remote error, got {other:?}"),
    }

    // The daemon is unharmed: ordinary queries on a new connection work.
    let ads = stats_ads(&addr, schema::MATCHMAKER_STATS);
    assert_eq!(ads.len(), 1);
    mm.shutdown();
}
