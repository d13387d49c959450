//! Acceptance test for live match-failure attribution: a job whose
//! `Constraint` can never match is submitted to a live pool, a `Query` of
//! the `MatchAnalysis` collection goes over the wire, and the reply must
//!
//! 1. name the failing clause and the side it belongs to;
//! 2. carry per-autocluster rejection counts that agree with what the
//!    matchmaker's journal preserved in `CycleRejections` events;
//! 3. leave an older tool that still sends the retired `Analyze` tag (9)
//!    with a structured error instead of a hang or a torn connection.

mod util;

use classad::{parse_classad, ClassAd};
use condor_obs::{replay_with_stats, Event, JournalConfig};
use condor_pool::wire::WireError;
use condor_pool::PoolBuilder;
use matchmaker::query::{attr_is, Collection};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(30);

fn machine_ad(mips: i64) -> ClassAd {
    parse_classad(&format!(
        r#"[ Type = "Machine"; Mips = {mips}; State = "Unclaimed";
             Constraint = other.Type == "Job"; Rank = 0 ]"#
    ))
    .unwrap()
}

/// A job no machine in this pool can ever satisfy.
fn impossible_job() -> ClassAd {
    parse_classad(
        r#"[ Type = "Job"; Constraint = other.Type == "Machine" && other.Mips >= 100000;
             Rank = 0 ]"#,
    )
    .unwrap()
}

fn journal_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("analyze-acceptance");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn analyze(addr: &str, name: &str) -> ClassAd {
    let ads = util::collection_ads(addr, Collection::MatchAnalysis, &[attr_is("Name", name)]);
    let [ad] = &ads[..] else {
        panic!("expected one MatchAnalysis ad, got {ads:?}")
    };
    ad.clone()
}

#[test]
fn analyze_names_the_clause_and_agrees_with_the_journal() {
    let mm_journal = journal_dir().join("matchmaker.jsonl");
    let mut builder = PoolBuilder::new()
        .machine("ana-m0", machine_ad(80))
        .machine("ana-m1", machine_ad(120))
        .user("ana", vec![("ana-0".into(), impossible_job())]);
    builder.daemon.journal = Some(JournalConfig::new(&mm_journal));
    let pool = builder.spawn().unwrap();
    let addr = pool.daemon().addr().to_string();

    // Poll until the job is advertised AND at least one negotiation cycle
    // has attributed its rejection (the reply then carries last-cycle
    // context next to the live scan).
    let deadline = Instant::now() + WAIT;
    let ad = loop {
        let ad = analyze(&addr, "ana-0");
        let found = ad.get("Found").map(|e| e.to_string());
        if found.as_deref() == Some("true") && ad.contains("LastCycleRejections") {
            break ad;
        }
        assert!(
            Instant::now() < deadline,
            "MatchAnalysis never saw an attributed cycle; last reply: {ad}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    // The live scan names the failing clause, attributed to the request
    // side, and counts every offer.
    assert_eq!(ad.get_string("MyType"), Some("MatchAnalysis"));
    assert_eq!(ad.get_int("MatchesNow"), Some(0));
    assert_eq!(ad.get_int("PoolSize"), Some(2));
    assert_eq!(ad.get_string("TopReasonKind"), Some("RequirementsFalse"));
    assert_eq!(ad.get_string("FailingSide"), Some("request"));
    assert_eq!(ad.get_string("FailingClause"), Some("other.Mips >= 100000"));
    let breakdown = ad.get_string("RejectBreakdown").unwrap();
    assert!(
        breakdown.contains("ReqFalse(request): other.Mips >= 100000=2"),
        "live breakdown missing per-offer counts: {breakdown}"
    );

    // Last-cycle context: the negotiator's own rejection table for this
    // job's autocluster, stamped with the cycle ordinal.
    let cycle = ad.get_int("Cycle").expect("attributed cycle ordinal") as u64;
    let segment = ad.get_string("LastCycleRejections").unwrap().to_string();
    assert!(
        segment.contains("ana-0") && segment.contains("other.Mips >= 100000=2"),
        "cycle segment should name the request and count both offers: {segment}"
    );

    pool.shutdown();

    // Journal agreement: replaying the matchmaker's journal must yield a
    // CycleRejections event for the same cycle whose breakdown contains
    // the reply's segment verbatim.
    let (records, stats) = replay_with_stats(&mm_journal).unwrap();
    assert_eq!(
        stats.unknown_kind, 0,
        "no foreign events in our own journal"
    );
    let journaled = records
        .iter()
        .find_map(|r| match &r.event {
            Event::CycleRejections {
                cycle: c,
                breakdown,
                rejected,
                ..
            } if *c == cycle => Some((breakdown.clone(), *rejected)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no CycleRejections for cycle {cycle} in {records:?}"));
    assert!(
        journaled.0.contains(&segment),
        "journal breakdown {:?} does not contain the MatchAnalysis segment {:?}",
        journaled.0,
        segment
    );
    assert_eq!(journaled.1, 2, "both offers were rejected that cycle");
}

#[test]
fn analyze_against_a_pre_analyze_peer_fails_cleanly() {
    // Tag 9 is retired: this daemon decodes it as an unknown tag, exactly
    // as a peer predating it did, and answers a structured Error.
    let (mut mm, addr) = util::spawn_daemon(util::daemon_config("mmRetired9"));
    match util::raw_request_reply(&addr, &util::retired_frame(9, "x", &[])) {
        Err(WireError::Remote(detail)) => {
            assert!(detail.contains("unknown tag 9"), "{detail}");
        }
        other => panic!("expected a structured remote error, got {other:?}"),
    }
    // A new tool asks the collection instead, on a new connection.
    let ad = analyze(&addr, "x");
    assert_eq!(ad.get_string("Name"), Some("x"));
    assert_eq!(
        ad.get("Found").map(|e| e.to_string()).as_deref(),
        Some("false")
    );
    mm.shutdown();
}
