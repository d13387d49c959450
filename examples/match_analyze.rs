//! `match_analyze` — live match-failure attribution, end to end.
//!
//! The paper's §5 asks the operational question every pool eventually
//! hears: *"why doesn't my job run?"*. This demo answers it with the full
//! attribution stack:
//!
//! 1. a matchmaker daemon runs with journaling on (attribution is on by
//!    default for live daemons);
//! 2. machines and two deliberately unmatchable jobs advertise over TCP —
//!    one job demands more Mips than any machine has, the other references
//!    an attribute no machine defines;
//! 3. after a negotiation cycle, a `Query` of the `MatchAnalysis`
//!    collection asks the daemon why each job is still idle, and the
//!    reply names the failing constraint clause (or undefined attribute)
//!    plus a full rejection breakdown;
//! 4. the matchmaker self-ad carries the same story as
//!    `RejectionTopReasons`, and the journal's `CycleRejections` events
//!    preserve it for post-mortem replay.
//!
//! Run with: `cargo run --example match_analyze`

use classad::{parse_classad, ClassAd};
use condor_obs::{replay_with_stats, schema, self_ad_constraint, Event, JournalConfig};
use condor_pool::wire::{self, IoConfig};
use condor_pool::{DaemonConfig, MatchmakerDaemon};
use matchmaker::protocol::{Advertisement, EntityKind, Message};
use matchmaker::query::{attr_is, Collection};
use matchmaker::ticket::Ticket;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(30);

fn advertise(addr: &str, kind: EntityKind, ad: ClassAd, contact: &str) {
    let adv = Advertisement {
        kind,
        ad,
        contact: contact.to_string(),
        ticket: Some(Ticket::from_raw(7)),
        expires_at: wire::unix_now() + 300,
    };
    wire::send_oneway(addr, &Message::Advertise(adv), &IoConfig::default()).unwrap();
}

/// Render a `MatchAnalysis` reply ad as a `condor_q -analyze` report.
fn print_analysis(name: &str, ad: &ClassAd) {
    println!("why is {name} idle?");
    let found = ad.get("Found").map(|e| e.to_string());
    if found.as_deref() != Some("true") {
        println!("  (request not advertised)\n");
        return;
    }
    println!(
        "  {} of {} offer(s) match right now",
        ad.get_int("MatchesNow").unwrap_or(0),
        ad.get_int("PoolSize").unwrap_or(0)
    );
    if let Some(c) = ad.get_string("RequestConstraint") {
        println!("  constraint:  {c}");
    }
    if let Some(r) = ad.get_string("TopReason") {
        println!("  top reason:  {r}");
    }
    if let Some(clause) = ad.get_string("FailingClause") {
        println!(
            "  failing clause ({} side): {clause}",
            ad.get_string("FailingSide").unwrap_or("?")
        );
    } else if let Some(attr) = ad.get_string("FailingAttr") {
        println!(
            "  undefined attribute ({} side): {attr}",
            ad.get_string("FailingSide").unwrap_or("?")
        );
    }
    if let Some(b) = ad.get_string("RejectBreakdown") {
        println!("  breakdown:   {b}");
    }
    if let (Some(cycle), Some(r)) = (ad.get_int("Cycle"), ad.get_string("LastCycleRejections")) {
        println!("  cycle {cycle} recorded: {r}");
    }
    println!();
}

fn main() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("match-analyze");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("matchmaker.jsonl");

    let mut daemon = MatchmakerDaemon::spawn(DaemonConfig {
        cycle_interval: Duration::from_millis(100),
        journal: Some(JournalConfig::new(&journal_path)),
        ..DaemonConfig::default()
    })
    .expect("daemon should bind loopback");
    let addr = daemon.addr().to_string();
    println!(
        "matchmaker daemon on {addr}, journaling to {}\n",
        journal_path.display()
    );

    for (name, mips) in [("slow", 50), ("medium", 100), ("fast", 150)] {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Machine"; Mips = {mips}; State = "Unclaimed";
                 Constraint = other.Type == "Job"; Rank = 0 ]"#
        ))
        .unwrap();
        advertise(&addr, EntityKind::Provider, ad, "127.0.0.1:9614");
    }
    let jobs = [
        (
            "greedy.0",
            r#"other.Type == "Machine" && other.Mips >= 10000"#,
        ),
        ("exotic.0", r#"other.Type == "Machine" && other.Gpus >= 4"#),
    ];
    for (name, constraint) in jobs {
        let ad = parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Job"; Owner = "demo";
                 Constraint = {constraint}; Rank = 0 ]"#
        ))
        .unwrap();
        advertise(&addr, EntityKind::Customer, ad, "127.0.0.1:9615");
    }

    // Wait until the daemon has seen all five ads and attributed at least
    // one negotiation cycle over them.
    let deadline = Instant::now() + WAIT;
    while daemon.service().ad_count() < 5 || daemon.stats().cycles < 2 {
        assert!(
            Instant::now() < deadline,
            "daemon never cycled over the ads"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // One `Query` of the MatchAnalysis collection per job: one frame out,
    // one MatchAnalysis classad back.
    for (name, _) in jobs {
        let query = Message::Query {
            constraint: Collection::MatchAnalysis.constraint(&[attr_is("Name", name)]),
            kind: None,
            projection: vec![],
        };
        let reply = wire::request_reply(&addr, &query, &IoConfig::default()).unwrap();
        let Message::QueryReply { ads } = reply else {
            panic!("unexpected reply: {reply:?}");
        };
        let [ad] = &ads[..] else {
            panic!("expected one MatchAnalysis ad, got {ads:?}");
        };
        print_analysis(name, ad);
    }

    // The same attribution, one aggregation level up: the matchmaker's
    // self-ad summarises the last cycle's rejection tables.
    let reply = wire::request_reply(
        &addr,
        &Message::Query {
            constraint: self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: None,
            projection: vec![],
        },
        &IoConfig::default(),
    )
    .unwrap();
    if let Message::QueryReply { ads } = reply {
        if let Some(top) = ads
            .first()
            .and_then(|ad| ad.get_string("RejectionTopReasons"))
        {
            println!("self-ad RejectionTopReasons: {top}\n");
        }
    }

    daemon.shutdown();

    // Post-mortem: the journal kept every cycle's rejection tables.
    let (records, stats) = replay_with_stats(&journal_path).unwrap();
    let cycle_rejections: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::CycleRejections {
                cycle, breakdown, ..
            } => Some((cycle, breakdown)),
            _ => None,
        })
        .collect();
    println!(
        "journal replay: {} record(s), {} unknown-kind, {} torn; {} CycleRejections event(s)",
        stats.records,
        stats.unknown_kind,
        stats.torn,
        cycle_rejections.len()
    );
    if let Some((cycle, breakdown)) = cycle_rejections.last() {
        println!("last attributed cycle {cycle}: {breakdown}");
    }
    assert!(
        !cycle_rejections.is_empty(),
        "attribution-enabled daemon should journal CycleRejections"
    );
    println!("done");
}
