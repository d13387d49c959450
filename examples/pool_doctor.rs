//! `pool_doctor` — a live alert console for the pool health monitor
//! (`crates/alarm`, `docs/observability.md` §7).
//!
//! Point it at a matchmaker running with `DaemonConfig::alarm`:
//!
//! ```text
//! cargo run --example pool_doctor -- --connect 127.0.0.1:9618
//! ```
//!
//! Every interval (default 2s, `--interval <secs>`) it sends one `Query`
//! of the `AlertState` collection and renders the monitor's full state —
//! firing alerts first, then the quiet rules with whatever conjunct is
//! currently holding each back. `--once` renders a single frame;
//! `--firing` restricts the query to `other.State == "firing"`. A daemon
//! without the alarm answers with a structured error, surfaced here as a
//! clean failure.
//!
//! `--demo` runs the whole lifecycle offline instead: a monitor loaded
//! with the default rule pack sweeps a scripted pool timeline — a flock
//! peer dies, utilization collapses, the peer comes back — and every
//! raise/clear is narrated as it happens. No sockets, deterministic
//! output; CI smokes this mode and greps for the transitions.

use classad::ClassAd;
use condor_alarm::{severity_rank, Monitor, MonitorConfig};
use condor_pool::wire::{self, IoConfig};
use matchmaker::protocol::Message;
use matchmaker::query::{attr_is, Collection};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pool_doctor [--connect host:port [--interval secs] [--once] [--firing]] [--demo]"
    );
    std::process::exit(2);
}

/// Fetch the alert state over the wire.
fn fetch(addr: &str, constraint: &str) -> Vec<ClassAd> {
    let msg = Message::Query {
        constraint: constraint.to_string(),
        kind: None,
        projection: vec![],
    };
    match wire::request_reply(addr, &msg, &IoConfig::default()) {
        Ok(Message::QueryReply { ads }) => ads,
        Ok(other) => {
            eprintln!("unexpected reply from {addr}: {other:?}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("alerts at {addr} unavailable: {e}");
            eprintln!("(the daemon may run without `alarm`)");
            std::process::exit(1);
        }
    }
}

/// Render one console frame: firing alerts first (the monitor sorts by
/// severity), then the quiet rules with their blocking conjuncts.
fn render(ads: &[ClassAd]) {
    let firing: Vec<_> = ads
        .iter()
        .filter(|a| a.get_string("State") == Some("firing"))
        .collect();
    if firing.is_empty() {
        println!(
            "pool healthy — no alerts firing ({} rule states tracked)",
            ads.len()
        );
    } else {
        println!("{} ALERT(S) FIRING", firing.len());
        for ad in &firing {
            println!(
                "  !! {:<9} {}   since {}",
                ad.get_string("Severity").unwrap_or("?"),
                ad.get_string("Name").unwrap_or("?"),
                ad.get_int("Since").unwrap_or(0),
            );
            if let Some(detail) = ad.get_string("Detail") {
                if !detail.is_empty() {
                    println!("       tripped: {detail}");
                }
            }
        }
    }
    for ad in ads {
        if ad.get_string("State") == Some("firing") {
            continue;
        }
        print!(
            "  ok {:<9} {}",
            ad.get_string("Severity").unwrap_or("?"),
            ad.get_string("Name").unwrap_or("?"),
        );
        match ad.get_string("Detail") {
            Some(d) if !d.is_empty() => println!("   (blocked by: {d})"),
            _ => println!(),
        }
    }
}

/// A presence ad as `condor_alarm::view_telemetry` would derive it.
fn presence(pool: &str, source: &str, tail: i64, count: i64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.set_str("MyType", condor_alarm::PRESENCE_AD_TYPE);
    ad.set_str("Name", &format!("{pool}/{source}"));
    ad.set_str("Pool", pool);
    ad.set_str("Source", source);
    ad.set_int("AbsentTail", tail);
    ad.set_int("AbsentCount", count);
    ad
}

/// A pool-utilization history summary ad.
fn utilization(last: f64, max: f64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.set_str("MyType", condor_alarm::HISTORY_SUMMARY_AD_TYPE);
    ad.set_str("Name", "local/Utilization/pool");
    ad.set_str("Pool", "local");
    ad.set_str("Metric", "Utilization");
    ad.set_str("Source", "pool");
    ad.set_int("Points", 6);
    ad.set_real("Last", last);
    ad.set_real("Max", max);
    ad.set_real("Min", 0.0);
    ad.set_real("Mean", (last + max) / 2.0);
    ad.set_real("Rate", 0.0);
    ad.set_real("Integral", 0.0);
    ad.set_int("AbsentTail", 0);
    ad
}

/// `--demo`: sweep a scripted timeline through a real monitor and
/// narrate every transition. Deterministic, offline, grep-friendly.
fn demo() {
    let monitor =
        Monitor::with_default_pack(&[], MonitorConfig::default()).expect("default pack validates");
    println!(
        "pool_doctor --demo: {} rules loaded from the default pack\n",
        monitor.rule_count()
    );
    // Each step: (narration, telemetry the collector would derive).
    let timeline: Vec<(&str, Vec<ClassAd>)> = vec![
        (
            "pool healthy: peer poolB answering, utilization 0.8",
            vec![presence("poolB", "pool", 0, 0), utilization(0.8, 0.8)],
        ),
        (
            "peer poolB misses a sample (absent tombstone lands)",
            vec![presence("poolB", "pool", 1, 1), utilization(0.8, 0.8)],
        ),
        (
            "peer poolB still dark; local utilization drops to 0.05",
            vec![presence("poolB", "pool", 2, 2), utilization(0.05, 0.8)],
        ),
        (
            "second collapsed sample (UtilizationCollapse holds 2 intervals)",
            vec![presence("poolB", "pool", 3, 3), utilization(0.05, 0.8)],
        ),
        (
            "peer poolB answers again; utilization recovering",
            vec![presence("poolB", "pool", 0, 3), utilization(0.6, 0.8)],
        ),
        (
            "steady state restored",
            vec![presence("poolB", "pool", 0, 3), utilization(0.75, 0.8)],
        ),
    ];
    let mut unix = 946684800u64;
    for (step, (narration, telemetry)) in timeline.iter().enumerate() {
        println!("sweep {}: {narration}", step + 1);
        for t in monitor.evaluate(telemetry, unix) {
            if t.raised {
                println!(
                    "  >> ALERT RAISED  {}:{}@{} — tripped by: {}",
                    t.severity, t.rule, t.subject, t.detail
                );
            } else {
                println!("  >> ALERT CLEARED {}:{}@{}", t.severity, t.rule, t.subject);
            }
        }
        unix += 10;
    }
    let mut remaining = monitor.state_ads();
    remaining.sort_by_key(|ad| {
        std::cmp::Reverse(severity_rank(ad.get_string("Severity").unwrap_or("")))
    });
    println!("\nfinal state:");
    render(&remaining);
    println!(
        "\ntotals: {} raised, {} cleared, {} active",
        monitor.raised_total(),
        monitor.cleared_total(),
        monitor.active()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--demo") {
        demo();
        return;
    }
    let Some(addr) = args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| args.get(i + 1).cloned())
    else {
        usage();
    };
    let constraint = if args.iter().any(|a| a == "--firing") {
        Collection::AlertState.constraint(&[attr_is("State", "firing")])
    } else {
        Collection::AlertState.constraint::<&str>(&[])
    };
    let once = args.iter().any(|a| a == "--once");
    let interval = args
        .iter()
        .position(|a| a == "--interval")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse::<f64>().unwrap_or_else(|_| usage()))
        .unwrap_or(2.0);
    loop {
        println!("-- pool_doctor @ {addr} --");
        render(&fetch(&addr, &constraint));
        if once {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.1)));
    }
}
