//! A `condor_status`-style browsing tool built on one-way query matching
//! (paper §4: "One-way matching protocols are used to find all objects
//! matching a given pattern").
//!
//! Run with: `cargo run --example status_query` for a self-contained
//! in-memory pool, or point it at a live matchmaker daemon (see
//! `examples/live_pool.rs`) with:
//!
//! ```text
//! cargo run --example status_query -- --connect 127.0.0.1:9618
//! ```
//!
//! In `--connect` mode every query goes over TCP as a framed `Query`
//! message and the table is rendered from the `QueryReply` — the same
//! bytes a remote administration tool would exchange.
//!
//! `--stats` switches to browsing the pool's *self-ads* instead — the
//! `DaemonAd = true` telemetry classads every daemon publishes about
//! itself (see `docs/observability.md`). Works in both modes; combine
//! with `--connect` to inspect a live daemon's counters.
//!
//! `--peers` prints the federation view: the matchmaker's flock peer
//! table (`FlockPeerTable` in its self-ad) and both directions of flock
//! traffic. Combine with `--connect` to inspect a live federated pool;
//! without it a demo self-ad shows the format.
//!
//! `--tail <journal.jsonl>` follows a daemon's event journal instead,
//! pretty-printing each event with its trace/span ids as it is appended —
//! `tail -f` for the pool's causal history. `--from-start` replays the
//! whole file first; `--for <secs>` exits after a fixed watch window
//! (handy in scripts and CI).
//!
//! `--journal <journal.jsonl>` is the one-shot audit counterpart of
//! `--tail`: replay the whole journal (rotated generations included),
//! count records by kind, report replay health (torn lines, lines of an
//! unknown future kind), and locate the recovery position — the last
//! `Checkpoint` plus the tail a restarting or newly elected matchmaker
//! would replay (see `docs/protocol.md` §13).
//!
//! The next three modes read the matchmaker's own collections with the
//! same `Query` message, pinned by `other.MyType` (`docs/protocol.md` §6):
//!
//! `--history <metric>` reads the pool-history subsystem: the
//! `HistorySeries` collection, selected by series metadata, fetches the
//! matching retained time series and prints each tier's samples
//! (`docs/observability.md` §6). Use a metric name like `Utilization` or
//! `MatchRate`, or `all` for every series; `--limit N` shows only the
//! newest N samples of each series. A daemon running without the view
//! answers with a structured error, which surfaces here as a clean
//! failure. Without `--connect` a demo store shows the format.
//!
//! `--alerts [constraint]` reads the pool health monitor: the
//! `AlertState` collection holds the monitor's per-(rule, subject) state
//! — firing and quiet — printed one row per alert
//! (`docs/observability.md` §7). The optional constraint defaults to
//! `true`; try `'other.State == "firing"'` or
//! `'other.Severity == "critical"'`. A daemon running without the alarm
//! answers with a structured error. Without `--connect` a demo monitor
//! shows the format.
//!
//! `--analyze <job>` asks "why doesn't my job run?" — the paper §5
//! diagnosis question. Against a live daemon it queries the
//! `MatchAnalysis` collection for that request name and renders the
//! reply; locally it runs the same analysis against the demo pool through
//! an attribution-enabled matchmaker. Either way the answer names the
//! failing constraint clause and breaks the pool down by rejection
//! reason.

use classad::{ClassAd, EvalPolicy, MatchConventions, Value};
use condor_obs::trace::format_id;
use condor_obs::Record;
use condor_pool::wire::{self, IoConfig};
use matchmaker::prelude::*;
use matchmaker::protocol::{Message, Timestamp};
use matchmaker::query::{attr_is, Collection};
use std::io::{Read as _, Seek, SeekFrom};
use std::time::{Duration, Instant};

const COLUMNS: [&str; 7] = ["Name", "Arch", "OpSys", "Mips", "Memory", "State", "Owner"];

/// The demo pool: five machines, two runnable jobs, and one job whose
/// constraint nothing can satisfy (fodder for `--analyze`).
fn demo_ads() -> Vec<Advertisement> {
    let mut ads = Vec::new();
    let machines = [
        ("leonardo", "INTEL", "SOLARIS251", 104, 64, "Unclaimed"),
        ("raphael", "INTEL", "SOLARIS251", 120, 128, "Claimed"),
        ("donatello", "SPARC", "SOLARIS251", 80, 256, "Unclaimed"),
        ("michelangelo", "INTEL", "LINUX", 140, 64, "Owner"),
        ("splinter", "SPARC", "SOLARIS251", 60, 64, "Unclaimed"),
    ];
    for (name, arch, os, mips, mem, state) in machines {
        let ad = classad::parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Machine"; Arch = "{arch}"; OpSys = "{os}";
                 Mips = {mips}; Memory = {mem}; State = "{state}";
                 Constraint = other.Type == "Job"; Rank = 0 ]"#
        ))
        .unwrap();
        ads.push(Advertisement {
            kind: EntityKind::Provider,
            ad,
            contact: format!("{name}:9614"),
            ticket: None,
            expires_at: 1000,
        });
    }
    let jobs = [
        ("raman.0", "raman", 31, r#"other.Type == "Machine""#),
        ("miron.0", "miron", 64, r#"other.Type == "Machine""#),
        (
            "picky.0",
            "picky",
            64,
            r#"other.Type == "Machine" && other.Mips >= 10000"#,
        ),
    ];
    for (name, owner, mem, constraint) in jobs {
        let ad = classad::parse_classad(&format!(
            r#"[ Name = "{name}"; Type = "Job"; Owner = "{owner}"; Memory = {mem};
                 Constraint = {constraint}; Rank = 0 ]"#
        ))
        .unwrap();
        ads.push(Advertisement {
            kind: EntityKind::Customer,
            ad,
            contact: format!("{owner}-ca:1"),
            ticket: None,
            expires_at: 1000,
        });
    }
    ads
}

fn advertise_pool(store: &mut AdStore, proto: &AdvertisingProtocol) {
    for adv in demo_ads() {
        store.advertise(adv, 0, proto).unwrap();
    }
}

fn print_table(title: &str, constraint: &str, results: &[ClassAd]) {
    let policy = EvalPolicy::default();
    println!("$ condor_status -constraint '{constraint}'   # {title}");
    println!(
        "{:<14}{:<8}{:<12}{:>6}{:>8}  {:<10}{:<8}",
        "NAME", "ARCH", "OPSYS", "MIPS", "MEMORY", "STATE", "OWNER"
    );
    for ad in results {
        let s = |attr: &str| match ad.eval_attr(attr, &policy) {
            Value::Str(v) => v.to_string(),
            Value::Int(v) => v.to_string(),
            _ => String::new(),
        };
        println!(
            "{:<14}{:<8}{:<12}{:>6}{:>8}  {:<10}{:<8}",
            s("Name"),
            s("Arch"),
            s("OpSys"),
            s("Mips"),
            s("Memory"),
            s("State"),
            s("Owner"),
        );
    }
    println!("  ({} ad(s) matched)\n", results.len());
}

/// Run one query against the in-memory store.
fn query_local(store: &AdStore, constraint: &str, kind: Option<EntityKind>) -> Vec<ClassAd> {
    let policy = EvalPolicy::default();
    let conv = MatchConventions::default();
    let mut q = Query::from_constraint(constraint).unwrap().select(&COLUMNS);
    q.kind = kind;
    let now: Timestamp = 0;
    q.run_projected(store, now, &policy, &conv)
}

/// Pretty-print daemon self-ads: identity header, then every attribute
/// sorted by name — the full counter set, not a fixed column list.
fn print_stats(my_type: &str, ads: &[ClassAd]) {
    println!(
        "$ condor_status -constraint '{}'",
        condor_obs::self_ad_constraint(my_type)
    );
    if ads.is_empty() {
        println!("  (no {my_type} self-ads published)\n");
        return;
    }
    for ad in ads {
        println!(
            "  {} — {} (up {}s)",
            ad.get_string("Name").unwrap_or("?"),
            my_type,
            ad.get_int("UptimeSecs").unwrap_or(0)
        );
        let mut attrs: Vec<_> = ad
            .iter()
            .map(|(n, e)| (n.as_str().to_owned(), e.to_string()))
            .collect();
        attrs.sort();
        for (name, expr) in attrs {
            println!("    {name:<28}= {expr}");
        }
    }
    println!();
}

/// In local mode there is no live daemon, so fabricate a matchmaker
/// self-ad the same way a real daemon does: a metrics registry snapshot
/// rendered through `condor_obs::self_ad` and advertised into the store.
fn advertise_demo_self_ad(store: &mut AdStore, proto: &AdvertisingProtocol) {
    use condor_obs::schema;
    let registry = condor_obs::Registry::new();
    registry.counter(schema::CYCLES).add(12);
    registry.counter(schema::MATCHES).add(7);
    registry.counter(schema::REQUESTS_CONSIDERED).add(9);
    registry.counter(schema::CONNECTIONS_ACCEPTED).add(31);
    registry.gauge(schema::ACTIVE_CONNECTIONS).set(1);
    let ad = condor_obs::self_ad(
        "matchmaker#stats",
        schema::MATCHMAKER_STATS,
        42,
        &registry.snapshot(),
    );
    store
        .advertise(
            Advertisement {
                kind: EntityKind::Provider,
                ad,
                contact: "matchmaker:9618".into(),
                ticket: None,
                expires_at: 1000,
            },
            0,
            proto,
        )
        .unwrap();
}

/// `--peers`: render the federation view from a matchmaker self-ad —
/// the aggregate flock counters plus the per-peer table the daemon
/// publishes as `FlockPeerTable` (see `docs/protocol.md` §14).
fn print_peers(ad: &ClassAd) {
    let int = |attr: &str| ad.get_int(attr).unwrap_or(0);
    println!(
        "matchmaker {} — federation (flocking)",
        ad.get_string("Name").unwrap_or("?")
    );
    println!(
        "  peers: {} up / {} down / {} pre-flock",
        int("FlockPeersUp"),
        int("FlockPeersDown"),
        int("FlockPeersNonFlocking"),
    );
    println!(
        "  queries: {} sent / {} received   grants {}   rejects {}",
        int("FlockQueriesSent"),
        int("FlockQueriesReceived"),
        int("FlockGrants"),
        int("FlockRejects"),
    );
    println!(
        "  jobs flocked {}   remote matches {}",
        int("JobsFlocked"),
        int("FlockMatches"),
    );
    match ad.get_string("FlockPeerTable") {
        Some(table) if !table.is_empty() => {
            println!("  peer table:");
            for row in table.split(" | ") {
                println!("    {row}");
            }
        }
        _ => println!("  peer table: (no flock peers configured)"),
    }
}

/// The demo self-ad for `--peers` without `--connect`: the counters and
/// peer table a small federated pool would publish.
fn demo_flock_self_ad() -> ClassAd {
    use condor_obs::schema;
    let registry = condor_obs::Registry::new();
    registry.counter(schema::FLOCK_QUERIES_SENT).add(3);
    registry.counter(schema::FLOCK_MATCHES).add(1);
    registry.counter(schema::JOBS_FLOCKED).add(1);
    registry.gauge(schema::FLOCK_PEERS_UP).set(1);
    registry.gauge(schema::FLOCK_PEERS_NON_FLOCKING).set(1);
    let mut ad = condor_obs::self_ad(
        "matchmaker#stats",
        schema::MATCHMAKER_STATS,
        42,
        &registry.snapshot(),
    );
    ad.set_str(
        "FlockPeerTable",
        "poolB:9614 up sent=3 grants=1 | poolC:9614 non-flocking sent=1 grants=0",
    );
    ad
}

/// Run one query against a live daemon over TCP; exit on failure.
fn query_remote(
    addr: &str,
    constraint: &str,
    kind: Option<EntityKind>,
    projection: &[&str],
) -> Vec<ClassAd> {
    let msg = Message::Query {
        constraint: constraint.to_string(),
        kind,
        projection: projection.iter().map(|s| s.to_string()).collect(),
    };
    match wire::request_reply(addr, &msg, &IoConfig::default()) {
        Ok(Message::QueryReply { ads }) => ads,
        Ok(other) => {
            eprintln!("unexpected reply from {addr}: {other:?}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("query to {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Pretty-print a `MatchAnalysis` classad the way `condor_q -analyze`
/// would: verdict first, then the blamed clause, then the full breakdown.
fn print_analysis(name: &str, ad: &ClassAd) {
    println!("$ condor_q -analyze {name}");
    let found = ad.get("Found").map(|e| e.to_string());
    if found.as_deref() != Some("true") {
        println!("  no request named {name:?} is advertised\n");
        return;
    }
    let matches_now = ad.get_int("MatchesNow").unwrap_or(0);
    let pool = ad.get_int("PoolSize").unwrap_or(0);
    println!("  {matches_now} of {pool} offer(s) match this request right now");
    if let Some(c) = ad.get_string("RequestConstraint") {
        println!("  constraint: {c}");
    }
    if let Some(r) = ad.get_string("TopReason") {
        println!("  top reason: {r}");
    }
    match (ad.get_string("FailingClause"), ad.get_string("FailingAttr")) {
        (Some(clause), _) => {
            let side = ad.get_string("FailingSide").unwrap_or("?");
            println!("  failing clause ({side} side): {clause}");
        }
        (None, Some(attr)) => {
            let side = ad.get_string("FailingSide").unwrap_or("?");
            println!("  undefined attribute ({side} side): {attr}");
        }
        _ => {}
    }
    if let Some(b) = ad.get_string("RejectBreakdown") {
        println!("  breakdown: {b}");
    }
    if let Some(cycle) = ad.get_int("Cycle") {
        println!("  last negotiation cycle: {cycle}");
        if let Some(r) = ad.get_string("LastCycleRejections") {
            println!("  last cycle said: {r}");
        }
    }
    println!();
}

/// `--history`: fetch and render retained time series, the newest
/// `limit` samples of each (`0` = all). Local mode fabricates a small
/// store so the output format is inspectable offline.
fn history_mode(connect: Option<&str>, metric: &str, limit: usize) {
    let conjuncts = match metric {
        "all" => vec![],
        m => vec![attr_is("Metric", m)],
    };
    let constraint = Collection::HistorySeries.constraint(&conjuncts);
    let ads = match connect {
        Some(addr) => query_remote(addr, &constraint, None, &[]),
        None => demo_history_ads(&constraint),
    };
    println!("$ condor_view -constraint '{constraint}'");
    if ads.is_empty() {
        println!("  (no series matched)");
        return;
    }
    for ad in &ads {
        print_series(&condor_view::keep_newest(ad, limit));
    }
}

/// Render one `HistorySeries` ad: identity line, then `time  value` rows
/// (gauges add min/max so a downsampled bucket shows its spread).
fn print_series(ad: &ClassAd) {
    let int = |attr: &str| ad.get_int(attr).unwrap_or(0);
    println!(
        "  {} — {} ({}s buckets, tier {}, {} point(s){})",
        ad.get_string("Name").unwrap_or("?"),
        ad.get_string("Kind").unwrap_or("?"),
        int("IntervalSecs"),
        int("Tier"),
        int("Points"),
        match ad.get("Integral").map(|e| e.to_string()) {
            Some(i) => format!(", integral {i}"),
            None => String::new(),
        }
    );
    let split = |attr: &str| -> Vec<String> {
        ad.get_string(attr)
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_default()
    };
    let times = split("Times");
    let data = split("Data");
    let mins = split("DataMin");
    let maxs = split("DataMax");
    let absent = split("Absent");
    let gauge = ad.get_string("Kind") == Some("Gauge");
    for (i, t) in times.iter().enumerate() {
        let v = data.get(i).map(String::as_str).unwrap_or("?");
        let gone = absent.get(i).is_some_and(|a| a == "1");
        if gauge {
            println!(
                "    {t}  {v:>12}  (min {} max {}){}",
                mins.get(i).map(String::as_str).unwrap_or("?"),
                maxs.get(i).map(String::as_str).unwrap_or("?"),
                if gone { "  [absent]" } else { "" }
            );
        } else {
            println!("    {t}  {v:>12}/s{}", if gone { "  [absent]" } else { "" });
        }
    }
}

/// Answer `constraint` over a collection's ads in process, as a daemon
/// would.
fn select_local(constraint: &str, ads: &[ClassAd]) -> Vec<ClassAd> {
    let q = Query::from_constraint(constraint).unwrap_or_else(|e| {
        eprintln!("bad constraint: {e}");
        std::process::exit(2);
    });
    q.select_from(ads, &EvalPolicy::default(), &MatchConventions::default())
}

/// The `--history` demo without a daemon: a minute of a small pool's
/// life, downsampled by a real store.
fn demo_history_ads(constraint: &str) -> Vec<ClassAd> {
    use condor_view::{metric, HistoryConfig, HistoryStore, LOCAL_POOL, POOL_SOURCE};
    let mut store = HistoryStore::new(HistoryConfig::single(10, 32));
    let mut matches = 0.0;
    for step in 0..12u64 {
        let unix = 946684800 + step * 5;
        let claimed = (step as f64 / 12.0).min(1.0);
        store.record_gauge(LOCAL_POOL, metric::UTILIZATION, POOL_SOURCE, unix, claimed);
        matches += if step % 3 == 0 { 2.0 } else { 0.0 };
        store.record_counter(LOCAL_POOL, metric::MATCH_RATE, POOL_SOURCE, unix, matches);
    }
    // One machine left the pool mid-window: an absent tombstone.
    store.record_gauge(LOCAL_POOL, metric::CLAIMED, "ra-splinter", 946684800, 1.0);
    store.record_absent(LOCAL_POOL, "ra-splinter", 946684830);
    select_local(constraint, &store.series_ads())
}

/// `--alerts`: fetch and render the pool health monitor's alert state.
/// Local mode runs a demo monitor over a synthetic dead flock peer so the
/// output format is inspectable offline.
fn alerts_mode(connect: Option<&str>, user: &str) {
    let constraint = Collection::AlertState.constraint(&[user]);
    let ads = match connect {
        Some(addr) => query_remote(addr, &constraint, None, &[]),
        None => demo_alert_ads(&constraint),
    };
    println!("$ condor_alerts -constraint '{user}'");
    if ads.is_empty() {
        println!("  (no alerts matched)");
        return;
    }
    for ad in &ads {
        print_alert(ad);
    }
}

/// Render one `AlertState` ad as a grep-friendly row: state, severity,
/// rule@subject, then the attribution (the conjunct that tripped while
/// firing, or the one currently holding the rule back).
fn print_alert(ad: &ClassAd) {
    let firing = ad.get_string("State") == Some("firing");
    println!(
        "  {:<7} {:<9} {}",
        if firing { "FIRING" } else { "ok" },
        ad.get_string("Severity").unwrap_or("?"),
        ad.get_string("Name").unwrap_or("?"),
    );
    if let Some(detail) = ad.get_string("Detail") {
        if !detail.is_empty() {
            println!(
                "          {} {detail}",
                if firing { "tripped:" } else { "blocked:" }
            );
        }
    }
    if firing {
        println!("          since {}", ad.get_int("Since").unwrap_or(0));
    }
}

/// The `--alerts` demo without a daemon: a monitor running the default
/// rule pack over a pool whose flock peer just stopped answering.
fn demo_alert_ads(constraint: &str) -> Vec<ClassAd> {
    let monitor =
        condor_alarm::Monitor::with_default_pack(&[], condor_alarm::MonitorConfig::default())
            .expect("default pack validates");
    let mut peer = ClassAd::new();
    peer.set_str("MyType", condor_alarm::PRESENCE_AD_TYPE);
    peer.set_str("Name", "poolB/pool");
    peer.set_str("Pool", "poolB");
    peer.set_str("Source", "pool");
    peer.set_int("AbsentTail", 3);
    peer.set_int("AbsentCount", 3);
    monitor.evaluate(&[peer], 946684800);
    select_local(constraint, &monitor.state_ads())
}

/// `--analyze` against a live daemon: the `MatchAnalysis` collection's
/// ad for `name`. A daemon that predates the collection answers with no
/// ad at all.
fn analyze_remote(addr: &str, name: &str) -> ClassAd {
    let constraint = Collection::MatchAnalysis.constraint(&[attr_is("Name", name)]);
    let Some(ad) = query_remote(addr, &constraint, None, &[])
        .into_iter()
        .next()
    else {
        eprintln!("{addr} returned no MatchAnalysis for {name:?}");
        std::process::exit(1);
    };
    ad
}

/// `--analyze` without a daemon: stand up an attribution-enabled
/// matchmaker over the demo pool, run one negotiation cycle so the
/// per-cycle rejection tables fill, then ask it the same question.
fn analyze_local(name: &str) -> ClassAd {
    let mm = Matchmaker::new(NegotiatorConfig {
        attribution: true,
        ..NegotiatorConfig::default()
    });
    for adv in demo_ads() {
        mm.advertise(adv, 0).unwrap();
    }
    mm.negotiate(0);
    mm.analyze(name, 0)
}

/// Pretty-print one journal record: sequence, timestamp, trace ids when
/// present, then the event. One line per record, grep-friendly.
fn print_record(r: &Record) {
    let ids = match &r.span {
        Some(s) => format!(
            "trace={} span={} parent={}",
            format_id(s.trace_id),
            format_id(s.span_id),
            format_id(s.parent_span_id)
        ),
        None => "untraced".to_string(),
    };
    println!(
        "seq {:>6}  {}.{:03}  {:<58}  {:?}",
        r.seq,
        r.unix_ms / 1000,
        r.unix_ms % 1000,
        ids,
        r.event
    );
}

/// Follow a journal file like `tail -f`, decoding each appended line.
/// Torn trailing lines are retried on the next poll; a shrinking file
/// (rotation) resets the read position to the new start.
/// `--journal`: replay the whole journal once and print an audit digest —
/// counts by event kind, replay health, and the recovery position a
/// restarting (or newly elected) matchmaker would resume from.
fn summarize_journal(path: &str) {
    use condor_obs::journal::{replay_with_stats, Event};

    let (records, stats) = match replay_with_stats(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot replay {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("journal {path}");
    println!(
        "  records decoded: {}  (torn lines skipped: {}, unknown kinds skipped: {})",
        stats.records, stats.torn, stats.unknown_kind
    );
    if let (Some(first), Some(last)) = (records.first(), records.last()) {
        println!(
            "  span: seq {}..{}, {} seconds of pool history",
            first.seq,
            last.seq,
            last.unix.saturating_sub(first.unix)
        );
    }

    let mut by_kind = std::collections::BTreeMap::<&'static str, u64>::new();
    for r in &records {
        *by_kind.entry(r.event.kind()).or_default() += 1;
    }
    for (kind, n) in &by_kind {
        println!("  {kind:<17} {n}");
    }

    // The recovery position: what `condor-ha` would rebuild on restart.
    match records
        .iter()
        .enumerate()
        .rev()
        .find(|(_, r)| matches!(r.event, Event::Checkpoint { .. }))
    {
        Some((i, r)) => {
            if let Event::Checkpoint {
                epoch,
                ads,
                matches,
                ..
            } = &r.event
            {
                println!(
                    "  last checkpoint: seq {} (epoch {epoch}, {ads} ads, {matches} open matches)",
                    r.seq
                );
                println!(
                    "  recovery = that snapshot + a {}-record tail",
                    records.len() - i - 1
                );
            }
        }
        None => println!("  no checkpoint: a restart would rebuild from re-advertisement alone"),
    }
}

fn tail_journal(path: &str, from_start: bool, watch_for: Option<Duration>) {
    let mut file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut pos = if from_start {
        0
    } else {
        file.seek(SeekFrom::End(0)).unwrap_or(0)
    };
    let deadline = watch_for.map(|d| Instant::now() + d);
    let mut pending = String::new();
    eprintln!("tailing {path} (Ctrl-C to quit)");
    loop {
        // Rotation/truncation: the file restarted beneath us.
        if let Ok(meta) = std::fs::metadata(path) {
            if meta.len() < pos {
                pos = 0;
                pending.clear();
                // The path may now be a fresh inode; reopen.
                if let Ok(f) = std::fs::File::open(path) {
                    file = f;
                }
            }
        }
        let _ = file.seek(SeekFrom::Start(pos));
        let mut chunk = String::new();
        if file.read_to_string(&mut chunk).is_ok() && !chunk.is_empty() {
            pos += chunk.len() as u64;
            pending.push_str(&chunk);
            // Only complete lines decode; the remainder is a torn write
            // still in flight and stays buffered for the next poll.
            while let Some(nl) = pending.find('\n') {
                let line: String = pending.drain(..=nl).collect();
                let line = line.trim_end();
                if line.is_empty() {
                    continue;
                }
                match Record::decode(line) {
                    Some(r) => print_record(&r),
                    None => println!("(undecodable line: {line})"),
                }
            }
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn main() {
    // `--connect host:port` switches from the built-in demo pool to a live
    // matchmaker daemon.
    let args: Vec<String> = std::env::args().collect();
    let connect = args.iter().position(|a| a == "--connect").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!(
                "usage: status_query [--connect host:port] [--stats] [--peers] \
                 [--history metric [--limit n]] [--alerts [constraint]] \
                 [--analyze request-name] \
                 [--tail journal.jsonl [--from-start] [--for secs]] \
                 [--journal journal.jsonl]"
            );
            std::process::exit(2);
        })
    });
    let stats = args.iter().any(|a| a == "--stats");
    if args.iter().any(|a| a == "--peers") {
        let ad = match &connect {
            Some(addr) => {
                let constraint =
                    condor_obs::self_ad_constraint(condor_obs::schema::MATCHMAKER_STATS);
                let Some(ad) = query_remote(addr, &constraint, None, &[])
                    .into_iter()
                    .next()
                else {
                    eprintln!("no matchmaker self-ad published yet at {addr}");
                    std::process::exit(1);
                };
                ad
            }
            None => demo_flock_self_ad(),
        };
        print_peers(&ad);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--analyze") {
        let Some(name) = args.get(i + 1) else {
            eprintln!("--analyze takes a request name");
            std::process::exit(2);
        };
        let ad = match &connect {
            Some(addr) => analyze_remote(addr, name),
            None => analyze_local(name),
        };
        print_analysis(name, &ad);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--history") {
        let Some(metric) = args.get(i + 1) else {
            eprintln!("--history takes a metric name (or `all`)");
            std::process::exit(2);
        };
        let limit = args
            .iter()
            .position(|a| a == "--limit")
            .and_then(|i| args.get(i + 1))
            .map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("--limit takes a sample count");
                    std::process::exit(2);
                })
            })
            .unwrap_or(0);
        history_mode(connect.as_deref(), metric, limit);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--alerts") {
        let constraint = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("true");
        alerts_mode(connect.as_deref(), constraint);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--journal") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--journal takes a journal path");
            std::process::exit(2);
        };
        summarize_journal(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--tail") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--tail takes a journal path");
            std::process::exit(2);
        };
        let from_start = args.iter().any(|a| a == "--from-start");
        let watch_for = args
            .iter()
            .position(|a| a == "--for")
            .and_then(|i| args.get(i + 1))
            .map(|s| {
                Duration::from_secs_f64(s.parse().unwrap_or_else(|_| {
                    eprintln!("--for takes seconds");
                    std::process::exit(2);
                }))
            });
        tail_journal(path, from_start, watch_for);
        return;
    }

    let local_store = if connect.is_none() {
        let proto = AdvertisingProtocol::default();
        let mut store = AdStore::new();
        advertise_pool(&mut store, &proto);
        if stats {
            advertise_demo_self_ad(&mut store, &proto);
        }
        Some(store)
    } else {
        None
    };

    if stats {
        // Browse telemetry instead of machines: one query per self-ad type,
        // unprojected so every counter shows.
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();
        for my_type in [
            condor_obs::schema::MATCHMAKER_STATS,
            condor_obs::schema::RESOURCE_AGENT_STATS,
            condor_obs::schema::CUSTOMER_AGENT_STATS,
        ] {
            let constraint = condor_obs::self_ad_constraint(my_type);
            let ads: Vec<ClassAd> = match (&connect, &local_store) {
                (Some(addr), _) => query_remote(addr, &constraint, None, &[]),
                (None, Some(store)) => Query::from_constraint(&constraint)
                    .unwrap()
                    .run(store, 0, &policy, &conv)
                    .into_iter()
                    .map(|s| (*s.ad).clone())
                    .collect(),
                (None, None) => unreachable!(),
            };
            print_stats(my_type, &ads);
        }
        return;
    }

    let run = |title: &str, constraint: &str, kind: Option<EntityKind>| {
        let results = match (&connect, &local_store) {
            (Some(addr), _) => query_remote(addr, constraint, kind, &COLUMNS),
            (None, Some(store)) => query_local(store, constraint, kind),
            (None, None) => unreachable!(),
        };
        print_table(title, constraint, &results);
    };

    if let Some(addr) = &connect {
        println!("querying live matchmaker at {addr} over TCP\n");
    }
    run("everything", "true", None);
    run(
        "available fast INTEL machines",
        r#"other.Type == "Machine" && other.Arch == "INTEL" && other.State == "Unclaimed" && other.Mips >= 100"#,
        Some(EntityKind::Provider),
    );
    run(
        "big-memory machines (any state)",
        r#"other.Type == "Machine" && other.Memory >= 128"#,
        Some(EntityKind::Provider),
    );
    run(
        "the job queue",
        r#"other.Type == "Job""#,
        Some(EntityKind::Customer),
    );
    run(
        "ads with no State attribute (three-valued logic at work)",
        "other.State is undefined",
        None,
    );
}
