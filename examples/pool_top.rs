//! `pool_top` — a `top`-style live view of pool health, built entirely on
//! daemon self-ads (see `docs/observability.md`). Every daemon publishes a
//! `DaemonAd = true` classad into the matchmaker's ad store; this tool
//! polls them with ordinary `Query` messages — the paper's one-way
//! matching protocol — so there is no bespoke monitoring RPC to speak.
//!
//! Run against a live daemon (see `examples/live_pool.rs`):
//!
//! ```text
//! cargo run --example pool_top -- --connect 127.0.0.1:9618
//! ```
//!
//! or with no arguments to spawn a small demo pool in-process and watch
//! it converge. `--interval <secs>` sets the refresh period (default 2);
//! `--once` renders a single frame without clearing the screen — handy
//! for scripts and CI logs; `--no-color` strips ANSI styling *and*
//! cursor control, turning the live loop into an append-only log.
//!
//! Live frames are drawn by diffing against the previous frame and
//! repainting only the lines that changed (cursor-addressed, no
//! full-screen clear), so the display never flickers.

use classad::{ClassAd, Expr, Literal};
use condor_obs::{schema, self_ad_constraint};
use condor_pool::wire::{self, IoConfig};
use condor_pool::PoolBuilder;
use matchmaker::protocol::Message;
use std::fmt::Write as _;
use std::time::Duration;

/// Append one line (or, with no format args, a blank line) to the frame.
macro_rules! wl {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($t:tt)*) => {{
        let _ = writeln!($out, $($t)*);
    }};
}

/// Append without the newline.
macro_rules! w {
    ($out:expr, $($t:tt)*) => {{
        let _ = write!($out, $($t)*);
    }};
}

fn int(ad: &ClassAd, attr: &str) -> i64 {
    ad.get_int(attr).unwrap_or(0)
}

fn real(ad: &ClassAd, attr: &str) -> Option<f64> {
    match ad.get(attr).map(|e| e.as_ref()) {
        Some(Expr::Lit(Literal::Real(v))) => Some(*v),
        Some(Expr::Lit(Literal::Int(v))) => Some(*v as f64),
        _ => None,
    }
}

fn stats_ads(addr: &str, my_type: &str) -> Vec<ClassAd> {
    let msg = Message::Query {
        constraint: self_ad_constraint(my_type),
        kind: None,
        projection: vec![],
    };
    match wire::request_reply(addr, &msg, &IoConfig::default()) {
        Ok(Message::QueryReply { mut ads }) => {
            ads.sort_by(|a, b| a.get_string("Name").cmp(&b.get_string("Name")));
            ads
        }
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

fn render_matchmaker(out: &mut String, ads: &[ClassAd], color: bool) {
    let Some(ad) = ads.first() else {
        wl!(out, "MATCHMAKER    (no self-ad yet)");
        return;
    };
    wl!(
        out,
        "MATCHMAKER    {}   up {}s",
        ad.get_string("Name").unwrap_or("?"),
        int(ad, "UptimeSecs"),
    );
    // Leadership: a lone daemon leads at epoch 0; HA members carry their
    // elected epoch, standby count, and (when standing by) the leader's
    // contact for the redirect.
    if ad.contains("IsLeader") {
        let leading = matches!(
            ad.get("IsLeader").map(|e| e.as_ref()),
            Some(Expr::Lit(Literal::Bool(true)))
        );
        let role = if leading { "leader" } else { "standby" };
        w!(
            out,
            "  ha: {role} epoch {}   standbys {}",
            int(ad, "LeaderEpoch"),
            int(ad, "StandbyCount"),
        );
        if let Some(contact) = ad.get_string("LeaderContact") {
            w!(out, "   leader at {contact}");
        }
        wl!(
            out,
            "   elections won {}  redirects {}  checkpoints {}",
            int(ad, "ElectionsWon"),
            int(ad, "LeaderRedirects"),
            int(ad, "CheckpointsWritten"),
        );
    }
    // Alerting: one line for the firing set, severity-sorted by the
    // monitor itself (`ActiveAlertSummary`). Quiet pools with the alarm
    // on show "alerts: none"; pools without it show nothing.
    if ad.contains("ActiveAlerts") || ad.contains("AlertsRaisedTotal") {
        let active = int(ad, "ActiveAlerts");
        let (red, reset) = if color && active > 0 {
            ("\x1b[1;31m", "\x1b[0m")
        } else {
            ("", "")
        };
        match ad.get_string("ActiveAlertSummary") {
            Some(summary) if active > 0 => {
                wl!(out, "  {red}alerts: {active} firing — {summary}{reset}")
            }
            _ => wl!(
                out,
                "  alerts: none   ({} raised / {} cleared over {} rules)",
                int(ad, "AlertsRaisedTotal"),
                int(ad, "AlertsClearedTotal"),
                int(ad, "AlertRules"),
            ),
        }
    }
    // Federation: the peer table summary plus both directions of flock
    // traffic. A pool that neither forwards nor answers shows nothing.
    if ad.contains("FlockPeerTable")
        || int(ad, "FlockQueriesSent") > 0
        || int(ad, "FlockQueriesReceived") > 0
    {
        wl!(out,
            "  flocking: peers {} up / {} down / {} pre-flock   flocked jobs {}   remote matches {}",
            int(ad, "FlockPeersUp"),
            int(ad, "FlockPeersDown"),
            int(ad, "FlockPeersNonFlocking"),
            int(ad, "JobsFlocked"),
            int(ad, "FlockMatches"),
        );
        wl!(
            out,
            "    queries {} sent / {} received   grants {}   rejects {}",
            int(ad, "FlockQueriesSent"),
            int(ad, "FlockQueriesReceived"),
            int(ad, "FlockGrants"),
            int(ad, "FlockRejects"),
        );
    }
    wl!(
        out,
        "  cycles {:<6} matches {:<6} requests {:<6} unmatched {:<6} expired {}",
        int(ad, "Cycles"),
        int(ad, "MatchesTotal"),
        int(ad, "RequestsConsideredTotal"),
        int(ad, "UnmatchedRequestsTotal"),
        int(ad, "AdsExpiredTotal"),
    );
    wl!(
        out,
        "  conns {} (active {})  frames {} ({} rejected)  notify {} sent / {} failed",
        int(ad, "ConnectionsAccepted"),
        int(ad, "ActiveConnections"),
        int(ad, "FramesHandled"),
        int(ad, "FramesRejected"),
        int(ad, "NotificationsSent"),
        int(ad, "NotificationsFailed"),
    );
    w!(
        out,
        "  last cycle: {} req / {} offers / {} matches",
        int(ad, "LastCycleRequests"),
        int(ad, "LastCycleOffers"),
        int(ad, "LastCycleMatches"),
    );
    if let (Some(p50), Some(p99)) = (
        real(ad, "CycleDurationMsP50"),
        real(ad, "CycleDurationMsP99"),
    ) {
        w!(out, "   cycle p50 {p50:.2}ms p99 {p99:.2}ms");
    }
    if ad.contains("JournalPosition") {
        w!(
            out,
            "   journal seq {} ({} io errors, {} dropped)",
            int(ad, "JournalPosition"),
            int(ad, "JournalIoErrors"),
            int(ad, "JournalDropped"),
        );
    }
    wl!(out);
    wl!(
        out,
        "  incremental: {} cycles   dirty resources {}",
        int(ad, "IncrementalCycles"),
        int(ad, "DirtyResources"),
    );
    // Attribution summary: why the last cycle's unmatched requests went
    // unmatched, straight from the negotiator's rejection tables.
    if let Some(reasons) = ad.get_string("RejectionTopReasons") {
        wl!(out, "  rejections (top reasons): {reasons}");
    }
    wl!(
        out,
        "  wire: {} frames in / {} out   {} in / {} out",
        int(ad, "FramesIn"),
        int(ad, "FramesOut"),
        human_bytes(int(ad, "BytesIn")),
        human_bytes(int(ad, "BytesOut")),
    );
    let phase = |label: &str, base: &str| -> String {
        if let (Some(mean), Some(p99)) = (
            real(ad, &format!("{base}Mean")),
            real(ad, &format!("{base}P99")),
        ) {
            format!("   {label} mean {mean:.1}ms p99 {p99:.1}ms")
        } else {
            String::new()
        }
    };
    wl!(
        out,
        "  phases:{}{}",
        phase("queue-wait", "PhaseQueueWaitMs"),
        phase("negotiation", "PhaseNegotiationMs")
    );
}

/// Render a byte count with a binary-unit suffix (`14.2KiB`).
fn human_bytes(n: i64) -> String {
    let n = n.max(0) as f64;
    if n >= 1024.0 * 1024.0 {
        format!("{:.1}MiB", n / (1024.0 * 1024.0))
    } else if n >= 1024.0 {
        format!("{:.1}KiB", n / 1024.0)
    } else {
        format!("{n:.0}B")
    }
}

fn render_resources(out: &mut String, ads: &[ClassAd]) {
    wl!(out, "RESOURCE AGENTS ({})", ads.len());
    if ads.is_empty() {
        return;
    }
    wl!(
        out,
        "  {:<20}{:>8}{:>10}{:>10}{:>8}{:>12}{:>8}",
        "NAME",
        "CLAIMED",
        "ACCEPTED",
        "REJECTED",
        "ADS",
        "FRAMES(I/O)",
        "UP"
    );
    for ad in ads {
        wl!(
            out,
            "  {:<20}{:>8}{:>10}{:>10}{:>8}{:>12}{:>7}s",
            ad.get_string("Machine")
                .or_else(|| ad.get_string("Name"))
                .unwrap_or("?"),
            if int(ad, "Claimed") == 1 { "yes" } else { "no" },
            int(ad, "ClaimsAccepted"),
            int(ad, "ClaimsRejected"),
            int(ad, "AdsSent"),
            format!("{}/{}", int(ad, "FramesIn"), int(ad, "FramesOut")),
            int(ad, "UptimeSecs"),
        );
    }
}

fn render_customers(out: &mut String, ads: &[ClassAd]) {
    wl!(out, "CUSTOMER AGENTS ({})", ads.len());
    if ads.is_empty() {
        return;
    }
    wl!(
        out,
        "  {:<20}{:>10}{:>8}{:>9}{:>8}{:>8}{:>12}{:>8}",
        "USER",
        "SUBMITTED",
        "IDLE",
        "CLAIMED",
        "FAILED",
        "ADS",
        "FRAMES(I/O)",
        "UP"
    );
    for ad in ads {
        wl!(
            out,
            "  {:<20}{:>10}{:>8}{:>9}{:>8}{:>8}{:>12}{:>7}s",
            ad.get_string("User")
                .or_else(|| ad.get_string("Name"))
                .unwrap_or("?"),
            int(ad, "JobsSubmitted"),
            int(ad, "JobsIdle"),
            int(ad, "JobsClaimed"),
            int(ad, "JobsFailed"),
            int(ad, "AdsSent"),
            format!("{}/{}", int(ad, "FramesIn"), int(ad, "FramesOut")),
            int(ad, "UptimeSecs"),
        );
    }
}

/// Build one complete frame as a string — no terminal control codes, so
/// it can be printed verbatim (`--once`, `--no-color`) or diffed against
/// the previous frame for a flicker-free live repaint.
fn render_frame(addr: &str, color: bool) -> String {
    let mm = stats_ads(addr, schema::MATCHMAKER_STATS);
    let ras = stats_ads(addr, schema::RESOURCE_AGENT_STATS);
    let cas = stats_ads(addr, schema::CUSTOMER_AGENT_STATS);
    let (bold, reset) = if color {
        ("\x1b[1m", "\x1b[0m")
    } else {
        ("", "")
    };
    let mut out = String::new();
    wl!(out, "{bold}pool_top — matchmaker at {addr}{reset}\n");
    render_matchmaker(&mut out, &mm, color);
    wl!(out);
    render_resources(&mut out, &ras);
    wl!(out);
    render_customers(&mut out, &cas);
    out
}

/// Flicker-free terminal painter: instead of `\x1b[2J` (clear + repaint,
/// which blanks the screen every tick), diff the new frame against the
/// previous one and rewrite only the lines that changed, addressing each
/// by row and clearing to end-of-line.
struct Screen {
    prev: Vec<String>,
}

impl Screen {
    fn new() -> Screen {
        Screen { prev: Vec::new() }
    }

    fn draw(&mut self, frame: &str) {
        let lines: Vec<String> = frame.lines().map(str::to_string).collect();
        let mut out = String::new();
        if self.prev.is_empty() {
            out.push_str("\x1b[2J"); // first frame: start from a clean screen
        }
        for (i, line) in lines.iter().enumerate() {
            if self.prev.get(i) != Some(line) {
                w!(out, "\x1b[{};1H\x1b[K{line}", i + 1);
            }
        }
        // A shorter frame leaves stale tails behind: blank them.
        for i in lines.len()..self.prev.len() {
            w!(out, "\x1b[{};1H\x1b[K", i + 1);
        }
        w!(out, "\x1b[{};1H", lines.len() + 1); // park below the frame
        print!("{out}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        self.prev = lines;
    }
}

fn demo_pool() -> condor_pool::PoolHandle {
    let machine = |mips: i64| {
        classad::parse_classad(&format!(
            r#"[ Type = "Machine"; Mips = {mips};
                 Constraint = other.Type == "Job"; Rank = 0 ]"#
        ))
        .unwrap()
    };
    let job = || {
        classad::parse_classad(
            r#"[ Type = "Job"; Constraint = other.Type == "Machine";
                 Rank = other.Mips ]"#,
        )
        .unwrap()
    };
    PoolBuilder::new()
        .machine("demo-m0", machine(100))
        .machine("demo-m1", machine(400))
        .user(
            "demo",
            vec![("demo-0".into(), job()), ("demo-1".into(), job())],
        )
        .spawn()
        .expect("demo pool failed to start")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!(
                    "usage: pool_top [--connect host:port] [--interval secs] [--once] [--no-color]"
                );
                std::process::exit(2);
            })
        })
    };
    let once = args.iter().any(|a| a == "--once");
    let color = !args.iter().any(|a| a == "--no-color");
    let interval = flag_value("--interval")
        .map(|s| s.parse::<f64>().expect("--interval takes seconds"))
        .unwrap_or(2.0);

    // With no --connect, spawn a demo pool in-process and watch it.
    let (addr, _demo) = match flag_value("--connect") {
        Some(addr) => (addr, None),
        None => {
            let pool = demo_pool();
            let addr = pool.daemon().addr().to_string();
            println!("no --connect given: spawned a demo pool at {addr}");
            std::thread::sleep(Duration::from_millis(300));
            (addr, Some(pool))
        }
    };

    if once {
        print!("{}", render_frame(&addr, color));
        return;
    }
    if !color {
        // Append-only log mode: full frames, no cursor control — exactly
        // what CI capture and `tee` want.
        loop {
            print!("{}", render_frame(&addr, false));
            println!("\n--- (next frame in {interval}s — Ctrl-C to quit)");
            std::thread::sleep(Duration::from_secs_f64(interval.max(0.1)));
        }
    }
    let mut screen = Screen::new();
    loop {
        let mut frame = render_frame(&addr, color);
        wl!(frame, "\n(refreshing every {interval}s — Ctrl-C to quit)");
        screen.draw(&frame);
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.1)));
    }
}
