//! `pool_view` — CondorView for the terminal: sparkline charts of the
//! pool's retained history, fetched over the wire as the matchmaker's
//! `HistorySeries` query collection (see `docs/protocol.md` §6, §15 and
//! `docs/observability.md` §6).
//!
//! Where `pool_top` shows the pool *now* (live self-ad counters),
//! `pool_view` shows where it has *been*: the matchmaker's embedded view
//! collector keeps every metric in multi-resolution ring buffers, and
//! this tool renders one sparkline per retained series — utilization,
//! match/flock rates, per-daemon gauges — with departed sources' absent
//! tombstones marked `×`.
//!
//! Run against a live daemon spawned with `DaemonConfig::view`:
//!
//! ```text
//! cargo run --example pool_view -- --connect 127.0.0.1:9618
//! ```
//!
//! or with `--demo` to spawn a small in-process pool (view enabled, fast
//! sampling) and watch its history accumulate. Flags: `--metric <name>`
//! restricts to one metric (default: all), `--tier <n>` picks a
//! resolution tier (default 0, the finest), `--limit <n>` shows only the
//! newest n samples of each series, `--once` renders a single frame, `--interval <secs>` sets
//! the refresh period, `--no-color` strips ANSI color (CI logs), and
//! `--csv` dumps the raw samples as CSV instead of charts.

use classad::ClassAd;
use condor_pool::wire::{self, IoConfig};
use condor_pool::{PoolBuilder, ViewConfig};
use condor_view::HistoryConfig;
use matchmaker::protocol::Message;
use matchmaker::query::{attr_is, Collection};
use std::time::Duration;

const SPARKS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Scale `values` into one sparkline row; absent tombstones render `×`.
fn sparkline(values: &[f64], absent: &[bool]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    values
        .iter()
        .zip(absent.iter().chain(std::iter::repeat(&false)))
        .map(|(&v, &gone)| {
            if gone {
                '×'
            } else if v == 0.0 && lo == 0.0 {
                SPARKS[0] // true zero stays blank
            } else {
                // Nonzero samples occupy ▁..█ so a flat series is
                // visible instead of rendering as an empty chart.
                let idx = 1 + ((v - lo) / span * (SPARKS.len() - 2) as f64).round() as usize;
                SPARKS[idx.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// Split a comma-joined sample attribute into floats (`Times`, `Data`).
fn samples(ad: &ClassAd, attr: &str) -> Vec<f64> {
    ad.get_string(attr)
        .map(|s| s.split(',').filter_map(|v| v.parse::<f64>().ok()).collect())
        .unwrap_or_default()
}

fn absent_flags(ad: &ClassAd) -> Vec<bool> {
    ad.get_string("Absent")
        .map(|s| s.split(',').map(|f| f == "1").collect())
        .unwrap_or_default()
}

/// Fetch the matching series over the wire, each cut to its newest
/// `limit` samples (`0` = all). A daemon running without
/// `DaemonConfig::view` answers with a structured error — surfaced here as
/// a clean exit, not a hang.
fn fetch(addr: &str, constraint: &str, limit: usize) -> Vec<ClassAd> {
    let msg = Message::Query {
        constraint: constraint.to_string(),
        kind: None,
        projection: vec![],
    };
    match wire::request_reply(addr, &msg, &IoConfig::default()) {
        Ok(Message::QueryReply { ads }) => {
            let mut ads: Vec<ClassAd> = ads
                .iter()
                .map(|ad| condor_view::keep_newest(ad, limit))
                .collect();
            ads.sort_by(|a, b| a.get_string("Name").cmp(&b.get_string("Name")));
            ads
        }
        Ok(other) => {
            eprintln!("unexpected reply from {addr}: {other:?}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("history at {addr} unavailable: {e}");
            eprintln!("(the daemon may run without `view`)");
            std::process::exit(1);
        }
    }
}

fn render(addr: &str, ads: &[ClassAd], color: bool) {
    let (bold, dim, reset) = if color {
        ("\x1b[1m", "\x1b[2m", "\x1b[0m")
    } else {
        ("", "", "")
    };
    println!("{bold}pool_view — history at {addr}{reset}");
    if ads.is_empty() {
        println!("  (no series matched — has the collector sampled yet?)");
        return;
    }
    for ad in ads {
        let data = samples(ad, "Data");
        let absent = absent_flags(ad);
        let last = data.last().copied().unwrap_or(0.0);
        let unit = if ad.get_string("Kind") == Some("Counter") {
            "/s"
        } else {
            ""
        };
        println!(
            "  {bold}{:<40}{reset} {:>10.3}{unit}  |{}|  {dim}{} pt @ {}s{reset}",
            ad.get_string("Name").unwrap_or("?"),
            last,
            sparkline(&data, &absent),
            data.len(),
            ad.get_int("IntervalSecs").unwrap_or(0),
        );
    }
}

/// `--csv`: one row per sample, ready for a spreadsheet or gnuplot.
fn dump_csv(ads: &[ClassAd]) {
    println!("pool,metric,source,tier,kind,unix,value,absent");
    for ad in ads {
        let s = |attr: &str| ad.get_string(attr).unwrap_or("?");
        let times = samples(ad, "Times");
        let data = samples(ad, "Data");
        let absent = absent_flags(ad);
        for (i, (t, v)) in times.iter().zip(data.iter()).enumerate() {
            println!(
                "{},{},{},{},{},{},{},{}",
                s("Pool"),
                s("Metric"),
                s("Source"),
                ad.get_int("Tier").unwrap_or(0),
                s("Kind"),
                *t as u64,
                v,
                absent.get(i).copied().unwrap_or(false) as u8,
            );
        }
    }
}

/// The `--demo` pool: two machines, two jobs, and a matchmaker whose
/// embedded collector samples fast enough to chart within a second.
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
    let mut builder = PoolBuilder::new()
        .machine("demo-m0", machine(100))
        .machine("demo-m1", machine(400))
        .user(
            "demo",
            vec![("demo-0".into(), job()), ("demo-1".into(), job())],
        );
    builder.daemon.view = Some(ViewConfig {
        sample_interval: Duration::from_millis(100),
        // 1-second buckets so a few seconds of demo history draws a
        // visible sparkline (the production default is 10s/1m/10m).
        history: HistoryConfig::single(1, 360),
        ..ViewConfig::default()
    });
    builder.spawn().expect("demo pool failed to start")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!(
                    "usage: pool_view [--connect host:port | --demo] [--metric name] \
                     [--tier n] [--limit n] [--interval secs] [--once] [--no-color] [--csv]"
                );
                std::process::exit(2);
            })
        })
    };
    let once = args.iter().any(|a| a == "--once");
    let csv = args.iter().any(|a| a == "--csv");
    let color = !args.iter().any(|a| a == "--no-color");
    let interval = flag_value("--interval")
        .map(|s| s.parse::<f64>().expect("--interval takes seconds"))
        .unwrap_or(2.0);
    let tier = flag_value("--tier")
        .map(|s| s.parse::<i64>().expect("--tier takes a tier index"))
        .unwrap_or(0);
    let limit = flag_value("--limit")
        .map(|s| s.parse::<usize>().expect("--limit takes a sample count"))
        .unwrap_or(0);
    let mut conjuncts = vec![format!("other.Tier == {tier}")];
    if let Some(m) = flag_value("--metric") {
        conjuncts.push(attr_is("Metric", &m));
    }
    let constraint = Collection::HistorySeries.constraint(&conjuncts);

    let (addr, _demo) = match flag_value("--connect") {
        Some(addr) => (addr, None),
        None => {
            let pool = demo_pool();
            let addr = pool.daemon().addr().to_string();
            eprintln!("no --connect given: spawned a demo pool at {addr}");
            // Let the collector run a few passes so the charts have ink.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while pool.daemon().view().map_or(0, |v| v.collections()) < 30 {
                if std::time::Instant::now() > deadline {
                    eprintln!("demo collector never sampled");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            (addr, Some(pool))
        }
    };

    if csv {
        dump_csv(&fetch(&addr, &constraint, limit));
        return;
    }
    if once {
        render(&addr, &fetch(&addr, &constraint, limit), color);
        return;
    }
    loop {
        if color {
            print!("\x1b[2J\x1b[H");
        }
        render(&addr, &fetch(&addr, &constraint, limit), color);
        println!("\n(refreshing every {interval}s — Ctrl-C to quit)");
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.1)));
    }
}
