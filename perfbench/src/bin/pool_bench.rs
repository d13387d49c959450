//! `pool_bench`: run one workload (or all five) against a live pool and
//! print every metric by name with its unit; or compare two result files.
//!
//! ```text
//! pool_bench --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
//!            [--out <file>] [--trace-dir <dir>]
//! pool_bench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The last line of standard output of a single-workload run is the
//! result object `BENCHMARK.json` describes. Exit status: 0 for a valid,
//! correct run; 1 if the correctness gate found a violation; 2 for a bad
//! command line or an invalid run (connection limit, no result, set-up
//! failure); 3 if `--compare` found a metric worse than its bound.
//!
//! What the host can do to a run does not decide the exit status: a
//! set-up that fails and a run that is invalid or off its open-loop
//! schedule are done again, up to [`ATTEMPTS`] times, and a run still off
//! schedule after that is reported with a warning (its latencies run from
//! the due instants, so lateness is in them, not hidden by them).

use perfbench::driver::{median, median_ms, median_us, Net, Phases, SpanName};
use perfbench::pool::{bring_up, LivePool};
use perfbench::replay::replay;
use perfbench::report::{analyze, compare, Report};
use perfbench::workloads::{run_live, Metric, Workload};
use perfbench::{driver, pool};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Dials timed for each `pool.wire.*` floor.
const FLOOR_DIALS: usize = 64;

/// Times a set-up, and a whole run, is tried before its failure stands.
const ATTEMPTS: usize = 3;

/// No new attempt starts this long into the process: every attempt must
/// fit the 180 s a run may take.
const LAST_ATTEMPT_START: Duration = Duration::from_secs(100);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    trace_dir: String,
    /// Test-only: shrink the pool (the smoke test runs `big_pool` small).
    machines: Option<usize>,
}

const USAGE: &str = "usage: pool_bench --workload <fig3_paced|fig3_saturated|big_pool|ad_ingest|\
status_query|all> --seed <u64> [--seconds <1..60>] [--trace <0|1>] [--out <file>] \
[--trace-dir <dir>]\n       pool_bench --compare <a.jsonl> <b.jsonl>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 16,
        trace: false,
        out: None,
        trace_dir: ".bench_build/pool_bench".into(),
        machines: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads =
                    match name.as_str() {
                        "all" => Workload::ALL.to_vec(),
                        _ => vec![Workload::from_name(name)
                            .ok_or(format!("unknown workload `{name}`"))?],
                    };
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" | "--window" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--out" => args.out = Some(value()?.clone()),
            "--trace-dir" => args.trace_dir = value()?.clone(),
            "--machines" => args.machines = Some(number(value()?)? as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// Bring the pool up `setup_reps` times; keep the last, report the median.
fn set_up(workload: Workload, args: &Args, net: &Net) -> Result<(LivePool, f64), String> {
    let spec = workload.pool(args.machines);
    let mut times_ns = Vec::new();
    let mut kept = None;
    for _ in 0..workload.setup_reps() {
        drop(kept.take());
        let mut tries = 0;
        kept = Some(loop {
            tries += 1;
            let t0 = Instant::now();
            match bring_up(&spec, args.seed, net) {
                Ok(pool) => {
                    times_ns.push(t0.elapsed().as_nanos() as u64);
                    break pool;
                }
                Err(e) if tries < ATTEMPTS => eprintln!("pool_bench: set-up failed: {e}; again"),
                Err(e) => return Err(format!("set-up failed: {e}")),
            }
        });
    }
    let pool = kept.expect("at least one set-up");
    Ok((pool, median(times_ns) as f64 / 1e9))
}

/// The dial floor: what one connection costs with nothing behind it.
fn dial_floors(pool: &LivePool, net: &Net) -> Vec<Metric> {
    let release = matchmaker::protocol::Message::Release {
        ticket: matchmaker::Ticket::from_raw(0),
    };
    let time = |f: &dyn Fn() -> bool| -> f64 {
        let ns: Vec<u64> = (0..FLOOR_DIALS)
            .filter_map(|_| {
                let t0 = Instant::now();
                f().then(|| t0.elapsed().as_nanos() as u64)
            })
            .collect();
        median_us(ns)
    };
    // Nobody accepts on the driver's listener now: the dials complete
    // against its backlog, which `FLOOR_DIALS` stays well inside.
    let oneway = time(&|| net.oneway(&pool.contact, &release, None).is_ok());
    let request_reply = time(&|| net.request_reply(&pool.addr, &driver::sync_query()).is_ok());
    vec![
        ("pool.wire.oneway_us".into(), oneway, "us"),
        ("pool.wire.request_reply_us".into(), request_reply, "us"),
    ]
}

/// `fig3_paced` traced runs only: ten times, a real `CustomerAgent` with
/// a batch of 16 jobs — the one layer no workload drives.
fn customer_batches(pool: &LivePool, seed: u64) -> Vec<Metric> {
    use condor_pool::{CustomerAgent, CustomerConfig};
    const BATCHES: usize = 10;
    const BATCH: usize = 16;
    let mut placed_ns = Vec::new();
    for b in 0..BATCHES {
        let owner = perfbench::gen::OWNERS[(seed as usize + b) % 4];
        let jobs: Vec<_> = pool
            .inputs
            .shapes
            .iter()
            .filter(|s| s.get_string("Owner") == Some(owner))
            .cycle()
            .take(BATCH)
            .enumerate()
            .map(|(i, ad)| (format!("batch{b}-{i}"), ad.clone()))
            .collect();
        let t0 = Instant::now();
        let Ok(agent) = CustomerAgent::spawn(
            CustomerConfig {
                user: owner.into(),
                matchmaker: pool.addr.clone(),
                heartbeat: pool::RA_HEARTBEAT,
                ..CustomerConfig::default()
            },
            jobs,
        ) else {
            continue;
        };
        if driver::wait_until(Duration::from_secs(10), || agent.all_claimed()) {
            placed_ns.push(t0.elapsed().as_nanos() as u64);
        }
        // Releases every claim, so the machines re-advertise.
        agent.shutdown();
    }
    if placed_ns.is_empty() {
        return Vec::new();
    }
    vec![(
        "pool.customer.batch16_place_ms".into(),
        median_ms(placed_ns),
        "ms",
    )]
}

fn write_trace(dir: &str, workload: Workload, spans: &[driver::Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}.jsonl", workload.name());
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = s
            .name
            .parent()
            .map_or("null".into(), |p: SpanName| format!("\"{}\"", p.label()));
        writeln!(
            file,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"txn\": {}}}",
            s.name.label(),
            s.start_ns,
            s.end_ns,
            s.txn
        )?;
    }
    file.flush()?;
    Ok(path)
}

fn run_one(workload: Workload, args: &Args) -> Result<Report, String> {
    let net = Net::default();
    let (mut pool, setup_s) = set_up(workload, args, &net)?;
    let phases = Phases::start(Duration::from_secs(args.seconds), args.trace);
    let mut live = run_live(workload, &mut pool, phases, &net);
    let mut layers = Vec::new();
    if args.trace {
        let path = write_trace(&args.trace_dir, workload, &live.log.spans)
            .map_err(|e| format!("writing the trace: {e}"))?;
        println!("trace: {} spans in {path}", live.log.spans.len());
        layers.extend(dial_floors(&pool, &net));
        if workload == Workload::Fig3Paced {
            live.extras.extend(customer_batches(&pool, args.seed));
        }
    }
    let peak_connections = net.gauge.peak();
    let inputs = pool.inputs.clone();
    // The pool comes down before the replay so the layers run on a quiet
    // machine.
    drop(pool);
    if args.trace {
        layers.extend(replay(&inputs, args.seed));
    }
    Ok(analyze(
        workload,
        &phases,
        live,
        setup_s,
        peak_connections,
        layers,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(a, b) {
            Ok((table, worse)) => {
                print!("{table}");
                ExitCode::from(if worse { 3 } else { 0 })
            }
            Err(e) => {
                eprintln!("pool_bench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pool_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let [workload] = args.workloads[..] {
        return run_and_report(workload, &args);
    }
    // `--workload all`: each workload in a process of its own, so that
    // one's peak memory (and heap left behind) is not the next one's.
    let mut worst = 0u8;
    for workload in &args.workloads {
        // The same command line, with this workload's name for `all`.
        let named = argv.iter().enumerate().map(|(i, arg)| {
            if i > 0 && argv[i - 1] == "--workload" {
                workload.name()
            } else {
                arg.as_str()
            }
        });
        let child = std::env::current_exe()
            .and_then(|exe| std::process::Command::new(exe).args(named).status());
        match child.map(|status| status.code()) {
            Ok(Some(code)) => worst = worst.max(code as u8),
            _ => return ExitCode::from(2),
        }
    }
    ExitCode::from(worst)
}

/// Run one workload, print its table, append its record, print its result
/// line.
fn run_and_report(workload: Workload, args: &Args) -> ExitCode {
    println!(
        "pool_bench: seed {} window {} s host_cpus {} (driver: at most {} threads, {} connections)",
        args.seed,
        args.seconds,
        bench::host_cpus(),
        driver::MAX_DRIVER_THREADS,
        driver::MAX_DRIVER_CONNECTIONS
    );
    let started = Instant::now();
    let mut attempt = 0;
    let report = loop {
        attempt += 1;
        let last = attempt == ATTEMPTS || started.elapsed() > LAST_ATTEMPT_START;
        match run_one(workload, args) {
            Ok(r) if last || (r.invalid.is_empty() && r.off_schedule.is_empty()) => break r,
            Ok(r) => {
                print!("{}", r.table());
                for why in r.invalid.iter().chain(&r.off_schedule) {
                    eprintln!("pool_bench: {}: {why}; measuring again", workload.name());
                }
            }
            Err(e) if last => {
                eprintln!("pool_bench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
            Err(e) => eprintln!("pool_bench: {}: {e}; again", workload.name()),
        }
    };
    print!("{}", report.table());
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.record(args.seed, args.seconds)));
        if let Err(e) = appended {
            eprintln!("pool_bench: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !report.invalid.is_empty() {
        // An invalid run has no result.
        for why in &report.invalid {
            eprintln!("pool_bench: {}: invalid run: {why}", workload.name());
        }
        return ExitCode::from(2);
    }
    for why in &report.off_schedule {
        eprintln!(
            "pool_bench: {}: warning, reported all the same: {why}",
            workload.name()
        );
    }
    println!("{}", report.result_line());
    ExitCode::from(u8::from(!report.violations.is_empty()))
}
