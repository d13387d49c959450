//! From a finished run to numbers: the declared metric names, the
//! analysis that turns a live run's log into them, the result-file
//! records, and `--compare`.

use crate::driver::{
    median_ms, peak_rss_mib, quantile, Done, Phases, Span, SpanName, MAX_DRIVER_CONNECTIONS, SLICES,
};
use crate::gen::QueryShape;
use crate::workloads::{LiveRun, Metric, Sample, Workload};
use classad::{json, ClassAd, Expr, Literal};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric: its name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    /// Metric name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` if a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Decl {
    e2e(name, unit, higher, 0.0)
}

/// The end-to-end metrics: every workload reports every one of them, in
/// its own unit of work (see [`Workload::op`]).
pub const END_TO_END: [Decl; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("op_p90_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
];

/// The per-layer metrics every workload's traced run reports.
pub const PER_LAYER: [Decl; 41] = [
    layer("classad.parser.parse_us", "us", false),
    layer("classad.json.encode_us", "us", false),
    layer("classad.json.decode_us", "us", false),
    layer("classad.matching.symmetric_match_ns", "ns", false),
    layer("classad.matching.match_frac", "ratio", true),
    layer("core.protocol.encode_us", "us", false),
    layer("core.protocol.decode_us", "us", false),
    layer("core.protocol.ad_frame_bytes", "bytes", false),
    layer("core.framing.decode_us", "us", false),
    layer("core.admanager.insert_new_us", "us", false),
    layer("core.admanager.insert_changed_us", "us", false),
    layer("core.admanager.renew_us", "us", false),
    layer("core.service.handle_frame_us", "us", false),
    layer("core.autocluster.cluster_us", "us", false),
    layer("core.autocluster.clusters", "count", false),
    layer("core.negotiate.cold_cycle_ms", "ms", false),
    layer("core.negotiate.warm_cycle_ms", "ms", false),
    layer("core.negotiate.idle_cycle_ms", "ms", false),
    layer("core.negotiate.ns_per_pair", "ns", false),
    layer("core.negotiate.shards_scanned", "count", false),
    layer("core.negotiate.shards_skipped", "count", true),
    layer("core.negotiate.matchlist_hits", "count", true),
    layer("core.negotiate.dirty_per_match", "ratio", false),
    layer("core.query.run_us.selective", "us", false),
    layer("core.query.run_us.broad", "us", false),
    layer("core.query.run_us.name", "us", false),
    layer("core.query.examined_per_result", "ratio", false),
    layer("core.claim.reverify_us", "us", false),
    layer("pool.wire.oneway_us", "us", false),
    layer("pool.wire.request_reply_us", "us", false),
    layer("pool.daemon.cycles_per_s", "1/s", true),
    layer("pool.daemon.connections_refused", "count", false),
    layer("pool.daemon.notifications_failed", "count", false),
    layer("pool.daemon.frames_rejected", "count", false),
    layer("pool.daemon.error_replies", "count", false),
    layer("driver.busy_frac", "ratio", false),
    layer("driver.trace_overhead_frac", "ratio", false),
    layer("driver.op_p99_ms", "ms", false),
    layer("driver.op_max_ms", "ms", false),
    layer("op.layer_sum_ms", "ms", false),
    layer("op.unattributed_ms", "ms", false),
];

/// Open-loop schedule gates: a generator that, in most slices of the
/// window, starts a tenth of its operations this late — or is occupied
/// this much of the window — is no longer offering the schedule it
/// claims. (Per slice, and the 90th percentile rather than the 99th: one
/// stall of the host delays every operation due during it, which is the
/// host's fault and costs the slice medians nothing. The whole window's
/// 99th percentile is reported.) A run past a gate is *off schedule*:
/// `pool_bench` measures again, and says so if it reports such a run.
pub const MAX_LATE_P90_MS: f64 = 5.0;
/// See [`MAX_LATE_P90_MS`].
pub const MAX_BUSY_FRAC: f64 = 0.8;

/// Everything one run measured, by name.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Every metric measured, declared or diagnostic.
    pub metrics: Metrics,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness violations (empty = correct).
    pub violations: Vec<String>,
    /// Why the run is invalid as a measurement (empty = valid): it has
    /// no result.
    pub invalid: Vec<String>,
    /// Which open-loop schedule gates the run is past (empty = on
    /// schedule). Latencies run from the due instants, so the numbers
    /// stand; what they describe is a busier host or a slower generator.
    pub off_schedule: Vec<String>,
}

/// Throughput and latencies between two completion events: the window's
/// edges snap to the first completion at or after `from_ns` and the first
/// at or after `to_ns`, so a system that completes work in bursts (one
/// negotiation cycle's worth at a time) is measured over whole bursts.
#[derive(Debug, Default)]
pub struct WindowStats {
    /// Operations completed between the snapped edges.
    pub ops: f64,
    /// Seconds between the snapped edges.
    pub seconds: f64,
    /// Operations completed per second.
    pub ops_per_s: f64,
    /// Latencies of the operations completed inside, sorted, ns.
    pub latencies_ns: Vec<u64>,
}

/// See [`WindowStats`]. `done` must be sorted by completion time.
pub fn window_stats(done: &[Done], from_ns: u64, to_ns: u64) -> WindowStats {
    let first = done.partition_point(|d| d.t_ns < from_ns);
    let last = done
        .partition_point(|d| d.t_ns < to_ns)
        .min(done.len().saturating_sub(1));
    if done.is_empty() || last <= first {
        return WindowStats::default();
    }
    // The work done in (t_first, t_last]: every completion after the
    // first event, up to and including the last.
    let inside = &done[first + 1..=last];
    let ops: f64 = inside.iter().map(|d| f64::from(d.weight)).sum();
    let seconds = (done[last].t_ns - done[first].t_ns) as f64 / 1e9;
    let mut latencies_ns: Vec<u64> = inside.iter().filter_map(|d| d.latency_ns).collect();
    latencies_ns.sort_unstable();
    WindowStats {
        ops,
        seconds,
        ops_per_s: ops / seconds,
        latencies_ns,
    }
}

/// One slice of the measured window (see `workloads::SLICES`).
struct Slice {
    /// Which slice of the window, counted from 0.
    index: u64,
    /// Operations completed and seconds covered, between the slice's
    /// snapped edges.
    ops: f64,
    seconds: f64,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
    /// `None` when fewer than ten operations completed in the slice.
    p90_ms: Option<f64>,
}

impl Slice {
    /// The slice between two samples; `None` if nothing completed in it.
    fn between(done: &[Done], index: u64, a: &Sample, b: &Sample) -> Option<Slice> {
        let w = window_stats(done, a.t_ns, b.t_ns);
        let cpu_per_s = (b.cpu_s - a.cpu_s) / ((b.t_ns - a.t_ns) as f64 / 1e9);
        (w.ops_per_s > 0.0).then(|| Slice {
            index,
            ops: w.ops,
            seconds: w.seconds,
            ops_per_s: w.ops_per_s,
            cpu_ms_per_op: 1e3 * cpu_per_s / w.ops_per_s,
            p90_ms: (w.latencies_ns.len() >= 10).then(|| ms(quantile(&w.latencies_ns, 0.9))),
        })
    }
}

/// The (lower) median of `values`; `None` when empty.
fn median_f64(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    (!values.is_empty()).then(|| values[(values.len() - 1) / 2])
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn span_median_ms(spans: &[Span], name: SpanName) -> Option<f64> {
    let ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    (!ns.is_empty()).then(|| median_ms(ns))
}

/// The layer costs along one operation's blocking path, from the replay
/// and the live per-layer numbers, in ms.
fn layer_sum_ms(workload: Workload, m: &Metrics, matches_per_cycle: f64) -> f64 {
    let us = |name: &str| m.get(name).map_or(0.0, |v| v.0) / 1e3;
    let send_one_ad = us("core.protocol.encode_us")
        + us("pool.wire.oneway_us")
        + us("core.framing.decode_us")
        + us("core.service.handle_frame_us");
    match workload {
        Workload::Fig3Paced | Workload::Fig3Saturated | Workload::BigPool => {
            let warm_cycle = m.get("core.negotiate.warm_cycle_ms").map_or(0.0, |v| v.0);
            let claim = if workload == Workload::Fig3Paced {
                us("pool.resource.claim_rtt_us")
            } else {
                us("core.claim.reverify_us")
            };
            send_one_ad
                + warm_cycle / matches_per_cycle.max(1.0)
                + 2.0 * us("pool.wire.oneway_us")
                + claim
        }
        // One streamed batch: the collector encodes it, the daemon's
        // connection thread decodes and stores it; one dial's worth of
        // round trip for the acknowledging query.
        Workload::AdIngest => {
            f64::from(crate::workloads::ingest::STREAM_BATCH)
                * (us("core.protocol.encode_us")
                    + us("core.framing.decode_us")
                    + us("core.service.handle_frame_us"))
                + us("pool.wire.request_reply_us")
                - us("pool.wire.oneway_us")
        }
        Workload::StatusQuery => {
            // The median query is one of the two narrow shapes (40 % each
            // against 20 % broad): the dearer of them.
            let narrow = [QueryShape::Selective, QueryShape::Name]
                .map(|s| us(&format!("core.query.run_us.{}", s.label())));
            us("pool.wire.request_reply_us") + narrow[0].max(narrow[1])
        }
    }
}

/// Turn a live run (plus, in a traced run, the replay's and the dial
/// floor's numbers) into a [`Report`].
pub fn analyze(
    workload: Workload,
    phases: &Phases,
    live: LiveRun,
    setup_s: f64,
    peak_connections: usize,
    layers: Vec<Metric>,
) -> Report {
    let trace = phases.trace;
    let mut log = live.log;
    log.done.sort_by_key(|d| d.t_ns);
    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), (value, unit));
    };
    let samples = &live.samples;
    let (first, last) = (samples[0], samples[samples.len() - 1]);
    let window_s = (last.t_ns - first.t_ns) as f64 / 1e9;
    let whole = window_stats(&log.done, phases.measure_ns, phases.end_ns);
    let slices: Vec<Slice> = samples
        .windows(2)
        .zip(0..)
        .filter_map(|(pair, k)| Slice::between(&log.done, k, &pair[0], &pair[1]))
        .collect();
    let mut invalid = Vec::new();
    let mut off_schedule = Vec::new();
    if whole.latencies_ns.is_empty() || slices.is_empty() {
        invalid.push("no operation completed inside the window".to_string());
    }

    if !trace {
        // A slice with too few completions has no 90th percentile; with
        // too few such slices the whole window's stands in.
        let slice_p90s: Vec<f64> = slices.iter().filter_map(|s| s.p90_ms).collect();
        let p90 = (slice_p90s.len() >= 3)
            .then(|| median_f64(slice_p90s))
            .flatten()
            .unwrap_or_else(|| ms(quantile(&whole.latencies_ns, 0.9)));
        put("setup_s", setup_s, "s");
        put("op_p50_ms", ms(quantile(&whole.latencies_ns, 0.5)), "ms");
        put("op_p90_ms", p90, "ms");
        put(
            "ops_per_s",
            median_f64(slices.iter().map(|s| s.ops_per_s).collect()).unwrap_or(0.0),
            "1/s",
        );
        put(
            "cpu_ms_per_op",
            median_f64(slices.iter().map(|s| s.cpu_ms_per_op).collect()).unwrap_or(0.0),
            "ms",
        );
        put("peak_rss_mb", peak_rss_mib(), "MiB");
        put("driver.ops_per_s_mean", whole.ops_per_s, "1/s");
    }
    put("op_n", whole.latencies_ns.len() as f64, "count");
    put(
        "driver.op_p99_ms",
        ms(quantile(&whole.latencies_ns, 0.99)),
        "ms",
    );
    put(
        "driver.op_max_ms",
        ms(whole.latencies_ns.last().copied().unwrap_or(0)),
        "ms",
    );
    let busy_frac = live.busy_ns as f64 / (phases.end_ns - phases.measure_ns) as f64;
    put("driver.busy_frac", busy_frac, "ratio");
    put("driver.peak_connections", peak_connections as f64, "count");
    put("driver.jobs_readvertised", log.readvertised as f64, "count");
    if peak_connections > MAX_DRIVER_CONNECTIONS {
        invalid.push(format!(
            "the driver held {peak_connections} connections open at once"
        ));
    }
    if workload.open_loop() {
        // Per slice, like the metrics the gate protects: one stall of the
        // host makes one slice late, a generator that cannot keep its
        // schedule makes most of them late.
        let late_in = |from_ns: u64, to_ns: u64, q: f64| {
            let mut ns: Vec<u64> = log
                .late_ns
                .iter()
                .filter(|(due, _)| (from_ns..to_ns).contains(due))
                .map(|&(_, late)| late)
                .collect();
            ns.sort_unstable();
            ms(quantile(&ns, q))
        };
        let late_p90_ms = median_f64(
            (0..SLICES)
                .map(|k| late_in(phases.slice_start(k), phases.slice_start(k + 1), 0.9))
                .collect(),
        )
        .unwrap_or(0.0);
        put("driver.late_p90_ms", late_p90_ms, "ms");
        put("driver.late_p99_ms", late_in(0, u64::MAX, 0.99), "ms");
        if late_p90_ms > MAX_LATE_P90_MS {
            off_schedule.push(format!(
                "open-loop generator ran {late_p90_ms:.2} ms late at p90 in most slices"
            ));
        }
        if busy_frac > MAX_BUSY_FRAC {
            off_schedule.push(format!(
                "open-loop generator was busy {busy_frac:.2} of the window"
            ));
        }
    }

    let d = |f: fn(&condor_pool::DaemonStatsSnapshot) -> u64| {
        (f(&last.daemon) - f(&first.daemon)) as f64
    };
    let cycles = d(|s| s.cycles);
    put("pool.daemon.cycles_per_s", cycles / window_s, "1/s");
    put(
        "pool.daemon.connections_refused",
        d(|s| s.connections_refused),
        "count",
    );
    put(
        "pool.daemon.notifications_failed",
        d(|s| s.notifications_failed),
        "count",
    );
    put(
        "pool.daemon.frames_rejected",
        d(|s| s.frames_rejected),
        "count",
    );
    put("pool.daemon.error_replies", d(|s| s.error_replies), "count");
    // Two notifications per match.
    let matches_per_cycle = d(|s| s.notifications_sent) / 2.0 / cycles.max(1.0);

    if trace {
        // The odd slices are the traced ones (`Phases::tracing`); by
        // index, not by when the slice's opening sample was taken, which
        // in `big_pool` is up to a cycle late (the sampling thread's probe
        // query waits that long) and could put every slice on one side.
        // Rates pooled over the slices of each kind, not medians: with
        // one burst of completions a slice, eight slices' median says
        // little.
        let pooled = |traced: bool| {
            let of_kind = slices.iter().filter(|s| (s.index % 2 == 1) == traced);
            let (ops, seconds) = of_kind.fold((0.0, 0.0), |(o, t), s| (o + s.ops, t + s.seconds));
            ops / seconds
        };
        put(
            "driver.trace_overhead_frac",
            1.0 - pooled(true) / pooled(false),
            "ratio",
        );
        put("driver.spans", log.spans.len() as f64, "count");
        if let Some(v) = span_median_ms(&log.spans, SpanName::Submit) {
            put("pool.daemon.submit_us", v * 1e3, "us");
        }
        if let Some(v) = span_median_ms(&log.spans, SpanName::QueueToNotify) {
            put("pool.daemon.queue_to_notify_ms", v, "ms");
            put("pool.daemon.matches_per_cycle", matches_per_cycle, "ratio");
        }
        if let Some(v) = span_median_ms(&log.spans, SpanName::IngestBatch) {
            put("pool.daemon.ingest_batch_ms", v, "ms");
        }
        for (name, value, unit) in layers.into_iter().chain(live.extras) {
            put(&name, value, unit);
        }
        let sum = layer_sum_ms(workload, &metrics, matches_per_cycle);
        let p50 = ms(quantile(&whole.latencies_ns, 0.5));
        metrics.insert("op.layer_sum_ms".into(), (sum, "ms"));
        metrics.insert("op.unattributed_ms".into(), (p50 - sum, "ms"));
        metrics.insert("op.traced_p50_ms".into(), (p50, "ms"));
    }

    for decl in declared(trace) {
        match metrics.get(decl.name) {
            None => invalid.push(format!("metric {} was not produced", decl.name)),
            Some((v, _)) if !v.is_finite() => {
                invalid.push(format!("metric {} is not a finite number", decl.name))
            }
            Some(_) => {}
        }
    }
    Report {
        workload,
        trace,
        metrics,
        attempted: log.attempted,
        failed: log.failed,
        violations: log.violations,
        invalid,
        off_schedule,
    }
}

fn json_number(v: f64) -> String {
    // Rust prints the shortest decimal that round-trips: every digit
    // measured, never exponent notation.
    format!("{v}")
}

/// The metrics a run's result line holds: per-layer for a traced run,
/// end-to-end otherwise.
fn declared(trace: bool) -> &'static [Decl] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

impl Report {
    /// The human-readable table: declared metrics first, then diagnostics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}) == op = {}",
            self.workload.name(),
            if self.trace { "traced" } else { "end to end" },
            self.workload.op()
        );
        let declared = declared(self.trace);
        let mut row = |name: &str, tag: &str| {
            if let Some((v, unit)) = self.metrics.get(name) {
                let _ = writeln!(out, "  {name:<42} {v:>16.4} {unit:<6} {tag}");
            }
        };
        for d in declared {
            row(d.name, "");
        }
        for name in self.metrics.keys() {
            if !declared.iter().any(|d| d.name == name) {
                row(name, "(diagnostic)");
            }
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.violations.is_empty()
        );
        for v in self.violations.iter().take(10) {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        for v in &self.invalid {
            let _ = writeln!(out, "  INVALID: {v}");
        }
        for v in &self.off_schedule {
            let _ = writeln!(out, "  OFF SCHEDULE: {v}");
        }
        out
    }

    fn metrics_json(&self, names: impl Iterator<Item = String>) -> String {
        let fields: Vec<String> = names
            .filter_map(|name| {
                let (v, unit) = self.metrics.get(&name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: exactly the declared metrics of this run's mode.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(declared(self.trace).iter().map(|d| d.name.to_string()))
        )
    }

    /// One result-file record: provenance, seed and window first, then
    /// every metric measured (diagnostics included).
    pub fn record(&self, seed: u64, window_s: u64) -> String {
        format!(
            "{{{} \"seed\": {seed}, \"window_s\": {window_s}, \"workload\": \"{}\", \
             \"trace\": {}, \"correct\": {}, \"on_schedule\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {}}}",
            bench::provenance_fields().replace('\n', " ").trim_start(),
            self.workload.name(),
            u8::from(self.trace),
            self.violations.is_empty(),
            self.off_schedule.is_empty(),
            self.attempted,
            self.failed,
            self.metrics_json(self.metrics.keys().cloned())
        )
    }
}

/// The three quartiles of `values` as Python's
/// `statistics.quantiles(values, n=4)` gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let (n, m) = (n as i64, n as i64 + 1);
    Some([1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // After the clamp `delta` may leave 0..4: the ends extrapolate.
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (x[j as usize - 1], x[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    }))
}

fn num(e: &Expr) -> Option<f64> {
    match e {
        Expr::Lit(Literal::Int(i)) => Some(*i as f64),
        Expr::Lit(Literal::Real(r)) => Some(*r),
        _ => None,
    }
}

/// The untraced runs of a result file: per workload, per end-to-end
/// metric, the values in file order.
fn load_results(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec: ClassAd = json::from_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if rec.get_int("trace") != Some(0) {
            continue;
        }
        let workload = rec
            .get_string("workload")
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let Some(Expr::Record(fields)) = rec.get("metrics").map(|e| e.as_ref()) else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        let per_metric = out.entry(workload.to_string()).or_default();
        for (name, value) in fields {
            let Expr::Record(inner) = value else {
                continue;
            };
            let v = inner
                .iter()
                .find(|(k, _)| k.as_str() == "value")
                .and_then(|(_, e)| num(e));
            if let Some(v) = v {
                per_metric
                    .entry(name.as_str().to_string())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// `--compare a b`: per workload and end-to-end metric, both medians, the
/// ratio with its base, the bound, and a verdict. Returns the table and
/// whether any row is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<15} {:<14} {:>12} {:>12} {:>22} {:>6} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "b/a (base a)", "bound", "spread"
    );
    for w in Workload::ALL {
        let (Some(wa), Some(wb)) = (a.get(w.name()), b.get(w.name())) else {
            continue;
        };
        for decl in END_TO_END {
            let (Some(va), Some(vb)) = (wa.get(decl.name), wb.get(decl.name)) else {
                continue;
            };
            let stats = |v: &[f64]| match quartiles(v) {
                Some([q1, q2, q3]) => (q2, (q3 - q1) / q2),
                None => (v[0], 0.0),
            };
            let ((ma, sa), (mb, sb)) = (stats(va), stats(vb));
            let spread = sa.max(sb);
            let worsening = if decl.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let better = |x: f64, y: f64| {
                if decl.higher_is_better {
                    x > y
                } else {
                    x < y
                }
            };
            let b_dominates = vb.iter().all(|&x| va.iter().all(|&y| better(x, y)));
            let verdict = if worsening > decl.bound {
                any_worse = true;
                "worse"
            } else if spread > decl.bound && !b_dominates {
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<15} {:<14} {:>12.4} {:>12.4} {:>9.4} ({:>9.4} {:<3}) {:>6.2} {:>8.3}  {verdict}",
                w.name(),
                decl.name,
                ma,
                mb,
                mb / ma,
                ma,
                decl.unit,
                decl.bound,
                spread
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(t_ms: u64, weight: u32, latency_ms: Option<u64>) -> Done {
        Done {
            t_ns: t_ms * 1_000_000,
            weight,
            latency_ns: latency_ms.map(|l| l * 1_000_000),
        }
    }

    #[test]
    fn window_edges_snap_to_whole_bursts() {
        // Bursts of 4 completions every 1000 ms, nominal window 1500..4500:
        // the edges snap to the bursts at 2000 and 5000, three whole
        // bursts in 3 s.
        let mut events = Vec::new();
        for burst in 0..7u64 {
            for i in 0..4 {
                events.push(done(burst * 1000 + i, 1, Some(900 + i)));
            }
        }
        let w = window_stats(&events, 1_500_000_000, 4_500_000_000);
        assert!((w.ops_per_s - 4.0).abs() < 1e-9, "{}", w.ops_per_s);
        assert_eq!(w.latencies_ns.len(), 12);
    }

    #[test]
    fn window_counts_batch_weights_and_survives_an_early_end() {
        let events = [
            done(0, 64, None),
            done(100, 64, None),
            done(200, 1, Some(3)),
        ];
        let w = window_stats(&events, 0, 10_000_000_000);
        assert!((w.ops_per_s - 65.0 / 0.2).abs() < 1e-6);
        assert_eq!(w.latencies_ns, vec![3_000_000]);
        assert_eq!(window_stats(&[], 0, 1).ops_per_s, 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1., 2.]).unwrap(), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0]), None);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50., 10., 40., 20., 30.]).unwrap(),
            [15.0, 30.0, 45.0]
        );
    }

    /// `BENCHMARK.json` and the tables above must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = json::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<Vec<(String, String)>> {
            let Some(Expr::List(items)) = file.get(key).map(|e| e.as_ref()) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|item| {
                    let Expr::Record(fields) = item else {
                        panic!("{key} entry is not an object");
                    };
                    fields
                        .iter()
                        .map(|(k, v)| {
                            let v = match v {
                                Expr::Lit(Literal::Str(s)) => s.to_string(),
                                other => num(other).map(|n| n.to_string()).unwrap(),
                            };
                            (k.as_str().to_string(), v)
                        })
                        .collect()
                })
                .collect()
        };
        let field = |entry: &[(String, String)], key: &str| {
            entry.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        let direction = |d: &Decl| {
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        };
        for (key, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = list(key);
            assert_eq!(entries.len(), decls.len(), "{key}");
            for (entry, decl) in entries.iter().zip(decls) {
                assert_eq!(field(entry, "name").as_deref(), Some(decl.name));
                assert_eq!(
                    field(entry, "unit").as_deref(),
                    Some(decl.unit),
                    "{}",
                    decl.name
                );
                assert_eq!(
                    field(entry, "better").as_deref(),
                    Some(direction(decl)),
                    "{}",
                    decl.name
                );
                if key == "end_to_end" {
                    let bound: f64 = field(entry, "bound").unwrap().parse().unwrap();
                    assert_eq!(bound, decl.bound, "{}", decl.name);
                }
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(entry, "name").as_deref(), Some(w.name()));
        }
    }
}
