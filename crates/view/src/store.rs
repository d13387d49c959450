//! The multi-resolution history store: downsampled ring-buffer time
//! series, queryable as classads.
//!
//! Every series is kept at several resolutions at once ("tiers"): each
//! observation lands in every tier's current bucket, so a coarse tier is
//! always the exact merge of the fine tier over its window — there is no
//! deferred compaction step to fall behind or lose samples. A tier is a
//! bounded ring of buckets; when it is full the oldest bucket falls off.
//! The default tiers — 10 s × 360, 1 m × 360, 10 m × 432 — retain one
//! hour at full resolution, six hours at a minute, and three days at ten
//! minutes, in a few kilobytes per series.
//!
//! Two series kinds:
//!
//! * **counters** are ingested as cumulative totals and stored as
//!   *deltas* per bucket (rate = delta / interval). Storing the delta —
//!   not the rate — makes the series integrable: the sum of a counter
//!   series' deltas is exactly the counter's observed growth, whatever
//!   the tier. Counter resets (a restarted daemon) are detected and
//!   treated as growth from zero.
//! * **gauges** store min/avg/max/last per bucket.
//!
//! A bucket can also be marked **absent**: the collector writes such a
//! tombstone when a source's ad expired or was withdrawn, so history
//! distinguishes a machine that *departed* (tombstone) from one that is
//! merely unreachable (no samples at all).
//!
//! Queries keep the paper's "stats are just ads" philosophy: each
//! (series, tier) renders as a metadata classad (`MyType =
//! "HistorySeries"`, `Metric`, `Source`, `Pool`, `Tier`, ...), an
//! ordinary classad constraint selects among them, and samples travel as
//! attributes of the same ad.

use classad::ClassAd;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// `MyType` of every series metadata ad a query returns.
pub const SERIES_AD_TYPE: &str = "HistorySeries";

/// What a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Ingested as a cumulative total, stored as per-bucket deltas.
    Counter,
    /// Ingested as an instantaneous value, stored as min/avg/max/last.
    Gauge,
}

impl SeriesKind {
    /// The kind's name as it appears in series metadata ads.
    pub fn label(&self) -> &'static str {
        match self {
            SeriesKind::Counter => "Counter",
            SeriesKind::Gauge => "Gauge",
        }
    }
}

/// One resolution level of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Bucket width, seconds.
    pub interval_secs: u64,
    /// Ring capacity: how many buckets this tier retains.
    pub capacity: usize,
}

/// Store-wide configuration: the downsampling tiers, finest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryConfig {
    /// The resolution tiers, finest first.
    pub tiers: Vec<TierSpec>,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            tiers: vec![
                TierSpec {
                    interval_secs: 10,
                    capacity: 360,
                },
                TierSpec {
                    interval_secs: 60,
                    capacity: 360,
                },
                TierSpec {
                    interval_secs: 600,
                    capacity: 432,
                },
            ],
        }
    }
}

impl HistoryConfig {
    /// A single-tier config — handy for tests that want a fast cadence.
    pub fn single(interval_secs: u64, capacity: usize) -> Self {
        HistoryConfig {
            tiers: vec![TierSpec {
                interval_secs,
                capacity,
            }],
        }
    }
}

/// One downsampled bucket of a series at one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bucket start (unix seconds, aligned to the tier interval).
    pub start: u64,
    /// Smallest observation (gauge value or instantaneous rate).
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sum of observations: gauge values for gauges, *deltas* for
    /// counters (so the series integrates exactly).
    pub sum: f64,
    /// Observations merged into this bucket.
    pub count: u64,
    /// The newest observation.
    pub last: f64,
    /// An absent tombstone landed in this window: the source's ad
    /// expired or was withdrawn (departed, not merely unreachable).
    pub absent: bool,
}

impl Bucket {
    /// The bucket's representative value: average for gauges, the summed
    /// delta divided by the bucket width (= rate/second) for counters.
    pub fn value(&self, kind: SeriesKind, interval_secs: u64) -> f64 {
        match kind {
            SeriesKind::Gauge if self.count > 0 => self.sum / self.count as f64,
            SeriesKind::Counter => self.sum / interval_secs.max(1) as f64,
            _ => 0.0,
        }
    }

    fn merge_observation(&mut self, value: f64, add: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += add;
        self.count += 1;
        self.last = value;
    }
}

/// What [`HistoryStore::recent_window`] distills from the newest buckets
/// of one series' finest tier: the numbers history predicates (alert
/// rules, `pool_doctor`) are written against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecentWindow {
    /// Buckets summarized (≤ the requested window).
    pub points: usize,
    /// The finest tier's bucket width, seconds.
    pub interval_secs: u64,
    /// Oldest summarized bucket's start (unix seconds).
    pub start: u64,
    /// Newest summarized bucket's start (unix seconds).
    pub end: u64,
    /// The newest raw observation.
    pub last: f64,
    /// Mean of per-bucket representative values.
    pub mean: f64,
    /// Smallest per-bucket representative value.
    pub min: f64,
    /// Largest per-bucket representative value.
    pub max: f64,
    /// Rate of change per second: for counters the mean event rate over
    /// the window; for gauges the end-to-end slope.
    pub rate: f64,
    /// Counters: total events in the window (exact, from stored deltas).
    /// Gauges: the time-integral of the value (value·seconds).
    pub integral: f64,
    /// How many of the *newest* buckets carry an absent tombstone — the
    /// deadman signal: a departed source grows this tail every interval.
    pub absent_tail: usize,
    /// Absent tombstones anywhere in the window. A source with tombstones
    /// behind live buckets (`absent_count > absent_tail`) kept dying and
    /// coming back — the flapping signal.
    pub absent_count: usize,
}

#[derive(Debug, Clone)]
struct Tier {
    spec: TierSpec,
    buckets: VecDeque<Bucket>,
}

impl Tier {
    fn new(spec: TierSpec) -> Tier {
        Tier {
            spec,
            buckets: VecDeque::new(),
        }
    }

    fn bucket_at(&mut self, unix: u64) -> Option<&mut Bucket> {
        let start = unix - unix % self.spec.interval_secs.max(1);
        match self.buckets.back().map(|b| b.start) {
            Some(newest) if start < newest => {
                // A late sample: merge if its bucket is still retained.
                self.buckets.iter_mut().rev().find(|b| b.start == start)
            }
            Some(newest) if start == newest => self.buckets.back_mut(),
            _ => {
                if self.buckets.len() == self.spec.capacity {
                    self.buckets.pop_front();
                }
                self.buckets.push_back(Bucket {
                    start,
                    min: 0.0,
                    max: 0.0,
                    sum: 0.0,
                    count: 0,
                    last: 0.0,
                    absent: false,
                });
                self.buckets.back_mut()
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Series {
    kind: SeriesKind,
    /// Last raw cumulative observation (counters only): the baseline the
    /// next delta is computed against.
    last_raw: Option<(u64, f64)>,
    tiers: Vec<Tier>,
}

impl Series {
    fn new(kind: SeriesKind, cfg: &HistoryConfig) -> Series {
        Series {
            kind,
            last_raw: None,
            tiers: cfg.tiers.iter().map(|&spec| Tier::new(spec)).collect(),
        }
    }

    fn observe(&mut self, unix: u64, value: f64, add: f64) {
        for tier in &mut self.tiers {
            if let Some(b) = tier.bucket_at(unix) {
                b.merge_observation(value, add);
            }
        }
    }

    fn tombstone(&mut self, unix: u64) {
        for tier in &mut self.tiers {
            if let Some(b) = tier.bucket_at(unix) {
                b.absent = true;
            }
        }
    }
}

/// A key naming one series: which pool it describes, what it measures,
/// and which daemon (or pool-level rollup) it came from.
pub type SeriesKey = (String, String, String);

/// The multi-resolution time-series store. Not internally synchronized —
/// wrap it in a mutex to share (see [`crate::Collector`]).
#[derive(Debug, Clone)]
pub struct HistoryStore {
    cfg: HistoryConfig,
    /// Keyed `(pool, metric, source)`; a `BTreeMap` so serialization and
    /// query replies are deterministic.
    series: BTreeMap<SeriesKey, Series>,
    observations: u64,
}

impl Default for HistoryStore {
    fn default() -> Self {
        HistoryStore::new(HistoryConfig::default())
    }
}

impl HistoryStore {
    /// An empty store with the given tier layout.
    pub fn new(cfg: HistoryConfig) -> HistoryStore {
        HistoryStore {
            cfg,
            series: BTreeMap::new(),
            observations: 0,
        }
    }

    /// The tier layout in force.
    pub fn config(&self) -> &HistoryConfig {
        &self.cfg
    }

    /// Number of series retained.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total observations ingested over the store's lifetime (survives
    /// checkpoint/recover).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    fn series_mut(
        &mut self,
        pool: &str,
        metric: &str,
        source: &str,
        kind: SeriesKind,
    ) -> &mut Series {
        let key = (pool.to_string(), metric.to_string(), source.to_string());
        let cfg = &self.cfg;
        self.series
            .entry(key)
            .or_insert_with(|| Series::new(kind, cfg))
    }

    /// Record a gauge observation.
    pub fn record_gauge(&mut self, pool: &str, metric: &str, source: &str, unix: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.observations += 1;
        self.series_mut(pool, metric, source, SeriesKind::Gauge)
            .observe(unix, value, value);
    }

    /// Record a counter observation from its *cumulative* total. The
    /// first observation of a series establishes the baseline and lands
    /// no bucket; later ones store the delta since the previous
    /// observation (so the series' integral equals the counter's growth
    /// over the observed window). A total below the baseline means the
    /// counter reset (daemon restart): growth restarts from zero.
    pub fn record_counter(
        &mut self,
        pool: &str,
        metric: &str,
        source: &str,
        unix: u64,
        total: f64,
    ) {
        if !total.is_finite() {
            return;
        }
        self.observations += 1;
        let series = self.series_mut(pool, metric, source, SeriesKind::Counter);
        let Some((prev_unix, prev_total)) = series.last_raw.replace((unix, total)) else {
            return;
        };
        let delta = if total >= prev_total {
            total - prev_total
        } else {
            total // reset: the counter restarted from zero
        };
        let elapsed = unix.saturating_sub(prev_unix).max(1);
        series.observe(unix, delta / elapsed as f64, delta);
    }

    /// Drop an absent tombstone into every series of `source` in `pool`:
    /// the source's ad expired or was withdrawn, i.e. the daemon
    /// *departed* rather than going quiet.
    pub fn record_absent(&mut self, pool: &str, source: &str, unix: u64) {
        for ((p, _, s), series) in self.series.iter_mut() {
            if p == pool && s == source {
                series.tombstone(unix);
            }
        }
    }

    /// Drop an absent tombstone into **every** series of `pool`,
    /// regardless of source: the whole pool stopped answering (an
    /// unreachable flock peer), so all of its rollups are stale together.
    /// Without this, a dead peer's series would simply stop advancing —
    /// indistinguishable from a healthy-but-idle pool.
    pub fn record_pool_absent(&mut self, pool: &str, unix: u64) {
        for ((p, _, _), series) in self.series.iter_mut() {
            if p == pool {
                series.tombstone(unix);
            }
        }
    }

    /// Every (series, tier) as a `HistorySeries` ad carrying the tier's
    /// whole retained window, in store order: the collection a `Query`
    /// pinned to `other.MyType == "HistorySeries"` selects from, by series
    /// metadata (`Metric`, `Source`, `Pool`, `Tier`, ...).
    pub fn series_ads(&self) -> Vec<ClassAd> {
        let mut out = Vec::new();
        for ((pool, metric, source), series) in &self.series {
            for (tier_idx, tier) in series.tiers.iter().enumerate() {
                out.push(Self::series_ad(
                    pool, metric, source, series, tier_idx, tier,
                ));
            }
        }
        out
    }

    fn series_ad(
        pool: &str,
        metric: &str,
        source: &str,
        series: &Series,
        tier_idx: usize,
        tier: &Tier,
    ) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.set_str("MyType", SERIES_AD_TYPE);
        ad.set_str("Name", &format!("{pool}/{metric}/{source}@{tier_idx}"));
        ad.set_str("Pool", pool);
        ad.set_str("Metric", metric);
        ad.set_str("Source", source);
        ad.set_str("Kind", series.kind.label());
        ad.set_int("Tier", tier_idx as i64);
        ad.set_int("IntervalSecs", tier.spec.interval_secs as i64);
        ad.set_int("Capacity", tier.spec.capacity as i64);
        // Series ads are inert data: they satisfy the advertising
        // protocol's conventions without ever matching anything.
        ad.set_bool("Constraint", false);
        ad.set_int("Rank", 0);
        let buckets: Vec<&Bucket> = tier.buckets.iter().collect();
        ad.set_int("Points", buckets.len() as i64);
        if let (Some(first), Some(last)) = (buckets.first(), buckets.last()) {
            ad.set_int("StartUnix", first.start as i64);
            ad.set_int("EndUnix", (last.start + tier.spec.interval_secs) as i64);
        }
        let mut times = String::new();
        let mut data = String::new();
        let mut mins = String::new();
        let mut maxs = String::new();
        let mut lasts = String::new();
        let mut counts = String::new();
        let mut absents = String::new();
        let mut integral = 0.0;
        for (i, b) in buckets.iter().enumerate() {
            if i > 0 {
                for s in [
                    &mut times,
                    &mut data,
                    &mut mins,
                    &mut maxs,
                    &mut lasts,
                    &mut counts,
                    &mut absents,
                ] {
                    s.push(',');
                }
            }
            let _ = write!(times, "{}", b.start);
            let _ = write!(
                data,
                "{}",
                trim_f64(b.value(series.kind, tier.spec.interval_secs))
            );
            let _ = write!(mins, "{}", trim_f64(b.min));
            let _ = write!(maxs, "{}", trim_f64(b.max));
            let _ = write!(lasts, "{}", trim_f64(b.last));
            let _ = write!(counts, "{}", b.count);
            absents.push(if b.absent { '1' } else { '0' });
            integral += b.sum;
        }
        ad.set_str("Times", &times);
        ad.set_str("Data", &data);
        ad.set_str("DataMin", &mins);
        ad.set_str("DataMax", &maxs);
        ad.set_str("DataLast", &lasts);
        ad.set_str("Counts", &counts);
        ad.set_str("Absent", &absents);
        // For counters the buckets store raw deltas, so this is exactly
        // the counter's growth over the retained window — comparable to
        // the live self-ad counter to within one sample interval.
        if series.kind == SeriesKind::Counter {
            ad.set_real("Integral", integral);
        }
        ad
    }

    /// Direct read access to one series' buckets at one tier (tests and
    /// in-process consumers; the wire path goes through [`Self::series_ads`]).
    pub fn buckets(
        &self,
        pool: &str,
        metric: &str,
        source: &str,
        tier_idx: usize,
    ) -> Option<Vec<Bucket>> {
        let key = (pool.to_string(), metric.to_string(), source.to_string());
        self.series
            .get(&key)
            .and_then(|s| s.tiers.get(tier_idx))
            .map(|t| t.buckets.iter().copied().collect())
    }

    /// Every series key currently retained, in store order.
    pub fn series_keys(&self) -> Vec<SeriesKey> {
        self.series.keys().cloned().collect()
    }

    /// Summarize the newest `window` finest-tier buckets of one series
    /// into the numbers alerting predicates are written against:
    /// rate-of-change, integral, mean, and the absent-tombstone tail.
    /// `None` when the series does not exist or has no buckets yet.
    pub fn recent_window(
        &self,
        pool: &str,
        metric: &str,
        source: &str,
        window: usize,
    ) -> Option<RecentWindow> {
        let key = (pool.to_string(), metric.to_string(), source.to_string());
        let series = self.series.get(&key)?;
        let tier = series.tiers.first()?;
        let n = window.max(1).min(tier.buckets.len());
        if n == 0 {
            return None;
        }
        let interval = tier.spec.interval_secs.max(1);
        let buckets: Vec<&Bucket> = tier.buckets.iter().rev().take(n).collect();
        // `buckets` is newest-first; walk it once for the aggregates.
        let newest = buckets.first()?;
        let oldest = buckets.last()?;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut integral = 0.0;
        let mut absent_tail = 0;
        let mut absent_count = 0;
        let mut tail_open = true;
        for b in &buckets {
            let v = b.value(series.kind, interval);
            sum += v;
            min = min.min(v);
            max = max.max(v);
            if series.kind == SeriesKind::Counter {
                integral += b.sum;
            } else {
                integral += v * interval as f64;
            }
            if b.absent {
                absent_count += 1;
                if tail_open {
                    absent_tail += 1;
                }
            } else {
                tail_open = false;
            }
        }
        let elapsed = (newest.start.saturating_sub(oldest.start)).max(interval) as f64;
        let (first_v, last_v) = (
            oldest.value(series.kind, interval),
            newest.value(series.kind, interval),
        );
        let rate = match series.kind {
            // Each counter bucket holds a delta over one interval, so the
            // window's mean event rate divides the summed deltas by the
            // time the buckets cover.
            SeriesKind::Counter => integral / (n as u64 * interval) as f64,
            SeriesKind::Gauge => (last_v - first_v) / elapsed,
        };
        Some(RecentWindow {
            points: n,
            interval_secs: interval,
            start: oldest.start,
            end: newest.start,
            last: newest.last,
            mean: sum / n as f64,
            min,
            max,
            rate,
            integral,
            absent_tail,
            absent_count,
        })
    }

    // ---- checkpoint state ----

    /// Serialize the whole store into an opaque single-string state
    /// (newline-framed, tab-separated) suitable for a journal
    /// `Checkpoint` event's payload.
    pub fn encode_state(&self) -> String {
        let mut out = String::from("condor-view-state v1\n");
        let _ = writeln!(out, "observations\t{}", self.observations);
        out.push_str("tiers");
        for t in &self.cfg.tiers {
            let _ = write!(out, "\t{}x{}", t.interval_secs, t.capacity);
        }
        out.push('\n');
        for ((pool, metric, source), series) in &self.series {
            let _ = write!(
                out,
                "series\t{}\t{}\t{}\t{}",
                clean(pool),
                clean(metric),
                clean(source),
                series.kind.label()
            );
            match series.last_raw {
                Some((u, v)) => {
                    let _ = write!(out, "\t{u}\t{v}");
                }
                None => out.push_str("\t-\t-"),
            }
            out.push('\n');
            for (ti, tier) in series.tiers.iter().enumerate() {
                for b in &tier.buckets {
                    let _ = writeln!(
                        out,
                        "b\t{ti}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                        b.start, b.min, b.max, b.sum, b.count, b.last, b.absent as u8
                    );
                }
            }
        }
        out
    }

    /// Rebuild a store from [`Self::encode_state`] output. `None` when
    /// the payload is not a view-state blob (wrong magic, torn content).
    pub fn decode_state(state: &str) -> Option<HistoryStore> {
        let mut lines = state.lines();
        if lines.next()? != "condor-view-state v1" {
            return None;
        }
        let mut store = HistoryStore::new(HistoryConfig { tiers: Vec::new() });
        let mut current: Option<SeriesKey> = None;
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.first().copied()? {
                "observations" => store.observations = fields.get(1)?.parse().ok()?,
                "tiers" => {
                    for spec in &fields[1..] {
                        let (i, c) = spec.split_once('x')?;
                        store.cfg.tiers.push(TierSpec {
                            interval_secs: i.parse().ok()?,
                            capacity: c.parse().ok()?,
                        });
                    }
                }
                "series" => {
                    let kind = match *fields.get(4)? {
                        "Counter" => SeriesKind::Counter,
                        "Gauge" => SeriesKind::Gauge,
                        _ => return None,
                    };
                    let key = (
                        fields.get(1)?.to_string(),
                        fields.get(2)?.to_string(),
                        fields.get(3)?.to_string(),
                    );
                    let mut series = Series::new(kind, &store.cfg);
                    if let (Ok(u), Ok(v)) =
                        (fields.get(5)?.parse::<u64>(), fields.get(6)?.parse::<f64>())
                    {
                        series.last_raw = Some((u, v));
                    }
                    store.series.insert(key.clone(), series);
                    current = Some(key);
                }
                "b" => {
                    let key = current.as_ref()?;
                    let series = store.series.get_mut(key)?;
                    let tier = series
                        .tiers
                        .get_mut(fields.get(1)?.parse::<usize>().ok()?)?;
                    let bucket = Bucket {
                        start: fields.get(2)?.parse().ok()?,
                        min: fields.get(3)?.parse().ok()?,
                        max: fields.get(4)?.parse().ok()?,
                        sum: fields.get(5)?.parse().ok()?,
                        count: fields.get(6)?.parse().ok()?,
                        last: fields.get(7)?.parse().ok()?,
                        absent: fields.get(8)? == &"1",
                    };
                    if tier.buckets.len() == tier.spec.capacity {
                        tier.buckets.pop_front();
                    }
                    tier.buckets.push_back(bucket);
                }
                _ => return None,
            }
        }
        Some(store)
    }
}

/// The per-point sample lists of a `HistorySeries` ad, comma-joined in
/// time order.
const SAMPLE_LISTS: [&str; 7] = [
    "Times", "Data", "DataMin", "DataMax", "DataLast", "Counts", "Absent",
];

/// A `HistorySeries` ad cut to its newest `n` points (`0` keeps them
/// all): what a client shows for `--limit n`. The sample lists, `Points`
/// and `StartUnix` describe the kept points; `Integral`, which covers
/// the whole retained window, is dropped when points are cut.
pub fn keep_newest(ad: &ClassAd, n: usize) -> ClassAd {
    let points = ad.get_int("Points").unwrap_or(0).max(0) as usize;
    if n == 0 || points <= n {
        return ad.clone();
    }
    let mut out = ad.clone();
    for attr in SAMPLE_LISTS {
        if let Some(list) = ad.get_string(attr) {
            let kept: Vec<&str> = list.split(',').collect();
            out.set_str(attr, &kept[kept.len().saturating_sub(n)..].join(","));
        }
    }
    out.set_int("Points", n as i64);
    if let Some(start) = out
        .get_string("Times")
        .and_then(|t| t.split(',').next()?.parse::<i64>().ok())
    {
        out.set_int("StartUnix", start);
    }
    out.remove("Integral");
    out
}

/// Render an `f64` compactly: integers drop the fraction, everything
/// else keeps Rust's shortest round-trip form.
fn trim_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn clean(s: &str) -> String {
    s.replace(['\t', '\n'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::{constraint_holds, EvalPolicy, MatchConventions};

    fn two_tier() -> HistoryConfig {
        HistoryConfig {
            tiers: vec![
                TierSpec {
                    interval_secs: 10,
                    capacity: 8,
                },
                TierSpec {
                    interval_secs: 60,
                    capacity: 4,
                },
            ],
        }
    }

    #[test]
    fn gauges_downsample_to_min_avg_max_last() {
        let mut store = HistoryStore::new(two_tier());
        for (t, v) in [(100, 4.0), (103, 8.0), (107, 6.0)] {
            store.record_gauge("local", "Utilization", "pool", t, v);
        }
        let fine = store.buckets("local", "Utilization", "pool", 0).unwrap();
        assert_eq!(fine.len(), 1);
        let b = fine[0];
        assert_eq!(b.start, 100);
        assert_eq!((b.min, b.max, b.last), (4.0, 8.0, 6.0));
        assert_eq!(b.value(SeriesKind::Gauge, 10), 6.0);
        // The coarse tier merged the same observations.
        let coarse = store.buckets("local", "Utilization", "pool", 1).unwrap();
        assert_eq!(coarse[0].start, 60);
        assert_eq!(coarse[0].count, 3);
        assert_eq!(coarse[0].value(SeriesKind::Gauge, 60), 6.0);
    }

    #[test]
    fn counters_store_deltas_and_integrate_exactly() {
        let mut store = HistoryStore::new(two_tier());
        // Cumulative totals 0, 5, 12, 12, 30 — growth 30.
        for (t, v) in [
            (100, 0.0),
            (110, 5.0),
            (120, 12.0),
            (130, 12.0),
            (140, 30.0),
        ] {
            store.record_counter("local", "MatchRate", "mm", t, v);
        }
        let fine = store.buckets("local", "MatchRate", "mm", 0).unwrap();
        let total: f64 = fine.iter().map(|b| b.sum).sum();
        assert_eq!(total, 30.0, "integral equals the counter's growth");
        // Rates are deltas over the bucket width.
        assert_eq!(fine[0].value(SeriesKind::Counter, 10), 0.5);
        // The coarse tier integrates to the same growth.
        let coarse = store.buckets("local", "MatchRate", "mm", 1).unwrap();
        let coarse_total: f64 = coarse.iter().map(|b| b.sum).sum();
        assert_eq!(coarse_total, 30.0);
    }

    #[test]
    fn counter_reset_counts_as_growth_from_zero() {
        let mut store = HistoryStore::new(two_tier());
        store.record_counter("local", "MatchRate", "mm", 100, 50.0);
        store.record_counter("local", "MatchRate", "mm", 110, 60.0); // +10
        store.record_counter("local", "MatchRate", "mm", 120, 3.0); // restart: +3
        let fine = store.buckets("local", "MatchRate", "mm", 0).unwrap();
        let total: f64 = fine.iter().map(|b| b.sum).sum();
        assert_eq!(total, 13.0);
    }

    #[test]
    fn rings_stay_bounded() {
        let mut store = HistoryStore::new(two_tier());
        for i in 0..2000 {
            store.record_gauge("local", "Claimed", "ra", i * 10, 1.0);
        }
        let fine = store.buckets("local", "Claimed", "ra", 0).unwrap();
        assert_eq!(fine.len(), 8);
        assert_eq!(fine.last().unwrap().start, 19990);
        let coarse = store.buckets("local", "Claimed", "ra", 1).unwrap();
        assert_eq!(coarse.len(), 4);
    }

    #[test]
    fn absent_tombstones_mark_every_series_of_the_source() {
        let mut store = HistoryStore::new(two_tier());
        store.record_gauge("local", "Claimed", "ra-1", 100, 1.0);
        store.record_gauge("local", "Claimed", "ra-2", 100, 0.0);
        store.record_absent("local", "ra-1", 112);
        let gone = store.buckets("local", "Claimed", "ra-1", 0).unwrap();
        assert!(gone.iter().any(|b| b.absent));
        let alive = store.buckets("local", "Claimed", "ra-2", 0).unwrap();
        assert!(alive.iter().all(|b| !b.absent));
    }

    #[test]
    fn pool_absent_tombstones_mark_every_series_of_the_pool() {
        // Regression: a flock peer that stops answering must tombstone
        // *all* of its rollup series, while other pools stay untouched.
        let mut store = HistoryStore::new(two_tier());
        store.record_gauge("peer:1", "Utilization", "pool", 100, 0.5);
        store.record_counter("peer:1", "MatchRate", "pool", 100, 3.0);
        store.record_gauge("local", "Utilization", "pool", 100, 0.9);
        store.record_pool_absent("peer:1", 112);
        for metric in ["Utilization", "MatchRate"] {
            let gone = store.buckets("peer:1", metric, "pool", 0).unwrap();
            assert!(
                gone.iter().any(|b| b.absent),
                "{metric} must carry the pool tombstone"
            );
        }
        let alive = store.buckets("local", "Utilization", "pool", 0).unwrap();
        assert!(alive.iter().all(|b| !b.absent));
    }

    #[test]
    fn recent_window_summarizes_rate_integral_and_absent_tail() {
        let mut store = HistoryStore::new(two_tier());
        // A counter growing 5 events per 10 s bucket: rate 0.5/s. The
        // first observation only establishes the delta baseline, so four
        // ingests make three buckets.
        for i in 0..4u64 {
            store.record_counter("local", "MatchRate", "mm", 100 + i * 10, (i * 5) as f64);
        }
        let w = store.recent_window("local", "MatchRate", "mm", 4).unwrap();
        assert_eq!(w.points, 3);
        assert_eq!(w.integral, 15.0, "sum of deltas is the counter's growth");
        assert!((w.rate - 0.5).abs() < 1e-9, "rate = {}", w.rate);
        assert_eq!(w.absent_tail, 0);
        // A gauge sliding from 1.0 to 0.0 over 30 s: slope -1/30.
        for i in 0..4u64 {
            store.record_gauge(
                "local",
                "Utilization",
                "pool",
                100 + i * 10,
                1.0 - i as f64 / 3.0,
            );
        }
        let w = store
            .recent_window("local", "Utilization", "pool", 4)
            .unwrap();
        assert!((w.rate - (-1.0 / 30.0)).abs() < 1e-9, "rate = {}", w.rate);
        assert!((w.last - 0.0).abs() < 1e-9);
        assert!((w.max - 1.0).abs() < 1e-9);
        // Absent tombstones at the newest edge grow the deadman tail; an
        // older tombstone behind a live bucket does not count.
        store.record_absent("local", "pool", 142);
        store.record_absent("local", "pool", 151);
        let w = store
            .recent_window("local", "Utilization", "pool", 6)
            .unwrap();
        assert_eq!(w.absent_tail, 2);
        // Window larger than retention clamps; unknown series is None.
        assert!(store
            .recent_window("local", "Utilization", "pool", 99)
            .is_some());
        assert!(store.recent_window("local", "Nope", "pool", 4).is_none());
    }

    /// The series ads whose constraint `src` holds: how a `Query` of the
    /// `HistorySeries` collection selects among them.
    fn select(store: &HistoryStore, src: &str) -> Vec<ClassAd> {
        let mut query = ClassAd::new();
        query.set("Constraint", classad::parse_expr(src).unwrap());
        let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
        store
            .series_ads()
            .into_iter()
            .filter(|ad| constraint_holds(&query, ad, &policy, &conv))
            .collect()
    }

    #[test]
    fn query_selects_series_by_metadata_constraint() {
        let mut store = HistoryStore::new(two_tier());
        store.record_gauge("local", "Utilization", "pool", 100, 0.5);
        store.record_counter("local", "MatchRate", "mm", 100, 0.0);
        store.record_counter("local", "MatchRate", "mm", 110, 4.0);
        let ads = select(
            &store,
            r#"other.MyType == "HistorySeries" && other.Metric == "Utilization" && other.Tier == 0"#,
        );
        assert_eq!(ads.len(), 1);
        let ad = &ads[0];
        assert_eq!(ad.get_string("MyType"), Some(SERIES_AD_TYPE));
        assert_eq!(ad.get_string("Name"), Some("local/Utilization/pool@0"));
        assert_eq!(ad.get_string("Kind"), Some("Gauge"));
        assert_eq!(ad.get_int("IntervalSecs"), Some(10));
        assert_eq!(ad.get_int("Points"), Some(1));
        assert_eq!(ad.get_string("Data"), Some("0.5"));
        assert_eq!(ad.get_string("Times"), Some("100"));
        // Everything at every tier.
        assert_eq!(store.series_ads().len(), 4, "two series x two tiers");
        let rate = select(&store, r#"other.Metric == "MatchRate" && other.Tier == 0"#);
        assert_eq!(rate[0].get_string("Kind"), Some("Counter"));
        assert_eq!(
            rate[0].get("Integral").map(|e| e.to_string()),
            Some("4.0".into())
        );
    }

    #[test]
    fn query_limit_keeps_the_newest_samples() {
        let mut store = HistoryStore::new(two_tier());
        for i in 0..5 {
            store.record_gauge("local", "Utilization", "pool", 100 + i * 10, i as f64);
            store.record_counter("local", "MatchRate", "mm", 100 + i * 10, (i * 10) as f64);
        }
        let ads = select(
            &store,
            r#"other.Metric == "Utilization" && other.Tier == 0"#,
        );
        let whole = &ads[0];
        assert_eq!(whole.get_int("Points"), Some(5), "the whole tier");
        let cut = keep_newest(whole, 2);
        assert_eq!(cut.get_int("Points"), Some(2));
        assert_eq!(cut.get_string("Data"), Some("3,4"));
        assert_eq!(cut.get_string("Times"), Some("130,140"));
        assert_eq!(cut.get_string("Absent"), Some("0,0"));
        assert_eq!(cut.get_int("StartUnix"), Some(130));
        assert_eq!(cut.get_int("EndUnix"), whole.get_int("EndUnix"));
        // `0` and a limit past the retained points keep the ad as it is.
        assert_eq!(&keep_newest(whole, 0), whole);
        assert_eq!(&keep_newest(whole, 5), whole);
        // A cut counter no longer claims the whole window's integral.
        let rate = &select(&store, r#"other.Metric == "MatchRate" && other.Tier == 0"#)[0];
        assert!(rate.contains("Integral"));
        let cut = keep_newest(rate, 1);
        assert_eq!(cut.get_int("Points"), Some(1));
        assert!(!cut.contains("Integral"), "{cut}");
    }

    #[test]
    fn state_round_trips_through_encode_decode() {
        let mut store = HistoryStore::new(two_tier());
        store.record_gauge("local", "Utilization", "pool", 100, 0.25);
        store.record_counter("local", "MatchRate", "mm", 100, 0.0);
        store.record_counter("local", "MatchRate", "mm", 113, 7.0);
        store.record_absent("local", "pool", 120);
        let state = store.encode_state();
        let back = HistoryStore::decode_state(&state).expect("state decodes");
        assert_eq!(back.config(), store.config());
        assert_eq!(back.observations(), store.observations());
        assert_eq!(
            back.buckets("local", "Utilization", "pool", 0),
            store.buckets("local", "Utilization", "pool", 0)
        );
        assert_eq!(
            back.buckets("local", "MatchRate", "mm", 1),
            store.buckets("local", "MatchRate", "mm", 1)
        );
        // The counter baseline survives: the next observation continues
        // the delta chain instead of re-baselining.
        let mut resumed = back;
        resumed.record_counter("local", "MatchRate", "mm", 125, 9.0);
        let total: f64 = resumed
            .buckets("local", "MatchRate", "mm", 0)
            .unwrap()
            .iter()
            .map(|b| b.sum)
            .sum();
        assert_eq!(total, 9.0);
        // Garbage does not decode.
        assert!(HistoryStore::decode_state("not a state").is_none());
    }
}
