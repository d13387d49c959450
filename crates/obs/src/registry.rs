//! The metrics registry: counters, gauges, and time-windowed histograms.
//!
//! Hot paths touch only atomics: a component registers its metrics once
//! (paying the registry's map lock), keeps the returned `Arc` handles in a
//! plain struct, and updates them with relaxed atomic operations.
//! Snapshots walk the registry maps and are the only readers, so they
//! never contend with instrumented code beyond the atomic loads.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotone counter (relaxed atomics: monotone, no ordering needs).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (e.g. active connections, idle jobs).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Time slices per window: a sample ages out with its slice, between
/// ⅞·window and one window after it was recorded.
const SLICES: usize = 8;

/// Bits of significand below the leading one that pick a bucket: 32
/// buckets per power of two, so a bucket's bounds differ by at most 1/32
/// of the smaller one.
const SUB_BITS: u32 = 5;

/// A histogram over the samples recorded within a sliding time window
/// (older samples age out), for quantities like cycle duration where the
/// *recent* distribution is what an operator wants.
///
/// The window is a ring of eight slices, each `window / 8` long. A slice
/// keeps exact `count/sum/min/max` and a sparse map of log-linear buckets,
/// so `record` costs the same however many samples the window holds, a
/// snapshot costs the occupied buckets, and memory does not grow with the
/// sample rate. Percentiles report their bucket's lower bound clamped to
/// `[min, max]`: within 1/32 relative of the exact nearest-rank sample.
#[derive(Debug)]
pub struct WindowedHistogram {
    start: Instant,
    slice_nanos: u128,
    slices: Mutex<[Slice; SLICES]>,
}

/// The samples of one `window / 8` period.
#[derive(Debug, Default)]
struct Slice {
    /// Which period since `start` this slice holds.
    epoch: u128,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples per [`bucket_of`] key.
    buckets: BTreeMap<i32, u64>,
}

impl Slice {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_of(value)).or_default() += 1;
    }
}

/// The bucket holding a finite `v`. Keys order like the values they hold:
/// 0 is zero, `k > 0` is magnitude bucket `k` of a positive value and `-k`
/// the same magnitude negated. Subnormals are normalized first, so every
/// power of two down to the smallest subnormal gets its own 32 buckets.
fn bucket_of(v: f64) -> i32 {
    let bits = v.abs().to_bits();
    if bits == 0 {
        return 0;
    }
    let exponent = (bits >> 52) as i32;
    let mantissa = bits & ((1 << 52) - 1);
    let (octave, sub) = if exponent > 0 {
        (exponent, mantissa >> (52 - SUB_BITS))
    } else {
        let lead = 63 - mantissa.leading_zeros() as i32;
        let sub = if lead >= SUB_BITS as i32 {
            mantissa >> (lead - SUB_BITS as i32)
        } else {
            mantissa << (SUB_BITS as i32 - lead)
        };
        (lead - 51, sub & 31)
    };
    let k = ((octave + 51) << SUB_BITS) + sub as i32 + 1;
    if v < 0.0 {
        -k
    } else {
        k
    }
}

/// The smallest value in magnitude bucket `k >= 1`. The bucket past the
/// largest finite one starts at infinity.
fn magnitude_floor(k: i32) -> f64 {
    let octave = ((k - 1) >> SUB_BITS) - 51;
    let sub = ((k - 1) & 31) as u64;
    if octave > 0 {
        f64::from_bits(((octave as u64) << 52) | (sub << (52 - SUB_BITS)))
    } else {
        let lead = octave + 51;
        let m = (1 << SUB_BITS) | sub;
        f64::from_bits(if lead >= SUB_BITS as i32 {
            m << (lead - SUB_BITS as i32)
        } else {
            m >> (SUB_BITS as i32 - lead)
        })
    }
}

/// The smallest value bucket `key` can hold.
fn bucket_floor(key: i32) -> f64 {
    match key {
        0 => 0.0,
        k if k > 0 => magnitude_floor(k),
        k => -magnitude_floor(1 - k),
    }
}

/// Point-in-time summary of a [`WindowedHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples currently inside the window.
    pub count: u64,
    /// Smallest sample in the window.
    pub min: f64,
    /// Largest sample in the window.
    pub max: f64,
    /// Mean of the window.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl WindowedHistogram {
    /// A histogram forgetting samples older than `window`.
    pub fn new(window: Duration) -> Self {
        WindowedHistogram {
            start: Instant::now(),
            slice_nanos: (window.as_nanos() / SLICES as u128).max(1),
            slices: Mutex::default(),
        }
    }

    fn epoch_now(&self) -> u128 {
        self.start.elapsed().as_nanos() / self.slice_nanos
    }

    /// Record one sample now. Non-finite samples are dropped (they would
    /// poison every percentile and cannot render into a classad).
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let epoch = self.epoch_now();
        let mut slices = self.slices.lock();
        let slice = &mut slices[(epoch % SLICES as u128) as usize];
        if slice.epoch != epoch {
            // The slot last held a period a whole window ago: reuse it.
            slice.epoch = epoch;
            slice.count = 0;
            slice.sum = 0.0;
            slice.buckets.clear();
        }
        slice.record(value);
    }

    /// Summarize the samples still inside the window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let epoch = self.epoch_now();
        let mut merged: BTreeMap<i32, u64> = BTreeMap::new();
        let (mut count, mut sum) = (0u64, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in self.slices.lock().iter() {
            if s.count == 0 || s.epoch + (SLICES as u128) <= epoch {
                continue;
            }
            count += s.count;
            sum += s.sum;
            min = min.min(s.min);
            max = max.max(s.max);
            for (&k, &n) in &s.buckets {
                *merged.entry(k).or_default() += n;
            }
        }
        if count == 0 {
            return HistogramSnapshot::default();
        }
        // Nearest rank, as over the sorted samples: the bucket holding
        // the sample at index `p * (count - 1)`.
        let pct = |p: f64| {
            let idx = ((p * (count - 1) as f64).round() as u64).min(count - 1);
            let mut seen = 0;
            for (&k, &n) in &merged {
                seen += n;
                if seen > idx {
                    return bucket_floor(k).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            min,
            max,
            mean: sum / count as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }
}

/// A named collection of metrics. Cloneable handles come out; a
/// [`MetricsSnapshot`] goes in the other direction.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<WindowedHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the named counter. Names should be `snake_case`; they
    /// render as PascalCase classad attributes (see
    /// [`crate::selfad::attr_name`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(self.counters.lock().entry(name.to_string()).or_default())
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(self.gauges.lock().entry(name.to_string()).or_default())
    }

    /// Get or create the named windowed histogram. The window is fixed at
    /// first registration; later calls reuse the existing histogram.
    pub fn histogram(&self, name: &str, window: Duration) -> Arc<WindowedHistogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(WindowedHistogram::new(window))),
        )
    }

    /// A consistent-enough snapshot of every registered metric (each
    /// metric is read atomically; the set is read under the map locks).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Every metric's value at one instant. Renders into a classad via
/// [`MetricsSnapshot::set_attrs`] (or the full self-ad via
/// [`crate::selfad::self_ad`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Write every metric into `ad` as an evaluated attribute: counters
    /// and gauges as integers, histograms as a family of
    /// `<Name>Count/Min/Max/Mean/P50/P90/P99` attributes (empty histograms
    /// contribute only their zero `Count`).
    pub fn set_attrs(&self, ad: &mut classad::ClassAd) {
        use crate::selfad::attr_name;
        for (name, v) in &self.counters {
            ad.set_int(attr_name(name), *v as i64);
        }
        for (name, v) in &self.gauges {
            ad.set_int(attr_name(name), *v);
        }
        for (name, h) in &self.histograms {
            let base = attr_name(name);
            ad.set_int(format!("{base}Count"), h.count as i64);
            if h.count > 0 {
                ad.set_real(format!("{base}Min"), h.min);
                ad.set_real(format!("{base}Max"), h.max);
                ad.set_real(format!("{base}Mean"), h.mean);
                ad.set_real(format!("{base}P50"), h.p50);
                ad.set_real(format!("{base}P90"), h.p90);
                ad.set_real(format!("{base}P99"), h.p99);
            }
        }
    }

    /// Look up a counter by metric name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Look up a gauge by metric name.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("hits").get(), 3);
        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.snapshot().gauge("depth"), 3);
        assert_eq!(reg.snapshot().counter("hits"), 3);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn histogram_summarizes_and_rejects_non_finite() {
        let reg = Registry::new();
        let h = reg.histogram("lat", Duration::from_secs(3600));
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 5.0);
    }

    #[test]
    fn histogram_window_ages_samples_out() {
        let h = WindowedHistogram::new(Duration::from_millis(30));
        h.record(10.0);
        std::thread::sleep(Duration::from_millis(60));
        h.record(20.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 20.0);
    }

    #[test]
    fn histogram_memory_is_bounded_by_buckets_not_samples() {
        let h = WindowedHistogram::new(Duration::from_secs(3600));
        let mut octaves = std::collections::BTreeSet::new();
        for i in 0..1_000_000u32 {
            let v = f64::from(i) * 0.37 + 0.5;
            octaves.insert(v.log2().floor() as i32);
            h.record(v);
        }
        let buckets: usize = h.slices.lock().iter().map(|s| s.buckets.len()).sum();
        assert!(buckets <= SLICES * octaves.len() * 32, "{buckets} buckets");
        assert_eq!(h.snapshot().count, 1_000_000);
    }

    #[test]
    fn bucket_keys_order_like_values_and_floors_bound_them() {
        let values = [
            -1e308,
            -1e300,
            -3.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            0.0,
            f64::from_bits(1),
            f64::from_bits(7),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            1.0,
            1.03,
            1e300,
            f64::MAX,
        ];
        for w in values.windows(2) {
            assert!(bucket_of(w[0]) <= bucket_of(w[1]), "{w:?}");
        }
        for v in values {
            let floor = bucket_floor(bucket_of(v));
            assert!(floor <= v, "{v:e}: floor {floor:e}");
            assert!(
                (v - floor).abs() <= v.abs() / 32.0,
                "{v:e}: floor {floor:e}"
            );
        }
        // Only the most negative bucket floors at -inf; snapshots clamp it.
        assert_eq!(bucket_floor(bucket_of(-f64::MAX)), f64::NEG_INFINITY);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = WindowedHistogram::new(Duration::from_secs(1));
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn snapshot_renders_into_classad() {
        let reg = Registry::new();
        reg.counter("frames_handled").add(7);
        reg.gauge("active_connections").set(2);
        reg.histogram("cycle_duration_ms", Duration::from_secs(60))
            .record(1.5);
        let mut ad = classad::ClassAd::new();
        reg.snapshot().set_attrs(&mut ad);
        assert_eq!(ad.get_int("FramesHandled"), Some(7));
        assert_eq!(ad.get_int("ActiveConnections"), Some(2));
        assert_eq!(ad.get_int("CycleDurationMsCount"), Some(1));
        assert!(ad.contains("CycleDurationMsP99"));
    }
}
